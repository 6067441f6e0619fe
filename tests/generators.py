"""Seeded random generators for worlds (algebra + interfaces + traces) and
for trace assertions, shared by the semantics and acceptance suites."""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from archcheck.algebra import (
    Algebra,
    Apply,
    BaseSort,
    BoolLit,
    BoundedExists,
    BoundedForall,
    Equals,
    ExistsData,
    ForallData,
    Iff,
    Implies,
    Member,
    Not,
    Or,
    And,
    PairSort,
    PairTerm,
    PredAtom,
    SetTerm,
    Signature,
    Var,
)
from archcheck.constraints import (
    Active,
    BoundedRigidExists,
    BoundedRigidForall,
    CompEquals,
    Conn,
    Eventually,
    ExistsComp,
    ForallComp,
    Globally,
    IRConn,
    Max,
    Min,
    MinMax,
    Next,
    PortRead,
    RigidExistsComp,
    RigidExistsData,
    RigidForallComp,
    RigidForallData,
    State,
    TraceAnd,
    TraceIff,
    TraceImplies,
    TraceNot,
    TraceOr,
    Until,
    WeakUntil,
    _Slices,
    _StateEvaluator,
    _TraceEvaluator,
)
from archcheck.interfaces import (
    Interface,
    InterfaceSpec,
    PortSpec,
    SpecInterpretation,
    identity_interpretation,
)
from archcheck.model import (
    ArchConfiguration,
    ComponentUniverse,
    ConfigurationTrace,
    make_snapshot,
)

D = BaseSort("D")
PAIR_DD = PairSort(D, D)


@dataclass
class RandomWorld:
    alg: Algebra
    pspec: PortSpec
    spec: InterfaceSpec
    J: SpecInterpretation
    trace: ConfigurationTrace
    extension: ConfigurationTrace  # same prefix plus extra steps
    interfaces: list
    ids_by_interface: dict


def random_world(rng: random.Random, max_components=4, max_len=5,
                 max_carrier=3, extra_steps=3) -> RandomWorld:
    carrier = tuple(f"d{i}" for i in range(rng.randint(1, max_carrier)))
    sig = Signature(
        sorts={"D"},
        functions={
            "f": ((D,), D),
            "c0": ((), D),
        },
        predicates={"r": (D, D)},
    )
    alg = Algebra(
        signature=sig,
        carriers={"D": carrier},
        functions={
            "f": {(x,): rng.choice(carrier) for x in carrier},
            "c0": {(): rng.choice(carrier)},
        },
        predicates={
            "r": {
                (a, b)
                for a in carrier
                for b in carrier
                if rng.random() < 0.4
            }
        },
    )

    port_sorts = {"q0": D, "q1": D, "q2": PAIR_DD, "q3": D}
    pspec = PortSpec(port_sorts)
    n_ifaces = rng.randint(1, 3)
    interfaces = {}
    for i in range(n_ifaces):
        ports = list(port_sorts)
        rng.shuffle(ports)
        n_local = rng.randint(0, 1)
        n_inputs = rng.randint(0, 2)
        n_outputs = rng.randint(0, 2)
        local = ports[:n_local]
        inputs = ports[n_local : n_local + n_inputs]
        outputs = ports[n_local + n_inputs : n_local + n_inputs + n_outputs]
        interfaces[f"I{i}"] = Interface(
            local=frozenset(local), inputs=frozenset(inputs), outputs=frozenset(outputs)
        )
    spec = InterfaceSpec(interfaces)

    def random_value(sort):
        if sort == D:
            return rng.choice(carrier)
        return (rng.choice(carrier), rng.choice(carrier))

    def random_port_set(sort, limit=2):
        return frozenset(
            random_value(sort) for _ in range(rng.randint(0, limit))
        )

    ids = [f"c{i}" for i in range(rng.randint(1, max_components))]
    iface_of = {cid: rng.choice(sorted(interfaces)) for cid in ids}
    locals_of = {
        cid: {
            p: random_port_set(port_sorts[p], 1)
            for p in sorted(interfaces[iface_of[cid]].local)
        }
        for cid in ids
    }

    def build_step():
        active_ids = [cid for cid in ids if rng.random() < 0.7]
        iface = {cid: interfaces[iface_of[cid]] for cid in active_ids}
        outputs = {
            cid: {p: random_port_set(port_sorts[p]) for p in sorted(iface[cid].outputs)}
            for cid in active_ids
        }
        connection = {}
        inputs = {
            cid: {p: random_port_set(port_sorts[p]) for p in sorted(iface[cid].inputs)}
            for cid in active_ids
        }
        for cid in active_ids:
            for p in sorted(iface[cid].inputs):
                candidates = [
                    (oid, q)
                    for oid in active_ids
                    for q in sorted(iface[oid].outputs)
                    if port_sorts[q] == port_sorts[p]
                ]
                chosen = [t for t in candidates if rng.random() < 0.3]
                if chosen:
                    connection[(cid, p)] = frozenset(chosen)
                    united = frozenset()
                    for oid, q in chosen:
                        united |= outputs[oid][q]
                    inputs[cid][p] = united
        snaps = [
            make_snapshot(cid, local=locals_of[cid], inputs=inputs[cid],
                          outputs=outputs[cid])
            for cid in active_ids
        ]
        return ArchConfiguration(frozenset(snaps), connection)

    length = rng.randint(1, max_len)
    steps = tuple(build_step() for _ in range(length + extra_steps))
    baseline = [
        make_snapshot(
            cid,
            local=locals_of[cid],
            inputs={p: () for p in interfaces[iface_of[cid]].inputs},
            outputs={p: () for p in interfaces[iface_of[cid]].outputs},
        )
        for cid in ids
    ]
    universe = ComponentUniverse(
        frozenset(baseline) | {s for k in steps for s in k.active}
    )
    by_iface = {name: set() for name in interfaces}
    for snap in universe.snapshots:
        by_iface[iface_of[snap.id]].add(identity_interpretation(snap))
    J = SpecInterpretation({n: frozenset(v) for n, v in by_iface.items()})
    trace = ConfigurationTrace(universe, steps[:length])
    extension = ConfigurationTrace(universe, steps)
    ids_by_interface = {
        name: sorted({i.snapshot.id for i in interps})
        for name, interps in J.by_interface.items()
    }
    return RandomWorld(
        alg=alg,
        pspec=pspec,
        spec=spec,
        J=J,
        trace=trace,
        extension=extension,
        interfaces=sorted(interfaces),
        ids_by_interface=ids_by_interface,
    )


class FormulaGenerator:
    """Random closed trace assertions over a generated world.  A rigid
    component quantifier is drawn only where no component variable is in
    scope, unless ``comps_in_scope``."""

    def __init__(self, rng: random.Random, world: RandomWorld, comps_in_scope=False):
        self.rng = rng
        self.world = world
        self.counter = 0
        self.comps_in_scope = comps_in_scope

    def fresh(self, prefix):
        self.counter += 1
        return f"{prefix}{self.counter}"

    def data_term(self, dscope, depth=2):
        rng = self.rng
        roll = rng.random()
        if dscope and roll < 0.45:
            return Var(rng.choice(dscope), D)
        if roll < 0.7 or depth == 0:
            return Apply("c0", ())
        return Apply("f", (self.data_term(dscope, depth - 1),))

    def set_term(self, dscope, cscope):
        rng = self.rng
        readable = [
            (v, iface, p)
            for v, iface in cscope
            for p in sorted(self.world.spec.interfaces[iface].ports)
        ]
        if readable and rng.random() < 0.6:
            v, iface, p = rng.choice(readable)
            return PortRead(v, iface, p, self.world.pspec.sort_of(p))
        return SetTerm(tuple(self.data_term(dscope) for _ in range(rng.randint(0, 2))),
                       element_sort=D)

    def state_atom(self, dscope, cscope):
        rng = self.rng
        options = ["bool", "pred", "equals"]
        if cscope:
            options += ["active", "member", "compeq", "minmax"]
        if len(cscope) >= 1:
            options.append("conn")
        options.append("irconn")
        kind = rng.choice(options)
        if kind == "bool":
            return BoolLit(rng.random() < 0.5)
        if kind == "pred":
            return PredAtom("r", (self.data_term(dscope), self.data_term(dscope)))
        if kind == "equals":
            return Equals(self.data_term(dscope), self.data_term(dscope))
        if kind == "active":
            return Active(rng.choice(cscope)[0])
        if kind == "member":
            source = self.set_term(dscope, cscope)
            if isinstance(source, PortRead) and source.sort == PAIR_DD:
                element = PairTerm(self.data_term(dscope), self.data_term(dscope))
            else:
                element = self.data_term(dscope)
            return Member(element, source)
        if kind == "compeq":
            a = rng.choice(cscope)[0]
            b = rng.choice(cscope)[0]
            return CompEquals(a, b)
        if kind == "minmax":
            iface = rng.choice(self.world.interfaces)
            n = rng.randint(0, 3)
            pick = rng.random()
            if pick < 0.4:
                return Min(iface, n)
            if pick < 0.8:
                return Max(iface, n)
            return MinMax(iface, n, n + rng.randint(0, 2))
        if kind == "conn":
            vi, iface_i = rng.choice(cscope)
            vo, iface_o = rng.choice(cscope)
            inputs = sorted(self.world.spec.interfaces[iface_i].inputs)
            outputs = sorted(self.world.spec.interfaces[iface_o].outputs)
            if not inputs or not outputs:
                return Active(vi)
            return Conn(vi, iface_i, rng.choice(inputs),
                        vo, iface_o, rng.choice(outputs))
        pairs = [
            (i, p, j, q)
            for i in self.world.interfaces
            for p in sorted(self.world.spec.interfaces[i].inputs)
            for j in self.world.interfaces
            for q in sorted(self.world.spec.interfaces[j].outputs)
        ]
        if not pairs:
            return BoolLit(True)
        i, p, j, q = rng.choice(pairs)
        return IRConn(i, p, j, q)

    def state_formula(self, depth, dscope, cscope):
        rng = self.rng
        if depth == 0 or rng.random() < 0.35:
            return self.state_atom(dscope, cscope)
        kind = rng.randrange(9)
        if kind == 0:
            return Not(self.state_formula(depth - 1, dscope, cscope))
        if kind == 1:
            return And(tuple(self.state_formula(depth - 1, dscope, cscope)
                             for _ in range(2)))
        if kind == 2:
            return Or(tuple(self.state_formula(depth - 1, dscope, cscope)
                            for _ in range(2)))
        if kind == 3:
            return Implies(self.state_formula(depth - 1, dscope, cscope),
                           self.state_formula(depth - 1, dscope, cscope))
        if kind == 4:
            return Iff(self.state_formula(depth - 1, dscope, cscope),
                       self.state_formula(depth - 1, dscope, cscope))
        if kind == 5:
            var = self.fresh("x")
            body = self.state_formula(depth - 1, dscope + [var], cscope)
            return (ForallData if rng.random() < 0.5 else ExistsData)(var, D, body)
        if kind == 6:
            var = self.fresh("v")
            iface = rng.choice(self.world.interfaces)
            body = self.state_formula(depth - 1, dscope, cscope + [(var, iface)])
            return (ForallComp if rng.random() < 0.5 else ExistsComp)(var, iface, body)
        if kind == 7:
            source = self.set_term(dscope, cscope)
            if isinstance(source, PortRead) and source.sort == PAIR_DD:
                names = (self.fresh("x"), self.fresh("x"))
            else:
                names = (self.fresh("x"),)
            body = self.state_formula(depth - 1, dscope + list(names), cscope)
            return (BoundedForall if rng.random() < 0.5 else BoundedExists)(
                names, source, body
            )
        return self.state_atom(dscope, cscope)

    def trace_formula(self, depth, dscope=None, cscope=None):
        rng = self.rng
        dscope = list(dscope or [])
        cscope = list(cscope or [])
        if depth == 0 or rng.random() < 0.25:
            return State(self.state_formula(min(depth, 2), dscope, cscope))
        kind = rng.randrange(12)
        if kind == 0:
            return TraceNot(self.trace_formula(depth - 1, dscope, cscope))
        if kind == 1:
            return TraceAnd(tuple(self.trace_formula(depth - 1, dscope, cscope)
                                  for _ in range(2)))
        if kind == 2:
            return TraceOr(tuple(self.trace_formula(depth - 1, dscope, cscope)
                                 for _ in range(2)))
        if kind == 3:
            return TraceImplies(self.trace_formula(depth - 1, dscope, cscope),
                                self.trace_formula(depth - 1, dscope, cscope))
        if kind == 4:
            return TraceIff(self.trace_formula(depth - 1, dscope, cscope),
                            self.trace_formula(depth - 1, dscope, cscope))
        if kind == 5:
            return Next(self.trace_formula(depth - 1, dscope, cscope))
        if kind == 6:
            return Eventually(self.trace_formula(depth - 1, dscope, cscope))
        if kind == 7:
            return Globally(self.trace_formula(depth - 1, dscope, cscope))
        if kind == 8:
            return Until(self.trace_formula(depth - 1, dscope, cscope),
                         self.trace_formula(depth - 1, dscope, cscope))
        if kind == 9:
            return WeakUntil(self.trace_formula(depth - 1, dscope, cscope),
                             self.trace_formula(depth - 1, dscope, cscope))
        if kind == 10:
            var = self.fresh("p")
            body = self.trace_formula(depth - 1, dscope + [var], cscope)
            return (RigidForallData if rng.random() < 0.5 else RigidExistsData)(
                var, D, body
            )
        if kind == 11 and cscope and not (self.comps_in_scope and rng.random() < 0.5):
            source = self.set_term(dscope, cscope)
            if isinstance(source, PortRead) and source.sort == PAIR_DD:
                names = (self.fresh("p"), self.fresh("p"))
            else:
                names = (self.fresh("p"),)
            body = self.trace_formula(depth - 1, dscope + list(names), cscope)
            kind_cls = (
                BoundedRigidForall if rng.random() < 0.5 else BoundedRigidExists
            )
            return kind_cls(names, source, body)
        var = self.fresh("k")
        iface = rng.choice(self.world.interfaces)
        body = self.trace_formula(depth - 1, dscope, cscope + [(var, iface)])
        return (RigidForallComp if rng.random() < 0.5 else RigidExistsComp)(
            var, iface, body
        )


STATE_QUANTIFIERS = (ForallData, ExistsData, BoundedForall, BoundedExists, ForallComp, ExistsComp)
RIGID_QUANTIFIERS = (RigidForallData, RigidExistsData, RigidForallComp, RigidExistsComp,
                     BoundedRigidForall, BoundedRigidExists, _Slices)


class QuantifierCounts:
    """How often each quantifier class is evaluated, by ``mode``: a call of
    a state quantifier's closure, or a start of a rigid quantifier.  Set
    ``mode`` around the runs to count; nothing is counted while it is None.
    The compile rules are wrapped through ``monkeypatch``, so only closures
    and starters compiled after it is made are counted."""

    def __init__(self, monkeypatch):
        self.mode, self.counts = None, Counter()
        for table, classes in ((_StateEvaluator.ASSERTIONS, STATE_QUANTIFIERS),
                               (_TraceEvaluator.STARTS, RIGID_QUANTIFIERS)):
            for cls in classes:
                monkeypatch.setitem(table, cls, self._compiled(cls, table[cls]))

    def _counted(self, cls, run):
        def counted(*args):
            if self.mode is not None:
                self.counts[self.mode, cls] += 1
            return run(*args)

        return counted

    def _compiled(self, cls, rule):
        return lambda ev, phi: self._counted(cls, rule(ev, phi))

    def fewest(self, mode, classes):
        """How often the class of ``classes`` evaluated least often in
        ``mode`` was evaluated, and its name."""
        return min((self.counts[mode, cls], cls.__name__) for cls in classes)


def count_starts(monkeypatch, classes=(State,)) -> list:
    """The node of every start of a trace node of ``classes`` from now on,
    through the start rules, so only starters compiled after this call
    count.  By default, one entry per state verdict asked for."""
    starts = []

    def counting(rule):
        def compiled(compiler, gamma):
            start = rule(compiler, gamma)

            def counted(ev, asg):
                starts.append(gamma)
                return start(ev, asg)

            return counted

        return compiled

    for cls in classes:
        monkeypatch.setitem(_TraceEvaluator.STARTS, cls, counting(_TraceEvaluator.STARTS[cls]))
    return starts


def random_closed_assertion(rng, world, depth=4):
    gen = FormulaGenerator(rng, world)
    return gen.trace_formula(depth)
