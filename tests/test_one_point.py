"""The one-point rule for guarded quantification: a quantifier whose guard
reads a set evaluates only the bindings that set offers.  Every path that
uses it is compared with the full enumeration of the carriers: the same
truth, witness, explanation, violations, notes and errors."""
import contextlib
import itertools
import random

import pytest

from archcheck import algebra, interfaces, model
from archcheck.algebra import (
    Algebra,
    And,
    Apply,
    BoolLit,
    Equals,
    ExistsData,
    ForallData,
    Implies,
    Member,
    Not,
    Or,
    PairSort,
    PairTerm,
    PredAtom,
    SetSort,
    SetTerm,
    Signature,
    Var,
    find_guard,
    models_spec,
)
from archcheck.blackboard import MUTATIONS, random_scenario, simulate_blackboard
from archcheck.checker import blackboard_bundle
from archcheck.constraints import (
    CLOSED,
    OPEN,
    Eventually,
    Globally,
    PortRead,
    RigidExistsData,
    RigidForallData,
    State,
    TraceImplies,
    Truth,
    check_trace_assertion,
    trace_holds,
)
from archcheck.errors import ArchError
from archcheck.interfaces import (
    InterfaceSpec,
    PortSym,
    _InterfaceEvaluator,
    check_spec_interpretation,
)
from archcheck.model import ArchConfiguration, ComponentUniverse, ConfigurationTrace

import oracle
from fixtures import (
    PROB,
    bb_snapshot,
    blackboard_interfaces,
    blackboard_interpretation,
    blackboard_port_spec,
    ks_snapshot,
    probsol_algebra,
    probsol_signature,
)
from generators import D, PAIR_DD, FormulaGenerator, count_starts, random_world
from test_algebra import _bruteforce_models
from test_blackboard import paper_scenario

SET_P = SetSort(PROB)
PAIR_PP = PairSort(PROB, PROB)


@contextlib.contextmanager
def full_enumeration():
    """The evaluation without the rule: no guard matches, so every sort
    quantifier ranges over its whole carrier."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra, "_guard_matches", lambda *args: None)
        yield


def _outcome(run):
    """What ``run()`` returns, or the type and message of what it raises."""
    try:
        return run()
    except ArchError as exc:
        return type(exc).__name__, str(exc)


def _with_and_without(run):
    got = _outcome(run)
    with full_enumeration():
        expected = _outcome(run)
    return got, expected


# ---------------------------------------------------------------------------
# Shapes


def test_guard_shapes():
    quantified = {"x": PROB, "y": PROB}
    x, y, z = Var("x", PROB), Var("y", PROB), Var("z", PROB)
    source = Apply("h", (z,))
    pair = PairTerm(x, y)
    for phi in (
        Member(pair, source),
        Equals(source, SetTerm((pair,))),
        Equals(SetTerm((pair,)), source),
        And((Member(pair, source), PredAtom("prec", (x, y)))),
    ):
        guard = find_guard(phi, quantified)
        assert (guard.pattern, guard.source, guard.names) == (pair, source, ("x", "y"))
    fixed = find_guard(Member(PairTerm(z, x), source), quantified)
    assert fixed.names == (None, "x")
    for refused in (
        Member(PairTerm(x, x), source),  # a repeated variable
        Member(x, Apply("g", (x,))),  # the source reads a quantified variable
        Member(PairTerm(Apply("f", (y,)), x), source),  # so does a fixed part
        Member(z, source),  # nothing quantified in the pattern
        And((PredAtom("prec", (x, y)), Member(pair, source))),  # not first
        Equals(source, SetTerm((pair, pair))),  # not a singleton
        Or((Member(pair, source),)),
    ):
        assert find_guard(refused, quantified) is None, refused


# ---------------------------------------------------------------------------
# models_spec


def _guarded_algebra(rng) -> Algebra:
    carrier = ("pA", "pB", "pC")
    subsets = [
        frozenset(s) for n in range(len(carrier) + 1)
        for s in itertools.combinations(carrier, n)
    ]
    pairs = [(a, b) for a in carrier for b in carrier]
    sig = Signature(
        sorts={"PROB"},
        functions={
            "f": ((PROB,), PROB),
            "g": ((PROB,), SET_P),
            "h": ((PROB,), SetSort(PAIR_PP)),
            "c": ((), PROB),
        },
        predicates={"prec": (PROB, PROB)},
    )
    return Algebra(
        sig,
        carriers={"PROB": carrier},
        functions={
            "f": {(a,): rng.choice(carrier) for a in carrier},
            "g": {(a,): rng.choice(subsets) for a in carrier},
            "h": {(a,): frozenset(rng.sample(pairs, rng.randint(0, 3))) for a in carrier},
            "c": {(): rng.choice(carrier)},
        },
        predicates={"prec": {(a, b) for a in carrier for b in carrier if rng.random() < 0.4}},
    )


class _GuardedFormulas:
    """Datatype formulas over PROB whose quantifiers are mostly guarded, in
    the shapes the rule takes and in those it must refuse."""

    def __init__(self, rng):
        self.rng = rng
        self.count = 0

    def term(self, scope, depth=2):
        rng = self.rng
        if scope and rng.random() < 0.6:
            return Var(rng.choice(scope), PROB)
        if depth == 0 or rng.random() < 0.5:
            return Apply("c")
        return Apply("f", (self.term(scope, depth - 1),))

    def atom(self, scope):
        roll = self.rng.random()
        if roll < 0.4:
            return PredAtom("prec", (self.term(scope), self.term(scope)))
        if roll < 0.7:
            return Equals(self.term(scope), self.term(scope))
        return Member(self.term(scope), Apply("g", (self.term(scope),)))

    def guard(self, pattern_names, sort, scope):
        """A guard whose pattern holds the variables ``pattern_names``; its
        other parts and its source read ``scope``."""
        rng = self.rng
        if sort == SET_P:
            pattern = Var(pattern_names[0], SET_P)
            source = SetTerm(tuple(
                Apply("g", (self.term(scope),)) for _ in range(rng.randint(0, 2))
            ), element_sort=SET_P)
        elif len(pattern_names) == 2 or rng.random() < 0.5:
            a = Var(pattern_names[0], PROB)
            b = Var(pattern_names[-1], PROB) if rng.random() < 0.8 else self.term(scope)
            pattern = PairTerm(a, b) if rng.random() < 0.5 else PairTerm(b, a)
            source = Apply("h", (self.term(scope),))
        else:
            pattern = Var(pattern_names[0], PROB)
            source = rng.choice([
                Apply("g", (self.term(scope),)),
                SetTerm(tuple(self.term(scope) for _ in range(rng.randint(0, 2))),
                        element_sort=PROB),
            ])
        shape = rng.randrange(3)
        if shape == 0:
            guard = Member(pattern, source)
        elif shape == 1:
            guard = Equals(source, SetTerm((pattern,)))
        else:
            guard = Equals(SetTerm((pattern,)), source)
        if rng.random() < 0.3:
            guard = And((guard, self.atom(scope + [n for n in pattern_names if sort == PROB])))
        return guard

    def formula(self, depth, scope):
        rng = self.rng
        if depth == 0 or rng.random() < 0.25:
            return self.atom(scope)
        roll = rng.random()
        if roll < 0.6:
            self.count += 1
            sort = SET_P if rng.random() < 0.2 else PROB
            if sort == PROB and scope and rng.random() < 0.2:
                var = rng.choice(scope)  # shadows an outer variable
            else:
                var = f"w{self.count}"
            inner = scope + [var] if sort == PROB else scope
            # the source may read the quantified variable: the rule must refuse
            reads = inner if rng.random() < 0.2 else scope
            guard = self.guard([var], sort, reads)
            body = self.formula(depth - 1, inner)
            if sort == SET_P:
                body = Or((Member(self.term(scope), Var(var, SET_P)), body))
            if rng.random() < 0.5:
                return ForallData(var, sort, Implies(guard, body))
            return ExistsData(var, sort, And((guard, body)) if rng.random() < 0.7 else guard)
        parts = (self.formula(depth - 1, scope), self.formula(depth - 1, scope))
        if roll < 0.7:
            return Not(parts[0])
        if roll < 0.8:
            return And(parts)
        if roll < 0.9:
            return Or(parts)
        return Implies(*parts)

    def axiom(self):
        """An open formula over u and v, often guarded by both."""
        scope = ["u", "v"]
        if self.rng.random() < 0.6:
            names = ["u", "v"] if self.rng.random() < 0.6 else [self.rng.choice(scope)]
            guard = self.guard(names, PROB, [] if self.rng.random() < 0.8 else scope)
            return Implies(guard, self.formula(2, scope))
        return self.formula(2, scope)


def test_models_spec_agrees_with_the_full_enumeration():
    rng = random.Random(909001)
    results = set()
    for _ in range(60):
        alg = _guarded_algebra(rng)
        gen = _GuardedFormulas(rng)
        for _ in range(25):
            phi = gen.axiom()
            got, expected = _with_and_without(lambda: models_spec(alg, [phi]))
            assert got == expected, phi
            assert got == _bruteforce_models(alg, phi), phi
            results.add(got)
    assert results == {True, False}


def test_a_source_that_reads_the_quantified_variable_is_no_guard():
    # the inner u shadows the free u, so g(u) must be read per inner
    # binding: pC in g(pC) makes the inner forall false for every outer u,
    # while g read once at the outer pA or pB offers no u with u in g(u)
    u = Var("u", PROB)
    inner = ForallData("u", PROB, Implies(Member(u, Apply("g", (u,))), BoolLit(False)))
    alg = Algebra(
        Signature(sorts={"PROB"}, functions={"g": ((PROB,), SET_P), "c": ((), PROB)}),
        carriers={"PROB": ("pA", "pB", "pC")},
        functions={
            "g": {("pA",): frozenset({"pB"}), ("pB",): frozenset({"pA"}),
                  ("pC",): frozenset({"pC"})},
            "c": {(): "pC"},
        },
    )
    axiom = Or((Equals(u, Apply("c")), inner))
    got, expected = _with_and_without(lambda: models_spec(alg, [axiom]))
    assert got is expected is False


def test_membership_against_a_non_set_still_raises():
    u = Var("u", PROB)
    axiom = Implies(Member(u, Apply("pA")), Equals(u, u))
    alg = Algebra(
        Signature(sorts={"PROB"}, functions={"pA": ((), PROB)}),
        carriers={"PROB": ("pA", "pB")},
        functions={"pA": {(): "pA"}},
    )
    got, expected = _with_and_without(lambda: models_spec(alg, [axiom]))
    assert got == expected == ("SortError", "membership against a non-set value")


def _guard_ranges(run):
    """What ``run()`` returns, and the carrier size and range size of each
    quantifier whose guard was found through a quantifier inside it."""
    ranges = []
    match = algebra._guard_matches

    def recorded(ev, asg, guard, var, sort):
        values = match(ev, asg, guard, var, sort)
        if values is not None and len(guard.sorts) > 1:
            ranges.append((len(ev.alg.carrier(sort)), len(values)))
        return values

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra, "_guard_matches", recorded)
        return _outcome(run), ranges


def test_three_variables_guarded_by_two_agree_with_the_full_enumeration():
    # the closure of an axiom over u, v and w whose guard binds two of
    # them, and three written nested quantifiers of one class: the outer of
    # the guard's variables ranges over what the source offers it, through
    # the quantifiers between
    rng = random.Random(909006)
    results, narrowed = set(), 0
    for _ in range(40):
        alg = _guarded_algebra(rng)
        gen = _GuardedFormulas(rng)
        for _ in range(20):
            scope = ["u", "v", "w"]
            guard = gen.guard(rng.sample(scope, 2), PROB, [] if rng.random() < 0.8 else scope)
            body = gen.formula(2, scope)
            axiom = Implies(guard, body)
            exists = And((guard, body)) if rng.random() < 0.7 else guard
            for name in ("w", "v", "u"):
                exists = ExistsData(name, PROB, exists)
            for phi in (axiom, Not(exists)):
                got, ranges = _guard_ranges(lambda: models_spec(alg, [phi]))
                with full_enumeration():
                    expected = _outcome(lambda: models_spec(alg, [phi]))
                assert got == expected, phi
                assert got == _bruteforce_models(alg, phi), phi
                results.add(got)
                narrowed += any(size < carrier for carrier, size in ranges)
    assert results == {True, False}
    assert narrowed > 100


def test_a_quantifier_that_binds_a_name_again_ends_the_look_through():
    # forall x . forall y . forall x . (h(c) == {(x, y)} -> ...): the guard
    # reads the inner x, so the outer x, at another sort, takes no guard
    # and ranges over its whole carrier
    rng = random.Random(909007)
    x_set, x, y = Var("x", SET_P), Var("x", PROB), Var("y", PROB)
    truths = set()
    for _ in range(60):
        alg = _guarded_algebra(rng)
        gen = _GuardedFormulas(rng)
        pattern = PairTerm(x, y) if rng.random() < 0.5 else PairTerm(y, x)
        source = Apply("h", (gen.term([]),))
        guard = rng.choice([Member(pattern, source), Equals(source, SetTerm((pattern,)))])
        body = Or((Member(Apply("c"), x_set), gen.formula(1, ["y"])))
        inner = ForallData("x", PROB, Implies(guard, gen.formula(1, ["x", "y"])))
        for phi in (
            ForallData("x", SET_P, ForallData("y", PROB, Or((inner, body)))),
            ForallData("x", SET_P, ForallData("y", PROB, inner)),
            ForallData("x", PROB, ForallData("y", PROB, inner)),
        ):
            assert algebra.quantifier_guard(phi) is None
            if phi.body.body is inner:  # y looks through the inner x
                assert set(algebra.quantifier_guard(phi.body).names) == {"x", "y"}
            got, expected = _with_and_without(lambda: models_spec(alg, [phi]))
            assert got == expected, phi
            truths.add(got)
    assert truths == {True, False}


def test_a_guard_variable_over_the_set_cap_still_raises():
    # the carriers of every quantified variable are built before the guard
    # is matched, so an empty source does not hide an over-cap carrier,
    # whether the set variable is the outer or the inner of the two
    problems = tuple(f"p{i}" for i in range(9))
    set_p, pair = SetSort(PROB), PairSort(PROB, SetSort(PROB))
    sig = Signature(sorts={"PROB"}, functions={"h": ((), SetSort(pair))})
    alg = Algebra(sig, carriers={"PROB": problems}, functions={"h": {(): frozenset()}})
    # P sorts before p, and b after a
    for one, many in ((Var("p", PROB), Var("P", set_p)), (Var("a", PROB), Var("b", set_p))):
        axiom = Implies(Member(PairTerm(one, many), Apply("h")), BoolLit(False))
        got, expected = _with_and_without(lambda: models_spec(alg, [axiom]))
        assert got == expected
        assert got[0] == "CapacityError"


# ---------------------------------------------------------------------------
# check_spec_interpretation


def _ks_axiom():
    """The KS axiom of the shipped pack: ksop == (p, P) -> p in prob."""
    return blackboard_bundle().interface_spec.assertions["KS"][0]


def _ks_check(ks_snapshots, alg=None, axiom=None):
    J = blackboard_interpretation({"BB": [bb_snapshot()], "KS": ks_snapshots})
    spec = blackboard_interfaces({"KS": (axiom or _ks_axiom(),)})
    return lambda: check_spec_interpretation(
        J, spec, blackboard_port_spec(), alg or probsol_algebra()
    )


def _random_ks_snapshots(rng):
    problems = ["pA", "pB", "pC"]
    messages = [
        (p, frozenset(s))
        for p in problems
        for n in range(3)
        for s in itertools.combinations(problems, n)
    ]
    outside = [("pZ", frozenset()), ("pA", frozenset({"pZ"})), "sA", ("pA",)]
    snaps = []
    for i in range(rng.randint(1, 3)):
        prob = frozenset(rng.sample(problems, rng.randint(0, 3)))
        for _ in range(rng.randint(1, 3)):
            ksop = set(rng.sample(messages, rng.choice([0, 1, 1, 1, 2])))
            if rng.random() < 0.15:
                ksop.add(rng.choice(outside))
            snaps.append(ks_snapshot(f"ks{i}", prob=prob, ksop=ksop))
    return snaps


def test_ks_interpretations_agree_with_the_full_enumeration():
    rng = random.Random(909002)
    kinds = set()
    for _ in range(150):
        got, expected = _with_and_without(_ks_check(_random_ks_snapshots(rng)))
        assert got == expected
        kinds.update(v.code for v in got.violations)
    assert {"interface-assertion", "port-typing"} <= kinds


@pytest.mark.parametrize("ksop, prob, violated", [
    ({("pA", frozenset({"pB"}))}, {"pA"}, False),  # the known problem
    ({("pB", frozenset())}, {"pA"}, True),  # p not in prob
    (set(), {"pA"}, False),  # empty: the equation never holds
    ({("pB", frozenset()), ("pC", frozenset())}, {"pA"}, False),  # two elements
    ({("pZ", frozenset())}, {"pA"}, False),  # p outside the PROB carrier
    ({("pB", frozenset({"pZ"}))}, {"pA"}, False),  # P outside set(PROB)
    ({"sA"}, {"pA"}, False),  # not a pair
])
def test_ks_near_misses(ksop, prob, violated):
    got, expected = _with_and_without(_ks_check([ks_snapshot("ks1", prob=prob, ksop=ksop)]))
    assert got == expected
    assert any(v.code == "interface-assertion" for v in got.violations) == violated


def test_a_set_carrier_over_the_cap_still_raises():
    problems = tuple(f"p{i}" for i in range(9))
    alg = Algebra(
        probsol_signature(),
        carriers={"PROB": problems, "SOL": ("s",)},
        functions={"solve": {(p,): "s" for p in problems}},
    )
    for ksop in (set(), {("p0", frozenset())}):
        snaps = [ks_snapshot("ks1", prob={"p0"}, ksop=ksop)]
        got, expected = _with_and_without(_ks_check(snaps, alg))
        assert got == expected
        assert got[0] == "CapacityError"


def _interface_assertion(rng, world, interface):
    """``guard -> body`` over the data variables x and y, reading the
    interface's ports (and, rarely, a port it does not have)."""
    ports = sorted(interface.ports) or sorted(world.pspec.ports)
    if rng.random() < 0.05:
        ports = sorted(world.pspec.ports)
    port = rng.choice(ports)
    sort = world.pspec.sort_of(port)
    x, y = Var("x", D), Var("y", D)
    if sort == PAIR_DD:
        pattern = rng.choice([PairTerm(x, y), PairTerm(y, x), PairTerm(x, x),
                              PairTerm(Apply("c0"), x), PairTerm(x, Apply("f", (y,)))])
    else:
        pattern = rng.choice([x, x, y])
    source = PortSym(port, sort)
    shape = rng.randrange(3)
    if shape == 0:
        guard = Member(pattern, source)
    elif shape == 1:
        guard = Equals(source, SetTerm((pattern,)))
    else:
        guard = Equals(SetTerm((pattern,)), source)
    if rng.random() < 0.3:
        guard = And((guard, PredAtom("r", (x, y))))
    element_ports = [p for p in ports if world.pspec.sort_of(p) == D]
    atoms = [PredAtom("r", (x, Apply("f", (y,)))), Equals(Apply("f", (x,)), y)]
    atoms += [Member(rng.choice([x, y]), PortSym(p, D)) for p in element_ports]
    body = rng.choice(atoms)
    if rng.random() < 0.3:
        z = Var("z", D)
        inner = Member(z, PortSym(rng.choice(element_ports), D)) if element_ports else (
            Equals(z, Apply("f", (x,)))
        )
        body = ForallData("z", D, Implies(inner, PredAtom("r", (z, y))))
    return Implies(guard, body)


def test_generated_worlds_agree_with_the_full_enumeration():
    rng = random.Random(909003)
    outcomes = set()
    for _ in range(200):
        world = random_world(rng)
        spec = InterfaceSpec(world.spec.interfaces, {
            name: tuple(_interface_assertion(rng, world, iface) for _ in range(2))
            for name, iface in world.spec.interfaces.items()
        })
        got, expected = _with_and_without(
            lambda: check_spec_interpretation(world.J, spec, world.pspec, world.alg)
        )
        assert got == expected
        if isinstance(got, tuple):
            outcomes.add(got[0])
        else:
            outcomes.add(any(v.code == "interface-assertion" for v in got.violations))
    assert {True, False, "InterpretationError"} <= outcomes


def test_interface_axioms_over_three_variables_agree_with_the_full_enumeration():
    # the generated axioms over x and y, with a third free variable w in
    # their consequent
    rng = random.Random(909008)
    w, y = Var("w", D), Var("y", D)
    outcomes = set()
    for _ in range(120):
        world = random_world(rng)
        spec = InterfaceSpec(world.spec.interfaces, {
            name: tuple(
                Implies(a.left, Or((a.right, PredAtom("r", (w, y)))))
                for a in (_interface_assertion(rng, world, iface) for _ in range(2))
            )
            for name, iface in world.spec.interfaces.items()
        })
        got, expected = _with_and_without(
            lambda: check_spec_interpretation(world.J, spec, world.pspec, world.alg)
        )
        assert got == expected
        if isinstance(got, tuple):
            outcomes.add(got[0])
        else:
            outcomes.add(any(v.code == "interface-assertion" for v in got.violations))
    assert {True, False} <= outcomes


# ---------------------------------------------------------------------------
# Rigid quantifiers over guarded State bodies


def _rigid_case(rng, world):
    """A rigid quantifier over x whose body is guarded at each step, under
    G or F, with the free rigid variables y (data) and b (component)."""
    iface = rng.choice(world.interfaces)
    ports = sorted(world.spec.interfaces[iface].ports)
    if not ports:
        return None
    port = rng.choice(ports)
    sort = world.pspec.sort_of(port)
    x, y = Var("x", D), Var("y", D)
    if sort == PAIR_DD:
        pattern = rng.choice([PairTerm(x, y), PairTerm(y, x), PairTerm(x, x),
                              PairTerm(Apply("f", (y,)), x)])
    else:
        pattern = x
    source = rng.choice([
        PortRead("b", iface, port, sort),
        PortRead("b", iface, port, sort),
        SetTerm((y, Apply("c0")), element_sort=D) if sort == D else
        SetTerm((PairTerm(y, Apply("c0")),), element_sort=PAIR_DD),
        SetTerm((Apply("f", (x,)),), element_sort=D) if sort == D else
        SetTerm((PairTerm(x, y),), element_sort=PAIR_DD),  # reads x: refused
    ])
    shape = rng.randrange(3)
    if shape == 0:
        guard = Member(pattern, source)
    elif shape == 1:
        guard = Equals(source, SetTerm((pattern,)))
    else:
        guard = Equals(SetTerm((pattern,)), source)
    gen = FormulaGenerator(rng, world)
    dscope, cscope = ["x", "y"], [("b", iface)]
    if rng.random() < 0.3:
        guard = And((guard, gen.state_atom(dscope, cscope)))
    kind = rng.randrange(5)
    if kind == 0:
        body = RigidExistsData("x", D, State(guard))
    elif kind == 1:
        body = RigidForallData("x", D, TraceImplies(State(guard), gen.trace_formula(2, dscope, cscope)))
    elif kind == 2:
        phi = gen.state_formula(1, dscope, cscope)
        body = RigidForallData("x", D, State(Implies(guard, phi)))
    elif kind == 3:  # the state-level quantifiers
        body = State(ExistsData("x", D, And((guard, gen.state_atom(dscope, cscope)))))
    else:
        body = State(ForallData("x", D, Implies(guard, gen.state_atom(dscope, cscope))))
    wrap = rng.choice([Globally, Eventually, lambda g: g])
    return iface, wrap(body)


def test_rigid_quantifiers_agree_with_the_oracle_and_the_full_enumeration():
    rng = random.Random(909004)
    letters = []
    while len(letters) < 1200:
        world = random_world(rng)
        case = _rigid_case(rng, world)
        if case is None:
            continue
        iface, gamma = case
        oworld = oracle.World(world.alg, world.J)
        for trace in (world.trace, world.extension):
            for mode in (OPEN, CLOSED):
                def run():
                    return check_trace_assertion(
                        world.alg, world.J, trace, gamma, mode,
                        rigid_comp_decls={"b": iface},
                    )
                verdict, expected = _with_and_without(run)
                assert verdict == expected, (mode, gamma)
                letter = oracle.check_assertion(oworld, trace, gamma, mode,
                                                rigid_comp={"b": iface})
                assert oracle.truth_letter(verdict) == letter, (mode, gamma)
                letters.append(letter)
    assert {oracle.T, oracle.F, oracle.U} <= set(letters)


def test_a_written_pair_guard_starts_fewer_instances_than_the_product(monkeypatch):
    # forall x . forall y . (State((x, y) in b.q) -> F ...): x ranges over
    # the first parts of the pairs that b.q holds at the step, y over the
    # second parts that go with x
    starts = count_starts(monkeypatch, (TraceImplies,))
    rng = random.Random(909009)
    x, y = Var("x", D), Var("y", D)
    letters, counts = [], [0, 0]
    while len(letters) < 400:
        world = random_world(rng, max_carrier=4)
        ifaces = [i for i in world.interfaces if "q2" in world.spec.interfaces[i].ports]
        if not ifaces:
            continue
        iface = rng.choice(ifaces)
        gen = FormulaGenerator(rng, world)
        guard = Member(PairTerm(x, y), PortRead("b", iface, "q2", PAIR_DD))
        if rng.random() < 0.3:
            guard = And((guard, gen.state_atom(["x", "y"], [("b", iface)])))
        rest = gen.trace_formula(1, ["x", "y"], [("b", iface)])
        gamma = RigidForallData("x", D, RigidForallData("y", D, TraceImplies(
            State(guard), rng.choice([Eventually, Globally, lambda g: g])(rest)
        )))
        gamma = rng.choice([Globally, lambda g: g])(gamma)
        oworld = oracle.World(world.alg, world.J)
        for trace in (world.trace, world.extension):
            for mode in (OPEN, CLOSED):
                def run():
                    return check_trace_assertion(world.alg, world.J, trace, gamma, mode,
                                                 rigid_comp_decls={"b": iface})
                starts.clear()
                verdict = _outcome(run)
                counts[0] += len(starts)
                starts.clear()
                with full_enumeration():
                    expected = _outcome(run)
                counts[1] += len(starts)
                assert verdict == expected, (mode, gamma)
                letter = oracle.check_assertion(oworld, trace, gamma, mode,
                                                rigid_comp={"b": iface})
                assert oracle.truth_letter(verdict) == letter, (mode, gamma)
                letters.append(letter)
    assert {oracle.T, oracle.F, oracle.U} <= set(letters)
    assert 0 < counts[0] < counts[1] / 2, counts


def test_bundle_verdicts_are_those_of_the_full_enumeration():
    # truth, witness and explanation of all 15 assertions, plain and mutated
    bundle = blackboard_bundle()
    from archcheck.checker import diagram_assertions

    assertions = [(c.gamma, c.rigid_comp, c.rigid_data) for c in bundle.constraints]
    assertions += [(g, comp, {}) for _, g, comp in diagram_assertions(bundle)]
    assert len(assertions) == 15
    rng = random.Random(909005)
    for mutation in (None, *MUTATIONS):
        run = simulate_blackboard(random_scenario(rng, max_problems=4, horizon=25),
                                  mutation=mutation)
        for gamma, comp, data in assertions:
            for mode in (OPEN, CLOSED):
                got, expected = _with_and_without(lambda: check_trace_assertion(
                    run.algebra, run.interpretation, run.trace, gamma, mode,
                    rigid_comp_decls=comp, rigid_data_decls=data,
                ))
                assert got == expected, (mutation, gamma, mode)


# ---------------------------------------------------------------------------
# Counts


def test_one_ks_interpretation_makes_at_most_ksop_evaluations(monkeypatch):
    axiom = _ks_axiom()
    calls = []
    holds = _InterfaceEvaluator.holds

    def counted(ev, asg, phi):
        if phi is axiom:
            calls.append(asg)
        return holds(ev, asg, phi)

    monkeypatch.setattr(_InterfaceEvaluator, "holds", counted)
    for ksop in (set(), {("pA", frozenset({"pB"}))}, {("pB", frozenset())},
                 {("pA", frozenset()), ("pB", frozenset({"pC"}))}):
        calls.clear()
        _ks_check([ks_snapshot("ks1", prob={"pA"}, ksop=ksop)], axiom=axiom)()
        assert len(calls) <= len(ksop)
    assert len(calls) == 0 and len(ksop) == 2  # two elements: the equation never holds


def test_one_exists_start_makes_at_most_ksop_instance_starts(monkeypatch):
    # KnowledgeSourceBehavior.ax3's exists P . (p, P) in ks.ksop
    gamma = next(c.gamma for c in blackboard_bundle().constraints
                 if c.name == "KnowledgeSourceBehavior.ax3")
    stack = [gamma]
    while type(stack[-1]) is not RigidExistsData:
        stack.extend(algebra.children(stack.pop()))
    exists = stack[-1]
    starts = count_starts(monkeypatch, {type(exists), type(exists.body)})
    alg = probsol_algebra()
    for ksop in (set(), {("pA", frozenset({"pB"}))},
                 {("pA", frozenset()), ("pB", frozenset({"pC"})), ("pC", frozenset())}):
        ks = ks_snapshot("ks1", prob={"pA", "pB", "pC"}, ksop=ksop)
        J = blackboard_interpretation({"BB": [], "KS": [ks]})
        step = ArchConfiguration(frozenset({ks}))
        trace = ConfigurationTrace(ComponentUniverse(frozenset({ks})), (step,))
        for p in ("pA", "pB", "pC"):
            starts.clear()
            verdict = trace_holds(alg, J, {"p": p}, {"ks": "ks1"}, trace, 0, exists)
            expected = any(m[0] == p for m in ksop)
            assert (verdict.truth is Truth.SATISFIED) == expected
            assert starts.count(exists) == 1
            assert starts.count(exists.body) <= len(ksop)


def test_a_healthy_universe_builds_no_snapshot_key(monkeypatch):
    built = []
    key = model.snapshot_key

    def counted(snap):
        built.append(snap)
        return key(snap)

    monkeypatch.setattr(model, "snapshot_key", counted)
    monkeypatch.setattr(interfaces, "snapshot_key", counted)
    result = simulate_blackboard(paper_scenario(horizon=20))
    snapshots = result.trace.universe.snapshots
    assert len({s.id for s in snapshots}) < len(snapshots)  # ids repeat
    bundle = blackboard_bundle()
    report = check_spec_interpretation(
        result.interpretation, bundle.interface_spec, bundle.port_spec, result.algebra
    )
    assert report.ok and model.check_healthy(result.trace.universe).ok
    assert built == []
    bad = ks_snapshot("ks9", prob={"pA"}, ksop={("pB", frozenset())})
    assert not _ks_check([bad, ks_snapshot("ks9", prob={"pA"})])().ok
    assert built  # a violation is reported in the canonical order
