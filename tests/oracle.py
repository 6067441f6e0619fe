"""Independent brute-force evaluator for trace assertions.

This is the oracle side of the dual-route check: it expands every temporal
operator and every rigid quantifier into finite three-valued combinations
("T"/"F"/"U") computed directly from the definitions, and evaluates state
formulas with its own straightforward recursion.  It shares no evaluation
code with archcheck.constraints; it does assume the identity port maps that
the test generators use.  ``check_full_homomorphism`` is the direct reading
of the required-connection annotation that its desugaring is compared with.
"""
from __future__ import annotations

from archcheck import algebra as A
from archcheck import constraints as C
from archcheck.errors import InterpretationError
from archcheck.interfaces import PortSym

T, F, U = "T", "F", "U"


def knot(v):
    return {T: F, F: T, U: U}[v]


def kand(values):
    out = T
    for v in values:
        if v == F:
            return F
        if v == U:
            out = U
    return out


def kor(values):
    out = F
    for v in values:
        if v == T:
            return T
        if v == U:
            out = U
    return out


class World:
    """Precomputed lookup tables: interface ids and per-id interpretations."""

    def __init__(self, alg, J):
        self.alg = alg
        self.J = J
        self.iface_ids = {
            name: sorted({i.snapshot.id for i in interps})
            for name, interps in J.by_interface.items()
        }


def term_value(world, k, denv, cenv, term):
    """Value of a term; None signals an undefined (inactive) port read."""
    if isinstance(term, C.PortRead):
        cid = cenv[term.var]
        for snap in k.active:
            if snap.id == cid:
                return snap.valuation[term.port]
        return None
    if isinstance(term, A.Var):
        return denv[term.name]
    if isinstance(term, A.Apply):
        args = []
        for sub in term.args:
            value = term_value(world, k, denv, cenv, sub)
            if value is None:
                return None
            args.append(value)
        return world.alg.functions[term.symbol][tuple(args)]
    if isinstance(term, A.PairTerm):
        first = term_value(world, k, denv, cenv, term.first)
        second = term_value(world, k, denv, cenv, term.second)
        if first is None or second is None:
            return None
        return (first, second)
    if isinstance(term, A.SetTerm):
        out = set()
        for sub in term.elements:
            value = term_value(world, k, denv, cenv, sub)
            if value is None:
                return None
            out.add(value)
        return frozenset(out)
    if isinstance(term, PortSym):
        raise AssertionError("oracle formulas do not use bare port symbols")
    raise AssertionError(f"unexpected term {term!r}")


def state_eval(world, k, denv, cenv, phi) -> bool:
    active_ids = {snap.id for snap in k.active}
    if isinstance(phi, A.BoolLit):
        return phi.value
    if isinstance(phi, A.PredAtom):
        args = [term_value(world, k, denv, cenv, t) for t in phi.args]
        if any(a is None for a in args):
            return False
        return tuple(args) in world.alg.predicates.get(phi.symbol, frozenset())
    if isinstance(phi, A.Equals):
        left = term_value(world, k, denv, cenv, phi.left)
        right = term_value(world, k, denv, cenv, phi.right)
        if left is None or right is None:
            return False
        return left == right
    if isinstance(phi, A.Member):
        element = term_value(world, k, denv, cenv, phi.element)
        collection = term_value(world, k, denv, cenv, phi.collection)
        if element is None or collection is None:
            return False
        return element in collection
    if isinstance(phi, C.CompEquals):
        return cenv[phi.left] == cenv[phi.right]
    if isinstance(phi, C.Active):
        return cenv[phi.var] in active_ids
    if isinstance(phi, C.Conn):
        src_id = cenv[phi.in_var]
        tgt_id = cenv[phi.out_var]
        if src_id not in active_ids or tgt_id not in active_ids:
            return False
        return (tgt_id, phi.out_port) in k.connection.get(
            (src_id, phi.in_port), frozenset()
        )
    if isinstance(phi, C.IRConn):
        for ci in world.iface_ids[phi.in_interface]:
            if ci not in active_ids:
                continue
            for co in world.iface_ids[phi.out_interface]:
                if co not in active_ids:
                    continue
                probe = C.Conn("x", phi.in_interface, phi.in_port,
                               "y", phi.out_interface, phi.out_port)
                if not state_eval(world, k, denv, {"x": ci, "y": co}, probe):
                    return False
        return True
    if isinstance(phi, (C.Min, C.Max, C.MinMax)):
        count = len([c for c in world.iface_ids[phi.interface] if c in active_ids])
        if isinstance(phi, C.Min):
            return count >= phi.count
        if isinstance(phi, C.Max):
            return count <= phi.count
        return phi.low <= count <= phi.high
    if isinstance(phi, A.Not):
        return not state_eval(world, k, denv, cenv, phi.operand)
    if isinstance(phi, A.And):
        return all(state_eval(world, k, denv, cenv, item) for item in phi.items)
    if isinstance(phi, A.Or):
        return any(state_eval(world, k, denv, cenv, item) for item in phi.items)
    if isinstance(phi, A.Implies):
        return (not state_eval(world, k, denv, cenv, phi.left)) or state_eval(
            world, k, denv, cenv, phi.right
        )
    if isinstance(phi, A.Iff):
        return state_eval(world, k, denv, cenv, phi.left) == state_eval(
            world, k, denv, cenv, phi.right
        )
    if isinstance(phi, A.ForallData):
        return all(
            state_eval(world, k, {**denv, phi.var: v}, cenv, phi.body)
            for v in world.alg.carrier(phi.sort)
        )
    if isinstance(phi, A.ExistsData):
        return any(
            state_eval(world, k, {**denv, phi.var: v}, cenv, phi.body)
            for v in world.alg.carrier(phi.sort)
        )
    if isinstance(phi, (A.BoundedForall, A.BoundedExists)):
        source = term_value(world, k, denv, cenv, phi.source)
        elements = [] if source is None else sorted(source, key=A.value_key)
        results = [
            state_eval(world, k, {**denv, **_bind(phi.vars, v)}, cenv, phi.body)
            for v in elements
        ]
        return all(results) if isinstance(phi, A.BoundedForall) else any(results)
    if isinstance(phi, C.ForallComp):
        return all(
            state_eval(world, k, denv, {**cenv, phi.var: cid}, phi.body)
            for cid in world.iface_ids[phi.interface]
        )
    if isinstance(phi, C.ExistsComp):
        return any(
            state_eval(world, k, denv, {**cenv, phi.var: cid}, phi.body)
            for cid in world.iface_ids[phi.interface]
        )
    raise AssertionError(f"unexpected state formula {phi!r}")


def _bind(names, value):
    if len(names) == 1:
        return {names[0]: value}
    return dict(zip(names, value))


def trace_eval(world, trace, n, denv, cenv, gamma, mode) -> str:
    """Three-valued expansion semantics over the finite prefix."""
    steps = trace.steps
    length = len(steps)

    def rec(m, g, de, ce):
        return trace_eval(world, trace, m, de, ce, g, mode)

    if isinstance(gamma, C.State):
        return T if state_eval(world, steps[n], denv, cenv, gamma.formula) else F
    if isinstance(gamma, C.TraceNot):
        return knot(rec(n, gamma.operand, denv, cenv))
    if isinstance(gamma, C.TraceAnd):
        return kand([rec(n, item, denv, cenv) for item in gamma.items])
    if isinstance(gamma, C.TraceOr):
        return kor([rec(n, item, denv, cenv) for item in gamma.items])
    if isinstance(gamma, C.TraceImplies):
        return kor([knot(rec(n, gamma.left, denv, cenv)),
                    rec(n, gamma.right, denv, cenv)])
    if isinstance(gamma, C.TraceIff):
        left = rec(n, gamma.left, denv, cenv)
        right = rec(n, gamma.right, denv, cenv)
        return kand([kor([knot(left), right]), kor([knot(right), left])])
    if isinstance(gamma, C.Next):
        if n + 1 < length:
            return rec(n + 1, gamma.body, denv, cenv)
        return F if mode == C.CLOSED else U
    if isinstance(gamma, C.Eventually):
        parts = [rec(m, gamma.body, denv, cenv) for m in range(n, length)]
        parts.append(F if mode == C.CLOSED else U)
        return kor(parts)
    if isinstance(gamma, C.Globally):
        parts = [rec(m, gamma.body, denv, cenv) for m in range(n, length)]
        parts.append(T if mode == C.CLOSED else U)
        return kand(parts)
    if isinstance(gamma, C.Until):
        options = []
        for m in range(n, length):
            chain = [rec(j, gamma.left, denv, cenv) for j in range(n, m)]
            chain.append(rec(m, gamma.right, denv, cenv))
            options.append(kand(chain))
        if mode == C.CLOSED:
            options.append(F)
        else:
            tail = [rec(j, gamma.left, denv, cenv) for j in range(n, length)]
            tail.append(U)
            options.append(kand(tail))
        return kor(options)
    if isinstance(gamma, C.WeakUntil):
        until = trace_eval(world, trace, n, denv, cenv,
                           C.Until(gamma.left, gamma.right), mode)
        globally = trace_eval(world, trace, n, denv, cenv,
                              C.Globally(gamma.left), mode)
        return kor([until, globally])
    if isinstance(gamma, C.RigidForallData):
        return kand([
            rec(n, gamma.body, {**denv, gamma.var: v}, cenv)
            for v in world.alg.carrier(gamma.sort)
        ])
    if isinstance(gamma, C.RigidExistsData):
        return kor([
            rec(n, gamma.body, {**denv, gamma.var: v}, cenv)
            for v in world.alg.carrier(gamma.sort)
        ])
    if isinstance(gamma, C.RigidForallComp):
        return kand([
            rec(n, gamma.body, denv, {**cenv, gamma.var: cid})
            for cid in world.iface_ids[gamma.interface]
        ])
    if isinstance(gamma, C.RigidExistsComp):
        return kor([
            rec(n, gamma.body, denv, {**cenv, gamma.var: cid})
            for cid in world.iface_ids[gamma.interface]
        ])
    if isinstance(gamma, (C.BoundedRigidForall, C.BoundedRigidExists)):
        source = term_value(world, steps[n], denv, cenv, gamma.source)
        elements = [] if source is None else sorted(source, key=A.value_key)
        parts = [
            rec(n, gamma.body, {**denv, **_bind(gamma.vars, v)}, cenv)
            for v in elements
        ]
        return kand(parts) if isinstance(gamma, C.BoundedRigidForall) else kor(parts)
    raise AssertionError(f"unexpected trace assertion {gamma!r}")


def check_assertion(world, trace, gamma, mode,
                    rigid_data=None, rigid_comp=None) -> str:
    """Universal closure over free rigid variables, like the model relation."""
    import itertools

    free_data, free_comp = C.free_vars(gamma)
    data_names = sorted(free_data)
    comp_names = sorted(free_comp)
    comp_decls = dict(rigid_comp or {})
    data_domains = [world.alg.carrier(free_data[n]) for n in data_names]
    comp_domains = [
        world.iface_ids[comp_decls.get(n) or free_comp[n]] for n in comp_names
    ]
    results = []
    for data_combo in itertools.product(*data_domains):
        for comp_combo in itertools.product(*comp_domains):
            denv = dict(zip(data_names, data_combo))
            cenv = dict(zip(comp_names, comp_combo))
            results.append(trace_eval(world, trace, 0, denv, cenv, gamma, mode))
    return kand(results)


def truth_letter(verdict) -> str:
    return {"Satisfied": T, "Violated": F, "Inconclusive": U}[verdict.truth.value]


def check_full_homomorphism(trace, ann, J) -> bool:
    """Direct check of the biconditional the required-connection annotation
    induces: at every step and for every active pair of components, a
    concrete connection exists iff the interface-level port pair is declared.
    """
    interface_of: dict[str, str] = {}
    for name, interps in J.by_interface.items():
        for interp in interps:
            interface_of[interp.snapshot.id] = name

    def interpretation(snap):
        found = sorted(
            (i for interps in J.by_interface.values() for i in interps
             if i.snapshot == snap),
            key=lambda i: i.sort_key(),
        )
        if not found:
            raise InterpretationError(
                f"active snapshot of {snap.id!r} has no interpretation"
            )
        return found[0]

    for step in trace.steps:
        actives = sorted(step.active, key=lambda s: s.id)
        for snap in actives:
            if snap.id not in interface_of:
                raise InterpretationError(
                    f"active component {snap.id!r} is not interpreted"
                )
        for src in actives:
            src_interp = interpretation(src)
            for tgt in actives:
                tgt_interp = interpretation(tgt)
                for p in sorted(src.input_ports):
                    for q in sorted(tgt.output_ports):
                        connected = (tgt.id, q) in step.connection.get(
                            (src.id, p), frozenset()
                        )
                        declared = (
                            (interface_of[src.id], src_interp.input_map[p]),
                            (interface_of[tgt.id], tgt_interp.output_map[q]),
                        ) in ann.pairs
                        if connected != declared:
                            return False
    return True
