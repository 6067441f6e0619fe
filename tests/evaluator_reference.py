"""The first-order evaluator as it was before it compiled formulas: a rule
table per context, keyed by node type, that walks the AST at every
evaluation, copies the assignment at every binding, and ranges a data
quantifier over its whole carrier, without the one-point rule, and a
component quantifier over every component of its interface.  ``test_evaluator.py``
checks the compiled evaluator against it in the datatype, interface and
configuration contexts: truth, undefined reads and errors."""
from archcheck.algebra import (
    And,
    Apply,
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
    PairTerm,
    PredAtom,
    SetTerm,
    Var,
    WellFounded,
    bind_pattern,
    check_well_founded,
)
from archcheck.constraints import (
    Active,
    CompEquals,
    Conn,
    ExistsComp,
    ForallComp,
    IRConn,
    Max,
    Min,
    MinMax,
    PortRead,
    _comp,
    _UndefinedRead,
)
from archcheck.errors import AssignmentError, InterpretationError, SignatureError, SortError
from archcheck.interfaces import PortSym
from archcheck.model import format_value, value_key


def _var(ev, asg, term):
    try:
        return asg[term.name]
    except KeyError:
        raise AssignmentError(f"unbound variable {term.name!r}") from None


def _apply(ev, asg, term):
    table = ev.alg.functions.get(term.symbol)
    if table is None:
        raise SignatureError(f"no table for function symbol {term.symbol!r}")
    args = tuple([ev.term(asg, a) for a in term.args])
    try:
        return table[args]
    except KeyError:
        rendered = ", ".join(format_value(v) for v in args)
        raise SignatureError(
            f"function table {term.symbol!r} undefined at ({rendered})"
        ) from None


def _pred(ev, asg, phi):
    rows = ev.alg.predicates.get(phi.symbol)
    if rows is None:
        if phi.symbol not in ev.alg.signature.predicates:
            raise SignatureError(f"unknown predicate symbol {phi.symbol!r}")
        rows = frozenset()
    return tuple([ev.term(asg, a) for a in phi.args]) in rows


def _member(ev, asg, phi):
    collection = ev.term(asg, phi.collection)
    if not isinstance(collection, frozenset):
        raise SortError("membership against a non-set value")
    return ev.term(asg, phi.element) in collection


def _quantifier(combine):
    def rule(ev, asg, phi):
        carrier = ev.alg.carrier(phi.sort)
        return combine(ev.holds({**asg, phi.var: v}, phi.body) for v in carrier)

    return rule


def _bounded(combine):
    def rule(ev, asg, phi):
        source = sorted(ev.source(asg, phi.source), key=value_key)
        return combine(
            ev.holds({**asg, **bind_pattern(phi.vars, v)}, phi.body) for v in source
        )

    return rule


class Evaluator:
    """Terms and assertions of the datatype fragment over one algebra."""

    FRAGMENT = "datatype assertions"
    TERMS = {
        Var: _var,
        Apply: _apply,
        PairTerm: lambda ev, asg, t: (ev.term(asg, t.first), ev.term(asg, t.second)),
        SetTerm: lambda ev, asg, t: frozenset([ev.term(asg, e) for e in t.elements]),
    }
    ASSERTIONS = {
        BoolLit: lambda ev, asg, phi: phi.value,
        PredAtom: _pred,
        Equals: lambda ev, asg, phi: ev.term(asg, phi.left) == ev.term(asg, phi.right),
        Member: _member,
        Not: lambda ev, asg, phi: not ev.holds(asg, phi.operand),
        And: lambda ev, asg, phi: all(ev.holds(asg, item) for item in phi.items),
        Or: lambda ev, asg, phi: any(ev.holds(asg, item) for item in phi.items),
        Implies: lambda ev, asg, phi: (
            not ev.holds(asg, phi.left) or ev.holds(asg, phi.right)
        ),
        Iff: lambda ev, asg, phi: ev.holds(asg, phi.left) == ev.holds(asg, phi.right),
        ForallData: _quantifier(all),
        ExistsData: _quantifier(any),
        BoundedForall: _bounded(all),
        BoundedExists: _bounded(any),
        WellFounded: lambda ev, asg, phi: check_well_founded(ev.alg, phi.symbol),
    }

    def __init__(self, alg):
        self.alg = alg

    def term(self, asg, term):
        try:
            rule = self.TERMS[type(term)]
        except KeyError:
            raise SortError(
                f"cannot evaluate {type(term).__name__} in {self.FRAGMENT}"
            ) from None
        return rule(self, asg, term)

    def holds(self, asg, phi):
        try:
            rule = self.ASSERTIONS[type(phi)]
        except KeyError:
            raise SortError(
                f"{type(phi).__name__} is not part of {self.FRAGMENT}"
            ) from None
        return rule(self, asg, phi)

    def source(self, asg, term):
        value = self.term(asg, term)
        if not isinstance(value, frozenset):
            raise SortError("bounded quantifier over a non-set value")
        return value


class InterfaceEvaluator(Evaluator):
    """Interface assertions: port symbols read the interpretation."""

    FRAGMENT = "interface assertions"
    TERMS = {
        **Evaluator.TERMS,
        PortSym: lambda ev, asg, term: ev.interp.port_value(term.port),
    }

    def __init__(self, alg, interp):
        super().__init__(alg)
        self.interp = interp


def _port_read(ev, asg, term):
    cid = _comp(asg, term.var)
    if cid not in ev.active:
        raise _UndefinedRead(f"undefined read: {term.var}.{term.port} ({cid} inactive)")
    return ev.interpretation(cid).port_value(term.port)


def _defined(rule):
    def atom(ev, asg, phi):
        try:
            return rule(ev, asg, phi)
        except _UndefinedRead as undef:
            ev.notes[undef.description] = None
            return False

    return atom


def _irconn(ev, asg, phi):
    for ci in ev.interface_ids(phi.in_interface):
        if ci not in ev.active:
            continue
        for co in ev.interface_ids(phi.out_interface):
            if co in ev.active and not ev.connected(ci, phi.in_port, co, phi.out_port):
                return False
    return True


def _comp_quantifier(combine):
    def rule(ev, asg, phi):
        return combine(
            ev.holds({**asg, phi.var: cid}, phi.body)
            for cid in ev.interface_ids(phi.interface)
        )

    return rule


class StateEvaluator(Evaluator):
    """Configuration assertions against one interpretation set; ``at(k)``
    makes ``k`` current and ``notes`` collects the undefined reads."""

    FRAGMENT = "configuration assertions"
    TERMS = {**Evaluator.TERMS, PortRead: _port_read}
    ASSERTIONS = {
        **Evaluator.ASSERTIONS,
        PredAtom: _defined(Evaluator.ASSERTIONS[PredAtom]),
        Equals: _defined(Evaluator.ASSERTIONS[Equals]),
        Member: _defined(Evaluator.ASSERTIONS[Member]),
        CompEquals: lambda ev, asg, phi: _comp(asg, phi.left) == _comp(asg, phi.right),
        Active: lambda ev, asg, phi: _comp(asg, phi.var) in ev.active,
        Conn: lambda ev, asg, phi: ev.connected(
            _comp(asg, phi.in_var), phi.in_port, _comp(asg, phi.out_var), phi.out_port
        ),
        IRConn: _irconn,
        Min: lambda ev, asg, phi: ev.count(phi.interface) >= phi.count,
        Max: lambda ev, asg, phi: ev.count(phi.interface) <= phi.count,
        MinMax: lambda ev, asg, phi: phi.low <= ev.count(phi.interface) <= phi.high,
        ForallComp: _comp_quantifier(all),
        ExistsComp: _comp_quantifier(any),
    }

    def __init__(self, alg, J):
        super().__init__(alg)
        self.notes = {}
        self._ids_by_interface = {
            name: tuple(sorted({i.snapshot.id for i in interps}))
            for name, interps in J.by_interface.items()
        }
        self._interps = {}
        for interps in J.by_interface.values():
            for interp in interps:
                self._interps.setdefault(interp.snapshot.id, {})[interp.snapshot] = interp

    def interface_ids(self, interface):
        try:
            return self._ids_by_interface[interface]
        except KeyError:
            raise InterpretationError(f"undeclared interface {interface!r}") from None

    def at(self, k):
        self.k, self.active = k, {snap.id: snap for snap in k.active}

    def source(self, asg, term):
        try:
            return super().source(asg, term)
        except _UndefinedRead as undef:
            self.notes[undef.description] = None
            return frozenset()

    def interpretation(self, cid):
        interp = self._interps.get(cid, {}).get(self.active[cid])
        if interp is None:
            raise InterpretationError(
                f"active component {cid!r} has no interface interpretation"
            )
        return interp

    def count(self, interface):
        return sum(1 for cid in self.interface_ids(interface) if cid in self.active)

    def connected(self, in_id, in_port, out_id, out_port):
        if in_id not in self.active or out_id not in self.active:
            self.notes[
                f"undefined read: conn over inactive component"
                f" ({in_id if in_id not in self.active else out_id})"
            ] = None
            return False
        src = (in_id, self.interpretation(in_id).concrete_port(in_port))
        tgt = (out_id, self.interpretation(out_id).concrete_port(out_port))
        return tgt in self.k.connection.get(src, frozenset())
