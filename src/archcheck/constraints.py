"""Configuration assertions and temporal trace assertions.

State formulas (configuration assertions) extend datatype assertions with
port reads ``v.p``, activation/connection predicates, cardinality bounds, and
flexible component quantifiers.  Trace assertions wrap state formulas with
temporal operators, boolean connectives, and rigid (trace-scoped) quantifiers.

Finite traces are evaluated in one of two modes:

* ``closed`` - the trace is the whole execution: X at the last index is
  Violated, G needs every remaining index, F/U need a witness before the end,
  and W = U or G.
* ``open`` - the trace is a prefix of an unknown continuation: verdicts are
  three-valued, missing witnesses yield Inconclusive, and boolean connectives
  combine by strong Kleene.

One core evaluates trace assertions, by formula progression (Bacchus and
Kabanza, 2000).  ``progress`` reads one step once and turns a residual, what
is left of an assertion under its rigid assignment, into a final verdict or
the next residual; ``close`` ends a residual at the end of the trace: X, F
and U are Violated and G and W Satisfied in closed mode, and all are
Inconclusive in open mode.  ``check_trace_assertion`` and ``trace_holds``
progress over the trace until the verdict is decided and close it by mode.
``Monitor`` keeps only the current residual, not the prefix: each step is one
``progress`` and one open ``close``, and reads only the new configuration
and the residual.  Equal pending residuals are merged into the earliest, so
``G(a -> F b)`` keeps one pending ``F b`` however long the stream.
Witnesses:

* G is Violated at its first violating step, with that step's explanation;
* F is Satisfied at its first satisfying step, with its explanation;
* U is Satisfied at its first discharging step, and Violated, "until never
  discharged", at the step where its left side fails or else at the last
  index; W likewise, and it holds in closed mode when the left side never
  fails;
* X past the end is Violated at the last index, "next step beyond the end";
* And and Or return their first dominant item in item order; a pending item
  before it holds the verdict back until that item is decided or closed.

A port read on an inactive component is an undefined read: the smallest
enclosing atomic assertion evaluates to false and the fact is recorded in the
verdict explanation.

``check_trace_assertion`` runs the assignments of the free rigid variables
in product order, but not those a trigger-shaped assertion never triggers,
after the relational evaluation of MonPoly (Basin, Klaedtke, Müller and
Zălinescu, JACM 2015).  The shape is ``G(guard -> beta)`` whose guard is, or
is an ``And`` that begins with, ``pattern in collection``, where the pattern
is a free rigid data variable or a pair of two distinct ones and the
collection reads no free data variable.  The collection is read over the
whole trace once per component assignment, an undefined read giving the
empty set.  A data assignment whose pattern value never occurs there has its
guard false at every step, so its verdict is that of ``G(true)``: Satisfied
in closed mode and Inconclusive in open mode, and it is not run.  The first
Violated assignment, its witness and its explanation stay those of the full
product, and ``max_assignments`` still bounds the full product's size.
"""
from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from .algebra import (  # And, Implies, Not and Or are re-exported
    Algebra,
    And,
    Assertion,
    BoundedExists,
    BoundedForall,
    Equals,
    Evaluator,
    ExistsData,
    ForallData,
    Implies,
    Member,
    Node,
    Not,
    Or,
    PairTerm,
    PredAtom,
    Sort,
    Term,
    Var,
    bind_pattern,
    children,
    value_key,
)
from .errors import (
    ArchError,
    AssignmentError,
    CapacityError,
    InactiveComponentError,
    InterpretationError,
    SortError,
    UsageError,
)
from .interfaces import SpecInterpretation
from .model import (
    ArchConfiguration,
    ComponentUniverse,
    ConfigurationTrace,
)

OPEN = "open"
CLOSED = "closed"
DEFAULT_ASSIGNMENT_BOUND = 10**6


# ---------------------------------------------------------------------------
# Configuration-assertion AST extensions


@dataclass(frozen=True)
class PortRead(Term):
    """``v.p``: the current valuation of port ``p`` of the component bound to
    component variable ``v``; value sort is set(sort)."""

    var: str
    interface: str
    port: str
    sort: Sort  # declared element sort of the port


@dataclass(frozen=True)
class CompEquals(Assertion):
    left: str
    right: str


@dataclass(frozen=True)
class Active(Assertion):
    var: str


@dataclass(frozen=True)
class Conn(Assertion):
    """Port ``in_port`` of ``in_var`` is connected to ``out_port`` of ``out_var``."""

    in_var: str
    in_interface: str
    in_port: str
    out_var: str
    out_interface: str
    out_port: str


@dataclass(frozen=True)
class IRConn(Assertion):
    """Every active component of one interface is connected to every active
    component of another (the activation-guarded universal form)."""

    in_interface: str
    in_port: str
    out_interface: str
    out_port: str


@dataclass(frozen=True)
class Min(Assertion):
    interface: str
    count: int


@dataclass(frozen=True)
class Max(Assertion):
    interface: str
    count: int


@dataclass(frozen=True)
class MinMax(Assertion):
    interface: str
    low: int
    high: int


@dataclass(frozen=True)
class ForallComp(Assertion):
    var: str
    interface: str
    body: Assertion


@dataclass(frozen=True)
class ExistsComp(Assertion):
    var: str
    interface: str
    body: Assertion


# ---------------------------------------------------------------------------
# Trace-assertion AST


class TraceAssertion(Node):
    __slots__ = ()


@dataclass(frozen=True)
class State(TraceAssertion):
    """An embedded configuration assertion, evaluated at the current step."""

    formula: Assertion


@dataclass(frozen=True)
class TraceNot(TraceAssertion):
    operand: TraceAssertion


@dataclass(frozen=True)
class TraceAnd(TraceAssertion):
    items: tuple[TraceAssertion, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True)
class TraceOr(TraceAssertion):
    items: tuple[TraceAssertion, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True)
class TraceImplies(TraceAssertion):
    left: TraceAssertion
    right: TraceAssertion


@dataclass(frozen=True)
class TraceIff(TraceAssertion):
    left: TraceAssertion
    right: TraceAssertion


@dataclass(frozen=True)
class Next(TraceAssertion):
    body: TraceAssertion


@dataclass(frozen=True)
class Eventually(TraceAssertion):
    body: TraceAssertion


@dataclass(frozen=True)
class Globally(TraceAssertion):
    body: TraceAssertion


@dataclass(frozen=True)
class Until(TraceAssertion):
    left: TraceAssertion
    right: TraceAssertion


@dataclass(frozen=True)
class WeakUntil(TraceAssertion):
    left: TraceAssertion
    right: TraceAssertion


@dataclass(frozen=True)
class RigidForallData(TraceAssertion):
    var: str
    sort: Sort
    body: TraceAssertion


@dataclass(frozen=True)
class RigidExistsData(TraceAssertion):
    var: str
    sort: Sort
    body: TraceAssertion


@dataclass(frozen=True)
class RigidForallComp(TraceAssertion):
    var: str
    interface: str
    body: TraceAssertion


@dataclass(frozen=True)
class RigidExistsComp(TraceAssertion):
    var: str
    interface: str
    body: TraceAssertion


@dataclass(frozen=True)
class BoundedRigidForall(TraceAssertion):
    """Rigid binding over the elements of a set-valued term evaluated at the
    current step (undefined reads yield the empty set)."""

    vars: tuple[str, ...]
    source: Term
    body: TraceAssertion

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))


@dataclass(frozen=True)
class BoundedRigidExists(TraceAssertion):
    vars: tuple[str, ...]
    source: Term
    body: TraceAssertion

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))


# ---------------------------------------------------------------------------
# Verdicts


class Truth(enum.Enum):
    SATISFIED = "Satisfied"
    VIOLATED = "Violated"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Verdict:
    truth: Truth
    witness: Optional[int] = None
    explanation: Optional[str] = None

    @property
    def final(self) -> bool:
        return self.truth is not Truth.INCONCLUSIVE

    def negate(self) -> "Verdict":
        if self.truth is Truth.SATISFIED:
            return Verdict(Truth.VIOLATED, self.witness, self.explanation)
        if self.truth is Truth.VIOLATED:
            return Verdict(Truth.SATISFIED, self.witness, self.explanation)
        return self

    def __str__(self) -> str:
        parts = [self.truth.value]
        if self.witness is not None:
            parts.append(f"@{self.witness}")
        if self.explanation:
            parts.append(f"({self.explanation})")
        return " ".join(parts)


SATISFIED = Verdict(Truth.SATISFIED)
VIOLATED = Verdict(Truth.VIOLATED)
INCONCLUSIVE = Verdict(Truth.INCONCLUSIVE)


class _UndefinedRead(Exception):
    """Internal signal: a port of an inactive component was read."""

    def __init__(self, description: str):
        super().__init__(description)
        self.description = description


# ---------------------------------------------------------------------------
# State-formula evaluation

# Key of the component assignment inside the assignment the rules read; not a
# string, so it never clashes with a data variable.
_COMPS = object()


def _comp(asg, var: str) -> str:
    try:
        return asg[_COMPS][var]
    except KeyError:
        raise AssignmentError(f"unbound component variable {var!r}") from None


def _port_read(ev, asg, term: PortRead) -> frozenset:
    cid = _comp(asg, term.var)
    if cid not in ev.active:
        raise _UndefinedRead(f"undefined read: {term.var}.{term.port} ({cid} inactive)")
    return ev.interpretation(cid).port_value(term.port)


def _defined(rule):
    """An atom's rule under which an undefined read makes the atom false."""

    def atom(ev, asg, phi):
        try:
            return rule(ev, asg, phi)
        except _UndefinedRead as undef:
            ev.notes[undef.description] = None
            return False

    return atom


def _irconn(ev, asg, phi: IRConn) -> bool:
    for ci in ev.interface_ids(phi.in_interface):
        if ci not in ev.active:
            continue
        for co in ev.interface_ids(phi.out_interface):
            if co in ev.active and not ev.connected(ci, phi.in_port, co, phi.out_port):
                return False
    return True


def _comp_quantifier(combine):
    def rule(ev, asg, phi):
        comps = asg[_COMPS]
        return combine(
            ev.holds({**asg, _COMPS: {**comps, phi.var: cid}}, phi.body)
            for cid in ev.interface_ids(phi.interface)
        )

    return rule


class _StateEvaluator(Evaluator):
    """Evaluates configuration assertions against one interpretation set.

    ``at`` makes a configuration ``k`` current, with ``active`` mapping its
    active component ids to their snapshots; ``notes`` collects the
    undefined reads of the verdict under way, in order.  With
    ``remember_steps`` each configuration's index is kept for later visits.
    """

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

    def __init__(self, alg: Algebra, J: SpecInterpretation, remember_steps: bool = True):
        super().__init__(alg)
        self.notes: dict[str, None] = {}
        self._ids_by_interface = {
            name: tuple(sorted({i.snapshot.id for i in interps}))
            for name, interps in J.by_interface.items()
        }
        self._interps: dict[str, dict] = {}
        for interps in J.by_interface.values():
            for interp in interps:
                self._interps.setdefault(interp.snapshot.id, {})[
                    interp.snapshot
                ] = interp
        self._step_cache: Optional[dict[int, tuple]] = {} if remember_steps else None

    def interface_ids(self, interface: str) -> tuple[str, ...]:
        try:
            return self._ids_by_interface[interface]
        except KeyError:
            raise InterpretationError(f"undeclared interface {interface!r}") from None

    def at(self, k: ArchConfiguration) -> None:
        """Make ``k`` the current configuration."""
        cache = self._step_cache
        cached = None if cache is None else cache.get(id(k))
        if cached is None or cached[0] is not k:
            cached = (k, {snap.id: snap for snap in k.active}, {})
            if cache is not None:
                cache[id(k)] = cached
        self.k, self.active, self._active_interps = cached

    def source(self, asg, term: Term) -> frozenset:
        """Undefined reads give the empty set (matching the guarded expansion
        of the sugar)."""
        try:
            return super().source(asg, term)
        except _UndefinedRead as undef:
            self.notes[undef.description] = None
            return frozenset()

    def interpretation(self, cid: str):
        """The interpretation of an active component, found once per step."""
        interp = self._active_interps.get(cid)
        if interp is None:
            interp = self._interps.get(cid, {}).get(self.active[cid])
            self._active_interps[cid] = interp
        if interp is None:
            raise InterpretationError(
                f"active component {cid!r} has no interface interpretation"
            )
        return interp

    def count(self, interface: str) -> int:
        return sum(1 for cid in self.interface_ids(interface) if cid in self.active)

    def connected(self, in_id, in_port, out_id, out_port) -> bool:
        if in_id not in self.active or out_id not in self.active:
            self.notes[
                f"undefined read: conn over inactive component"
                f" ({in_id if in_id not in self.active else out_id})"
            ] = None
            return False
        src = (in_id, self.interpretation(in_id).concrete_port(in_port))
        tgt = (out_id, self.interpretation(out_id).concrete_port(out_port))
        return tgt in self.k.connection.get(src, frozenset())


def eval_config_term(
    alg: Algebra,
    data_asg: Mapping,
    J: SpecInterpretation,
    comp_asg: Mapping[str, str],
    k: ArchConfiguration,
    term: Term,
):
    """Value of a configuration term.  An undefined read raises
    InactiveComponentError here; config_holds instead makes the enclosing
    atom false."""
    evaluator = _StateEvaluator(alg, J)
    evaluator.at(k)
    try:
        return evaluator.term({**data_asg, _COMPS: comp_asg}, term)
    except _UndefinedRead as undef:
        raise InactiveComponentError(undef.description) from None


def config_holds(
    alg: Algebra,
    data_asg: Mapping,
    J: SpecInterpretation,
    comp_asg: Mapping[str, str],
    k: ArchConfiguration,
    phi: Assertion,
    notes: Optional[list] = None,
) -> bool:
    """Truth of a configuration assertion at one configuration."""
    evaluator = _StateEvaluator(alg, J)
    evaluator.at(k)
    result = evaluator.holds({**data_asg, _COMPS: comp_asg}, phi)
    if notes is not None:
        notes.extend(evaluator.notes)
    return result


# ---------------------------------------------------------------------------
# Trace evaluation: formula progression
#
# A residual is what is left of a trace assertion after the steps read so
# far, with its rigid assignment.  Every residual has ``progress(ev)``, which
# reads the evaluator's current step once and returns a final Verdict or the
# next residual, and ``close(ev, mode)``, which ends it at the last step
# read.  Progress never returns Inconclusive; only an open ``close`` does.


class _Residual:
    """Base of residuals.  Two residuals are equal when their keys are; a
    key names formulas and assignments by identity, so equal residuals end
    alike and a pending one equal to an earlier one can be dropped."""

    __slots__ = ("key", "_hash")

    def _keyed(self, *key) -> None:
        self.key = key
        self._hash = hash(key)

    def __eq__(self, other):
        return type(other) is type(self) and other.key == self.key

    def __hash__(self):
        return self._hash


def _advance(result, ev):
    return result if type(result) is Verdict else result.progress(ev)


def _finish(result, ev, mode: str) -> Verdict:
    return result if type(result) is Verdict else result.close(ev, mode)


class _Deferred(_Residual):
    """``formula`` under the assignment ``asg``, started at the next step:
    the residual of ``X formula``, and of an assertion before its first
    step."""

    __slots__ = ("formula", "asg")

    def __init__(self, formula: TraceAssertion, asg: dict):
        self.formula, self.asg = formula, asg
        self._keyed(id(formula), id(asg))

    def progress(self, ev):
        return ev.start(self.formula, self.asg)

    def close(self, ev, mode):
        if mode == CLOSED:
            return Verdict(Truth.VIOLATED, ev.m, "next step beyond the end")
        return INCONCLUSIVE


class _Not(_Residual):
    __slots__ = ("operand",)

    def __init__(self, operand: _Residual):
        self.operand = operand
        self._keyed(operand)

    def progress(self, ev):
        return _negate(self.operand.progress(ev))

    def close(self, ev, mode):
        return self.operand.close(ev, mode).negate()


def _negate(result):
    return result.negate() if type(result) is Verdict else _Not(result)


class _Items(_Residual):
    """A pending conjunction (``dominant`` Violated) or disjunction
    (``dominant`` Satisfied), also of a rigid quantifier's instances: the
    pending items in item order, then the first dominant verdict met after
    them, if any."""

    __slots__ = ("dominant", "pending", "found")

    def __init__(self, dominant: Truth, pending: tuple, found: Optional[Verdict]):
        self.dominant, self.pending, self.found = dominant, pending, found
        self._keyed(dominant, pending, found)

    def progress(self, ev):
        return _items(
            self.dominant, (item.progress(ev) for item in self.pending), self.found
        )

    def close(self, ev, mode):
        saw_inconclusive = False
        for item in self.pending:
            verdict = item.close(ev, mode)
            if verdict.truth is self.dominant:
                return verdict
            saw_inconclusive |= verdict.truth is Truth.INCONCLUSIVE
        if self.found is not None:
            return self.found
        if saw_inconclusive:
            return INCONCLUSIVE
        return SATISFIED if self.dominant is Truth.VIOLATED else VIOLATED


def _items(dominant: Truth, results: Iterable, found: Optional[Verdict] = None):
    """Combine item results, verdicts or residuals, in item order.  The first
    dominant verdict ends the scan, other verdicts drop out, and a residual
    equal to an earlier pending one is merged into it."""
    pending: dict = {}
    for result in results:
        if type(result) is Verdict:
            if result.truth is dominant:
                found = result
                break
        else:
            pending.setdefault(result)
    if pending:
        return _Items(dominant, tuple(pending), found)
    if found is not None:
        return found
    return SATISFIED if dominant is Truth.VIOLATED else VIOLATED


class _Binary(_Residual):
    """A pending implication (``combine`` is ``_implies``) or equivalence
    (``_iff``); each side is a verdict or a residual."""

    __slots__ = ("combine", "left", "right")

    def __init__(self, combine: Callable, left, right):
        self.combine, self.left, self.right = combine, left, right
        self._keyed(combine, left, right)

    def progress(self, ev):
        return self.combine(_advance(self.left, ev), _advance(self.right, ev))

    def close(self, ev, mode):
        return self.combine(_finish(self.left, ev, mode), _finish(self.right, ev, mode))


def _implies(left, right):
    if type(left) is Verdict and left.truth is Truth.VIOLATED:
        return SATISFIED
    if type(right) is Verdict and right.truth is Truth.SATISFIED:
        return SATISFIED
    if type(left) is not Verdict or type(right) is not Verdict:
        return _Binary(_implies, left, right)
    if left.truth is Truth.INCONCLUSIVE:
        return INCONCLUSIVE
    return right  # left Satisfied: right is Violated or Inconclusive


def _iff(left, right):
    if type(left) is not Verdict or type(right) is not Verdict:
        return _Binary(_iff, left, right)
    if Truth.INCONCLUSIVE in (left.truth, right.truth):
        return INCONCLUSIVE
    if left.truth is right.truth:
        return SATISFIED
    return Verdict(Truth.VIOLATED, right.witness, right.explanation)


_UNTIL_NEVER = "until never discharged"


class _Chain(_Residual):
    """A pending G, F, U or W.

    Each step m opens a position that stands for ``right@m or (left@m and
    <the later positions>)``; G has no right side (false), F no left side
    (true).  ``opening`` holds the two sides of a new position, as
    ``_Deferred`` residuals or None.  ``entries`` holds the positions still
    pending, as ``(m, right, left)`` in step order, with None for a side
    that no longer matters; ``found`` is the verdict reached after them.
    Once ``found`` is set, no new position opens.  A pending side equal to
    the same side of an earlier position is dropped: every later position
    lies inside the earlier one's ``left and ...`` and beside its
    ``right or ...``, so in strong Kleene logic the copy changes neither
    the truth nor which position decides it.
    """

    __slots__ = ("op", "opening", "entries", "found")

    def __init__(self, op, opening: tuple, entries: tuple = (), found=None):
        self.op, self.opening, self.entries, self.found = op, opening, entries, found
        self._keyed(id(op), opening, entries, found)

    def progress(self, ev):
        positions = self.entries
        if self.found is None:
            positions += ((ev.m,) + self.opening,)
        rights, lefts = set(), set()  # the pending sides kept so far
        found = self.found
        entries = []
        for origin, right, left in positions:
            if right is not None:
                right = right.progress(ev)
                if type(right) is Verdict:
                    if right.truth is Truth.SATISFIED:
                        found = Verdict(Truth.SATISFIED, origin, right.explanation)
                        break
                    right = None
            if left is not None:
                left = left.progress(ev)
                if type(left) is Verdict:
                    if left.truth is Truth.VIOLATED:
                        found = self._broken(origin, left)
                        if right is not None:
                            entries.append((origin, right, None))
                        break
                    left = None
            if right in rights:
                right = None
            if left in lefts:
                left = None
            if right is None and left is None:
                continue
            rights.add(right)
            lefts.add(left)
            entries.append((origin, right, left))
        if not entries and found is not None:
            return found
        entries = tuple(entries)
        if found is self.found and entries == self.entries:
            return self
        return _Chain(self.op, self.opening, entries, found)

    def close(self, ev, mode):
        verdict = self.found if self.found is not None else self._end(ev.m, mode)
        for origin, right, left in reversed(self.entries):
            if left is not None:
                lv = left.close(ev, mode)
                if lv.truth is Truth.VIOLATED:
                    verdict = self._broken(origin, lv)
                elif lv.truth is Truth.INCONCLUSIVE and verdict.truth is not Truth.VIOLATED:
                    verdict = INCONCLUSIVE
            if right is not None:
                rv = right.close(ev, mode)
                if rv.truth is Truth.SATISFIED:
                    verdict = Verdict(Truth.SATISFIED, origin, rv.explanation)
                elif rv.truth is Truth.INCONCLUSIVE and verdict.truth is not Truth.SATISFIED:
                    verdict = INCONCLUSIVE
        return verdict

    def _broken(self, origin: int, left: Verdict) -> Verdict:
        """The verdict of a position whose left side is violated."""
        if type(self.op) is Globally:
            return Verdict(Truth.VIOLATED, origin, left.explanation)
        return Verdict(Truth.VIOLATED, origin, _UNTIL_NEVER)

    def _end(self, last: int, mode: str) -> Verdict:
        """The verdict of the positions the trace ends before."""
        if mode == OPEN:
            return INCONCLUSIVE
        if type(self.op) in (Globally, WeakUntil):
            return SATISFIED
        if type(self.op) is Eventually:
            return Verdict(Truth.VIOLATED, last, "no witness before the end")
        return Verdict(Truth.VIOLATED, last, _UNTIL_NEVER)


def _start_chain(ev, gamma, asg, right, left):
    opening = (
        None if right is None else _Deferred(right, asg),
        None if left is None else _Deferred(left, asg),
    )
    return _Chain(gamma, opening).progress(ev)


def _start_implies(ev, gamma, asg):
    left = ev.start(gamma.left, asg)
    if type(left) is Verdict and left.truth is Truth.VIOLATED:
        return SATISFIED
    return _implies(left, ev.start(gamma.right, asg))


def _rigid_data(dominant):
    def rule(ev, gamma, asg):
        return _items(dominant, (
            ev.start(gamma.body, ev.bind(asg, gamma, v, {gamma.var: v}))
            for v in ev.state.alg.carrier(gamma.sort)
        ))

    return rule


def _rigid_comp(dominant):
    def rule(ev, gamma, asg):
        comps = asg[_COMPS]
        return _items(dominant, (
            ev.start(gamma.body, ev.bind(asg, gamma, cid, {_COMPS: {**comps, gamma.var: cid}}))
            for cid in ev.state.interface_ids(gamma.interface)
        ))

    return rule


def _bounded_rigid(dominant):
    def rule(ev, gamma, asg):
        source = sorted(ev.state.source(asg, gamma.source), key=value_key)
        return _items(dominant, (
            ev.start(gamma.body, ev.bind(asg, gamma, v, bind_pattern(gamma.vars, v)))
            for v in source
        ))

    return rule


_START = {
    State: lambda ev, gamma, asg: ev.state_verdict(asg, gamma.formula),
    TraceNot: lambda ev, gamma, asg: _negate(ev.start(gamma.operand, asg)),
    TraceAnd: lambda ev, gamma, asg: _items(
        Truth.VIOLATED, (ev.start(item, asg) for item in gamma.items)
    ),
    TraceOr: lambda ev, gamma, asg: _items(
        Truth.SATISFIED, (ev.start(item, asg) for item in gamma.items)
    ),
    TraceImplies: _start_implies,
    TraceIff: lambda ev, gamma, asg: _iff(
        ev.start(gamma.left, asg), ev.start(gamma.right, asg)
    ),
    Next: lambda ev, gamma, asg: _Deferred(gamma.body, asg),
    Globally: lambda ev, gamma, asg: _start_chain(ev, gamma, asg, None, gamma.body),
    Eventually: lambda ev, gamma, asg: _start_chain(ev, gamma, asg, gamma.body, None),
    Until: lambda ev, gamma, asg: _start_chain(ev, gamma, asg, gamma.right, gamma.left),
    WeakUntil: lambda ev, gamma, asg: _start_chain(ev, gamma, asg, gamma.right, gamma.left),
    RigidForallData: _rigid_data(Truth.VIOLATED),
    RigidExistsData: _rigid_data(Truth.SATISFIED),
    RigidForallComp: _rigid_comp(Truth.VIOLATED),
    RigidExistsComp: _rigid_comp(Truth.SATISFIED),
    BoundedRigidForall: _bounded_rigid(Truth.VIOLATED),
    BoundedRigidExists: _bounded_rigid(Truth.SATISFIED),
}


def _check_mode(mode: str) -> None:
    if mode not in (OPEN, CLOSED):
        raise UsageError(f"mode must be {OPEN!r} or {CLOSED!r}, got {mode!r}")


class _TraceEvaluator:
    """The progression core, shared by the checks and the monitor.

    ``progress(residual, m, k)`` makes configuration ``k`` the current step
    ``m`` and advances ``residual`` over it; ``close(residual, mode)`` ends a
    residual at the last step read.  An assertion under an assignment
    starts as ``_Deferred(gamma, asg)``.  ``remember_steps`` keeps each
    configuration's index of active components for later visits.
    """

    def __init__(self, alg: Algebra, J: SpecInterpretation, remember_steps: bool = True):
        self.state = _StateEvaluator(alg, J, remember_steps)
        self.m: Optional[int] = None
        self._bound: dict = {}

    def progress(self, residual, m: int, k: ArchConfiguration):
        self.m = m
        self.state.at(k)
        return residual.progress(self)

    def close(self, residual, mode: str) -> Verdict:
        return residual.close(self, mode)

    def run(self, gamma: TraceAssertion, asg: dict, steps, n: int, mode: str) -> Verdict:
        """Verdict of ``gamma`` at step ``n``: progress until decided, then
        close at the end of the trace."""
        residual = _Deferred(gamma, asg)
        for m in range(n, len(steps)):
            residual = self.progress(residual, m, steps[m])
            if type(residual) is Verdict:
                return residual
        return self.close(residual, mode)

    def start(self, gamma, asg: dict):
        """Progress of ``gamma`` from the current step on."""
        rule = _START.get(type(gamma))
        if rule is None:
            if isinstance(gamma, Assertion):
                raise SortError(
                    f"{type(gamma).__name__} is a configuration assertion;"
                    " wrap it in State(...) to use it as a trace assertion"
                )
            raise SortError(f"{type(gamma).__name__} is not a trace assertion")
        return rule(self, gamma, asg)

    def bind(self, asg: dict, binder: TraceAssertion, value, bindings: dict) -> dict:
        """``asg`` extended by ``bindings``, the rigid quantifier ``binder``
        bound to ``value``.  The same three give the same dict object, so
        that residuals under equal bindings compare equal."""
        key = (id(asg), id(binder), value)
        entry = self._bound.get(key)
        if entry is None:
            # the entry holds asg and binder, so their ids are not reused
            entry = self._bound[key] = (asg, binder, {**asg, **bindings})
        return entry[2]

    def state_verdict(self, asg: dict, phi: Assertion) -> Verdict:
        state = self.state
        state.notes = {}
        ok = state.holds(asg, phi)
        if not state.notes:
            return SATISFIED if ok else VIOLATED
        explanation = "; ".join(state.notes)
        return Verdict(Truth.SATISFIED if ok else Truth.VIOLATED, None, explanation)


def trace_holds(
    alg: Algebra,
    J: SpecInterpretation,
    rigid_data: Mapping,
    rigid_comp: Mapping[str, str],
    trace: ConfigurationTrace,
    n: int,
    gamma: TraceAssertion,
    mode: str = OPEN,
) -> Verdict:
    """Verdict of a trace assertion at index ``n`` under fixed rigid
    assignments."""
    _check_mode(mode)
    length = len(trace.steps)
    if n >= length or n < 0:
        raise UsageError(f"time index {n} outside the trace (length {length})")
    asg = {**rigid_data, _COMPS: dict(rigid_comp)}
    return _TraceEvaluator(alg, J).run(gamma, asg, trace.steps, n, mode)


# ---------------------------------------------------------------------------
# Free variables and model-level checking


def free_vars(gamma) -> tuple[dict[str, Sort], dict[str, Optional[str]]]:
    """Free data and component variables of a trace/configuration assertion.

    Component variables map to their interface when an occurrence reveals it
    (port reads, conn, quantifier bindings), otherwise to None.
    """
    data: dict[str, Sort] = {}
    comps: dict[str, Optional[str]] = {}

    def see_comp(name, interface, bound_comp):
        if name in bound_comp:
            return
        known = comps.get(name)
        if interface is not None:
            if known not in (None, interface):
                raise SortError(
                    f"component variable {name!r} used at interfaces"
                    f" {known!r} and {interface!r}"
                )
            comps[name] = interface
        else:
            comps.setdefault(name, None)

    def walk(node, bound_data: frozenset, bound_comp: frozenset):
        if isinstance(node, Var):
            if node.name not in bound_data:
                previous = data.get(node.name)
                if previous is not None and previous != node.sort:
                    raise SortError(
                        f"variable {node.name!r} used at sorts {previous} and {node.sort}"
                    )
                data[node.name] = node.sort
            return
        if isinstance(node, PortRead):
            see_comp(node.var, node.interface, bound_comp)
            return
        if isinstance(node, Active):
            see_comp(node.var, None, bound_comp)
            return
        if isinstance(node, CompEquals):
            see_comp(node.left, None, bound_comp)
            see_comp(node.right, None, bound_comp)
            return
        if isinstance(node, Conn):
            see_comp(node.in_var, node.in_interface, bound_comp)
            see_comp(node.out_var, node.out_interface, bound_comp)
            return
        if isinstance(node, (ForallData, ExistsData, RigidForallData, RigidExistsData)):
            walk(node.body, bound_data | {node.var}, bound_comp)
            return
        if isinstance(
            node, (BoundedForall, BoundedExists, BoundedRigidForall, BoundedRigidExists)
        ):
            walk(node.source, bound_data, bound_comp)
            walk(node.body, bound_data | set(node.vars), bound_comp)
            return
        if isinstance(node, (ForallComp, ExistsComp, RigidForallComp, RigidExistsComp)):
            walk(node.body, bound_data, bound_comp | {node.var})
            return
        for child in children(node):
            walk(child, bound_data, bound_comp)

    walk(gamma, frozenset(), frozenset())
    return data, comps


def contains_rigid_quantifier(gamma) -> bool:
    stack = [gamma]
    while stack:
        node = stack.pop()
        if isinstance(
            node,
            (
                RigidForallData,
                RigidExistsData,
                RigidForallComp,
                RigidExistsComp,
                BoundedRigidForall,
                BoundedRigidExists,
            ),
        ):
            return True
        stack.extend(children(node))
    return False


def _trigger_guard(gamma, free_data: Mapping[str, Sort]) -> Optional[Member]:
    """The ``pattern in collection`` atom that guards a trigger-shaped
    assertion (see the module docstring), or None for any other shape."""
    if type(gamma) is not Globally or type(gamma.body) is not TraceImplies:
        return None
    left = gamma.body.left
    if type(left) is not State:
        return None
    atom = left.formula
    if type(atom) is And and atom.items:
        atom = atom.items[0]
    if type(atom) is not Member:
        return None
    pattern = atom.element
    parts = (pattern.first, pattern.second) if type(pattern) is PairTerm else (pattern,)
    names = {part.name for part in parts if type(part) is Var}
    if len(names) < len(parts) or not names <= free_data.keys():
        return None
    return None if free_vars(atom.collection)[0] else atom


class _Trigger:
    """A trigger guard whose collection is read over the whole trace, once
    per component combination.  ``idle(comp_combo, asg)`` is true when the
    pattern's value under ``asg`` never occurs there, so that the guard is
    false at every step."""

    def __init__(self, guard: Member, state: _StateEvaluator, steps):
        self.guard, self.state, self.steps = guard, state, steps
        self._occurring: dict = {}

    def idle(self, comp_combo: tuple, asg: dict) -> bool:
        if comp_combo not in self._occurring:
            self._occurring[comp_combo] = self._read(asg)
        values = self._occurring[comp_combo]
        if values is None:
            return False
        return self.state.term(asg, self.guard.element) not in values

    def _read(self, asg: dict) -> Optional[set]:
        state = self.state
        values: set = set()
        try:
            for k in self.steps:
                state.at(k)
                values |= state.source(asg, self.guard.collection)
        except ArchError:
            # the plain runs meet this error only if no verdict comes first
            return None
        return values


def check_trace_assertion(
    alg: Algebra,
    J: SpecInterpretation,
    trace: ConfigurationTrace,
    gamma: TraceAssertion,
    mode: str = OPEN,
    rigid_comp_decls: Optional[Mapping[str, str]] = None,
    rigid_data_decls: Optional[Mapping[str, Sort]] = None,
    max_assignments: int = DEFAULT_ASSIGNMENT_BOUND,
) -> Verdict:
    """Three-valued conjunction of trace_holds at index 0 over all rigid
    assignments of the assertion's free variables.

    Violated dominates, then Inconclusive, then Satisfied.  The rigid
    assignment space is bounded by ``max_assignments``.
    """
    free_data, free_comps = free_vars(gamma)
    comp_decls = dict(rigid_comp_decls or {})
    for name, interface in free_comps.items():
        declared = comp_decls.get(name, interface)
        if declared is None:
            raise SortError(
                f"free component variable {name!r} has no declared interface"
            )
        if interface is not None and declared != interface:
            raise SortError(
                f"component variable {name!r} declared {declared!r}"
                f" but used at {interface!r}"
            )
        comp_decls[name] = declared
    data_decls = dict(rigid_data_decls or {})
    for name, sort in free_data.items():
        declared = data_decls.get(name, sort)
        if declared != sort:
            raise SortError(
                f"data variable {name!r} declared {declared} but used at {sort}"
            )
        data_decls[name] = sort

    data_names = sorted(free_data)
    comp_names = sorted(free_comps)
    data_domains = [alg.carrier(data_decls[n]) for n in data_names]
    comp_domains = [tuple(J.ids_of(comp_decls[n])) for n in comp_names]

    total = 1
    for domain in itertools.chain(data_domains, comp_domains):
        total *= len(domain)
    if total > max_assignments:
        raise CapacityError(
            f"rigid assignment space has {total} combinations, exceeding the"
            f" bound of {max_assignments}",
            bound=max_assignments,
        )

    _check_mode(mode)
    evaluator = _TraceEvaluator(alg, J)
    guard = _trigger_guard(gamma, free_data)
    trigger = None if guard is None else _Trigger(guard, evaluator.state, trace.steps)
    saw_inconclusive = False
    for data_combo in itertools.product(*data_domains):
        data_asg = dict(zip(data_names, data_combo))
        for comp_combo in itertools.product(*comp_domains):
            asg = {**data_asg, _COMPS: dict(zip(comp_names, comp_combo))}
            if trigger is not None and trigger.idle(comp_combo, asg):
                saw_inconclusive |= mode == OPEN  # the verdict of G(true)
                continue
            verdict = evaluator.run(gamma, asg, trace.steps, 0, mode)
            if verdict.truth is Truth.VIOLATED:
                return verdict
            saw_inconclusive |= verdict.truth is Truth.INCONCLUSIVE
    return INCONCLUSIVE if saw_inconclusive else SATISFIED


class Monitor:
    """Incremental open-mode evaluation of a rigid-closed trace assertion.

    Feed configurations one at a time; Satisfied and Violated verdicts are
    final and later steps return them unchanged.  The monitor keeps only the
    residual of the assertion, not the steps fed so far.  ``universe`` is
    accepted for compatibility and not used.
    """

    def __init__(
        self,
        alg: Algebra,
        J: SpecInterpretation,
        gamma: TraceAssertion,
        universe: Optional[ComponentUniverse] = None,
    ):
        free_data, free_comps = free_vars(gamma)
        if free_data or free_comps:
            raise UsageError(
                "monitored assertions must be rigid-closed; free variables: "
                + ", ".join(sorted(free_data) + sorted(free_comps))
            )
        if contains_rigid_quantifier(gamma):
            raise UsageError("monitored assertions must not use rigid quantifiers")
        self._evaluator = _TraceEvaluator(alg, J, remember_steps=False)
        self._residual = _Deferred(gamma, {_COMPS: {}})
        self._steps = 0
        self._last: Optional[Verdict] = None
        self._final: Optional[Verdict] = None

    @property
    def verdict(self) -> Verdict:
        if self._last is None:
            raise UsageError("the monitor needs at least one step before a verdict")
        return self._last

    def step(self, k: ArchConfiguration) -> Verdict:
        if self._final is not None:
            return self._final
        residual = self._evaluator.progress(self._residual, self._steps, k)
        self._steps += 1
        if type(residual) is Verdict:
            verdict = residual
        else:
            verdict = self._evaluator.close(residual, OPEN)
        self._residual = residual
        self._last = verdict
        if verdict.final:
            self._final = verdict
        return verdict
