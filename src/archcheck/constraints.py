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

An assertion with free rigid variables holds when it holds under every
rigid assignment: it means its universal closure, and the checks and the
monitor evaluate that closure as one assertion.  The closure quantifies
the free data variables outermost, then the free component variables,
each in name order, so its instances are the assignments in product order
(the parametric slices of Chen and Roşu, "Parametric Trace Slicing and
Monitoring", TACAS 2009).  A trigger-shaped assertion ``G(State(guard
...) -> beta)``, whose guard's pattern is exactly its free data variables,
closes instead as ``G(forall pattern in source . State(guard ...) ->
beta)`` inside the component quantifiers: each step starts an instance
only for a pattern value that occurs in the guard's source then, as
MonPoly spawns one when its parameter value first occurs (Basin, Klaedtke,
Müller and Zălinescu, JACM 2015).  Every other value makes the guard false
at that step.  A membership guard holds for every value bound, so it is
dropped from the instance, and ``State(rest)`` is dropped with it when
nothing follows it.  A source value outside the pattern's carrier binds
nothing, and an undefined read gives the empty set.
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
  Rigid quantifiers do the same over their instances: in carrier or
  component order, and a bounded one in value order;
* so a Violated closure is that of its first violated assignment in product
  order, and a trigger-shaped one that of its first violated component
  assignment at the earliest step where an instance is violated, the first
  of those in source value order.

A port read on an inactive component is an undefined read: the smallest
enclosing atomic assertion evaluates to false and the fact is recorded in the
verdict explanation.

Guarded quantification follows the one-point rule of ``algebra`` (see its
module docstring), whose ``find_guard`` recognises guards here too.  A rigid
data quantifier starts only the instances its guard can make matter at the
current step: ``exists x . State(guard ...)`` and ``forall x .
(State(guard ...) -> ...)``.  ``max_assignments`` bounds the product of the
free rigid variables' carriers and component sets, whichever instances run.

The checks evaluate each state formula once per distinct configuration and
skip the steps that cannot change a residual.  ``ConfigurationTrace``
interns its steps, so equal steps are the same object.  Within one
``check_trace_assertion`` or ``trace_holds`` call, a state formula's
verdict, explanation included, is memoised under the formula, the step and
the values of the formula's own free variables; so a formula that does not
read a rigid variable is evaluated once across that variable's assignments.
When a residual is a fixed point of a configuration, ``progress(r, k) ==
r``, the run skips every later step that is ``k`` for as long as the
residual stays ``r``.  On a run of equal steps this is stutter invariance
(Lamport, "What Good Is Temporal Logic?", IFIP 1983; Peled and Wilke, IPL
1997).  It is exact for every formula, X included: ``progress`` reads the
step index only as the origin of the chain positions it opens, so what it
drops at one step it drops at any later one, and a pending X or chain
position never equals its successor, since ``_Deferred`` turns into its
body and chain positions carry their origin step.  The last index is the
current one at the end, so the witnesses that name it stay exact.
``Monitor`` keeps neither the memo nor the skip: it reads each step it is
fed.

What does not depend on the trace is found once per assertion: an
``AssertionPlan`` holds the free rigid variables with their sorts and
interfaces, the closure, the free variables of each ``State`` formula and
the guard of each quantifier.  ``check_trace_assertion`` and ``Monitor``
make one unless they are given one; ``checker.run_check`` keeps one per
assertion on the bundle it checks.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from .algebra import (  # And, Implies, Not, Or and free_vars are re-exported
    Algebra,
    And,
    Assertion,
    BoundedExists,
    BoundedForall,
    Equals,
    Evaluator,
    ExistsData,
    ForallData,
    Guard,
    Implies,
    Member,
    Node,
    Not,
    Or,
    PairSort,
    PredAtom,
    Sort,
    Term,
    antecedent,
    bind_pattern,
    enumerate_assignments,
    find_guard,
    free_vars,
    nodes,
    value_key,
)
from .errors import (
    AssignmentError,
    CapacityError,
    InterpretationError,
    SortError,
    UsageError,
)
from .interfaces import SpecInterpretation
from .model import ArchConfiguration, ConfigurationTrace

OPEN = "open"
CLOSED = "closed"
DEFAULT_ASSIGNMENT_BOUND = 10**6


# ---------------------------------------------------------------------------
# Configuration-assertion AST extensions


@dataclass(frozen=True)
class PortRead(Term):
    """``v.p``: the current valuation of port ``p`` of the component bound to
    component variable ``v``; value sort is set(sort)."""

    COMP_FIELDS = (("var", "interface"),)

    var: str
    interface: str
    port: str
    sort: Sort  # declared element sort of the port


@dataclass(frozen=True)
class CompEquals(Assertion):
    COMP_FIELDS = (("left", None), ("right", None))

    left: str
    right: str


@dataclass(frozen=True)
class Active(Assertion):
    COMP_FIELDS = (("var", None),)

    var: str


@dataclass(frozen=True)
class Conn(Assertion):
    """Port ``in_port`` of ``in_var`` is connected to ``out_port`` of ``out_var``."""

    COMP_FIELDS = (("in_var", "in_interface"), ("out_var", "out_interface"))

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
    SHAPE = ("forall", "interface")

    var: str
    interface: str
    body: Assertion


@dataclass(frozen=True)
class ExistsComp(Assertion):
    SHAPE = ("exists", "interface")

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
    SHAPE = ("forall", "sort")

    var: str
    sort: Sort
    body: TraceAssertion


@dataclass(frozen=True)
class RigidExistsData(TraceAssertion):
    SHAPE = ("exists", "sort")

    var: str
    sort: Sort
    body: TraceAssertion


@dataclass(frozen=True)
class RigidForallComp(TraceAssertion):
    SHAPE = ("forall", "interface")

    var: str
    interface: str
    body: TraceAssertion


@dataclass(frozen=True)
class RigidExistsComp(TraceAssertion):
    SHAPE = ("exists", "interface")

    var: str
    interface: str
    body: TraceAssertion


@dataclass(frozen=True)
class BoundedRigidForall(TraceAssertion):
    """Rigid binding over the elements of a set-valued term evaluated at the
    current step (undefined reads yield the empty set)."""

    SHAPE = ("forall", "set")

    vars: tuple[str, ...]
    source: Term
    body: TraceAssertion

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))


@dataclass(frozen=True)
class BoundedRigidExists(TraceAssertion):
    SHAPE = ("exists", "set")

    vars: tuple[str, ...]
    source: Term
    body: TraceAssertion

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))


@dataclass(frozen=True)
class _Slices(BoundedRigidForall):
    """``BoundedRigidForall`` over the values of ``source`` in the carrier of
    ``sort``, the sort of the pattern ``vars``: the instances that a
    trigger-shaped assertion starts at one step (see the module docstring)."""

    sort: Optional[Sort] = None


# The quantifier classes by SHAPE: its configuration-assertion form, then
# its rigid form.
QUANTIFIERS = {
    state.SHAPE: (state, rigid)
    for state, rigid in (
        (ForallData, RigidForallData), (ExistsData, RigidExistsData),
        (ForallComp, RigidForallComp), (ExistsComp, RigidExistsComp),
        (BoundedForall, BoundedRigidForall), (BoundedExists, BoundedRigidExists),
    )
}


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


def _instance_guard(gamma) -> Optional[Guard]:
    """The guard of a rigid data quantifier: of the state formula that must
    hold at the current step for an instance to matter.  That is, for
    ``forall``, the antecedent of ``State(...) -> ...`` or of ``State(...
    -> ...)``; for ``exists``, the formula of a ``State`` body."""
    body = gamma.body
    if type(gamma) is RigidExistsData:
        formula = body.formula if type(body) is State else None
    elif type(body) is TraceImplies and type(body.left) is State:
        formula = body.left.formula
    else:
        formula = antecedent(body.formula) if type(body) is State else None
    return find_guard(formula, {gamma.var: gamma.sort})


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
    GUARDS = {
        **Evaluator.GUARDS,
        RigidForallData: _instance_guard,
        RigidExistsData: _instance_guard,
    }

    def __init__(
        self,
        alg: Algebra,
        J: SpecInterpretation,
        remember_steps: bool = True,
        guards: Optional[dict] = None,
    ):
        super().__init__(alg, guards)
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
        guard = ev.state.guard(gamma)
        bindings = enumerate_assignments(ev.state, {gamma.var: gamma.sort}, asg, guard)
        return _items(dominant, (
            ev.start(gamma.body, ev.bind(asg, gamma, b[gamma.var], b)) for b in bindings
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
        source = ev.state.source(asg, gamma.source)
        if type(gamma) is _Slices:  # a value outside the carrier binds nothing
            source = [v for v in source if ev.state.alg.contains(v, gamma.sort)]
        return _items(dominant, (
            ev.start(gamma.body, ev.bind(asg, gamma, v, bind_pattern(gamma.vars, v)))
            for v in sorted(source, key=value_key)
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
    _Slices: _bounded_rigid(Truth.VIOLATED),
}


def _check_mode(mode: str) -> None:
    if mode not in (OPEN, CLOSED):
        raise UsageError(f"mode must be {OPEN!r} or {CLOSED!r}, got {mode!r}")


def _reads(phi: Assertion) -> tuple:
    """``phi`` and the names of its free data and component variables; None
    and None when a name is used at two sorts, so that its verdicts are not
    memoised."""
    try:
        data, comps = free_vars(phi)
    except SortError:
        return phi, None, None
    return phi, tuple(data), tuple(comps)


def _node_tables(gamma) -> tuple[dict, dict]:
    """What evaluating ``gamma`` looks up about its nodes, all found at once:
    the ``_reads`` of each ``State`` formula and the guard of each data
    quantifier, rigid or not, by the node's id (see ``_TraceEvaluator``)."""
    reads: dict = {}
    guards: dict = {}
    for node in nodes(gamma):
        if type(node) is State:
            reads[id(node.formula)] = _reads(node.formula)
        rule = _StateEvaluator.GUARDS.get(type(node))
        if rule is not None:
            guards[id(node)] = (node, rule(node))
    return reads, guards


class _TraceEvaluator:
    """The progression core, shared by the checks and the monitor.

    ``progress(residual, m, k)`` makes configuration ``k`` the current step
    ``m`` and advances ``residual`` over it; ``close(residual, mode)`` ends a
    residual at the last step read.  An assertion under an assignment
    starts as ``_Deferred(gamma, asg)``.  ``remember_steps`` keeps each
    configuration's index of active components, and the state verdicts
    reached at it, for later visits.

    ``tables`` holds what the evaluation looks up about the nodes it meets:
    by the id of a ``State`` formula, its ``_reads``, and by the id of a
    data quantifier, rigid or not, the quantifier and its guard.  Entries
    hold their node, so its id is not reused.  The tables fill as nodes are
    met; ``_node_tables`` fills them in advance for one assertion.
    """

    def __init__(
        self,
        alg: Algebra,
        J: SpecInterpretation,
        remember_steps: bool = True,
        tables: Optional[tuple[dict, dict]] = None,
    ):
        self._reads, guards = ({}, {}) if tables is None else tables
        self.state = _StateEvaluator(alg, J, remember_steps, guards)
        self.m: Optional[int] = None
        self._bound: dict = {}
        # state verdicts by (formula, step, values of its free variables)
        self._verdicts: Optional[dict] = {} if remember_steps else None

    def progress(self, residual, m: int, k: ArchConfiguration):
        self.m = m
        self.state.at(k)
        return residual.progress(self)

    def close(self, residual, mode: str) -> Verdict:
        return residual.close(self, mode)

    def run(self, gamma: TraceAssertion, asg: dict, steps, n: int, mode: str) -> Verdict:
        """Verdict of ``gamma`` at step ``n``: progress until decided, then
        close at the end of the trace.  A step whose configuration is known
        to leave the residual unchanged is skipped."""
        residual = _Deferred(gamma, asg)
        unchanged_by: set = set()  # ids of configurations, for this residual
        for m in range(n, len(steps)):
            k = steps[m]
            if id(k) in unchanged_by:
                continue
            after = self.progress(residual, m, k)
            if type(after) is Verdict:
                return after
            if after == residual:
                unchanged_by.add(id(k))
            else:
                unchanged_by = set()
            residual = after
        self.m = len(steps) - 1
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
        memo = self._verdicts
        if memo is None:
            return self._state_verdict(asg, phi)
        reads = self._reads.get(id(phi))
        if reads is None:
            reads = self._reads[id(phi)] = _reads(phi)
        _, data, comps = reads
        if data is None:
            return self._state_verdict(asg, phi)
        key = (
            id(phi),
            id(self.state.k),
            tuple(map(asg.get, data)),
            tuple(map(asg[_COMPS].get, comps)),
        )
        verdict = memo.get(key)
        if verdict is None:
            verdict = memo[key] = self._state_verdict(asg, phi)
        return verdict

    def _state_verdict(self, asg: dict, phi: Assertion) -> Verdict:
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
# Model-level checking


def _sliced(gamma, free_data: Mapping[str, Sort]) -> Optional[TraceAssertion]:
    """``G(_Slices(pattern, source, State(left) -> beta))`` for a
    trigger-shaped ``G(State(left) -> beta)``, one whose ``left`` begins
    with a guard whose pattern is its free data variables (see the module
    docstring), or None for any other shape.  A membership guard is
    dropped from ``left``."""
    if type(gamma) is not Globally or type(gamma.body) is not TraceImplies:
        return None
    left = gamma.body.left
    if type(left) is not State:
        return None
    guard = find_guard(left.formula, free_data)
    if guard is None or set(guard.names) != free_data.keys():
        return None
    sorts = [free_data[name] for name in guard.names]
    sort = sorts[0] if len(sorts) == 1 else PairSort(*sorts)
    body = gamma.body
    if not guard.single:
        rest = left.formula.items[1:] if type(left.formula) is And else ()
        body = TraceImplies(State(And(rest)), body.right) if rest else body.right
    return Globally(_Slices(guard.names, guard.source, body, sort))


class AssertionPlan:
    """What checking a trace assertion needs before it reads a trace: its
    free rigid variables with their sorts and interfaces, in product order;
    ``closed``, its universal closure over them (see the module docstring);
    and the ``_node_tables`` of ``closed``.

    Make one per assertion and its declarations and pass it to every
    ``check_trace_assertion`` or ``Monitor`` of that assertion, as
    ``run_check`` does for the assertions of a bundle.  Raises SortError
    when a free variable is used at two sorts or interfaces, disagrees with
    its declaration, or is a component variable with no interface.
    """

    def __init__(
        self,
        gamma: TraceAssertion,
        rigid_comp_decls: Optional[Mapping[str, str]] = None,
        rigid_data_decls: Optional[Mapping[str, Sort]] = None,
    ):
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
        self.gamma = gamma
        self.data = tuple((name, free_data[name]) for name in sorted(free_data))
        self.comps = tuple((name, comp_decls[name]) for name in sorted(free_comps))
        sliced = _sliced(gamma, free_data)
        closed = gamma if sliced is None else sliced
        for name, interface in reversed(self.comps):
            closed = RigidForallComp(name, interface, closed)
        for name, sort in reversed(self.data if sliced is None else ()):
            closed = RigidForallData(name, sort, closed)
        self.closed = closed
        self.tables = _node_tables(closed)

    @classmethod
    def of(cls, gamma, plan, rigid_comp_decls=None, rigid_data_decls=None):
        """``plan``, checked to be made for ``gamma``, or a new plan."""
        if plan is None:
            return cls(gamma, rigid_comp_decls, rigid_data_decls)
        if plan.gamma is not gamma:
            raise UsageError("the plan was made for another assertion")
        return plan

    def check_bound(self, alg: Algebra, J: SpecInterpretation, bound: int) -> None:
        """Raise CapacityError when the rigid assignments number more than
        ``bound``."""
        total = 1
        for _, sort in self.data:
            total *= len(alg.carrier(sort))
        for _, interface in self.comps:
            total *= len(J.ids_of(interface))
        if total > bound:
            raise CapacityError(
                f"rigid assignment space has {total} combinations, exceeding the"
                f" bound of {bound}",
                bound=bound,
            )


def check_trace_assertion(
    alg: Algebra,
    J: SpecInterpretation,
    trace: ConfigurationTrace,
    gamma: TraceAssertion,
    mode: str = OPEN,
    rigid_comp_decls: Optional[Mapping[str, str]] = None,
    rigid_data_decls: Optional[Mapping[str, Sort]] = None,
    max_assignments: int = DEFAULT_ASSIGNMENT_BOUND,
    plan: Optional[AssertionPlan] = None,
) -> Verdict:
    """Three-valued conjunction of trace_holds at index 0 over all rigid
    assignments of the assertion's free variables: one run of its
    universal closure (see the module docstring).

    Violated dominates, then Inconclusive, then Satisfied.  An assertion
    with no free variables is its own closure, and its verdict is that of
    ``trace_holds``, witness and explanation included.  A Violated closure
    is witnessed by the first violated assignment in product order, with
    that assignment's witness and explanation; a trigger-shaped closure
    instead by its first violated component assignment, at the earliest
    step at which a data assignment is violated, and among those by the
    first in source value order.  All instances read each step together,
    so a read error is raised at the first step where any instance meets
    it, unless the verdict is decided before that step.
    ``max_assignments`` bounds the product of the rigid variables'
    carriers and component sets before anything runs.  ``plan`` is the
    ``AssertionPlan`` of ``gamma`` and the two declarations, made once and
    reused; without it, one is made for this call.
    """
    plan = AssertionPlan.of(gamma, plan, rigid_comp_decls, rigid_data_decls)
    plan.check_bound(alg, J, max_assignments)
    _check_mode(mode)
    evaluator = _TraceEvaluator(alg, J, tables=plan.tables)
    return evaluator.run(plan.closed, {_COMPS: {}}, trace.steps, 0, mode)


class Monitor:
    """Incremental open-mode evaluation of a trace assertion: of its
    universal closure, as ``check_trace_assertion`` evaluates it.

    Feed configurations one at a time; Satisfied and Violated verdicts are
    final and later steps return them unchanged.  The monitor keeps only the
    residual of the assertion, not the steps fed so far.  ``plan`` is as
    for ``check_trace_assertion``, and the rigid assignments are bounded by
    ``DEFAULT_ASSIGNMENT_BOUND``.
    """

    def __init__(
        self,
        alg: Algebra,
        J: SpecInterpretation,
        gamma: TraceAssertion,
        plan: Optional[AssertionPlan] = None,
    ):
        plan = AssertionPlan.of(gamma, plan)
        plan.check_bound(alg, J, DEFAULT_ASSIGNMENT_BOUND)
        self._evaluator = _TraceEvaluator(
            alg, J, remember_steps=False, tables=plan.tables
        )
        self._residual = _Deferred(plan.closed, {_COMPS: {}})
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
