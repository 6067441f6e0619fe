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
feed the trace step by step until the verdict is decided and close it by
mode.  ``Monitor`` keeps only the current residual, not the prefix: each step
is one ``feed``, which reads only the new configuration and the residual.
``feed`` does not read a configuration known to leave the residual unchanged
(Havelund and Roşu, "Monitoring programs using rewriting", ASE 2001); the
monitor then returns its last verdict, and otherwise closes the new residual
in open mode.  Equal pending residuals are merged into the earliest, so
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

The checks skip the steps that cannot change a residual.
``ConfigurationTrace`` interns its steps, so equal steps are the same
object.  When a residual is a fixed point of a configuration, ``progress(r,
k) == r``, the run skips every later step that is ``k`` for as long as the
residual stays ``r``.  On a run of equal steps this is stutter invariance
(Lamport, "What Good Is Temporal Logic?", IFIP 1983; Peled and Wilke, IPL
1997).  It is exact for every formula, X included: ``progress`` reads the
step index only as the origin of the chain positions it opens, so what it
drops at one step it drops at any later one, and a pending X or chain
position never equals its successor, since ``_Deferred`` turns into its
body and chain positions carry their origin step.  The last index is the
current one at the end, so the witnesses that name it stay exact.
``Monitor`` skips by the same rule.  A state formula is evaluated afresh
at every step that reads it: compiled, it costs less than looking up a
verdict kept under the formula, the step and the values it reads.

What does not depend on the trace is found once per assertion: an
``AssertionPlan`` holds the free rigid variables with their sorts and
interfaces, the closure, the guard of each rigid data quantifier, and the
state formulas compiled to closures (see ``algebra``), each quantifier's
guard found as it is compiled.  ``check_trace_assertion`` and ``Monitor``
make one unless they are given one; ``checker.run_check`` keeps one per
assertion on the bundle it checks.  What depends on the trace but not on
the assertion is indexed by the objects of the model when they are made:
each ``ArchConfiguration`` keeps its active snapshots by id, and the
interpretation set ``J`` the sorted component ids of each interface and
the interpretation of each snapshot.  An evaluation builds no index of
its own.
"""
from __future__ import annotations

import enum
from typing import Callable, Iterable, Mapping, Optional

from ._record import record
from .algebra import (  # And, Implies, Not, Or and free_vars are re-exported
    Algebra,
    And,
    Assertion,
    BoundedExists,
    BoundedForall,
    Compiler,
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
# configurations a Monitor interns before it starts its table afresh
_INTERNED_CONFIGURATIONS = 1024


# ---------------------------------------------------------------------------
# Configuration-assertion AST extensions


@record
class PortRead(Term):
    """``v.p``: the current valuation of port ``p`` of the component bound to
    component variable ``v``; value sort is set(sort)."""

    COMP_FIELDS = (("var", "interface"),)

    var: str
    interface: str
    port: str
    sort: Sort  # declared element sort of the port


@record
class CompEquals(Assertion):
    COMP_FIELDS = (("left", None), ("right", None))

    left: str
    right: str


@record
class Active(Assertion):
    COMP_FIELDS = (("var", None),)

    var: str


@record
class Conn(Assertion):
    """Port ``in_port`` of ``in_var`` is connected to ``out_port`` of ``out_var``."""

    COMP_FIELDS = (("in_var", "in_interface"), ("out_var", "out_interface"))

    in_var: str
    in_interface: str
    in_port: str
    out_var: str
    out_interface: str
    out_port: str


@record
class IRConn(Assertion):
    """Every active component of one interface is connected to every active
    component of another (the activation-guarded universal form)."""

    in_interface: str
    in_port: str
    out_interface: str
    out_port: str


@record
class Min(Assertion):
    interface: str
    count: int


@record
class Max(Assertion):
    interface: str
    count: int


@record
class MinMax(Assertion):
    interface: str
    low: int
    high: int


@record
class ForallComp(Assertion):
    SHAPE = ("forall", "interface")

    var: str
    interface: str
    body: Assertion


@record
class ExistsComp(Assertion):
    SHAPE = ("exists", "interface")

    var: str
    interface: str
    body: Assertion


# ---------------------------------------------------------------------------
# Trace-assertion AST


class TraceAssertion(Node):
    __slots__ = ()


@record
class State(TraceAssertion):
    """An embedded configuration assertion, evaluated at the current step."""

    formula: Assertion


@record
class TraceNot(TraceAssertion):
    operand: TraceAssertion


@record
class TraceAnd(TraceAssertion):
    items: tuple[TraceAssertion, ...]


@record
class TraceOr(TraceAssertion):
    items: tuple[TraceAssertion, ...]


@record
class TraceImplies(TraceAssertion):
    left: TraceAssertion
    right: TraceAssertion


@record
class TraceIff(TraceAssertion):
    left: TraceAssertion
    right: TraceAssertion


@record
class Next(TraceAssertion):
    body: TraceAssertion


@record
class Eventually(TraceAssertion):
    body: TraceAssertion


@record
class Globally(TraceAssertion):
    body: TraceAssertion


@record
class Until(TraceAssertion):
    left: TraceAssertion
    right: TraceAssertion


@record
class WeakUntil(TraceAssertion):
    left: TraceAssertion
    right: TraceAssertion


@record
class RigidForallData(TraceAssertion):
    SHAPE = ("forall", "sort")

    var: str
    sort: Sort
    body: TraceAssertion


@record
class RigidExistsData(TraceAssertion):
    SHAPE = ("exists", "sort")

    var: str
    sort: Sort
    body: TraceAssertion


@record
class RigidForallComp(TraceAssertion):
    SHAPE = ("forall", "interface")

    var: str
    interface: str
    body: TraceAssertion


@record
class RigidExistsComp(TraceAssertion):
    SHAPE = ("exists", "interface")

    var: str
    interface: str
    body: TraceAssertion


@record
class BoundedRigidForall(TraceAssertion):
    """Rigid binding over the elements of a set-valued term evaluated at the
    current step (undefined reads yield the empty set)."""

    SHAPE = ("forall", "set")

    vars: tuple[str, ...]
    source: Term
    body: TraceAssertion


@record
class BoundedRigidExists(TraceAssertion):
    SHAPE = ("exists", "set")

    vars: tuple[str, ...]
    source: Term
    body: TraceAssertion


@record
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


@record
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

# Key of the component assignment inside the assignment the closures read;
# not a string, so it never clashes with a data variable.
_COMPS = object()


def _comp(asg, var: str) -> str:
    try:
        return asg[_COMPS][var]
    except KeyError:
        raise AssignmentError(f"unbound component variable {var!r}") from None


def _port_read(ev, term: PortRead):
    var, port = term.var, term.port

    def read(ev, asg) -> frozenset:
        cid = _comp(asg, var)
        if cid not in ev.active:
            raise _UndefinedRead(f"undefined read: {var}.{port} ({cid} inactive)")
        return ev.interpretation(cid).port_value(port)

    return read


def _defined(rule):
    """An atom's compile rule under which an undefined read makes the atom
    false."""

    def compile_atom(ev, phi):
        evaluate = rule(ev, phi)

        def atom(ev, asg):
            try:
                return evaluate(ev, asg)
            except _UndefinedRead as undef:
                ev.notes[undef.description] = None
                return False

        return atom

    return compile_atom


def _active(ev, phi: Active):
    var = phi.var

    def active(ev, asg):
        try:
            return asg[_COMPS][var] in ev.active
        except KeyError:
            return _comp(asg, var)  # raises AssignmentError

    return active


def _conn(ev, phi: Conn):
    in_var, in_port, out_var, out_port = phi.in_var, phi.in_port, phi.out_var, phi.out_port

    def conn(ev, asg):
        try:
            comps = asg[_COMPS]
            in_id, out_id = comps[in_var], comps[out_var]
        except KeyError:
            in_id, out_id = _comp(asg, in_var), _comp(asg, out_var)  # one raises
        return ev.connected(in_id, in_port, out_id, out_port)

    return conn


def _irconn(ev, asg, phi: IRConn) -> bool:
    for ci in ev.interface_ids(phi.in_interface):
        if ci not in ev.active:
            continue
        for co in ev.interface_ids(phi.out_interface):
            if co in ev.active and not ev.connected(ci, phi.in_port, co, phi.out_port):
                return False
    return True


def _comp_quantifier(forall: bool):
    """The compile rule of ``ForallComp`` or ``ExistsComp``, as ``algebra``
    compiles data quantifiers, over the component ids of the interface."""

    def rule(ev, phi):
        var, interface, body = phi.var, phi.interface, ev.assertion_fn(phi.body)

        def quantifier(ev, asg):
            inner = dict(asg)
            bound = inner[_COMPS] = dict(asg[_COMPS])
            for cid in ev.interface_ids(interface):
                bound[var] = cid
                if (not body(ev, inner)) is forall:  # as in algebra._decide
                    return not forall
            return forall

        return quantifier

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
    """Evaluates configuration assertions over the interpretation set ``J``.

    ``at`` makes a configuration ``k`` current, with ``active`` its index of
    active snapshots by id (``k.by_id``); an active component's
    interpretation is that of its snapshot in ``J.by_snapshot``.  ``notes``
    collects the undefined reads of the verdict under way, in order.
    """

    FRAGMENT = "configuration assertions"
    TERMS = {**Evaluator.TERMS, PortRead: _port_read}
    ASSERTIONS = {
        **Evaluator.ASSERTIONS,
        PredAtom: _defined(Evaluator.ASSERTIONS[PredAtom]),
        Equals: _defined(Evaluator.ASSERTIONS[Equals]),
        Member: _defined(Evaluator.ASSERTIONS[Member]),
        CompEquals: lambda _, phi: (
            lambda ev, asg: _comp(asg, phi.left) == _comp(asg, phi.right)
        ),
        Active: _active,
        Conn: _conn,
        IRConn: lambda _, phi: lambda ev, asg: _irconn(ev, asg, phi),
        Min: lambda _, phi: lambda ev, asg: ev.count(phi.interface) >= phi.count,
        Max: lambda _, phi: lambda ev, asg: ev.count(phi.interface) <= phi.count,
        MinMax: lambda _, phi: lambda ev, asg: phi.low <= ev.count(phi.interface) <= phi.high,
        ForallComp: _comp_quantifier(True),
        ExistsComp: _comp_quantifier(False),
    }

    def __init__(self, alg: Algebra, J: SpecInterpretation, closures: Optional[dict] = None):
        super().__init__(alg, closures)
        self.J = J
        self.notes: dict[str, None] = {}

    def interface_ids(self, interface: str) -> tuple[str, ...]:
        try:
            return self.J.ids_by_interface[interface]
        except KeyError:
            raise InterpretationError(f"undeclared interface {interface!r}") from None

    def at(self, k: ArchConfiguration) -> None:
        """Make ``k`` the current configuration."""
        self.k, self.active = k, k.by_id

    def source(self, asg, term: Term) -> frozenset:
        """Undefined reads give the empty set (matching the guarded expansion
        of the sugar)."""
        try:
            return super().source(asg, term)
        except _UndefinedRead as undef:
            self.notes[undef.description] = None
            return frozenset()

    def interpretation(self, cid: str):
        """The interpretation of an active component."""
        interp = self.J.by_snapshot.get(self.active[cid])
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
        """``_items`` of the pending items' results, read up to the first
        dominant verdict; or ``self`` when every item progressed to itself,
        as ``_items`` would make an equal residual."""
        dominant, results = self.dominant, []
        for item in self.pending:
            result = item.progress(ev)
            results.append(result)
            if type(result) is Verdict and result.truth is dominant:
                break
        if tuple(results) == self.pending:
            return self
        return _items(dominant, results, self.found)

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
        guard = ev.guards[id(gamma)][1]
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
        alg = ev.state.alg
        source = alg.ordered(ev.state.source(asg, gamma.source))
        if type(gamma) is _Slices:  # a value outside the carrier binds nothing
            source = [v for v in source if alg.contains(v, gamma.sort)]
        return _items(dominant, (
            ev.start(gamma.body, ev.bind(asg, gamma, v, bind_pattern(gamma.vars, v)))
            for v in source
        ))

    return rule


_START = {
    State: lambda ev, gamma, asg: ev._state_verdict(asg, gamma.formula),
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


def _node_tables(gamma) -> tuple[dict, dict]:
    """What evaluating ``gamma`` looks up about its nodes, all found at once
    (see ``_TraceEvaluator``): the guard of each rigid data quantifier, by
    the quantifier's id; and the closures of the state formulas and of the
    bounded rigid quantifiers' sources."""
    guards: dict = {}
    compiler = Compiler(_StateEvaluator)
    for node in nodes(gamma):
        if type(node) is State:
            compiler.assertion_fn(node.formula)
        elif type(node) in (RigidForallData, RigidExistsData):
            guards[id(node)] = (node, _instance_guard(node))
        elif isinstance(node, TraceAssertion) and node.SHAPE and node.SHAPE[1] == "set":
            compiler.term_fn(node.source)
    return guards, compiler.closures


class _TraceEvaluator:
    """The progression core, shared by the checks and the monitor.

    ``progress(residual, m, k)`` makes configuration ``k`` the current step
    ``m`` and advances ``residual`` over it; ``close(residual, mode)`` ends a
    residual at the last step read.  An assertion under an assignment
    starts as ``_Deferred(gamma, asg)``.  State formulas are evaluated in
    the algebra ``alg`` over the interpretation set ``J``.

    ``tables`` are the ``_node_tables`` of the assertion: ``guards`` holds,
    by the id of a rigid data quantifier, the quantifier and its guard; the
    other is the state evaluator's table of closures.  Entries hold their
    node, so its id is not reused.

    ``unchanged`` holds the ids of the configurations known to leave the
    current residual unchanged (see ``feed``).  Whoever feeds the evaluator
    keeps those configurations alive, so that their ids are not reused.
    """

    def __init__(self, alg: Algebra, J: SpecInterpretation, tables: tuple[dict, dict]):
        self.guards, closures = tables
        self.state = _StateEvaluator(alg, J, closures)
        self.m: Optional[int] = None
        self._bound: dict = {}
        self.unchanged: set = set()

    def progress(self, residual, m: int, k: ArchConfiguration):
        self.m = m
        self.state.at(k)
        return residual.progress(self)

    def close(self, residual, mode: str) -> Verdict:
        return residual.close(self, mode)

    def feed(self, residual, m: int, k: ArchConfiguration):
        """``residual`` advanced over configuration ``k`` at step ``m``: the
        one step function of the checks and the monitor.  Each call passes
        the residual the previous call returned, as ``unchanged`` is kept
        for it.

        When ``k`` is in ``unchanged``, ``k`` is not read and ``residual``
        itself is returned.  Otherwise ``residual`` is progressed; when the
        result equals it, ``k`` joins ``unchanged`` and ``residual`` itself
        is returned, and when it differs, ``unchanged`` starts afresh.  An
        equal residual ends alike, so returning ``residual`` is exact."""
        unchanged = self.unchanged
        if id(k) in unchanged:
            return residual
        after = self.progress(residual, m, k)
        if type(after) is Verdict:
            return after
        if after == residual:
            unchanged.add(id(k))
            return residual
        unchanged.clear()
        return after

    def run(self, gamma: TraceAssertion, asg: dict, steps, n: int, mode: str) -> Verdict:
        """Verdict of ``gamma`` at step ``n``: ``feed`` each step until a
        verdict, then close at the end of the trace in ``mode``.  ``steps``
        holds its configurations alive, and equal ones are one object when
        they come from a ``ConfigurationTrace``, so ``unchanged`` keeps ids
        without hashing a configuration."""
        residual = _Deferred(gamma, asg)
        self.unchanged.clear()
        feed = self.feed
        for m in range(n, len(steps)):
            residual = feed(residual, m, steps[m])
            if type(residual) is Verdict:
                return residual
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
    evaluator = _TraceEvaluator(alg, J, _node_tables(gamma))
    return evaluator.run(gamma, asg, trace.steps, n, mode)


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
    and the ``_node_tables`` of ``closed``: the guards of its rigid data
    quantifiers, and its state formulas compiled.

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
    evaluator = _TraceEvaluator(alg, J, plan.tables)
    return evaluator.run(plan.closed, {_COMPS: {}}, trace.steps, 0, mode)


class Monitor:
    """Incremental open-mode evaluation of a trace assertion: of its
    universal closure, as ``check_trace_assertion`` evaluates it.

    Feed configurations one at a time; Satisfied and Violated verdicts are
    final and later steps return them unchanged.  The monitor keeps only the
    residual of the assertion, not the steps fed so far.  ``plan`` is as
    for ``check_trace_assertion``, and the rigid assignments are bounded by
    ``DEFAULT_ASSIGNMENT_BOUND``.

    Each configuration is interned by equality, so that equal ones, even
    when built afresh, are one object, and is then fed to the evaluator
    (``_TraceEvaluator.feed``).  A configuration known to leave the residual
    unchanged is not read, and the step returns the last verdict: in open
    mode an unchanged residual closes to the same verdict.  The intern table
    holds at most ``_INTERNED_CONFIGURATIONS`` configurations; when it is
    full, it is cleared together with the evaluator's set of configurations
    known to leave the residual unchanged, which holds their ids.
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
        self._evaluator = _TraceEvaluator(alg, J, plan.tables)
        self._residual = _Deferred(plan.closed, {_COMPS: {}})
        self._interned: dict = {}
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
        interned = self._interned
        known = interned.get(k)
        if known is None:
            if len(interned) >= _INTERNED_CONFIGURATIONS:
                interned.clear()
                self._evaluator.unchanged.clear()
            known = interned[k] = k
        residual = self._evaluator.feed(self._residual, self._steps, known)
        self._steps += 1
        if residual is self._residual:
            return self._last
        if type(residual) is Verdict:
            verdict = residual
        else:
            verdict = self._evaluator.close(residual, OPEN)
        self._residual = residual
        self._last = verdict
        if verdict.final:
            self._final = verdict
        return verdict
