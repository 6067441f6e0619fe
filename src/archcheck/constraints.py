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

A port read on an inactive component is an undefined read: the smallest
enclosing atomic assertion evaluates to false and the fact is recorded in the
verdict explanation.
"""
from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

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
    PredAtom,
    Sort,
    Term,
    Var,
    bind_pattern,
    children,
    value_key,
)
from .errors import (
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

    ``enter`` makes a configuration ``k`` current, with ``active`` mapping
    its active component ids to their snapshots, and starts a verdict;
    ``notes`` then collects that verdict's undefined reads, in order.
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

    def __init__(self, alg: Algebra, J: SpecInterpretation):
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
        self._step_cache: dict[int, tuple] = {}

    def interface_ids(self, interface: str) -> tuple[str, ...]:
        try:
            return self._ids_by_interface[interface]
        except KeyError:
            raise InterpretationError(f"undeclared interface {interface!r}") from None

    def enter(self, k: ArchConfiguration, data_asg, comp_asg) -> dict:
        """Make ``k`` current, clear the notes, and return the assignment the
        rules read: the data variables plus the component assignment."""
        cached = self._step_cache.get(id(k))
        if cached is None or cached[0] is not k:
            active = {snap.id: snap for snap in k.active}
            cached = self._step_cache[id(k)] = (k, active, {})
        self.k, self.active, self._active_interps = cached
        self.notes = {}
        return {**data_asg, _COMPS: comp_asg}

    def state_holds(self, data_asg, comp_asg, k: ArchConfiguration, phi: Assertion) -> bool:
        return self.holds(self.enter(k, data_asg, comp_asg), phi)

    def source(self, asg, term: Term) -> frozenset:
        """Undefined reads give the empty set (matching the guarded expansion
        of the sugar)."""
        try:
            return super().source(asg, term)
        except _UndefinedRead as undef:
            self.notes[undef.description] = None
            return frozenset()

    def source_set(self, data_asg, comp_asg, k: ArchConfiguration, term: Term) -> frozenset:
        return self.source(self.enter(k, data_asg, comp_asg), term)

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
    try:
        return evaluator.term(evaluator.enter(k, data_asg, comp_asg), term)
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
    result = evaluator.state_holds(data_asg, comp_asg, k, phi)
    if notes is not None:
        notes.extend(evaluator.notes)
    return result


# ---------------------------------------------------------------------------
# Trace evaluation


class _TraceEvaluator:
    def __init__(self, alg, J, trace: ConfigurationTrace, mode: str):
        if mode not in (OPEN, CLOSED):
            raise UsageError(f"mode must be {OPEN!r} or {CLOSED!r}, got {mode!r}")
        self.trace = trace
        self.mode = mode
        self.length = len(trace.steps)
        self.state = _StateEvaluator(alg, J)

    def state_verdict(self, data_asg, comp_asg, n: int, phi: Assertion) -> Verdict:
        ok = self.state.state_holds(data_asg, comp_asg, self.trace.steps[n], phi)
        explanation = "; ".join(self.state.notes) or None
        return Verdict(Truth.SATISFIED if ok else Truth.VIOLATED, None, explanation)

    def eval(self, data_asg, comp_asg, n: int, gamma: TraceAssertion) -> Verdict:
        if n >= self.length or n < 0:
            raise UsageError(f"time index {n} outside the trace (length {self.length})")
        return self._eval(data_asg, comp_asg, n, gamma)

    def _eval(self, data_asg, comp_asg, n: int, gamma) -> Verdict:
        if isinstance(gamma, State):
            return self.state_verdict(data_asg, comp_asg, n, gamma.formula)
        if isinstance(gamma, TraceNot):
            return self._eval(data_asg, comp_asg, n, gamma.operand).negate()
        if isinstance(gamma, TraceAnd):
            return self._conjoin(
                self._eval(data_asg, comp_asg, n, item) for item in gamma.items
            )
        if isinstance(gamma, TraceOr):
            return self._conjoin(
                (self._eval(data_asg, comp_asg, n, item) for item in gamma.items),
                disjunction=True,
            )
        if isinstance(gamma, TraceImplies):
            left = self._eval(data_asg, comp_asg, n, gamma.left)
            if left.truth is Truth.VIOLATED:
                return SATISFIED
            right = self._eval(data_asg, comp_asg, n, gamma.right)
            if right.truth is Truth.SATISFIED:
                return SATISFIED
            if left.truth is Truth.INCONCLUSIVE:
                return INCONCLUSIVE
            return right  # left Satisfied: Violated or Inconclusive as computed
        if isinstance(gamma, TraceIff):
            left = self._eval(data_asg, comp_asg, n, gamma.left)
            right = self._eval(data_asg, comp_asg, n, gamma.right)
            if Truth.INCONCLUSIVE in (left.truth, right.truth):
                return INCONCLUSIVE
            if left.truth == right.truth:
                return SATISFIED
            return Verdict(Truth.VIOLATED, right.witness, right.explanation)
        if isinstance(gamma, Next):
            if n + 1 < self.length:
                return self._eval(data_asg, comp_asg, n + 1, gamma.body)
            if self.mode == CLOSED:
                return Verdict(Truth.VIOLATED, n, "next step beyond the end")
            return INCONCLUSIVE
        if isinstance(gamma, Eventually):
            for m in range(n, self.length):
                v = self._eval(data_asg, comp_asg, m, gamma.body)
                if v.truth is Truth.SATISFIED:
                    return Verdict(Truth.SATISFIED, m, v.explanation)
            if self.mode == OPEN:
                return INCONCLUSIVE
            return Verdict(Truth.VIOLATED, self.length - 1, "no witness before the end")
        if isinstance(gamma, Globally):
            for m in range(n, self.length):
                v = self._eval(data_asg, comp_asg, m, gamma.body)
                if v.truth is Truth.VIOLATED:
                    return Verdict(Truth.VIOLATED, m, v.explanation)
            if self.mode == OPEN:
                return INCONCLUSIVE
            return SATISFIED
        if isinstance(gamma, Until):
            return self._until(data_asg, comp_asg, n, gamma.left, gamma.right)
        if isinstance(gamma, WeakUntil):
            until = self._until(data_asg, comp_asg, n, gamma.left, gamma.right)
            if until.truth is Truth.SATISFIED:
                return until
            globally = self._eval(data_asg, comp_asg, n, Globally(gamma.left))
            if globally.truth is Truth.SATISFIED:
                return globally
            if Truth.INCONCLUSIVE in (until.truth, globally.truth):
                return INCONCLUSIVE
            return until
        if isinstance(gamma, RigidForallData):
            return self._conjoin(
                self._eval({**data_asg, gamma.var: v}, comp_asg, n, gamma.body)
                for v in self.state.alg.carrier(gamma.sort)
            )
        if isinstance(gamma, RigidExistsData):
            return self._conjoin(
                (
                    self._eval({**data_asg, gamma.var: v}, comp_asg, n, gamma.body)
                    for v in self.state.alg.carrier(gamma.sort)
                ),
                disjunction=True,
            )
        if isinstance(gamma, RigidForallComp):
            return self._conjoin(
                self._eval(data_asg, {**comp_asg, gamma.var: cid}, n, gamma.body)
                for cid in self.state.interface_ids(gamma.interface)
            )
        if isinstance(gamma, RigidExistsComp):
            return self._conjoin(
                (
                    self._eval(data_asg, {**comp_asg, gamma.var: cid}, n, gamma.body)
                    for cid in self.state.interface_ids(gamma.interface)
                ),
                disjunction=True,
            )
        if isinstance(gamma, BoundedRigidForall):
            source = self.state.source_set(
                data_asg, comp_asg, self.trace.steps[n], gamma.source
            )
            return self._conjoin(
                self._eval(
                    {**data_asg, **bind_pattern(gamma.vars, v)}, comp_asg, n, gamma.body
                )
                for v in sorted(source, key=value_key)
            )
        if isinstance(gamma, BoundedRigidExists):
            source = self.state.source_set(
                data_asg, comp_asg, self.trace.steps[n], gamma.source
            )
            return self._conjoin(
                (
                    self._eval(
                        {**data_asg, **bind_pattern(gamma.vars, v)},
                        comp_asg,
                        n,
                        gamma.body,
                    )
                    for v in sorted(source, key=value_key)
                ),
                disjunction=True,
            )
        if isinstance(gamma, Assertion):
            raise SortError(
                f"{type(gamma).__name__} is a configuration assertion;"
                " wrap it in State(...) to use it as a trace assertion"
            )
        raise SortError(f"{type(gamma).__name__} is not a trace assertion")

    def _until(self, data_asg, comp_asg, n, left, right) -> Verdict:
        acc = Truth.VIOLATED
        acc_detail: tuple = (None, None)
        prefix = Truth.SATISFIED
        break_step = None
        for m in range(n, self.length):
            rv = self._eval(data_asg, comp_asg, m, right)
            cand = _and3(prefix, rv.truth)
            if cand is Truth.SATISFIED:
                return Verdict(Truth.SATISFIED, m, rv.explanation)
            if cand is Truth.INCONCLUSIVE and acc is Truth.VIOLATED:
                acc = Truth.INCONCLUSIVE
                acc_detail = (m, rv.explanation)
            lv = self._eval(data_asg, comp_asg, m, left)
            prefix = _and3(prefix, lv.truth)
            if prefix is Truth.VIOLATED:
                break_step = m
                break
        if self.mode == CLOSED:
            tail = Truth.VIOLATED
        else:
            tail = _and3(prefix, Truth.INCONCLUSIVE)
        result = _or3(acc, tail)
        if result is Truth.SATISFIED:  # pragma: no cover - witnesses return above
            return SATISFIED
        if result is Truth.INCONCLUSIVE:
            return INCONCLUSIVE
        witness = break_step if break_step is not None else self.length - 1
        return Verdict(Truth.VIOLATED, witness, "until never discharged")

    def _conjoin(self, verdicts: Iterable[Verdict], disjunction: bool = False) -> Verdict:
        dominant = Truth.SATISFIED if disjunction else Truth.VIOLATED
        saw_inconclusive = False
        for v in verdicts:
            if v.truth is dominant:
                return v
            if v.truth is Truth.INCONCLUSIVE:
                saw_inconclusive = True
        if saw_inconclusive:
            return INCONCLUSIVE
        return VIOLATED if disjunction else SATISFIED


def _and3(a: Truth, b: Truth) -> Truth:
    if Truth.VIOLATED in (a, b):
        return Truth.VIOLATED
    if Truth.INCONCLUSIVE in (a, b):
        return Truth.INCONCLUSIVE
    return Truth.SATISFIED


def _or3(a: Truth, b: Truth) -> Truth:
    if Truth.SATISFIED in (a, b):
        return Truth.SATISFIED
    if Truth.INCONCLUSIVE in (a, b):
        return Truth.INCONCLUSIVE
    return Truth.VIOLATED


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
    evaluator = _TraceEvaluator(alg, J, trace, mode)
    return evaluator.eval(dict(rigid_data), dict(rigid_comp), n, gamma)


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

    evaluator = _TraceEvaluator(alg, J, trace, mode)
    saw_inconclusive = False
    inconclusive_detail = None
    for data_combo in itertools.product(*data_domains):
        data_asg = dict(zip(data_names, data_combo))
        for comp_combo in itertools.product(*comp_domains):
            comp_asg = dict(zip(comp_names, comp_combo))
            verdict = evaluator.eval(data_asg, comp_asg, 0, gamma)
            if verdict.truth is Truth.VIOLATED:
                return verdict
            if verdict.truth is Truth.INCONCLUSIVE:
                saw_inconclusive = True
                inconclusive_detail = verdict
    if saw_inconclusive:
        return inconclusive_detail or INCONCLUSIVE
    return SATISFIED


class Monitor:
    """Incremental open-mode evaluation of a rigid-closed trace assertion.

    Feed configurations one at a time; Satisfied and Violated verdicts are
    final and later steps return them unchanged.
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
        self._alg = alg
        self._J = J
        self._gamma = gamma
        self._universe = universe or J.universe()
        self._steps: list[ArchConfiguration] = []
        self._final: Optional[Verdict] = None

    @property
    def verdict(self) -> Verdict:
        if not self._steps:
            raise UsageError("the monitor needs at least one step before a verdict")
        return self._last

    def step(self, k: ArchConfiguration) -> Verdict:
        if self._final is not None:
            return self._final
        self._steps.append(k)
        trace = ConfigurationTrace(self._universe, tuple(self._steps))
        verdict = trace_holds(self._alg, self._J, {}, {}, trace, 0, self._gamma, OPEN)
        self._last = verdict
        if verdict.final:
            self._final = verdict
        return verdict
