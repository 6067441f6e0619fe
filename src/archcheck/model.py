"""Semantic universe for dynamic architectures.

Components are snapshots: an identifier, disjoint local/input/output port
sets, and a set-valued message assignment per port.  A healthy universe is a
set of snapshots in which the identifier determines the interface and the
local-port values.  An architecture configuration activates a subset of the
universe and connects input ports to sets of output ports; a configuration
trace is a nonempty finite sequence of configurations over one universe.

Everything here is immutable and all operations are pure.
"""
from __future__ import annotations

from dataclasses import field
from typing import Iterable, Mapping, Optional

from ._record import record
from .errors import (
    StructuralError,
)

# Message atoms are nonempty strings; composite carrier elements are tuples
# (pairs) and frozensets (finite sets) over them.
Value = object

PortRef = tuple[str, str]  # (component id, port name)


def freeze_value(value) -> Value:
    """Normalize nested lists/sets/tuples into the canonical immutable form."""
    if isinstance(value, str):
        if not value:
            raise StructuralError("message names must be nonempty strings")
        return value
    if isinstance(value, tuple):
        return tuple(freeze_value(v) for v in value)
    if isinstance(value, (frozenset, set)):
        return frozenset(freeze_value(v) for v in value)
    raise StructuralError(f"unsupported message value: {value!r}")


def _is_frozen(value) -> bool:
    """Whether ``freeze_value`` would return an equal value of the same
    types: nonempty ``str`` atoms inside plain tuples and frozensets.  The
    walk builds nothing."""
    stack = [value]
    while stack:
        value = stack.pop()
        cls = type(value)
        if cls is str:
            if not value:
                return False
        elif cls is tuple or cls is frozenset:
            stack.extend(value)
        else:
            return False
    return True


def value_key(value: Value):
    """Total order on values, used for deterministic rendering."""
    if isinstance(value, str):
        return (0, value)
    if isinstance(value, tuple):
        return (1, tuple(value_key(v) for v in value))
    return (2, tuple(sorted(value_key(v) for v in value)))


def format_value(value: Value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return "(" + ", ".join(format_value(v) for v in value) + ")"
    items = sorted(value, key=value_key)
    return "{" + ", ".join(format_value(v) for v in items) + "}"


def snapshot_key(snap: "ComponentSnapshot"):
    """Total order on snapshots, the same in every process (unlike their
    hashes, which follow string hashing)."""
    return (
        snap.id,
        tuple(sorted(snap.local_ports)),
        tuple(sorted(snap.input_ports)),
        tuple(sorted(snap.output_ports)),
        tuple((port, value_key(v)) for port, v in snap.valuation.items()),
    )


def sorted_snapshots(snapshots: Iterable["ComponentSnapshot"]) -> list:
    """``snapshots`` in the order of ``snapshot_key``.  The whole key is
    built only when an id repeats."""
    ordered = sorted(snapshots, key=lambda c: c.id)
    if len({c.id for c in ordered}) < len(ordered):
        ordered.sort(key=snapshot_key)
    return ordered


class _FrozenMap(Mapping):
    """An immutable map whose subclass ``__init__`` sets its two slots.

    ``_entries`` holds the items sorted by key, for iteration, equality,
    hashing and repr; ``_table`` holds them in a dict, for lookup.  Maps
    with the same items are equal, and equal to a dict with those items.
    """

    __slots__ = ("_entries", "_table")

    def __getitem__(self, key):
        return self._table[key]

    def get(self, key, default=None):
        return self._table.get(key, default)

    def __iter__(self):
        return iter(key for key, _ in self._entries)

    def __len__(self):
        return len(self._entries)

    def __hash__(self):
        return hash(self._entries)

    def __eq__(self, other):
        if isinstance(other, _FrozenMap):
            return self._entries == other._entries
        return dict(self) == other


class PortValuation(_FrozenMap):
    """Immutable map from port name to a finite set of message values.

    A port's messages that are already a frozenset of frozen values are
    kept as they are.
    """

    __slots__ = ()

    def __init__(self, entries: Mapping[str, Iterable] | Iterable = ()):
        table = {}
        for port, messages in dict(entries).items():
            if type(messages) is not frozenset or not _is_frozen(messages):
                messages = frozenset(freeze_value(m) for m in messages)
            table[port] = messages
        self._entries = tuple(sorted(table.items()))
        self._table = table

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}={format_value(v)}" for p, v in self._entries)
        return f"PortValuation({inner})"


@record
class ComponentSnapshot:
    """A component at one instant: identifier, port roles, and valuation.

    Its hash, that of its field tuple as for any record, is computed once:
    a snapshot keys the lookup of its interpretation at every port read.
    """

    id: str
    local_ports: frozenset[str]
    input_ports: frozenset[str]
    output_ports: frozenset[str]
    valuation: PortValuation
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.valuation, PortValuation):
            object.__setattr__(self, "valuation", PortValuation(self.valuation))
        if not self.id:
            raise StructuralError("component id must be nonempty")
        if (
            self.local_ports & self.input_ports
            or self.local_ports & self.output_ports
            or self.input_ports & self.output_ports
        ):
            raise StructuralError(f"{self.id}: port role sets must be pairwise disjoint")
        expected = self.local_ports | self.input_ports | self.output_ports
        actual = frozenset(self.valuation)
        if expected != actual:
            missing = sorted(expected - actual)
            extra = sorted(actual - expected)
            raise StructuralError(
                f"{self.id}: valuation domain mismatch"
                f" (missing={missing}, extra={extra})"
            )
        object.__setattr__(self, "_hash", hash(self._fields()))

    def _fields(self) -> tuple:
        return (self.id, self.local_ports, self.input_ports, self.output_ports, self.valuation)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # made again on loading, so the hash follows that process's str hashes
        return ComponentSnapshot, self._fields()

    @property
    def ports(self) -> frozenset[str]:
        return self.local_ports | self.input_ports | self.output_ports


def make_snapshot(cid: str, local=None, inputs=None, outputs=None) -> ComponentSnapshot:
    """Build a snapshot from per-role ``{port: values}`` mappings."""
    local = dict(local or {})
    inputs = dict(inputs or {})
    outputs = dict(outputs or {})
    valuation = {}
    valuation.update(local)
    valuation.update(inputs)
    valuation.update(outputs)
    return ComponentSnapshot(
        id=cid,
        local_ports=local.keys(),
        input_ports=inputs.keys(),
        output_ports=outputs.keys(),
        valuation=PortValuation(valuation),
    )


@record
class ComponentUniverse:
    """A set of component snapshots; healthiness is checked, not assumed."""

    snapshots: frozenset[ComponentSnapshot]


@record
class Violation:
    """One well-formedness failure; violations are data, not faults."""

    code: str
    subject: str
    message: str
    index: Optional[int] = None

    def render(self) -> str:
        where = f" [step {self.index}]" if self.index is not None else ""
        return f"{self.code}: {self.subject}: {self.message}{where}"


@record
class ValidationReport:
    violations: tuple[Violation, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def at_index(self, index: int) -> "ValidationReport":
        tagged = tuple(
            Violation(v.code, v.subject, v.message, index) for v in self.violations
        )
        return ValidationReport(tagged, self.notes)

    def merge(self, other: "ValidationReport") -> "ValidationReport":
        return ValidationReport(
            self.violations + other.violations, self.notes + other.notes
        )

    def render(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(v.render() for v in self.violations)


def check_healthy(universe: ComponentUniverse) -> ValidationReport:
    """Identifier determines the interface and the local-port values.

    The snapshots are checked in id order, and checked again in the order of
    ``snapshot_key`` only when that finds a violation: without one, every
    snapshot of an id agrees with every other, whatever the order."""
    snapshots = sorted(universe.snapshots, key=lambda c: c.id)
    violations = _health_violations(snapshots)
    if violations:
        violations = _health_violations(sorted(snapshots, key=snapshot_key))
    return ValidationReport(violations)


def _health_violations(snapshots: list) -> list:
    violations = []
    by_id: dict[str, ComponentSnapshot] = {}
    for snap in snapshots:
        seen = by_id.get(snap.id)
        if seen is None:
            by_id[snap.id] = snap
            continue
        same_interface = (
            seen.local_ports == snap.local_ports
            and seen.input_ports == snap.input_ports
            and seen.output_ports == snap.output_ports
        )
        if not same_interface:
            violations.append(
                Violation(
                    "interface-mismatch",
                    snap.id,
                    "snapshots with this id declare different port sets",
                )
            )
            continue
        for port in sorted(seen.local_ports):
            if seen.valuation[port] != snap.valuation[port]:
                violations.append(
                    Violation(
                        "local-valuation-mismatch",
                        snap.id,
                        f"local port {port} valued both "
                        f"{format_value(seen.valuation[port])} and "
                        f"{format_value(snap.valuation[port])}",
                    )
                )
    return violations


class ConnectionMap(_FrozenMap):
    """Immutable map from input port refs to sets of output port refs.

    Entries with an empty target set are dropped, so the domain contains
    exactly the connected inputs, and ``get`` of another port gives the
    empty set.
    """

    __slots__ = ()

    def __init__(self, entries: Mapping[PortRef, Iterable[PortRef]] | Iterable = ()):
        table = {}
        for src, targets in dict(entries).items():
            src = (str(src[0]), str(src[1]))
            frozen = frozenset((str(c), str(p)) for c, p in targets)
            if frozen:
                table[src] = frozen
        self._entries = tuple(sorted(table.items()))
        self._table = table

    def get(self, ref, default=frozenset()):
        return self._table.get(ref, default)

    def __repr__(self):
        inner = "; ".join(
            f"{c}.{p} <- " + ", ".join(f"{d}.{q}" for d, q in sorted(ts))
            for (c, p), ts in self._entries
        )
        return f"ConnectionMap({inner})"


@record
class ArchConfiguration:
    """Active snapshots plus a connection map over their ports; ``by_id``
    maps each active snapshot's id to it (to one of two that share an id)."""

    active: frozenset[ComponentSnapshot]
    connection: ConnectionMap = field(default_factory=ConnectionMap)
    by_id: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.connection, ConnectionMap):
            object.__setattr__(self, "connection", ConnectionMap(self.connection))
        object.__setattr__(self, "by_id", {snap.id: snap for snap in self.active})


def check_configuration(
    universe: ComponentUniverse, k: ArchConfiguration
) -> ValidationReport:
    """Membership, per-id determinism, connection typing, and consistency.

    Consistency is enforced on connected input ports only: the valuation of a
    connected input must equal the union of the connected outputs' values.
    Open inputs are environment inputs and stay unconstrained.
    """
    violations = []
    active = sorted_snapshots(k.active)
    for snap in active:
        if snap not in universe.snapshots:
            violations.append(
                Violation("not-in-universe", snap.id, "active snapshot not declared")
            )
    by_id: dict[str, ComponentSnapshot] = {}
    for snap in active:
        seen = by_id.get(snap.id)
        if seen is None:
            by_id[snap.id] = snap
        elif seen != snap:
            violations.append(
                Violation(
                    "ambiguous-valuation",
                    snap.id,
                    "two active snapshots with this id differ",
                )
            )
    active_inputs = {(c.id, p) for c in k.active for p in c.input_ports}
    active_outputs = {(c.id, p) for c in k.active for p in c.output_ports}
    for src in k.connection:
        targets = k.connection[src]
        if src not in active_inputs:
            violations.append(
                Violation(
                    "connection-typing",
                    f"{src[0]}.{src[1]}",
                    "connection source is not an active input port",
                )
            )
        for tgt in sorted(targets):
            if tgt not in active_outputs:
                violations.append(
                    Violation(
                        "connection-typing",
                        f"{src[0]}.{src[1]}",
                        f"target {tgt[0]}.{tgt[1]} is not an active output port",
                    )
                )
    # Consistency over connected inputs; skip entries already flagged above.
    for src in k.connection:
        targets = k.connection[src]
        if src not in active_inputs or not targets <= active_outputs:
            continue
        expected = frozenset().union(
            *(by_id[c].valuation[p] for c, p in targets)
        )
        got = by_id[src[0]].valuation[src[1]]
        if got != expected:
            violations.append(
                Violation(
                    "valuation-consistency",
                    f"{src[0]}.{src[1]}",
                    f"input valued {format_value(got)} but connected outputs"
                    f" provide {format_value(expected)}",
                )
            )
    return ValidationReport(violations)


@record
class ConfigurationTrace:
    """Nonempty finite sequence of configurations over one universe.

    Equal steps are interned: each is replaced by the first equal one, so
    that equal steps are the same object.
    """

    universe: ComponentUniverse
    steps: tuple[ArchConfiguration, ...]

    def __post_init__(self):
        interned: dict = {}
        object.__setattr__(
            self, "steps", tuple(interned.setdefault(k, k) for k in self.steps)
        )
        if not self.steps:
            raise StructuralError("a configuration trace must have at least one step")

    def __len__(self) -> int:
        return len(self.steps)


def check_trace(trace: ConfigurationTrace) -> ValidationReport:
    """Universe healthiness plus per-step configuration validity.

    Equal steps are one object (the trace interns them), so each distinct
    configuration is checked once and its report is tagged at every index.
    """
    report = check_healthy(trace.universe)
    checked: dict[int, ValidationReport] = {}
    for index, step in enumerate(trace.steps):
        step_report = checked.get(id(step))
        if step_report is None:
            step_report = checked[id(step)] = check_configuration(
                trace.universe, step
            )
        if not step_report.ok:
            report = report.merge(step_report.at_index(index))
    return report
