"""Port specifications, interfaces, and their interpretations by components.

A port is declared with the sort of the messages it carries; since port
valuations are set-valued, a port term denotes the whole message set and its
value sort is ``set(declared sort)``.  Equality between a port term and an
element-sorted term is therefore resolved to a singleton-set equation by the
front end; membership is the primitive reading.

Interface terms extend datatype terms with port symbols.  The local-port
clause of the term semantics is an extension over the published input/output
clauses; specs relying on it are flagged in the check report.
"""
from __future__ import annotations

from dataclasses import field
from typing import Mapping, Optional

from ._record import record
from .algebra import (
    Algebra,
    Assertion,
    Evaluator,
    Sort,
    Term,
    free_vars,
    nodes,
    universal_closure,
)
from .errors import (
    InterpretationError,
    SortError,
    StructuralError,
    UnknownComponentError,
)
from .model import (
    ComponentSnapshot,
    ComponentUniverse,
    ValidationReport,
    Violation,
    check_healthy,
    format_value,
    snapshot_key,
)


@record
class PortSpec:
    """Port identifiers with the sort of the messages each port carries."""

    ports: Mapping[str, Sort]

    def __post_init__(self):
        object.__setattr__(self, "ports", dict(self.ports))

    def sort_of(self, port: str) -> Sort:
        try:
            return self.ports[port]
        except KeyError:
            raise SortError(f"undeclared port identifier {port!r}") from None


@record
class Interface:
    """Disjoint local/input/output port identifier sets from a PortSpec."""

    local: frozenset[str] = frozenset()
    inputs: frozenset[str] = frozenset()
    outputs: frozenset[str] = frozenset()

    def __post_init__(self):
        if (
            self.local & self.inputs
            or self.local & self.outputs
            or self.inputs & self.outputs
        ):
            raise StructuralError("interface port roles must be pairwise disjoint")

    @property
    def ports(self) -> frozenset[str]:
        return self.local | self.inputs | self.outputs


@record
class InterfaceSpec:
    """Named interfaces plus per-interface assertion sets (component types)."""

    interfaces: Mapping[str, Interface]
    assertions: Mapping[str, tuple[Assertion, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "interfaces", dict(self.interfaces))
        normalized = {
            name: tuple(items) for name, items in dict(self.assertions).items()
        }
        object.__setattr__(self, "assertions", normalized)
        for name in normalized:
            if name not in self.interfaces:
                raise StructuralError(
                    f"assertions attached to undeclared interface {name!r}"
                )

    def interface(self, name: str) -> Interface:
        try:
            return self.interfaces[name]
        except KeyError:
            raise UnknownComponentError(f"undeclared interface {name!r}") from None

    def input_ports(self) -> frozenset[tuple[str, str]]:
        return frozenset(
            (name, p) for name, iface in self.interfaces.items() for p in iface.inputs
        )

    def output_ports(self) -> frozenset[tuple[str, str]]:
        return frozenset(
            (name, p) for name, iface in self.interfaces.items() for p in iface.outputs
        )


# ---------------------------------------------------------------------------
# Interface terms: port symbols as term leaves


@record
class PortSym(Term):
    """A port identifier used as a term; denotes the port's message set."""

    port: str
    sort: Sort  # declared element sort; the term's value sort is set(sort)


def _bijection(mapping: Mapping[str, str], domain: frozenset[str], what: str):
    mapping = dict(mapping)
    if set(mapping) != set(domain):
        raise InterpretationError(f"{what} map does not cover the snapshot ports")
    values = list(mapping.values())
    if len(set(values)) != len(values):
        raise InterpretationError(f"{what} map is not injective")
    return mapping


@record
class InterfaceInterpretation:
    """A snapshot with bijections from its concrete ports to interface ports."""

    snapshot: ComponentSnapshot
    local_map: Mapping[str, str] = field(default_factory=dict)
    input_map: Mapping[str, str] = field(default_factory=dict)
    output_map: Mapping[str, str] = field(default_factory=dict)
    # interface port id -> concrete port; of the local, input and output maps,
    # the first to hold an id wins, as in a scan of the three in that order;
    # the state evaluator of ``constraints`` reads it directly
    _concrete: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "local_map",
            _bijection(self.local_map, self.snapshot.local_ports, "local"),
        )
        object.__setattr__(
            self,
            "input_map",
            _bijection(self.input_map, self.snapshot.input_ports, "input"),
        )
        object.__setattr__(
            self,
            "output_map",
            _bijection(self.output_map, self.snapshot.output_ports, "output"),
        )
        concrete: dict[str, str] = {}
        for mapping in (self.output_map, self.input_map, self.local_map):  # last wins
            concrete.update(zip(mapping.values(), mapping.keys()))
        object.__setattr__(self, "_concrete", concrete)

    def __hash__(self):
        return hash(
            (
                self.snapshot,
                tuple(sorted(self.local_map.items())),
                tuple(sorted(self.input_map.items())),
                tuple(sorted(self.output_map.items())),
            )
        )

    def sort_key(self):
        """Total order on interpretations, the same in every process."""
        return (
            snapshot_key(self.snapshot),
            tuple(sorted(self.local_map.items())),
            tuple(sorted(self.input_map.items())),
            tuple(sorted(self.output_map.items())),
        )

    def concrete_port(self, port_id: str) -> str:
        """Inverse of the role maps: interface port id -> concrete port."""
        try:
            return self._concrete[port_id]
        except KeyError:
            raise InterpretationError(
                f"port id {port_id!r} is not interpreted by component"
                f" {self.snapshot.id!r}"
            ) from None

    def port_value(self, port_id: str) -> frozenset:
        return self.snapshot.valuation[self.concrete_port(port_id)]

    def matches(self, interface: Interface) -> bool:
        return (
            frozenset(self.local_map.values()) == interface.local
            and frozenset(self.input_map.values()) == interface.inputs
            and frozenset(self.output_map.values()) == interface.outputs
        )


def identity_interpretation(snapshot: ComponentSnapshot) -> InterfaceInterpretation:
    """Interpretation whose concrete port names equal the interface port ids."""
    return InterfaceInterpretation(
        snapshot=snapshot,
        local_map={p: p for p in snapshot.local_ports},
        input_map={p: p for p in snapshot.input_ports},
        output_map={p: p for p in snapshot.output_ports},
    )


@record
class SpecInterpretation:
    """Per interface identifier, the set of interpreting components.

    Two indexes are made with it: ``ids_by_interface``, the sorted component
    ids of each interface, and ``by_snapshot``, the interpretation of each
    snapshot (of a snapshot interpreted twice, one of them).
    """

    by_interface: Mapping[str, frozenset[InterfaceInterpretation]]
    ids_by_interface: dict = field(init=False, compare=False, repr=False)
    by_snapshot: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        normalized = {
            name: frozenset(items)
            for name, items in dict(self.by_interface).items()
        }
        object.__setattr__(self, "by_interface", normalized)
        object.__setattr__(self, "ids_by_interface", {
            name: tuple(sorted({i.snapshot.id for i in interps}))
            for name, interps in normalized.items()
        })
        object.__setattr__(self, "by_snapshot", {
            i.snapshot: i for interps in normalized.values() for i in interps
        })

    def ids_of(self, interface_id: str) -> tuple[str, ...]:
        try:
            return self.ids_by_interface[interface_id]
        except KeyError:
            raise UnknownComponentError(
                f"undeclared interface {interface_id!r}"
            ) from None

    def universe(self) -> ComponentUniverse:
        return ComponentUniverse(self.by_snapshot.keys())


# ---------------------------------------------------------------------------
# Typing and evaluation


def check_port_typing(
    interp: InterfaceInterpretation, pspec: PortSpec, alg: Algebra
) -> ValidationReport:
    """Every port's valuation must be a subset of its declared sort's carrier."""
    violations = []
    for mapping in (interp.local_map, interp.input_map, interp.output_map):
        for concrete, pid in sorted(mapping.items()):
            sort = pspec.sort_of(pid)
            for message in alg.ordered(interp.snapshot.valuation[concrete]):
                if not alg.contains(message, sort):
                    violations.append(
                        Violation(
                            "port-typing",
                            f"{interp.snapshot.id}.{concrete}",
                            f"message {format_value(message)} is not of sort {sort}",
                        )
                    )
    return ValidationReport(violations)


class _InterfaceEvaluator(Evaluator):
    """Interface assertions: port symbols read the snapshot valuation through
    the role bijections (local ports via the extension clause)."""

    FRAGMENT = "interface assertions"
    TERMS = {
        **Evaluator.TERMS,
        PortSym: lambda _, term: lambda ev, asg: ev.interp.port_value(term.port),
    }

    def __init__(
        self, alg: Algebra, interp: InterfaceInterpretation, closures: Optional[dict] = None
    ):
        super().__init__(alg, closures)
        self.interp = interp


def uses_local_port(assertion: Assertion, interface: Interface) -> bool:
    """Whether the assertion reads a local port (published semantics covers
    only input/output port symbols; local reads use our extension clause)."""
    return any(
        isinstance(node, PortSym) and node.port in interface.local
        for node in nodes(assertion)
    )


def check_spec_interpretation(
    J: SpecInterpretation,
    spec: InterfaceSpec,
    pspec: PortSpec,
    alg: Algebra,
) -> ValidationReport:
    """Id-disjointness, union healthiness, typing, and the assertion sets.

    Each interpretation must model its interface's assertions under every
    data assignment: the universal closure of each must hold, its
    quantifiers ranging over the finite carriers or over what a guard can
    meet (see the ``algebra`` module docstring).  Interpretations are
    checked in id order; only when that finds a violation are their results
    put in the order of ``sort_key`` (and only on an error are they checked
    again in it), so the full keys are built only for a report they order.
    """
    violations = []
    notes = []
    closures: dict = {}  # the compiled axioms, shared by every interpretation
    owners: dict[str, str] = {}
    for name in sorted(J.by_interface):
        if name not in spec.interfaces:
            violations.append(
                Violation("unknown-interface", name, "no such interface declared")
            )
            continue
        for interp in sorted(J.by_interface[name], key=lambda it: it.snapshot.id):
            cid = interp.snapshot.id
            prior = owners.get(cid)
            if prior is not None and prior != name:
                violations.append(
                    Violation(
                        "interface-overlap",
                        cid,
                        f"interpreted under both {prior!r} and {name!r}",
                    )
                )
            owners.setdefault(cid, name)
    health = check_healthy(J.universe())
    violations.extend(health.violations)
    for name in sorted(J.by_interface):
        interface = spec.interfaces.get(name)
        if interface is None:
            continue
        assertions = spec.assertions.get(name, ())
        interps = sorted(J.by_interface[name], key=lambda it: it.snapshot.id)
        try:
            checked, note = _check_interpretations(
                name, interface, assertions, interps, pspec, alg, closures
            )
        except Exception:  # noqa: BLE001 - raised again in the canonical order
            interps.sort(key=InterfaceInterpretation.sort_key)
            checked, note = _check_interpretations(
                name, interface, assertions, interps, pspec, alg, closures
            )
        if any(found for _, found in checked):
            checked.sort(key=lambda item: item[0].sort_key())
        for _, found in checked:
            violations.extend(found)
        notes.extend(note)
    return ValidationReport(violations, notes)


def _check_interpretations(name, interface, assertions, interps, pspec, alg, closures):
    """Each of one interface's interpretations with its violations, in the
    order given, and the local-port note; the axioms are compiled into
    ``closures``, shared by every interpretation.  The note names only the
    interface and the first assertion that reads a local port, so it does
    not depend on the order."""
    checked = []
    notes = []
    closed = None  # the universal closure of each assertion
    for interp in interps:
        violations = []
        checked.append((interp, violations))
        if not interp.matches(interface):
            violations.append(
                Violation(
                    "interface-shape",
                    interp.snapshot.id,
                    f"port maps do not target the ports of interface {name!r}",
                )
            )
            continue
        typing = check_port_typing(interp, pspec, alg)
        violations.extend(typing.violations)
        evaluator = _InterfaceEvaluator(alg, interp, closures)
        if closed is None:  # built once, and only if an interpretation reads them
            closed = [universal_closure(a, free_vars(a)[0]) for a in assertions]
        for idx, (assertion, closure) in enumerate(zip(assertions, closed)):
            if not notes and uses_local_port(assertion, interface):
                notes.append(
                    f"extension: local-port term (interface {name}, assertion {idx + 1})"
                )
            if not evaluator.holds({}, closure):
                violations.append(
                    Violation(
                        "interface-assertion",
                        interp.snapshot.id,
                        f"violates assertion {idx + 1} of interface {name!r}",
                    )
                )
    return checked, notes
