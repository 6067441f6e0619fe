"""Configuration diagrams: interface declarations plus activation and
connection annotations, each desugared to a trace assertion.

Desugaring order is deterministic: min-max, then rigid, then required
connections.  The required-connection annotation constrains the complement
(``rest``) of the declared relation over all interface input/output ports of
the whole specification, so an annotated diagram forbids every undeclared
cross-connection - this is by definition and tends to surprise users.
"""
from __future__ import annotations

from dataclasses import field
from typing import Mapping, Optional

from ._record import record
from .algebra import BoolLit
from .constraints import (
    Active,
    And,
    CompEquals,
    Conn,
    ForallComp,
    Globally,
    IRConn,
    Implies,
    Max,
    Min,
    MinMax,
    Not,
    Or,
    State,
    TraceAssertion,
)
from .errors import StructuralError
from .interfaces import InterfaceSpec

PortPair = tuple[tuple[str, str], tuple[str, str]]  # ((iface, in), (iface, out))


@record
class MinMaxAnnotation:
    """Partial lower/upper bounds on the number of active components."""

    min: Mapping[str, int] = field(default_factory=dict)
    max: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "min", dict(self.min))
        object.__setattr__(self, "max", dict(self.max))
        for name, low in self.min.items():
            high = self.max.get(name)
            if high is not None and low > high:
                raise StructuralError(
                    f"min-max annotation for {name!r} has min {low} > max {high}"
                )

    @property
    def empty(self) -> bool:
        return not self.min and not self.max


@record
class RigidAnnotation:
    """Per interface, the rigid component variables allowed to be active."""

    vars: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        object.__setattr__(
            self, "vars", {k: tuple(v) for k, v in dict(self.vars).items()}
        )


@record
class RequiredConnAnnotation:
    """Relation between interface input ports and interface output ports."""

    pairs: frozenset[PortPair]


@record
class ConfigurationDiagram:
    """A structured diagram: an interface-spec fragment plus annotations."""

    name: str
    spec: InterfaceSpec
    minmax: Optional[MinMaxAnnotation] = None
    rigid: Optional[RigidAnnotation] = None
    required_conn: Optional[RequiredConnAnnotation] = None

    def __post_init__(self):
        if self.minmax is not None:
            for name in [*self.minmax.min, *self.minmax.max]:
                if name not in self.spec.interfaces:
                    raise StructuralError(
                        f"min-max annotation references undeclared interface {name!r}"
                    )
        if self.rigid is not None:
            for name in self.rigid.vars:
                if name not in self.spec.interfaces:
                    raise StructuralError(
                        f"rigid annotation references undeclared interface {name!r}"
                    )
        if self.required_conn is not None:
            inputs = self.spec.input_ports()
            outputs = self.spec.output_ports()
            for pair in self.required_conn.pairs:
                if pair[0] not in inputs or pair[1] not in outputs:
                    raise StructuralError(
                        f"required connection {pair} does not match declared ports"
                    )


def _globally_all(conjuncts: list) -> TraceAssertion:
    """G of the conjunction of ``conjuncts``: of the one conjunct alone, and
    G(true) when there is none."""
    if not conjuncts:
        formula = BoolLit(True)
    elif len(conjuncts) == 1:
        formula = conjuncts[0]
    else:
        formula = And(conjuncts)
    return Globally(State(formula))


def desugar_minmax(ann: MinMaxAnnotation) -> TraceAssertion:
    """G of the min/max cardinality constraints; empty annotation gives G(true).

    Equal bounds use the minmax form (single-number shorthand); otherwise
    each defined bound contributes its own conjunct.
    """
    conjuncts = []
    for name in sorted(set(ann.min) | set(ann.max)):
        low = ann.min.get(name)
        high = ann.max.get(name)
        if low is not None and high is not None and low == high:
            conjuncts.append(MinMax(name, low, high))
        else:
            if low is not None:
                conjuncts.append(Min(name, low))
            if high is not None:
                conjuncts.append(Max(name, high))
    return _globally_all(conjuncts)


def desugar_rigid(ann: RigidAnnotation) -> TraceAssertion:
    """G of: every interpreted component of each annotated interface equals
    one of the annotation's rigid variables.

    An annotated interface with no variables would force zero interpreted
    components; it is rejected instead of silently desugared.
    """
    conjuncts = []
    for name in sorted(ann.vars):
        variables = ann.vars[name]
        if not variables:
            raise StructuralError(
                f"rigid annotation for {name!r} names no variables; the"
                " desugaring would forbid every component of that interface"
            )
        fresh = _fresh_var(set(variables))
        disjuncts = tuple(CompEquals(fresh, c) for c in variables)
        body = disjuncts[0] if len(disjuncts) == 1 else Or(disjuncts)
        conjuncts.append(ForallComp(fresh, name, body))
    return _globally_all(conjuncts)


def _fresh_var(taken: set) -> str:
    name = "v"
    while name in taken:
        name += "'"
    return name


def rest_pairs(ann: RequiredConnAnnotation, spec: InterfaceSpec) -> frozenset[PortPair]:
    """Complement of the annotation over all interface input x output ports."""
    product = {
        (i, o) for i in spec.input_ports() for o in spec.output_ports()
    }
    return frozenset(product - ann.pairs)


def desugar_required_conn(
    ann: RequiredConnAnnotation, spec: InterfaceSpec
) -> TraceAssertion:
    """G of the declared connections (irconn form) plus the activation-guarded
    pairwise negation of every other interface port pair."""
    conjuncts = []
    for (j, p), (k, q) in sorted(ann.pairs):
        conjuncts.append(IRConn(j, p, k, q))
    for (j, p), (k, q) in sorted(rest_pairs(ann, spec)):
        inner = Implies(
            And((Active("v"), Active("w"))),
            Not(Conn("v", j, p, "w", k, q)),
        )
        conjuncts.append(ForallComp("v", j, ForallComp("w", k, inner)))
    return _globally_all(conjuncts)


def annotation_labels(diagram: ConfigurationDiagram) -> tuple[str, ...]:
    """Labels of the diagram's annotations that desugar to an assertion, in
    desugaring order: ``minmax``, ``rigid``, ``connections``."""
    present = (
        ("minmax", diagram.minmax is not None and not diagram.minmax.empty),
        ("rigid", diagram.rigid is not None and bool(diagram.rigid.vars)),
        ("connections", diagram.required_conn is not None),
    )
    return tuple(label for label, here in present if here)


def rigid_declarations(diagram: ConfigurationDiagram) -> list[tuple[str, str]]:
    """(variable, interface) of each variable of the rigid annotation, by
    interface name, the variables of one interface in annotation order."""
    if diagram.rigid is None:
        return []
    return [
        (var, name)
        for name in sorted(diagram.rigid.vars)
        for var in diagram.rigid.vars[name]
    ]


def desugar_diagram(
    diagram: ConfigurationDiagram,
) -> tuple[InterfaceSpec, tuple[TraceAssertion, ...]]:
    """The diagram's interface-spec fragment plus the desugared assertions of
    all present annotations, in the order of ``annotation_labels``."""
    desugar = {
        "minmax": lambda: desugar_minmax(diagram.minmax),
        "rigid": lambda: desugar_rigid(diagram.rigid),
        "connections": lambda: desugar_required_conn(
            diagram.required_conn, diagram.spec
        ),
    }
    return diagram.spec, tuple(desugar[label]() for label in annotation_labels(diagram))
