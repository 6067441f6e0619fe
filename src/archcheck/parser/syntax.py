"""Raw syntax trees for `.arch` source units.

These nodes mirror the concrete syntax one-to-one and carry source spans for
diagnostics; spans never participate in equality, so parse/print round trips
compare structurally.  Name resolution and sort checking happen later, in the
resolver, which lowers these trees onto the semantic AST.
"""
from __future__ import annotations

from dataclasses import field
from typing import NamedTuple, Optional

from .._record import record

UNIT_KINDS = (
    "datatype",
    "portspec",
    "interface",
    "constraints",
    "diagram",
    "algebra",
    "trace",
)

# The sections of each unit kind that is a list of sections, in printed
# order, as (header, body field, line kind).  A section holds the lines
# under its header; a `names` section prints its names on one line, and a
# `role` line lists names after its header word and may stand anywhere.  A
# diagram's interface blocks, rigid annotations, connect lines and axiom
# blocks follow its sections, and a trace has no sections.  The grammar
# parses and the printer prints these bodies from this table, and
# docs/grammar.md states it.
SECTIONS = {
    "datatype": (
        ("sorts", "sorts", "names"),
        ("symbols", "symbols", "symbol"),
        ("vars", "vars", "var"),
        ("axioms", "axioms", "axiom"),
    ),
    "portspec": (("ports", "ports", "port"),),
    "interface": (
        ("ports", "ports", "port"),
        ("local", "local", "role"),
        ("inputs", "inputs", "role"),
        ("outputs", "outputs", "role"),
        ("vars", "vars", "var"),
        ("axioms", "axioms", "axiom"),
    ),
    "constraints": (
        ("vars", "vars", "var"),
        ("rigid vars", "rigid_vars", "var"),
        ("axioms", "axioms", "axiom"),
    ),
    "diagram": (
        ("ports", "ports", "port"),
        ("vars", "vars", "var"),
        ("rigid vars", "rigid_vars", "var"),
    ),
    "algebra": (
        ("carriers", "carriers", "carrier"),
        ("functions", "functions", "function"),
        ("predicates", "predicates", "predicate"),
    ),
}

# Binary formula operators by precedence level, loosest first, and those of
# them that group to the right; every other level groups to the left.  The
# prefix operators bind tighter than any of them.  The grammar and the
# printer read these, and docs/grammar.md states them.
BINARY_LEVEL = {"<->": 1, "->": 2, "or": 3, "and": 4, "U": 5, "W": 5}
RIGHT_ASSOC = frozenset({"->", "U", "W"})
PREFIX_OPERATORS = ("not", "X", "F", "G")
PREFIX_LEVEL = max(BINARY_LEVEL.values()) + 1


class Span(NamedTuple):
    """Where a token or node sits in its unit.  A plain tuple, because the
    front end makes one per token: it compares, hashes and sorts as the
    tuple of its three ints."""

    line: int  # 1-based
    column: int  # 1-based
    end_column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


SPAN = field(default=None, compare=False, repr=False)


@record
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str
    span: Optional[Span] = None
    unit: Optional[str] = None

    def render(self) -> str:
        where = ":".join(str(part) for part in (self.unit, self.span) if part)
        if where:
            where += ": "
        return f"{where}{self.severity}[{self.code}]: {self.message}"


class ExprNode:
    __slots__ = ()


@record
class EName(ExprNode):
    name: str
    span: Optional[Span] = SPAN


@record
class ENum(ExprNode):
    value: int
    span: Optional[Span] = SPAN


@record
class EBool(ExprNode):
    value: bool
    span: Optional[Span] = SPAN


@record
class EDot(ExprNode):
    base: str
    attr: str
    span: Optional[Span] = SPAN


@record
class EApply(ExprNode):
    name: str
    args: tuple[ExprNode, ...]
    span: Optional[Span] = SPAN


@record
class EPair(ExprNode):
    first: ExprNode
    second: ExprNode
    span: Optional[Span] = SPAN


@record
class ESet(ExprNode):
    items: tuple[ExprNode, ...]
    span: Optional[Span] = SPAN


@record
class EUnary(ExprNode):
    op: str  # one of PREFIX_OPERATORS
    operand: ExprNode
    span: Optional[Span] = SPAN


@record
class EBinary(ExprNode):
    op: str  # a key of BINARY_LEVEL, == or in
    left: ExprNode
    right: ExprNode
    span: Optional[Span] = SPAN


@record
class EQuant(ExprNode):
    kind: str  # forall | exists
    names: tuple[str, ...]
    annotation: Optional["SortRef"]  # sort or interface annotation
    bound: Optional[ExprNode]  # set-valued term for bounded quantifiers
    body: ExprNode
    span: Optional[Span] = SPAN


@record
class EActive(ExprNode):
    var: str
    span: Optional[Span] = SPAN


@record
class EConn(ExprNode):
    in_var: str
    in_port: str
    out_var: str
    out_port: str
    span: Optional[Span] = SPAN


@record
class EIRConn(ExprNode):
    in_interface: str
    in_port: str
    out_interface: str
    out_port: str
    span: Optional[Span] = SPAN


@record
class EMin(ExprNode):
    interface: str
    count: int
    span: Optional[Span] = SPAN


@record
class EMax(ExprNode):
    interface: str
    count: int
    span: Optional[Span] = SPAN


@record
class EMinMax(ExprNode):
    interface: str
    low: int
    high: int
    span: Optional[Span] = SPAN


@record
class EWellFounded(ExprNode):
    symbol: str
    span: Optional[Span] = SPAN


# ---------------------------------------------------------------------------
# Sort references


class SortRef:
    __slots__ = ()


@record
class RName(SortRef):
    name: str
    span: Optional[Span] = SPAN


@record
class RSet(SortRef):
    element: SortRef
    span: Optional[Span] = SPAN


@record
class RPair(SortRef):
    first: SortRef
    second: SortRef
    span: Optional[Span] = SPAN


# ---------------------------------------------------------------------------
# Declarations


@record
class VarDecl:
    names: tuple[str, ...]
    sort: SortRef
    span: Optional[Span] = SPAN


@record
class PortDecl:
    names: tuple[str, ...]
    sort: SortRef
    span: Optional[Span] = SPAN


@record
class SymbolDecl:
    name: str
    args: tuple[SortRef, ...]
    result: Optional[SortRef]  # None marks a predicate
    span: Optional[Span] = SPAN


@record
class AxiomDecl:
    expr: ExprNode
    text: str = field(compare=False, default="")
    span: Optional[Span] = SPAN


@record
class InterfaceDecl:
    name: str
    local: tuple[str, ...] = ()
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    minmax: Optional[tuple[Optional[int], Optional[int]]] = None
    span: Optional[Span] = SPAN


@record
class RigidAnnDecl:
    interface: str
    vars: tuple[str, ...]
    span: Optional[Span] = SPAN


@record
class ConnectDecl:
    in_owner: str
    in_port: str
    out_owner: str
    out_port: str
    span: Optional[Span] = SPAN


@record
class CarrierDecl:
    sort: str
    elements: tuple[str, ...]
    span: Optional[Span] = SPAN


@record
class TableEntry:
    symbol: str
    args: tuple[ExprNode, ...]
    value: Optional[ExprNode]  # None for predicate rows
    span: Optional[Span] = SPAN


@record
class ComponentDecl:
    id: str
    interface: str
    locals: tuple[tuple[str, ExprNode], ...] = ()
    span: Optional[Span] = SPAN


@record
class ActiveDecl:
    id: str
    valuations: tuple[tuple[str, ExprNode], ...] = ()
    span: Optional[Span] = SPAN


@record
class StepDecl:
    """One step of a trace.  ``lines`` are the source lines of a parsed
    step, from its `step` line to the next: steps with equal lines are
    equal, so the resolver keys its table of resolved steps by them rather
    than by the step's hash, which walks every node.  In a parsed step, the
    spans of ``actives`` and ``connects`` count lines from the step's own
    line, which is line 0: equal steps share their records."""

    actives: tuple[ActiveDecl, ...] = ()
    connects: tuple[ConnectDecl, ...] = ()
    span: Optional[Span] = SPAN
    lines: Optional[tuple[str, ...]] = field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Unit bodies


@record
class DatatypeBody:
    sorts: tuple[str, ...] = ()
    symbols: tuple[SymbolDecl, ...] = ()
    vars: tuple[VarDecl, ...] = ()
    axioms: tuple[AxiomDecl, ...] = ()


@record
class PortSpecBody:
    ports: tuple[PortDecl, ...] = ()


@record
class InterfaceBody:
    ports: tuple[PortDecl, ...] = ()
    local: tuple[str, ...] = ()
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    vars: tuple[VarDecl, ...] = ()
    axioms: tuple[AxiomDecl, ...] = ()


@record
class ConstraintsBody:
    vars: tuple[VarDecl, ...] = ()
    rigid_vars: tuple[VarDecl, ...] = ()
    axioms: tuple[AxiomDecl, ...] = ()


@record
class DiagramBody:
    ports: tuple[PortDecl, ...] = ()
    vars: tuple[VarDecl, ...] = ()
    rigid_vars: tuple[VarDecl, ...] = ()
    interfaces: tuple[InterfaceDecl, ...] = ()
    rigid_annotations: tuple[RigidAnnDecl, ...] = ()
    connects: tuple[ConnectDecl, ...] = ()
    axioms: tuple[tuple[str, tuple[AxiomDecl, ...]], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "axioms",
            tuple((iface, tuple(items)) for iface, items in self.axioms),
        )


@record
class AlgebraBody:
    carriers: tuple[CarrierDecl, ...] = ()
    functions: tuple[TableEntry, ...] = ()
    predicates: tuple[TableEntry, ...] = ()


@record
class TraceBody:
    components: tuple[ComponentDecl, ...] = ()
    steps: tuple[StepDecl, ...] = ()


@record
class SourceUnit:
    kind: str
    name: str
    imports: tuple[str, ...]
    body: object

    def __post_init__(self):
        if self.kind not in UNIT_KINDS:
            raise ValueError(f"unknown unit kind {self.kind!r}")
