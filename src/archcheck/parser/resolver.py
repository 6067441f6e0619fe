"""Name resolution and sort checking for parsed source units.

Resolution builds one global namespace from the bundle: sorts and symbols
from datatype units, ports from port specifications (interface and diagram
units may add ports inline), interfaces from interface units and diagram
fragments.  Structurally identical re-declarations merge silently; anything
else is a duplicate-name error.  A bundle with any error resolves to failure.

Two repairs produce warnings rather than errors:

* an undeclared component variable in a constraint axiom whose interface is
  inferable from the ports it reads is treated as a universally quantified
  rigid variable of that interface;
* free flexible variables of an embedded configuration assertion are closed
  existentially at each step.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .. import algebra as ALG
from .. import constraints as CON
from .._record import record
from ..diagrams import (
    ConfigurationDiagram,
    MinMaxAnnotation,
    RequiredConnAnnotation,
    RigidAnnotation,
    annotation_labels,
    desugar_diagram,
    rigid_declarations,
)
from ..errors import StructuralError
from ..interfaces import (
    Interface,
    InterfaceSpec,
    PortSpec,
    PortSym,
    SpecInterpretation,
    identity_interpretation,
)
from ..model import (
    ArchConfiguration,
    ComponentSnapshot,
    ComponentUniverse,
    ConfigurationTrace,
    make_snapshot,
)
from .syntax import (
    ActiveDecl,
    AxiomDecl,
    BINARY_LEVEL,
    Diagnostic,
    EActive,
    EApply,
    EBinary,
    EBool,
    EConn,
    EDot,
    EIRConn,
    EMax,
    EMin,
    EMinMax,
    EName,
    ENum,
    EPair,
    EQuant,
    ESet,
    EUnary,
    EWellFounded,
    RName,
    RPair,
    RSet,
    SortRef,
    SourceUnit,
    Span,
    StepDecl,
    TraceBody,
)

BUILTIN_IMPORTS = {"SET"}  # built-in set/pair sort constructors


class ResolveError(Exception):
    def __init__(self, message: str, span: Optional[Span] = None):
        super().__init__(message)
        self.message = message
        self.span = span


class NeedsContext(ResolveError):
    """An empty set literal whose element sort is not yet determined."""


@record
class ResolvedAssertion:
    name: str
    unit: str
    index: int
    gamma: CON.TraceAssertion
    rigid_data: Mapping[str, ALG.Sort]
    rigid_comp: Mapping[str, str]
    text: str


@record
class LabeledAssertion:
    name: str
    unit: str
    index: int
    assertion: ALG.Assertion
    text: str


@record
class TraceData:
    name: str
    trace: ConfigurationTrace
    interpretation: SpecInterpretation


@dataclass
class ResolvedBundle:
    units: dict
    signature: ALG.Signature
    port_spec: PortSpec
    interface_spec: InterfaceSpec
    datatype_axioms: tuple
    constraints: tuple
    diagrams: tuple
    # the diagrams' annotations desugared to trace assertions, in diagram
    # and annotation order, each named ``Unit.label``
    annotations: tuple
    algebras: dict
    traces: dict
    warnings: tuple
    # a ``constraints.AssertionPlan`` by assertion name, made by the checker
    # on first use and reused by later checks of the bundle
    plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def constraint_by_name(self, name: str) -> ResolvedAssertion:
        for item in self.constraints:
            if item.name == name:
                return item
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Environments


@dataclass
class Env:
    sig: ALG.Signature
    pspec: PortSpec
    interfaces: Mapping[str, Interface]
    data_vars: dict = field(default_factory=dict)  # name -> (Sort, rigid)
    comp_vars: dict = field(default_factory=dict)  # name -> (interface, rigid)
    port_symbols: Mapping[str, ALG.Sort] = field(default_factory=dict)
    level: str = "datatype"  # datatype | interface | trace
    pending: set = field(default_factory=set)  # names bound by an open binder
    closures: list = field(default_factory=list)  # implicit closure warnings

    def child(self) -> "Env":
        """A copy whose variables and pending names can change apart."""
        return Env(
            sig=self.sig,
            pspec=self.pspec,
            interfaces=self.interfaces,
            data_vars=dict(self.data_vars),
            comp_vars=dict(self.comp_vars),
            port_symbols=self.port_symbols,
            level=self.level,
            pending=set(self.pending),
            closures=self.closures,
        )


def resolve_sortref(ref: SortRef, sorts: frozenset, span=None) -> ALG.Sort:
    if isinstance(ref, RName):
        if ref.name not in sorts:
            raise ResolveError(f"unknown sort {ref.name!r}", ref.span or span)
        return ALG.BaseSort(ref.name)
    if isinstance(ref, RSet):
        return ALG.SetSort(resolve_sortref(ref.element, sorts, span))
    if isinstance(ref, RPair):
        return ALG.PairSort(
            resolve_sortref(ref.first, sorts, span),
            resolve_sortref(ref.second, sorts, span),
        )
    raise ResolveError(f"malformed sort reference {ref!r}", span)


# ---------------------------------------------------------------------------
# Term and formula resolution


def resolve_term(env: Env, expr, expected: Optional[ALG.Sort] = None):
    """Resolve an expression as a term; returns (semantic term, value sort)."""
    if isinstance(expr, EName):
        name = expr.name
        if name in env.data_vars:
            sort, _ = env.data_vars[name]
            _check_expected(expected, sort, expr.span)
            return ALG.Var(name, sort), sort
        in_functions = name in env.sig.functions and not env.sig.functions[name][0]
        in_ports = env.port_symbols and name in env.port_symbols
        if in_functions and in_ports:
            raise ResolveError(
                f"{name!r} is both a constant and a port of this interface",
                expr.span,
            )
        if in_functions:
            sort = env.sig.functions[name][1]
            _check_expected(expected, sort, expr.span)
            return ALG.Apply(name, ()), sort
        if in_ports:
            # a port term denotes the whole message set of the port
            declared = env.port_symbols[name]
            value_sort = ALG.SetSort(declared)
            _check_expected(expected, value_sort, expr.span)
            return PortSym(name, declared), value_sort
        if name in env.comp_vars:
            raise ResolveError(
                f"component variable {name!r} cannot be used as a data term",
                expr.span,
            )
        raise ResolveError(f"unknown name {name!r}", expr.span)
    if isinstance(expr, EDot):
        if env.level != "trace":
            raise ResolveError(
                "component port reads are only allowed in constraint axioms",
                expr.span,
            )
        binding = env.comp_vars.get(expr.base)
        if binding is None:
            raise ResolveError(
                f"undeclared component variable {expr.base!r}", expr.span
            )
        iface_name, _ = binding
        interface = env.interfaces[iface_name]
        if expr.attr not in interface.ports:
            raise ResolveError(
                f"interface {iface_name!r} has no port {expr.attr!r}", expr.span
            )
        declared = env.pspec.sort_of(expr.attr)
        value_sort = ALG.SetSort(declared)
        _check_expected(expected, value_sort, expr.span)
        return CON.PortRead(expr.base, iface_name, expr.attr, declared), value_sort
    if isinstance(expr, EApply):
        typing = env.sig.functions.get(expr.name)
        if typing is None:
            if expr.name in env.sig.predicates:
                raise ResolveError(
                    f"predicate {expr.name!r} used in term position", expr.span
                )
            raise ResolveError(f"unknown function symbol {expr.name!r}", expr.span)
        arg_sorts, result = typing
        if len(arg_sorts) != len(expr.args):
            raise ResolveError(
                f"{expr.name!r} expects {len(arg_sorts)} arguments,"
                f" got {len(expr.args)}",
                expr.span,
            )
        args = tuple(
            resolve_term(env, arg, srt)[0]
            for arg, srt in zip(expr.args, arg_sorts)
        )
        _check_expected(expected, result, expr.span)
        return ALG.Apply(expr.name, args), result
    if isinstance(expr, EPair):
        first_exp = second_exp = None
        if isinstance(expected, ALG.PairSort):
            first_exp, second_exp = expected.first, expected.second
        first, fs = resolve_term(env, expr.first, first_exp)
        second, ss = resolve_term(env, expr.second, second_exp)
        sort = ALG.PairSort(fs, ss)
        _check_expected(expected, sort, expr.span)
        return ALG.PairTerm(first, second), sort
    if isinstance(expr, ESet):
        elem_expected = (
            expected.element if isinstance(expected, ALG.SetSort) else None
        )
        if not expr.items:
            if elem_expected is None:
                raise NeedsContext(
                    "cannot infer the element sort of an empty set literal",
                    expr.span,
                )
            return (
                ALG.SetTerm((), element_sort=elem_expected),
                ALG.SetSort(elem_expected),
            )
        items = []
        elem_sort = elem_expected
        for item in expr.items:
            term, elem_sort = resolve_term(env, item, elem_sort)
            items.append(term)
        sort = ALG.SetSort(elem_sort)
        _check_expected(expected, sort, expr.span)
        return ALG.SetTerm(items), sort
    if isinstance(expr, ENum):
        raise ResolveError(
            "numbers appear only in min/max cardinality forms", expr.span
        )
    raise ResolveError("expected a term", getattr(expr, "span", None))


def _check_expected(expected, actual, span):
    if expected is not None and expected != actual:
        raise ResolveError(f"expected sort {expected}, got {actual}", span)


def resolve_formula(env: Env, expr):
    """Resolve an expression as a formula.

    Returns ("state", Assertion) or ("trace", TraceAssertion).
    """
    if isinstance(expr, EBool):
        return "state", ALG.BoolLit(expr.value)
    if isinstance(expr, EWellFounded):
        if env.level != "datatype":
            raise ResolveError(
                "well-founded(...) is a datatype axiom form", expr.span
            )
        if expr.symbol not in env.sig.predicates:
            raise ResolveError(
                f"unknown predicate symbol {expr.symbol!r}", expr.span
            )
        return "state", ALG.WellFounded(expr.symbol)
    if isinstance(expr, EApply):
        typing = env.sig.predicates.get(expr.name)
        if typing is None:
            if expr.name in env.sig.functions:
                raise ResolveError(
                    f"function {expr.name!r} used as a formula", expr.span
                )
            raise ResolveError(f"unknown predicate symbol {expr.name!r}", expr.span)
        if len(typing) != len(expr.args):
            raise ResolveError(
                f"{expr.name!r} expects {len(typing)} arguments,"
                f" got {len(expr.args)}",
                expr.span,
            )
        args = tuple(
            resolve_term(env, arg, srt)[0] for arg, srt in zip(expr.args, typing)
        )
        return "state", ALG.PredAtom(expr.name, args)
    if isinstance(expr, EActive):
        _require_components(env, expr.span)
        if expr.var not in env.comp_vars:
            raise ResolveError(
                f"undeclared component variable {expr.var!r}", expr.span
            )
        return "state", CON.Active(expr.var)
    if isinstance(expr, EConn):
        _require_components(env, expr.span)
        conn = _resolve_conn(env, expr)
        return "state", conn
    if isinstance(expr, EIRConn):
        _require_components(env, expr.span)
        in_iface = _require_interface(env, expr.in_interface, expr.span)
        out_iface = _require_interface(env, expr.out_interface, expr.span)
        _check_roles(
            (expr.in_interface, in_iface, expr.in_port),
            (expr.out_interface, out_iface, expr.out_port),
            expr.span,
        )
        return "state", CON.IRConn(
            expr.in_interface, expr.in_port, expr.out_interface, expr.out_port
        )
    if isinstance(expr, (EMin, EMax)):
        _require_components(env, expr.span)
        _require_interface(env, expr.interface, expr.span)
        node = (
            CON.Min(expr.interface, expr.count)
            if isinstance(expr, EMin)
            else CON.Max(expr.interface, expr.count)
        )
        return "state", node
    if isinstance(expr, EMinMax):
        _require_components(env, expr.span)
        _require_interface(env, expr.interface, expr.span)
        if expr.low > expr.high:
            raise ResolveError(
                f"minmax bounds inverted: {expr.low} > {expr.high}", expr.span
            )
        return "state", CON.MinMax(expr.interface, expr.low, expr.high)
    if isinstance(expr, EUnary):
        return _resolve_operator(env, expr.op, (expr.operand,), expr.span)
    if isinstance(expr, EBinary):
        return _resolve_binary(env, expr)
    if isinstance(expr, EQuant):
        return _resolve_quantifier(env, expr)
    if isinstance(expr, (EName, EDot, EPair, ESet, ENum)):
        raise ResolveError("expected a formula, found a term", getattr(expr, "span", None))
    raise ResolveError("malformed formula", getattr(expr, "span", None))


def _require_components(env: Env, span):
    if env.level != "trace":
        raise ResolveError(
            "activation/connection predicates are only allowed in constraint"
            " axioms",
            span,
        )


def _require_interface(env: Env, name: str, span) -> Interface:
    interface = env.interfaces.get(name)
    if interface is None:
        raise ResolveError(f"unknown interface {name!r}", span)
    return interface


def _check_roles(inbound, outbound, span):
    """Raise unless ``inbound`` names an input port and ``outbound`` an
    output port of its owner; each is (owner name, ``Interface``, port)."""
    owner, interface, port = inbound
    if port not in interface.inputs:
        raise ResolveError(f"{port!r} is not an input port of {owner!r}", span)
    owner, interface, port = outbound
    if port not in interface.outputs:
        raise ResolveError(f"{port!r} is not an output port of {owner!r}", span)


def _resolve_conn(env: Env, expr: EConn) -> CON.Conn:
    bindings = []
    for var in (expr.in_var, expr.out_var):
        binding = env.comp_vars.get(var)
        if binding is None:
            raise ResolveError(f"undeclared component variable {var!r}", expr.span)
        bindings.append(binding[0])
    in_iface_name, out_iface_name = bindings
    _check_roles(
        (in_iface_name, env.interfaces[in_iface_name], expr.in_port),
        (out_iface_name, env.interfaces[out_iface_name], expr.out_port),
        expr.span,
    )
    return CON.Conn(
        expr.in_var, in_iface_name, expr.in_port,
        expr.out_var, out_iface_name, expr.out_port,
    )


def _require_temporal(env: Env, span):
    if env.level != "trace":
        raise ResolveError(
            "temporal operators are only allowed in constraint axioms", span
        )


# Each formula operator's classes: of configuration-assertion operands, then
# of trace-assertion operands.  A temporal operator has only the second.
OPERATOR_CLASSES = {
    "not": (ALG.Not, CON.TraceNot),
    "and": (ALG.And, CON.TraceAnd),
    "or": (ALG.Or, CON.TraceOr),
    "->": (ALG.Implies, CON.TraceImplies),
    "<->": (ALG.Iff, CON.TraceIff),
    "X": (None, CON.Next),
    "F": (None, CON.Eventually),
    "G": (None, CON.Globally),
    "U": (None, CON.Until),
    "W": (None, CON.WeakUntil),
}


def _resolve_operator(env: Env, op: str, operands, span):
    """``op`` applied to ``operands``: a configuration assertion when ``op``
    has a state form and every operand is one, else a trace assertion over
    the lifted operands.  ``and`` and ``or`` flatten nested items."""
    state_cls, trace_cls = OPERATOR_CLASSES[op]
    if state_cls is None:
        _require_temporal(env, span)
        parts = [_lift(env, resolve_formula(env, part), span) for part in operands]
        return "trace", trace_cls(*parts)
    tagged = [resolve_formula(env, part) for part in operands]
    if all(kind == "state" for kind, _ in tagged):
        kind, cls, parts = "state", state_cls, [node for _, node in tagged]
    else:
        kind, cls = "trace", trace_cls
        parts = [_lift(env, part, span) for part in tagged]
    if op in ("and", "or"):
        return kind, _flat(cls, parts)
    return kind, cls(*parts)


def _resolve_binary(env: Env, expr: EBinary):
    op = expr.op
    if op in BINARY_LEVEL:
        return _resolve_operator(env, op, (expr.left, expr.right), expr.span)
    if op == "==":
        both_comp = (
            isinstance(expr.left, EName)
            and isinstance(expr.right, EName)
            and expr.left.name in env.comp_vars
            and expr.right.name in env.comp_vars
        )
        if both_comp:
            _require_components(env, expr.span)
            return "state", CON.CompEquals(expr.left.name, expr.right.name)
        left, right = _resolve_equation(env, expr)
        return "state", ALG.Equals(left, right)
    if op == "in":
        collection, csort = resolve_term(env, expr.right)
        if not isinstance(csort, ALG.SetSort):
            raise ResolveError(
                f"membership needs a set-valued right operand, got {csort}",
                expr.span,
            )
        element, _ = resolve_term(env, expr.left, csort.element)
        return "state", ALG.Member(element, collection)
    raise ResolveError(f"unknown operator {op!r}", expr.span)


def _flat(cls, parts):
    items = []
    for part in parts:
        if isinstance(part, cls):
            items.extend(part.items)
        else:
            items.append(part)
    return cls(tuple(items))


def _resolve_equation(env: Env, expr: EBinary):
    """Equality with the singleton desugaring for set-valued port terms."""
    try:
        left, left_sort = resolve_term(env, expr.left)
    except NeedsContext:
        right, right_sort = resolve_term(env, expr.right)
        left, left_sort = resolve_term(env, expr.left, right_sort)
        return left, right
    try:
        right, right_sort = resolve_term(env, expr.right, None)
    except NeedsContext:
        right, right_sort = resolve_term(env, expr.right, left_sort)
    if left_sort == right_sort:
        return left, right
    if isinstance(left_sort, ALG.SetSort) and left_sort.element == right_sort:
        return left, ALG.SetTerm((right,))
    if isinstance(right_sort, ALG.SetSort) and right_sort.element == left_sort:
        return ALG.SetTerm((left,)), right
    raise ResolveError(
        f"cannot equate sorts {left_sort} and {right_sort}", expr.span
    )


def _lift(env: Env, tagged, span) -> CON.TraceAssertion:
    """Embed a state formula as a trace assertion, closing stray flexible
    variables existentially (one warning per closure)."""
    kind, node = tagged
    if kind == "trace":
        return node
    free_data, free_comp = CON.free_vars(node)
    closed = node
    for free, table, over in (
        (free_data, env.data_vars, "sort"), (free_comp, env.comp_vars, "interface")
    ):
        exists = CON.QUANTIFIERS["exists", over][0]
        for name in sorted(free):
            info = table.get(name)
            if name in env.pending or info is None or info[1]:
                continue  # bound later, or rigid
            closed = exists(name, info[0], closed)
            env.closures.append((name, span))
    return CON.State(closed)


def _resolve_quantifier(env: Env, expr: EQuant):
    rng_names = expr.names
    if expr.bound is None:
        name = rng_names[0]
        declared_data = env.data_vars.get(name)
        declared_comp = env.comp_vars.get(name)
        annotation = expr.annotation
        if annotation is None:
            if declared_data is None and declared_comp is None:
                raise ResolveError(
                    f"quantified variable {name!r} is neither declared nor"
                    " annotated",
                    expr.span,
                )
            over = "interface" if declared_comp is not None else "sort"
            domain = (declared_comp or declared_data)[0]
        elif isinstance(annotation, RName) and annotation.name in env.interfaces:
            if declared_data is not None:
                raise ResolveError(
                    f"{name!r} is a data variable, not a component variable",
                    expr.span,
                )
            over = "interface"
            domain = annotation.name
            if declared_comp is not None and declared_comp[0] != domain:
                raise ResolveError(
                    f"{name!r} declared at interface {declared_comp[0]!r},"
                    f" annotated {domain!r}",
                    expr.span,
                )
        else:
            over = "sort"
            domain = resolve_sortref(annotation, env.sig.sorts, expr.span)
            if declared_comp is not None:
                raise ResolveError(
                    f"{name!r} is a component variable, not a data variable",
                    expr.span,
                )
            if declared_data is not None and declared_data[0] != domain:
                raise ResolveError(
                    f"{name!r} declared {declared_data[0]}, annotated {domain}",
                    expr.span,
                )
        if over == "interface":
            _require_components(env, expr.span)
        return _finish_quant(env, expr, name, domain, over)
    # bounded form
    source, source_sort = resolve_term(env, expr.bound)
    if not isinstance(source_sort, ALG.SetSort):
        raise ResolveError(
            f"bounded quantifier needs a set-valued source, got {source_sort}",
            expr.span,
        )
    element = source_sort.element
    if len(rng_names) == 1:
        elem_sorts = [element]
    else:
        if not isinstance(element, ALG.PairSort):
            raise ResolveError(
                f"pattern ({', '.join(rng_names)}) needs pair-valued elements,"
                f" got {element}",
                expr.span,
            )
        elem_sorts = [element.first, element.second]
    rigids = []
    inner = env.child()
    for name, sort in zip(rng_names, elem_sorts):
        declared = env.data_vars.get(name)
        if name in env.comp_vars:
            raise ResolveError(
                f"{name!r} is a component variable; bounded quantifiers bind"
                " data variables",
                expr.span,
            )
        if declared is not None:
            if declared[0] != sort:
                raise ResolveError(
                    f"{name!r} declared {declared[0]} but bound at {sort}",
                    expr.span,
                )
            rigids.append(declared[1])
            inner.data_vars[name] = (sort, declared[1])
        else:
            rigids.append(None)
            inner.data_vars[name] = (sort, False)
            inner.pending.add(name)
    kind, body = resolve_formula(inner, expr.body)
    declared_rigid = [r for r in rigids if r is not None]
    if declared_rigid and len(set(declared_rigid)) > 1:
        raise ResolveError(
            "bounded pattern mixes rigid and flexible variables", expr.span
        )
    want_rigid = (kind == "trace") or (declared_rigid and declared_rigid[0])
    if kind == "trace" and declared_rigid and not declared_rigid[0]:
        raise ResolveError(
            "flexible variables cannot scope over temporal operators;"
            " declare them rigid",
            expr.span,
        )
    state_cls, rigid_cls = CON.QUANTIFIERS[expr.kind, "set"]
    if want_rigid:
        gamma = _lift(inner, (kind, body), expr.span)
        return "trace", rigid_cls(tuple(rng_names), source, gamma)
    return "state", state_cls(tuple(rng_names), source, body)


def _finish_quant(env: Env, expr: EQuant, name, domain, over):
    """``expr`` binding ``name`` over ``domain``, an interface when ``over``,
    the range of the quantifier's ``SHAPE``, is ``"interface"``, else a sort.
    """
    table = "comp_vars" if over == "interface" else "data_vars"
    declared = getattr(env, table).get(name)
    rigid = declared[1] if declared is not None else None
    inner = env.child()
    getattr(inner, table)[name] = (domain, bool(rigid))
    if rigid is None:
        inner.pending.add(name)
    kind, body = resolve_formula(inner, expr.body)
    if kind == "trace" and rigid is False:
        raise ResolveError(
            f"flexible variable {name!r} cannot scope over temporal operators;"
            " declare it rigid",
            expr.span,
        )
    cls, rigid_cls = CON.QUANTIFIERS[expr.kind, over]
    if kind == "trace" or rigid:
        cls = rigid_cls
        body = _lift(inner, (kind, body), expr.span)
        kind = "trace"
    return kind, cls(name, domain, body)


# ---------------------------------------------------------------------------
# Undeclared component variable repair


def _scan_component_candidates(expr, bound: frozenset):
    """Names used in component positions with the ports they touch."""
    found: dict[str, set] = {}

    def see(name, portinfo, bound_names):
        if name in bound_names:
            return
        found.setdefault(name, set())
        if portinfo is not None:
            found[name].add(portinfo)

    def walk(node, bound_names):
        if isinstance(node, EDot):
            see(node.base, (node.attr, "any"), bound_names)
            return
        if isinstance(node, EActive):
            see(node.var, None, bound_names)
            return
        if isinstance(node, EConn):
            see(node.in_var, (node.in_port, "input"), bound_names)
            see(node.out_var, (node.out_port, "output"), bound_names)
            return
        if isinstance(node, EQuant):
            if node.bound is not None:
                walk(node.bound, bound_names)
            walk(node.body, bound_names | set(node.names))
            return
        for child in _expr_children(node):
            walk(child, bound_names)

    walk(expr, bound)
    return found


def _expr_children(node):
    if isinstance(node, EApply):
        return node.args
    if isinstance(node, EPair):
        return (node.first, node.second)
    if isinstance(node, ESet):
        return node.items
    if isinstance(node, EUnary):
        return (node.operand,)
    if isinstance(node, EBinary):
        return (node.left, node.right)
    return ()


def _ground_value(expr):
    if isinstance(expr, EName):
        return expr.name
    if isinstance(expr, EPair):
        return (_ground_value(expr.first), _ground_value(expr.second))
    if isinstance(expr, ESet):
        return frozenset(_ground_value(item) for item in expr.items)
    raise ResolveError(
        "expected a ground value (name, pair, or set literal)",
        getattr(expr, "span", None),
    )


def _message_set(expr) -> frozenset:
    """A port's ground value as its set of messages; a single value stands
    for the singleton set."""
    value = _ground_value(expr)
    return value if isinstance(value, frozenset) else frozenset({value})


# ---------------------------------------------------------------------------
# The resolver


class Resolver:
    def __init__(self, units):
        self.units = list(units)
        self.diagnostics: list[Diagnostic] = []
        self.unit_by_name: dict[str, SourceUnit] = {}
        self.sorts: set[str] = set()
        self.functions: dict = {}
        self.predicates: dict = {}
        self.ports: dict[str, ALG.Sort] = {}
        self.interfaces: dict[str, Interface] = {}
        self.interface_assertions: dict[str, list] = {}
        self.sig: Optional[ALG.Signature] = None
        self.pspec: Optional[PortSpec] = None

    def err(self, unit, message, span=None):
        self.diagnostics.append(Diagnostic("error", "resolve", message, span, unit))

    def warn(self, unit, code, message, span=None):
        self.diagnostics.append(Diagnostic("warning", code, message, span, unit))

    def run(self):
        self._index_units()
        self._collect_signature()
        if self._failed():
            return None
        self._collect_ports_and_interfaces()
        if self._failed():
            return None
        datatype_axioms = self._resolve_datatype_axioms()
        self._resolve_interface_assertions()
        constraints = self._resolve_constraint_units()
        diagrams, annotations = self._resolve_diagrams()
        algebras = self._resolve_algebras()
        traces = self._resolve_traces()
        if self._failed():
            return None
        spec = InterfaceSpec(
            dict(self.interfaces),
            {k: tuple(v) for k, v in self.interface_assertions.items() if v},
        )
        return ResolvedBundle(
            units=dict(self.unit_by_name),
            signature=self.sig,
            port_spec=self.pspec,
            interface_spec=spec,
            datatype_axioms=tuple(datatype_axioms),
            constraints=tuple(constraints),
            diagrams=tuple(diagrams),
            annotations=tuple(annotations),
            algebras=algebras,
            traces=traces,
            warnings=tuple(
                d for d in self.diagnostics if d.severity == "warning"
            ),
        )

    def _failed(self):
        return any(d.severity == "error" for d in self.diagnostics)

    def _units(self, *kinds):
        """(name, unit) of each unit of one of ``kinds``, in name order."""
        for name in sorted(self.unit_by_name):
            unit = self.unit_by_name[name]
            if unit.kind in kinds:
                yield name, unit

    # -- units and imports ---------------------------------------------------

    def _index_units(self):
        for unit in self.units:
            if unit.name in self.unit_by_name:
                self.err(unit.name, f"duplicate unit name {unit.name!r}")
                continue
            self.unit_by_name[unit.name] = unit
        for unit in self.units:
            for imported in unit.imports:
                if imported in BUILTIN_IMPORTS:
                    continue
                if imported not in self.unit_by_name:
                    self.err(
                        unit.name, f"import of unknown unit {imported!r}"
                    )
        units = self.unit_by_name
        for cycle in ALG.back_edges(
            sorted(units), lambda name: [d for d in units[name].imports if d in units]
        ):
            self.err(cycle[-2], f"cyclic imports: {' -> '.join(cycle)}")

    # -- signature ---------------------------------------------------------

    def _collect_signature(self):
        for name, unit in self._units("datatype"):
            for sort in unit.body.sorts:
                if sort in self.sorts:
                    self.err(name, f"duplicate sort {sort!r}")
                self.sorts.add(sort)
        for name, unit in self._units("datatype"):
            for decl in unit.body.symbols:
                if decl.name in self.functions or decl.name in self.predicates:
                    self.err(name, f"duplicate symbol {decl.name!r}", decl.span)
                    continue
                if decl.name in self.sorts:
                    self.err(
                        name, f"symbol {decl.name!r} collides with a sort",
                        decl.span,
                    )
                    continue
                try:
                    args = tuple(
                        resolve_sortref(a, frozenset(self.sorts), decl.span)
                        for a in decl.args
                    )
                    if decl.result is None:
                        self.predicates[decl.name] = args
                    else:
                        result = resolve_sortref(
                            decl.result, frozenset(self.sorts), decl.span
                        )
                        self.functions[decl.name] = (args, result)
                except ResolveError as errr:
                    self.err(name, errr.message, errr.span or decl.span)
        self.sig = ALG.Signature(
            sorts=self.sorts,
            functions=self.functions,
            predicates=self.predicates,
        )

    # -- ports and interfaces ----------------------------------------------

    def _declare_port(self, unit_name, port, sortref, span):
        try:
            sort = resolve_sortref(sortref, frozenset(self.sorts), span)
        except ResolveError as errr:
            self.err(unit_name, errr.message, errr.span or span)
            return
        existing = self.ports.get(port)
        if existing is not None and existing != sort:
            self.err(
                unit_name,
                f"port {port!r} redeclared at a different sort"
                f" ({existing} vs {sort})",
                span,
            )
            return
        self.ports[port] = sort

    def _declare_interface(self, unit_name, iface_name, roles, span):
        """Declare the interface whose ports ``roles`` lists by role."""
        try:
            interface = Interface(roles.local, roles.inputs, roles.outputs)
        except StructuralError as exc:
            self.err(unit_name, str(exc), span)
            return
        for port in sorted(interface.ports):
            if port not in self.ports:
                self.err(
                    unit_name,
                    f"interface {iface_name!r} uses undeclared port {port!r}",
                    span,
                )
                return
        existing = self.interfaces.get(iface_name)
        if existing is not None:
            if existing != interface:
                self.err(
                    unit_name,
                    f"interface {iface_name!r} redeclared with a different shape",
                    span,
                )
            return
        if iface_name in self.sorts:
            self.err(
                unit_name,
                f"interface {iface_name!r} collides with a sort name",
                span,
            )
            return
        self.interfaces[iface_name] = interface
        self.interface_assertions.setdefault(iface_name, [])

    def _collect_ports_and_interfaces(self):
        for name, unit in self._units("portspec", "interface", "diagram"):
            for decl in unit.body.ports:
                for port in decl.names:
                    self._declare_port(name, port, decl.sort, decl.span)
        if self._failed():
            return
        for name, unit in self._units("interface", "diagram"):
            if unit.kind == "interface":
                self._declare_interface(name, name, unit.body, None)
                continue
            for decl in unit.body.interfaces:
                self._declare_interface(name, decl.name, decl, decl.span)
        self.pspec = PortSpec(self.ports)

    # -- variable declarations ----------------------------------------------

    def _declare_vars(self, unit_name, decls, rigid, env: Env):
        for decl in decls:
            for name in decl.names:
                if name in env.data_vars or name in env.comp_vars:
                    self.err(unit_name, f"duplicate variable {name!r}", decl.span)
                    continue
                if (
                    name in self.functions
                    or name in self.predicates
                    or name in self.sorts
                    or name in self.interfaces
                    or name in self.ports
                ):
                    self.err(
                        unit_name,
                        f"variable {name!r} collides with another declaration",
                        decl.span,
                    )
                    continue
                if isinstance(decl.sort, RName) and decl.sort.name in self.interfaces:
                    env.comp_vars[name] = (decl.sort.name, rigid)
                    continue
                try:
                    sort = resolve_sortref(
                        decl.sort, frozenset(self.sorts), decl.span
                    )
                except ResolveError as errr:
                    self.err(unit_name, errr.message, errr.span or decl.span)
                    continue
                env.data_vars[name] = (sort, rigid)

    def _trace_env(self, unit_name, body) -> Env:
        """The environment of a constraints or diagram unit's axioms."""
        env = Env(self.sig, self.pspec, self.interfaces, level="trace")
        self._declare_vars(unit_name, body.vars, rigid=False, env=env)
        self._declare_vars(unit_name, body.rigid_vars, rigid=True, env=env)
        return env

    # -- datatype and interface axioms ------------------------------------------

    def _state_axioms(self, unit_name, env: Env, var_decls, axioms):
        """(index, axiom, assertion) of each of ``axioms`` that resolves in
        ``env`` once ``var_decls`` are declared; the others get a diagnostic.
        ``env`` is not a trace environment, so it refuses every temporal
        operator and declares no rigid variable: each assertion is a
        configuration assertion."""
        self._declare_vars(unit_name, var_decls, rigid=False, env=env)
        for index, axiom in enumerate(axioms, start=1):
            try:
                _, node = resolve_formula(env, axiom.expr)
            except ResolveError as errr:
                self.err(unit_name, errr.message, errr.span or axiom.span)
                continue
            yield index, axiom, node

    def _resolve_datatype_axioms(self):
        axioms = []
        for name, unit in self._units("datatype"):
            env = Env(self.sig, self.pspec, self.interfaces, level="datatype")
            for index, axiom, node in self._state_axioms(
                name, env, unit.body.vars, unit.body.axioms
            ):
                axioms.append(
                    LabeledAssertion(
                        name=f"{name}.ax{index}",
                        unit=name,
                        index=index,
                        assertion=node,
                        text=axiom.text,
                    )
                )
        return axioms

    def _resolve_interface_axioms_for(
        self, unit_name, iface_name, var_decls, axioms
    ):
        env = Env(
            self.sig,
            self.pspec,
            self.interfaces,
            port_symbols={p: self.ports[p] for p in self.interfaces[iface_name].ports},
            level="interface",
        )
        self.interface_assertions[iface_name].extend(
            node
            for _, _, node in self._state_axioms(
                unit_name, env, var_decls, axioms
            )
        )

    def _resolve_interface_assertions(self):
        for name, unit in self._units("interface"):
            if unit.body.axioms:
                self._resolve_interface_axioms_for(
                    name, name, unit.body.vars, unit.body.axioms
                )

    # -- constraint units -----------------------------------------------------

    def _resolve_constraint_units(self):
        constraints = []
        for name, unit in self._units("constraints"):
            env = self._trace_env(name, unit.body)
            for index, axiom in enumerate(unit.body.axioms, start=1):
                resolved = self._resolve_constraint_axiom(name, env, axiom)
                if resolved is None:
                    continue
                gamma, extra_comp = resolved
                rigid_data = {
                    n: s for n, (s, rigid) in env.data_vars.items() if rigid
                }
                rigid_comp = {
                    n: i for n, (i, rigid) in env.comp_vars.items() if rigid
                }
                rigid_comp.update(extra_comp)
                constraints.append(
                    ResolvedAssertion(
                        name=f"{name}.ax{index}",
                        unit=name,
                        index=index,
                        gamma=gamma,
                        rigid_data=rigid_data,
                        rigid_comp=rigid_comp,
                        text=axiom.text,
                    )
                )
        return constraints

    def _resolve_constraint_axiom(self, unit_name, env: Env, axiom: AxiomDecl):
        known = set(env.comp_vars) | set(env.data_vars)
        candidates = _scan_component_candidates(axiom.expr, frozenset(known))
        repairs = {}
        for var in sorted(candidates):
            ports = candidates[var]
            inferred = set()
            for port, role in ports:
                for iface_name, interface in self.interfaces.items():
                    pool = {
                        "any": interface.ports,
                        "input": interface.inputs,
                        "output": interface.outputs,
                    }[role]
                    if port in pool:
                        inferred.add(iface_name)
            if len(inferred) != 1:
                self.err(
                    unit_name,
                    f"undeclared component variable {var!r}"
                    + (
                        ": interface is ambiguous"
                        if len(inferred) > 1
                        else " and no port usage identifies its interface"
                    ),
                    axiom.span,
                )
                return None
            repairs[var] = inferred.pop()
        axiom_env = env.child()
        for var, iface in repairs.items():
            axiom_env.comp_vars[var] = (iface, True)
            self.warn(
                unit_name,
                "undeclared-component-var",
                f"undeclared component variable {var!r} treated as a"
                f" universally quantified rigid variable of interface"
                f" {iface!r}",
                axiom.span,
            )
        before_closures = len(axiom_env.closures)
        try:
            tagged = resolve_formula(axiom_env, axiom.expr)
            gamma = _lift(axiom_env, tagged, axiom.span)
        except ResolveError as errr:
            self.err(unit_name, errr.message, errr.span or axiom.span)
            return None
        for closed_name, span in axiom_env.closures[before_closures:]:
            self.warn(
                unit_name,
                "implicit-closure",
                f"flexible variable {closed_name!r} closed existentially at"
                " each step",
                span,
            )
        for var in sorted(repairs, reverse=True):
            gamma = CON.RigidForallComp(var, repairs[var], gamma)
        return gamma, repairs

    # -- diagrams ----------------------------------------------------------

    def _resolve_diagrams(self):
        """The resolved diagrams, and their annotations desugared."""
        diagrams, annotations = [], []
        for name, unit in self._units("diagram"):
            body = unit.body
            env = self._trace_env(name, body)
            own = [decl.name for decl in body.interfaces]
            mins, maxs = {}, {}
            for decl in body.interfaces:
                if decl.minmax is not None:
                    low, high = decl.minmax
                    if low is not None:
                        mins[decl.name] = low
                    if high is not None:
                        maxs[decl.name] = high
            rigid_vars = {}
            for ann in body.rigid_annotations:
                if ann.interface not in own:
                    self.err(
                        name,
                        f"rigid annotation for undeclared interface"
                        f" {ann.interface!r}",
                        ann.span,
                    )
                    continue
                for var in ann.vars:
                    binding = env.comp_vars.get(var)
                    if binding is None or not binding[1]:
                        self.err(
                            name,
                            f"rigid annotation variable {var!r} must be a"
                            " declared rigid component variable",
                            ann.span,
                        )
                        continue
                    if binding[0] != ann.interface:
                        self.err(
                            name,
                            f"variable {var!r} has interface {binding[0]!r},"
                            f" not {ann.interface!r}",
                            ann.span,
                        )
                        continue
                    kept = rigid_vars.setdefault(ann.interface, [])
                    if var not in kept:  # a repeat would desugar twice
                        kept.append(var)
            pairs = set()
            for conn in body.connects:
                try:
                    for owner in (conn.in_owner, conn.out_owner):
                        if owner not in own:
                            raise ResolveError(
                                f"unknown interface {owner!r}", conn.span
                            )
                    _check_roles(
                        (conn.in_owner, self.interfaces[conn.in_owner], conn.in_port),
                        (conn.out_owner, self.interfaces[conn.out_owner],
                         conn.out_port),
                        conn.span,
                    )
                except ResolveError as errr:
                    self.err(name, errr.message, errr.span)
                    continue
                pairs.add(
                    ((conn.in_owner, conn.in_port), (conn.out_owner, conn.out_port))
                )
            assertion_map = {}
            for iface_name, axioms in body.axioms:
                if iface_name not in own:
                    self.err(name, f"axioms for undeclared interface {iface_name!r}")
                    continue
                before = len(self.interface_assertions[iface_name])
                self._resolve_interface_axioms_for(
                    name, iface_name, body.vars, axioms
                )
                new = self.interface_assertions[iface_name][before:]
                # deduplicate structurally identical re-declarations
                seen = self.interface_assertions[iface_name][:before]
                merged = seen + [a for a in new if a not in seen]
                self.interface_assertions[iface_name] = merged
                assertion_map[iface_name] = tuple(new)
            if self._failed():
                continue
            spec_fragment = InterfaceSpec(
                {n: self.interfaces[n] for n in own},
                {k: v for k, v in assertion_map.items() if v},
            )
            try:
                diagram = ConfigurationDiagram(
                    name=name,
                    spec=spec_fragment,
                    minmax=MinMaxAnnotation(mins, maxs) if (mins or maxs) else None,
                    rigid=RigidAnnotation(
                        {k: tuple(v) for k, v in rigid_vars.items()}
                    )
                    if rigid_vars
                    else None,
                    required_conn=RequiredConnAnnotation(pairs)
                    if body.connects
                    else None,
                )
            except StructuralError as exc:
                self.err(name, str(exc))
                continue
            diagrams.append((name, diagram))
            rigid_comp = dict(rigid_declarations(diagram))
            labelled = zip(annotation_labels(diagram), desugar_diagram(diagram)[1])
            for index, (label, gamma) in enumerate(labelled, start=1):
                annotations.append(
                    ResolvedAssertion(
                        f"{name}.{label}", name, index, gamma, {}, rigid_comp, ""
                    )
                )
        return diagrams, annotations

    # -- algebras ----------------------------------------------------------

    def _resolve_algebras(self):
        algebras = {}
        for name, unit in self._units("algebra"):
            carriers = {}
            for decl in unit.body.carriers:
                if decl.sort not in self.sorts:
                    self.err(name, f"unknown sort {decl.sort!r}", decl.span)
                    continue
                if decl.sort in carriers:
                    self.err(name, f"duplicate carrier for {decl.sort!r}", decl.span)
                    continue
                carriers[decl.sort] = tuple(decl.elements)
            functions: dict = {}
            for entry in unit.body.functions:
                if entry.symbol not in self.functions:
                    self.err(
                        name, f"unknown function symbol {entry.symbol!r}", entry.span
                    )
                    continue
                try:
                    args = tuple(_ground_value(a) for a in entry.args)
                    value = _ground_value(entry.value)
                except ResolveError as errr:
                    self.err(name, errr.message, errr.span or entry.span)
                    continue
                table = functions.setdefault(entry.symbol, {})
                if args in table:
                    self.err(
                        name,
                        f"duplicate table entry for {entry.symbol!r}",
                        entry.span,
                    )
                    continue
                table[args] = value
            predicates: dict = {}
            for entry in unit.body.predicates:
                if entry.symbol not in self.predicates:
                    self.err(
                        name, f"unknown predicate symbol {entry.symbol!r}", entry.span
                    )
                    continue
                try:
                    args = tuple(_ground_value(a) for a in entry.args)
                except ResolveError as errr:
                    self.err(name, errr.message, errr.span or entry.span)
                    continue
                predicates.setdefault(entry.symbol, set()).add(args)
            if self._failed():
                continue
            try:
                algebras[name] = ALG.Algebra(
                    signature=self.sig,
                    carriers=carriers,
                    functions=functions,
                    predicates=predicates,
                )
            except StructuralError as exc:
                self.err(name, str(exc))
        return algebras

    # -- traces ----------------------------------------------------------

    def _resolve_traces(self):
        traces = {}
        for name, unit in self._units("trace"):
            data = self._resolve_trace_unit(name, unit.body)
            if data is not None:
                traces[name] = data
        return traces

    def _resolve_trace_unit(self, name, body: TraceBody):
        components = {}
        for decl in body.components:
            if decl.id in components:
                self.err(name, f"duplicate component id {decl.id!r}", decl.span)
                continue
            interface = self.interfaces.get(decl.interface)
            if interface is None:
                self.err(
                    name, f"unknown interface {decl.interface!r}", decl.span
                )
                continue
            locals_ = {p: frozenset() for p in interface.local}
            ok = True
            for port, value_expr in decl.locals:
                if port not in interface.local:
                    self.err(
                        name,
                        f"{port!r} is not a local port of {decl.interface!r}",
                        decl.span,
                    )
                    ok = False
                    continue
                try:
                    locals_[port] = _message_set(value_expr)
                except ResolveError as errr:
                    self.err(name, errr.message, errr.span or decl.span)
                    ok = False
            if ok:
                components[decl.id] = (decl.interface, interface, locals_)
        if self._failed():
            return None
        if not body.steps:
            self.err(name, "a trace needs at least one step")
            return None
        steps = []
        all_snapshots = set()
        ever_active = set()
        # Equal steps and equal `active` blocks (their equality ignores
        # spans) resolve once, to one configuration or snapshot.  A parsed
        # step is known by its source lines, one built in memory by itself.
        # One that drew a diagnostic is not stored, so each of its
        # occurrences reports at its own span.
        resolved: dict = {}
        built: dict[ActiveDecl, ComponentSnapshot] = {}
        for step in body.steps:
            key = step if step.lines is None else step.lines
            config = resolved.get(key)
            if config is not None:
                steps.append(config)
                continue
            reported = len(self.diagnostics)
            snapshots = {}
            for active in step.actives:
                snapshot = built.get(active)
                if snapshot is None:
                    snapshot = self._resolve_active(
                        name, components, active, _in_unit(step, active.span)
                    )
                    if snapshot is None:
                        continue
                    built[active] = snapshot
                if active.id in snapshots:
                    self.err(
                        name,
                        f"component {active.id!r} activated twice in one step",
                        _in_unit(step, active.span),
                    )
                    continue
                snapshots[active.id] = snapshot
                ever_active.add(active.id)
            connection: dict = {}
            for conn in step.connects:
                src = components.get(conn.in_owner)
                tgt = components.get(conn.out_owner)
                if src is None or tgt is None:
                    self.err(
                        name,
                        "connection references an undeclared component",
                        _in_unit(step, conn.span),
                    )
                    continue
                try:
                    _check_roles(
                        (conn.in_owner, src[1], conn.in_port),
                        (conn.out_owner, tgt[1], conn.out_port),
                        _in_unit(step, conn.span),
                    )
                except ResolveError as errr:
                    self.err(name, errr.message, errr.span)
                    continue
                connection.setdefault((conn.in_owner, conn.in_port), set()).add(
                    (conn.out_owner, conn.out_port)
                )
            config = ArchConfiguration(snapshots.values(), connection)
            if len(self.diagnostics) == reported:
                resolved[key] = config
            steps.append(config)
            all_snapshots.update(snapshots.values())
        if self._failed():
            return None
        for cid, (iface_name, interface, locals_) in sorted(components.items()):
            if cid not in ever_active:
                all_snapshots.add(
                    make_snapshot(
                        cid,
                        local=locals_,
                        inputs={p: frozenset() for p in interface.inputs},
                        outputs={p: frozenset() for p in interface.outputs},
                    )
                )
        universe = ComponentUniverse(all_snapshots)
        by_iface: dict = {iface: set() for iface in self.interfaces}
        for snap in universe.snapshots:
            iface_name = components[snap.id][0]
            by_iface[iface_name].add(identity_interpretation(snap))
        J = SpecInterpretation({k: frozenset(v) for k, v in by_iface.items()})
        trace = ConfigurationTrace(universe, steps)
        return TraceData(name=name, trace=trace, interpretation=J)

    def _resolve_active(self, name, components, active: ActiveDecl, span):
        """The snapshot of one `active` block, or None after a diagnostic
        at ``span``, the block's span in the unit."""
        comp = components.get(active.id)
        if comp is None:
            self.err(name, f"undeclared component {active.id!r}", span)
            return None
        iface_name, interface, locals_ = comp
        io_values = {p: frozenset() for p in interface.inputs}
        io_values.update({p: frozenset() for p in interface.outputs})
        ok = True
        for port, value_expr in active.valuations:
            if port in interface.local:
                self.err(
                    name,
                    f"local port {port!r} is fixed by the component"
                    " declaration",
                    span,
                )
                ok = False
                continue
            if port not in interface.inputs | interface.outputs:
                self.err(
                    name,
                    f"{port!r} is not a port of interface {iface_name!r}",
                    span,
                )
                ok = False
                continue
            try:
                io_values[port] = _message_set(value_expr)
            except ResolveError as errr:
                self.err(name, errr.message, errr.span or span)
                ok = False
        if not ok:
            return None
        return make_snapshot(
            active.id,
            local=locals_,
            inputs={p: io_values[p] for p in interface.inputs},
            outputs={p: io_values[p] for p in interface.outputs},
        )


def _in_unit(step: StepDecl, span: Optional[Span]) -> Optional[Span]:
    """``span`` of a line inside a parsed ``step``, which counts lines from
    the step's own line, as a span of the unit."""
    if span is None or step.span is None:
        return span
    return Span(step.span.line + span.line, span.column, span.end_column)


def resolve(units):
    """Resolve parsed units into a bundle; (bundle | None, diagnostics)."""
    resolver = Resolver(units)
    bundle = resolver.run()
    diagnostics = sorted(
        resolver.diagnostics,
        key=lambda d: (
            d.unit or "",
            d.span.line if d.span else 0,
            d.span.column if d.span else 0,
            d.message,
        ),
    )
    if any(d.severity == "error" for d in diagnostics):
        return None, diagnostics
    return bundle, diagnostics
