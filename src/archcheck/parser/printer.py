"""Canonical text rendering of source units.

`parse_unit(print_unit(u))` reproduces `u` up to structural equality; the
printer emits ASCII operators and the section order of `SECTIONS`.
"""
from __future__ import annotations

from .syntax import (
    BINARY_LEVEL,
    DiagramBody,
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
    PREFIX_LEVEL,
    RIGHT_ASSOC,
    RName,
    RPair,
    RSet,
    SECTIONS,
    SortRef,
    SourceUnit,
    TraceBody,
)

_COMPARE_LEVEL = 7


def print_sort(ref: SortRef) -> str:
    if isinstance(ref, RName):
        return ref.name
    if isinstance(ref, RSet):
        return f"set({print_sort(ref.element)})"
    if isinstance(ref, RPair):
        return f"pair({print_sort(ref.first)}, {print_sort(ref.second)})"
    raise TypeError(f"not a sort reference: {ref!r}")


def print_expr(expr, required: int = 0) -> str:
    text, level = _render(expr)
    if level < required:
        return f"({text})"
    return text


def _render(expr):
    if isinstance(expr, EName):
        return expr.name, 9
    if isinstance(expr, ENum):
        return str(expr.value), 9
    if isinstance(expr, EBool):
        return ("true" if expr.value else "false"), 9
    if isinstance(expr, EDot):
        return f"{expr.base}.{expr.attr}", 9
    if isinstance(expr, EApply):
        args = ", ".join(print_expr(a, 0) for a in expr.args)
        return f"{expr.name}({args})", 9
    if isinstance(expr, EPair):
        return f"({print_expr(expr.first, 0)}, {print_expr(expr.second, 0)})", 9
    if isinstance(expr, ESet):
        inner = ", ".join(print_expr(e, 0) for e in expr.items)
        return "{" + (f" {inner} " if inner else "") + "}", 9
    if isinstance(expr, EUnary):
        return f"{expr.op} {print_expr(expr.operand, PREFIX_LEVEL)}", PREFIX_LEVEL
    if isinstance(expr, EBinary):
        if expr.op in ("==", "in"):
            left = print_expr(expr.left, 8)
            right = print_expr(expr.right, 8)
            return f"{left} {expr.op} {right}", _COMPARE_LEVEL
        level = BINARY_LEVEL[expr.op]
        if expr.op in RIGHT_ASSOC:
            left = print_expr(expr.left, level + 1)
            right = print_expr(expr.right, level)
        else:
            left = print_expr(expr.left, level)
            right = print_expr(expr.right, level + 1)
        return f"{left} {expr.op} {right}", level
    if isinstance(expr, EQuant):
        if expr.bound is not None:
            if len(expr.names) == 2:
                binder = f"({expr.names[0]}, {expr.names[1]})"
            else:
                binder = expr.names[0]
            head = f"{expr.kind} {binder} in {print_expr(expr.bound, 8)}"
            body = print_expr(expr.body, 0)
            if isinstance(expr.bound, EName):
                # a bare-name bound would greedily absorb a leading dotted
                # read of the body; parenthesizing the body keeps the binder
                # dot unambiguous
                body = f"({body})"
            return f"{head} . {body}", 0
        head = f"{expr.kind} {expr.names[0]}"
        if expr.annotation is not None:
            head += f" : {print_sort(expr.annotation)}"
        return f"{head} . {print_expr(expr.body, 0)}", 0
    if isinstance(expr, EActive):
        return f"active({expr.var})", 9
    if isinstance(expr, EConn):
        return (
            f"conn({expr.in_var}.{expr.in_port} <- {expr.out_var}.{expr.out_port})",
            9,
        )
    if isinstance(expr, EIRConn):
        return (
            f"irconn({expr.in_interface}.{expr.in_port}"
            f" <- {expr.out_interface}.{expr.out_port})",
            9,
        )
    if isinstance(expr, EMin):
        return f"min({expr.interface}, {expr.count})", 9
    if isinstance(expr, EMax):
        return f"max({expr.interface}, {expr.count})", 9
    if isinstance(expr, EMinMax):
        return f"minmax({expr.interface}, {expr.low}, {expr.high})", 9
    if isinstance(expr, EWellFounded):
        return f"well-founded({expr.symbol})", 9
    raise TypeError(f"not an expression: {expr!r}")


def _symbol_line(sym) -> str:
    args = " * ".join(print_sort(a) for a in sym.args)
    if sym.result is None:
        return f"{sym.name} : {args}"
    if args:
        return f"{sym.name} : {args} -> {print_sort(sym.result)}"
    return f"{sym.name} : -> {print_sort(sym.result)}"


def _entry_head(entry) -> str:
    args = ", ".join(print_expr(a) for a in entry.args)
    return f"{entry.symbol}({args})" if entry.args else entry.symbol


def _axiom_line(axiom) -> str:
    return print_expr(axiom.expr)


def _decl_line(decl) -> str:
    return f"{', '.join(decl.names)} : {print_sort(decl.sort)}"


# The text of one line under a section header, by line kind (SECTIONS)
_LINE_PRINTERS = {
    "symbol": _symbol_line,
    "var": _decl_line,
    "port": _decl_line,
    "axiom": _axiom_line,
    "carrier": lambda carrier: f"{carrier.sort} = {{ {', '.join(carrier.elements)} }}",
    "function": lambda entry: f"{_entry_head(entry)} = {print_expr(entry.value)}",
    "predicate": _entry_head,
}


def print_unit(unit: SourceUnit) -> str:
    out = [f"{unit.kind} {unit.name}"]
    if unit.imports:
        out.append(f"imports {', '.join(unit.imports)}")
    body = unit.body
    for header, field, line in SECTIONS.get(unit.kind, ()):
        items = getattr(body, field)
        if not items:
            continue
        if line == "role":
            out.append(f"{header} {', '.join(items)}")
        elif line == "names":
            out.extend((header, f"  {', '.join(items)}"))
        else:
            out.append(header)
            out.extend(f"  {_LINE_PRINTERS[line](item)}" for item in items)
    if isinstance(body, DiagramBody):
        for iface in body.interfaces:
            suffix = _minmax_suffix(iface.minmax)
            out.append(f"interface {iface.name}{suffix}")
            if iface.local:
                out.append(f"  local {', '.join(iface.local)}")
            if iface.inputs:
                out.append(f"  inputs {', '.join(iface.inputs)}")
            if iface.outputs:
                out.append(f"  outputs {', '.join(iface.outputs)}")
        for ann in body.rigid_annotations:
            out.append(f"rigid {ann.interface} : {', '.join(ann.vars)}")
        for conn in body.connects:
            out.append(
                f"connect {conn.in_owner}.{conn.in_port}"
                f" <- {conn.out_owner}.{conn.out_port}"
            )
        for iface, axioms in body.axioms:
            out.append(f"axioms {iface}")
            out.extend(f"  {_axiom_line(axiom)}" for axiom in axioms)
    elif isinstance(body, TraceBody):
        if body.components:
            out.append("components")
            for comp in body.components:
                line = f"  {comp.id} : {comp.interface}"
                if comp.locals:
                    parts = ", ".join(
                        f"{port} = {print_expr(value)}" for port, value in comp.locals
                    )
                    line += f" with {parts}"
                out.append(line)
        # a step that repeats one object (as ``trace_unit`` shares them) is
        # rendered once; the body keeps each keyed step alive
        rendered: dict[int, str] = {}
        for step in body.steps:
            text = rendered.get(id(step))
            if text is None:
                lines = ["step"]
                for active in step.actives:
                    lines.append(f"  active {active.id}")
                    for port, value in active.valuations:
                        lines.append(f"    {port} = {print_expr(value)}")
                for conn in step.connects:
                    lines.append(
                        f"  connect {conn.in_owner}.{conn.in_port}"
                        f" <- {conn.out_owner}.{conn.out_port}"
                    )
                text = rendered[id(step)] = "\n".join(lines)
            out.append(text)
    return "\n".join(out) + "\n"


def _minmax_suffix(minmax) -> str:
    if minmax is None:
        return ""
    low, high = minmax
    if low is not None and low == high:
        return f" [{low}]"
    if low is None:
        return f" [..{high}]"
    if high is None:
        return f" [{low}..]"
    return f" [{low}..{high}]"
