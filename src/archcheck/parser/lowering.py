"""Lowering from the semantic AST back onto raw syntax, for printing.

The inverse direction of the resolver, used to render desugared diagram
assertions in concrete syntax.  Flexible quantifiers come out with inline
interface/sort annotations so the printed text resolves without extra
variable declarations.
"""
from __future__ import annotations

from .. import algebra as ALG
from .. import constraints as CON
from ..interfaces import PortSym
from .resolver import OPERATOR_CLASSES
from .syntax import (
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
    EPair,
    EQuant,
    ESet,
    EUnary,
    EWellFounded,
    PREFIX_OPERATORS,
    RName,
    RPair,
    RSet,
)


def lower_sort(sort: ALG.Sort):
    if isinstance(sort, ALG.BaseSort):
        return RName(sort.name)
    if isinstance(sort, ALG.SetSort):
        return RSet(lower_sort(sort.element))
    if isinstance(sort, ALG.PairSort):
        return RPair(lower_sort(sort.first), lower_sort(sort.second))
    raise TypeError(f"not a sort: {sort!r}")


def lower_term(term):
    if isinstance(term, ALG.Var):
        return EName(term.name)
    if isinstance(term, ALG.Apply):
        if not term.args:
            return EName(term.symbol)
        return EApply(term.symbol, (lower_term(a) for a in term.args))
    if isinstance(term, ALG.PairTerm):
        return EPair(lower_term(term.first), lower_term(term.second))
    if isinstance(term, ALG.SetTerm):
        return ESet(lower_term(e) for e in term.elements)
    if isinstance(term, PortSym):
        return EName(term.port)
    if isinstance(term, CON.PortRead):
        return EDot(term.var, term.port)
    raise TypeError(f"not a term: {term!r}")


# Each operator class's spelling: a state connective prints like its trace
# counterpart.
_SPELLING = {
    cls: op for op, classes in OPERATOR_CLASSES.items() for cls in classes if cls
}


def lower_formula(node):
    op = _SPELLING.get(type(node))
    if op is not None:
        parts = [lower_formula(part) for part in ALG.children(node)]
        if op in PREFIX_OPERATORS:
            return EUnary(op, parts[0])
        out = parts[0]
        for part in parts[1:]:
            out = EBinary(op, out, part)
        return out
    shape = getattr(node, "SHAPE", None)
    if shape is not None:
        kind, over = shape
        if over == "set":
            source = lower_term(node.source)
            return EQuant(kind, node.vars, None, source, lower_formula(node.body))
        if over == "interface":
            annotation = RName(node.interface)
        else:
            annotation = lower_sort(node.sort)
        return EQuant(kind, (node.var,), annotation, None, lower_formula(node.body))
    if isinstance(node, CON.State):
        return lower_formula(node.formula)
    if isinstance(node, ALG.BoolLit):
        return EBool(node.value)
    if isinstance(node, ALG.PredAtom):
        return EApply(node.symbol, (lower_term(a) for a in node.args))
    if isinstance(node, ALG.Equals):
        return EBinary("==", lower_term(node.left), lower_term(node.right))
    if isinstance(node, ALG.Member):
        return EBinary("in", lower_term(node.element), lower_term(node.collection))
    if isinstance(node, ALG.WellFounded):
        return EWellFounded(node.symbol)
    if isinstance(node, CON.CompEquals):
        return EBinary("==", EName(node.left), EName(node.right))
    if isinstance(node, CON.Active):
        return EActive(node.var)
    if isinstance(node, CON.Conn):
        return EConn(node.in_var, node.in_port, node.out_var, node.out_port)
    if isinstance(node, CON.IRConn):
        return EIRConn(
            node.in_interface, node.in_port, node.out_interface, node.out_port
        )
    if isinstance(node, CON.Min):
        return EMin(node.interface, node.count)
    if isinstance(node, CON.Max):
        return EMax(node.interface, node.count)
    if isinstance(node, CON.MinMax):
        return EMinMax(node.interface, node.low, node.high)
    raise TypeError(f"not a formula: {node!r}")
