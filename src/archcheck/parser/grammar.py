"""Recursive-descent parser for `.arch` source units.

One unit per file.  Recovery is per line: a malformed line yields one error
diagnostic and parsing resumes on the next line; any error makes the whole
unit a failure (no partially parsed units escape).

Lines are lexed only when the parser reaches them.  In a trace unit, a
step-section line (`step`, `active`, `connect` or a port valuation with a
ground value) whose raw text was parsed before in the same unit is replayed
from a table and neither lexed nor parsed again; its step, `ActiveDecl` or
`ConnectDecl` still gets a span at its own line.  The ground valuation nodes
are shared between equal lines, so their inner spans point at the first
equal line.  No diagnostic reads those spans: the resolver reports only
values that are not ground, and those are never replayed.  A line that drew
a diagnostic is never stored either.
"""
from __future__ import annotations

from typing import Optional

from .lexer import Token, lex_line
from .syntax import (
    ActiveDecl,
    AlgebraBody,
    AxiomDecl,
    BINARY_LEVEL,
    CarrierDecl,
    ComponentDecl,
    ConnectDecl,
    ConstraintsBody,
    DatatypeBody,
    Diagnostic,
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
    InterfaceBody,
    InterfaceDecl,
    PREFIX_LEVEL,
    PREFIX_OPERATORS,
    PortDecl,
    PortSpecBody,
    RIGHT_ASSOC,
    RName,
    RPair,
    RSet,
    RigidAnnDecl,
    SortRef,
    SourceUnit,
    Span,
    StepDecl,
    SymbolDecl,
    TableEntry,
    TraceBody,
    UNIT_KINDS,
    VarDecl,
)

# Deepest nesting of a formula or sort expression on one line.  Every
# parenthesis, set literal, argument list, prefix operator, quantifier and
# binary operator opens one more level; past the limit the line gets a parse
# diagnostic, which keeps every later recursive pass within Python's stack.
MAX_NESTING = 64

FORMULA_KEYWORDS = {
    "forall", "exists", "in", "not", "and", "or", "true", "false",
    "X", "F", "G", "U", "W",
    "active", "conn", "irconn", "min", "max", "minmax",
}


class LineError(Exception):
    def __init__(self, message: str, span: Optional[Span]):
        super().__init__(message)
        self.message = message
        self.span = span


class Cursor:
    """Token cursor over a single line."""

    def __init__(self, tokens: list[Token], line_no: int, text: str = ""):
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no
        self.text = text  # the line, stripped
        self.depth = 0

    def peek(self, offset=0) -> Optional[Token]:
        index = self.pos + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def at(self, text: str, offset=0) -> bool:
        token = self.peek(offset)
        return token is not None and token.text == text

    def at_ident(self, offset=0) -> bool:
        token = self.peek(offset)
        return token is not None and token.kind == "ident"

    def take(self) -> Token:
        token = self.peek()
        if token is None:
            raise LineError("unexpected end of line", self.end_span())
        self.pos += 1
        return token

    def expect(self, text: str) -> Token:
        token = self.peek()
        if token is None or token.text != text:
            got = token.text if token else "end of line"
            raise LineError(f"expected {text!r}, got {got!r}",
                            token.span if token else self.end_span())
        return self.take()

    def expect_ident(self, what="identifier") -> Token:
        token = self.peek()
        if token is None or token.kind != "ident":
            got = token.text if token else "end of line"
            raise LineError(f"expected {what}, got {got!r}",
                            token.span if token else self.end_span())
        return self.take()

    def expect_number(self) -> int:
        token = self.peek()
        if token is None or token.kind != "number":
            got = token.text if token else "end of line"
            raise LineError(f"expected a number, got {got!r}",
                            token.span if token else self.end_span())
        self.take()
        return int(token.text)

    def expect_end(self):
        token = self.peek()
        if token is not None:
            raise LineError(f"unexpected trailing {token.text!r}", token.span)

    def nest(self):
        """Open one more nesting level; the caller closes it with depth -= 1."""
        if self.depth == MAX_NESTING:
            token = self.peek()
            raise LineError(
                f"nested deeper than {MAX_NESTING} levels",
                token.span if token else self.end_span(),
            )
        self.depth += 1

    def end_span(self) -> Span:
        if self.tokens:
            last = self.tokens[-1].span
            return Span(last.line, last.end_column, last.end_column + 1)
        return Span(self.line_no, 1, 2)


# ---------------------------------------------------------------------------
# Expressions


def parse_formula(cur: Cursor, level: int = 1):
    """A formula whose binary operators are at ``level`` of ``BINARY_LEVEL``
    or tighter.  Each operator opens one more nesting level: a left-grouping
    chain keeps its levels open to its end, and a right-grouping operator
    closes its level after its right operand."""
    if level == PREFIX_LEVEL:
        return _parse_unary(cur)
    depth = cur.depth
    left = parse_formula(cur, level + 1)
    token = cur.peek()
    while token is not None and BINARY_LEVEL.get(token.text) == level:
        cur.take()
        cur.nest()
        tighter = level if token.text in RIGHT_ASSOC else level + 1
        left = EBinary(token.text, left, parse_formula(cur, tighter), span=token.span)
        token = cur.peek()
    cur.depth = depth
    return left


def _parse_unary(cur: Cursor):
    cur.nest()
    token = cur.peek()
    if token is not None and token.text in PREFIX_OPERATORS:
        cur.take()
        node = EUnary(token.text, _parse_unary(cur), span=token.span)
    elif token is not None and token.text in ("forall", "exists"):
        node = _parse_quantifier(cur)
    else:
        node = _parse_compare(cur)
    cur.depth -= 1
    return node


def _parse_quantifier(cur: Cursor):
    kw = cur.take()
    names: list[str] = []
    annotation = None
    bound = None
    if cur.at("("):
        cur.take()
        names.append(cur.expect_ident("variable").text)
        cur.expect(",")
        names.append(cur.expect_ident("variable").text)
        cur.expect(")")
        cur.expect("in")
        bound = _parse_bound_term(cur)
    else:
        names.append(cur.expect_ident("variable").text)
        if cur.at(":"):
            cur.take()
            annotation = parse_sortref(cur)
        if cur.at("in"):
            if annotation is not None:
                raise LineError(
                    "a quantifier takes either a sort annotation or a bound,"
                    " not both",
                    cur.peek().span,
                )
            cur.take()
            bound = _parse_bound_term(cur)
    cur.expect(".")
    body = parse_formula(cur)
    return EQuant(kw.text, tuple(names), annotation, bound, body, span=kw.span)


def _parse_bound_term(cur: Cursor):
    """A set-valued term before the binder dot of a bounded quantifier.

    The dot doubles as the port-read separator, so an identifier only takes
    a ``.port`` suffix here when yet another dot follows (the binder's).
    """
    token = cur.peek()
    if token is not None and token.kind == "ident" and not cur.at("(", 1):
        cur.take()
        if cur.at(".") and cur.at_ident(1) and cur.at(".", 2):
            cur.take()
            attr = cur.take()
            return EDot(token.text, attr.text, span=token.span)
        return EName(token.text, span=token.span)
    return _parse_primary(cur)


def _parse_compare(cur: Cursor):
    left = _parse_primary(cur)
    if cur.at("==") or cur.at("="):
        span = cur.take().span
        return EBinary("==", left, _parse_primary(cur), span=span)
    if cur.at("in"):
        span = cur.take().span
        return EBinary("in", left, _parse_primary(cur), span=span)
    return left


def _parse_primary(cur: Cursor):
    token = cur.peek()
    if token is None:
        raise LineError("unexpected end of line", cur.end_span())
    if token.text == "(":
        cur.take()
        first = parse_formula(cur)
        if cur.at(","):
            cur.take()
            second = parse_formula(cur)
            cur.expect(")")
            return EPair(first, second, span=token.span)
        cur.expect(")")
        return first
    if token.text == "{":
        cur.take()
        items = _parse_list(cur, parse_formula, "}")
        cur.expect("}")
        return ESet(tuple(items), span=token.span)
    if token.text == "true":
        cur.take()
        return EBool(True, span=token.span)
    if token.text == "false":
        cur.take()
        return EBool(False, span=token.span)
    if token.kind == "number":
        cur.take()
        return ENum(int(token.text), span=token.span)
    if token.kind == "wf":
        cur.take()
        cur.expect("(")
        symbol = cur.expect_ident("relation symbol").text
        cur.expect(")")
        return EWellFounded(symbol, span=token.span)
    if token.text == "active":
        cur.take()
        cur.expect("(")
        var = cur.expect_ident("component variable").text
        cur.expect(")")
        return EActive(var, span=token.span)
    if token.text in ("conn", "irconn"):
        cur.take()
        cur.expect("(")
        link = _parse_link(cur)
        cur.expect(")")
        cls = EConn if token.text == "conn" else EIRConn
        return cls(*link, span=token.span)
    if token.text in ("min", "max"):
        cur.take()
        cur.expect("(")
        iface = cur.expect_ident("interface").text
        cur.expect(",")
        count = cur.expect_number()
        cur.expect(")")
        cls = EMin if token.text == "min" else EMax
        return cls(iface, count, span=token.span)
    if token.text == "minmax":
        cur.take()
        cur.expect("(")
        iface = cur.expect_ident("interface").text
        cur.expect(",")
        low = cur.expect_number()
        cur.expect(",")
        high = cur.expect_number()
        cur.expect(")")
        return EMinMax(iface, low, high, span=token.span)
    if token.kind == "ident":
        cur.take()
        if cur.at("("):
            cur.take()
            args = _parse_list(cur, parse_formula, ")")
            cur.expect(")")
            return EApply(token.text, tuple(args), span=token.span)
        if cur.at(".") and cur.at_ident(1):
            cur.take()
            attr = cur.take()
            return EDot(token.text, attr.text, span=token.span)
        return EName(token.text, span=token.span)
    raise LineError(f"unexpected {token.text!r}", token.span)


def parse_sortref(cur: Cursor) -> SortRef:
    token = cur.expect_ident("sort")
    if token.text not in ("set", "pair"):
        return RName(token.text, span=token.span)
    cur.expect("(")
    cur.nest()
    if token.text == "set":
        sort = RSet(parse_sortref(cur), span=token.span)
    else:
        first = parse_sortref(cur)
        cur.expect(",")
        sort = RPair(first, parse_sortref(cur), span=token.span)
    cur.depth -= 1
    cur.expect(")")
    return sort


def _header(cur: Cursor) -> Optional[str]:
    """The line's words when it may be a section header (at most two)."""
    if len(cur.tokens) > 2:
        return None
    return " ".join([token.text for token in cur.tokens])


def _parse_list(cur: Cursor, item, close=None) -> list:
    """Items separated by commas; none when the next token is ``close``."""
    if close is not None and cur.at(close):
        return []
    items = [item(cur)]
    while cur.at(","):
        cur.take()
        items.append(item(cur))
    return items


def _ident(cur: Cursor) -> str:
    return cur.expect_ident().text


def _parse_names(cur: Cursor) -> list[str]:
    """A line that is a list of names."""
    names = _parse_list(cur, _ident)
    cur.expect_end()
    return names


def _parse_var_decl(cur: Cursor, cls=VarDecl):
    """``names : sort``, as a ``VarDecl`` or, given ``PortDecl``, as that."""
    span = cur.peek().span
    names = _parse_list(cur, _ident)
    cur.expect(":")
    sort = parse_sortref(cur)
    cur.expect_end()
    return cls(tuple(names), sort, span=span)


def _parse_port_decl(cur: Cursor) -> PortDecl:
    return _parse_var_decl(cur, PortDecl)


def _parse_axiom(cur: Cursor) -> AxiomDecl:
    span = cur.peek().span
    expr = parse_formula(cur)
    cur.expect_end()
    return AxiomDecl(expr, text=cur.text, span=span)


def _parse_symbol_decl(cur: Cursor) -> SymbolDecl:
    name = cur.expect_ident("symbol name")
    cur.expect(":")
    if cur.at("->"):
        cur.take()
        result = parse_sortref(cur)
        cur.expect_end()
        return SymbolDecl(name.text, (), result, span=name.span)
    args = [parse_sortref(cur)]
    while cur.at("*"):
        cur.take()
        args.append(parse_sortref(cur))
    result = None
    if cur.at("->"):
        cur.take()
        result = parse_sortref(cur)
    cur.expect_end()
    return SymbolDecl(name.text, tuple(args), result, span=name.span)


def _parse_carrier(cur: Cursor) -> CarrierDecl:
    span = cur.peek().span
    sort = cur.expect_ident("sort").text
    cur.expect("=")
    cur.expect("{")
    elements = _parse_list(cur, _ident, "}")
    cur.expect("}")
    cur.expect_end()
    return CarrierDecl(sort, tuple(elements), span=span)


def _parse_function_entry(cur: Cursor) -> TableEntry:
    span = cur.peek().span
    name = cur.expect_ident("function symbol").text
    args: list = []
    if cur.at("("):
        cur.take()
        args = _parse_list(cur, _parse_primary, ")")
        cur.expect(")")
    cur.expect("=")
    value = _parse_primary(cur)
    cur.expect_end()
    return TableEntry(name, tuple(args), value, span=span)


def _parse_predicate_entry(cur: Cursor) -> TableEntry:
    span = cur.peek().span
    name = cur.expect_ident("predicate symbol").text
    cur.expect("(")
    args = _parse_list(cur, _parse_primary, ")")
    cur.expect(")")
    cur.expect_end()
    return TableEntry(name, tuple(args), None, span=span)


def _parse_valuation(cur: Cursor) -> tuple:
    """``port = value``."""
    port = cur.expect_ident("port").text
    cur.expect("=")
    return port, _parse_primary(cur)


def _parse_link(cur: Cursor) -> tuple[str, str, str, str]:
    """``owner.port <- owner.port``."""
    in_owner = _ident(cur)
    cur.expect(".")
    in_port = _ident(cur)
    cur.expect("<-")
    out_owner = _ident(cur)
    cur.expect(".")
    return in_owner, in_port, out_owner, _ident(cur)


def _parse_connect(cur: Cursor) -> ConnectDecl:
    span = cur.expect("connect").span
    link = _parse_link(cur)
    cur.expect_end()
    return ConnectDecl(*link, span=span)


def _parse_minmax_suffix(cur: Cursor):
    """``[n]``, ``[n..m]``, ``[n..]``, or ``[..m]`` after an interface name."""
    span = cur.expect("[").span
    low = high = None
    if cur.peek() is not None and cur.peek().kind == "number":
        low = cur.expect_number()
    if cur.at(".."):
        cur.take()
        if cur.peek() is not None and cur.peek().kind == "number":
            high = cur.expect_number()
    else:
        high = low
    cur.expect("]")
    if low is None and high is None:
        raise LineError("empty min-max annotation", span)
    return (low, high)


# ---------------------------------------------------------------------------
# Unit parsing


class _UnitParser:
    def __init__(self, text: str):
        self.diagnostics: list[Diagnostic] = []
        self.raw_lines = text.splitlines()
        self.index = 0  # next raw line to read
        self.peeked = None  # (line, index after it), set by peek_line

    def error(self, message, span=None):
        self.diagnostics.append(Diagnostic("error", "parse", message, span))

    def next_line(self):
        """Lex and return the next line with tokens, or None at the end.

        Lines are lexed only when the parser reaches them; a line that fails
        to lex gets its diagnostic here and is skipped.
        """
        if self.peeked is not None:
            line, self.index = self.peeked
            self.peeked = None
            return line
        while self.index < len(self.raw_lines):
            raw = self.raw_lines[self.index]
            self.index += 1
            if not raw or raw.isspace():
                continue
            tokens, diag = lex_line(raw, self.index)
            if diag is not None:
                self.diagnostics.append(diag)
            elif tokens:
                return self.index, raw.strip(), tokens
        return None

    def peek_line(self):
        if self.peeked is None:
            start = self.index
            line = self.next_line()
            self.peeked = (line, self.index)
            self.index = start
        return self.peeked[0]

    def parse(self):
        header = self.next_line()
        if header is None:
            self.error("expected unit header")
            return None
        _, _, tokens = header
        cur = Cursor(tokens, header[0])
        try:
            kind_tok = cur.expect_ident("unit kind")
            if kind_tok.text not in UNIT_KINDS:
                raise LineError(
                    f"unknown unit kind {kind_tok.text!r}", kind_tok.span
                )
            name = cur.expect_ident("unit name").text
            cur.expect_end()
        except LineError as err:
            self.error(err.message, err.span)
            while self.next_line() is not None:  # lex diagnostics still count
                pass
            return None
        kind = kind_tok.text
        imports = self._parse_imports()
        body = getattr(self, f"_parse_{kind}")()
        if any(d.severity == "error" for d in self.diagnostics):
            return None
        return SourceUnit(kind=kind, name=name, imports=tuple(imports), body=body)

    def _parse_imports(self):
        imports = []
        while True:
            line = self.peek_line()
            if line is None or line[2][0].text != "imports":
                return imports
            self.next_line()
            cur = Cursor(line[2], line[0])
            cur.take()
            try:
                imports.extend(_parse_names(cur))
            except LineError as err:
                self.error(err.message, err.span)

    def _each_line(self, handler, replay=None):
        """Feed every remaining line to handler with per-line recovery.

        A handler may return an entry for the line it parsed; the entry is
        stored under the line's raw text.  A later line with the same text
        is then neither lexed nor parsed: ``replay(entry, line_no)`` applies
        the entry, and when it returns False the line takes the normal path
        after all.
        """
        table: dict = {}
        while True:
            if table and self.peeked is None and self.index < len(self.raw_lines):
                entry = table.get(self.raw_lines[self.index])
                if entry is not None and replay(entry, self.index + 1):
                    self.index += 1
                    continue
            line = self.next_line()
            if line is None:
                return
            line_no, text, tokens = line
            try:
                entry = handler(Cursor(tokens, line_no, text))
            except LineError as err:
                self.error(err.message, err.span)
                continue
            if entry is not None:
                table[self.raw_lines[line_no - 1]] = entry

    def _parse_sections(self, sections, expected, roles=()):
        """Parse a body of sections, each opened by a header line.

        ``sections`` maps each header to the parser of a line under it.  A
        line that starts with one of ``roles`` lists names and may stand
        anywhere.  Returns the parsed lines by header and the names by role.
        """
        found = {key: [] for key in (*sections, *roles)}
        section = None

        def handler(cur: Cursor):
            nonlocal section
            head = cur.peek()
            header = _header(cur)
            if header in sections:
                section = header
            elif head.text in roles:
                cur.take()
                found[head.text].extend(_parse_names(cur))
            elif section is None:
                raise LineError(expected, head.span)
            else:
                found[section].append(sections[section](cur))

        self._each_line(handler)
        return found

    def _parse_datatype(self):
        found = self._parse_sections(
            {
                "sorts": _parse_names,
                "symbols": _parse_symbol_decl,
                "vars": _parse_var_decl,
                "axioms": _parse_axiom,
            },
            "expected a section header (sorts, symbols, vars, axioms)",
        )
        sorts = [sort for line in found["sorts"] for sort in line]
        return DatatypeBody(sorts, found["symbols"], found["vars"], found["axioms"])

    def _parse_portspec(self):
        found = self._parse_sections(
            {"ports": _parse_port_decl}, "expected the `ports` section header"
        )
        return PortSpecBody(found["ports"])

    def _parse_interface(self):
        found = self._parse_sections(
            {
                "ports": _parse_port_decl,
                "vars": _parse_var_decl,
                "axioms": _parse_axiom,
            },
            "expected ports/vars/axioms section or local/inputs/outputs",
            roles=("local", "inputs", "outputs"),
        )
        return InterfaceBody(**found)

    def _parse_constraints(self):
        found = self._parse_sections(
            {
                "vars": _parse_var_decl,
                "rigid vars": _parse_var_decl,
                "axioms": _parse_axiom,
            },
            "expected vars, rigid vars, or axioms section",
        )
        return ConstraintsBody(found["vars"], found["rigid vars"], found["axioms"])

    def _parse_algebra(self):
        found = self._parse_sections(
            {
                "carriers": _parse_carrier,
                "functions": _parse_function_entry,
                "predicates": _parse_predicate_entry,
            },
            "expected carriers, functions, or predicates section",
        )
        return AlgebraBody(**found)

    # -- diagram ----------------------------------------------------------

    def _parse_diagram(self):
        sections = {
            "ports": _parse_port_decl,
            "vars": _parse_var_decl,
            "rigid vars": _parse_var_decl,
        }
        found = {header: [] for header in sections}
        interfaces, rigid_ann, connects, axioms = [], [], [], []
        # What the next lines add to: a section, the roles of an interface
        # block, or the axioms of an interface.
        section = iface = block = None

        def handler(cur: Cursor):
            nonlocal section, iface, block
            head = cur.peek()
            header = _header(cur)
            if head.text in ("local", "inputs", "outputs"):
                if iface is None:
                    raise LineError(
                        f"{head.text!r} outside an interface block", head.span
                    )
                cur.take()
                iface[head.text].extend(_parse_names(cur))
                return
            if header in sections or head.text in (
                "rigid", "interface", "connect", "axioms"
            ):
                section = iface = block = None
            if header in sections:
                section = header
            elif head.text == "rigid":
                cur.take()
                name = cur.expect_ident("interface").text
                cur.expect(":")
                names = _parse_names(cur)
                rigid_ann.append(RigidAnnDecl(name, tuple(names), span=head.span))
            elif head.text == "interface":
                cur.take()
                name = cur.expect_ident("interface name").text
                minmax = _parse_minmax_suffix(cur) if cur.at("[") else None
                cur.expect_end()
                iface = {
                    "name": name, "minmax": minmax, "span": head.span,
                    "local": [], "inputs": [], "outputs": [],
                }
                interfaces.append(iface)
            elif head.text == "connect":
                connects.append(_parse_connect(cur))
            elif head.text == "axioms":
                cur.take()
                name = cur.expect_ident("interface").text
                cur.expect_end()
                block = []
                axioms.append((name, block))
            elif block is not None:
                block.append(_parse_axiom(cur))
            elif section is not None:
                found[section].append(sections[section](cur))
            else:
                raise LineError("unexpected line in diagram unit", head.span)

        self._each_line(handler)
        return DiagramBody(
            ports=found["ports"],
            vars=found["vars"],
            rigid_vars=found["rigid vars"],
            interfaces=[InterfaceDecl(**builder) for builder in interfaces],
            rigid_annotations=rigid_ann,
            connects=connects,
            axioms=axioms,
        )

    # -- trace ----------------------------------------------------------

    def _parse_trace(self):
        components: list[ComponentDecl] = []
        steps: list[dict] = []
        section = [None]  # None | "components" | "step"

        # Each step-section line yields an entry (kind, payload, column,
        # end_column) that holds no line number, so _each_line can replay it
        # for every later line with the same text.
        def handler(cur: Cursor):
            head = cur.peek()
            if head.text == "components" and cur.peek(1) is None:
                section[0] = "components"
                return None
            if head.text == "step" and cur.peek(1) is None:
                entry = ("step", None, head.span.column, head.span.end_column)
                replay(entry, head.span.line)
                return entry
            if section[0] == "components":
                cid = cur.expect_ident("component id").text
                cur.expect(":")
                iface = cur.expect_ident("interface").text
                locals_: list = []
                if cur.at("with"):
                    cur.take()
                    locals_ = _parse_list(cur, _parse_valuation)
                cur.expect_end()
                components.append(
                    ComponentDecl(cid, iface, tuple(locals_), span=head.span)
                )
                return None
            if section[0] == "step":
                step = steps[-1]
                if head.text == "active":
                    cur.take()
                    cid = cur.expect_ident("component id").text
                    cur.expect_end()
                    entry = ("active", cid, head.span.column, head.span.end_column)
                elif head.text == "connect":
                    conn = _parse_connect(cur)
                    entry = (
                        "connect",
                        (conn.in_owner, conn.in_port, conn.out_owner, conn.out_port),
                        head.span.column,
                        head.span.end_column,
                    )
                else:
                    # port valuation line inside the latest `active` block
                    if not step["actives"]:
                        raise LineError(
                            "port valuations must follow an `active` line",
                            head.span,
                        )
                    port, value = _parse_valuation(cur)
                    cur.expect_end()
                    step["actives"][-1]["vals"].append((port, value))
                    # A value that is not ground draws a resolver diagnostic
                    # at its own span, so only ground values are replayed.
                    if not _is_ground(value):
                        return None
                    return ("value", (port, value), 0, 0)
                replay(entry, head.span.line)
                return entry
            raise LineError("expected components or step section", head.span)

        def replay(entry, line_no):
            kind, payload, column, end_column = entry
            if kind == "step":
                section[0] = "step"
                span = Span(line_no, column, end_column)
                steps.append({"actives": [], "connects": [], "span": span})
                return True
            if section[0] != "step":
                return False
            step = steps[-1]
            if kind == "active":
                span = Span(line_no, column, end_column)
                step["actives"].append({"id": payload, "vals": [], "span": span})
            elif kind == "connect":
                span = Span(line_no, column, end_column)
                step["connects"].append(ConnectDecl(*payload, span=span))
            elif step["actives"]:
                step["actives"][-1]["vals"].append(payload)
            else:
                return False
            return True

        self._each_line(handler, replay)
        # a step's lines run from its `step` line to the next one's
        starts = [step["span"].line - 1 for step in steps] + [len(self.raw_lines)]
        built_steps = tuple(
            StepDecl(
                actives=tuple(
                    ActiveDecl(a["id"], tuple(a["vals"]), span=a["span"])
                    for a in step["actives"]
                ),
                connects=tuple(step["connects"]),
                span=step["span"],
                lines=tuple(self.raw_lines[start:end]),
            )
            for step, start, end in zip(steps, starts, starts[1:])
        )
        return TraceBody(tuple(components), built_steps)


def _is_ground(expr) -> bool:
    """Whether a value is built from names, pairs and sets only."""
    if isinstance(expr, EName):
        return True
    if isinstance(expr, EPair):
        return _is_ground(expr.first) and _is_ground(expr.second)
    if isinstance(expr, ESet):
        return all(_is_ground(item) for item in expr.items)
    return False


def parse_unit(text: str):
    """Parse one source unit; returns (SourceUnit | None, diagnostics)."""
    parser = _UnitParser(text)
    unit = parser.parse()
    diagnostics = sorted(
        parser.diagnostics,
        key=lambda d: (d.span.line if d.span else 0, d.span.column if d.span else 0),
    )
    return unit, diagnostics
