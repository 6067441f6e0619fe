"""Line lexer for `.arch` files.

The grammar is line-oriented: every declaration, axiom, and table entry fits
on one line, and `#` starts a comment.  Unicode math operators are accepted
as aliases for their ASCII forms; the printer always emits ASCII.
"""
from __future__ import annotations

import re
from typing import NamedTuple

from .syntax import Diagnostic, Span

UNICODE_ALIASES = {
    "∈": " in ",      # element of
    "∧": " and ",
    "∨": " or ",
    "¬": " not ",
    "∀": " forall ",
    "∃": " exists ",
    "□": " G ",       # box
    "◇": " F ",       # diamond
    "○": " X ",       # circle
    "◯": " X ",
    "≐": " == ",      # approaches-the-limit, used for definitional equality
    "→": " -> ",
    "⇒": " -> ",
    "⟶": " -> ",
    "←": " <- ",
    "⟵": " <- ",
    "↔": " <-> ",
    "⇔": " <-> ",
    "×": " * ",
    "℘": " set ",     # script P, power set; `℘(S)` reads as `set (S)`
}

# Each match is the whitespace before a token, then the token: ``bad`` is
# any other character that is not whitespace.
TOKEN_RE = re.compile(
    r"""
    \s*(?:
    (?P<comment>\#.*)
  | (?P<wf>well-founded)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<number>[0-9]+)
  | (?P<op><->|->|<-|==|\.\.|[(){}\[\],:.*=])
  | (?P<bad>\S)
    )""",
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # ident | number | op | wf
    text: str
    span: Span


_new = tuple.__new__


def lex_line(line: str, line_no: int):
    """Tokenize one line; returns (tokens, diagnostic-or-None).

    One ``finditer`` pass: ``bad`` matches any character that is neither
    whitespace nor the start of a token, so the matches tile the line up to
    trailing whitespace, and the first ``bad`` one is the lex error.  A
    comment runs to the end of the line.  Spans are columns of the source
    line: on a line that is not ASCII, the aliases are replaced first and
    the spans mapped back, so a token read from an alias spans the alias.
    Tokens and spans are made by ``tuple.__new__``, which costs less than a
    call of the named tuples' own ``__new__``.
    """
    columns = None
    if not line.isascii():
        pieces = [UNICODE_ALIASES.get(ch, ch) for ch in line]
        # the source column of each column of the replaced line
        columns = [column for column, piece in enumerate(pieces, 1) for _ in piece]
        line = "".join(pieces)
    tokens: list[Token] = []
    diag = None
    for match in TOKEN_RE.finditer(line):
        kind = match.lastgroup
        if kind == "comment":
            break
        start, end = match.span(kind)
        if kind == "bad":
            diag = Diagnostic(
                "error", "lex", f"unexpected character {match[kind]!r}",
                Span(line_no, start + 1, start + 2),
            )
            break
        span = _new(Span, (line_no, start + 1, end + 1))
        tokens.append(_new(Token, (kind, match[kind], span)))
    if columns is not None:
        return _in_source(tokens, diag, columns)
    return tokens, diag


def _in_source(tokens, diag, columns):
    """``tokens`` and ``diag`` with their spans moved from the replaced line
    to the source line, through ``columns``."""

    def moved(span: Span) -> Span:
        return Span(span.line, columns[span.column - 1], columns[span.end_column - 2] + 1)

    tokens = [Token(t.kind, t.text, moved(t.span)) for t in tokens]
    if diag is not None:
        diag = Diagnostic(diag.severity, diag.code, diag.message, moved(diag.span))
    return tokens, diag
