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

TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#.*)
  | (?P<wf>well-founded)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<number>[0-9]+)
  | (?P<op><->|->|<-|==|\.\.|[(){}\[\],:.*=])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # ident | number | op | wf
    text: str
    span: Span


def lex_line(line: str, line_no: int):
    """Tokenize one line; returns (tokens, diagnostic-or-None).

    One ``finditer`` pass: ``bad`` matches any character that no token
    starts with, so the matches tile the line and the first ``bad`` one is
    the lex error.  Spans are columns of the source line: on a line that is
    not ASCII, the aliases are replaced first and the spans mapped back, so
    a token read from an alias spans the alias.
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
        if kind in ("ws", "comment"):
            continue
        start, end = match.span()
        if kind == "bad":
            diag = Diagnostic(
                "error", "lex", f"unexpected character {match.group()!r}",
                Span(line_no, start + 1, start + 2),
            )
            break
        tokens.append(Token(kind, match.group(), Span(line_no, start + 1, end + 1)))
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
