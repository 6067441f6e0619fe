"""Line lexer for `.arch` files.

The grammar is line-oriented: every declaration, axiom, and table entry fits
on one line, and `#` starts a comment.  Unicode math operators are accepted
as aliases for their ASCII forms; the printer always emits ASCII.
"""
from __future__ import annotations

import re

from .._record import record
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
    """,
    re.VERBOSE,
)


@record
class Token:
    kind: str  # ident | number | op | wf
    text: str
    span: Span


def lex_line(line: str, line_no: int):
    """Tokenize one line; returns (tokens, diagnostic-or-None)."""
    for alias, replacement in UNICODE_ALIASES.items():
        if alias in line:
            line = line.replace(alias, replacement)
    tokens: list[Token] = []
    pos = 0
    while pos < len(line):
        match = TOKEN_RE.match(line, pos)
        if match is None:
            span = Span(line_no, pos + 1, pos + 2)
            bad = line[pos]
            return tokens, Diagnostic(
                "error", "lex", f"unexpected character {bad!r}", span
            )
        pos = match.end()
        kind = match.lastgroup
        if kind in ("ws", "comment"):
            continue
        text = match.group()
        span = Span(line_no, match.start() + 1, match.end() + 1)
        tokens.append(Token(kind, text, span))
    return tokens, None
