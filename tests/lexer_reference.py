"""The line lexer as it was before it became one ``finditer`` pass: it
replaces every Unicode alias, then matches one token at a time and stops at
the first position no token matches.  ``test_lexer.py`` checks the lexer
of the package against it."""
import re

from archcheck.parser.lexer import UNICODE_ALIASES, Token
from archcheck.parser.syntax import Diagnostic, Span

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


def lex_line(line: str, line_no: int):
    for alias, replacement in UNICODE_ALIASES.items():
        if alias in line:
            line = line.replace(alias, replacement)
    tokens = []
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
