"""The line lexer as it was before it became one ``finditer`` pass: it
replaces every Unicode alias, then matches one token at a time and stops at
the first position no token matches.  Its spans are columns of the line
after alias replacement; ``lex_source_line`` moves them to the source line
by measuring replaced prefixes.  ``test_lexer.py`` checks the lexer of the
package against ``lex_source_line``."""
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


def _replaced(line: str) -> str:
    for alias, replacement in UNICODE_ALIASES.items():
        if alias in line:
            line = line.replace(alias, replacement)
    return line


def lex_line(line: str, line_no: int):
    line = _replaced(line)
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


def lex_source_line(line: str, line_no: int):
    """``lex_line`` with every span in columns of ``line`` itself: a
    replaced column ``c`` comes from the first source column whose prefix,
    replaced, is ``c`` characters long or longer."""

    def source(column):
        return next(
            end for end in range(1, len(line) + 1) if len(_replaced(line[:end])) >= column
        )

    def moved(span):
        return Span(span.line, source(span.column), source(span.end_column - 1) + 1)

    tokens, diag = lex_line(line, line_no)
    tokens = [Token(t.kind, t.text, moved(t.span)) for t in tokens]
    if diag is not None:
        diag = Diagnostic(diag.severity, diag.code, diag.message, moved(diag.span))
    return tokens, diag
