"""The one-pass line lexer gives the tokens and the diagnostic of the
per-match reference loop in ``lexer_reference.py``, in columns of the
source line: on every line of the pack, every golden-diagnostics input,
generated units, each Unicode alias and random lines over the characters
the front end treats specially."""
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import archcheck
from archcheck.parser import print_unit
from archcheck.parser.lexer import UNICODE_ALIASES, lex_line
from archcheck.parser.syntax import UNIT_KINDS

import lexer_reference
from rawgen import RawGen
from test_golden_diagnostics import CASES

PACK = Path(archcheck.__file__).parent / "blackboardpack"


def _lines(texts):
    return [line for text in texts for line in text.splitlines()]


def _agree(lines):
    assert lines
    for line_no, line in enumerate(lines, 1):
        assert lex_line(line, line_no) == lexer_reference.lex_source_line(line, line_no), line


def test_every_pack_line_lexes_as_the_reference_does():
    paths = sorted(PACK.glob("*.arch"))
    assert len(paths) == 11
    _agree(_lines(path.read_text(encoding="utf-8") for path in paths))


def test_every_golden_diagnostics_input_lexes_as_the_reference_does():
    _agree(_lines(text for texts in CASES.values() for text in texts))
    tokens, diag = lex_line(CASES["lex.character"][0].splitlines()[2], 3)
    assert [t.text for t in tokens] == ["S"]
    assert diag.render() == "3:5: error[lex]: unexpected character '@'"


@pytest.mark.parametrize("kind", UNIT_KINDS)
def test_generated_units_lex_as_the_reference_does(kind):
    _agree(_lines(print_unit(RawGen(random.Random(seed)).unit(kind)) for seed in range(30)))


@pytest.mark.parametrize("alias", sorted(UNICODE_ALIASES))
def test_each_unicode_alias_lexes_as_the_reference_does(alias):
    lines = [f"  x {alias} y", f"{alias}(S)", f"a{alias}b", f"p {alias} q @ r", f"{alias}é"]
    _agree(lines)
    tokens, diag = lex_line(f"a {alias} é", 4)
    assert diag.message == "unexpected character 'é'"
    # columns count the source line, and a token read from an alias spans it
    assert diag.span == (4, 5, 6)
    assert [t.text for t in tokens] == ["a", *UNICODE_ALIASES[alias].split()]
    assert [t.span for t in tokens[1:]] == [(4, 3, 4)] * len(UNICODE_ALIASES[alias].split())


def test_columns_after_an_alias_are_source_columns():
    tokens, diag = lex_line("  S ∧ é", 3)
    assert diag.render() == "3:7: error[lex]: unexpected character 'é'"
    tokens, diag = lex_line("□(p ∈ b.bbop → ◇(p))", 1)
    assert diag is None
    assert [(t.text, t.span.column, t.span.end_column) for t in tokens] == [
        ("G", 1, 2), ("(", 2, 3), ("p", 3, 4), ("in", 5, 6), ("b", 7, 8),
        (".", 8, 9), ("bbop", 9, 13), ("->", 14, 15), ("F", 16, 17), ("(", 17, 18),
        ("p", 18, 19), (")", 19, 20), (")", 20, 21),
    ]


# token characters, the letters of ``well-founded``, whitespace, characters
# that no token starts with, and every alias
ALPHABET = "{}()[],.*=<->#:_'wellfoundxpA09 \t\r\x0b\xa0é@" + "".join(UNICODE_ALIASES)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(st.text(alphabet=ALPHABET))
def test_random_lines_lex_as_the_reference_does(line):
    assert lex_line(line, 7) == lexer_reference.lex_source_line(line, 7)
