"""Fuzzing the front end: every input ends in a unit or diagnostics.

Inputs are printed `tests/rawgen.py` units of every kind and a small
simulated trace, then mutated: characters replaced, inserted and deleted,
lines duplicated, the text truncated, and values nested past the grammar's
limit.  Each run is derandomized, so the suite sees the same examples in
every run.

The differential check compares each input with the same input whose every
line carries a distinct trailing comment.  That changes no token and no
span, but it keeps the grammar's line table from ever replaying a line, so
the two parses must agree to the span and to the rendered diagnostic.
"""
import random

from hypothesis import given, settings, strategies as st

from archcheck.blackboard import algebra_unit, simulate_blackboard, trace_unit
from archcheck.cli import main
from archcheck.parser import parse_unit, print_unit, resolve

from blackboard_sources import bundle_units
from rawgen import RawGen
from test_blackboard import paper_scenario
from test_trace_front_end import step_spans, unique_lines

FUZZ = settings(derandomize=True, deadline=None, max_examples=300, database=None)

_RESULT = simulate_blackboard(paper_scenario(horizon=6))
SIMULATED = print_unit(trace_unit(_RESULT, name="Run"))
ALGEBRA = algebra_unit(_RESULT.scenario)
BUNDLE = [*bundle_units().values(), ALGEBRA]

ALPHABET = "{}(),.=<-#:_' \t\nxpA0∈→é@"
EDITS = ("replace", "insert", "delete", "duplicate", "truncate", "nest")


def base_text(source, seed):
    if source == "simulated":
        return SIMULATED
    return print_unit(RawGen(random.Random(seed)).unit(source))


def mutate(text, edits):
    for edit, where, char in edits:
        if edit == "replace" and text:
            at = where % len(text)
            text = text[:at] + char + text[at + 1:]
        elif edit == "insert":
            at = where % (len(text) + 1)
            text = text[:at] + char + text[at:]
        elif edit == "delete" and text:
            at = where % len(text)
            text = text[:at] + text[at + 1:]
        elif edit == "truncate":
            text = text[: where % (len(text) + 1)]
        elif edit == "duplicate":
            lines = text.splitlines()
            if lines:
                line = lines[where % len(lines)]
                at = (where // 7) % (len(lines) + 1)
                text = "\n".join([*lines[:at], line, *lines[at:]]) + "\n"
        elif edit == "nest":
            depth = (60, 64, 65, 70, 400)[where % 5]
            opener = "{" if char in "{}" else "("
            closer = "}" if opener == "{" else ")"
            value = f"{opener} " * depth + "pA" + f" {closer}" * depth
            lines = text.splitlines()
            if lines:
                at = where % len(lines)
                head = lines[at].split("=")[0] if "=" in lines[at] else "    bbop "
                lines[at] = f"{head}= {value}"
                text = "\n".join(lines) + "\n"
    return text


KINDS = (
    "datatype", "portspec", "interface", "constraints", "diagram", "algebra", "trace"
)
sources = st.sampled_from((*KINDS, "simulated"))
edits = st.lists(
    st.tuples(st.sampled_from(EDITS), st.integers(0, 10**6),
              st.sampled_from(ALPHABET)),
    max_size=4,
)


def front_end(text):
    """Parse and, when that succeeds, resolve with the blackboard bundle."""
    unit, diagnostics = parse_unit(text)
    assert isinstance(diagnostics, list)
    has_error = any(d.severity == "error" for d in diagnostics)
    assert (unit is None) == has_error, [d.render() for d in diagnostics]
    rendered = [d.render() for d in diagnostics]
    if unit is None:
        return None, rendered, None
    bundle, resolved = resolve([*BUNDLE, unit])
    has_error = any(d.severity == "error" for d in resolved)
    assert (bundle is None) == has_error
    return unit, rendered, [d.render() for d in resolved]


@FUZZ
@given(source=sources, seed=st.integers(0, 2**16), edits=edits)
def test_front_end_gives_a_unit_or_diagnostics(source, seed, edits):
    text = mutate(base_text(source, seed), edits)
    unit, _, _ = front_end(text)
    if unit is not None:
        reparsed, diagnostics = parse_unit(print_unit(unit))
        assert reparsed == unit, [d.render() for d in diagnostics]


@FUZZ
@given(source=sources, seed=st.integers(0, 2**16), edits=edits)
def test_line_table_changes_no_unit_span_or_diagnostic(source, seed, edits):
    text = mutate(base_text(source, seed), edits)
    unit, parsed, resolved = front_end(text)
    reference, ref_parsed, ref_resolved = front_end(unique_lines(text))
    assert unit == reference
    assert parsed == ref_parsed
    assert resolved == ref_resolved
    if unit is not None and unit.kind == "trace":
        assert step_spans(unit) == step_spans(reference)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(source=st.sampled_from(KINDS), seed=st.integers(0, 2**16), edits=edits)
def test_parse_on_mutated_units_exits_0_or_3(source, seed, edits, tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "unit.arch").write_text(mutate(base_text(source, seed), edits),
                                    encoding="utf-8")
    files = [str(root / "unit.arch")]
    for name, unit in bundle_units().items():
        (root / name).write_text(print_unit(unit), encoding="utf-8")
        files.append(str(root / name))
    assert main(["parse", *files]) in (0, 3)


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(edits=edits)
def test_check_on_mutated_traces_exits_with_a_documented_code(
    edits, tmp_path_factory
):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "model.arch").write_text(print_unit(ALGEBRA), encoding="utf-8")
    (root / "run.arch").write_text(mutate(SIMULATED, edits), encoding="utf-8")
    specs = []
    for name, unit in bundle_units().items():
        (root / name).write_text(print_unit(unit), encoding="utf-8")
        specs.append(str(root / name))
    code = main(["check", *sorted(specs), "--algebra", str(root / "model.arch"),
                 "--trace", str(root / "run.arch"), "--mode", "closed"])
    assert code in (0, 1, 2, 3)
