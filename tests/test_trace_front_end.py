"""The trace front end: per-unit block, line and step tables, and their
contract.

A trace file's cost follows its distinct lines and distinct steps.  A step
block, from a `step` line to the next, whose lines equal those of an earlier
clean block shares that block's parsed records and is not read line by
line; the first block of its kind reads its lines through the unit's line
table, which replays a line whose text was parsed before; and an equal step
reuses its resolved configuration.  Spans inside a step count from the
step's own line, so shared records are exact.  Diagnostics do not change: a
block, line or step that drew one is never stored, so every occurrence
reports at its own line.  Traces built from a small pool of blocks, clean
and faulty, must parse and resolve as the same text with a distinct comment
on every line does.
"""
import random
import os
import subprocess
import sys
from pathlib import Path

import pytest

import archcheck
import archcheck.parser.grammar as grammar
import archcheck.parser.resolver as resolver
from archcheck.blackboard import (
    MUTATION_DROP_FORWARDING,
    algebra_unit,
    load_blackboard_sources,
    simulate_blackboard,
    trace_unit,
)
from archcheck.cli import main
from archcheck.interfaces import identity_interpretation
from archcheck.model import make_snapshot
from archcheck.parser import parse_unit, print_unit, resolve

from blackboard_sources import bundle_units
from test_blackboard import paper_scenario

BAD_STEP = """\
step
  active bb
    bbop = { f(x) }
  active ghost
  connect ks1.nope <- bb.bbop
"""

REPEATED_FAULTS = (
    """\
trace Run
imports BB, KS, ProbSolModel
components
  bb : BB
  ks1 : KS with prob = { pA }
"""
    + BAD_STEP
    + """\
step
  active bb
    bbop = { pA }
  active ks1
    ksip = { pA }
  connect ks1.ksip <- bb.bbop
"""
    + BAD_STEP
    + BAD_STEP
)

# archcheck check's standard error on REPEATED_FAULTS, as rendered before the
# tables existed: one diagnostic per occurrence, each at its own line.
REPEATED_FAULTS_STDERR = """\
error: Run:8:14: error[resolve]: expected a ground value (name, pair, or set literal)
Run:9:3: error[resolve]: undeclared component 'ghost'
Run:10:3: error[resolve]: 'nope' is not an input port of 'ks1'
Run:19:14: error[resolve]: expected a ground value (name, pair, or set literal)
Run:20:3: error[resolve]: undeclared component 'ghost'
Run:21:3: error[resolve]: 'nope' is not an input port of 'ks1'
Run:24:14: error[resolve]: expected a ground value (name, pair, or set literal)
Run:25:3: error[resolve]: undeclared component 'ghost'
Run:26:3: error[resolve]: 'nope' is not an input port of 'ks1'
"""


def unique_lines(text: str) -> str:
    """The same unit with a distinct comment on every line: no table hits."""
    return "".join(
        f"{line} # {n}\n" for n, line in enumerate(text.splitlines())
    )


def step_spans(unit):
    return [
        (step.span,
         [a.span for a in step.actives],
         [c.span for c in step.connects])
        for step in unit.body.steps
    ]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The blackboard pack, an algebra and a faulty trace on disk."""
    root = tmp_path_factory.mktemp("front")
    specs = []
    for name, text in load_blackboard_sources().items():
        (root / name).write_text(text, encoding="utf-8")
        specs.append(str(root / name))
    result = simulate_blackboard(paper_scenario(horizon=5))
    (root / "model.arch").write_text(
        print_unit(algebra_unit(result.scenario)), encoding="utf-8"
    )
    (root / "bad.arch").write_text(REPEATED_FAULTS, encoding="utf-8")
    return root, sorted(specs)


class TestDiagnosticContract:
    def test_each_repeated_fault_reports_at_its_own_line(self, files, capsys):
        root, specs = files
        code = main(["check", *specs, "--algebra", str(root / "model.arch"),
                     "--trace", str(root / "bad.arch")])
        assert code == 3
        assert capsys.readouterr().err == REPEATED_FAULTS_STDERR

    def test_repeated_parse_error_reports_every_line(self):
        text = (
            "trace Run\ncomponents\n  bb : BB\n"
            + "step\n  active bb\n  connect bb.p bb.q\n  bbop = { pA\n" * 3
        )
        unit, diagnostics = parse_unit(text)
        assert unit is None
        assert [d.render() for d in diagnostics] == [
            "6:16: error[parse]: expected '<-', got 'bb'",
            "7:14: error[parse]: expected '}', got 'end of line'",
            "10:16: error[parse]: expected '<-', got 'bb'",
            "11:14: error[parse]: expected '}', got 'end of line'",
            "14:16: error[parse]: expected '<-', got 'bb'",
            "15:14: error[parse]: expected '}', got 'end of line'",
        ]

    def test_unique_lines_give_the_same_diagnostics(self):
        scenario = simulate_blackboard(paper_scenario(horizon=5)).scenario
        units = [*bundle_units().values(), algebra_unit(scenario)]
        expected = REPEATED_FAULTS_STDERR[len("error: "):].splitlines()
        for text in (REPEATED_FAULTS, unique_lines(REPEATED_FAULTS)):
            unit, diagnostics = parse_unit(text)
            assert diagnostics == []
            bundle, diagnostics = resolve([*units, unit])
            assert bundle is None
            assert [d.render() for d in diagnostics] == expected


@pytest.fixture(scope="module")
def stuttering():
    """A 2,000-step simulated trace file: long, with few distinct lines."""
    result = simulate_blackboard(paper_scenario(horizon=2000))
    return (
        result,
        print_unit(trace_unit(result, name="Run")),
        algebra_unit(result.scenario),
    )


class TestDistinctLineCost:
    def test_each_distinct_line_is_lexed_once(self, stuttering, monkeypatch):
        _, text, _ = stuttering
        calls = []
        real = grammar.lex_line

        def counting(line, line_no):
            calls.append(line_no)
            return real(line, line_no)

        monkeypatch.setattr(grammar, "lex_line", counting)
        unit, diagnostics = parse_unit(text)
        assert unit is not None and diagnostics == []
        assert len(unit.body.steps) == 2000
        distinct = {line for line in text.splitlines() if line.strip()}
        assert len(calls) <= len(distinct) + 1
        assert len(calls) < len(text.splitlines()) / 100

    def test_replayed_lines_parse_like_unique_ones(self, stuttering):
        _, text, _ = stuttering
        unit, _ = parse_unit(text)
        reference, _ = parse_unit(unique_lines(text))
        assert unit == reference
        assert step_spans(unit) == step_spans(reference)

    def test_each_distinct_snapshot_is_built_once(self, stuttering, monkeypatch):
        result, text, algebra = stuttering
        calls = []
        real = resolver.make_snapshot

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(resolver, "make_snapshot", counting)
        unit, _ = parse_unit(text)
        bundle, diagnostics = resolve([*bundle_units().values(), algebra, unit])
        assert bundle is not None, diagnostics
        trace = bundle.traces["Run"].trace
        assert trace == result.trace
        distinct = {snap for step in trace.steps for snap in step.active}
        assert len(calls) <= len(distinct)


    def test_records_follow_the_distinct_steps(self, stuttering, monkeypatch):
        """As many `active` and `connect` records at 2,000 steps as at 200:
        only the first block of each kind is parsed."""
        _, long_text, _ = stuttering
        short = simulate_blackboard(paper_scenario(horizon=200))
        made = {}
        for horizon, text in (
            (200, print_unit(trace_unit(short, name="Run"))),
            (2000, long_text),
        ):
            calls = []
            for name in ("ActiveDecl", "ConnectDecl"):
                real = getattr(grammar, name)

                def counting(*args, real=real, **kwargs):
                    calls.append(real)
                    return real(*args, **kwargs)

                monkeypatch.setattr(grammar, name, counting)
            unit, diagnostics = parse_unit(text)
            monkeypatch.undo()
            assert unit is not None and diagnostics == []
            assert len(unit.body.steps) == horizon
            made[horizon] = len(calls)
        assert 0 < made[2000] == made[200]


HEADER = """\
trace Run
imports BB, KS, ProbSolModel
components
  bb : BB
  ks1 : KS with prob = { pA }
"""

# Step blocks: clean ones, with blank and comment-only lines and a header
# with a comment; faults the resolver reports, in blocks the parser finds
# clean (`ghost`, `roles`) or not (`unground`); a parse error and a lex
# error.
BLOCKS = {
    "plain": (
        "step\n  active bb\n    bbop = { pA }\n  active ks1\n    ksip = { pA }\n"
        "  connect ks1.ksip <- bb.bbop\n"
    ),
    "spaced": "step\n\n  # the board alone\n  active bb\n   \n    bbop = { pA, pC }\n",
    "noted": "step  # note\n  active bb\n    bbop = { pA }\n",
    "idle": "step\n",
    "ghost": "step\n  active ghost\n  active bb\n",
    "roles": "step\n  active bb\n  active ks1\n  connect ks1.nope <- bb.bbop\n",
    "unground": "step\n  active bb\n    bbop = { f(x) }\n",
    "broken": "step\n  active bb\n  connect bb.p bb.q\n",
    "lexed": "step\n  active bb\n  @\n",
}
UNPARSED = ("broken", "lexed")


def pooled_trace(seed: int, parses: bool) -> str:
    """A trace of every pool block twice and six more drawn blocks, in a
    shuffled order; without the blocks that do not parse when ``parses``,
    and without a final newline for odd seeds."""
    rng = random.Random(seed)
    pool = [name for name in BLOCKS if not (parses and name in UNPARSED)]
    names = pool * 2 + rng.choices(pool, k=6)
    rng.shuffle(names)
    text = HEADER + "".join(BLOCKS[name] for name in names)
    return text.rstrip("\n") if seed % 2 else text


class TestStepBlocks:
    @pytest.mark.parametrize("seed", range(12))
    def test_pooled_blocks_parse_like_unique_lines(self, seed):
        text = pooled_trace(seed, parses=False)
        unit, diagnostics = parse_unit(text)
        reference, expected = parse_unit(unique_lines(text))
        assert unit is None and reference is None
        assert diagnostics and diagnostics == expected

    @pytest.mark.parametrize("seed", range(12))
    def test_pooled_blocks_check_like_unique_lines(self, seed):
        scenario = simulate_blackboard(paper_scenario(horizon=5)).scenario
        units = [*bundle_units().values(), algebra_unit(scenario)]
        text = pooled_trace(seed, parses=True)
        unit, diagnostics = parse_unit(text)
        reference, expected = parse_unit(unique_lines(text))
        assert diagnostics == expected == []
        assert unit == reference
        assert step_spans(unit) == step_spans(reference)
        bundle, got = resolve([*units, unit])
        assert bundle is None
        assert [d.render() for d in got] == [
            d.render() for d in resolve([*units, reference])[1]
        ]
        # each faulty line is reported at every line it stands on
        rendered = "\n".join(d.render() for d in got)
        for faulty in ("  active ghost", "  connect ks1.nope", "    bbop = { f(x) }"):
            rows = [n for n, line in enumerate(text.splitlines(), 1)
                    if line.startswith(faulty)]
            assert len(rows) >= 2
            assert all(f"Run:{row}:" in rendered for row in rows)

    def test_equal_clean_blocks_share_their_records(self):
        kinds = ("plain", "noted", "spaced", "idle", "ghost", "unground")
        text = HEADER + "".join(BLOCKS[name] for name in kinds) * 3
        unit, diagnostics = parse_unit(text)
        assert unit is not None and diagnostics == []
        steps = unit.body.steps
        assert len(steps) == 3 * len(kinds)
        for at, name in enumerate(kinds):
            first, *later = steps[at::len(kinds)]
            assert all(step == first for step in later)
            shared = [step.actives is first.actives for step in later]
            # a value that is not ground keeps its block from the table
            assert shared == ([False, False] if name == "unground" else [True, True])


_CHECK = """
import sys
from archcheck.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_check_json_is_the_same_in_every_process(tmp_path):
    # The line and step tables are dicts keyed by strings and by StepDecl;
    # their order must never reach the output.
    specs = []
    for name, text in load_blackboard_sources().items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        specs.append(str(tmp_path / name))
    result = simulate_blackboard(
        paper_scenario(horizon=40), mutation=MUTATION_DROP_FORWARDING
    )
    (tmp_path / "model.arch").write_text(
        print_unit(algebra_unit(result.scenario)), encoding="utf-8"
    )
    (tmp_path / "run.arch").write_text(
        print_unit(trace_unit(result, name="Run")), encoding="utf-8"
    )
    argv = ["check", *sorted(specs), "--algebra", str(tmp_path / "model.arch"),
            "--trace", str(tmp_path / "run.arch"), "--mode", "closed", "--json"]
    src = str(Path(archcheck.__file__).parent.parent)
    outcomes = set()
    for seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", _CHECK, *argv],
            env=env, capture_output=True, timeout=120,
        )
        outcomes.add((done.returncode, done.stdout))
    assert len(outcomes) == 1
    code, stdout = outcomes.pop()
    assert code == 1 and b'"overall": "Violated"' in stdout


def test_a_component_that_is_never_active_keeps_its_snapshot():
    result = simulate_blackboard(paper_scenario(horizon=5))
    text = print_unit(trace_unit(result, name="Run"))
    declared = "  ks2 : KS with prob = { pB, pC }\n"
    assert declared in text
    text = text.replace(declared, declared + "  ks9 : KS with prob = { pC }\n")
    unit, _ = parse_unit(text)
    algebra = algebra_unit(result.scenario)
    bundle, diagnostics = resolve([*bundle_units().values(), algebra, unit])
    assert bundle is not None and diagnostics == []
    data = bundle.traces["Run"]
    idle = make_snapshot(
        "ks9",
        local={"prob": frozenset({"pC"})},
        inputs={"ksip": frozenset(), "ksis": frozenset()},
        outputs={"ksop": frozenset(), "ksos": frozenset()},
    )
    assert data.trace.steps == result.trace.steps
    assert data.trace.universe.snapshots == result.trace.universe.snapshots | {idle}
    assert identity_interpretation(idle) in data.interpretation.by_interface["KS"]
    assert data.interpretation.by_interface["BB"] == (
        result.interpretation.by_interface["BB"]
    )
