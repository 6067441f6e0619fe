"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from archcheck.blackboard import random_scenario, simulate_blackboard  # noqa: E402
from archcheck.constraints import Truth  # noqa: E402
from archcheck.model import ArchConfiguration, make_snapshot  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def simulated(problems=3, mutation=None, seed=5):
    rng = random.Random(seed)
    return workloads.draw_scenario(
        rng, problems, truncated_ok=mutation is not None, mutation=mutation,
        max_problems=3, max_sources=2, horizon=40,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["theorem", "check", "monitor"])
def test_smoke_runs_every_check(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    names = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace and result["attempted"] < stats.MIN_TAIL_SAMPLES:
        names.pop("op_ms_tail")
    assert got == names


def test_tail_left_out_below_forty_samples():
    assert stats.tail([1.0] * 39) is None
    percentile, value = stats.tail([float(i) for i in range(1, 41)])
    assert (percentile, value) == (75, 30.0)  # ten samples lie beyond it
    percentile, value = stats.tail([float(i) for i in range(1, 201)])
    assert (percentile, value) == (95, 190.0)


def test_unanswered_request_is_found():
    scenario, result = simulated(problems=2)
    assert oracles.unsolved_request(result.trace.steps, scenario.solutions) is None
    _, broken = simulated(problems=2, mutation="drop-forwarding")
    assert oracles.unsolved_request(broken.trace.steps, scenario.solutions) is not None


def _strip_published(steps, item):
    """The steps with ``item`` removed from the blackboard's ``bbos``."""
    out = []
    for step in steps:
        active = set()
        for snap in step.active:
            if snap.id == oracles.BB and item in snap.valuation["bbos"]:
                v = snap.valuation
                snap = make_snapshot(
                    snap.id,
                    inputs={"bbip": v["bbip"], "bbis": v["bbis"]},
                    outputs={"bbop": v["bbop"], "bbos": set(v["bbos"]) - {item}},
                )
            active.add(snap)
        out.append(ArchConfiguration(frozenset(active), step.connection))
    return out


def test_unforwarded_solution_is_found():
    _, result = simulated(problems=3)
    steps = result.trace.steps
    assert oracles.unforwarded_solution(steps) is None
    arrival = next(values for values in oracles.port_values(steps, "bbis") if values)
    item = sorted(arrival, key=repr)[0]
    found = oracles.unforwarded_solution(_strip_published(steps, item))
    assert found is not None and found[1] == item


def _report(code, verdicts):
    assertions = [{"name": n, "verdict": v} for n, v in verdicts.items()]
    return code, json.dumps({"assertions": assertions})


def test_check_expectations_reject_wrong_outcomes():
    names = ["BlackboardBehavior.ax1", "BlackboardBehavior.ax2"]
    fine = {n: "Satisfied" for n in names}
    assert workloads.check_problem(False, "closed", _report(0, fine), None, names) is None
    assert workloads.check_problem(False, "closed", _report(2, fine), None, names)
    assert workloads.check_problem(False, "open", _report(0, fine), None, names)
    violated = {**fine, "BlackboardBehavior.ax1": "Violated"}
    unforwarded = (3, ("p0", "s0"))
    assert workloads.check_problem(True, "closed", _report(1, violated), unforwarded, names) is None
    # the checker must name the behavior axiom, and the scan must agree
    other = {**fine, "BlackboardBehavior.ax2": "Violated"}
    assert workloads.check_problem(True, "closed", _report(1, other), unforwarded, names)
    assert workloads.check_problem(True, "closed", _report(1, violated), None, names)
    # a conforming trace with an unforwarded solution is not conforming
    assert workloads.check_problem(False, "closed", _report(0, fine), unforwarded, names)


def test_theorem_expectation_rejects_a_failed_trial():
    from archcheck.checker import verify_theorem

    seed = 11
    good = verify_theorem(trials=1, seed=seed, **workloads.THEOREM_PARAMS)
    assert workloads.theorem_problem(seed, good) is None
    bad = verify_theorem(trials=1, seed=seed, mutation="drop-forwarding",
                         **workloads.THEOREM_PARAMS)
    assert workloads.theorem_problem(seed, bad)
    assert workloads.theorem_problem(seed + 1, good)  # another trial's report


def test_monitor_expectation_rejects_wrong_violation_step(tmp_path):
    w = workloads.MonitorWorkload(3, tmp_path, smoke=True)
    stream = w.pool[0][1]
    at = stream.injected_at
    assert at is not None
    ops = w._stream_ops("BlackboardDiagram.connections", stream)

    def feed(first_violation):
        problems = []
        for i, op in enumerate(ops):
            truth = Truth.VIOLATED if i >= first_violation else Truth.INCONCLUSIVE
            problem = op.problem(SimpleNamespace(truth=truth))
            if problem:
                problems.append(problem)
        return problems

    assert feed(at) == []
    assert feed(at + 1)
    assert feed(at - 1)
    minmax = w._stream_ops("BlackboardDiagram.minmax", stream)
    assert minmax[at].problem(SimpleNamespace(truth=Truth.VIOLATED))


def test_rigid_assignment_count_matches_the_carrier_product():
    from archcheck.checker import blackboard_bundle
    from spans import rigid_assignments

    bundle = blackboard_bundle()
    item = bundle.constraint_by_name("BlackboardBehavior.ax2")
    scenario = random_scenario(random.Random(0), max_problems=6)
    while len(scenario.problems) != 6:
        scenario = random_scenario(random.Random(scenario.seed), max_problems=6)
    result = simulate_blackboard(scenario)
    count = rigid_assignments(result.algebra, result.interpretation, item.gamma,
                              item.rigid_comp, item.rigid_data)
    assert count == 6 * 2**6  # p, P over six problems; one blackboard


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "theorem", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
