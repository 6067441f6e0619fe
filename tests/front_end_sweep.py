"""Horizon sweep of the trace front end: ``parse_unit`` and ``archcheck
check`` on the paper scenario's simulated run at 50, 200, 800 and 2,000 steps.

The run settles into a few configurations, so its distinct lines and steps
stay the same as the horizon grows.  Each figure is the minimum of several
in-process runs; ``check`` runs in closed mode on the shipped pack, with its
output discarded.  Standard library only, and not collected by pytest; run
it from the repository root:

    python tests/front_end_sweep.py
"""
import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from archcheck.blackboard import (  # noqa: E402
    BlackboardScenario,
    algebra_unit,
    load_blackboard_sources,
    simulate_blackboard,
    trace_unit,
)
from archcheck.cli import main  # noqa: E402
from archcheck.parser import parse_unit, print_unit  # noqa: E402

HORIZONS = (50, 200, 800, 2000)
PAPER = dict(  # the scenario of ``paper_scenario`` in tests/test_blackboard.py
    problems=("pA", "pB", "pC"),
    subproblems={"pA": {"pB", "pC"}},
    solutions={"pA": "sA", "pB": "sB", "pC": "sC"},
    sources={"ks1": {"pA"}, "ks2": {"pB", "pC"}},
    root="pA",
    seed=7,
)


def best_ms(run, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best * 1000


def main_sweep() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        specs = []
        for name, text in sorted(load_blackboard_sources().items()):
            (root / name).write_text(text, encoding="utf-8")
            specs.append(str(root / name))
        print("horizon | lines | distinct lines | distinct steps | parse_unit ms | check ms")
        for horizon in HORIZONS:
            result = simulate_blackboard(BlackboardScenario(horizon=horizon, **PAPER))
            text = print_unit(trace_unit(result, name="Run"))
            trace, algebra = root / f"run{horizon}.arch", root / f"model{horizon}.arch"
            trace.write_text(text, encoding="utf-8")
            algebra.write_text(print_unit(algebra_unit(result.scenario)), encoding="utf-8")
            argv = ["check", *specs, "--algebra", str(algebra), "--trace", str(trace),
                    "--mode", "closed"]

            def check():
                with contextlib.redirect_stdout(io.StringIO()):
                    main(argv)

            lines = text.splitlines()
            steps: list = []
            for line in lines:
                if line == "step":
                    steps.append([])
                elif steps:
                    steps[-1].append(line)
            distinct_steps = {tuple(step) for step in steps}
            parse_ms = best_ms(lambda: parse_unit(text), 7)
            check_ms = best_ms(check, 3)
            print(f"{horizon} | {len(lines)} | {len(set(lines))} | {len(distinct_steps)}"
                  f" | {parse_ms:.2f} | {check_ms:.1f}")


if __name__ == "__main__":
    main_sweep()
