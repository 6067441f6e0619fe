"""Horizon sweep: how Monitor and run_check scale with trace length.

    python3 perfbench/sweep.py [--write-readme]

One scenario of 3 problems and 2 sources is simulated at horizons 50, 100,
200 and 400 (the shorter traces are prefixes of the longer ones).  For each
horizon it times ``Monitor`` over the three monitorable assertions, step by
step, and the file path of ``archcheck check``: parse of all units, resolve,
and ``run_check`` in closed mode.  It prints a Markdown table and, with
``--write-readme``, puts it into README.md between the sweep markers.  This
is not a workload of run.py; it is the scaling evidence beside it.
"""
from __future__ import annotations

import argparse
import dataclasses
import random
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HORIZONS = (50, 100, 200, 400)
SWEEP_SEED = 2024
BEGIN, END = "<!-- sweep:begin -->", "<!-- sweep:end -->"


def ms_since(started):
    return 1000 * (perf_counter() - started)


def sweep_rows():
    from archcheck.blackboard import (
        algebra_unit, load_blackboard_sources, simulate_blackboard, trace_unit,
    )
    from archcheck.checker import blackboard_bundle, run_check
    from archcheck.constraints import CLOSED, Monitor
    from archcheck.parser import parse_unit, print_unit, resolve

    from run import reference_loop
    from workloads import MONITORED, assertion_gammas, draw_scenario

    gammas = assertion_gammas(blackboard_bundle())
    pack = list(load_blackboard_sources().values())
    base, _ = draw_scenario(
        random.Random(SWEEP_SEED), 3, sources=2,
        max_problems=3, max_sources=2, horizon=HORIZONS[0],
    )
    rows = []
    for horizon in HORIZONS:
        scenario = dataclasses.replace(base, horizon=horizon)
        result = simulate_blackboard(scenario)
        row = {"horizon": horizon, "reference_ms": reference_loop()}
        for name in MONITORED:
            monitor = Monitor(result.algebra, result.interpretation, gammas[name])
            started = perf_counter()
            for step in result.trace.steps:
                step_started = perf_counter()
                monitor.step(step)
                last = ms_since(step_started)
            row[name] = (ms_since(started), last)
        texts = pack + [print_unit(algebra_unit(scenario)), print_unit(trace_unit(result))]
        row["trace_kb"] = len(texts[-1].encode("utf-8")) / 1000
        started = perf_counter()
        units = [parse_unit(text)[0] for text in texts]
        row["parse"] = ms_since(started)
        started = perf_counter()
        resolved, _ = resolve(units)
        row["resolve"] = ms_since(started)
        started = perf_counter()
        report = run_check(resolved, mode=CLOSED)
        row["check"] = ms_since(started)
        row["exit"] = report.exit_code
        rows.append(row)
    return rows


def table(rows):
    from workloads import MONITORED

    head = ["horizon", "trace kB"]
    head += [f"Monitor {n.removeprefix('Blackboard')}: total / last step ms" for n in MONITORED]
    head += ["parse ms", "resolve ms", "run_check ms", "exit", "reference loop ms"]
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for row in rows:
        cells = [str(row["horizon"]), f"{row['trace_kb']:.1f}"]
        cells += [f"{row[n][0]:.0f} / {row[n][1]:.2f}" for n in MONITORED]
        cells += [f"{row['parse']:.0f}", f"{row['resolve']:.0f}", f"{row['check']:.0f}",
                  str(row["exit"]), f"{row['reference_ms']:.1f}"]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-readme", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    text = table(sweep_rows())
    print(text)
    if args.write_readme:
        readme = HERE / "README.md"
        content = readme.read_text(encoding="utf-8")
        head, _, rest = content.partition(BEGIN)
        _, _, tail = rest.partition(END)
        readme.write_text(f"{head}{BEGIN}\n{text}\n{END}{tail}", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
