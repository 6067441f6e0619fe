"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10

Runs ``run.py`` once per workload of BENCHMARK.json and seed, one after the
other, for the file's ``run_seconds``, and prints per metric the median and
the distance between the first and third quartile as a share of the median,
beside the metric's bound.  The runs are saved in ``perfbench/out/spread.json``.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.setdefault(workload, []).append({"seed": seed, **result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    summary = {}
    for workload, results in runs.items():
        print(f"\n{workload}: {len(results)} runs")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            if len(values) < 2:
                continue
            spread = quartile_spread(values)
            summary[f"{workload}/{name}"] = {"median": median(values), "spread": spread}
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <- above a third of the bound"
            print(f"  {name:12s} median {median(values):10.4g}  spread {spread:6.3f}"
                  f"  bound {bound}{flag}")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"  failed share: {sorted(shares)}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(
        json.dumps({"runs": runs, "summary": summary}, indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
