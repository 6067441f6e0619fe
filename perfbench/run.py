"""Benchmark of archcheck on three workloads: theorem, check and monitor.

    python3 perfbench/run.py --workload theorem --seed 1 --seconds 20 --trace 0

Runs one workload in this single-threaded process against the package under
``src/`` (the same as ``PYTHONPATH=src``).  It sets up from the seed, runs one
warm-up operation, then times a fixed batch of whole rounds of operations,
checking every output.  The batch depends on the workload and ``--seconds``
only, and is sized so that the run lasts about ``--seconds``.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` each round runs once plain and once
traced, and the metrics are the per-layer figures of the traced pass plus the
tracing overhead.  ``--smoke`` runs one small round.  See README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

from stats import MIN_TAIL_SAMPLES, tail
from workloads import WORKLOADS, assertion_gammas, batch_rounds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
REFERENCE_EVERY_S = 0.5


def reference_loop() -> float:
    """Milliseconds taken by a fixed pure-Python loop that never touches
    archcheck: the machine's current speed.  It hashes tuples into sets and
    dicts, the kind of work archcheck's evaluator does."""
    started = perf_counter()
    seen = set()
    table = {}
    for i in range(20_000):
        key = (i % 97, (i * 7) % 89)
        if key not in seen:
            seen.add(key)
        table[key] = table.get(key, 0) + 1
    return 1000 * (perf_counter() - started)


def set_up(name: str, seed: int, workdir: Path, smoke: bool):
    """Import archcheck, parse and resolve the bundle, make the inputs."""
    started = perf_counter()
    import archcheck  # noqa: F401  (timed as part of set-up)

    workload = WORKLOADS[name](seed, workdir, smoke)
    return workload, perf_counter() - started


class Pass:
    """Timings, verdicts and problems of one pass over the rounds."""

    def __init__(self):
        self.times: list[float] = []
        self.verdicts: list = []
        self.problems: list[str] = []
        self.failed = 0
        self.attempted = 0
        self.info: dict = {}

    def run(self, ops, drift, tracer=None):
        for op in ops:
            op_id = self.attempted
            self.attempted += 1
            if op.prepare is not None:
                op.prepare()
            gc.collect()
            try:
                if tracer is None:
                    started = perf_counter()
                    outcome = op.run()
                    ended = perf_counter()
                else:
                    started = perf_counter()
                    outcome = tracer.op(op_id, op.run)
                    ended = perf_counter()
            except Exception:  # a failing operation is counted, not fatal
                self.failed += 1
                self.verdicts.append(None)
                if self.failed <= 3:
                    traceback.print_exc(file=sys.stderr)
                continue
            self.times.append(ended - started)
            self.info[op_id] = op.info
            self.verdicts.append(op.verdict(outcome))
            problem = op.problem(outcome)
            if problem is not None:
                self.problems.append(problem)
            drift.maybe_sample()


class Drift:
    """Reference-loop samples interleaved with the operations."""

    def __init__(self):
        self.started = perf_counter()
        self.last = float("-inf")
        self.samples: list[tuple[float, float]] = []

    def maybe_sample(self):
        now = perf_counter()
        if now - self.last >= REFERENCE_EVERY_S:
            self.samples.append((now - self.started, reference_loop()))
            self.last = perf_counter()

    def summary(self):
        ms = [v for _, v in self.samples]
        return {
            "samples": len(ms),
            "median_ms": median(ms),
            "min_ms": min(ms),
            "max_ms": max(ms),
            "max_over_min": max(ms) / min(ms),
        }


def measure(workload, rounds: int, smoke: bool, tracer=None):
    """``rounds`` whole rounds, and more until the plain pass has attempted
    ``MIN_TAIL_SAMPLES`` operations; one round in smoke mode."""
    plain, traced = Pass(), Pass() if tracer else None
    drift = Drift()
    r = 0
    while True:
        plain.run(workload.round(r), drift)
        if tracer is not None:
            tracer.install()
            try:
                traced.run(workload.round(r), drift, tracer)
            finally:
                tracer.uninstall()
        r += 1
        if smoke or (r >= rounds and plain.attempted >= MIN_TAIL_SAMPLES):
            break
    drift.maybe_sample()
    return plain, traced, drift, r


def setup_samples(name, seed, first, count):
    """Set-up time of ``count`` fresh processes, the first being this one."""
    samples = [first]
    for _ in range(1, count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def end_to_end(plain: Pass, setups):
    times = plain.times
    metrics = {
        "setup_s": (median(setups), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms_p50": (1000 * median(times), "ms"),
    }
    high = tail(times)
    if high is not None:
        metrics["op_ms_tail"] = (1000 * high[1], "ms")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
    )
    return metrics, high


def per_layer(plain: Pass, traced: Pass, tracer, assertion_names):
    from spans import layer_metrics

    metrics, self_ms = layer_metrics(tracer.spans, traced.info, assertion_names)
    overhead = 100 * (sum(traced.times) / sum(plain.times) - 1)
    metrics["tracing.overhead_pct"] = (overhead, "%")
    return metrics, self_ms


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small round with every check, no set-up samples")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "archcheck" / "__init__.py").is_file():
        print(f"error: no archcheck package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tag = f"{args.workload}-s{args.seed}" + ("-smoke" if args.smoke else "")

    if args.setup_only:
        workdir = OUT / "inputs" / f"{tag}-setup"
        _, seconds = set_up(args.workload, args.seed, workdir, False)
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": seconds}))
        return 0

    workload, first_setup = set_up(args.workload, args.seed, OUT / "inputs" / tag, args.smoke)
    OUT.mkdir(parents=True, exist_ok=True)
    gc.collect()
    gc.freeze()  # set-up objects stay out of the per-operation collections
    workload.warmup()

    tracer = None
    if args.trace:
        from spans import Tracer

        gammas = assertion_gammas(workload.bundle)
        tracer = Tracer({gamma: name for name, gamma in gammas.items()})
    rounds = batch_rounds(workload, args.seconds)
    plain, traced, drift, rounds = measure(workload, rounds, args.smoke, tracer)
    problems = list(plain.problems)
    attempted, failed = plain.attempted, plain.failed
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "ops": len(plain.times), "timed_s": sum(plain.times),
        "reference_loop": drift.summary(), "reference_samples": drift.samples,
    }
    if tracer is None:
        setups = [first_setup] if args.smoke else setup_samples(
            args.workload, args.seed, first_setup, SETUP_SAMPLES)
        metrics, high = end_to_end(plain, setups)
        report["setup_samples_s"] = setups
        report["tail_percentile"] = high[0] if high else None
    else:
        problems += traced.problems
        attempted += traced.attempted
        failed += traced.failed
        if traced.verdicts != plain.verdicts:
            problems.append("traced verdicts differ from the plain pass")
        metrics, self_ms = per_layer(plain, traced, tracer, sorted(gammas))
        report["self_ms_per_layer"] = self_ms
        report["spans"] = str((OUT / f"spans-{tag}.json").relative_to(ROOT))
        tracer.dump(OUT / f"spans-{tag}.json")
    report["problems"] = problems[:20]
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")

    ref = report["reference_loop"]
    print(f"{args.workload} seed {args.seed}: {len(plain.times)} ops in {rounds} rounds,"
          f" {report['timed_s']:.2f} s timed")
    if tracer is None and report["tail_percentile"] is not None:
        print(f"op_ms_tail is p{report['tail_percentile']} of {len(plain.times)} samples")
    print(f"reference loop: median {ref['median_ms']:.2f} ms, {ref['min_ms']:.2f}"
          f"..{ref['max_ms']:.2f} ms over {ref['samples']} samples")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
