"""The benchmark's three workloads.

Each workload makes its inputs from the seed at set-up, then hands the runner
rounds of operations.  A round always holds the same mix of inputs, drawn
anew from the seed's stream for every pooled round, so that runs on different
seeds do the same amount of work; rounds past the pool reuse it in order.
A run times a fixed batch of ``batch_rounds(seconds)`` rounds, so the same
seed and ``--seconds`` always give the same operations, however fast the
program is.
Every operation calls archcheck through a module attribute (``checker.x``,
``cli.main``, ``monitor.step``), which is where the traced run hooks in.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import oracles

THEOREM_PARAMS = dict(horizon=50, max_problems=6, max_depth=3, max_sources=3)
MONITORED = (
    "BlackboardConnection.ax1",
    "BlackboardDiagram.minmax",
    "BlackboardDiagram.connections",
)


def assertion_gammas(bundle) -> dict:
    """Every assertion of a check report, by name: the bundle's constraints
    and its desugared diagram annotations."""
    from archcheck.checker import diagram_assertions

    gammas = {c.name: c.gamma for c in bundle.constraints}
    gammas.update((name, gamma) for name, gamma, _ in diagram_assertions(bundle))
    return gammas


def batch_rounds(workload, seconds: float) -> int:
    """Rounds in a run of ``seconds``: ``ROUNDS_PER_30S`` was sized so that
    a 30 s run, set-up and checks included, lasts about that long on a
    2-core Xeon VM, with about 24 s inside the timed operations."""
    return max(1, round(workload.ROUNDS_PER_30S * seconds / 30))


@dataclass
class Op:
    """One timed operation: ``run`` is timed, the rest is not."""

    run: Callable[[], Any]
    verdict: Callable[[Any], Any]
    problem: Callable[[Any], Optional[str]]
    prepare: Optional[Callable[[], None]] = None
    info: dict = field(default_factory=dict)


def draw_scenario(rng, problems, sources=None, truncated_ok=False, mutation=None, **params):
    """Draw scenarios from ``rng`` until one has ``problems`` problems (and
    ``sources`` sources, when given); return it with its simulation."""
    from archcheck.blackboard import random_scenario, simulate_blackboard

    while True:
        scenario = random_scenario(rng, **params)
        if len(scenario.problems) != problems:
            continue
        if sources is not None and len(scenario.sources) != sources:
            continue
        result = simulate_blackboard(scenario, mutation=mutation)
        if truncated_ok or not result.truncated:
            return scenario, result


class Theorem:
    """``verify_theorem`` trials; each round holds two scenarios of every
    problem count from 1 to 6, since cost grows steeply with that count."""

    name = "theorem"
    POOL = 16
    ROUNDS_PER_30S = 16

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        from archcheck import checker
        from archcheck.blackboard import random_scenario

        self.bundle = checker.blackboard_bundle()
        per_count = 1 if smoke else 2
        rng = random.Random(seed)
        self.pool = []
        for _ in range(1 if smoke else self.POOL):
            slots = {k: [] for k in range(1, THEOREM_PARAMS["max_problems"] + 1)}
            while any(len(v) < per_count for v in slots.values()):
                s = rng.randrange(2**31)
                k = len(random_scenario(random.Random(s), **THEOREM_PARAMS).problems)
                if len(slots[k]) < per_count:
                    slots[k].append(s)
            self.pool.append([slots[k][i] for i in range(per_count) for k in slots])

    def warmup(self):
        from archcheck import checker

        checker.verify_theorem(trials=1, seed=0, bundle=self.bundle, **THEOREM_PARAMS)

    def round(self, r: int) -> list[Op]:
        return [self._op(s) for s in self.pool[r % len(self.pool)]]

    def _op(self, seed: int) -> Op:
        from archcheck import checker

        def run():
            return checker.verify_theorem(
                trials=1, seed=seed, bundle=self.bundle, **THEOREM_PARAMS
            )

        def verdict(report):
            trial = report.trials[0]
            return str(trial.premise), str(trial.guarantee)

        return Op(run, verdict, lambda report: theorem_problem(seed, report))


def theorem_problem(seed, report) -> Optional[str]:
    """The trial holds, and its regenerated trace answers every request."""
    from archcheck.blackboard import random_scenario, simulate_blackboard

    trial = report.trials[0]
    if not report.ok:
        return f"trial {seed}: premise {trial.premise}, guarantee {trial.guarantee}"
    scenario = random_scenario(random.Random(seed), **THEOREM_PARAMS)
    if scenario.seed != trial.seed:
        return f"trial {seed}: report names scenario {trial.seed}, not {scenario.seed}"
    result = simulate_blackboard(scenario)
    missing = oracles.unsolved_request(result.trace.steps, scenario.solutions)
    if missing is not None:
        return f"trial {seed}: request for {missing[1]} at step {missing[0]} never solved"
    return None


@dataclass
class CheckFile:
    trace: str
    algebra: str
    unforwarded: Optional[tuple]  # oracles.unforwarded_solution of the trace
    mutated: bool


class Check:
    """``archcheck check`` on files; each round holds conforming traces of 3
    problems at horizon 100, 2 problems at horizon 150 (two of them) and 1
    problem at horizon 200, each checked in closed and open mode, and one
    drop-forwarding trace of 1 problem at horizon 100, all with 2 sources.

    Cost grows with the slot, so the doubled middle slot puts the median
    operation inside one slot rather than between two.  A 2-problem
    drop-forwarding trace costs 75 to 720 ms by whether the root needs a
    subproblem, too uneven to keep a run steady.
    """

    name = "check"
    CONFORMING = ((3, 100), (2, 150), (2, 150), (1, 200))
    MUTATED = (1, 100)
    SOURCES = 2
    POOL = 6
    ROUNDS_PER_30S = 12

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        from archcheck.blackboard import algebra_unit, trace_unit
        from archcheck.checker import blackboard_bundle
        from archcheck.parser import print_unit

        self.bundle = blackboard_bundle()
        self.names = sorted(assertion_gammas(self.bundle))
        pack = Path(__file__).resolve().parent.parent / "src" / "archcheck" / "blackboardpack"
        self.specs = [str(p) for p in sorted(pack.glob("*.arch"))]
        scale = 4 if smoke else 1
        workdir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        self.pool = []
        for r in range(1 if smoke else self.POOL):
            files = []
            shapes = [(k, h, None) for k, h in self.CONFORMING]
            shapes.append((*self.MUTATED, "drop-forwarding"))
            for i, (k, horizon, mutation) in enumerate(shapes):
                scenario, result = draw_scenario(
                    rng, k, self.SOURCES, truncated_ok=mutation is not None,
                    mutation=mutation, max_problems=3, max_sources=2,
                    horizon=horizon // scale,
                )
                trace = workdir / f"r{r}-{i}-trace.arch"
                algebra = workdir / f"r{r}-{i}-algebra.arch"
                trace.write_text(print_unit(trace_unit(result)), encoding="utf-8")
                algebra.write_text(print_unit(algebra_unit(scenario)), encoding="utf-8")
                files.append(CheckFile(
                    str(trace), str(algebra),
                    oracles.unforwarded_solution(result.trace.steps), mutation is not None,
                ))
            self.pool.append(files)

    def warmup(self):
        self._op(self.pool[0][0], "closed").run()

    def round(self, r: int) -> list[Op]:
        ops = []
        for f in self.pool[r % len(self.pool)]:
            modes = ("closed",) if f.mutated else ("closed", "open")
            ops.extend(self._op(f, mode) for mode in modes)
        return ops

    def _op(self, f: CheckFile, mode: str) -> Op:
        from archcheck import cli

        argv = ["check", *self.specs, "--algebra", f.algebra, "--trace", f.trace,
                "--mode", mode, "--json"]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()

        return Op(run, check_verdict, lambda outcome: check_problem(
            f.mutated, mode, outcome, f.unforwarded, self.names))


def check_verdict(outcome):
    code, stdout = outcome
    try:
        report = json.loads(stdout)
    except ValueError:
        return code, None
    return code, tuple((a["name"], a["verdict"]) for a in report["assertions"])


def check_problem(mutated, mode, outcome, unforwarded, names) -> Optional[str]:
    """Exit code and verdicts of one ``check`` against what the file should give.

    ``unforwarded`` is the benchmark's own scan of the trace for a solution
    that arrives on ``bb.bbis`` and never reaches ``bb.bbos``.
    """
    code, verdicts = check_verdict(outcome)
    if verdicts is None:
        return f"{mode}: exit {code} without a JSON report"
    got = dict(verdicts)
    if sorted(got) != names:
        return f"{mode}: report names {sorted(got)}"
    violated = sorted(name for name, v in got.items() if v == oracles.VIOLATED)
    if mutated:
        if unforwarded is None:
            return "drop-forwarding trace: scan finds every solution forwarded"
        if code != 1 or "BlackboardBehavior.ax1" not in violated:
            return f"drop-forwarding trace: exit {code}, violated {violated}"
        return None
    if unforwarded is not None:
        return f"conforming trace: scan finds {unforwarded[1]} unforwarded at step {unforwarded[0]}"
    if mode == "closed" and code != 0:
        return f"conforming trace, closed: exit {code}, violated {violated}"
    if mode == "open" and (code != 2 or violated):
        return f"conforming trace, open: exit {code}, violated {violated}"
    return None


@dataclass
class Stream:
    steps: tuple
    algebra: Any
    interpretation: Any
    injected_at: Optional[int]
    expected: dict  # assertion name -> per-step verdict strings


def inject_gap(steps, at):
    """Copy of ``steps`` in which the first step from ``at`` on with an active
    source lacks that source's ``ksip <- bb.bbop`` connection."""
    from archcheck.model import ArchConfiguration

    steps = list(steps)
    j = at
    while not any(s.id != oracles.BB for s in steps[j].active):
        j += 1
    step = steps[j]
    ks = min(s.id for s in step.active if s.id != oracles.BB)
    connection = {ref: t for ref, t in step.connection.items() if ref != (ks, "ksip")}
    steps[j] = ArchConfiguration(step.active, connection)
    return tuple(steps), j


class MonitorWorkload:
    """``Monitor.step`` over the three monitorable pack assertions; each round
    feeds each of them one conforming stream and one stream with a missing
    connection in the middle, both of 3 problems and 2 sources."""

    name = "monitor"
    HORIZON = 100
    POOL = 8
    ROUNDS_PER_30S = 8

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        from archcheck.checker import blackboard_bundle
        from archcheck.model import ConfigurationTrace, check_trace

        self.bundle = blackboard_bundle()
        gammas = assertion_gammas(self.bundle)
        self.gammas = {name: gammas[name] for name in MONITORED}
        horizon = 30 if smoke else self.HORIZON
        rng = random.Random(seed)
        self.pool = []
        for _ in range(1 if smoke else self.POOL):
            pair = []
            for injected in (False, True):
                _, result = draw_scenario(
                    rng, 3, sources=2, max_problems=3, max_sources=2, horizon=horizon
                )
                steps, at = result.trace.steps, None
                if injected:
                    steps, at = inject_gap(steps, horizon // 2)
                    if not check_trace(ConfigurationTrace(result.trace.universe, steps)).ok:
                        raise RuntimeError("the injected stream is not a valid trace")
                gaps = (oracles.first_failure(steps, oracles.connections_ok),
                        oracles.first_failure(steps, oracles.one_blackboard))
                if gaps != (at, None):
                    raise RuntimeError(f"stream scan finds gaps at {gaps}, injected at {at}")
                pair.append(Stream(steps, result.algebra, result.interpretation, at,
                                   monitor_expectations(steps)))
            self.pool.append(pair)

    def warmup(self):
        from archcheck import constraints

        stream = self.pool[0][0]
        for name in MONITORED:
            constraints.Monitor(stream.algebra, stream.interpretation, self.gammas[name]).step(stream.steps[0])

    def round(self, r: int) -> list[Op]:
        ops = []
        for name in MONITORED:
            for stream in self.pool[r % len(self.pool)]:
                ops.extend(self._stream_ops(name, stream))
        return ops

    def _stream_ops(self, name: str, stream: Stream) -> list[Op]:
        from archcheck import constraints

        holder = {}

        def start():
            holder["monitor"] = constraints.Monitor(
                stream.algebra, stream.interpretation, self.gammas[name]
            )

        expected = stream.expected[name]
        last = len(stream.steps) - 1
        ops = []
        for i, step in enumerate(stream.steps):
            ops.append(Op(
                run=lambda step=step: holder["monitor"].step(step),
                verdict=lambda v: str(v.truth),
                problem=lambda v, i=i: monitor_problem(name, i, expected[i], v),
                prepare=start if i == 0 else None,
                info={
                    "prefix": i + 1,
                    "last": i == last and stream.injected_at is None,
                    "decided": expected[i - 1] == oracles.VIOLATED if i else False,
                },
            ))
        return ops


def monitor_expectations(steps):
    """Per assertion, the open-mode verdict after each step by direct scan."""
    connected = oracles.globally_open(steps, oracles.connections_ok)
    return {
        "BlackboardConnection.ax1": connected,
        "BlackboardDiagram.connections": connected,
        "BlackboardDiagram.minmax": oracles.globally_open(steps, oracles.one_blackboard),
    }


def monitor_problem(name, index, expected, verdict) -> Optional[str]:
    got = str(verdict.truth)
    if got != expected:
        return f"{name} step {index}: {got}, expected {expected}"
    return None


WORKLOADS = {w.name: w for w in (Theorem, Check, MonitorWorkload)}
