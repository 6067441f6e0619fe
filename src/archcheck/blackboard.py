"""Bundled blackboard-pattern simulator.

Generates finite configuration traces of one always-active blackboard
component and a roster of knowledge sources that decompose a root problem
along an acyclic subproblem relation, solve subproblems bottom-up, and
re-publish known solutions.  Generated complete traces satisfy the shipped
behavior, activation, connection, and interface constraints in closed mode.

Scheduling: one configuration per step.  Sources activate randomly, but a
capable source is forced active while a problem is posted, and a source that
requested subproblems is re-activated once their solutions are published.
Two deliberate mutations exist for detector-sensitivity tests: dropping the
blackboard's solution forwarding, and never re-activating a source after its
first request.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from importlib import resources
from typing import Mapping, Optional

from .algebra import Algebra, BaseSort, Signature
from .errors import StructuralError, UsageError
from .interfaces import SpecInterpretation, identity_interpretation
from .model import (
    ArchConfiguration,
    ComponentSnapshot,
    ComponentUniverse,
    ConfigurationTrace,
    make_snapshot,
)
from .parser.syntax import (
    ActiveDecl,
    AlgebraBody,
    CarrierDecl,
    ComponentDecl,
    ConnectDecl,
    EName,
    EPair,
    ESet,
    SourceUnit,
    StepDecl,
    TableEntry,
    TraceBody,
)

MUTATION_DROP_FORWARDING = "drop-forwarding"
MUTATION_DROP_ACTIVATION = "drop-activation"
MUTATIONS = (MUTATION_DROP_FORWARDING, MUTATION_DROP_ACTIVATION)

BB_ID = "bb"


@dataclass(frozen=True)
class BlackboardScenario:
    """A problem universe, a roster of sources, and a run length.

    ``subproblems[p]`` lists the direct subproblems required before ``p``
    can be solved; the induced relation must be acyclic and every problem
    reachable from the root must be covered by some source.
    """

    problems: tuple[str, ...]
    subproblems: Mapping[str, frozenset[str]]
    solutions: Mapping[str, str]
    sources: Mapping[str, frozenset[str]]
    root: str
    horizon: int = 50
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "problems", tuple(self.problems))
        stray = set(self.subproblems) - set(self.problems)
        if stray:
            raise StructuralError(
                f"subproblem entries for unknown problems {sorted(stray)}"
            )
        subs = {
            p: frozenset(self.subproblems.get(p, frozenset()))
            for p in self.problems
        }
        object.__setattr__(self, "subproblems", subs)
        object.__setattr__(self, "solutions", dict(self.solutions))
        object.__setattr__(
            self, "sources", {k: frozenset(v) for k, v in dict(self.sources).items()}
        )
        if not self.problems or len(set(self.problems)) != len(self.problems):
            raise StructuralError("problems must be a nonempty set of names")
        if self.root not in self.problems:
            raise StructuralError(f"root {self.root!r} is not a problem")
        if self.horizon < 1:
            raise StructuralError("horizon must be at least 1")
        if not self.sources:
            raise StructuralError("the source roster is empty")
        for p, qs in subs.items():
            unknown = qs - set(self.problems)
            if unknown:
                raise StructuralError(f"unknown subproblems {sorted(unknown)}")
        for p in self.problems:
            if p not in self.solutions:
                raise StructuralError(f"no solution assigned to {p!r}")
        for ks, probs in self.sources.items():
            unknown = probs - set(self.problems)
            if unknown:
                raise StructuralError(
                    f"source {ks!r} claims unknown problems {sorted(unknown)}"
                )
        if not self._acyclic():
            raise StructuralError("the subproblem relation has a cycle")
        uncovered = [
            p
            for p in sorted(self.reachable())
            if not any(p in probs for probs in self.sources.values())
        ]
        if uncovered:
            raise StructuralError(
                f"no source can solve reachable problems {uncovered}"
            )

    def _acyclic(self) -> bool:
        WHITE, GREY, BLACK = 0, 1, 2
        color = {p: WHITE for p in self.problems}

        def visit(p):
            color[p] = GREY
            for q in self.subproblems[p]:
                if color[q] == GREY:
                    return False
                if color[q] == WHITE and not visit(q):
                    return False
            color[p] = BLACK
            return True

        return all(visit(p) for p in self.problems if color[p] == WHITE)

    def reachable(self) -> frozenset[str]:
        seen = set()
        stack = [self.root]
        while stack:
            p = stack.pop()
            if p in seen:
                continue
            seen.add(p)
            stack.extend(self.subproblems[p])
        return frozenset(seen)


@dataclass(frozen=True)
class SimulationResult:
    scenario: BlackboardScenario
    trace: ConfigurationTrace
    interpretation: SpecInterpretation
    algebra: Algebra
    truncated: bool  # the horizon ended before the root problem was solved
    steps_to_solution: Optional[int]


def scenario_algebra(scenario: BlackboardScenario) -> Algebra:
    signature = Signature(
        sorts={"PROB", "SOL"},
        functions={"solve": ((BaseSort("PROB"),), BaseSort("SOL"))},
        predicates={"prec": (BaseSort("PROB"), BaseSort("PROB"))},
    )
    solutions = []
    for p in scenario.problems:
        s = scenario.solutions[p]
        if s not in solutions:
            solutions.append(s)
    prec = {
        (q, p) for p in scenario.problems for q in scenario.subproblems[p]
    }
    return Algebra(
        signature=signature,
        carriers={"PROB": scenario.problems, "SOL": tuple(solutions)},
        functions={"solve": {(p,): scenario.solutions[p] for p in scenario.problems}},
        predicates={"prec": prec},
    )


def simulate_blackboard(
    scenario: BlackboardScenario, mutation: Optional[str] = None
) -> SimulationResult:
    """Run the scenario and return the generated trace, deterministically in
    the seed.  ``mutation`` selects one of the deliberate defects.

    Each distinct snapshot and configuration is built once, from tables that
    live for this call, so equal ones in the trace and its universe are one
    object."""
    if mutation is not None and mutation not in MUTATIONS:
        raise UsageError(f"unknown mutation {mutation!r}; pick from {MUTATIONS}")
    rng = random.Random(scenario.seed)
    roster = sorted(scenario.sources)
    subs = scenario.subproblems
    solve = scenario.solutions

    open_problems: set[str] = {scenario.root}
    solved: set[tuple[str, str]] = set()
    published: set[tuple[str, str]] = set()
    emitted: dict[str, set[str]] = {ks: set() for ks in roster}
    needs_wake: dict[str, bool] = {ks: False for ks in roster}
    dark: set[str] = set()  # sources silenced by the activation mutation

    steps: list[ArchConfiguration] = []
    steps_to_solution: Optional[int] = None
    # Each distinct snapshot is built once, under its component id and port
    # values in a fixed port order; the id fixes the ports and local values.
    # Each distinct configuration is built once, under the ids of its
    # snapshots, which the snapshot table keeps alive.
    snapshots: dict[tuple, ComponentSnapshot] = {}
    configurations: dict[tuple, ArchConfiguration] = {}

    def snapshot(cid: str, local: dict, inputs: dict, outputs: dict):
        key = (cid, *inputs.values(), *outputs.values())
        snap = snapshots.get(key)
        if snap is None:
            snap = snapshots[key] = make_snapshot(
                cid, local=local, inputs=inputs, outputs=outputs
            )
        return snap

    def capable(p: str):
        return [ks for ks in roster if p in scenario.sources[ks] and ks not in dark]

    for step_no in range(scenario.horizon):
        forced = set()
        for p in sorted(open_problems):
            candidates = capable(p)
            if candidates:
                forced.add(rng.choice(candidates))
        if mutation != MUTATION_DROP_ACTIVATION:
            forced.update(ks for ks in roster if needs_wake[ks])
        active = set(forced)
        for ks in roster:
            if ks not in active and ks not in dark and rng.random() < 0.4:
                active.add(ks)
        active -= dark

        bbop = frozenset(open_problems)
        bbos = frozenset(published)
        requests: dict[str, frozenset] = {}
        answers: dict[str, frozenset] = {}
        for ks in sorted(active):
            known = scenario.sources[ks]
            asks = {
                (p, subs[p]) for p in open_problems & known
            }
            emitted[ks].update(p for p, _ in asks)
            ready = {
                p
                for p in (open_problems | emitted[ks]) & known
                if all((q, solve[q]) in published for q in subs[p])
            }
            requests[ks] = frozenset(asks)
            answers[ks] = frozenset((p, solve[p]) for p in sorted(ready))
            needs_wake[ks] = False
            if mutation == MUTATION_DROP_ACTIVATION and emitted[ks]:
                dark.add(ks)

        bbip = frozenset().union(*requests.values()) if requests else frozenset()
        bbis = frozenset().union(*answers.values()) if answers else frozenset()

        step_snapshots = [
            snapshot(
                BB_ID,
                local={},
                inputs={"bbip": bbip, "bbis": bbis},
                outputs={"bbop": bbop, "bbos": bbos},
            )
        ]
        for ks in sorted(active):
            step_snapshots.append(
                snapshot(
                    ks,
                    local={"prob": scenario.sources[ks]},
                    inputs={"ksip": bbop, "ksis": bbos},
                    outputs={"ksop": requests[ks], "ksos": answers[ks]},
                )
            )
        # the snapshots fix the active sources, and so the connections
        key = tuple(map(id, step_snapshots))
        config = configurations.get(key)
        if config is None:
            connection: dict = {}
            for ks in sorted(active):
                connection[(ks, "ksip")] = {(BB_ID, "bbop")}
                connection[(ks, "ksis")] = {(BB_ID, "bbos")}
                connection.setdefault((BB_ID, "bbip"), set()).add((ks, "ksop"))
                connection.setdefault((BB_ID, "bbis"), set()).add((ks, "ksos"))
            config = configurations[key] = ArchConfiguration(
                frozenset(step_snapshots), connection
            )
        steps.append(config)

        # state transition: solutions arrive, solved problems retire, and
        # requested subproblems get (re-)posted
        arriving = set(bbis)
        fresh = arriving - solved
        solved.update(arriving)
        if mutation != MUTATION_DROP_FORWARDING:
            published.update(arriving)
        open_problems -= {p for (p, s) in arriving if s == solve[p]}
        for p, required in bbip:
            open_problems.update(required)
        fresh_problems = {q for q, _ in fresh}
        for ks in roster:
            if not fresh_problems.isdisjoint(
                q for p in emitted[ks] for q in subs[p]
            ):
                needs_wake[ks] = True
        if (
            steps_to_solution is None
            and (scenario.root, solve[scenario.root]) in solved
        ):
            steps_to_solution = step_no + 1

    ever_active = {key[0] for key in snapshots}
    for ks in roster:
        if ks not in ever_active:
            snapshot(
                ks,
                local={"prob": scenario.sources[ks]},
                inputs={"ksip": (), "ksis": ()},
                outputs={"ksop": (), "ksos": ()},
            )

    universe = ComponentUniverse(frozenset(snapshots.values()))
    by_iface = {"BB": set(), "KS": set()}
    for snap in universe.snapshots:
        by_iface["BB" if snap.id == BB_ID else "KS"].add(
            identity_interpretation(snap)
        )
    interpretation = SpecInterpretation(
        {name: frozenset(items) for name, items in by_iface.items()}
    )
    trace = ConfigurationTrace(universe, tuple(steps))
    truncated = (scenario.root, solve[scenario.root]) not in published
    return SimulationResult(
        scenario=scenario,
        trace=trace,
        interpretation=interpretation,
        algebra=scenario_algebra(scenario),
        truncated=truncated,
        steps_to_solution=steps_to_solution,
    )


def random_scenario(
    rng: random.Random,
    max_problems: int = 6,
    max_depth: int = 3,
    max_sources: int = 3,
    horizon: int = 50,
) -> BlackboardScenario:
    """A random acyclic decomposition DAG with full source coverage."""
    for name, bound in (
        ("max_problems", max_problems),
        ("max_depth", max_depth),
        ("max_sources", max_sources),
    ):
        if bound < 1:
            raise UsageError(f"{name} must be at least 1")
    count = rng.randint(1, max_problems)
    problems = tuple(f"p{i}" for i in range(count))
    depth_of = {problems[0]: 0}
    for p in problems[1:]:
        depth_of[p] = rng.randint(1, max_depth)
    subproblems: dict[str, set[str]] = {p: set() for p in problems}
    for p in problems:
        deeper = [q for q in problems if depth_of[q] > depth_of[p]]
        for q in deeper:
            if rng.random() < 0.5:
                subproblems[p].add(q)
    # every non-root problem should matter: attach orphans to the root
    for q in problems[1:]:
        if not any(q in qs for qs in subproblems.values()) and q != problems[0]:
            if depth_of[q] > 0 and rng.random() < 0.8:
                subproblems[problems[0]].add(q)
    n_sources = rng.randint(1, max_sources)
    sources: dict[str, set[str]] = {f"ks{i + 1}": set() for i in range(n_sources)}
    names = sorted(sources)
    for p in problems:
        sources[rng.choice(names)].add(p)
        for ks in names:
            if rng.random() < 0.3:
                sources[ks].add(p)
    solutions = {p: f"s{i}" for i, p in enumerate(problems)}
    return BlackboardScenario(
        problems=problems,
        subproblems={p: frozenset(v) for p, v in subproblems.items()},
        solutions=solutions,
        sources={k: frozenset(v) for k, v in sources.items()},
        root=problems[0],
        horizon=horizon,
        seed=rng.randrange(2**31),
    )


# ---------------------------------------------------------------------------
# Source-unit rendering of simulation artifacts


def _value_expr(value):
    if isinstance(value, str):
        return EName(value)
    if isinstance(value, tuple):
        return EPair(_value_expr(value[0]), _value_expr(value[1]))
    items = sorted(value, key=lambda v: (isinstance(v, (tuple, frozenset)), str(v)))
    return ESet(tuple(_value_expr(v) for v in items))


def algebra_unit(scenario: BlackboardScenario, name: str = "ProbSolModel") -> SourceUnit:
    alg = scenario_algebra(scenario)
    prec_rows = sorted(alg.predicates["prec"])
    return SourceUnit(
        kind="algebra",
        name=name,
        imports=("ProbSol",),
        body=AlgebraBody(
            carriers=(
                CarrierDecl("PROB", scenario.problems),
                CarrierDecl("SOL", alg.carriers["SOL"]),
            ),
            functions=tuple(
                TableEntry("solve", (EName(p),), EName(scenario.solutions[p]))
                for p in scenario.problems
            ),
            predicates=tuple(
                TableEntry("prec", (EName(q), EName(p)), None) for q, p in prec_rows
            ),
        ),
    )


def trace_unit(
    result: SimulationResult, name: str = "Run", algebra_name: str = "ProbSolModel"
) -> SourceUnit:
    scenario = result.scenario
    components = [ComponentDecl(BB_ID, "BB", ())]
    for ks in sorted(scenario.sources):
        components.append(
            ComponentDecl(
                ks,
                "KS",
                ((("prob", _value_expr(scenario.sources[ks]))),),
            )
        )
    steps = []
    for k in result.trace.steps:
        actives = []
        for snap in sorted(k.active, key=lambda s: (s.id != BB_ID, s.id)):
            valuations = tuple(
                (port, _value_expr(snap.valuation[port]))
                for port in sorted(snap.input_ports | snap.output_ports)
                if snap.valuation[port]
            )
            actives.append(ActiveDecl(snap.id, valuations))
        connects = []
        for (cid, port), targets in sorted(k.connection.items()):
            for tid, tport in sorted(targets):
                connects.append(ConnectDecl(cid, port, tid, tport))
        steps.append(StepDecl(tuple(actives), tuple(connects)))
    return SourceUnit(
        kind="trace",
        name=name,
        imports=("BB", "KS", algebra_name),
        body=TraceBody(tuple(components), tuple(steps)),
    )


def load_blackboard_sources() -> dict[str, str]:
    """The shipped `.arch` texts of the blackboard pattern, by file name."""
    package = resources.files("archcheck") / "blackboardpack"
    out = {}
    for entry in sorted(package.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".arch"):
            out[entry.name] = entry.read_text(encoding="utf-8")
    return out
