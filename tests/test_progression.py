"""The progression core: the monitor against the oracle on every prefix, its
work per step, and long or deep inputs."""
import itertools
import random

import pytest

from archcheck.algebra import BoolLit
from archcheck.constraints import (
    CLOSED,
    OPEN,
    AssertionPlan,
    Eventually,
    Globally,
    Min,
    Monitor,
    Next,
    State,
    TraceAnd,
    TraceImplies,
    TraceNot,
    TraceOr,
    Truth,
    Until,
    Verdict,
    _StateEvaluator,
    check_trace_assertion,
    trace_holds,
)
from archcheck.model import ArchConfiguration, ComponentUniverse, ConfigurationTrace
from archcheck.parser.grammar import MAX_NESTING

import oracle
from fixtures import bb_snapshot, blackboard_interpretation, probsol_algebra
from generators import random_closed_assertion, random_world

MONITORED = (
    "BlackboardConnection.ax1",
    "BlackboardDiagram.minmax",
    "BlackboardDiagram.connections",
)


def _prefix(trace, t):
    return ConfigurationTrace(trace.universe, trace.steps[:t])


def test_monitor_agrees_with_the_oracle_on_every_prefix():
    # until its first final verdict the monitor gives the open verdict of
    # the prefix read so far; after it, that verdict stays
    rng = random.Random(404001)
    monitored = finals = 0
    while monitored < 150:
        world = random_world(rng)
        gamma = random_closed_assertion(rng, world, depth=4)
        oworld = oracle.World(world.alg, world.J)
        monitor = Monitor(world.alg, world.J, gamma)
        final = None
        for t, k in enumerate(world.extension.steps, start=1):
            verdict = monitor.step(k)
            if final is not None:
                assert verdict == final
                continue
            expected = oracle.check_assertion(
                oworld, _prefix(world.extension, t), gamma, OPEN
            )
            assert oracle.truth_letter(verdict) == expected, (gamma, t)
            if verdict.final:
                final = verdict
        finals += final is not None
        monitored += 1
    assert finals > 30  # the sample must reach final verdicts


def test_monitor_matches_trace_holds_on_mutated_blackboard_traces():
    from archcheck.blackboard import random_scenario, simulate_blackboard
    from archcheck.checker import blackboard_bundle, diagram_assertions

    bundle = blackboard_bundle()
    gammas = {c.name: c.gamma for c in bundle.constraints}
    gammas.update((name, gamma) for name, gamma, _ in diagram_assertions(bundle))
    rng = random.Random(404002)
    compared = 0
    for mutation in ("drop-forwarding", "drop-activation"):
        for _ in range(3):
            scenario = random_scenario(
                rng, max_problems=2, max_depth=2, max_sources=2, horizon=20
            )
            run = simulate_blackboard(scenario, mutation=mutation)
            for name in MONITORED:
                monitor = Monitor(run.algebra, run.interpretation, gammas[name])
                final = None
                for t, k in enumerate(run.trace.steps, start=1):
                    verdict = monitor.step(k)
                    if final is None:
                        expected = trace_holds(
                            run.algebra, run.interpretation, {}, {},
                            _prefix(run.trace, t), 0, gammas[name], OPEN,
                        )
                        assert verdict == expected, (mutation, name, t)
                        compared += 1
                        final = verdict if verdict.final else None
                    else:
                        assert verdict == final
    assert compared > 100


def test_monitor_equals_the_check_on_every_bundle_assertion():
    # each of the 15 bundle assertions, monitored through its bundle plan:
    # on every prefix the verdict of the open check of that prefix, witness
    # and explanation included, until the first final verdict; its truth
    # after it.  Each simulated trace is also fed with an empty
    # configuration in its middle, which violates safety assertions.
    from archcheck.blackboard import random_scenario, simulate_blackboard
    from test_rigid_enumeration import _bundle_assertions

    assertions = [
        (name, gamma, AssertionPlan(gamma, rigid_comp, rigid_data))
        for name, gamma, rigid_comp, rigid_data in _bundle_assertions()
    ]
    rng = random.Random(404003)
    truths = set()
    for mutation in (None, "drop-forwarding", "drop-activation"):
        for _ in range(2):
            scenario = random_scenario(rng, max_problems=3, max_sources=2, horizon=20)
            run = simulate_blackboard(scenario, mutation=mutation)
            steps = list(run.trace.steps)
            steps[len(steps) // 2] = ArchConfiguration(frozenset())
            gap = ConfigurationTrace(run.trace.universe, steps)
            for (name, gamma, plan), trace in itertools.product(
                assertions, (run.trace, gap)
            ):
                monitor = Monitor(run.algebra, run.interpretation, gamma, plan)
                final = None
                for t, k in enumerate(trace.steps, start=1):
                    verdict = monitor.step(k)
                    expected = check_trace_assertion(
                        run.algebra, run.interpretation, _prefix(trace, t),
                        gamma, OPEN, plan=plan,
                    )
                    where = (mutation, scenario.seed, name, trace is gap, t)
                    if final is None:
                        assert verdict == expected, where
                        final = verdict if verdict.final else None
                    else:
                        assert verdict == final and verdict.truth is expected.truth, where
                    truths.add(verdict.truth)
    assert {Truth.VIOLATED, Truth.INCONCLUSIVE} <= truths


class TestWorkPerStep:
    def setup_method(self):
        self.alg = probsol_algebra()
        self.bb = bb_snapshot()
        self.J = blackboard_interpretation({"BB": [self.bb], "KS": []})
        self.step = ArchConfiguration(frozenset({self.bb}))

    def _count_state_evaluations(self, monkeypatch):
        calls = []
        holds = _StateEvaluator.holds

        def counted(evaluator, asg, phi):
            calls.append(phi)
            return holds(evaluator, asg, phi)

        monkeypatch.setattr(_StateEvaluator, "holds", counted)
        return calls

    def test_one_state_evaluation_per_step(self, monkeypatch):
        calls = self._count_state_evaluations(monkeypatch)
        monitor = Monitor(self.alg, self.J, Globally(State(Min("BB", 1))))
        for _ in range(2000):
            assert monitor.step(self.step).truth is Truth.INCONCLUSIVE
        assert len(calls) == 2000

    def test_equal_pending_obligations_are_merged(self, monkeypatch):
        # G(a -> F b) with b never true: the F b opened at each step equals
        # the pending one, so each step evaluates a, the pending b and the
        # new b, however long the stream
        calls = self._count_state_evaluations(monkeypatch)
        gamma = Globally(TraceImplies(
            State(Min("BB", 1)), Eventually(State(Min("BB", 2)))
        ))
        monitor = Monitor(self.alg, self.J, gamma)
        for _ in range(500):
            assert monitor.step(self.step).truth is Truth.INCONCLUSIVE
        assert len(calls) == 3 * 500 - 1

    def test_long_trace_and_the_deepest_next_chain(self):
        steps = 5000
        trace = ConfigurationTrace(
            ComponentUniverse(frozenset({self.bb})), (self.step,) * steps
        )
        chain = State(Min("BB", 1))
        for _ in range(MAX_NESTING):
            chain = Next(chain)
        beyond = steps - MAX_NESTING  # the first step whose chain runs past the end
        never = State(BoolLit(False))
        past = Verdict(Truth.VIOLATED, beyond, "next step beyond the end")
        cases = [
            (Globally(chain), CLOSED, past),
            (Globally(chain), OPEN, Verdict(Truth.INCONCLUSIVE)),
            (Until(chain, never), CLOSED,
             Verdict(Truth.VIOLATED, beyond, "until never discharged")),
            (chain, OPEN, Verdict(Truth.SATISFIED)),
        ]
        for gamma, mode, verdict in cases:
            assert check_trace_assertion(self.alg, self.J, trace, gamma, mode) == verdict
        last = trace_holds(self.alg, self.J, {}, {}, trace, steps - 1, chain, CLOSED)
        assert last == Verdict(Truth.VIOLATED, steps - 1, "next step beyond the end")


def _witness_cases():
    # Each assertion has a position still pending when a later one is
    # decided: the earlier one wins if it is decided the same way, and the
    # later one if the trace ends first and leaves the earlier Inconclusive.
    a = State(Min("BB", 1))
    late = Next(Next(a))
    never = "next step beyond the end"
    return [
        # F: position 0 waits for step 2, position 1 is satisfied at once
        (Eventually(TraceOr((late, a))), "-++", OPEN, Verdict(Truth.SATISFIED, 0)),
        (Eventually(TraceOr((late, a))), "-+", OPEN, Verdict(Truth.SATISFIED, 1)),
        (Eventually(TraceOr((late, a))), "-+", CLOSED, Verdict(Truth.SATISFIED, 1)),
        # G: position 0 waits for step 2, position 1 is violated at once
        (Globally(TraceAnd((a, late))), "+-", OPEN, Verdict(Truth.VIOLATED, 1)),
        (Globally(TraceAnd((a, late))), "+-", CLOSED, Verdict(Truth.VIOLATED, 0, never)),
        (Globally(TraceAnd((a, late))), "+--", CLOSED, Verdict(Truth.VIOLATED, 0)),
        # U: the left side at 0 waits for step 2, the one at 1 fails at once
        (Until(TraceAnd((a, late)), State(BoolLit(False))), "+-", OPEN,
         Verdict(Truth.VIOLATED, 1, "until never discharged")),
        (Until(TraceAnd((a, late)), State(BoolLit(False))), "+-", CLOSED,
         Verdict(Truth.VIOLATED, 0, "until never discharged")),
        # And: the first item waits for step 2, the second is violated at once
        (TraceAnd((late, TraceNot(a))), "++", OPEN, Verdict(Truth.VIOLATED)),
        (TraceAnd((late, TraceNot(a))), "++", CLOSED, Verdict(Truth.VIOLATED, 1, never)),
    ]


@pytest.mark.parametrize("gamma, shape, mode, expected", _witness_cases())
def test_witness_of_a_later_position_waits_for_earlier_ones(gamma, shape, mode, expected):
    # shape: one step per character, "+" with the blackboard active
    alg = probsol_algebra()
    bb = bb_snapshot()
    J = blackboard_interpretation({"BB": [bb], "KS": []})
    steps = tuple(ArchConfiguration(frozenset({bb} if c == "+" else ())) for c in shape)
    trace = ConfigurationTrace(ComponentUniverse(frozenset({bb})), steps)
    assert trace_holds(alg, J, {}, {}, trace, 0, gamma, mode) == expected
    world = oracle.World(alg, J)
    assert oracle.truth_letter(expected) == oracle.check_assertion(world, trace, gamma, mode)
