"""Stutter-aware trace evaluation: interned steps, memoised state verdicts
and skipped fixed-point steps give the verdicts of the plain progression,
which reads every step and evaluates every state formula afresh."""
import itertools
import random

from archcheck.algebra import And, Equals, Member, Var, children
from archcheck.blackboard import random_scenario, simulate_blackboard
from archcheck.constraints import (
    _COMPS,
    CLOSED,
    INCONCLUSIVE,
    OPEN,
    SATISFIED,
    AssertionPlan,
    Eventually,
    Globally,
    Max,
    Min,
    Monitor,
    Next,
    PortRead,
    RigidForallData,
    State,
    TraceImplies,
    TraceOr,
    Truth,
    Until,
    Verdict,
    _Deferred,
    _StateEvaluator,
    _TraceEvaluator,
    check_trace_assertion,
    free_vars,
    trace_holds,
)
from archcheck.model import ArchConfiguration, ComponentUniverse, ConfigurationTrace

import oracle
from fixtures import (
    PROB,
    SOL,
    bb_snapshot,
    blackboard_interpretation,
    ks_snapshot,
    probsol_algebra,
)
from generators import FormulaGenerator, random_closed_assertion, random_world
from test_rigid_enumeration import _bundle_assertions


def _plain(alg, J, trace, gamma, mode, rigid_comp=None):
    """check_trace_assertion with neither the memo nor the skip: one plain
    progression per assignment of the full product, in product order.  A
    rigid-closed assertion has one, whose verdict is returned as it is."""
    free_data, free_comps = free_vars(gamma)
    data_names, comp_names = sorted(free_data), sorted(free_comps)
    rigid_comp = rigid_comp or {}
    data_domains = [alg.carrier(free_data[n]) for n in data_names]
    comp_domains = [J.ids_of(rigid_comp.get(n) or free_comps[n]) for n in comp_names]
    saw_inconclusive = False
    for data_combo in itertools.product(*data_domains):
        for comp_combo in itertools.product(*comp_domains):
            asg = {**dict(zip(data_names, data_combo)),
                   _COMPS: dict(zip(comp_names, comp_combo))}
            evaluator = _TraceEvaluator(alg, J, remember_steps=False)
            residual = _Deferred(gamma, asg)
            for m, k in enumerate(trace.steps):
                residual = evaluator.progress(residual, m, k)
                if type(residual) is Verdict:
                    break
            else:
                residual = evaluator.close(residual, mode)
            if not data_names and not comp_names:
                return residual
            if residual.truth is Truth.VIOLATED:
                return residual
            saw_inconclusive |= residual.truth is Truth.INCONCLUSIVE
    return INCONCLUSIVE if saw_inconclusive else SATISFIED


def _copy(k):
    """An equal configuration that is another object."""
    return ArchConfiguration(k.active, k.connection)


def _stuttering_traces(rng, world):
    """The world's longer trace with each step repeated 1 to 4 times, and a
    period-2 alternation of two of its steps."""
    steps = world.extension.steps
    runs = [_copy(k) for k in steps for _ in range(rng.randint(1, 4))]
    pair = (rng.choice(steps), rng.choice(steps))
    alternation = [_copy(pair[i % 2]) for i in range(rng.randint(4, 9))]
    universe = world.extension.universe
    return ConfigurationTrace(universe, runs), ConfigurationTrace(universe, alternation)


def _has_next(gamma) -> bool:
    return type(gamma) is Next or any(_has_next(child) for child in children(gamma))


def _with_next(rng, gamma):
    return rng.choice((gamma, Next(gamma), Globally(TraceOr((gamma, Next(gamma))))))


def test_stuttering_traces_agree_with_the_oracle_and_the_plain_progression():
    rng = random.Random(707001)
    letters, monitored, with_next = [], 0, 0
    for _ in range(40):
        world = random_world(rng)
        oworld = oracle.World(world.alg, world.J)
        iface = rng.choice(world.interfaces)
        gen = FormulaGenerator(rng, world)
        cases = [(_with_next(rng, random_closed_assertion(rng, world, depth=3)), {})
                 for _ in range(2)]
        cases += [(_with_next(rng, gen.trace_formula(3, ["x"], [("b", iface)])),
                   {"b": iface})]
        for trace in _stuttering_traces(rng, world):
            for gamma, decls in cases:
                with_next += _has_next(gamma)
                for mode in (OPEN, CLOSED):
                    verdict = check_trace_assertion(
                        world.alg, world.J, trace, gamma, mode, rigid_comp_decls=decls
                    )
                    expected = _plain(world.alg, world.J, trace, gamma, mode, decls)
                    assert verdict == expected, (mode, gamma)
                    letter = oracle.check_assertion(
                        oworld, trace, gamma, mode, rigid_comp=decls
                    )
                    assert oracle.truth_letter(verdict) == letter, (mode, gamma)
                    letters.append(letter)
                # the monitor has neither the memo nor the skip: it must
                # agree on every prefix until its verdict is final
                plan = AssertionPlan(gamma, decls)
                monitor, final = Monitor(world.alg, world.J, gamma, plan), None
                for t, k in enumerate(trace.steps, start=1):
                    verdict = monitor.step(k)
                    if final is None:
                        prefix = ConfigurationTrace(trace.universe, trace.steps[:t])
                        assert verdict == check_trace_assertion(
                            world.alg, world.J, prefix, gamma, OPEN, plan=plan
                        ), (t, gamma)
                        assert oracle.truth_letter(verdict) == oracle.check_assertion(
                            oworld, prefix, gamma, OPEN, rigid_comp=decls
                        ), (t, gamma)
                        final = verdict if verdict.final else None
                    else:
                        assert verdict == final
                whole = check_trace_assertion(
                    world.alg, world.J, trace, gamma, OPEN, plan=plan
                )
                assert verdict.truth is whole.truth
                monitored += 1
    assert {oracle.T, oracle.F, oracle.U} <= set(letters)
    assert monitored >= 40 and with_next >= 100


class TestStutterRuns:
    def setup_method(self):
        self.alg = probsol_algebra()
        self.posted = bb_snapshot(bbop={"pA"})
        self.bb = bb_snapshot()
        self.J = blackboard_interpretation({"BB": [self.posted, self.bb], "KS": []})
        self.universe = ComponentUniverse(frozenset({self.posted, self.bb}))

    def _trace(self, first, repeats):
        steps = [ArchConfiguration(frozenset({first}))]
        steps += [ArchConfiguration(frozenset({self.bb})) for _ in range(repeats)]
        return ConfigurationTrace(self.universe, steps)

    def _count(self, monkeypatch, cls, name):
        calls = []
        original = getattr(cls, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cls, name, counted)
        return calls

    def test_equal_steps_are_one_object(self):
        steps = [ArchConfiguration(frozenset({s}))
                 for s in (self.bb, self.posted, self.bb, self.bb, self.posted)]
        trace = ConfigurationTrace(self.universe, steps)
        assert trace.steps[0] is steps[0] and trace.steps[1] is steps[1]
        assert trace.steps[0] is trace.steps[2] is trace.steps[3]
        assert trace.steps[1] is trace.steps[4]
        assert trace.steps == tuple(steps)
        assert trace == ConfigurationTrace(self.universe, tuple(steps))

    def test_closed_witnesses_name_the_last_index(self, monkeypatch):
        # the trace ends in a run of 10 equal steps; index 10 is the last
        progress = self._count(monkeypatch, _TraceEvaluator, "progress")
        trace = self._trace(self.posted, 10)
        one, two = State(Min("BB", 1)), State(Min("BB", 2))
        cases = [
            (Eventually(two), "no witness before the end", True),
            (Until(one, two), "until never discharged", True),
            (Globally(Next(one)), "next step beyond the end", False),
        ]
        for gamma, explanation, skips in cases:
            progress.clear()
            verdict = check_trace_assertion(self.alg, self.J, trace, gamma, CLOSED)
            assert verdict == Verdict(Truth.VIOLATED, 10, explanation)
            assert (len(progress) < 11) is skips
            assert trace_holds(self.alg, self.J, {}, {}, trace, 0, gamma, CLOSED) == verdict
            assert _plain(self.alg, self.J, trace, gamma, CLOSED) == verdict
            assert check_trace_assertion(self.alg, self.J, trace, gamma, OPEN) == INCONCLUSIVE

    def test_a_step_is_skipped_only_while_the_residual_it_fixed_lasts(self):
        # G(p -> F q) on A, C, B, C: A and C leave the first residual alone,
        # B opens an F q that only the last C discharges
        ks = ks_snapshot("ks1", prob={"pA"})
        J = blackboard_interpretation({"BB": [self.bb], "KS": [ks]})
        a = ArchConfiguration(frozenset({self.bb}))
        b = ArchConfiguration(frozenset({self.bb, ks}))
        c = ArchConfiguration(frozenset())
        trace = ConfigurationTrace(ComponentUniverse(frozenset({self.bb, ks})), (a, c, b, c))
        gamma = Globally(TraceImplies(State(Min("KS", 1)), Eventually(State(Max("BB", 0)))))
        assert check_trace_assertion(self.alg, J, trace, gamma, CLOSED) == SATISFIED
        assert check_trace_assertion(self.alg, J, trace, gamma, OPEN) == INCONCLUSIVE
        short = ConfigurationTrace(trace.universe, (a, c, b))
        assert check_trace_assertion(self.alg, J, short, gamma, CLOSED).truth is Truth.VIOLATED

    def test_a_name_at_two_sorts_is_evaluated_without_the_memo(self):
        # free_vars refuses the state formula, the evaluation does not
        posted = Member(Var("p", PROB), PortRead("bb", "BB", "bbop", PROB))
        odd = Equals(Var("p", SOL), Var("p", SOL))
        gamma = RigidForallData("p", PROB, Globally(State(And((posted, odd)))))
        trace = self._trace(self.posted, 3)
        for mode in (OPEN, CLOSED):
            verdict = check_trace_assertion(
                self.alg, self.J, trace, gamma, mode, rigid_comp_decls={"bb": "BB"}
            )
            assert verdict.truth is Truth.VIOLATED
            assert verdict == _plain(self.alg, self.J, trace, gamma, mode, {"bb": "BB"})

    def test_work_does_not_grow_with_the_trace(self, monkeypatch):
        # G(a -> F b), b never true, on one configuration repeated and on
        # two alternating: after the first steps the residual is a fixed
        # point of each, so the rest of the trace is skipped
        progress = self._count(monkeypatch, _TraceEvaluator, "progress")
        holds = self._count(monkeypatch, _StateEvaluator, "holds")
        gamma = Globally(TraceImplies(State(Min("BB", 1)), Eventually(State(Min("BB", 2)))))
        for pattern in ((self.bb,), (self.bb, self.posted)):
            for mode in (OPEN, CLOSED):
                counts = []
                for length in (20, 2000):
                    steps = [ArchConfiguration(frozenset({pattern[i % len(pattern)]}))
                             for i in range(length)]
                    trace = ConfigurationTrace(self.universe, steps)
                    progress.clear()
                    holds.clear()
                    verdict = check_trace_assertion(self.alg, self.J, trace, gamma, mode)
                    counts.append((len(progress), len(holds)))
                    assert verdict == _plain(self.alg, self.J, trace, gamma, mode)
                assert counts[0] == counts[1], (pattern, mode)
                assert counts[0][0] <= 2 * len(pattern) + 1


def test_state_evaluations_are_at_most_the_distinct_triples(monkeypatch):
    # each (formula, configuration, values of the formula's free variables)
    # is evaluated at most once per check, and the check asks for more
    scenario = random_scenario(random.Random(19), max_problems=6)
    assert len(scenario.problems) == 6
    run = simulate_blackboard(scenario)
    requested, evaluated = [], []
    depth = [0]
    state_verdict, holds = _TraceEvaluator.state_verdict, _StateEvaluator.holds

    def triple(evaluator, asg, phi):
        data, comps = free_vars(phi)
        return (
            id(phi),
            evaluator.k,
            tuple(asg[name] for name in sorted(data)),
            tuple(asg[_COMPS][name] for name in sorted(comps)),
        )

    def requesting(evaluator, asg, phi):
        requested.append(triple(evaluator.state, asg, phi))
        return state_verdict(evaluator, asg, phi)

    def evaluating(evaluator, asg, phi):
        if depth[0] == 0:
            evaluated.append(triple(evaluator, asg, phi))
        depth[0] += 1
        try:
            return holds(evaluator, asg, phi)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(_TraceEvaluator, "state_verdict", requesting)
    monkeypatch.setattr(_StateEvaluator, "holds", evaluating)
    total_requested = total_evaluated = 0
    for name, gamma, rigid_comp, rigid_data in _bundle_assertions():
        for mode in (OPEN, CLOSED):
            requested.clear()
            evaluated.clear()
            check_trace_assertion(
                run.algebra, run.interpretation, run.trace, gamma, mode,
                rigid_comp_decls=rigid_comp, rigid_data_decls=rigid_data,
            )
            assert len(evaluated) <= len(set(requested)), (name, mode)
            total_requested += len(requested)
            total_evaluated += len(evaluated)
    assert total_evaluated < total_requested
