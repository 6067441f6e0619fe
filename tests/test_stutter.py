"""Stutter-aware trace evaluation: interned steps and skipped fixed-point
steps give the verdicts of the plain progression, which reads every step."""
import itertools
import random

from archcheck import constraints
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
    _node_tables,
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
    """check_trace_assertion without the skip: one plain progression per
    assignment of the full product, in product order, that reads every
    step.  A rigid-closed assertion has one, whose verdict is returned as
    it is."""
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
            evaluator = _TraceEvaluator(alg, J, _node_tables(gamma))
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
                # the monitor interns the fresh copies before it skips: it
                # must agree on every prefix until its verdict is final
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

    def test_a_name_at_two_sorts_is_evaluated(self):
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


def test_pack_verdicts_equal_the_plain_progression_under_an_unread_rigid_variable():
    # the 15 pack assertions on one run, open and closed, alone and under a
    # rigid variable that no state formula reads, so that every instance
    # evaluates the same state formulas at the same steps
    scenario = random_scenario(random.Random(19), max_problems=6)
    assert len(scenario.problems) == 6
    run = simulate_blackboard(scenario)
    alg, J, trace = run.algebra, run.interpretation, run.trace
    assertions = _bundle_assertions()
    assert len(assertions) == 15
    for name, gamma, rigid_comp, rigid_data in assertions:
        wrapped = RigidForallData("zz", PROB, gamma)
        for mode in (OPEN, CLOSED):
            verdicts = []
            for assertion in (gamma, wrapped):
                verdict = check_trace_assertion(
                    alg, J, trace, assertion, mode,
                    rigid_comp_decls=rigid_comp, rigid_data_decls=rigid_data,
                )
                assert verdict == _plain(alg, J, trace, assertion, mode, rigid_comp), (
                    name, mode, assertion is wrapped,
                )
                verdicts.append(verdict)
            assert verdicts[0].truth is verdicts[1].truth, (name, mode)


def _fresh(k):
    """An equal configuration built afresh, down to its sets and its map,
    as a stream read from outside the simulator would give it."""
    return ArchConfiguration(set(k.active), dict(k.connection))


def _monitor_against_the_check(run, steps, name, plan, oworld=None):
    """Stream ``steps`` through a Monitor of ``plan``'s assertion, each
    rebuilt afresh just before it is fed and dropped after, unless the
    monitor keeps it.  Until the first final verdict, each verdict must
    print as the open check of the prefix read, witness and explanation
    included, and after it the check's truth must agree.  With ``oworld``,
    the oracle's open truth must agree on every prefix."""
    gamma = plan.gamma
    monitor, final = Monitor(run.algebra, run.interpretation, gamma, plan), None
    for t, k in enumerate(steps, start=1):
        verdict = monitor.step(_fresh(k))
        prefix = ConfigurationTrace(run.trace.universe, steps[:t])
        expected = check_trace_assertion(
            run.algebra, run.interpretation, prefix, gamma, OPEN, plan=plan
        )
        if final is None:
            assert str(verdict) == str(expected), (name, t)
            final = verdict if verdict.final else None
        else:
            assert verdict == final and verdict.truth is expected.truth, (name, t)
        if oworld is not None:
            letter = oracle.check_assertion(
                oworld, prefix, gamma, OPEN, rigid_comp=dict(plan.comps)
            )
            assert oracle.truth_letter(verdict) == letter, (name, t)
        yield monitor, verdict


def test_monitor_on_fresh_configurations_equals_the_check(monkeypatch):
    # every step rebuilt as a new object: the monitor interns it by
    # equality and skips as it does on the simulator's shared objects.
    # Each simulated stream is also fed with an empty configuration in its
    # middle, which violates safety assertions.
    assertions = [
        (name, AssertionPlan(gamma, rigid_comp, rigid_data))
        for name, gamma, rigid_comp, rigid_data in _bundle_assertions()
    ]
    rng = random.Random(220001)
    runs = [
        simulate_blackboard(
            random_scenario(rng, max_problems=4, max_sources=3, horizon=30),
            mutation=mutation,
        )
        for mutation in (None, "drop-forwarding", "drop-activation")
        for _ in range(2)
    ]
    progressed = []
    progress = _TraceEvaluator.progress

    def counted(evaluator, *args):
        progressed.append(id(evaluator))
        return progress(evaluator, *args)

    monkeypatch.setattr(_TraceEvaluator, "progress", counted)
    truths, fed, read, sampled = set(), 0, 0, 0
    for r, run in enumerate(runs):
        oworld = oracle.World(run.algebra, run.interpretation)
        plain = run.trace.steps
        gap = list(plain)
        gap[len(gap) // 2] = ArchConfiguration(frozenset())
        for i, (name, plan) in enumerate(assertions):
            # the oracle enumerates every rigid assignment at every prefix:
            # one assertion in five, a different one for each run, keeps it short
            sample = i % 5 == r % 5
            sampled += sample
            for steps in (plain, gap):
                for monitor, verdict in _monitor_against_the_check(
                    run, steps, name, plan, oworld if sample else None
                ):
                    truths.add(verdict.truth)
                fed += len(steps)
                read += progressed.count(id(monitor._evaluator))
                progressed.clear()
    assert {Truth.VIOLATED, Truth.INCONCLUSIVE} <= truths
    assert read < fed / 4 and sampled >= 15


def test_the_intern_table_is_bounded(monkeypatch):
    # a bound of 4 against a stream of distinct configurations, each fresh
    # and each met again soon after: the evaluator's set of ids only names
    # configurations the table keeps alive, so that no id in it is reused,
    # and no verdict changes across a clear
    monkeypatch.setattr(constraints, "_INTERNED_CONFIGURATIONS", 4)
    rng = random.Random(220002)
    scenario = random_scenario(rng, max_problems=4, max_sources=3, horizon=60)
    run = simulate_blackboard(scenario)
    distinct = list(dict.fromkeys(run.trace.steps))
    assert len(distinct) >= 8
    order = []
    for i in range(len(distinct)):
        order += [i, i, max(i - 1, 0), i, max(i - 3, 0)]
    steps = [distinct[i] for i in order]
    clears = 0
    for name, gamma, rigid_comp, rigid_data in _bundle_assertions():
        plan = AssertionPlan(gamma, rigid_comp, rigid_data)
        size = 0
        for monitor, _ in _monitor_against_the_check(run, steps, name, plan):
            interned = len(monitor._interned)
            assert interned <= 4, name
            assert monitor._evaluator.unchanged <= set(map(id, monitor._interned)), name
            clears += interned < size
            size = interned
    assert clears > 15
