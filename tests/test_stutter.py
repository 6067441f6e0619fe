"""Stutter-aware trace evaluation: interned steps and skipped fixed-point
steps give the verdicts of the plain progression, which reads every step."""
import itertools
import random

from hypothesis import given, settings, strategies as st

from archcheck import constraints
from archcheck.algebra import And, Equals, Member, Var, children
from archcheck.blackboard import random_scenario, simulate_blackboard
from archcheck.constraints import (
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
    _StateEvaluator,
    _TraceEvaluator,
    _node_tables,
    check_trace_assertion,
    free_vars,
    trace_holds,
)
from archcheck.model import (
    ArchConfiguration,
    ComponentUniverse,
    ConfigurationTrace,
    make_snapshot,
)

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
            asg = {**dict(zip(data_names, data_combo)), **dict(zip(comp_names, comp_combo))}
            evaluator = _TraceEvaluator(alg, J, _node_tables(gamma), asg)
            for m, k in enumerate(trace.steps):
                evaluator.progress(m, k)
                if type(evaluator.residual) is Verdict:
                    break
            residual = evaluator.verdict(mode)
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
                # the monitor skips the fresh copies by equality: it must
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

    def test_unequal_configurations_of_one_hash_are_told_apart(self):
        # A, C and B of the test above, B and C forced to the hash of A:
        # once the skip set holds A and C, it must still read B, which opens
        # an F q under the first assertion and violates the second
        ks = ks_snapshot("ks1", prob={"pA"})
        J = blackboard_interpretation({"BB": [self.bb], "KS": [ks]})
        a = ArchConfiguration(frozenset({self.bb}))
        b = ArchConfiguration(frozenset({self.bb, ks}))
        c = ArchConfiguration(frozenset())
        for k in (b, c):
            object.__setattr__(k, "_hash", hash(a))
        assert len({a, b, c}) == 3 and len({hash(k) for k in (a, b, c)}) == 1
        universe = ComponentUniverse(frozenset({self.bb, ks}))
        gammas = [
            Globally(TraceImplies(State(Min("KS", 1)), Eventually(State(Max("BB", 0))))),
            Globally(State(Max("KS", 0))),
        ]
        for gamma in gammas:
            for steps in ((a, c, a, c, b, c), (c, a, c, a, b, a, b)):
                trace = ConfigurationTrace(universe, steps)
                for mode in (OPEN, CLOSED):
                    verdict = check_trace_assertion(self.alg, J, trace, gamma, mode)
                    assert verdict == _plain(self.alg, J, trace, gamma, mode), (steps, mode)
                monitor, final = Monitor(self.alg, J, gamma), None
                for t, k in enumerate(steps, start=1):
                    if t == 5:
                        assert monitor._evaluator.unchanged == {a, c}
                        assert b not in monitor._evaluator.unchanged
                    verdict = monitor.step(k)
                    prefix = ConfigurationTrace(universe, steps[:t])
                    expected = check_trace_assertion(self.alg, J, prefix, gamma, OPEN)
                    assert expected == _plain(self.alg, J, prefix, gamma, OPEN)
                    if final is None:
                        assert verdict == expected, (gamma, steps, t)
                        final = verdict if verdict.final else None
                    else:
                        assert verdict == final

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
    # every step rebuilt as a new object: the monitor skips it by equality
    # as it does the simulator's shared objects.
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


def test_the_skip_set_is_bounded(monkeypatch):
    # a bound of 4 against a stream of distinct configurations, each fresh
    # and each met again soon after: the set of configurations known to
    # leave the residual unchanged never holds more than 4, a full set is
    # cleared, which takes it from 4 to the 1 that joins it, and no
    # verdict changes across a clear
    monkeypatch.setattr(constraints, "_UNCHANGED_BOUND", 4)
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
            held = len(monitor._evaluator.unchanged)
            assert held <= 4, name
            clears += size == 4 and held == 1
            size = held
    assert clears > 15


def test_two_runs_of_one_plan_fed_in_turn_give_their_verdicts_alone():
    # two Monitors of one AssertionPlan share its closure and guard tables;
    # fed two streams in turn, step by step, each gives at every step the
    # verdict it gives alone and that of the open check of its prefix.
    # Each run is streamed as it is, with an empty configuration in its
    # middle, which violates safety assertions, and backwards, which meets
    # the configurations of the first stream under other residuals
    runs = [
        simulate_blackboard(random_scenario(random.Random(seed), horizon=30), mutation=mutation)
        for seed, mutation in ((1, None), (17, None), (19, None), (1, "drop-forwarding"))
    ]
    streams = []
    for run in runs:
        gap = list(run.trace.steps)
        gap[len(gap) // 2] = ArchConfiguration(frozenset())
        streams += [(run, run.trace.steps), (run, tuple(gap)), (run, run.trace.steps[::-1])]
    assertions = _bundle_assertions()
    assert len(assertions) == 15
    truths = set()
    for name, gamma, rigid_comp, rigid_data in assertions:
        plan = AssertionPlan(gamma, rigid_comp, rigid_data)
        alone = []  # per stream, the verdicts of a Monitor fed it alone
        for run, steps in streams:
            alone.append([v for _, v in _monitor_against_the_check(run, steps, name, plan)])
            truths.update(v.truth for v in alone[-1])
        for i in range(len(streams)):
            pair = []
            for s in (i, (i + 1) % len(streams)):
                run, steps = streams[s]
                monitor = Monitor(run.algebra, run.interpretation, gamma, plan)
                pair.append((monitor, steps, alone[s]))
            for t in range(max(len(steps) for _, steps, _ in pair)):
                for monitor, steps, expected in pair:
                    if t < len(steps):
                        assert monitor.step(_fresh(steps[t])) == expected[t], (name, i, t)
    assert {Truth.VIOLATED, Truth.INCONCLUSIVE} <= truths


def _rebuilt(k):
    """An equal configuration whose snapshots are made afresh."""
    def copy(snap):
        def ports(names):
            return {p: snap.valuation[p] for p in names}
        return make_snapshot(snap.id, local=ports(snap.local_ports),
                             inputs=ports(snap.input_ports), outputs=ports(snap.output_ports))
    return ArchConfiguration(frozenset(map(copy, k.active)), dict(k.connection))


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(
    seed=st.integers(0, 2**16),
    runs=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    dropped=st.integers(0, 6),
    rebuilt=st.booleans(),
    free=st.booleans(),
    outer=st.sampled_from((None, Eventually)),
    back=st.integers(0, 2),
)
def test_the_core_agrees_with_the_oracle_on_stutter_runs(seed, runs, dropped, rebuilt, free,
                                                         outer, back):
    # a random world's longer trace with step ``dropped`` left out (when
    # there is one and another remains) and each other step repeated by
    # ``runs`` in turn, ``back`` steps from its middle on replaced by its
    # first ones, its configurations made afresh when ``rebuilt``: the
    # checks in both modes, a monitor on every prefix and the oracle agree,
    # and the checks give the plain progression's witnesses.  An ``outer``
    # F keeps more runs pending to the end of the trace.  With ``back``, the
    # trace returns to configurations met before the residual changed, which
    # a skip set kept across that change would skip
    rng = random.Random(seed)
    world = random_world(rng, max_len=4, extra_steps=2)  # the oracle is exponential in nesting
    oworld = oracle.World(world.alg, world.J)
    steps = list(world.extension.steps)
    if len(steps) > max(dropped, 1):
        del steps[dropped]
    steps = [k for i, k in enumerate(steps) for _ in range(runs[i % len(runs)])]
    if back and len(steps) > 2 * back:
        middle = len(steps) // 2
        steps[middle:middle + back] = steps[:back]
    if rebuilt:
        steps = [_rebuilt(k) for k in steps]
    trace = ConfigurationTrace(world.extension.universe, steps)
    if free:
        iface = rng.choice(world.interfaces)
        gen = FormulaGenerator(rng, world)
        gamma, decls = gen.trace_formula(3, ["x"], [("b", iface)]), {"b": iface}
    else:
        gamma, decls = random_closed_assertion(rng, world, depth=3), {}
    if outer is not None:
        gamma = outer(gamma)
    plan = AssertionPlan(gamma, decls)
    for mode in (OPEN, CLOSED):
        verdict = check_trace_assertion(world.alg, world.J, trace, gamma, mode, plan=plan)
        assert verdict == _plain(world.alg, world.J, trace, gamma, mode, decls), mode
        letter = oracle.check_assertion(oworld, trace, gamma, mode, rigid_comp=decls)
        assert oracle.truth_letter(verdict) == letter, mode
    monitor, final = Monitor(world.alg, world.J, gamma, plan), None
    for t, k in enumerate(steps, start=1):
        verdict = monitor.step(k)
        if final is not None:
            assert verdict == final
            continue
        prefix = ConfigurationTrace(trace.universe, steps[:t])
        assert verdict == check_trace_assertion(
            world.alg, world.J, prefix, gamma, OPEN, plan=plan
        ), t
        assert oracle.truth_letter(verdict) == oracle.check_assertion(
            oworld, prefix, gamma, OPEN, rigid_comp=decls
        ), t
        final = verdict if verdict.final else None
