"""Rigid variables in check_trace_assertion: one run of the assertion's
universal closure.  A plain closure gives the verdicts of the full product
fold; a trigger-shaped one starts an instance only for a pattern value that
occurs in the guard's source at that step, and gives the fold's truth with
the documented witness."""
import itertools
import random

import pytest

from archcheck.algebra import (
    Algebra,
    And,
    Apply,
    BoolLit,
    Equals,
    Member,
    Not,
    PairTerm,
    SetTerm,
    Var,
    find_guard,
)
from archcheck.blackboard import random_scenario, simulate_blackboard
from archcheck.checker import blackboard_bundle, diagram_assertions
from archcheck.constraints import (
    CLOSED,
    INCONCLUSIVE,
    OPEN,
    SATISFIED,
    Active,
    AssertionPlan,
    Conn,
    Eventually,
    ForallComp,
    Globally,
    IRConn,
    MinMax,
    Monitor,
    PortRead,
    RigidForallComp,
    RigidForallData,
    State,
    TraceImplies,
    Truth,
    Verdict,
    _TraceEvaluator,
    check_trace_assertion,
    free_vars,
    trace_holds,
)
from archcheck.errors import InterpretationError, StructuralError
from archcheck.interfaces import (
    InterfaceInterpretation,
    SpecInterpretation,
    identity_interpretation,
)
from archcheck.model import (
    ArchConfiguration,
    ComponentUniverse,
    ConfigurationTrace,
    make_snapshot,
    value_key,
)

import oracle
from fixtures import (
    BB_PORT_SORTS,
    PROB,
    bb_snapshot,
    blackboard_interpretation,
    ks_snapshot,
    probsol_algebra,
)
from generators import (
    D,
    PAIR_DD,
    RIGID_QUANTIFIERS,
    STATE_QUANTIFIERS,
    FormulaGenerator,
    QuantifierCounts,
    count_starts,
    random_world,
)

TRIGGER_SHAPED = {
    "BlackboardBehavior.ax1",
    "BlackboardBehavior.ax2",
    "BlackboardBehavior.ax3",
    "KnowledgeSourceBehavior.ax3",
}


def _bundle_assertions():
    bundle = blackboard_bundle()
    assertions = [
        (c.name, c.gamma, c.rigid_comp, c.rigid_data) for c in bundle.constraints
    ]
    assertions += [(name, g, comp, {}) for name, g, comp in diagram_assertions(bundle)]
    return assertions


def _domains(alg, J, gamma, rigid_comp):
    free_data, free_comps = free_vars(gamma)
    data_names, comp_names = sorted(free_data), sorted(free_comps)
    data_domains = [alg.carrier(free_data[n]) for n in data_names]
    comp_domains = [J.ids_of(rigid_comp.get(n) or free_comps[n]) for n in comp_names]
    return data_names, data_domains, comp_names, comp_domains


def _product_fold(alg, J, trace, gamma, mode, rigid_comp):
    """The meaning of check_trace_assertion written out: trace_holds on
    every assignment of the full product, in product order; the first
    Violated verdict decides, then Inconclusive, then Satisfied."""
    data_names, data_domains, comp_names, comp_domains = _domains(
        alg, J, gamma, rigid_comp
    )
    saw_inconclusive = False
    for data_combo in itertools.product(*data_domains):
        for comp_combo in itertools.product(*comp_domains):
            verdict = trace_holds(
                alg, J, dict(zip(data_names, data_combo)),
                dict(zip(comp_names, comp_combo)), trace, 0, gamma, mode,
            )
            if verdict.truth is Truth.VIOLATED:
                return verdict
            saw_inconclusive |= verdict.truth is Truth.INCONCLUSIVE
    return INCONCLUSIVE if saw_inconclusive else SATISFIED


def _trigger_guard(gamma):
    """The guard of a trigger-shaped ``G(State(guard ...) -> beta)``, whose
    pattern is exactly its free data variables; None for any other shape."""
    if type(gamma) is not Globally or type(gamma.body) is not TraceImplies:
        return None
    if type(gamma.body.left) is not State:
        return None
    free_data = free_vars(gamma)[0]
    guard = find_guard(gamma.body.left.formula, free_data)
    if guard is None or set(guard.names) != set(free_data):
        return None
    return guard


def _slice_fold(alg, J, trace, gamma, mode, rigid_comp):
    """The documented verdict of a trigger-shaped assertion written out:
    trace_holds on every assignment, component assignments outermost.  The
    first component assignment under which some data assignment is
    violated decides, by the earliest violated step and then the first
    pattern value in value order; then Inconclusive, then Satisfied."""
    names = _trigger_guard(gamma).names
    data_names, data_domains, comp_names, comp_domains = _domains(
        alg, J, gamma, rigid_comp
    )
    saw_inconclusive = False
    for comp_combo in itertools.product(*comp_domains):
        violated = []
        for data_combo in itertools.product(*data_domains):
            data = dict(zip(data_names, data_combo))
            verdict = trace_holds(
                alg, J, data, dict(zip(comp_names, comp_combo)), trace, 0, gamma, mode
            )
            if verdict.truth is Truth.VIOLATED:
                value = tuple(data[n] for n in names)
                value = value[0] if len(value) == 1 else value
                violated.append((verdict.witness, value_key(value), verdict))
            saw_inconclusive |= verdict.truth is Truth.INCONCLUSIVE
        if violated:
            return min(violated, key=lambda item: item[:2])[2]
    return INCONCLUSIVE if saw_inconclusive else SATISFIED


def _prefix(trace, t):
    return ConfigurationTrace(trace.universe, trace.steps[:t])


def test_bundle_verdicts_equal_the_full_product_fold():
    # truth, witness and explanation, on plain and mutated traces; a
    # trigger-shaped assertion has the fold's truth and the witness and
    # explanation of the documented order
    assertions = _bundle_assertions()
    assert len(assertions) == 15
    assert {a[0] for a in assertions if _trigger_guard(a[1])} == TRIGGER_SHAPED
    rng = random.Random(515001)
    truths = []
    for mutation in (None, "drop-forwarding", "drop-activation"):
        for _ in range(2):
            scenario = random_scenario(rng, max_problems=6, horizon=30)
            run = simulate_blackboard(scenario, mutation=mutation)
            for name, gamma, rigid_comp, rigid_data in assertions:
                for mode in (OPEN, CLOSED):
                    verdict = check_trace_assertion(
                        run.algebra, run.interpretation, run.trace, gamma, mode,
                        rigid_comp_decls=rigid_comp, rigid_data_decls=rigid_data,
                    )
                    expected = _product_fold(
                        run.algebra, run.interpretation, run.trace, gamma, mode,
                        rigid_comp,
                    )
                    where = (mutation, scenario.seed, name, mode)
                    if name in TRIGGER_SHAPED:
                        assert verdict.truth is expected.truth, where
                        assert verdict == _slice_fold(
                            run.algebra, run.interpretation, run.trace, gamma, mode,
                            rigid_comp,
                        ), where
                    else:
                        assert verdict == expected, where
                    truths.append(verdict.truth)
    assert {Truth.SATISFIED, Truth.VIOLATED, Truth.INCONCLUSIVE} <= set(truths)


def _trigger_case(rng, world):
    """``G(guard -> beta)`` over a free component variable ``b`` and free
    data variables ``x`` (and ``y``), in one of eight guard shapes.  Four
    are trigger-shaped: the membership alone, first in an And, and the two
    equations ``b.port == {pattern}`` and ``{pattern} == b.port``.  Four
    are not: the membership second in an And, against a collection that
    reads the free data variable ``z``, beside an atom on a free data
    variable ``w`` that the pattern misses, and under a pattern with a
    constant part."""
    iface = rng.choice(world.interfaces)
    ports = sorted(world.spec.interfaces[iface].ports)
    if not ports:
        return None
    port = rng.choice(ports)
    sort = world.pspec.sort_of(port)
    cscope = [("b", iface)]
    shape = rng.choice((
        "alone", "first", "equation", "reversed equation",
        "second", "free collection", "missed variable", "constant part",
    ))
    if shape == "constant part" and sort != PAIR_DD:
        return None
    if sort == PAIR_DD:
        dscope = ["x", "y"]
        second = Apply("c0", ()) if shape == "constant part" else Var("y", D)
        pattern = PairTerm(Var("x", D), second)
    else:
        dscope = ["x"]
        pattern = Var("x", D)
    gen = FormulaGenerator(rng, world, comps_in_scope=True)
    member = Member(pattern, PortRead("b", iface, port, sort))
    if shape == "equation":
        guard = Equals(member.collection, SetTerm((pattern,)))
    elif shape == "reversed equation":
        guard = Equals(SetTerm((pattern,)), member.collection)
    elif shape == "first":
        guard = And((member, gen.state_atom(dscope, cscope)))
    elif shape == "second":
        guard = And((gen.state_atom(dscope, cscope), member))
    elif shape == "free collection":
        z = Var("z", D)
        guard = Member(Var("x", D), SetTerm((z, Apply("f", (z,))), element_sort=D))
        dscope = ["x", "z"]
    elif shape == "missed variable":
        w = Var("w", D)
        guard = And((member, Member(w, SetTerm((w,), element_sort=D))))
        dscope = dscope + ["w"]
    else:
        guard = member
    beta = gen.trace_formula(2, dscope, cscope)
    return shape, iface, Globally(TraceImplies(State(guard), beta))


def test_trigger_shapes_agree_with_the_oracle(monkeypatch):
    # the truth against the oracle; the full verdict against the fold in
    # the documented order, and fewer fresh state evaluations than the fold
    # makes for the trigger-shaped ones
    calls = count_starts(monkeypatch)
    counts = QuantifierCounts(monkeypatch)
    rng = random.Random(515002)
    letters = []
    shapes = {}
    sliced = folded = 0
    while len(letters) < 1200:
        world = random_world(rng)
        case = _trigger_case(rng, world)
        if case is None:
            continue
        shape, iface, gamma = case
        triggered = _trigger_guard(gamma) is not None
        shapes.setdefault(shape, set()).add(triggered)
        oworld = oracle.World(world.alg, world.J)
        decls = {"b": iface}
        fold = _slice_fold if triggered else _product_fold
        for trace in (world.trace, world.extension):
            for mode in (OPEN, CLOSED):
                calls.clear()
                counts.mode = mode
                verdict = check_trace_assertion(
                    world.alg, world.J, trace, gamma, mode, rigid_comp_decls=decls
                )
                counts.mode = None
                sliced += len(calls) if triggered else 0
                calls.clear()
                expected = fold(world.alg, world.J, trace, gamma, mode, decls)
                assert verdict == expected, (shape, mode, gamma)
                folded += len(calls) if triggered else 0
                if triggered:
                    product = _product_fold(world.alg, world.J, trace, gamma, mode, decls)
                    assert verdict.truth is product.truth, (shape, mode, gamma)
                letter = oracle.check_assertion(oworld, trace, gamma, mode, rigid_comp=decls)
                assert oracle.truth_letter(verdict) == letter, (shape, mode, gamma)
                letters.append(letter)
    trigger_shapes = {"alone", "first", "equation", "reversed equation"}
    # a "second" guard may follow a random atom that is a guard itself
    assert len(shapes) == 8
    assert all(shapes[s] == {True} for s in trigger_shapes)
    assert all(False in shapes[s] for s in set(shapes) - trigger_shapes)
    assert {oracle.T, oracle.F, oracle.U} <= set(letters)
    assert sliced < folded
    # in each mode, every state and rigid quantifier class is evaluated,
    # _Slices included, each at least 5 times
    for mode in (OPEN, CLOSED):
        count, name = counts.fewest(mode, STATE_QUANTIFIERS + RIGID_QUANTIFIERS)
        assert count >= 5, (mode, name)


def _bind_starts(monkeypatch):
    """The (step, bindings) of every instance a rigid quantifier starts."""
    starts = []
    bind = _TraceEvaluator.bind

    def counted(evaluator, asg, binder, value, names):
        bound = bind(evaluator, asg, binder, value, names)
        starts.append((evaluator.m, {name: bound[name] for name in names}))
        return bound

    monkeypatch.setattr(_TraceEvaluator, "bind", counted)
    return starts


def test_untriggered_assignments_are_not_run(monkeypatch):
    # BlackboardBehavior.ax2, G((p, P) in bb.bbip -> ...), on a 6-problem
    # run: of its 6 x 2^6 assignments of (p, P), an instance starts only at
    # a step whose bb.bbip holds its (p, P)
    _, gamma, rigid_comp, rigid_data = next(
        a for a in _bundle_assertions() if a[0] == "BlackboardBehavior.ax2"
    )
    scenario = random_scenario(random.Random(19), max_problems=6)
    assert len(scenario.problems) == 6
    run = simulate_blackboard(scenario)
    port = gamma.body.left.formula.collection.port
    (bb,) = run.interpretation.ids_of("BB")

    def occurring(m):
        # bb's value of the port at step m, empty while bb is inactive; the
        # simulator's components are their own interpretations
        active = {s.id: s for s in run.trace.steps[m].active}
        return active[bb].valuation[port] if bb in active else frozenset()

    ever = set().union(*map(occurring, range(len(run.trace.steps))))
    assert 0 < len(ever) < 6 * 2**6
    starts = _bind_starts(monkeypatch)
    for mode in (OPEN, CLOSED):
        starts.clear()
        verdict = check_trace_assertion(
            run.algebra, run.interpretation, run.trace, gamma, mode,
            rigid_comp_decls=rigid_comp, rigid_data_decls=rigid_data,
        )
        assert verdict.truth is (Truth.INCONCLUSIVE if mode == OPEN else Truth.SATISFIED)
        instances = [(m, (b["p"], b["P"])) for m, b in starts if "p" in b]
        assert instances
        assert all(value in occurring(m) for m, value in instances)
        assert len(instances) <= sum(len(occurring(m)) for m in range(len(run.trace.steps)))


def test_a_read_error_the_runs_never_reach_is_not_raised():
    # the second step's blackboard has no interpretation, but the first
    # assignment is violated at step 0, before the run reads step 1
    alg = probsol_algebra()
    bb0 = bb_snapshot(bbop={"pA"})
    bb1 = bb_snapshot(bbop={"pB"})
    J = blackboard_interpretation({"BB": [bb0], "KS": []})
    steps = (ArchConfiguration(frozenset({bb0})), ArchConfiguration(frozenset({bb1})))
    trace = ConfigurationTrace(ComponentUniverse(frozenset({bb0, bb1})), steps)
    guard = Member(Var("p", PROB), PortRead("bb", "BB", "bbop", PROB))
    gamma = Globally(TraceImplies(State(guard), State(BoolLit(False))))
    for mode in (OPEN, CLOSED):
        verdict = check_trace_assertion(alg, J, trace, gamma, mode)
        assert verdict == Verdict(Truth.VIOLATED, 0)


def test_a_read_error_is_raised_at_its_step():
    # b1 is violated only at step 3, but b2 has no interpretation at
    # step 2, where every instance of the closure reads it
    alg = probsol_algebra()
    b1, b1_empty = bb_snapshot("b1", bbop={"pA"}), bb_snapshot("b1")
    b2, b2_bad = bb_snapshot("b2", bbop={"pA"}), bb_snapshot("b2", bbop={"pB"})
    J = blackboard_interpretation({"BB": [b1, b1_empty, b2], "KS": []})
    steps = [ArchConfiguration(frozenset(pair)) for pair in
             ((b1, b2), (b1, b2), (b1, b2_bad), (b1_empty, b2_bad))]
    trace = ConfigurationTrace(ComponentUniverse(frozenset({b1, b1_empty, b2, b2_bad})), steps)
    posted = PortRead("b", "BB", "bbop", PROB)
    gamma = Globally(State(Not(Equals(posted, SetTerm((), element_sort=PROB)))))
    with pytest.raises(InterpretationError, match="'b2' has no interface interpretation"):
        check_trace_assertion(alg, J, trace, gamma, CLOSED)
    assert check_trace_assertion(alg, J, _prefix(trace, 2), gamma, OPEN) == INCONCLUSIVE


def _outcomes(alg, J, steps, gamma) -> dict:
    """Per prefix of ``steps``, what ``check_trace_assertion`` gives in each
    mode and what a ``Monitor`` fed the same steps gives after the prefix's
    last one: a verdict, or the type and message of the error raised.  The
    monitor is fed no step after the one that raises."""
    universe = ComponentUniverse(frozenset(s for k in steps for s in k.active))

    def outcome(call, *args):
        try:
            return call(*args)
        except InterpretationError as error:
            return (type(error), str(error))

    found = {mode: [] for mode in (OPEN, CLOSED, "monitor")}
    monitor = Monitor(alg, J, gamma)
    for t in range(1, len(steps) + 1):
        trace = ConfigurationTrace(universe, steps[:t])
        for mode in (OPEN, CLOSED):
            found[mode].append(outcome(check_trace_assertion, alg, J, trace, gamma, mode))
        raised = [o for o in found["monitor"] if type(o) is tuple]
        found["monitor"].append(raised[0] if raised else outcome(monitor.step, steps[t - 1]))
    return found


def _raised_from(step, found, message):
    """Both modes and the monitor give verdicts on the prefixes before
    ``step`` and raise ``message`` on every later one, and the monitor's
    verdicts are the open ones."""
    error = (InterpretationError, message)
    assert found["monitor"] == found[OPEN]
    for mode in (OPEN, CLOSED):
        assert all(type(o) is Verdict for o in found[mode][:step]), found[mode]
        assert found[mode][step:] == [error] * (len(found[mode]) - step)


_KS_CONN = Conn("k", "KS", "ksip", "b", "BB", "bbop")
_KS_IRCONN = IRConn("KS", "ksip", "BB", "bbop")
_LINK = {("ks", "ksip"): {("bb", "bbop")}}


@pytest.mark.parametrize("phi", [_KS_CONN, _KS_IRCONN], ids=["conn", "irconn"])
@pytest.mark.parametrize("side", ["ks", "bb"])
def test_a_connection_over_a_component_without_interpretation_raises_at_its_step(phi, side):
    # at step 2, the active snapshot of ``side`` is one that J does not interpret
    alg = probsol_algebra()
    bb, ks = bb_snapshot(bbop={"pA"}), ks_snapshot("ks", {"pA"}, ksip={"pA"})
    bad = {"bb": bb_snapshot(bbop={"pB"}), "ks": ks_snapshot("ks", {"pB"}, ksip={"pA"})}
    J = blackboard_interpretation({"BB": [bb], "KS": [ks]})
    last = {bb, ks} - {bb if side == "bb" else ks} | {bad[side]}
    steps = [ArchConfiguration(frozenset(active), _LINK) for active in ({bb, ks}, {bb, ks}, last)]
    found = _outcomes(alg, J, steps, Globally(State(phi)))
    _raised_from(2, found, f"active component {side!r} has no interface interpretation")
    assert found[CLOSED][:2] == [SATISFIED, SATISFIED]


def _partial_ks():
    """A snapshot of ``ks`` with no ``ksis`` port, interpreted as a KS: its
    interpretation does not map the interface port id ``ksis``."""
    snap = make_snapshot("ks", local={"prob": {"pA"}}, inputs={"ksip": {"pA"}})
    return InterfaceInterpretation(snap, {"prob": "prob"}, {"ksip": "ksip"})


_KSIS = BB_PORT_SORTS["ksis"]


@pytest.mark.parametrize("phi", [
    Conn("k", "KS", "ksis", "b", "BB", "bbos"),
    IRConn("KS", "ksis", "BB", "bbos"),
    Equals(PortRead("k", "KS", "ksis", _KSIS), PortRead("k", "KS", "ksis", _KSIS)),
], ids=["conn", "irconn", "read"])
def test_a_port_id_the_interpretation_does_not_map_raises_at_its_step(phi):
    alg = probsol_algebra()
    bb = bb_snapshot(bbos={("pA", "sA")})
    ks = ks_snapshot("ks", {"pA"}, ksis={("pA", "sA")})
    partial = _partial_ks()
    J = SpecInterpretation({
        "BB": frozenset({identity_interpretation(bb)}),
        "KS": frozenset({identity_interpretation(ks), partial}),
    })
    link = {("ks", "ksis"): {("bb", "bbos")}}
    steps = [ArchConfiguration(frozenset(active), link)
             for active in ({bb, ks}, {bb, ks}, {bb, partial.snapshot})]
    found = _outcomes(alg, J, steps, Globally(State(phi)))
    _raised_from(2, found, "port id 'ksis' is not interpreted by component 'ks'")
    assert found[CLOSED][:2] == [SATISFIED, SATISFIED]


@pytest.mark.parametrize("inactive", ["ks", "bb"])
def test_a_connection_over_an_inactive_component_is_false_and_explained(inactive):
    alg = probsol_algebra()
    bb, ks = bb_snapshot(bbop={"pA"}), ks_snapshot("ks", {"pA"}, ksip={"pA"})
    J = blackboard_interpretation({"BB": [bb], "KS": [ks]})
    left = {bb, ks} - {bb if inactive == "bb" else ks}
    steps = [ArchConfiguration(frozenset({bb, ks}), _LINK), ArchConfiguration(frozenset(left))]
    found = _outcomes(alg, J, steps, Globally(State(_KS_CONN)))
    violated = Verdict(
        Truth.VIOLATED, 1, f"undefined read: conn over inactive component ({inactive})"
    )
    assert found["monitor"] == found[OPEN] == [INCONCLUSIVE, violated]
    assert found[CLOSED] == [SATISFIED, violated]


@pytest.mark.parametrize("phi", [_KS_CONN, _KS_IRCONN, MinMax("KS", 1, 1)],
                         ids=["conn", "irconn", "minmax"])
def test_an_uninterpreted_component_that_no_formula_reads_raises_nothing(phi):
    # ``x`` is of no interface, so no formula over KS and BB reads it
    alg = probsol_algebra()
    bb, ks = bb_snapshot(bbop={"pA"}), ks_snapshot("ks", {"pA"}, ksip={"pA"})
    x = make_snapshot("x", outputs={"o": {"pA"}})
    J = blackboard_interpretation({"BB": [bb], "KS": [ks]})
    steps = [ArchConfiguration(frozenset(active), _LINK)
             for active in ({bb, ks}, {bb, ks, x}, {bb, ks, x})]
    found = _outcomes(alg, J, steps, Globally(State(phi)))
    assert found["monitor"] == found[OPEN] == [INCONCLUSIVE] * 3
    assert found[CLOSED] == [SATISFIED] * 3


def test_an_uninterpreted_snapshot_that_is_only_counted_raises_nothing():
    # the second ``ks`` snapshot has no interpretation, but counting and
    # activity read its id alone
    alg = probsol_algebra()
    bb, ks = bb_snapshot(bbop={"pA"}), ks_snapshot("ks", {"pA"}, ksip={"pA"})
    uncounted = ks_snapshot("ks", {"pB"}, ksip={"pA"})
    J = blackboard_interpretation({"BB": [bb], "KS": [ks]})
    steps = [ArchConfiguration(frozenset({bb, ks})), ArchConfiguration(frozenset({bb, uncounted}))]
    for phi in (MinMax("KS", 1, 1), ForallComp("k", "KS", Active("k"))):
        found = _outcomes(alg, J, steps, Globally(State(phi)))
        assert found["monitor"] == found[OPEN] == [INCONCLUSIVE] * 2
        assert found[CLOSED] == [SATISFIED] * 2

class TestTriggerRewrite:
    """The edge cases of the trigger rewrite keep the truth of the full
    product, each against the fold and the oracle."""

    def setup_method(self):
        self.alg = probsol_algebra()
        self.p = Var("p", PROB)
        self.P = Var("P", BB_PORT_SORTS["bbip"].second)

    def _read(self, port, pattern):
        return Member(pattern, PortRead("bb", "BB", port, BB_PORT_SORTS[port]))

    def _check(self, snapshots, gamma, steps=None):
        J = blackboard_interpretation({"BB": snapshots, "KS": []})
        steps = steps or [ArchConfiguration(frozenset({s})) for s in snapshots]
        trace = ConfigurationTrace(ComponentUniverse(frozenset(snapshots)), steps)
        oworld = oracle.World(self.alg, J)
        verdicts = {}
        for mode in (OPEN, CLOSED):
            verdict = check_trace_assertion(self.alg, J, trace, gamma, mode)
            fold = _slice_fold if _trigger_guard(gamma) else _product_fold
            assert verdict == fold(self.alg, J, trace, gamma, mode, {})
            assert oracle.truth_letter(verdict) == oracle.check_assertion(
                oworld, trace, gamma, mode
            )
            verdicts[mode] = verdict
        return verdicts

    def test_a_value_outside_the_carrier_binds_nothing(self):
        # "pZ" is no PROB and "pA" no pair, so no assignment meets the guard
        never = State(BoolLit(False))
        single = Globally(TraceImplies(State(self._read("bbop", self.p)), never))
        pair = Globally(TraceImplies(
            State(self._read("bbip", PairTerm(self.p, self.P))), never
        ))
        bb = bb_snapshot(bbop={"pZ"}, bbip={"pA", ("pZ", frozenset())})
        for gamma in (single, pair):
            assert _trigger_guard(gamma) is not None
            verdicts = self._check([bb], gamma)
            assert verdicts == {OPEN: INCONCLUSIVE, CLOSED: SATISFIED}

    def test_an_undefined_read_gives_the_empty_set(self):
        # bb is inactive, so its bbop is an undefined read at every step
        bb = bb_snapshot(bbop={"pA"})
        gamma = Globally(TraceImplies(
            State(self._read("bbop", self.p)), State(BoolLit(False))
        ))
        steps = [ArchConfiguration(frozenset())] * 2
        verdicts = self._check([bb], gamma, steps)
        assert verdicts == {OPEN: INCONCLUSIVE, CLOSED: SATISFIED}

    def test_an_empty_domain_is_satisfied_in_both_modes(self):
        # the algebra has no empty carrier, and an interface without
        # components leaves the closure no instance: Satisfied, not the
        # Inconclusive of G(true)
        with pytest.raises(StructuralError):
            Algebra(self.alg.signature, {"PROB": (), "SOL": ("sA",)})
        gamma = Globally(TraceImplies(
            State(self._read("bbop", self.p)), State(BoolLit(False))
        ))
        J = blackboard_interpretation({"BB": [], "KS": []})
        bb = bb_snapshot(bbop={"pA"})
        trace = ConfigurationTrace(
            ComponentUniverse(frozenset({bb})), [ArchConfiguration(frozenset())]
        )
        for mode in (OPEN, CLOSED):
            assert check_trace_assertion(self.alg, J, trace, gamma, mode) == SATISFIED

    def test_every_guard_form_is_rewritten(self):
        # p in bb.bbop, bb.bbop == {p} and {p} == bb.bbop: the closure
        # quantifies only bb outside the G
        member = self._read("bbop", self.p)
        one = SetTerm((self.p,))
        beta = Eventually(State(Member(self.p, PortRead("bb", "BB", "bbip", PROB))))
        bbs = [bb_snapshot(bbop={"pA"}), bb_snapshot(bbop={"pA", "pB"}),
               bb_snapshot(bbop={"pB"}, bbip={"pB"})]
        for left in (member, Equals(member.collection, one),
                     Equals(one, member.collection)):
            gamma = Globally(TraceImplies(State(left), beta))
            closed = AssertionPlan(gamma).closed
            assert type(closed) is RigidForallComp and type(closed.body) is Globally
            verdicts = self._check(bbs, gamma)
            assert verdicts[CLOSED].truth is Truth.VIOLATED

    def test_near_misses_are_plain_closures(self):
        # a guard that is not the first conjunct, a pattern that misses a
        # free data variable, and a source that reads one
        q = Var("q", PROB)
        member = self._read("bbop", self.p)
        beta = State(Member(self.p, PortRead("bb", "BB", "bbop", PROB)))
        lefts = [
            And((BoolLit(True), member)),
            And((member, Equals(q, q))),
            Member(self.p, SetTerm((q,))),
        ]
        bbs = [bb_snapshot(bbop={"pA"}), bb_snapshot(bbop={"pB"})]
        for left in lefts:
            gamma = Globally(TraceImplies(State(left), Eventually(beta)))
            closure = gamma
            if "bb" in free_vars(gamma)[1]:
                closure = RigidForallComp("bb", "BB", closure)
            for name in sorted(free_vars(gamma)[0], reverse=True):
                closure = RigidForallData(name, PROB, closure)
            assert AssertionPlan(gamma).closed == closure
            self._check(bbs, gamma)
