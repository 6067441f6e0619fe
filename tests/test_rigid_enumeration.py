"""Guard-driven rigid enumeration in check_trace_assertion: a rigid
assignment whose guard value never occurs on the trace is not run, and the
verdicts stay those of the full product."""
import itertools
import random

from archcheck.algebra import (
    And,
    Apply,
    BoolLit,
    Equals,
    Member,
    PairTerm,
    SetTerm,
    Var,
)
from archcheck.blackboard import random_scenario, simulate_blackboard
from archcheck.checker import blackboard_bundle, diagram_assertions
from archcheck.constraints import (
    CLOSED,
    INCONCLUSIVE,
    OPEN,
    SATISFIED,
    Globally,
    PortRead,
    State,
    TraceImplies,
    Truth,
    Verdict,
    _TraceEvaluator,
    check_trace_assertion,
    eval_config_term,
    free_vars,
    trace_holds,
)
from archcheck.errors import InactiveComponentError
from archcheck.model import ArchConfiguration, ComponentUniverse, ConfigurationTrace

import oracle
from fixtures import PROB, bb_snapshot, blackboard_interpretation, probsol_algebra
from generators import D, PAIR_DD, FormulaGenerator, random_world


def _bundle_assertions():
    bundle = blackboard_bundle()
    assertions = [
        (c.name, c.gamma, c.rigid_comp, c.rigid_data) for c in bundle.constraints
    ]
    assertions += [(name, g, comp, {}) for name, g, comp in diagram_assertions(bundle)]
    return assertions


def _product_fold(alg, J, trace, gamma, mode, rigid_comp):
    """The meaning of check_trace_assertion written out: trace_holds on
    every assignment of the full product, in product order; the first
    Violated verdict decides, then Inconclusive, then Satisfied."""
    free_data, free_comps = free_vars(gamma)
    data_names, comp_names = sorted(free_data), sorted(free_comps)
    data_domains = [alg.carrier(free_data[n]) for n in data_names]
    comp_domains = [J.ids_of(rigid_comp.get(n) or free_comps[n]) for n in comp_names]
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


def _count_runs(monkeypatch):
    runs = []
    run = _TraceEvaluator.run

    def counted(evaluator, gamma, asg, steps, n, mode):
        runs.append(asg)
        return run(evaluator, gamma, asg, steps, n, mode)

    monkeypatch.setattr(_TraceEvaluator, "run", counted)
    return runs


def test_bundle_verdicts_equal_the_full_product_fold():
    # truth, witness and explanation, on plain and mutated traces
    assertions = _bundle_assertions()
    assert len(assertions) == 15
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
                    assert verdict == expected, (mutation, scenario.seed, name, mode)
                    truths.append(verdict.truth)
    assert {Truth.SATISFIED, Truth.VIOLATED, Truth.INCONCLUSIVE} <= set(truths)


def _trigger_case(rng, world):
    """``G(guard -> beta)`` over a free component variable ``b`` and free
    data variables ``x`` (and ``y``), in one of five guard shapes: the
    membership alone, first in an And, second in an And, against a
    collection that reads the free data variable ``z``, or the equation
    ``b.port == {pattern}``."""
    iface = rng.choice(world.interfaces)
    ports = sorted(world.spec.interfaces[iface].ports)
    if not ports:
        return None
    port = rng.choice(ports)
    sort = world.pspec.sort_of(port)
    cscope = [("b", iface)]
    if sort == PAIR_DD:
        dscope = ["x", "y"]
        pattern = PairTerm(Var("x", D), Var("y", D))
    else:
        dscope = ["x"]
        pattern = Var("x", D)
    gen = FormulaGenerator(rng, world)
    member = Member(pattern, PortRead("b", iface, port, sort))
    shape = rng.choice(("alone", "first", "second", "free collection", "equation"))
    if shape == "equation":
        guard = Equals(member.collection, SetTerm((pattern,)))
    elif shape == "first":
        guard = And((member, gen.state_atom(dscope, cscope)))
    elif shape == "second":
        guard = And((gen.state_atom(dscope, cscope), member))
    elif shape == "free collection":
        z = Var("z", D)
        guard = Member(Var("x", D), SetTerm((z, Apply("f", (z,))), element_sort=D))
        dscope = ["x", "z"]
    else:
        guard = member
    beta = gen.trace_formula(2, dscope, cscope)
    return shape, iface, Globally(TraceImplies(State(guard), beta))


def test_trigger_shapes_agree_with_the_oracle(monkeypatch):
    # the truth against the oracle, the full verdict against the product
    # fold, and fewer runs than the fold makes
    runs = _count_runs(monkeypatch)
    rng = random.Random(515002)
    letters = []
    shapes = set()
    pruned = plain = 0
    while len(letters) < 800:
        world = random_world(rng)
        case = _trigger_case(rng, world)
        if case is None:
            continue
        shape, iface, gamma = case
        shapes.add(shape)
        oworld = oracle.World(world.alg, world.J)
        decls = {"b": iface}
        for trace in (world.trace, world.extension):
            for mode in (OPEN, CLOSED):
                runs.clear()
                verdict = check_trace_assertion(
                    world.alg, world.J, trace, gamma, mode, rigid_comp_decls=decls
                )
                pruned += len(runs)
                runs.clear()
                expected = _product_fold(world.alg, world.J, trace, gamma, mode, decls)
                assert verdict == expected, (shape, mode, gamma)
                plain += len(runs)
                letter = oracle.check_assertion(oworld, trace, gamma, mode, rigid_comp=decls)
                assert oracle.truth_letter(verdict) == letter, (shape, mode, gamma)
                letters.append(letter)
    assert len(shapes) == 5
    assert {oracle.T, oracle.F, oracle.U} <= set(letters)
    assert pruned < plain


def test_untriggered_assignments_are_not_run(monkeypatch):
    # BlackboardBehavior.ax2, G((p, P) in bb.bbip -> ...), on a 6-problem
    # run: its 6 x 2^6 assignments of (p, P) shrink to those that occur
    _, gamma, rigid_comp, rigid_data = next(
        a for a in _bundle_assertions() if a[0] == "BlackboardBehavior.ax2"
    )
    scenario = random_scenario(random.Random(19), max_problems=6)
    assert len(scenario.problems) == 6
    run = simulate_blackboard(scenario)
    collection = gamma.body.left.formula.collection
    occurring = set()
    for k in run.trace.steps:
        for cid in run.interpretation.ids_of("BB"):
            try:
                occurring |= eval_config_term(
                    run.algebra, {}, run.interpretation, {"bb": cid}, k, collection
                )
            except InactiveComponentError:
                pass
    assert 0 < len(occurring) < 6 * 2**6
    runs = _count_runs(monkeypatch)
    for mode in (OPEN, CLOSED):
        runs.clear()
        verdict = check_trace_assertion(
            run.algebra, run.interpretation, run.trace, gamma, mode,
            rigid_comp_decls=rigid_comp, rigid_data_decls=rigid_data,
        )
        assert verdict.truth is (Truth.INCONCLUSIVE if mode == OPEN else Truth.SATISFIED)
        assert len(runs) <= len(occurring)
        assert {(asg["p"], asg["P"]) for asg in runs} <= occurring


def test_a_read_error_the_runs_never_reach_is_not_raised():
    # the second step's blackboard has no interpretation, but the first
    # assignment is violated at step 0, before any run reads step 1
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
