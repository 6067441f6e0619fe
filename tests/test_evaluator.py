"""The compiled evaluator against the interpretive one it replaced, kept in
``evaluator_reference.py``, in the datatype, interface and configuration
contexts: the truth value, the undefined reads noted and their order, and
the type and text of any error must agree.  Nodes that cannot be evaluated
raise only when they are reached, and a port read of an inactive
component is noted wherever it sits in a range test."""
import dataclasses
import itertools
import random

import pytest

from archcheck.algebra import (
    And,
    BoolLit,
    BoundedForall,
    Equals,
    Evaluator,
    ForallData,
    Implies,
    Member,
    Node,
    Or,
    PairTerm,
    PredAtom,
    SetTerm,
    Var,
    free_vars,
)
from archcheck.blackboard import random_scenario, simulate_blackboard
from archcheck.checker import blackboard_bundle
from archcheck.constraints import (
    CLOSED,
    OPEN,
    SATISFIED,
    Active,
    BoundedRigidForall,
    CompEquals,
    Conn,
    ExistsComp,
    ForallComp,
    Globally,
    IRConn,
    Max,
    Min,
    MinMax,
    Monitor,
    PortRead,
    RigidForallComp,
    RigidForallData,
    State,
    TraceAnd,
    Truth,
    _StateEvaluator,
    check_trace_assertion,
    trace_holds,
)
from archcheck.errors import (
    AssignmentError,
    InterpretationError,
    SignatureError,
    SortError,
    UsageError,
)
from archcheck.interfaces import _InterfaceEvaluator
from archcheck.model import ArchConfiguration, ComponentUniverse, ConfigurationTrace

import evaluator_reference as reference
from fixtures import (
    PROB,
    bb_snapshot,
    blackboard_interpretation,
    ks_snapshot,
    probsol_algebra,
)
from generators import (
    PAIR_DD,
    STATE_QUANTIFIERS,
    FormulaGenerator,
    QuantifierCounts,
    random_world,
)

CONFIGURATION_ATOMS = (Active, CompEquals, Conn, IRConn, Min, Max, MinMax)


def _outcome(ev, asg, phi):
    """What ``ev.holds(asg, phi)`` returns, or the type and text of what it
    raises, with the undefined reads noted, in order, when ``ev`` notes
    them."""
    ev.notes = {}
    try:
        result = ev.holds(asg, phi)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        result = (type(exc).__name__, str(exc))
    return result, list(ev.notes)


def _port_free(node):
    """``node`` with each configuration atom made true, each component
    quantifier replaced by its body and each port read by the empty set."""
    if isinstance(node, CONFIGURATION_ATOMS):
        return BoolLit(True)
    if isinstance(node, (ForallComp, ExistsComp)):
        return _port_free(node.body)
    if isinstance(node, PortRead):
        return SetTerm((), element_sort=node.sort)
    changes = {}
    for name in node.__dataclass_fields__:
        value = getattr(node, name)
        if isinstance(value, Node):
            changes[name] = _port_free(value)
        elif isinstance(value, tuple) and any(isinstance(v, Node) for v in value):
            changes[name] = tuple(_port_free(v) for v in value)
    return dataclasses.replace(node, **changes) if changes else node


def _range_tested(rng, gen, dscope, cscope):
    """A component quantifier whose range test begins with ``active`` atoms
    over the variables in scope, among them its own; sometimes an unbound
    variable's atom or a port read of its own variable comes first."""
    var = gen.fresh("v")
    iface = rng.choice(gen.world.interfaces)
    scope = cscope + [(var, iface)]
    head = [Active(v) for v, _ in rng.sample(cscope, rng.randint(0, len(cscope)))]
    head.insert(rng.randint(0, len(head)), Active(var))
    roll = rng.random()
    if roll < 0.15:
        head.insert(0, Active("unbound"))
    elif roll < 0.3:
        ports = sorted(gen.world.spec.interfaces[iface].ports)
        if ports:
            port = rng.choice(ports)
            read = PortRead(var, iface, port, gen.world.pspec.sort_of(port))
            element = gen.data_term(dscope)
            if read.sort == PAIR_DD:
                element = PairTerm(element, gen.data_term(dscope))
            head.insert(0, Member(element, read))
    rest = tuple(gen.state_formula(1, dscope, scope) for _ in range(rng.randint(0, 1)))
    test = And(tuple(head) + rest)
    if rng.random() < 0.5:
        return ForallComp(var, iface, Implies(test, gen.state_formula(2, dscope, scope)))
    return ExistsComp(var, iface, test)


def _assignments(world, dscope, cscope):
    """Every assignment of the data variables over the carrier and of the
    component variables over their interface's components, active or not;
    and one that binds no component variable."""
    values = world.alg.carriers["D"]
    comp_ranges = [world.ids_by_interface[iface] for _, iface in cscope]
    yield dict(zip(dscope, values))
    for data in itertools.product(values, repeat=len(dscope)):
        for comps in itertools.product(*comp_ranges):
            yield {**dict(zip(dscope, data)), **dict(zip((v for v, _ in cscope), comps))}


def test_configuration_context_agrees_with_the_reference(monkeypatch):
    counts = QuantifierCounts(monkeypatch)
    rng = random.Random(260001)
    compared = noted = raised = inactive = 0
    for _ in range(60):
        world = random_world(rng)
        gen = FormulaGenerator(rng, world)
        cscope = [(gen.fresh("c"), rng.choice(world.interfaces))
                  for _ in range(rng.randint(0, 2))]
        dscope = ["x"]
        formulas = [gen.state_formula(3, dscope, cscope) for _ in range(2)]
        formulas += [_range_tested(rng, gen, dscope, cscope) for _ in range(3)]
        compiled = _StateEvaluator(world.alg, world.J, {})  # one table for every formula
        interpreted = reference.StateEvaluator(world.alg, world.J)
        for k in world.extension.steps:
            compiled.at(k)
            interpreted.at(k)
            inactive += len(k.active) < len(world.J.universe().snapshots)
            for asg in _assignments(world, dscope, cscope):
                for phi in formulas:
                    counts.mode = "compiled"
                    got = _outcome(compiled, asg, phi)
                    counts.mode = None
                    assert got == _outcome(interpreted, asg, phi), (phi, asg)
                    compared += 1
                    noted += bool(got[1])
                    raised += type(got[0]) is tuple
    assert compared > 5000 and noted > 300 and raised > 100 and inactive > 50
    # every state quantifier class is evaluated, each at least 200 times
    count, name = counts.fewest("compiled", STATE_QUANTIFIERS)
    assert count >= 200, name


def test_datatype_and_interface_contexts_agree_with_the_reference():
    rng = random.Random(260002)
    compared = raised = 0
    for _ in range(60):
        world = random_world(rng)
        gen = FormulaGenerator(rng, world)
        cscope = [(gen.fresh("c"), rng.choice(world.interfaces))]
        formulas = [gen.state_formula(3, ["x"], cscope) for _ in range(3)]
        # the port-free part, and whole formulas, whose configuration nodes
        # raise when they are reached
        formulas = [_port_free(phi) for phi in formulas] + formulas[:1]
        closures = {}  # shared by every interpretation, as in one check
        pairs = [(Evaluator(world.alg), reference.Evaluator(world.alg))]
        for interps in world.J.by_interface.values():
            for interp in sorted(interps, key=lambda i: i.sort_key()):
                pairs.append((_InterfaceEvaluator(world.alg, interp, closures),
                              reference.InterfaceEvaluator(world.alg, interp)))
        for compiled, interpreted in pairs:
            for asg in [{}] + [{"x": x} for x in world.alg.carriers["D"]]:
                for phi in formulas:
                    got = _outcome(compiled, asg, phi)
                    assert got == _outcome(interpreted, asg, phi), (phi, asg)
                    compared += 1
                    raised += type(got[0]) is tuple
    assert compared > 1000 and raised > 20


def test_interface_axioms_agree_with_the_reference_in_both_contexts():
    axioms = [a for items in blackboard_bundle().interface_spec.assertions.values()
              for a in items]
    rng = random.Random(260003)
    runs = [simulate_blackboard(random_scenario(rng, max_problems=3), mutation=mutation)
            for mutation in (None, "drop-forwarding")]
    worlds = [(run.algebra, run.interpretation) for run in runs]
    # a source that posts a problem it does not know violates the axiom
    worlds.append((probsol_algebra(), blackboard_interpretation({"BB": [BB], "KS": [
        ks_snapshot("ks1", prob={"pA"}, ksop={("pB", frozenset())}),
        ks_snapshot("ks2", prob={"pA"}, ksop={("pA", frozenset({"pB"}))}),
    ]})))
    outcomes = set()
    for alg, J in worlds:
        closures = {}
        pairs = [(Evaluator(alg), reference.Evaluator(alg))]
        for interps in J.by_interface.values():
            for interp in sorted(interps, key=lambda i: i.sort_key()):
                pairs.append((_InterfaceEvaluator(alg, interp, closures),
                              reference.InterfaceEvaluator(alg, interp)))
        for axiom in axioms:
            variables = free_vars(axiom)[0]
            names = sorted(variables)
            for combo in itertools.product(*(alg.carrier(variables[n]) for n in names)):
                asg = dict(zip(names, combo))
                for compiled, interpreted in pairs:
                    got = _outcome(compiled, asg, axiom)
                    assert got == _outcome(interpreted, asg, axiom), asg
                    outcomes.add(got[0] if type(got[0]) is bool else got[0][0])
    # true, false, a PortSym outside the interface context, and a port the
    # blackboard's interpretation does not interpret
    assert outcomes == {True, False, "SortError", "InterpretationError"}


# ---------------------------------------------------------------------------
# Lazy errors


BB = bb_snapshot()
J = blackboard_interpretation({"BB": [BB], "KS": []})  # no source: an empty range
ALG = probsol_algebra()
STEP = ArchConfiguration(frozenset({BB}))
TRACE = ConfigurationTrace(ComponentUniverse(frozenset({BB})), (STEP,))

# nodes that raise when reached, with what they raise
UNEVALUABLE = [
    (Globally(State(BoolLit(True))), SortError,
     "Globally is not part of configuration assertions"),
    (PredAtom("nosuch", ()), SignatureError, "unknown predicate symbol 'nosuch'"),
    (Min("Nope", 1), InterpretationError, "undeclared interface 'Nope'"),
    (ForallComp("v", "Nope", BoolLit(True)), InterpretationError,
     "undeclared interface 'Nope'"),
    (IRConn("BB", "bbip", "Nope", "ksop"), InterpretationError,
     "undeclared interface 'Nope'"),
]


def _passed_by(node):
    """Formulas whose evaluation never reaches ``node``, and one that never
    reaches its undeclared interface, since no KS is active."""
    return [
        IRConn("KS", "ksip", "Nope", "bbop"),
        And((BoolLit(False), node)),
        Or((BoolLit(True), node)),
        Implies(BoolLit(False), node),
        ForallComp("v", "KS", node),  # KS has no component
        BoundedForall(("x",), SetTerm((), element_sort=PROB), node),
    ]


@pytest.mark.parametrize("node, error, message", UNEVALUABLE)
def test_an_unevaluable_node_raises_only_when_reached(node, error, message):
    for phi in _passed_by(node):
        got = _outcome(_at(_StateEvaluator(ALG, J)), {}, phi)
        assert type(got[0]) is bool
        assert got == _outcome(_at(reference.StateEvaluator(ALG, J)), {}, phi)
        assert trace_holds(ALG, J, {}, {}, TRACE, 0, State(phi)).truth is not None
    for phi in (node, And((BoolLit(True), node)), Or((BoolLit(False), node))):
        with pytest.raises(error) as raised:
            check_trace_assertion(ALG, J, TRACE, Globally(State(phi)), CLOSED)
        assert str(raised.value) == message
    # a datatype node raises the same in every context, and only when reached
    if isinstance(node, PredAtom):
        interp = next(iter(J.by_interface["BB"]))
        for evaluator in (Evaluator(ALG), _InterfaceEvaluator(ALG, interp)):
            assert evaluator.holds({}, Or((BoolLit(True), node)))
            with pytest.raises(error, match=message):
                evaluator.holds({}, And((BoolLit(True), node)))


def _at(evaluator, k=STEP):
    evaluator.at(k)
    return evaluator


def test_an_unbound_component_variable_is_named_as_before():
    atoms = (Conn("v", "BB", "bbip", "w", "BB", "bbop"), CompEquals("v", "w"), Active("w"))
    for comps in ({}, {"v": "bb"}, {"w": "bb"}, {"v": "bb", "w": "bb"}):
        for phi in atoms:
            asg = comps
            got = _outcome(_at(_StateEvaluator(ALG, J)), asg, phi)
            assert got == _outcome(_at(reference.StateEvaluator(ALG, J)), asg, phi)


# ---------------------------------------------------------------------------
# Range tests of component quantifiers


def test_a_port_read_before_active_still_notes_its_undefined_read():
    # ks2 is inactive: with active(v) first its port is not read, with the
    # port read first it is read, and the read is noted
    ks1, ks2 = ks_snapshot("ks1", prob={"pB"}), ks_snapshot("ks2", prob={"pC"})
    J2 = blackboard_interpretation({"BB": [BB], "KS": [ks1, ks2]})
    step = ArchConfiguration(frozenset({BB, ks1}))
    trace = ConfigurationTrace(ComponentUniverse(frozenset({BB, ks1, ks2})), (step,))
    read = Member(Var("p", PROB), PortRead("v", "KS", "prob", PROB))
    undefined = "undefined read: v.prob (ks2 inactive)"
    for test, noted in ((And((Active("v"), read)), None),
                        (And((read, Active("v"))), undefined)):
        for phi, truth in (
            (ForallComp("v", "KS", Implies(test, BoolLit(False))), Truth.SATISFIED),
            (ExistsComp("v", "KS", test), Truth.VIOLATED),
        ):
            verdict = trace_holds(ALG, J2, {"p": "pA"}, {}, trace, 0, State(phi))
            assert (verdict.truth, verdict.explanation) == (truth, noted), phi
            asg = {"p": "pA"}
            got = _outcome(_at(_StateEvaluator(ALG, J2), step), asg, phi)
            assert got == _outcome(_at(reference.StateEvaluator(ALG, J2), step), asg, phi)


# ---------------------------------------------------------------------------
# One assignment for every variable


X = Var("x", PROB)
POSTED = PortRead("bb", "BB", "bbop", PROB)
# "x" used as a data and as a component variable: free as both, or as one
# kind inside a quantifier that binds it as the other
MIXED = [
    State(And((Active("x"), Equals(X, X)))),
    RigidForallComp("x", "BB", State(Equals(X, X))),
    RigidForallData("x", PROB, State(Active("x"))),
    RigidForallData("x", PROB, State(ForallComp("x", "BB", BoolLit(True)))),
    BoundedRigidForall(("x",), POSTED, State(Active("x"))),
    State(ForallData("x", PROB, Active("x"))),
    State(ExistsComp("x", "BB", Member(X, POSTED))),
    State(BoundedForall(("x",), POSTED, ForallComp("x", "BB", BoolLit(True)))),
]


@pytest.mark.parametrize("gamma", MIXED)
def test_a_name_used_as_both_kinds_is_refused(gamma):
    message = "'x' is used as a data and as a component variable"
    with pytest.raises(SortError, match=message):
        free_vars(gamma)
    with pytest.raises(SortError, match=message):
        check_trace_assertion(ALG, J, TRACE, gamma, CLOSED, rigid_comp_decls={"x": "BB"})
    with pytest.raises(SortError, match=message):
        Monitor(ALG, J, gamma)
    with pytest.raises(SortError, match=message):
        trace_holds(ALG, J, {}, {}, TRACE, 0, gamma)


def test_a_name_may_be_of_either_kind_in_scopes_apart():
    gamma = TraceAnd((
        RigidForallComp("x", "BB", State(Active("x"))),
        RigidForallData("x", PROB, State(Equals(X, X))),
    ))
    assert free_vars(gamma) == ({}, {})
    for mode in (OPEN, CLOSED):
        assert check_trace_assertion(ALG, J, TRACE, gamma, mode) == SATISFIED


def test_trace_holds_refuses_a_name_bound_as_both_kinds():
    with pytest.raises(UsageError, match=r"rigid_data and rigid_comp both bind \['x'\]"):
        trace_holds(ALG, J, {"x": "pA"}, {"x": "bb"}, TRACE, 0, State(Active("x")))


def test_a_binding_of_the_other_kind_leaves_a_name_unbound():
    # as when each kind had an assignment of its own
    with pytest.raises(AssignmentError, match="unbound component variable 'x'"):
        trace_holds(ALG, J, {"x": "pA"}, {}, TRACE, 0, State(Active("x")))
    with pytest.raises(AssignmentError, match="unbound variable 'x'"):
        trace_holds(ALG, J, {}, {"x": "bb"}, TRACE, 0, State(Equals(X, X)))
