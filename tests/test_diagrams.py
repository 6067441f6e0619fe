import random

import pytest

from archcheck import checker, diagrams
from archcheck.algebra import BoolLit
from archcheck.blackboard import random_scenario, simulate_blackboard
from archcheck.checker import blackboard_bundle, diagram_assertions
from archcheck.constraints import (
    CLOSED,
    Globally,
    IRConn,
    Min,
    MinMax,
    State,
    Truth,
    check_trace_assertion,
)
from archcheck.diagrams import (
    ConfigurationDiagram,
    MinMaxAnnotation,
    RequiredConnAnnotation,
    RigidAnnotation,
    annotation_labels,
    desugar_diagram,
    desugar_minmax,
    desugar_required_conn,
    desugar_rigid,
    rest_pairs,
    rigid_declarations,
)
from archcheck.errors import InterpretationError, StructuralError
from archcheck.interfaces import (
    Interface,
    InterfaceSpec,
    SpecInterpretation,
    identity_interpretation,
)
from archcheck.model import (
    ArchConfiguration,
    ComponentUniverse,
    ConfigurationTrace,
    make_snapshot,
)
from archcheck.parser import parse_unit, resolver

from fixtures import blackboard_interfaces
from generators import random_world
from oracle import check_full_homomorphism

BB_CONNECTIONS = frozenset(
    {
        (("KS", "ksip"), ("BB", "bbop")),
        (("KS", "ksis"), ("BB", "bbos")),
        (("BB", "bbip"), ("KS", "ksop")),
        (("BB", "bbis"), ("KS", "ksos")),
    }
)


class TestDesugarShapes:
    def test_minmax_single_number(self):
        gamma = desugar_minmax(MinMaxAnnotation(min={"BB": 1}, max={"BB": 1}))
        assert gamma == Globally(State(MinMax("BB", 1, 1)))

    def test_minmax_empty(self):
        assert desugar_minmax(MinMaxAnnotation()) == Globally(State(BoolLit(True)))

    def test_minmax_split_bounds(self):
        gamma = desugar_minmax(MinMaxAnnotation(min={"If": 2}))
        assert gamma == Globally(State(Min("If", 2)))

    def test_minmax_differing_bounds_are_separate_conjuncts(self):
        from archcheck.algebra import And
        from archcheck.constraints import Max

        gamma = desugar_minmax(MinMaxAnnotation(min={"If": 1}, max={"If": 3}))
        assert gamma == Globally(State(And((Min("If", 1), Max("If", 3)))))

    def test_minmax_rejects_inverted_bounds(self):
        with pytest.raises(StructuralError):
            MinMaxAnnotation(min={"If": 3}, max={"If": 1})

    def test_rigid_shape(self):
        gamma = desugar_rigid(RigidAnnotation({"BB": ("bb",)}))
        from archcheck.constraints import CompEquals, ForallComp

        assert gamma == Globally(State(ForallComp("v", "BB", CompEquals("v", "bb"))))

    def test_rigid_empty_annotation(self):
        assert desugar_rigid(RigidAnnotation({})) == Globally(State(BoolLit(True)))

    def test_rigid_rejects_empty_variable_set(self):
        with pytest.raises(StructuralError):
            desugar_rigid(RigidAnnotation({"BB": ()}))

    def test_required_conn_partition(self):
        spec = blackboard_interfaces()
        ann = RequiredConnAnnotation(BB_CONNECTIONS)
        rest = rest_pairs(ann, spec)
        product = {(i, o) for i in spec.input_ports() for o in spec.output_ports()}
        assert ann.pairs | rest == product
        assert not (ann.pairs & rest)
        assert len(product) == 16 and len(rest) == 12

    def test_required_conn_positive_conjuncts(self):
        spec = blackboard_interfaces()
        gamma = desugar_required_conn(RequiredConnAnnotation(BB_CONNECTIONS), spec)
        assert isinstance(gamma, Globally)
        items = gamma.body.formula.items
        positives = [item for item in items if isinstance(item, IRConn)]
        assert {
            (i.in_interface, i.in_port, i.out_interface, i.out_port) for i in positives
        } == {(a, b, c, d) for ((a, b), (c, d)) in BB_CONNECTIONS}
        assert len(items) == 16

    def test_required_conn_no_rest(self):
        spec = InterfaceSpec(
            {
                "A": Interface(inputs={"i"}),
                "B": Interface(outputs={"o"}),
            }
        )
        ann = RequiredConnAnnotation(frozenset({(("A", "i"), ("B", "o"))}))
        gamma = desugar_required_conn(ann, spec)
        assert gamma == Globally(State(IRConn("A", "i", "B", "o")))

    def test_desugar_diagram_order_and_determinism(self):
        spec = blackboard_interfaces()
        diagram = ConfigurationDiagram(
            name="Board",
            spec=spec,
            minmax=MinMaxAnnotation(min={"BB": 1}, max={"BB": 1}),
            rigid=RigidAnnotation({"BB": ("bb",)}),
            required_conn=RequiredConnAnnotation(BB_CONNECTIONS),
        )
        got_spec, assertions = desugar_diagram(diagram)
        assert got_spec is spec
        assert len(assertions) == 3
        assert assertions[0] == desugar_minmax(diagram.minmax)
        assert assertions[1] == desugar_rigid(diagram.rigid)
        assert assertions[2] == desugar_required_conn(diagram.required_conn, spec)
        again = desugar_diagram(diagram)[1]
        assert again == assertions

    def test_diagram_without_annotations(self):
        spec = blackboard_interfaces()
        for diagram in (
            ConfigurationDiagram("Plain", spec),
            ConfigurationDiagram(
                "Empty", spec, minmax=MinMaxAnnotation(), rigid=RigidAnnotation({})
            ),
        ):
            _, assertions = desugar_diagram(diagram)
            assert assertions == ()
            assert annotation_labels(diagram) == ()

    def test_diagram_validates_references(self):
        with pytest.raises(StructuralError):
            ConfigurationDiagram(
                "Bad",
                blackboard_interfaces(),
                minmax=MinMaxAnnotation(min={"Nope": 1}),
            )


class TestFullHomomorphism:
    def _world(self):
        a = make_snapshot("a", inputs={"i": {"m"}}, outputs={})
        b = make_snapshot("b", outputs={"o": {"m"}})
        spec = InterfaceSpec(
            {"A": Interface(inputs={"i"}), "B": Interface(outputs={"o"})}
        )
        universe = ComponentUniverse(frozenset({a, b}))
        J = SpecInterpretation(
            {
                "A": frozenset({identity_interpretation(a)}),
                "B": frozenset({identity_interpretation(b)}),
            }
        )
        ann = RequiredConnAnnotation(frozenset({(("A", "i"), ("B", "o"))}))
        return a, b, spec, universe, J, ann

    def test_conforming_trace(self):
        a, b, spec, universe, J, ann = self._world()
        k = ArchConfiguration(
            frozenset({a, b}), connection={("a", "i"): {("b", "o")}}
        )
        trace = ConfigurationTrace(universe, (k,))
        assert check_full_homomorphism(trace, ann, J)
        gamma = desugar_required_conn(ann, spec)
        verdict = check_trace_assertion(J=J, alg=_tiny_alg(), trace=trace,
                                        gamma=gamma, mode=CLOSED)
        assert verdict.truth is Truth.SATISFIED

    def test_missing_connection_fails(self):
        a, b, spec, universe, J, ann = self._world()
        a_idle = make_snapshot("a", inputs={"i": ()}, outputs={})
        universe = ComponentUniverse(frozenset({a_idle, b}))
        J = SpecInterpretation(
            {
                "A": frozenset({identity_interpretation(a_idle)}),
                "B": frozenset({identity_interpretation(b)}),
            }
        )
        k = ArchConfiguration(frozenset({a_idle, b}))
        trace = ConfigurationTrace(universe, (k,))
        assert not check_full_homomorphism(trace, ann, J)

    def test_extra_connection_fails(self):
        a, b, spec, universe, J, ann = self._world()
        k = ArchConfiguration(
            frozenset({a, b}), connection={("a", "i"): {("b", "o")}}
        )
        trace = ConfigurationTrace(universe, (k,))
        assert check_full_homomorphism(trace, RequiredConnAnnotation(frozenset()), J) is False

    def test_vacuous_on_empty_configuration(self):
        _, _, _, universe, J, ann = self._world()
        trace = ConfigurationTrace(universe, (ArchConfiguration(frozenset()),))
        assert check_full_homomorphism(trace, ann, J)

    def test_uninterpreted_component_rejected(self):
        a, b, spec, universe, J, ann = self._world()
        stranger = make_snapshot("s", outputs={"o": ()})
        universe = ComponentUniverse(universe.snapshots | {stranger})
        k = ArchConfiguration(frozenset({stranger}))
        trace = ConfigurationTrace(universe, (k,))
        with pytest.raises(InterpretationError):
            check_full_homomorphism(trace, ann, J)


def _tiny_alg():
    from archcheck.algebra import Algebra, Signature

    return Algebra(Signature(sorts={"M"}), carriers={"M": ("m",)})


class TestDesugaringOracleEquivalence:
    """Desugared formulas must agree with direct checks of the conditions."""

    def test_minmax_against_cardinality_count(self):
        rng = random.Random(77001)
        for _ in range(60):
            world = random_world(rng)
            ann = _random_minmax(rng, world)
            gamma = desugar_minmax(ann)
            verdict = check_trace_assertion(
                world.alg, world.J, world.trace, gamma, CLOSED
            )
            expected = _direct_minmax(world, ann)
            assert (verdict.truth is Truth.SATISFIED) == expected

    def test_rigid_against_identity_membership(self):
        rng = random.Random(77002)
        satisfied = violated = 0
        for _ in range(60):
            world = random_world(rng)
            ann = _random_rigid(rng, world)
            if not ann.vars:
                continue
            gamma = desugar_rigid(ann)
            comp_decls = {
                var: iface for iface, vars_ in ann.vars.items() for var in vars_
            }
            verdict = check_trace_assertion(
                world.alg, world.J, world.trace, gamma, CLOSED,
                rigid_comp_decls=comp_decls,
            )
            expected = _direct_rigid(world, ann)
            assert (verdict.truth is Truth.SATISFIED) == expected
            satisfied += expected
            violated += not expected
        assert satisfied and violated

    def test_required_conn_against_full_homomorphism(self):
        rng = random.Random(77003)
        agreements = 0
        for _ in range(60):
            world = random_world(rng)
            ann = _random_required_conn(rng, world)
            gamma = desugar_required_conn(ann, world.spec)
            verdict = check_trace_assertion(
                world.alg, world.J, world.trace, gamma, CLOSED
            )
            expected = check_full_homomorphism(world.trace, ann, world.J)
            assert (verdict.truth is Truth.SATISFIED) == expected
            agreements += 1
        assert agreements == 60


def _random_minmax(rng, world) -> MinMaxAnnotation:
    mins, maxs = {}, {}
    for iface in world.interfaces:
        if rng.random() < 0.5:
            mins[iface] = rng.randint(0, 3)
        if rng.random() < 0.5:
            maxs[iface] = rng.randint(mins.get(iface, 0), 4)
    return MinMaxAnnotation(min=mins, max=maxs)


def _direct_minmax(world, ann) -> bool:
    for k in world.trace.steps:
        active = {s.id for s in k.active}
        for iface, low in ann.min.items():
            if len([c for c in world.ids_by_interface[iface] if c in active]) < low:
                return False
        for iface, high in ann.max.items():
            if len([c for c in world.ids_by_interface[iface] if c in active]) > high:
                return False
    return True


def _random_rigid(rng, world) -> RigidAnnotation:
    vars_ = {}
    counter = 0
    for iface in world.interfaces:
        if rng.random() < 0.6:
            names = tuple(f"rv{counter + i}" for i in range(rng.randint(1, 2)))
            counter += len(names)
            vars_[iface] = names
    return RigidAnnotation(vars_)


def _direct_rigid(world, ann) -> bool:
    # Universal closure over the annotation variables: every assignment of
    # ids must cover all interpreted ids, so each annotated interface may
    # interpret at most one id (and none if it has no ids at all).
    import itertools

    names = [(iface, var) for iface, vars_ in sorted(ann.vars.items()) for var in vars_]
    domains = [world.ids_by_interface[iface] for iface, _ in names]
    for combo in itertools.product(*domains):
        chosen = {}
        for (iface, _), cid in zip(names, combo):
            chosen.setdefault(iface, set()).add(cid)
        for iface in ann.vars:
            allowed = chosen.get(iface, set())
            if any(cid not in allowed for cid in world.ids_by_interface[iface]):
                return False
    return True


def _random_required_conn(rng, world) -> RequiredConnAnnotation:
    if rng.random() < 0.4:
        # harvest the actual connections of the trace so positives can pass
        pairs = set()
        iface_of = {
            cid: name
            for name, ids in world.ids_by_interface.items()
            for cid in ids
        }
        for k in world.trace.steps:
            for (cid, port), targets in k.connection.items():
                for tid, tport in targets:
                    pairs.add(((iface_of[cid], port), (iface_of[tid], tport)))
        return RequiredConnAnnotation(frozenset(pairs))
    inputs = sorted(world.spec.input_ports())
    outputs = sorted(world.spec.output_ports())
    pairs = {
        (i, o) for i in inputs for o in outputs if rng.random() < 0.25
    }
    return RequiredConnAnnotation(frozenset(pairs))


# ---------------------------------------------------------------------------
# Diagrams desugared when the bundle is resolved

SECOND_DIAGRAM = """\
diagram ADiagram
imports Blackboard, ProbSol
ports
  prob : PROB
rigid vars
  k2 : KS
  k1 : KS
  bb : BB
interface KS
  local prob
  inputs ksip, ksis
  outputs ksop, ksos
interface BB [1]
  inputs bbip, bbis
  outputs bbop, bbos
rigid KS : k2, k1
rigid BB : bb
"""


def _two_diagram_bundle():
    unit, diagnostics = parse_unit(SECOND_DIAGRAM)
    assert unit is not None, diagnostics
    return blackboard_bundle([unit])


def _desugared_by_unit(bundle):
    """The reference for ``bundle.annotations``: ``(Unit.label, gamma,
    rigid_comp)`` of each diagram desugared directly, in diagram and
    annotation order, one rigid declaration table per diagram."""
    out = []
    for unit_name, diagram in bundle.diagrams:
        _, assertions = desugar_diagram(diagram)
        rigid_comp = dict(rigid_declarations(diagram))
        for label, gamma in zip(annotation_labels(diagram), assertions):
            out.append((f"{unit_name}.{label}", gamma, rigid_comp))
    return out


def test_the_resolver_desugars_each_diagram_once_and_the_checks_never(monkeypatch):
    calls = []
    real = diagrams.desugar_diagram

    def counted(diagram):
        calls.append(diagram.name)
        return real(diagram)

    monkeypatch.setattr(resolver, "desugar_diagram", counted)
    monkeypatch.setattr(diagrams, "desugar_diagram", counted)
    bundle = _two_diagram_bundle()
    assert calls == ["ADiagram", "BlackboardDiagram"]
    calls.clear()
    result = simulate_blackboard(random_scenario(random.Random(3), horizon=20))
    report = checker.check_simulation(bundle, result)
    assert {a.name for a in report.assertions} >= {a.name for a in bundle.annotations}
    assert len(checker.verify_theorem(2, seed=3, horizon=20, bundle=bundle).trials) == 2
    assert calls == []


def test_the_annotations_are_the_diagrams_desugared_in_diagram_and_label_order():
    for bundle in (blackboard_bundle(), _two_diagram_bundle()):
        expected = _desugared_by_unit(bundle)
        got = [(a.name, a.gamma, a.rigid_comp) for a in bundle.annotations]
        assert got == expected
        assert [list(r.items()) for _, _, r in got] == [list(r.items()) for _, _, r in expected]
        assert diagram_assertions(bundle) == tuple(got)
        for a in bundle.annotations:
            assert (a.unit, a.rigid_data, a.text) == (a.name.split(".")[0], {}, "")
    assert [(a.name, a.index, list(a.rigid_comp.items())) for a in bundle.annotations] == [
        ("ADiagram.minmax", 1, [("bb", "BB"), ("k2", "KS"), ("k1", "KS")]),
        ("ADiagram.rigid", 2, [("bb", "BB"), ("k2", "KS"), ("k1", "KS")]),
        ("BlackboardDiagram.minmax", 1, [("bb", "BB")]),
        ("BlackboardDiagram.rigid", 2, [("bb", "BB")]),
        ("BlackboardDiagram.connections", 3, [("bb", "BB")]),
    ]
