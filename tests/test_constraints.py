import random

import pytest

from archcheck.algebra import And, Apply, BoolLit, Equals, Member, PairTerm, PredAtom, Var
from archcheck.constraints import (
    CLOSED,
    OPEN,
    Active,
    AssertionPlan,
    BoundedRigidForall,
    CompEquals,
    Conn,
    Eventually,
    ExistsComp,
    ForallComp,
    Globally,
    IRConn,
    Implies,
    Min,
    MinMax,
    Monitor,
    Next,
    Not,
    PortRead,
    RigidForallComp,
    State,
    TraceAnd,
    TraceImplies,
    TraceNot,
    Truth,
    Verdict,
    WeakUntil,
    check_trace_assertion,
    free_vars,
    trace_holds,
)
from archcheck.errors import (
    CapacityError,
    SignatureError,
    SortError,
    UsageError,
)
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
)

import oracle
from fixtures import (
    PROB,
    bb_snapshot,
    blackboard_interpretation,
    ks_snapshot,
    probsol_algebra,
)
from generators import random_closed_assertion, random_world


def example_interpretation():
    """Interpretation over the worked-example components' own port names."""
    spec = InterfaceSpec(
        {
            "Producer": Interface(
                local={"l0"}, inputs={"i0"}, outputs={"o0", "o1", "o2"}
            ),
            "Worker": Interface(
                local={"l0", "l1"}, inputs={"i0", "i1", "i2"}, outputs={"o0"}
            ),
        }
    )
    from fixtures import example_universe

    by_iface = {"Producer": set(), "Worker": set()}
    for snap in example_universe().snapshots:
        name = "Producer" if snap.id == "c1" else "Worker"
        if snap.id in ("c1",):
            by_iface["Producer"].add(identity_interpretation(snap))
        else:
            by_iface["Worker"].add(identity_interpretation(snap))
    return spec, SpecInterpretation(
        {n: frozenset(v) for n, v in by_iface.items()}
    )


MSG = PROB  # the worked example reuses the PROB carrier for its messages


class TestConfigSemantics:
    def setup_method(self):
        # messages of the worked example live in one ad-hoc carrier
        from archcheck.algebra import Algebra, BaseSort, Signature

        self.msg = BaseSort("MSG")
        self.alg = Algebra(
            Signature(sorts={"MSG"}),
            carriers={
                "MSG": tuple("456789ZACFXBGKWQT12") + ("5x",)
            },
        )
        self.spec, self.J = example_interpretation()
        from fixtures import config_k0, example_trace

        self.k0 = config_k0()
        self.trace = example_trace()

    def verdict(self, phi, comps=(), k=None, data=()):
        """Verdict of the configuration assertion ``phi`` at ``k`` (by
        default ``k0``), checked as a trace of that one step."""
        trace = ConfigurationTrace(self.trace.universe, (k or self.k0,))
        return trace_holds(
            self.alg, self.J, dict(data), dict(comps), trace, 0, State(phi)
        )

    def holds(self, phi, comps=(), k=None, data=()):
        return self.verdict(phi, comps, k, data).truth is Truth.SATISFIED

    def test_port_read(self):
        read = Member(Var("x", self.msg), PortRead("v", "Worker", "i1", self.msg))
        members = {
            x for x in self.alg.carriers["MSG"]
            if self.holds(read, {"v": "c2"}, data={"x": x})
        }
        assert members == {"A"}

    def test_port_read_requires_activation(self):
        # c4 is not active at k0, so its ports have no value there
        read = Member(Var("x", self.msg), PortRead("v", "Worker", "o0", self.msg))
        verdict = self.verdict(read, {"v": "c4"}, data={"x": "9"})
        assert str(verdict) == "Violated (undefined read: v.o0 (c4 inactive))"

    def test_active_predicate(self):
        assert self.holds(Active("v"), {"v": "c2"})
        assert not self.holds(Active("v"), {"v": "c4"})

    def test_conn_predicate(self):
        conn = Conn("v", "Worker", "i1", "w", "Producer", "o1")
        assert self.holds(conn, {"v": "c2", "w": "c1"})
        other = Conn("v", "Worker", "i0", "w", "Producer", "o1")
        assert not self.holds(other, {"v": "c2", "w": "c1"})

    def test_min_zero_always_holds(self):
        for iface in ("Producer", "Worker"):
            assert self.holds(Min(iface, 0))

    def test_undefined_read_makes_atom_false(self):
        term = PortRead("v", "Worker", "o0", self.msg)
        atom = Member(Var("x", self.msg), term)
        verdict = self.verdict(atom, {"v": "c4"}, data={"x": "9"})
        assert verdict.truth is Truth.VIOLATED
        assert "undefined read" in verdict.explanation
        # the negation of the atom is then true: undefined reads never raise
        assert self.holds(Not(atom), {"v": "c4"}, data={"x": "9"})

    def test_repeated_undefined_read_keeps_its_explanation(self):
        # each verdict carries its own undefined reads, also when an earlier
        # verdict of the same run already met the same read
        atom = State(Member(Var("m", self.msg), PortRead("v", "Worker", "o0", self.msg)))
        expected = "Violated @0 (undefined read: v.o0 (c4 inactive))"
        for gamma in (Globally(atom), TraceAnd((Globally(TraceNot(atom)), Globally(atom)))):
            verdict = trace_holds(
                self.alg, self.J, {"m": "A"}, {"v": "c4"}, self.trace, 0, gamma, CLOSED
            )
            assert str(verdict) == expected

    def test_irconn_matches_guarded_expansion(self):
        irconn = IRConn("Worker", "i1", "Producer", "o1")
        expansion = ForallComp(
            "a",
            "Worker",
            ForallComp(
                "b",
                "Producer",
                Implies(
                    And((Active("a"), Active("b"))),
                    Conn("a", "Worker", "i1", "b", "Producer", "o1"),
                ),
            ),
        )
        for k in self.trace.steps:
            assert self.holds(irconn, k=k) == self.holds(expansion, k=k)

    def test_minmax_is_min_and_max(self):
        from archcheck.constraints import Max

        for k in self.trace.steps:
            for low in range(3):
                for high in range(low, 4):
                    conj = self.holds(Min("Worker", low), k=k) and self.holds(
                        Max("Worker", high), k=k
                    )
                    assert self.holds(MinMax("Worker", low, high), k=k) == conj


class TestTraceSemantics:
    def setup_method(self):
        self.alg = probsol_algebra()
        self.bb0 = bb_snapshot(bbop={"pA"})
        self.bb1 = bb_snapshot(bbop={"pA"}, bbos={("pA", "sA")})
        self.bb2 = bb_snapshot(bbos={("pA", "sA")})
        universe = ComponentUniverse(frozenset({self.bb0, self.bb1, self.bb2}))
        self.J = blackboard_interpretation(
            {"BB": [self.bb0, self.bb1, self.bb2], "KS": []}
        )
        self.trace = ConfigurationTrace(
            universe,
            tuple(
                ArchConfiguration(frozenset({s}))
                for s in (self.bb0, self.bb1, self.bb2)
            ),
        )

    def _posted(self, var="b"):
        return State(Member(Var("p", PROB), PortRead(var, "BB", "bbop", PROB)))

    def _solved(self, var="b"):
        return State(
            Member(
                PairTerm(Var("p", PROB), Apply("solve", (Var("p", PROB),))),
                PortRead(var, "BB", "bbos", PROB),
            )
        )

    def test_globally_modes(self):
        gamma = Globally(State(Active("b")))
        closed = trace_holds(
            self.alg, self.J, {}, {"b": "bb"}, self.trace, 0, gamma, CLOSED
        )
        opened = trace_holds(
            self.alg, self.J, {}, {"b": "bb"}, self.trace, 0, gamma, OPEN
        )
        assert closed.truth is Truth.SATISFIED
        assert opened.truth is Truth.INCONCLUSIVE

    def test_eventually_witness(self):
        gamma = Eventually(self._solved())
        for mode in (OPEN, CLOSED):
            verdict = trace_holds(
                self.alg,
                self.J,
                {"p": "pA"},
                {"b": "bb"},
                self.trace,
                0,
                gamma,
                mode,
            )
            assert verdict.truth is Truth.SATISFIED
            assert verdict.witness == 1

    def test_weak_until_violation_witness(self):
        # posted W solved: pA leaves bbop only together with its solution,
        # so dropping the solution from step 1 violates at step 1.
        bad_mid = bb_snapshot()
        universe = ComponentUniverse(frozenset({self.bb0, bad_mid, self.bb2}))
        J = blackboard_interpretation({"BB": [self.bb0, bad_mid, self.bb2], "KS": []})
        trace = ConfigurationTrace(
            universe,
            tuple(
                ArchConfiguration(frozenset({s}))
                for s in (self.bb0, bad_mid, self.bb2)
            ),
        )
        solved_input = State(
            Member(
                PairTerm(Var("p", PROB), Apply("solve", (Var("p", PROB),))),
                PortRead("b", "BB", "bbis", PROB),
            )
        )
        gamma = WeakUntil(self._posted(), solved_input)
        verdict = trace_holds(
            self.alg, J, {"p": "pA"}, {"b": "bb"}, trace, 0, gamma, CLOSED
        )
        assert verdict.truth is Truth.VIOLATED
        assert verdict.witness == 1

    def test_bad_symbols_raise_signature_error(self):
        # the same errors as the datatype fragment: an undeclared predicate,
        # a function symbol with no table, a table undefined at its arguments
        read = PortRead("b", "BB", "bbop", PROB)
        nosuch = Apply("nosuch", ())
        for data, phi, match in (
            ({}, PredAtom("nosuch", (read,)), "unknown predicate"),
            ({}, Equals(nosuch, nosuch), "no table"),
            ({"p": "pZ"}, Member(Apply("solve", (Var("p", PROB),)), read),
             "undefined at"),
        ):
            with pytest.raises(SignatureError, match=match):
                trace_holds(
                    self.alg, self.J, data, {"b": "bb"}, self.trace, 0, State(phi)
                )

    def test_next_at_last_index(self):
        gamma = Next(State(BoolLit(True)))
        closed = trace_holds(
            self.alg, self.J, {}, {}, self.trace, 2, gamma, CLOSED
        )
        opened = trace_holds(self.alg, self.J, {}, {}, self.trace, 2, gamma, OPEN)
        assert closed.truth is Truth.VIOLATED
        assert opened.truth is Truth.INCONCLUSIVE

    def test_index_out_of_range(self):
        with pytest.raises(UsageError):
            trace_holds(
                self.alg, self.J, {}, {}, self.trace, 3, State(BoolLit(True)), OPEN
            )


class TestCheckTraceAssertion:
    def setup_method(self):
        self.alg = probsol_algebra()
        self.bb = bb_snapshot()
        self.ks = ks_snapshot("ks1", prob={"pA"})
        universe = ComponentUniverse(frozenset({self.bb, self.ks}))
        self.J = blackboard_interpretation({"BB": [self.bb], "KS": [self.ks]})
        self.trace = ConfigurationTrace(
            universe,
            (
                ArchConfiguration(frozenset({self.bb, self.ks})),
                ArchConfiguration(frozenset({self.bb})),
            ),
        )

    def test_no_rigid_vars_equals_trace_holds(self):
        gamma = Globally(State(Min("BB", 1)))
        direct = trace_holds(self.alg, self.J, {}, {}, self.trace, 0, gamma, CLOSED)
        checked = check_trace_assertion(self.alg, self.J, self.trace, gamma, CLOSED)
        assert direct == checked

    def test_unique_always_active_blackboard(self):
        gamma = Globally(
            State(And((Active("b"), ForallComp("b2", "BB", CompEquals("b2", "b")))))
        )
        verdict = check_trace_assertion(
            self.alg, self.J, self.trace, gamma, CLOSED,
            rigid_comp_decls={"b": "BB"},
        )
        assert verdict.truth is Truth.SATISFIED

    def test_second_blackboard_id_violates(self):
        bb2 = bb_snapshot("bb2")
        universe = ComponentUniverse(frozenset({self.bb, self.ks, bb2}))
        J = blackboard_interpretation({"BB": [self.bb, bb2], "KS": [self.ks]})
        steps = (
            ArchConfiguration(frozenset({self.bb})),
            ArchConfiguration(frozenset({self.bb})),
            ArchConfiguration(frozenset({self.bb, bb2})),
        )
        trace = ConfigurationTrace(universe, steps)
        gamma = Globally(
            State(And((Active("b"), ForallComp("b2", "BB", CompEquals("b2", "b")))))
        )
        verdict = check_trace_assertion(
            self.alg, J, trace, gamma, CLOSED, rigid_comp_decls={"b": "BB"}
        )
        # the flexible quantifier ranges over interpreted ids, so the extra
        # id violates from the first step on
        assert verdict.truth is Truth.VIOLATED
        assert verdict.witness == 0

    def test_enumeration_bound(self):
        gamma = BoundedRigidForall(
            ("x",),
            PortRead("b", "BB", "bbop", PROB),
            State(BoolLit(True)),
        )
        with pytest.raises(CapacityError):
            check_trace_assertion(
                self.alg,
                self.J,
                self.trace,
                gamma,
                CLOSED,
                rigid_comp_decls={"b": "BB"},
                max_assignments=0,
            )

    def test_free_vars_discovery(self):
        gamma = TraceImplies(
            State(Member(Var("p", PROB), PortRead("b", "BB", "bbop", PROB))),
            Eventually(State(Active("k"))),
        )
        data, comps = free_vars(gamma)
        assert data == {"p": PROB}
        assert comps == {"b": "BB", "k": None}


class TestMonitor:
    def setup_method(self):
        self.alg = probsol_algebra()
        self.bb_idle = bb_snapshot()
        self.bb_hot = bb_snapshot(bbop={"pA"})
        universe = ComponentUniverse(frozenset({self.bb_idle, self.bb_hot}))
        self.J = blackboard_interpretation(
            {"BB": [self.bb_idle, self.bb_hot], "KS": []}
        )
        self.universe = universe

    def _steps(self, *snaps):
        return [ArchConfiguration(frozenset({s})) for s in snaps]

    def test_eventually_stream(self):
        from archcheck.algebra import ExistsData

        gamma = Eventually(
            State(
                ExistsComp(
                    "b",
                    "BB",
                    ExistsData(
                        "x",
                        PROB,
                        Member(Var("x", PROB), PortRead("b", "BB", "bbop", PROB)),
                    ),
                )
            )
        )
        monitor = Monitor(self.alg, self.J, gamma)
        v1 = monitor.step(self._steps(self.bb_idle)[0])
        assert v1.truth is Truth.INCONCLUSIVE
        v2 = monitor.step(self._steps(self.bb_idle)[0])
        assert v2.truth is Truth.INCONCLUSIVE
        v3 = monitor.step(self._steps(self.bb_hot)[0])
        assert v3.truth is Truth.SATISFIED
        # final verdicts never change
        v4 = monitor.step(self._steps(self.bb_idle)[0])
        assert v4 == v3

    def test_globally_stream(self):
        gamma = Globally(State(Min("BB", 1)))
        monitor = Monitor(self.alg, self.J, gamma)
        assert monitor.step(self._steps(self.bb_idle)[0]).truth is Truth.INCONCLUSIVE
        empty = ArchConfiguration(frozenset())
        assert monitor.step(empty).truth is Truth.VIOLATED

    def test_verdict_requires_a_step(self):
        gamma = Globally(State(Min("BB", 1)))
        monitor = Monitor(self.alg, self.J, gamma)
        with pytest.raises(UsageError):
            monitor.verdict

    def test_rejects_free_variables(self):
        # what AssertionPlan refuses: here a component variable with no
        # interface; with one declared, the closure is monitored
        gamma = Globally(State(Active("b")))
        with pytest.raises(SortError, match="no declared interface"):
            Monitor(self.alg, self.J, gamma)
        plan = AssertionPlan(gamma, {"b": "BB"})
        monitor = Monitor(self.alg, self.J, gamma, plan)
        assert monitor.step(self._steps(self.bb_idle)[0]).truth is Truth.INCONCLUSIVE
        empty = ArchConfiguration(frozenset())
        assert monitor.step(empty) == Verdict(Truth.VIOLATED, 1)

    def test_monitors_rigid_quantifiers(self):
        gamma = RigidForallComp("b", "BB", Globally(State(Active("b"))))
        monitor = Monitor(self.alg, self.J, gamma)
        assert monitor.step(self._steps(self.bb_hot)[0]).truth is Truth.INCONCLUSIVE
        empty = ArchConfiguration(frozenset())
        assert monitor.step(empty) == Verdict(Truth.VIOLATED, 1)
        assert monitor.step(self._steps(self.bb_hot)[0]) == Verdict(Truth.VIOLATED, 1)

    def test_applies_the_default_assignment_bound(self, monkeypatch):
        import archcheck.constraints as constraints

        gamma = Globally(State(Member(Var("p", PROB), PortRead("b", "BB", "bbop", PROB))))
        monkeypatch.setattr(constraints, "DEFAULT_ASSIGNMENT_BOUND", 2)
        with pytest.raises(CapacityError, match="3 combinations, exceeding the bound of 2"):
            Monitor(self.alg, self.J, gamma)


class TestOracleAgreement:
    """The evaluator must agree with the independent expansion oracle."""

    def test_random_formulas_both_modes(self):
        rng = random.Random(915001)
        checked = 0
        for round_no in range(120):
            world = random_world(rng)
            oworld = oracle.World(world.alg, world.J)
            for _ in range(3):
                gamma = random_closed_assertion(rng, world, depth=4)
                for mode in (OPEN, CLOSED):
                    verdict = check_trace_assertion(
                        world.alg, world.J, world.trace, gamma, mode
                    )
                    expected = oracle.check_assertion(oworld, world.trace, gamma, mode)
                    assert oracle.truth_letter(verdict) == expected, (
                        f"seed round {round_no}, mode {mode}: "
                        f"{verdict} vs {expected} for {gamma}"
                    )
                    checked += 1
        assert checked == 720

    def test_mutated_blackboard_traces_both_modes(self):
        # every bundle assertion, including the desugared diagram, on traces
        # of the two deliberately defective simulations
        from archcheck.blackboard import random_scenario, simulate_blackboard
        from archcheck.checker import blackboard_bundle, diagram_assertions

        bundle = blackboard_bundle()
        assertions = [
            (c.name, c.gamma, c.rigid_comp, c.rigid_data) for c in bundle.constraints
        ]
        assertions += [(name, g, comp, {}) for name, g, comp in diagram_assertions(bundle)]
        rng = random.Random(915003)
        truths = []
        for mutation in ("drop-forwarding", "drop-activation"):
            for _ in range(3):
                scenario = random_scenario(
                    rng, max_problems=2, max_depth=2, max_sources=2, horizon=20
                )
                run = simulate_blackboard(scenario, mutation=mutation)
                oworld = oracle.World(run.algebra, run.interpretation)
                for name, gamma, rigid_comp, rigid_data in assertions:
                    for mode in (OPEN, CLOSED):
                        verdict = check_trace_assertion(
                            run.algebra, run.interpretation, run.trace, gamma, mode,
                            rigid_comp_decls=rigid_comp, rigid_data_decls=rigid_data,
                        )
                        expected = oracle.check_assertion(
                            oworld, run.trace, gamma, mode, rigid_comp=rigid_comp
                        )
                        assert oracle.truth_letter(verdict) == expected, (
                            f"{mutation}, seed {scenario.seed}, {name}, {mode}: {verdict}"
                        )
                        truths.append(expected)
        assert len(truths) == 2 * 3 * len(assertions) * 2
        assert truths.count(oracle.F) > 0  # the mutations must show in the verdicts

    def test_monotonicity_under_extension(self):
        rng = random.Random(424242)
        finals = 0
        for _ in range(150):
            world = random_world(rng)
            gamma = random_closed_assertion(rng, world, depth=3)
            prefix_verdict = check_trace_assertion(
                world.alg, world.J, world.trace, gamma, OPEN
            )
            if prefix_verdict.truth is Truth.INCONCLUSIVE:
                continue
            extended_verdict = check_trace_assertion(
                world.alg, world.J, world.extension, gamma, OPEN
            )
            assert extended_verdict.truth is prefix_verdict.truth
            finals += 1
        assert finals > 20  # the sample must actually exercise final verdicts

    def test_mode_agreement(self):
        rng = random.Random(5150)
        for _ in range(150):
            world = random_world(rng)
            gamma = random_closed_assertion(rng, world, depth=3)
            open_verdict = check_trace_assertion(
                world.alg, world.J, world.trace, gamma, OPEN
            )
            if open_verdict.truth is Truth.INCONCLUSIVE:
                continue
            closed_verdict = check_trace_assertion(
                world.alg, world.J, world.trace, gamma, CLOSED
            )
            assert closed_verdict.truth is open_verdict.truth
