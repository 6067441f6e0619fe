import random

import pytest

from archcheck.blackboard import (
    BlackboardScenario,
    algebra_unit,
    random_scenario,
    simulate_blackboard,
    trace_unit,
)
from archcheck.checker import (
    TheoremReport,
    TrialOutcome,
    blackboard_bundle,
    check_simulation,
    verify_theorem,
)
from archcheck.constraints import OPEN, Truth
from archcheck.errors import StructuralError, UsageError
from archcheck.model import check_trace
from archcheck.parser import parse_unit, print_unit, resolve


def paper_scenario(**overrides):
    base = dict(
        problems=("pA", "pB", "pC"),
        subproblems={"pA": {"pB", "pC"}},
        solutions={"pA": "sA", "pB": "sB", "pC": "sC"},
        sources={"ks1": {"pA"}, "ks2": {"pB", "pC"}},
        root="pA",
        horizon=50,
        seed=7,
    )
    base.update(overrides)
    return BlackboardScenario(**base)


class TestScenarioValidation:
    def test_cyclic_relation_rejected(self):
        with pytest.raises(StructuralError, match="cycle"):
            paper_scenario(subproblems={"pA": {"pB"}, "pB": {"pA"}})

    def test_a_subproblem_chain_deeper_than_the_recursion_limit(self):
        # a recursive search overflowed Python's stack on this chain
        problems = tuple(f"p{i}" for i in range(3000))
        scenario = paper_scenario(
            problems=problems,
            subproblems={p: {q} for p, q in zip(problems, problems[1:])},
            solutions={p: "s" for p in problems},
            sources={"ks1": set(problems)},
            root="p0",
        )
        assert scenario.reachable() == set(problems)
        with pytest.raises(StructuralError, match="cycle"):
            paper_scenario(
                problems=problems,
                subproblems={p: {q} for p, q in zip(problems, problems[1:] + ("p0",))},
                solutions={p: "s" for p in problems},
                sources={"ks1": set(problems)},
                root="p0",
            )

    def test_uncovered_reachable_problem_rejected(self):
        with pytest.raises(StructuralError, match="no source"):
            paper_scenario(sources={"ks1": {"pA"}})

    def test_unreachable_problems_need_no_source(self):
        scenario = paper_scenario(
            subproblems={},
            sources={"ks1": {"pA"}},
        )
        assert scenario.reachable() == {"pA"}

    def test_unknown_root_rejected(self):
        with pytest.raises(StructuralError):
            paper_scenario(root="pZ")

    def test_stray_subproblem_entries_rejected(self):
        with pytest.raises(StructuralError, match=r"entries for unknown problems \['pZ'\]"):
            paper_scenario(subproblems={"pA": {"pB"}, "pZ": {"pC"}})

    @pytest.mark.parametrize("problems", [(), ("pA", "pB", "pC", "pB")])
    def test_empty_or_duplicate_problems_rejected(self, problems):
        with pytest.raises(StructuralError, match="problems must be a nonempty set"):
            paper_scenario(problems=problems, subproblems={})

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_below_one_rejected(self, horizon):
        with pytest.raises(StructuralError, match="horizon must be at least 1"):
            paper_scenario(horizon=horizon)

    def test_empty_source_roster_rejected(self):
        with pytest.raises(StructuralError, match="the source roster is empty"):
            paper_scenario(sources={})

    def test_unknown_subproblems_rejected(self):
        with pytest.raises(StructuralError, match=r"unknown subproblems \['pZ'\]"):
            paper_scenario(subproblems={"pA": {"pB", "pZ"}})

    def test_missing_solution_rejected(self):
        with pytest.raises(StructuralError, match="no solution assigned to 'pC'"):
            paper_scenario(solutions={"pA": "sA", "pB": "sB"})

    def test_source_claiming_unknown_problems_rejected(self):
        with pytest.raises(
            StructuralError, match=r"source 'ks2' claims unknown problems \['pY', 'pZ'\]"
        ):
            paper_scenario(sources={"ks1": {"pA"}, "ks2": {"pB", "pC", "pZ", "pY"}})

    def test_unknown_mutation_rejected(self):
        with pytest.raises(UsageError):
            simulate_blackboard(paper_scenario(), mutation="drop-everything")


class TestSimulation:
    def test_deterministic_in_the_seed(self):
        a = simulate_blackboard(paper_scenario())
        b = simulate_blackboard(paper_scenario())
        assert a.trace == b.trace
        c = simulate_blackboard(paper_scenario(seed=8))
        assert a.trace != c.trace

    def test_trace_is_structurally_valid(self):
        result = simulate_blackboard(paper_scenario())
        assert check_trace(result.trace).ok

    def test_solution_reached_on_paper_scenario(self):
        result = simulate_blackboard(paper_scenario())
        assert not result.truncated
        final = result.trace.steps[-1]
        (bb,) = (s for s in final.active if s.id == "bb")
        assert ("pA", "sA") in bb.valuation["bbos"]

    def test_single_source_still_decomposes(self):
        scenario = paper_scenario(sources={"ks1": {"pA", "pB", "pC"}})
        result = simulate_blackboard(scenario)
        assert not result.truncated
        requested_pairs = {
            pair
            for k in result.trace.steps
            for snap in k.active
            if snap.id == "ks1"
            for pair in snap.valuation["ksop"]
        }
        assert ("pA", frozenset({"pB", "pC"})) in requested_pairs

    def test_short_horizon_truncates(self):
        result = simulate_blackboard(paper_scenario(horizon=2))
        assert result.truncated

    def test_self_conformance(self):
        bundle = blackboard_bundle()
        rng = random.Random(99)
        for _ in range(5):
            scenario = random_scenario(rng)
            result = simulate_blackboard(scenario)
            report = check_simulation(bundle, result)
            assert report.overall is Truth.SATISFIED, (
                scenario.seed,
                report.render(),
            )

    def test_truncated_run_is_inconclusive_in_open_mode(self):
        bundle = blackboard_bundle()
        result = simulate_blackboard(paper_scenario(horizon=2))
        assert result.truncated
        report = check_simulation(bundle, result, mode=OPEN)
        guarantee = [
            a for a in report.assertions if a.name.startswith("BlackboardGuarantee")
        ]
        assert guarantee[0].verdict.truth is Truth.INCONCLUSIVE


class TestUnitRendering:
    def test_trace_unit_round_trips_and_resolves(self):
        result = simulate_blackboard(paper_scenario(horizon=12))
        unit = trace_unit(result, name="Run")
        text = print_unit(unit)
        reparsed, diagnostics = parse_unit(text)
        assert reparsed == unit, diagnostics
        from blackboard_sources import bundle_units

        alg_unit = algebra_unit(result.scenario)
        bundle, diagnostics = resolve(
            list(bundle_units().values()) + [reparsed, alg_unit]
        )
        assert bundle is not None, [d.render() for d in diagnostics]
        data = bundle.traces["Run"]
        # the re-resolved trace equals the generated one step by step
        assert data.trace.steps == result.trace.steps

    def test_algebra_unit_resolves_to_scenario_algebra(self):
        scenario = paper_scenario()
        from blackboard_sources import bundle_units

        bundle, _ = resolve(
            list(bundle_units().values()) + [algebra_unit(scenario)]
        )
        alg = bundle.algebras["ProbSolModel"]
        assert alg.carriers["PROB"] == scenario.problems
        assert alg.functions["solve"][("pB",)] == "sB"
        assert ("pB", "pA") in alg.predicates["prec"]


class TestTheoremHarness:
    def test_small_run_passes(self):
        report = verify_theorem(trials=8, seed=303)
        assert report.ok
        assert report.premise_satisfied == 8
        assert report.guarantee_satisfied == 8

    def test_rejects_zero_trials(self):
        with pytest.raises(UsageError):
            verify_theorem(trials=0)

    def test_forwarding_mutation_detected(self):
        report = verify_theorem(trials=4, seed=1, mutation="drop-forwarding")
        failed = [t for t in report.trials if t.premise is Truth.VIOLATED]
        assert failed
        assert any(
            name.startswith("BlackboardBehavior")
            for t in failed
            for name in t.failed_assertions
        )

    def test_activation_mutation_detected(self):
        bundle = blackboard_bundle()
        result = simulate_blackboard(
            paper_scenario(), mutation="drop-activation"
        )
        report = check_simulation(bundle, result)
        violated = {
            a.name for a in report.assertions if a.verdict.truth is Truth.VIOLATED
        }
        assert "BlackboardActivation.ax2" in violated


class TestTheoremReportRender:
    def test_a_broken_premise_names_its_assertions(self):
        report = verify_theorem(trials=2, seed=0, mutation="drop-forwarding")
        assert report.render().splitlines() == [
            "trials: 2 (mutation: drop-forwarding)",
            "premises satisfied: 0/2",
            "guarantee satisfied: 0/2",
            "  seed 316721330: premise Violated (BlackboardBehavior.ax1)",
            "  seed 1924014660: premise Violated (BlackboardBehavior.ax1)",
        ]

    def test_a_violated_guarantee_gets_its_own_line(self):
        report = TheoremReport(
            trials=[
                TrialOutcome(11, Truth.SATISFIED, Truth.SATISFIED, False),
                TrialOutcome(12, Truth.SATISFIED, Truth.VIOLATED, True),
                TrialOutcome(13, Truth.INCONCLUSIVE, None, True, ["A.ax1", "B.ax2"]),
            ],
            mutation=None,
        )
        assert report.render().splitlines() == [
            "trials: 3",
            "premises satisfied: 2/3",
            "guarantee satisfied: 1/3",
            "  seed 12: guarantee Violated",
            "  seed 13: premise Inconclusive (A.ax1, B.ax2)",
        ]
