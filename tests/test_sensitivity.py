"""Detector sensitivity: each kind of surgical trace corruption must be
caught by the constraint that owns it."""
import pytest

from archcheck.blackboard import simulate_blackboard
from archcheck.checker import blackboard_bundle, check_simulation
from archcheck.constraints import CLOSED, Truth
from archcheck.interfaces import SpecInterpretation, identity_interpretation
from archcheck.model import (
    ArchConfiguration,
    ComponentUniverse,
    ConfigurationTrace,
    make_snapshot,
)
from archcheck.parser.resolver import TraceData

from test_blackboard import paper_scenario


@pytest.fixture(scope="module")
def clean_run():
    return simulate_blackboard(paper_scenario(horizon=25))


@pytest.fixture(scope="module")
def bundle():
    return blackboard_bundle()


def violated_names(report):
    names = {
        a.name for a in report.assertions if a.verdict.truth is Truth.VIOLATED
    }
    return names


def rebuild(result, steps, extra_snapshots=frozenset(), extra_ks=frozenset()):
    universe = ComponentUniverse(
        result.trace.universe.snapshots | frozenset(extra_snapshots)
    )
    by_iface = dict(result.interpretation.by_interface)
    for snap in extra_snapshots:
        key = "BB" if snap.id.startswith("bb") and snap.id not in extra_ks else "KS"
        by_iface[key] = by_iface[key] | {identity_interpretation(snap)}
    return (
        ConfigurationTrace(universe, tuple(steps)),
        SpecInterpretation(by_iface),
    )


def run(bundle, result, trace, interpretation):
    from archcheck.checker import run_check

    return run_check(
        bundle,
        algebra=result.algebra,
        trace=TraceData("t", trace, interpretation),
        mode=CLOSED,
    )


def find_step_with_active_ks(result):
    for index, step in enumerate(result.trace.steps):
        ks_ids = sorted({s.id for s in step.active} - {"bb"})
        if ks_ids:
            return index, ks_ids[0]
    raise AssertionError("no step with an active knowledge source")


class TestSurgicalCorruptions:
    def test_missing_required_connection_is_caught(self, clean_run, bundle):
        index, ks = find_step_with_active_ks(clean_run)
        step = clean_run.trace.steps[index]
        connection = {
            src: targets
            for src, targets in step.connection.items()
            if src != (ks, "ksip")
        }
        # keep the consistency rule satisfied: the now-open input keeps its
        # value, which is legal for environment inputs
        steps = list(clean_run.trace.steps)
        steps[index] = ArchConfiguration(step.active, connection)
        trace, J = rebuild(clean_run, steps)
        report = run(bundle, clean_run, trace, J)
        names = violated_names(report)
        assert "BlackboardConnection.ax1" in names
        assert "BlackboardDiagram.connections" in names

    def test_second_blackboard_breaks_uniqueness(self, clean_run, bundle):
        rogue = make_snapshot(
            "bb2",
            inputs={"bbip": (), "bbis": ()},
            outputs={"bbop": (), "bbos": ()},
        )
        step0 = clean_run.trace.steps[0]
        steps = list(clean_run.trace.steps)
        steps[0] = ArchConfiguration(step0.active | {rogue}, step0.connection)
        trace, J = rebuild(clean_run, steps, extra_snapshots={rogue})
        report = run(bundle, clean_run, trace, J)
        names = violated_names(report)
        assert "BlackboardDiagram.minmax" in names  # two active BB at step 0
        assert "BlackboardDiagram.rigid" in names  # second interpreted BB id
        assert "BlackboardActivation.ax1" in names

    def test_request_outside_prob_set_violates_interface_assertion(
        self, clean_run, bundle
    ):
        # ks1 can only solve pA; forge a request for pB
        index, _ = find_step_with_active_ks(clean_run)
        step = clean_run.trace.steps[index]
        forged = make_snapshot(
            "ks9",
            local={"prob": {"pA"}},
            inputs={"ksip": (), "ksis": ()},
            outputs={"ksop": {("pB", frozenset())}, "ksos": ()},
        )
        steps = list(clean_run.trace.steps)
        steps[index] = ArchConfiguration(
            step.active | {forged},
            dict(step.connection)
            | {
                ("ks9", "ksip"): {("bb", "bbop")},
                ("ks9", "ksis"): {("bb", "bbos")},
            },
        )
        trace, J = rebuild(clean_run, steps, extra_snapshots={forged}, extra_ks={"ks9"})
        report = run(bundle, clean_run, trace, J)
        assert any(
            v.code == "interface-assertion" and v.subject == "ks9"
            for v in report.interpretation.violations
        )
        assert report.overall is Truth.VIOLATED

    def test_non_subproblem_request_violates_ordering_axiom(
        self, clean_run, bundle
    ):
        # a request whose "subproblem" is not below the problem: pB with {pA}
        index, _ = find_step_with_active_ks(clean_run)
        step = clean_run.trace.steps[index]
        forged = make_snapshot(
            "ks9",
            local={"prob": {"pB"}},
            inputs={"ksip": (), "ksis": ()},
            outputs={"ksop": {("pB", frozenset({"pA"}))}, "ksos": ()},
        )
        steps = list(clean_run.trace.steps)
        steps[index] = ArchConfiguration(
            step.active | {forged},
            dict(step.connection)
            | {
                ("ks9", "ksip"): {("bb", "bbop")},
                ("ks9", "ksis"): {("bb", "bbos")},
            },
        )
        trace, J = rebuild(clean_run, steps, extra_snapshots={forged}, extra_ks={"ks9"})
        report = run(bundle, clean_run, trace, J)
        names = violated_names(report)
        assert "KnowledgeSourceBehavior.ax2" in names

    def test_connection_to_wrong_port_is_caught(self, clean_run, bundle):
        # reroute a source's solution input to the posted-problems port; the
        # input valuation is adjusted so only the connection constraint fires
        index, ks = find_step_with_active_ks(clean_run)
        step = clean_run.trace.steps[index]
        active = {s.id: s for s in step.active}
        old_ks, bb = active[ks], active["bb"]
        rewired = make_snapshot(
            ks,
            local={"prob": old_ks.valuation["prob"]},
            inputs={
                "ksip": old_ks.valuation["ksip"],
                "ksis": bb.valuation["bbop"],
            },
            outputs={
                "ksop": old_ks.valuation["ksop"],
                "ksos": old_ks.valuation["ksos"],
            },
        )
        connection = dict(step.connection)
        connection[(ks, "ksis")] = {("bb", "bbop")}
        steps = list(clean_run.trace.steps)
        steps[index] = ArchConfiguration(
            frozenset(s for s in step.active if s.id != ks) | {rewired},
            connection,
        )
        trace, J = rebuild(clean_run, steps, extra_snapshots={rewired}, extra_ks={ks})
        report = run(bundle, clean_run, trace, J)
        assert report.trace_validity.ok  # the rewiring is consistent
        names = violated_names(report)
        assert "BlackboardConnection.ax2" in names
        assert "BlackboardConnection.ax1" in names  # ksis no longer taps bbos
