"""Spec-level worked examples that cut across modules: simulator-backed
temporal witnesses, the simple two-interface diagram, and local-port
readbacks."""
from archcheck.algebra import Apply, PairTerm, Var
from archcheck.constraints import (
    CLOSED,
    OPEN,
    Eventually,
    Member,
    PortRead,
    State,
    Truth,
    WeakUntil,
    trace_holds,
)
from archcheck.diagrams import desugar_diagram
from archcheck.interfaces import SpecInterpretation, identity_interpretation
from archcheck.model import (
    ArchConfiguration,
    ComponentUniverse,
    ConfigurationTrace,
)
from archcheck.parser import parse_unit, resolve

from fixtures import PROB, ks_snapshot
from test_blackboard import paper_scenario


def first_solution_step(trace, pair):
    for index, step in enumerate(trace.steps):
        (bb,) = (s for s in step.active if s.id == "bb")
        if pair in bb.valuation["bbos"]:
            return index
    return None


class TestSimulatorBackedWitnesses:
    def setup_method(self):
        from archcheck.blackboard import simulate_blackboard

        self.result = simulate_blackboard(paper_scenario())
        self.alg = self.result.algebra
        self.J = self.result.interpretation
        self.trace = self.result.trace

    def test_eventual_solution_witness_in_both_modes(self):
        pair = ("pA", "sA")
        expected = first_solution_step(self.trace, pair)
        assert expected is not None and expected > 0
        gamma = Eventually(
            State(
                Member(
                    PairTerm(Var("p", PROB), Apply("solve", (Var("p", PROB),))),
                    PortRead("b", "BB", "bbos", PROB),
                )
            )
        )
        for mode in (OPEN, CLOSED):
            verdict = trace_holds(
                self.alg, self.J, {"p": "pA"}, {"b": "bb"}, self.trace, 0,
                gamma, mode,
            )
            assert verdict.truth is Truth.SATISFIED
            assert verdict.witness == expected

    def test_corrupted_posting_violates_weak_until_at_that_step(self):
        # drop the root problem from the posted set at a step where it is
        # still unsolved: posted-until-solved breaks exactly there
        target = None
        for index, step in enumerate(self.trace.steps):
            (bb,) = (s for s in step.active if s.id == "bb")
            if index > 0 and "pA" in bb.valuation["bbop"] and not any(
                entry[0] == "pA" for entry in bb.valuation["bbis"]
            ):
                target = index
                break
        assert target is not None
        (old_bb,) = (s for s in self.trace.steps[target].active if s.id == "bb")
        from archcheck.model import make_snapshot

        new_bb = make_snapshot(
            "bb",
            inputs={
                "bbip": old_bb.valuation["bbip"],
                "bbis": old_bb.valuation["bbis"],
            },
            outputs={
                "bbop": old_bb.valuation["bbop"] - {"pA"},
                "bbos": old_bb.valuation["bbos"],
            },
        )
        step = self.trace.steps[target]
        corrupted_step = ArchConfiguration(
            frozenset(s for s in step.active if s.id != "bb") | {new_bb},
            step.connection,
        )
        steps = list(self.trace.steps)
        steps[:] = steps[:target] + [corrupted_step] + steps[target + 1:]
        universe = ComponentUniverse(self.trace.universe.snapshots | {new_bb})
        corrupted = ConfigurationTrace(universe, tuple(steps))
        J = SpecInterpretation(
            {
                name: interps | (
                    frozenset({identity_interpretation(new_bb)})
                    if name == "BB"
                    else frozenset()
                )
                for name, interps in self.J.by_interface.items()
            }
        )
        posted = State(Member(Var("p", PROB), PortRead("b", "BB", "bbop", PROB)))
        solved_input = State(
            Member(
                PairTerm(Var("p", PROB), Apply("solve", (Var("p", PROB),))),
                PortRead("b", "BB", "bbis", PROB),
            )
        )
        verdict = trace_holds(
            self.alg, J, {"p": "pA"}, {"b": "bb"}, corrupted, 0,
            WeakUntil(posted, solved_input), CLOSED,
        )
        assert verdict.truth is Truth.VIOLATED
        assert verdict.witness == target


class TestSimpleDiagram:
    TEXT = """
diagram Simple
imports Sorts
ports
  i0, o1 : Sort1
  o0, l0 : Sort2
vars
  v1 : Sort1
interface If1
  local l0
  inputs i0
  outputs o1
interface If2
  outputs o0
axioms If1
  v1 in i0 -> v1 in o1
"""

    SORTS = "datatype Sorts\nsorts\n  Sort1, Sort2\n"

    def test_two_interfaces_one_assertion_no_annotations(self):
        diagram_unit, d1 = parse_unit(self.TEXT)
        sorts_unit, d2 = parse_unit(self.SORTS)
        assert diagram_unit is not None and sorts_unit is not None, (d1, d2)
        bundle, diagnostics = resolve([diagram_unit, sorts_unit])
        assert bundle is not None, [d.render() for d in diagnostics]
        [(name, diagram)] = bundle.diagrams
        assert name == "Simple"
        fragment, assertions = desugar_diagram(diagram)
        assert sorted(fragment.interfaces) == ["If1", "If2"]
        assert fragment.interfaces["If1"].local == {"l0"}
        assert fragment.interfaces["If1"].inputs == {"i0"}
        assert fragment.interfaces["If1"].outputs == {"o1"}
        assert fragment.interfaces["If2"].outputs == {"o0"}
        assert len(fragment.assertions.get("If1", ())) == 1
        assert assertions == ()


class TestReadbacks:
    def test_local_valuation_of_knowledge_source(self):
        ks = ks_snapshot("ks1", prob={"pA", "pC"})
        assert "prob" in ks.local_ports
        assert ks.valuation["prob"] == {"pA", "pC"}
