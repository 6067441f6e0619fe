import pytest

from archcheck.algebra import (
    Apply,
    Equals,
    Evaluator,
    Implies,
    Member,
    PairTerm,
    PredAtom,
    SetTerm,
    Var,
)
from archcheck.errors import (
    InterpretationError,
    SignatureError,
    UnknownComponentError,
)
from archcheck.interfaces import (
    InterfaceInterpretation,
    PortSym,
    SpecInterpretation,
    check_port_typing,
    check_spec_interpretation,
    _InterfaceEvaluator,
    identity_interpretation,
)
from archcheck.model import check_healthy, make_snapshot

from fixtures import (
    BB_PORT_SORTS,
    PROB,
    SOL,
    bb_snapshot,
    blackboard_interfaces,
    blackboard_interpretation,
    blackboard_port_spec,
    ks_snapshot,
    probsol_algebra,
)

PAIR_PP = BB_PORT_SORTS["ksop"]
SET_P = PAIR_PP.second


def ks_only_solves_known_problems():
    """Output requests must concern problems the source can solve."""
    return Implies(
        Equals(
            PortSym("ksop", PAIR_PP),
            SetTerm((PairTerm(Var("p", PROB), Var("P", SET_P)),)),
        ),
        Member(Var("p", PROB), PortSym("prob", PROB)),
    )


class TestPortTyping:
    def test_prob_set_is_well_typed(self):
        interp = identity_interpretation(ks_snapshot("ks1", prob={"pA"}))
        report = check_port_typing(interp, blackboard_port_spec(), probsol_algebra())
        assert report.ok

    def test_solution_on_pair_port_rejected(self):
        bad = ks_snapshot("ks1", prob={"pA"}, ksop={"sA"})
        report = check_port_typing(
            identity_interpretation(bad), blackboard_port_spec(), probsol_algebra()
        )
        assert not report.ok
        assert report.violations[0].code == "port-typing"
        assert report.violations[0].subject == "ks1.ksop"

    def test_empty_valuations_typecheck(self):
        interp = identity_interpretation(ks_snapshot("ks1", prob=()))
        assert check_port_typing(
            interp, blackboard_port_spec(), probsol_algebra()
        ).ok

    def test_port_maps_must_be_bijections(self):
        snap = ks_snapshot("ks1", prob={"pA"})
        with pytest.raises(InterpretationError):
            InterfaceInterpretation(
                snapshot=snap,
                local_map={"prob": "prob"},
                input_map={"ksip": "ksip", "ksis": "ksip"},
                output_map={"ksop": "ksop", "ksos": "ksos"},
            )


class TestTermEvaluation:
    def test_port_symbol_reads_valuation(self):
        interp = identity_interpretation(ks_snapshot("ks1", prob={"pA", "pB"}))
        ev = _InterfaceEvaluator(probsol_algebra(), interp)
        assert ev.term({}, PortSym("prob", PROB)) == {"pA", "pB"}

    def test_pair_valued_output_port(self):
        interp = identity_interpretation(
            ks_snapshot("ks1", prob={"pA"}, ksop={("pA", frozenset({"pB"}))})
        )
        ev = _InterfaceEvaluator(probsol_algebra(), interp)
        assert ev.term({}, PortSym("ksop", PAIR_PP)) == {("pA", frozenset({"pB"}))}

    def test_datatype_subterm_delegates(self):
        interp = identity_interpretation(ks_snapshot("ks1", prob=()))
        term = Apply("solve", (Var("p", PROB),))
        ev = _InterfaceEvaluator(probsol_algebra(), interp)
        assert ev.term({"p": "pA"}, term) == "sA"

    def test_renaming_invariance(self):
        # Same data through renamed concrete ports and adjusted bijections.
        renamed = make_snapshot(
            "ks1",
            local={"knowledge": {"pA"}},
            inputs={"in1": (), "in2": ()},
            outputs={"out1": {("pA", frozenset())}, "out2": ()},
        )
        interp = InterfaceInterpretation(
            snapshot=renamed,
            local_map={"knowledge": "prob"},
            input_map={"in1": "ksip", "in2": "ksis"},
            output_map={"out1": "ksop", "out2": "ksos"},
        )
        ev = _InterfaceEvaluator(probsol_algebra(), interp)
        assert ev.term({}, PortSym("prob", PROB)) == {"pA"}
        assert ev.holds({"p": "pA", "P": frozenset()}, ks_only_solves_known_problems())


class TestAssertionSemantics:
    def test_request_for_known_problem_accepted(self):
        interp = identity_interpretation(
            ks_snapshot("ks1", prob={"pA"}, ksop={("pA", frozenset({"pB"}))})
        )
        alg = probsol_algebra()
        formula = ks_only_solves_known_problems()
        ev = _InterfaceEvaluator(alg, interp)
        for p in alg.carriers["PROB"]:
            for P in alg.carrier(SET_P):
                assert ev.holds({"p": p, "P": P}, formula)

    def test_request_for_unknown_problem_rejected(self):
        interp = identity_interpretation(
            ks_snapshot("ks1", prob={"pA"}, ksop={("pB", frozenset())})
        )
        ev = _InterfaceEvaluator(probsol_algebra(), interp)
        formula = ks_only_solves_known_problems()
        assert not ev.holds({"p": "pB", "P": frozenset()}, formula)

    def test_portless_assertion_matches_algebra_semantics(self):
        alg = probsol_algebra()
        interp = identity_interpretation(ks_snapshot("ks1", prob=()))
        formula = Equals(Apply("solve", (Var("p", PROB),)), Var("s", SOL))
        ev, datatype_ev = _InterfaceEvaluator(alg, interp), Evaluator(alg)
        for p in alg.carriers["PROB"]:
            for s in alg.carriers["SOL"]:
                asg = {"p": p, "s": s}
                assert ev.holds(asg, formula) == datatype_ev.holds(asg, formula)


    def test_bad_symbols_raise_signature_error(self):
        # the same errors as the datatype fragment: an undeclared predicate,
        # a function symbol with no table, a table undefined at its arguments
        interp = identity_interpretation(ks_snapshot("ks1", prob={"pA"}))
        ev = _InterfaceEvaluator(probsol_algebra(), interp)
        with pytest.raises(SignatureError, match="unknown predicate"):
            ev.holds({}, PredAtom("nosuch", (PortSym("prob", PROB),)))
        with pytest.raises(SignatureError, match="no table"):
            ev.term({}, Apply("nosuch", ()))
        with pytest.raises(SignatureError, match="undefined at"):
            ev.holds(
                {"p": "pZ"},
                Member(Apply("solve", (Var("p", PROB),)), PortSym("prob", PROB)),
            )


class TestSpecInterpretation:
    def _blackboard_J(self):
        return blackboard_interpretation(
            {
                "BB": [bb_snapshot()],
                "KS": [
                    ks_snapshot("ks1", prob={"pA"}),
                    ks_snapshot("ks2", prob={"pB", "pC"}),
                ],
            }
        )

    def test_valid_interpretation_passes(self):
        spec = blackboard_interfaces(
            assertions={"KS": (ks_only_solves_known_problems(),)}
        )
        report = check_spec_interpretation(
            self._blackboard_J(), spec, blackboard_port_spec(), probsol_algebra()
        )
        assert report.ok
        # the KS assertion reads the local prob port through the extension
        assert any("local-port term" in note for note in report.notes)

    def test_shared_id_across_interfaces_rejected(self):
        shared = blackboard_interpretation(
            {
                "BB": [bb_snapshot("dual")],
                "KS": [
                    make_snapshot(
                        "dual",
                        local={"prob": set()},
                        inputs={"ksip": (), "ksis": ()},
                        outputs={"ksop": (), "ksos": ()},
                    )
                ],
            }
        )
        report = check_spec_interpretation(
            shared, blackboard_interfaces(), blackboard_port_spec(), probsol_algebra()
        )
        assert "interface-overlap" in {v.code for v in report.violations}

    def test_assertion_violation_names_the_assertion(self):
        spec = blackboard_interfaces(
            assertions={"KS": (ks_only_solves_known_problems(),)}
        )
        bad = blackboard_interpretation(
            {
                "BB": [bb_snapshot()],
                "KS": [ks_snapshot("ks1", prob={"pA"}, ksop={("pB", frozenset())})],
            }
        )
        report = check_spec_interpretation(
            bad, spec, blackboard_port_spec(), probsol_algebra()
        )
        assert any(
            v.code == "interface-assertion" and "assertion 1" in v.message
            for v in report.violations
        )

    def test_components_of(self):
        J = self._blackboard_J()
        assert J.ids_of("KS") == ("ks1", "ks2")
        assert J.ids_of("BB") == (bb_snapshot().id,)
        with pytest.raises(UnknownComponentError):
            J.ids_of("Nope")

    def test_union_universe_is_healthy(self):
        assert check_healthy(self._blackboard_J().universe()).ok

    def test_empty_interface_has_no_components(self):
        J = SpecInterpretation({"BB": frozenset(), "KS": frozenset()})
        assert J.ids_of("BB") == ()


def test_concrete_port_inverts_the_role_maps():
    renamed = make_snapshot(
        "ks1",
        local={"knowledge": {"pA"}},
        inputs={"in1": (), "in2": ()},
        outputs={"out1": (), "out2": ()},
    )
    maps = dict(
        local_map={"knowledge": "prob"},
        input_map={"in1": "ksip", "in2": "ksis"},
        output_map={"out1": "ksop", "out2": "ksos"},
    )
    interp = InterfaceInterpretation(snapshot=renamed, **maps)
    for mapping in maps.values():
        for concrete, port_id in mapping.items():
            assert interp.concrete_port(port_id) == concrete
    with pytest.raises(InterpretationError, match="not interpreted"):
        interp.concrete_port("bbop")
    # the inverse map is derived, so equality and hashing ignore it
    twin = InterfaceInterpretation(snapshot=renamed, **maps)
    assert twin == interp and hash(twin) == hash(interp)
    assert "_concrete" not in repr(interp)


_MISTYPED_SNAPSHOTS = """
from archcheck.interfaces import check_spec_interpretation
from fixtures import (
    bb_snapshot, blackboard_interfaces, blackboard_interpretation,
    blackboard_port_spec, ks_snapshot, probsol_algebra,
)
J = blackboard_interpretation({
    "BB": [bb_snapshot()],
    "KS": [ks_snapshot("ks1", prob={"pA"}, ksop={s}) for s in ("sA", "sB", "sC")],
})
report = check_spec_interpretation(
    J, blackboard_interfaces(), blackboard_port_spec(), probsol_algebra()
)
print(report.render())
"""


def test_violation_order_is_the_same_in_every_process():
    # three snapshots of ks1 break port typing; the order in which they are
    # reported must not follow string hashing
    import os
    import subprocess
    import sys
    from pathlib import Path

    import archcheck

    paths = [str(Path(archcheck.__file__).parent.parent), str(Path(__file__).parent)]
    outputs = set()
    for seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(paths)}
        done = subprocess.run(
            [sys.executable, "-c", _MISTYPED_SNAPSHOTS],
            env=env, capture_output=True, timeout=60, check=True,
        )
        outputs.add(done.stdout)
    assert len(outputs) == 1
    rendered = outputs.pop().decode().splitlines()
    assert [line.split("message ")[1] for line in rendered] == [
        f"s{c} is not of sort pair(PROB, set(PROB))" for c in "ABC"
    ]
