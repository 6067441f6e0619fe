import itertools
import random

import pytest

from archcheck.algebra import (
    Algebra,
    And,
    Apply,
    BaseSort,
    BoundedForall,
    Equals,
    ExistsData,
    ForallData,
    Iff,
    Implies,
    Member,
    Not,
    Or,
    PairSort,
    PairTerm,
    PredAtom,
    SetSort,
    SetTerm,
    Signature,
    Var,
    WellFounded,
    assertion_holds,
    check_well_founded,
    constant,
    eval_term,
    free_vars,
    models_spec,
    typecheck_term,
)
from archcheck.errors import (
    AssignmentError,
    CapacityError,
    SignatureError,
    SortError,
    StructuralError,
)

from fixtures import PROB, SOL, probsol_algebra, probsol_signature

A = BaseSort("A")


def grounded_probsol() -> Algebra:
    """ProbSol model extended with one constant per problem."""
    sig = Signature(
        sorts={"PROB", "SOL"},
        functions={
            "solve": ((PROB,), SOL),
            "pA": ((), PROB),
            "pB": ((), PROB),
            "pC": ((), PROB),
        },
        predicates={"prec": (PROB, PROB)},
    )
    return Algebra(
        signature=sig,
        carriers={"PROB": ("pA", "pB", "pC"), "SOL": ("sA", "sB", "sC")},
        functions={
            "solve": {("pA",): "sA", ("pB",): "sB", ("pC",): "sC"},
            "pA": {(): "pA"},
            "pB": {(): "pB"},
            "pC": {(): "pC"},
        },
        predicates={"prec": {("pB", "pA"), ("pC", "pA")}},
    )


class TestSignaturesAndAlgebras:
    def test_undeclared_sort_rejected(self):
        with pytest.raises(SignatureError):
            Signature(sorts={"A"}, functions={"f": ((BaseSort("B"),), A)})

    def test_function_table_must_be_total(self):
        sig = Signature(sorts={"A"}, functions={"f": ((A,), A)})
        with pytest.raises(StructuralError, match="undefined at"):
            Algebra(sig, carriers={"A": ("x", "y")}, functions={"f": {("x",): "x"}})

    def test_function_result_must_lie_in_carrier(self):
        sig = Signature(sorts={"A"}, functions={"f": ((), A)})
        with pytest.raises(StructuralError):
            Algebra(sig, carriers={"A": ("x",)}, functions={"f": {(): "z"}})

    def test_empty_carrier_rejected(self):
        with pytest.raises(StructuralError):
            Algebra(Signature(sorts={"A"}), carriers={"A": ()})

    def test_pair_and_set_carriers(self):
        alg = probsol_algebra()
        pairs = alg.carrier(PairSort(PROB, SOL))
        assert len(pairs) == 9 and ("pA", "sB") in pairs
        subsets = alg.carrier(SetSort(PROB))
        assert len(subsets) == 8 and frozenset({"pA", "pC"}) in subsets

    def test_set_carrier_cap(self):
        alg = Algebra(
            Signature(sorts={"A"}), carriers={"A": tuple(f"a{i}" for i in range(9))}
        )
        with pytest.raises(CapacityError):
            alg.carrier(SetSort(A))

    def test_contains_avoids_enumeration(self):
        alg = Algebra(
            Signature(sorts={"A"}), carriers={"A": tuple(f"a{i}" for i in range(9))}
        )
        assert alg.contains(frozenset({"a0", "a8"}), SetSort(A))
        assert not alg.contains("a0", SetSort(A))


class TestTypechecking:
    def test_solve_application(self):
        sig = probsol_signature()
        term = Apply("solve", (Var("p", PROB),))
        assert typecheck_term(sig, {"p": PROB}, term) == SOL

    def test_bare_variable(self):
        assert typecheck_term(probsol_signature(), {"v": PROB}, Var("v", PROB)) == PROB

    def test_sort_mismatch(self):
        sig = probsol_signature()
        with pytest.raises(SortError, match="sort"):
            typecheck_term(sig, {"s": SOL}, Apply("solve", (Var("s", SOL),)))

    def test_arity_mismatch(self):
        with pytest.raises(SortError, match="arguments"):
            typecheck_term(probsol_signature(), {}, Apply("solve", ()))

    def test_unknown_symbol_has_path(self):
        nested = Apply("solve", (Apply("mystery", ()),))
        with pytest.raises(SortError, match="solve/arg0"):
            typecheck_term(probsol_signature(), {}, nested)

    def test_empty_set_literal_needs_annotation(self):
        sig = probsol_signature()
        with pytest.raises(SortError):
            typecheck_term(sig, {}, SetTerm(()))
        annotated = SetTerm((), element_sort=PROB)
        assert typecheck_term(sig, {}, annotated) == SetSort(PROB)


class TestEvaluation:
    def test_constant_lookup(self):
        sig = Signature(sorts={"A"}, functions={"c": ((), A)})
        alg = Algebra(sig, carriers={"A": ("m", "n")}, functions={"c": {(): "m"}})
        assert eval_term(alg, {}, constant("c")) == "m"

    def test_table_lookup(self):
        alg = probsol_algebra()
        assert eval_term(alg, {"p": "pB"}, Apply("solve", (Var("p", PROB),))) == "sB"

    def test_unbound_variable(self):
        with pytest.raises(AssignmentError):
            eval_term(probsol_algebra(), {}, Var("p", PROB))

    def test_nested_composition_matches_composed_table(self):
        # f(g(x)) must agree with a table composed up front, for every x.
        rng = random.Random(7)
        carrier = ("a", "b", "c", "d")
        sig = Signature(sorts={"A"}, functions={"f": ((A,), A), "g": ((A,), A)})
        f_table = {(x,): rng.choice(carrier) for x in carrier}
        g_table = {(x,): rng.choice(carrier) for x in carrier}
        alg = Algebra(
            sig, carriers={"A": carrier}, functions={"f": f_table, "g": g_table}
        )
        composed = {x: f_table[(g_table[(x,)],)] for x in carrier}
        term = Apply("f", (Apply("g", (Var("x", A),)),))
        for x in carrier:
            assert eval_term(alg, {"x": x}, term) == composed[x]

    def test_pair_and_set_terms(self):
        alg = probsol_algebra()
        term = PairTerm(Var("p", PROB), SetTerm((Var("q", PROB),)))
        assert eval_term(alg, {"p": "pA", "q": "pB"}, term) == (
            "pA",
            frozenset({"pB"}),
        )


class TestAssertions:
    def test_reflexive_equality(self):
        alg = probsol_algebra()
        term = Apply("solve", (Var("p", PROB),))
        assert assertion_holds(alg, {"p": "pC"}, Equals(term, term))

    def test_forall_exists_solution(self):
        alg = probsol_algebra()
        formula = ForallData(
            "p",
            PROB,
            ExistsData(
                "s", SOL, Equals(Apply("solve", (Var("p", PROB),)), Var("s", SOL))
            ),
        )
        assert assertion_holds(alg, {}, formula)

    def test_predicate_table_membership(self):
        alg = probsol_algebra()
        atom = PredAtom("prec", (Var("q", PROB), Var("p", PROB)))
        assert not assertion_holds(alg, {"p": "pA", "q": "pA"}, atom)
        assert assertion_holds(alg, {"p": "pA", "q": "pB"}, atom)

    def test_negation_is_classical(self):
        alg = grounded_probsol()
        rng = random.Random(11)
        for _ in range(60):
            closed = _random_closed_assertion(rng)
            assert assertion_holds(alg, {}, Not(closed)) != assertion_holds(
                alg, {}, closed
            )

    def test_membership_and_bounded_quantifier(self):
        alg = grounded_probsol()
        collection = SetTerm((constant("pA"), constant("pB")))
        member = Member(Var("x", PROB), collection)
        assert assertion_holds(alg, {"x": "pA"}, member)
        assert not assertion_holds(alg, {"x": "pC"}, member)
        bounded = BoundedForall(("y",), collection, Member(Var("y", PROB), collection))
        assert assertion_holds(alg, {}, bounded)

    def test_bounded_pattern_binding(self):
        alg = grounded_probsol()
        pairs = SetTerm(
            (
                PairTerm(constant("pA"), SetTerm((constant("pB"),))),
                PairTerm(constant("pB"), SetTerm(())),
            )
        )
        body = Member(Var("x", PROB), SetTerm((constant("pA"), constant("pB"))))
        assert assertion_holds(alg, {}, BoundedForall(("x", "X"), pairs, body))


def _random_closed_assertion(rng):
    constants = ["pA", "pB", "pC"]

    def atom():
        return PredAtom(
            "prec", (constant(rng.choice(constants)), constant(rng.choice(constants)))
        )

    def build(depth):
        if depth == 0:
            return atom()
        choice = rng.randrange(4)
        if choice == 0:
            return Not(build(depth - 1))
        if choice == 1:
            return And((build(depth - 1), build(depth - 1)))
        if choice == 2:
            return Or((build(depth - 1), build(depth - 1)))
        return Implies(build(depth - 1), build(depth - 1))

    return build(rng.randint(1, 3))


class TestModels:
    def test_empty_spec_is_modelled(self):
        assert models_spec(probsol_algebra(), [])

    def test_probsol_axioms(self):
        alg = probsol_algebra()
        axioms = [
            WellFounded("prec"),
            ForallData(
                "p",
                PROB,
                ExistsData(
                    "s", SOL, Equals(Apply("solve", (Var("p", PROB),)), Var("s", SOL))
                ),
            ),
        ]
        assert models_spec(alg, axioms)

    def test_cycle_fails_well_foundedness_axiom(self):
        alg = Algebra(
            probsol_signature(),
            carriers={"PROB": ("pA", "pB"), "SOL": ("sA", "sB")},
            functions={"solve": {("pA",): "sA", ("pB",): "sB"}},
            predicates={"prec": {("pA", "pB"), ("pB", "pA")}},
        )
        assert not models_spec(alg, [WellFounded("prec")])

    def test_free_variables_universally_quantified(self):
        alg = probsol_algebra()
        open_formula = PredAtom("prec", (Var("q", PROB), Var("p", PROB)))
        assert not models_spec(alg, [open_formula])

    def test_models_spec_agrees_with_bruteforce(self):
        rng = random.Random(23)
        alg = grounded_probsol()
        for _ in range(100):
            formula = _random_open_formula(rng)
            assert models_spec(alg, [formula]) == _bruteforce_models(alg, formula)


def _random_open_formula(rng):
    """Open formulas over PROB variables u, v with up to two quantifiers."""

    def term(scope):
        name = rng.choice(scope)
        if rng.random() < 0.3:
            return constant(rng.choice(["pA", "pB", "pC"]))
        return Var(name, PROB)

    def atom(scope):
        if rng.random() < 0.6:
            return PredAtom("prec", (term(scope), term(scope)))
        return Equals(term(scope), term(scope))

    def build(depth, scope):
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            return atom(scope)
        if roll < 0.5:
            var = f"w{len(scope)}"
            kind = ForallData if rng.random() < 0.5 else ExistsData
            return kind(var, PROB, build(depth - 1, scope + [var]))
        ops = [
            lambda: Not(build(depth - 1, scope)),
            lambda: And((build(depth - 1, scope), build(depth - 1, scope))),
            lambda: Or((build(depth - 1, scope), build(depth - 1, scope))),
            lambda: Implies(build(depth - 1, scope), build(depth - 1, scope)),
            lambda: Iff(build(depth - 1, scope), build(depth - 1, scope)),
        ]
        return rng.choice(ops)()

    return build(rng.randint(1, 2), ["u", "v"])


def _bruteforce_models(alg, formula):
    names = sorted(free_vars(formula)[0])
    for combo in itertools.product(alg.carriers["PROB"], repeat=len(names)):
        if not assertion_holds(alg, dict(zip(names, combo)), formula):
            return False
    return True


class TestWellFoundedness:
    def test_dag_is_well_founded(self):
        assert check_well_founded(probsol_algebra(), "prec")

    def test_self_loop_is_not(self):
        alg = Algebra(
            probsol_signature(),
            carriers={"PROB": ("pA",), "SOL": ("sA",)},
            functions={"solve": {("pA",): "sA"}},
            predicates={"prec": {("pA", "pA")}},
        )
        assert not check_well_founded(alg, "prec")

    def test_empty_relation_is_well_founded(self):
        alg = Algebra(
            probsol_signature(),
            carriers={"PROB": ("pA",), "SOL": ("sA",)},
            functions={"solve": {("pA",): "sA"}},
        )
        assert check_well_founded(alg, "prec")

    def test_wrong_arity_rejected(self):
        sig = Signature(sorts={"A"}, predicates={"r": (A,)})
        alg = Algebra(sig, carriers={"A": ("x",)})
        with pytest.raises(SignatureError):
            check_well_founded(alg, "r")

    def test_mixed_sorts_rejected(self):
        sig = Signature(sorts={"A", "B"}, predicates={"r": (A, BaseSort("B"))})
        alg = Algebra(sig, carriers={"A": ("x",), "B": ("y",)})
        with pytest.raises(SignatureError):
            check_well_founded(alg, "r")
