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
    Evaluator,
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
    back_edges,
    check_well_founded,
    eval_term,
    free_vars,
    models_spec,
)
from archcheck.errors import (
    AssignmentError,
    CapacityError,
    SignatureError,
    StructuralError,
)
from archcheck.parser import parse_unit, resolve

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


_SORTED = """\
datatype D
sorts
  PROB, SOL
symbols
  solve : PROB -> SOL
vars
  p : PROB
  s : SOL
  P : set(PROB)
axioms
  {axiom}
"""


def _sorted_axiom(axiom):
    """The datatype axiom as the resolver sorts it, or None, with the
    resolver's diagnostics rendered."""
    unit, diagnostics = parse_unit(_SORTED.format(axiom=axiom))
    assert unit is not None, diagnostics
    bundle, diagnostics = resolve([unit])
    node = bundle.datatype_axioms[0].assertion if bundle is not None else None
    return node, [d.render() for d in diagnostics]


class TestTypechecking:
    def test_solve_application(self):
        term = Apply("solve", (Var("p", PROB),))
        assert _sorted_axiom("solve(p) == s") == (Equals(term, Var("s", SOL)), [])

    def test_bare_variable(self):
        p = Var("p", PROB)
        assert _sorted_axiom("p == p") == (Equals(p, p), [])

    def test_sort_mismatch(self):
        assert _sorted_axiom("solve(s) == s") == (
            None, ["D:11:9: error[resolve]: expected sort PROB, got SOL"]
        )

    def test_arity_mismatch(self):
        assert _sorted_axiom("solve() == s") == (
            None, ["D:11:3: error[resolve]: 'solve' expects 1 arguments, got 0"]
        )

    def test_unknown_symbol_has_path(self):
        # the diagnostic points at the nested symbol, not at the application
        assert _sorted_axiom("solve(mystery) == s") == (
            None, ["D:11:9: error[resolve]: unknown name 'mystery'"]
        )

    def test_empty_set_literal_needs_annotation(self):
        assert _sorted_axiom("{} == {}") == (
            None,
            ["D:11:9: error[resolve]: cannot infer the element sort of an empty"
             " set literal"],
        )
        annotated = SetTerm((), element_sort=PROB)
        assert _sorted_axiom("P == {}") == (
            Equals(Var("P", SetSort(PROB)), annotated), []
        )


class TestEvaluation:
    def test_constant_lookup(self):
        sig = Signature(sorts={"A"}, functions={"c": ((), A)})
        alg = Algebra(sig, carriers={"A": ("m", "n")}, functions={"c": {(): "m"}})
        assert eval_term(alg, {}, Apply("c", ())) == "m"

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
        assert Evaluator(alg).holds({"p": "pC"}, Equals(term, term))

    def test_forall_exists_solution(self):
        alg = probsol_algebra()
        formula = ForallData(
            "p",
            PROB,
            ExistsData(
                "s", SOL, Equals(Apply("solve", (Var("p", PROB),)), Var("s", SOL))
            ),
        )
        assert Evaluator(alg).holds({}, formula)

    def test_predicate_table_membership(self):
        alg = probsol_algebra()
        atom = PredAtom("prec", (Var("q", PROB), Var("p", PROB)))
        assert not Evaluator(alg).holds({"p": "pA", "q": "pA"}, atom)
        assert Evaluator(alg).holds({"p": "pA", "q": "pB"}, atom)

    def test_negation_is_classical(self):
        alg = grounded_probsol()
        rng = random.Random(11)
        for _ in range(60):
            closed = _random_closed_assertion(rng)
            ev = Evaluator(alg)
            assert ev.holds({}, Not(closed)) != ev.holds({}, closed)

    def test_membership_and_bounded_quantifier(self):
        alg = grounded_probsol()
        collection = SetTerm((Apply("pA", ()), Apply("pB", ())))
        member = Member(Var("x", PROB), collection)
        assert Evaluator(alg).holds({"x": "pA"}, member)
        assert not Evaluator(alg).holds({"x": "pC"}, member)
        bounded = BoundedForall(("y",), collection, Member(Var("y", PROB), collection))
        assert Evaluator(alg).holds({}, bounded)

    def test_bounded_pattern_binding(self):
        alg = grounded_probsol()
        pairs = SetTerm(
            (
                PairTerm(Apply("pA", ()), SetTerm((Apply("pB", ()),))),
                PairTerm(Apply("pB", ()), SetTerm(())),
            )
        )
        body = Member(Var("x", PROB), SetTerm((Apply("pA", ()), Apply("pB", ()))))
        assert Evaluator(alg).holds({}, BoundedForall(("x", "X"), pairs, body))


def _random_closed_assertion(rng):
    constants = ["pA", "pB", "pC"]

    def atom():
        return PredAtom(
            "prec", (Apply(rng.choice(constants), ()), Apply(rng.choice(constants), ()))
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
            return Apply(rng.choice(["pA", "pB", "pC"]), ())
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
        if not Evaluator(alg).holds(dict(zip(names, combo)), formula):
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

    def test_a_chain_longer_than_the_recursion_limit(self):
        # a recursive search overflowed Python's stack on this chain
        names = [f"p{i}" for i in range(5000)]
        chain = set(zip(names, names[1:]))

        def chain_algebra(rows):
            return Algebra(
                probsol_signature(),
                carriers={"PROB": tuple(names), "SOL": ("s",)},
                functions={"solve": {(p,): "s" for p in names}},
                predicates={"prec": rows},
            )

        assert models_spec(chain_algebra(chain), [WellFounded("prec")])
        closed = chain_algebra(chain | {(names[-1], names[0])})
        assert not models_spec(closed, [WellFounded("prec")])

    def test_back_edges_reports_each_cycle_in_search_order(self):
        graph = {"a": ("b", "c"), "b": ("c", "a"), "c": ("c",), "d": ("b",)}
        assert list(back_edges("abcd", graph.__getitem__)) == [
            ("a", "b", "c", "c"),
            ("a", "b", "a"),
        ]
        assert list(back_edges("d", {"d": ()}.__getitem__)) == []

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
