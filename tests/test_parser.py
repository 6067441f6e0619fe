import hashlib
import random
import re
import zlib
from pathlib import Path

import pytest

from archcheck import algebra as ALG
from archcheck import constraints as CON
from archcheck.algebra import models_spec
from archcheck.checker import diagram_assertions
from archcheck.cli import main
from archcheck.constraints import (
    BoundedRigidForall,
    Globally,
    RigidForallComp,
    State,
    TraceImplies,
)
from archcheck.parser import parse_unit, print_unit, resolve
from archcheck.parser.grammar import MAX_NESTING
from archcheck.parser.lowering import lower_formula
from archcheck.parser.printer import print_expr
from archcheck.parser.syntax import (
    BINARY_LEVEL,
    PREFIX_LEVEL,
    PREFIX_OPERATORS,
    RIGHT_ASSOC,
    SECTIONS,
    UNIT_KINDS,
)

from blackboard_sources import bundle_units, source_text
from rawgen import RawGen

# sha256 of print_unit over the parsed pack units, in file name order, and
# over 30 RawGen units of each kind, as the printer gave them when each kind
# had its own printing branch
PRINTED_DIGEST = "70b15ed7c1f03b86a90c14453717368e862ee9a3f77d4b0dc606535608b677ec"


class TestParseBasics:
    def test_empty_input(self):
        unit, diagnostics = parse_unit("")
        assert unit is None
        assert any("expected unit header" in d.message for d in diagnostics)

    def test_unknown_kind(self):
        unit, diagnostics = parse_unit("gizmo Thing\n")
        assert unit is None
        assert diagnostics[0].severity == "error"

    def test_unexpected_character(self):
        unit, diagnostics = parse_unit("datatype D\nsorts\n  §\n")
        assert unit is None
        assert any(d.code == "lex" for d in diagnostics)

    def test_error_recovery_reports_multiple_lines(self):
        text = "constraints C\naxioms\n  and and\n  or or\n"
        unit, diagnostics = parse_unit(text)
        assert unit is None
        assert len([d for d in diagnostics if d.severity == "error"]) == 2

    def test_probsol_template_shape(self):
        unit, diagnostics = parse_unit(source_text("probsol.arch"))
        assert not diagnostics
        assert unit.kind == "datatype"
        assert unit.body.sorts == ("PROB", "SOL")
        assert len(unit.body.symbols) == 2
        assert len(unit.body.axioms) == 1
        assert print_expr(unit.body.axioms[0].expr) == "well-founded(prec)"

    def test_unicode_aliases(self):
        text = (
            "constraints U\n"
            "rigid vars\n"
            "  b : BB\n"
            "  p : PROB\n"
            "axioms\n"
            "  □(p ∈ b.bbop → ◇(p ∈ b.bbop))\n"
        )
        unit, diagnostics = parse_unit(text)
        assert unit is not None and not diagnostics
        printed = print_expr(unit.body.axioms[0].expr)
        assert printed == "G (p in b.bbop -> F p in b.bbop)"

    def test_minmax_shorthand_prints_single_number(self):
        text = "diagram D\ninterface BB [2..2]\n  inputs i\n"
        unit, _ = parse_unit(text)
        assert unit.body.interfaces[0].minmax == (2, 2)
        assert "interface BB [2]" in print_unit(unit)

    def test_annotation_and_bound_rejected(self):
        unit, diagnostics = parse_unit(
            "constraints C\naxioms\n  forall x : S in y . true\n"
        )
        assert unit is None
        assert any("not both" in d.message for d in diagnostics)


def _nested_axioms(levels):
    """Datatype axioms whose formulas nest exactly ``levels`` deep: a chain
    of ``levels`` atoms joined by one binary operator nests as deep as
    ``levels - 1`` parentheses around an atom."""
    atom = "x == x"
    return {
        "parentheses": "(" * (levels - 1) + atom + ")" * (levels - 1),
        "prefix": "not " * (levels - 1) + atom,
        "equivalence": " <-> ".join([atom] * levels),
        "implication": " -> ".join([atom] * levels),
        "disjunction": " or ".join([atom] * levels),
        "conjunction": " and ".join([atom] * levels),
    }


def _temporal_chains(levels):
    """Constraint axioms chaining ``levels`` atoms by ``U`` and by ``W``."""
    return {op: f" {op} ".join(["true"] * levels) for op in ("U", "W")}


def _datatype(axiom):
    return f"datatype D\nsorts\n  S\nvars\n  x : S\naxioms\n  {axiom}\n"


def _constraints(axiom):
    return f"constraints C\naxioms\n  {axiom}\n"


class TestNestingLimit:
    def test_formula_at_the_limit_parses_resolves_and_evaluates(self):
        model, diagnostics = parse_unit("algebra M\nimports D\ncarriers\n  S = { a, b }\n")
        assert model is not None, diagnostics
        for shape, axiom in _nested_axioms(MAX_NESTING).items():
            unit, diagnostics = parse_unit(_datatype(axiom))
            assert unit is not None and not diagnostics, shape
            bundle, diagnostics = resolve([unit, model])
            assert bundle is not None, (shape, diagnostics)
            holds = models_spec(bundle.algebras["M"], [bundle.datatype_axioms[0].assertion])
            expected = shape != "prefix" or (MAX_NESTING - 1) % 2 == 0
            assert holds == expected, shape

    def test_one_level_deeper_is_a_parse_diagnostic(self, tmp_path):
        for shape, axiom in _nested_axioms(MAX_NESTING + 1).items():
            unit, diagnostics = parse_unit(_datatype(axiom))
            assert unit is None, shape
            assert [d.code for d in diagnostics] == ["parse"], shape
            assert f"deeper than {MAX_NESTING}" in diagnostics[0].message
            path = tmp_path / f"{shape}.arch"
            path.write_text(_datatype(axiom), encoding="utf-8")
            assert main(["parse", str(path)]) == 3

    def test_a_closed_chain_gives_its_levels_back(self):
        # each of the 40 chains closes its operators' levels, so the line
        # stays within the limit
        axiom = " and ".join(["(x == x or x == x -> x == x U x == x)"] * 40)
        unit, diagnostics = parse_unit(_constraints(axiom))
        assert unit is not None and not diagnostics

    def test_temporal_chains_parse_at_the_limit_and_not_deeper(self):
        for op, axiom in _temporal_chains(MAX_NESTING).items():
            unit, diagnostics = parse_unit(_constraints(axiom))
            assert unit is not None and not diagnostics, op
        for op, axiom in _temporal_chains(MAX_NESTING + 1).items():
            unit, diagnostics = parse_unit(_constraints(axiom))
            assert unit is None, op
            assert [d.message for d in diagnostics] == [
                f"nested deeper than {MAX_NESTING} levels"
            ], op

    def test_far_too_deep_input_does_not_crash(self, tmp_path):
        path = tmp_path / "deep.arch"
        path.write_text(_datatype("(" * 400 + "x == x" + ")" * 400), encoding="utf-8")
        assert main(["parse", str(path)]) == 3
        deep_sort = "set(" * 400 + "S" + ")" * 400
        unit, diagnostics = parse_unit(f"datatype D\nsorts\n  S\nvars\n  x : {deep_sort}\n")
        assert unit is None and diagnostics


class TestOperatorTable:
    def test_the_grammar_document_states_the_operator_table(self):
        doc = Path(__file__).parent.parent / "docs" / "grammar.md"
        rows = re.findall(
            r"^\| (\d+) \| (.+) \| (\S+) \|$", doc.read_text(encoding="utf-8"), re.M
        )
        table = {
            int(level): (re.findall(r"`([^`]+)`", ops), assoc)
            for level, ops, assoc in rows
        }
        for level in range(1, PREFIX_LEVEL):
            ops = [op for op, at in BINARY_LEVEL.items() if at == level]
            assoc = "right" if set(ops) <= RIGHT_ASSOC else "left"
            assert table[level] == (ops, assoc), level
        assert table[PREFIX_LEVEL] == (list(PREFIX_OPERATORS), "-")


class TestSectionTable:
    def test_the_grammar_document_states_the_section_table(self):
        doc = Path(__file__).parent.parent / "docs" / "grammar.md"
        rows = re.findall(
            r"^\| (\w+) \| `([^`]+)` \| `(\w+)` \| (\w+) \|$",
            doc.read_text(encoding="utf-8"),
            re.M,
        )
        assert rows == [
            (kind, *section) for kind, sections in SECTIONS.items() for section in sections
        ]


class TestRoundTrip:
    @pytest.mark.parametrize("kind", UNIT_KINDS)
    def test_random_units_round_trip(self, kind):
        rng = random.Random(zlib.crc32(kind.encode()) & 0xFFFF)
        gen = RawGen(rng)
        for i in range(60):
            unit = gen.unit(kind)
            text = print_unit(unit)
            reparsed, diagnostics = parse_unit(text)
            assert reparsed is not None, (kind, i, text, diagnostics)
            assert reparsed == unit, (kind, i, text)

    def test_bundle_units_round_trip(self):
        for name, unit in bundle_units().items():
            text = print_unit(unit)
            reparsed, diagnostics = parse_unit(text)
            assert reparsed == unit, (name, text)

    def test_printed_bytes_are_pinned(self):
        # parsing ignores section order, so the round trips above would
        # still pass with a printer that reordered sections; this digest
        # would not
        digest = hashlib.sha256()
        for name, unit in sorted(bundle_units().items()):
            digest.update(print_unit(unit).encode())
        for kind in UNIT_KINDS:
            gen = RawGen(random.Random(f"print {kind}"))
            for _ in range(30):
                digest.update(print_unit(gen.unit(kind)).encode())
        assert digest.hexdigest() == PRINTED_DIGEST

    def test_diagnostics_are_deterministic(self):
        text = "constraints C\naxioms\n  and and\n  or or\n"
        first = parse_unit(text)[1]
        second = parse_unit(text)[1]
        assert first == second


class TestResolve:
    def test_blackboard_bundle_resolves_without_diagnostics(self):
        bundle, diagnostics = resolve(list(bundle_units().values()))
        assert bundle is not None
        assert diagnostics == []

    def test_behavior_unit_resolves_to_three_assertions(self):
        bundle, _ = resolve(list(bundle_units().values()))
        names = [c.name for c in bundle.constraints if c.unit == "BlackboardBehavior"]
        assert names == [
            "BlackboardBehavior.ax1",
            "BlackboardBehavior.ax2",
            "BlackboardBehavior.ax3",
        ]
        second = bundle.constraint_by_name("BlackboardBehavior.ax2")
        assert isinstance(second.gamma, Globally)
        assert isinstance(second.gamma.body, TraceImplies)
        assert isinstance(second.gamma.body.right, BoundedRigidForall)

    def test_undeclared_ks_repair_wraps_rigid_quantifier(self):
        # ks is not declared, but its port read names its interface
        text = (
            "constraints C\n"
            "imports BB, KS\n"
            "rigid vars\n"
            "  p : PROB\n"
            "axioms\n"
            "  G(p in ks.prob -> F(p in ks.ksip))\n"
        )
        unit, _ = parse_unit(text)
        bundle, diagnostics = resolve(list(bundle_units().values()) + [unit])
        assert [d.code for d in diagnostics] == ["undeclared-component-var"]
        assert diagnostics[0].severity == "warning"
        assert "'ks'" in diagnostics[0].message
        repaired = bundle.constraint_by_name("C.ax1")
        assert isinstance(repaired.gamma, RigidForallComp)
        assert repaired.gamma.var == "ks"
        assert repaired.gamma.interface == "KS"

    def test_missing_portspec_reports_unresolved_ports(self):
        from dataclasses import replace

        units = [
            replace(unit, imports=tuple(i for i in unit.imports if i != "Blackboard"))
            for name, unit in bundle_units().items()
            if name != "ports.arch"
        ]
        bundle, diagnostics = resolve(units)
        assert bundle is None
        port_errors = [d for d in diagnostics if "undeclared port" in d.message]
        # both interfaces lean on ports that no longer exist
        assert {d.unit for d in port_errors} >= {"BB", "KS"}

    def test_duplicate_sort_rejected(self):
        one, _ = parse_unit("datatype A\nsorts\n  PROB\n")
        two, _ = parse_unit("datatype B\nsorts\n  PROB\n")
        bundle, diagnostics = resolve([one, two])
        assert bundle is None
        assert any("duplicate sort" in d.message for d in diagnostics)

    def test_duplicate_unit_name_rejected(self):
        one, _ = parse_unit("datatype A\nsorts\n  P\n")
        two, _ = parse_unit("portspec A\n")
        bundle, diagnostics = resolve([one, two])
        assert bundle is None
        assert any("duplicate unit name" in d.message for d in diagnostics)

    def test_unknown_import_rejected(self):
        unit, _ = parse_unit("datatype A\nimports Ghost\nsorts\n  P\n")
        bundle, diagnostics = resolve([unit])
        assert bundle is None
        assert any("unknown unit" in d.message for d in diagnostics)

    def test_import_cycle_rejected(self):
        one, _ = parse_unit("datatype A\nimports B\nsorts\n  P\n")
        two, _ = parse_unit("datatype B\nimports A\nsorts\n  Q\n")
        bundle, diagnostics = resolve([one, two])
        assert bundle is None
        assert any("cyclic imports" in d.message for d in diagnostics)

    def test_an_import_chain_longer_than_the_recursion_limit(self):
        def unit(i, imported):
            return parse_unit(f"constraints C{i}\nimports C{imported}\naxioms\n  true\n")[0]

        units = [unit(i, i + 1) for i in range(2999)]
        last, _ = parse_unit("constraints C2999\naxioms\n  true\n")
        bundle, diagnostics = resolve(units + [last])
        assert bundle is not None and diagnostics == []
        bundle, diagnostics = resolve(units + [unit(2999, 0)])
        assert bundle is None
        chain = " -> ".join(f"C{i}" for i in (*range(3000), 0))
        assert [d.render() for d in diagnostics] == [
            f"C2999: error[resolve]: cyclic imports: {chain}"
        ]

    def test_set_import_is_builtin(self):
        unit, _ = parse_unit("datatype A\nimports SET\nsorts\n  P\n")
        bundle, diagnostics = resolve([unit])
        assert bundle is not None
        assert diagnostics == []

    def test_no_partial_resolution(self):
        good, _ = parse_unit("datatype A\nsorts\n  P\n")
        bad, _ = parse_unit("datatype B\nsorts\n  P\n")  # duplicate sort
        bundle, _ = resolve([good, bad])
        assert bundle is None

    def test_sort_error_has_position_context(self):
        unit, _ = parse_unit(
            "datatype A\nsorts\n  P, Q\nsymbols\n  f : P -> Q\nvars\n  x : Q\n"
            "axioms\n  f(x) == x\n"
        )
        bundle, diagnostics = resolve([unit])
        assert bundle is None
        assert any("expected sort" in d.message for d in diagnostics)

    def test_flexible_over_temporal_rejected(self):
        text = (
            "constraints C\n"
            "imports BB\n"
            "vars\n"
            "  b : BB\n"
            "axioms\n"
            "  forall b . F(active(b))\n"
        )
        unit, _ = parse_unit(text)
        units = [u for n, u in bundle_units().items() if n != "activation.arch"]
        bundle, diagnostics = resolve(units + [unit])
        assert bundle is None
        assert any("rigid" in d.message for d in diagnostics)

    def test_implicit_flexible_closure_warns(self):
        text = (
            "constraints C\n"
            "imports BB\n"
            "vars\n"
            "  x : PROB\n"
            "rigid vars\n"
            "  b : BB\n"
            "axioms\n"
            "  G(x in b.bbop)\n"
        )
        unit, _ = parse_unit(text)
        bundle, diagnostics = resolve(list(bundle_units().values()) + [unit])
        assert bundle is not None
        closures = [d for d in diagnostics if d.code == "implicit-closure"]
        assert len(closures) == 1
        gamma = bundle.constraint_by_name("C.ax1").gamma
        state = gamma.body
        assert isinstance(state, State)
        from archcheck.algebra import ExistsData

        assert isinstance(state.formula, ExistsData)


def _reresolved(gamma, rigid_data, rigid_comp):
    """``gamma`` lowered, printed, parsed and resolved again, with its rigid
    variables declared, next to the blackboard pack's declarations."""
    printed = print_expr(lower_formula(gamma))
    text = (
        "constraints Reprint\n"
        "imports BB, KS\n"
        "rigid vars\n"
        + "".join(f"  {n} : {s}\n" for n, s in sorted(rigid_data.items()))
        + "".join(f"  {n} : {i}\n" for n, i in sorted(rigid_comp.items()))
        + f"axioms\n  {printed}\n"
    )
    unit, diagnostics = parse_unit(text)
    assert unit is not None, (text, diagnostics)
    units = [
        u for u in bundle_units().values()
        if u.kind in ("datatype", "portspec", "interface")
    ]
    bundle, diagnostics = resolve(units + [unit])
    assert bundle is not None, (text, diagnostics)
    return bundle.constraint_by_name("Reprint.ax1").gamma


# One formula for each quantifier class and each connective class, state
# and trace, in the blackboard pack's vocabulary.
EVERY_CLASS = (
    "G(forall x : PROB . prec(x, x) -> prec(x, p))",
    "G(exists x : PROB . not prec(x, p))",
    "G(forall x in bb.bbop . prec(x, p) or prec(p, x))",
    "G(exists x in bb.bbop . prec(x, p) and prec(p, x))",
    "G(forall v : KS . active(v) <-> active(ks))",
    "G(exists v : KS . active(v))",
    "forall x : PROB . G(prec(x, x))",
    "exists x : PROB . F(x in bb.bbop)",
    "forall v : KS . G(active(v))",
    "exists v : KS . X(active(v))",
    "G(forall x in bb.bbop . F(x in ks.ksip))",
    "exists x in bb.bbop . G(x in ks.ksip)",
    "not G(active(ks))",
    "G(active(ks)) and F(active(bb)) and X(active(ks))",
    "G(active(ks)) or F(active(bb))",
    "G(active(ks)) -> F(active(bb))",
    "G(active(ks)) <-> F(active(bb))",
    "active(ks) U active(bb)",
    "active(ks) W (active(bb) U active(ks))",
)


class TestLowering:
    def test_lowering_inverts_resolution(self):
        # print(lower(resolve(x))) resolves back to the same semantic tree
        bundle, _ = resolve(list(bundle_units().values()))
        for item in bundle.constraints:
            regamma = _reresolved(item.gamma, item.rigid_data, item.rigid_comp)
            assert regamma == item.gamma, item.name

    def test_lowering_inverts_the_desugared_diagram(self):
        bundle, _ = resolve(list(bundle_units().values()))
        triples = diagram_assertions(bundle)
        assert [name for name, _, _ in triples] == [
            "BlackboardDiagram.minmax",
            "BlackboardDiagram.rigid",
            "BlackboardDiagram.connections",
        ]
        for name, gamma, rigid_comp in triples:
            assert _reresolved(gamma, {}, rigid_comp) == gamma, name

    def test_lowering_inverts_every_quantifier_and_connective(self):
        units = [
            u for u in bundle_units().values()
            if u.kind in ("datatype", "portspec", "interface")
        ]
        text = (
            "constraints Every\nimports BB, KS\nrigid vars\n"
            "  bb : BB\n  ks : KS\n  p : PROB\naxioms\n"
            + "".join(f"  {formula}\n" for formula in EVERY_CLASS)
        )
        bundle, diagnostics = resolve([*units, parse_unit(text)[0]])
        assert bundle is not None, diagnostics
        seen = set()
        for item in bundle.constraints:
            seen |= _classes(item.gamma)
            regamma = _reresolved(item.gamma, item.rigid_data, item.rigid_comp)
            assert regamma == item.gamma, item.text
        assert seen >= {
            ALG.ForallData, ALG.ExistsData, ALG.BoundedForall, ALG.BoundedExists,
            CON.ForallComp, CON.ExistsComp, CON.RigidForallData,
            CON.RigidExistsData, CON.RigidForallComp, CON.RigidExistsComp,
            CON.BoundedRigidForall, CON.BoundedRigidExists,
            ALG.Not, ALG.And, ALG.Or, ALG.Implies, ALG.Iff,
            CON.TraceNot, CON.TraceAnd, CON.TraceOr, CON.TraceImplies,
            CON.TraceIff, CON.Next, CON.Eventually, CON.Globally, CON.Until,
            CON.WeakUntil,
        }


def _classes(node):
    found = {type(node)}
    for child in ALG.children(node):
        found |= _classes(child)
    return found
