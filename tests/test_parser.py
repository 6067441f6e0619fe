import random
import zlib

import pytest

from archcheck.algebra import models_spec
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
from archcheck.parser.syntax import UNIT_KINDS

from blackboard_sources import bundle_units, source_text
from rawgen import RawGen


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
    """Datatype axioms whose formulas nest exactly ``levels`` deep."""
    atom = "x == x"
    return {
        "parentheses": "(" * (levels - 1) + atom + ")" * (levels - 1),
        "prefix": "not " * (levels - 1) + atom,
        "conjunction": " and ".join([atom] * levels),
    }


def _datatype(axiom):
    return f"datatype D\nsorts\n  S\nvars\n  x : S\naxioms\n  {axiom}\n"


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

    def test_far_too_deep_input_does_not_crash(self, tmp_path):
        path = tmp_path / "deep.arch"
        path.write_text(_datatype("(" * 400 + "x == x" + ")" * 400), encoding="utf-8")
        assert main(["parse", str(path)]) == 3
        deep_sort = "set(" * 400 + "S" + ")" * 400
        unit, diagnostics = parse_unit(f"datatype D\nsorts\n  S\nvars\n  x : {deep_sort}\n")
        assert unit is None and diagnostics


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

    def test_diagnostics_are_deterministic(self):
        text = "constraints C\naxioms\n  and and\n  or or\n"
        first = parse_unit(text)[1]
        second = parse_unit(text)[1]
        assert first == second


class TestResolve:
    def test_blackboard_bundle_resolves_with_one_warning(self):
        bundle, diagnostics = resolve(list(bundle_units().values()))
        assert bundle is not None
        errors = [d for d in diagnostics if d.severity == "error"]
        warnings = [d for d in diagnostics if d.severity == "warning"]
        assert errors == []
        assert len(warnings) == 1
        assert warnings[0].code == "undeclared-component-var"
        assert "'ks'" in warnings[0].message

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
        bundle, _ = resolve(list(bundle_units().values()))
        repaired = bundle.constraint_by_name("BlackboardActivation.ax2")
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


class TestLowering:
    def test_lowering_inverts_resolution(self):
        # print(lower(resolve(x))) resolves back to the same semantic tree
        bundle, _ = resolve(list(bundle_units().values()))
        source = dict(bundle_units())
        for item in bundle.constraints:
            lowered = lower_formula(item.gamma)
            printed = print_expr(lowered)
            text = (
                "constraints Reprint\n"
                "imports BB, KS\n"
                "rigid vars\n"
                + "".join(
                    f"  {n} : {s}\n" for n, s in sorted(item.rigid_data.items())
                )
                + "".join(
                    f"  {n} : {i}\n" for n, i in sorted(item.rigid_comp.items())
                )
                + f"axioms\n  {printed}\n"
            )
            unit, diagnostics = parse_unit(text)
            assert unit is not None, (item.name, text, diagnostics)
            units = [
                u
                for nm, u in source.items()
                if u.kind in ("datatype", "portspec", "interface")
            ]
            re_bundle, rediags = resolve(units + [unit])
            assert re_bundle is not None, (item.name, text, rediags)
            regamma = re_bundle.constraint_by_name("Reprint.ax1").gamma
            assert regamma == item.gamma, (item.name, printed)
