import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import archcheck

from archcheck.blackboard import algebra_unit, simulate_blackboard, trace_unit
from archcheck.checker import blackboard_bundle, run_check
from archcheck.cli import main
from archcheck.constraints import CLOSED, Truth
from archcheck.parser import parse_unit, print_unit

from test_blackboard import paper_scenario


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Bundle files plus a generated algebra and trace on disk."""
    root = tmp_path_factory.mktemp("bundle")
    for name, text in _sources().items():
        (root / name).write_text(text, encoding="utf-8")
    result = simulate_blackboard(paper_scenario(horizon=30))
    (root / "model.arch").write_text(
        print_unit(algebra_unit(result.scenario)), encoding="utf-8"
    )
    (root / "run.arch").write_text(
        print_unit(trace_unit(result, name="Run")), encoding="utf-8"
    )
    return root


def _sources():
    from archcheck.blackboard import load_blackboard_sources

    return load_blackboard_sources()


def _spec_files(root: Path):
    return sorted(
        str(p)
        for p in root.glob("*.arch")
        if p.name not in ("model.arch", "run.arch")
    )


class TestCliCheck:
    def test_satisfied_trace_exits_zero(self, workdir, capsys):
        code = main(
            [
                "check",
                *_spec_files(workdir),
                "--algebra",
                str(workdir / "model.arch"),
                "--trace",
                str(workdir / "run.arch"),
                "--mode",
                "closed",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: Satisfied" in out

    def test_open_mode_is_inconclusive_and_exits_two(self, workdir, capsys):
        code = main(
            [
                "check",
                *_spec_files(workdir),
                "--algebra",
                str(workdir / "model.arch"),
                "--trace",
                str(workdir / "run.arch"),
                "--mode",
                "open",
            ]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "overall: Inconclusive" in out

    def test_forbidden_connection_violates_connection_axiom(
        self, workdir, capsys, tmp_path
    ):
        # rewire one step: the source's input port taps the solved-pairs port
        text = (workdir / "run.arch").read_text(encoding="utf-8")
        corrupted = text.replace(
            "connect ks1.ksip <- bb.bbop", "connect ks1.ksip <- bb.bbos", 1
        )
        assert corrupted != text
        bad = tmp_path / "bad.arch"
        bad.write_text(corrupted.replace("trace Run", "trace Bad"), encoding="utf-8")
        code = main(
            [
                "check",
                *_spec_files(workdir),
                "--algebra",
                str(workdir / "model.arch"),
                "--trace",
                str(bad),
                "--mode",
                "closed",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        payload = json.loads(out)
        assert payload["overall"] == "Violated"
        violated = {
            a["name"] for a in payload["assertions"] if a["verdict"] == "Violated"
        }
        # the negative connection constraint names the forbidden wiring
        assert "BlackboardConnection.ax2" in violated

    def test_cyclic_relation_fails_phase_one(self, workdir, capsys, tmp_path):
        text = (workdir / "model.arch").read_text(encoding="utf-8")
        cyclic = text.replace("predicates\n", "predicates\n  prec(pA, pB)\n", 1)
        bad = tmp_path / "cyclic.arch"
        bad.write_text(cyclic, encoding="utf-8")
        code = main(
            [
                "check",
                *_spec_files(workdir),
                "--algebra",
                str(bad),
                "--trace",
                str(workdir / "run.arch"),
                "--mode",
                "closed",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "ProbSol.ax1" in out  # the well-foundedness axiom

    def test_a_chain_longer_than_the_recursion_limit(self, capsys, tmp_path):
        # the well-foundedness check once overflowed Python's stack on this
        # chain and exited 4 with an internal error
        names = [f"p{i}" for i in range(5000)]
        (tmp_path / "d.arch").write_text(
            "datatype D\nsorts\n  PROB\nsymbols\n  prec : PROB * PROB\n"
            "axioms\n  well-founded(prec)\n",
            encoding="utf-8",
        )
        (tmp_path / "t.arch").write_text("trace T\nstep\n", encoding="utf-8")
        model = tmp_path / "m.arch"
        args = ["check", str(tmp_path / "d.arch"), "--algebra", str(model),
                "--trace", str(tmp_path / "t.arch")]
        for closed, verdict in ((False, "  ok"), (True, "  Violated       D.ax1")):
            rows = list(zip(names, names[1:] + names[:1] * closed))
            model.write_text(
                f"algebra M\nimports D\ncarriers\n  PROB = {{ {', '.join(names)} }}\n"
                "predicates\n" + "".join(f"  prec({a}, {b})\n" for a, b in rows),
                encoding="utf-8",
            )
            assert main(args) == closed
            assert f"phase 1: datatype axioms\n{verdict}\n" in capsys.readouterr().out

    def test_parse_error_exits_three(self, workdir, capsys, tmp_path):
        bad = tmp_path / "junk.arch"
        bad.write_text("datatype ???\n", encoding="utf-8")
        code = main(
            [
                "check",
                str(bad),
                "--algebra",
                str(workdir / "model.arch"),
                "--trace",
                str(workdir / "run.arch"),
            ]
        )
        assert code == 3

    def test_report_is_deterministic(self, workdir, capsys):
        args = [
            "check",
            *_spec_files(workdir),
            "--algebra",
            str(workdir / "model.arch"),
            "--trace",
            str(workdir / "run.arch"),
            "--mode",
            "closed",
            "--json",
        ]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_exit_code_matches_report(self, workdir):
        bundle = blackboard_bundle()
        result = simulate_blackboard(paper_scenario(horizon=30))
        from archcheck.parser.resolver import TraceData

        report = run_check(
            bundle,
            algebra=result.algebra,
            trace=TraceData("t", result.trace, result.interpretation),
            mode=CLOSED,
        )
        mapping = {Truth.SATISFIED: 0, Truth.VIOLATED: 1, Truth.INCONCLUSIVE: 2}
        assert report.exit_code == mapping[report.overall]


_RULED_OUT = [
    f"(forall v : {j} . forall w : {k} . active(v) and active(w)"
    f" -> not conn(v.{p} <- w.{q}))"
    for j, p, k, q in [
        ("BB", "bbip", "BB", "bbop"), ("BB", "bbip", "BB", "bbos"),
        ("BB", "bbip", "KS", "ksos"), ("BB", "bbis", "BB", "bbop"),
        ("BB", "bbis", "BB", "bbos"), ("BB", "bbis", "KS", "ksop"),
        ("KS", "ksip", "BB", "bbos"), ("KS", "ksip", "KS", "ksop"),
        ("KS", "ksip", "KS", "ksos"), ("KS", "ksis", "BB", "bbop"),
        ("KS", "ksis", "KS", "ksop"), ("KS", "ksis", "KS", "ksos"),
    ]
]
PACK_DESUGARED = (
    "constraints BlackboardDiagramConstraints\n"
    "imports BB, KS\n"
    "rigid vars\n"
    "  bb : BB\n"
    "axioms\n"
    "  G minmax(BB, 1, 1)\n"
    "  G (forall v : BB . v == bb)\n"
    "  G ("
    + " and ".join([
        "irconn(BB.bbip <- KS.ksop)", "irconn(BB.bbis <- KS.ksos)",
        "irconn(KS.ksip <- BB.bbop)", "irconn(KS.ksis <- BB.bbos)",
        *_RULED_OUT,
    ])
    + ")\n"
)


class TestCliDesugar:
    def test_the_shipped_pack_desugars_byte_for_byte(self, capsys):
        pack = Path(archcheck.__file__).parent / "blackboardpack"
        code = main(["desugar", *sorted(str(p) for p in pack.glob("*.arch"))])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert captured.out == PACK_DESUGARED

    def test_a_repeated_rigid_variable_desugars_once(self, tmp_path, capsys):
        pack = Path(archcheck.__file__).parent / "blackboardpack"
        paths = []
        for source in sorted(pack.glob("*.arch")):
            text = source.read_text(encoding="utf-8")
            if source.name == "diagram.arch":
                assert "\nrigid BB : bb\n" in text
                text = text.replace("\nrigid BB : bb\n", "\nrigid BB : bb, bb\n")
            (tmp_path / source.name).write_text(text, encoding="utf-8")
            paths.append(str(tmp_path / source.name))
        code = main(["desugar", *paths])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert captured.out == PACK_DESUGARED
        desugared = tmp_path / "desugared.arch"
        desugared.write_text(captured.out, encoding="utf-8")
        pack_paths = sorted(str(p) for p in pack.glob("*.arch"))
        assert main(["parse", *pack_paths, str(desugared)]) == 0

    def test_blackboard_diagram_desugars_and_reparses(self, workdir, capsys):
        code = main(
            [
                "desugar",
                str(workdir / "diagram.arch"),
                str(workdir / "ports.arch"),
                str(workdir / "probsol.arch"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "minmax(BB, 1, 1)" in out
        assert "irconn(KS.ksip <- BB.bbop)" in out
        assert "not conn(" in out
        unit, diagnostics = parse_unit(out)
        assert unit is not None, diagnostics
        assert len(unit.body.axioms) == 3

    def test_diagram_without_annotations_prints_empty_unit(self, capsys, tmp_path):
        plain = tmp_path / "plain.arch"
        plain.write_text(
            "diagram Plain\n"
            "ports\n"
            "  a : T\n"
            "  b : T\n"
            "interface One\n"
            "  inputs a\n"
            "interface Two\n"
            "  outputs b\n",
            encoding="utf-8",
        )
        sorts = tmp_path / "t.arch"
        sorts.write_text("datatype T0\nsorts\n  T\n", encoding="utf-8")
        code = main(["desugar", str(plain), str(sorts)])
        out = capsys.readouterr().out
        assert code == 0
        assert "axioms" not in out

    def test_unknown_connection_port_is_resolution_error(self, capsys, tmp_path):
        diagram = tmp_path / "d.arch"
        diagram.write_text(
            "diagram D\n"
            "ports\n"
            "  a : T\n"
            "interface One\n"
            "  inputs a\n"
            "connect One.zz <- One.a\n",
            encoding="utf-8",
        )
        sorts = tmp_path / "t.arch"
        sorts.write_text("datatype T0\nsorts\n  T\n", encoding="utf-8")
        code = main(["desugar", str(diagram), str(sorts)])
        capsys.readouterr()
        assert code == 3


class TestCliMisc:
    def test_parse_command(self, workdir, capsys):
        code = main(["parse", *_spec_files(workdir)])
        out = capsys.readouterr()
        assert code == 0
        assert "ok:" in out.out

    def test_simulate_writes_files(self, tmp_path, capsys):
        out_trace = tmp_path / "t.arch"
        out_alg = tmp_path / "a.arch"
        code = main(
            [
                "simulate-blackboard",
                "--problems",
                "pA,pB",
                "--sub",
                "pB<pA",
                "--source",
                "ks1=pA,pB",
                "--root",
                "pA",
                "--horizon",
                "20",
                "--seed",
                "3",
                "--out",
                str(out_trace),
                "--algebra-out",
                str(out_alg),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert parse_unit(out_trace.read_text(encoding="utf-8"))[0] is not None
        assert parse_unit(out_alg.read_text(encoding="utf-8"))[0] is not None

    def test_simulate_warns_on_truncation(self, tmp_path, capsys):
        code = main(
            [
                "simulate-blackboard",
                "--problems",
                "pA,pB",
                "--sub",
                "pB<pA",
                "--source",
                "ks1=pA,pB",
                "--root",
                "pA",
                "--horizon",
                "1",
                "--seed",
                "3",
                "--out",
                str(tmp_path / "t.arch"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 0
        assert "horizon too small" in err

    def test_verify_theorem_command(self, capsys):
        code = main(["verify-theorem", "--trials", "3", "--seed", "11", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert len(payload["trials"]) == 3

    def test_verify_theorem_rejects_zero_trials(self, capsys):
        code = main(["verify-theorem", "--trials", "0"])
        err = capsys.readouterr().err
        assert code == 3
        assert "trials" in err

    @pytest.mark.parametrize("mutation", [[], ["--mutate", "drop-forwarding"]])
    def test_verify_theorem_json_is_the_same_in_every_process(self, mutation):
        # neither the order of guard candidates nor that of any report may
        # follow string hashing
        argv = ["verify-theorem", "--trials", "3", "--json", *mutation]
        src = str(Path(archcheck.__file__).parent.parent)
        outcomes = set()
        for seed in ("0", "1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            done = subprocess.run(
                [sys.executable, "-m", "archcheck.cli", *argv],
                env=env, capture_output=True, timeout=120,
            )
            outcomes.add((done.returncode, done.stdout))
        assert len(outcomes) == 1
        code, stdout = outcomes.pop()
        payload = json.loads(stdout)
        assert len(payload["trials"]) == 3
        assert code == (0 if payload["ok"] else 1)
        assert payload["ok"] is not bool(mutation)


_CHECK_FILES = ["s.arch", "--algebra", "m.arch", "--trace", "r.arch"]
_DEEP = "datatype D\nsorts\n  S\nvars\n  x : S\naxioms\n  {axiom}\n"


class TestCliExitContract:
    def test_parse_diagnostic_names_file_line_and_column(self, capsys, tmp_path):
        bad = tmp_path / "deep.arch"
        axiom = "(" * 80 + "x == x" + ")" * 80  # nested past the grammar's limit
        bad.write_text(_DEEP.format(axiom=axiom), encoding="utf-8")
        assert main(["parse", str(bad)]) == 3
        err = capsys.readouterr().err
        assert ": :" not in err
        assert re.match(rf"{re.escape(str(bad))}:\d+:\d+: error\[parse\]: ", err), err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--mode", "bogus", *_CHECK_FILES],
            ["check", "--max-assignments", "0", *_CHECK_FILES],
            ["check", "--max-assignments", "-5", *_CHECK_FILES],
            ["check", "--max-assignments", "abc", *_CHECK_FILES],
            ["check", *_CHECK_FILES[:-2]],
            ["nosuch"],
            [],
            ["verify-theorem", "--max-problems", "0"],
            ["parse", "no-such-file.arch"],
            ["simulate-blackboard", "--problems", "p", "--root", "p", "--source", "k=p",
             "--out", "no-such-dir/run.arch"],
        ],
    )
    def test_usage_error_exits_three_with_one_error_line(self, argv, capsys):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1, captured.err

    @pytest.mark.parametrize("role", ["parse", "spec", "algebra", "trace"])
    def test_file_that_is_not_utf8_exits_three(self, role, workdir, capsys, tmp_path):
        bad = tmp_path / "latin1.arch"
        bad.write_bytes("datatype Caf\u00e9\n".encode("latin-1"))
        files = {"spec": _spec_files(workdir), "algebra": str(workdir / "model.arch"),
                 "trace": str(workdir / "run.arch")}
        if role == "parse":
            argv = ["parse", str(bad)]
        else:
            files[role] = [str(bad)] if role == "spec" else str(bad)
            argv = ["check", *files["spec"], "--algebra", files["algebra"],
                    "--trace", files["trace"]]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == (
            f"error: {bad}: 'utf-8' codec can't decode byte 0xe9 in position 12:"
            " invalid continuation byte\n"
        )

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["check", "--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: archcheck check")

    def test_internal_error_exits_four_without_traceback(self, monkeypatch, capsys):
        import archcheck.cli as cli

        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_parse", broken)
        assert main(["parse", "any.arch"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal error: RuntimeError: boom")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestCliParserPerProcess:
    """``build_parser`` runs once per process; ``main`` calls read nothing
    that an earlier call left in it."""

    def test_many_calls_build_the_parser_once(self, workdir, monkeypatch, capsys):
        import archcheck.cli as cli

        built = []
        real = cli._ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs["prog"])
            real(self, *args, **kwargs)

        monkeypatch.setattr(cli._ArgumentParser, "__init__", counting)
        cli.build_parser.cache_clear()
        try:
            codes = [
                main(["parse", *_spec_files(workdir)]),
                main(["verify-theorem", "--trials", "0"]),
                main(["check", "--mode", "bogus", *_CHECK_FILES]),
                main(["desugar", str(workdir / "run.arch")]),
                main(["parse", *_spec_files(workdir)]),
            ]
        finally:
            cli.build_parser.cache_clear()
        capsys.readouterr()
        assert codes == [0, 3, 3, 3, 0]
        assert built == ["archcheck"] + [
            f"archcheck {command}" for command in
            ("parse", "check", "desugar", "simulate-blackboard", "verify-theorem")
        ]

    def test_simulations_in_one_process_print_what_fresh_processes_print(self, capsys):
        # ``--sub`` and ``--source`` append to a default list, which an
        # earlier call must not have grown
        runs = [
            ["--problems", "pA,pB", "--sub", "pB<pA", "--source", "ks1=pA,pB"],
            ["--problems", "pA,pC", "--sub", "pC<pA", "--source", "ks2=pA,pC", "--seed", "4"],
            ["--problems", "pA", "--source", "ks3=pA"],
        ]
        runs = [["simulate-blackboard", *argv, "--root", "pA", "--horizon", "12"] for argv in runs]
        in_process = []
        for argv in runs:
            code = main(argv)
            out, err = capsys.readouterr()
            in_process.append((code, out, err))
        src = str(Path(archcheck.__file__).parent.parent)
        fresh = [
            subprocess.run(
                [sys.executable, "-m", "archcheck.cli", *argv],
                env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                timeout=60,
            )
            for argv in runs
        ]
        assert in_process == [(done.returncode, done.stdout, done.stderr) for done in fresh]
        assert len({out for _, out, _ in in_process}) == len(runs)
