"""Command-line front door.

Subcommands: ``check``, ``desugar``, ``simulate-blackboard``,
``verify-theorem``, and ``parse``.  Exit codes for ``check``: 0 satisfied,
1 violated, 2 inconclusive, 3 usage or parse errors.  Every subcommand
exits 3 on a usage error, such as a bad flag, an input file that is not
UTF-8 text or an output file that cannot be written, with one ``error:``
line, and 4 on an internal error, a fault of archcheck itself: it prints
one ``internal error:`` line and no traceback.  ``main`` returns the exit
code; only ``--help`` exits through ``SystemExit``.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
import traceback
from pathlib import Path

from .blackboard import (
    BlackboardScenario,
    MUTATIONS,
    algebra_unit,
    simulate_blackboard,
    trace_unit,
)
from .checker import run_check, verify_theorem
from .constraints import DEFAULT_ASSIGNMENT_BOUND, OPEN
from .diagrams import desugar_diagram, rigid_declarations
from .errors import ArchError, UsageError
from .parser import parse_unit, print_unit, resolve
from .parser.lowering import lower_formula
from .parser.syntax import (
    AxiomDecl,
    ConstraintsBody,
    RName,
    SourceUnit,
    VarDecl,
)

EXIT_SATISFIED = 0
EXIT_VIOLATED = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3
EXIT_INTERNAL = 4


def _load_units(paths, out_diags):
    units = []
    ok = True
    for path in paths:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"{path}: {exc}") from None
        unit, diagnostics = parse_unit(text)
        for diag in diagnostics:
            # parse diagnostics carry no unit name: the file stands in for it
            out_diags.append(dataclasses.replace(diag, unit=str(path)).render())
        if unit is None:
            ok = False
        else:
            units.append(unit)
    return units, ok


def _resolve_or_fail(paths):
    messages: list[str] = []
    units, ok = _load_units(paths, messages)
    if not ok:
        raise UsageError("\n".join(messages) or "parse failed")
    bundle, diagnostics = resolve(units)
    for diag in diagnostics:
        messages.append(diag.render())
    if bundle is None:
        raise UsageError("\n".join(messages) or "resolution failed")
    for message in messages:
        print(message, file=sys.stderr)
    return bundle


def cmd_parse(args) -> int:
    messages: list[str] = []
    units, ok = _load_units(args.files, messages)
    if ok:
        bundle, diagnostics = resolve(units)
        messages.extend(d.render() for d in diagnostics)
        ok = bundle is not None
    for message in messages:
        print(message, file=sys.stderr)
    if ok:
        print(f"ok: {len(units)} unit(s)")
        return EXIT_SATISFIED
    return EXIT_ERROR


def cmd_check(args) -> int:
    if args.max_assignments < 1:
        raise UsageError("--max-assignments must be at least 1")
    paths = []
    seen = set()
    for path in [*args.spec, args.algebra, args.trace]:
        key = Path(path).resolve()
        if key not in seen:
            seen.add(key)
            paths.append(path)
    bundle = _resolve_or_fail(paths)
    report = run_check(
        bundle,
        mode=args.mode,
        max_assignments=args.max_assignments,
    )
    print(report.to_json() if args.json else report.render())
    return report.exit_code


def cmd_desugar(args) -> int:
    bundle = _resolve_or_fail(list(args.files))
    if not bundle.diagrams:
        raise UsageError("no diagram unit among the inputs")
    lines = []
    for unit_name, diagram in bundle.diagrams:
        _, assertions = desugar_diagram(diagram)
        unit = SourceUnit(
            kind="constraints",
            name=f"{unit_name}Constraints",
            imports=tuple(sorted(diagram.spec.interfaces)),
            body=ConstraintsBody(
                vars=(),
                rigid_vars=tuple(
                    VarDecl((var,), RName(iface))
                    for var, iface in rigid_declarations(diagram)
                ),
                axioms=tuple(
                    AxiomDecl(lower_formula(gamma)) for gamma in assertions
                ),
            ),
        )
        lines.append(print_unit(unit))
    print("\n".join(lines), end="")
    return EXIT_SATISFIED


def _parse_csv(text):
    return tuple(part.strip() for part in text.split(",") if part.strip())


def cmd_simulate(args) -> int:
    problems = _parse_csv(args.problems)
    subproblems: dict = {p: set() for p in problems}
    for entry in args.sub or ():
        try:
            sub, parent = entry.split("<", 1)
        except ValueError:
            raise UsageError(f"--sub expects q<p, got {entry!r}") from None
        subproblems.setdefault(parent.strip(), set()).add(sub.strip())
    sources = {}
    for entry in args.source or ():
        try:
            name, probs = entry.split("=", 1)
        except ValueError:
            raise UsageError(f"--source expects ks=p1,p2, got {entry!r}") from None
        sources[name.strip()] = set(_parse_csv(probs))
    solutions = {p: f"s_{p}" for p in problems}
    scenario = BlackboardScenario(
        problems=problems,
        subproblems={k: frozenset(v) for k, v in subproblems.items()},
        solutions=solutions,
        sources={k: frozenset(v) for k, v in sources.items()},
        root=args.root,
        horizon=args.horizon,
        seed=args.seed,
    )
    result = simulate_blackboard(scenario, mutation=args.mutate)
    if result.truncated:
        print(
            "warning: horizon too small, the root problem was not solved",
            file=sys.stderr,
        )
    trace_text = print_unit(trace_unit(result, name=args.name))
    if args.out:
        _write(args.out, trace_text)
    else:
        print(trace_text, end="")
    if args.algebra_out:
        _write(args.algebra_out, print_unit(algebra_unit(scenario)))
    return EXIT_SATISFIED


def _write(path, text):
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"{path}: {exc}") from None


def cmd_verify_theorem(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    report = verify_theorem(
        trials=args.trials,
        seed=args.seed,
        horizon=args.horizon,
        max_problems=args.max_problems,
        max_depth=args.max_depth,
        max_sources=args.max_sources,
        mutation=args.mutate,
    )
    print(report.to_json() if args.json else report.render())
    return EXIT_SATISFIED if report.ok else EXIT_VIOLATED


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a usage error, not by exiting 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="archcheck",
        description="Constraint checking for dynamic software architectures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="parse and resolve units")
    p_parse.add_argument("files", nargs="+")
    p_parse.set_defaults(func=cmd_parse)

    p_check = sub.add_parser("check", help="check a trace against a bundle")
    p_check.add_argument("spec", nargs="+", help="specification unit files")
    p_check.add_argument("--algebra", required=True, help="algebra unit file")
    p_check.add_argument("--trace", required=True, help="trace unit file")
    p_check.add_argument("--mode", choices=("open", "closed"), default=OPEN)
    p_check.add_argument("--json", action="store_true")
    p_check.add_argument(
        "--max-assignments", type=int, default=DEFAULT_ASSIGNMENT_BOUND,
        help="bound on the rigid-assignment enumeration",
    )
    p_check.set_defaults(func=cmd_check)

    p_desugar = sub.add_parser(
        "desugar", help="print diagram annotations as constraint units"
    )
    p_desugar.add_argument("files", nargs="+", help="diagram plus its imports")
    p_desugar.set_defaults(func=cmd_desugar)

    p_sim = sub.add_parser(
        "simulate-blackboard", help="generate a blackboard-pattern trace"
    )
    p_sim.add_argument("--problems", required=True, help="comma-separated names")
    p_sim.add_argument(
        "--sub", action="append", default=[],
        help="direct subproblem edge q<p (repeatable)",
    )
    p_sim.add_argument(
        "--source", action="append", default=[],
        help="knowledge source ks=p1,p2 (repeatable)",
    )
    p_sim.add_argument("--root", required=True)
    p_sim.add_argument("--horizon", type=int, default=50)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--name", default="Run")
    p_sim.add_argument("--out", help="write the trace unit to this file")
    p_sim.add_argument("--algebra-out", help="write the algebra unit to this file")
    p_sim.add_argument("--mutate", choices=MUTATIONS)
    p_sim.set_defaults(func=cmd_simulate)

    p_thm = sub.add_parser(
        "verify-theorem",
        help="bounded empirical validation of the blackboard guarantee",
    )
    p_thm.add_argument("--trials", type=int, default=100)
    p_thm.add_argument("--seed", type=int, default=0)
    p_thm.add_argument("--horizon", type=int, default=50)
    p_thm.add_argument("--max-problems", type=int, default=6)
    p_thm.add_argument("--max-depth", type=int, default=3)
    p_thm.add_argument("--max-sources", type=int, default=3)
    p_thm.add_argument("--mutate", choices=MUTATIONS)
    p_thm.add_argument("--json", action="store_true")
    p_thm.set_defaults(func=cmd_verify_theorem)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ArchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # noqa: BLE001 - the boundary of the process
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(
            f"internal error: {type(exc).__name__}: {exc}"
            f" (at {Path(where.filename).name}:{where.lineno})",
            file=sys.stderr,
        )
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
