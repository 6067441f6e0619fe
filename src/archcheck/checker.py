"""Conformance checking of recorded traces against a resolved bundle.

The published semantics derives the set of traces satisfying a constraint
specification; this checker runs the inverse direction and verifies
membership of a given finite trace: first the algebra must model the
datatype axioms, then the trace's declared components must satisfy the
interface assertions, and finally every trace assertion (including the
desugared diagram annotations) is evaluated in the chosen finite-trace mode.
"""
from __future__ import annotations

import json
import random
from typing import Optional

from ._record import record
from .algebra import Algebra, models_spec
from .blackboard import (
    SimulationResult,
    load_blackboard_sources,
    random_scenario,
    simulate_blackboard,
)
from .constraints import (
    CLOSED,
    DEFAULT_ASSIGNMENT_BOUND,
    OPEN,
    AssertionPlan,
    Truth,
    Verdict,
    check_trace_assertion,
)
from .diagrams import annotation_labels, desugar_diagram, rigid_declarations
from .errors import UsageError
from .interfaces import check_spec_interpretation
from .model import ValidationReport, check_trace
from .parser import parse_unit, resolve
from .parser.resolver import ResolvedBundle, TraceData


@record
class AssertionResult:
    name: str
    verdict: Verdict
    text: str = ""

    def render(self) -> str:
        suffix = f"  # {self.text}" if self.text else ""
        return f"{self.verdict!s:<14} {self.name}{suffix}"


@record
class CheckReport:
    """Per-phase results plus the combined outcome."""

    datatype_failures: tuple[str, ...]
    interpretation: ValidationReport
    trace_validity: ValidationReport
    assertions: tuple[AssertionResult, ...]
    mode: str

    @property
    def overall(self) -> Truth:
        if (
            self.datatype_failures
            or not self.interpretation.ok
            or not self.trace_validity.ok
            or any(a.verdict.truth is Truth.VIOLATED for a in self.assertions)
        ):
            return Truth.VIOLATED
        if any(a.verdict.truth is Truth.INCONCLUSIVE for a in self.assertions):
            return Truth.INCONCLUSIVE
        return Truth.SATISFIED

    @property
    def exit_code(self) -> int:
        return {
            Truth.SATISFIED: 0,
            Truth.VIOLATED: 1,
            Truth.INCONCLUSIVE: 2,
        }[self.overall]

    def render(self) -> str:
        lines = [f"mode: {self.mode}"]
        lines.append("phase 1: datatype axioms")
        if self.datatype_failures:
            for name in self.datatype_failures:
                lines.append(f"  Violated       {name}")
        else:
            lines.append("  ok")
        lines.append("phase 2: interface interpretations")
        if self.interpretation.ok:
            lines.append("  ok")
        else:
            for violation in self.interpretation.violations:
                lines.append(f"  {violation.render()}")
        for note in self.interpretation.notes:
            lines.append(f"  note: {note}")
        lines.append("phase 3: trace assertions")
        if not self.trace_validity.ok:
            for violation in self.trace_validity.violations:
                lines.append(f"  {violation.render()}")
        for result in self.assertions:
            lines.append(f"  {result.render()}")
        lines.append(f"overall: {self.overall}")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "mode": self.mode,
            "overall": str(self.overall),
            "datatype_failures": list(self.datatype_failures),
            "interpretation": {
                "ok": self.interpretation.ok,
                "violations": [v.render() for v in self.interpretation.violations],
                "notes": list(self.interpretation.notes),
            },
            "trace": {
                "ok": self.trace_validity.ok,
                "violations": [v.render() for v in self.trace_validity.violations],
            },
            "assertions": [
                {
                    "name": a.name,
                    "verdict": str(a.verdict.truth),
                    "witness": a.verdict.witness,
                    "explanation": a.verdict.explanation,
                }
                for a in self.assertions
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def diagram_assertions(bundle: ResolvedBundle) -> tuple:
    """Desugared diagram annotations with their rigid variable declarations,
    as ``(name, gamma, rigid_comp)``; made once per bundle and kept on it."""
    if bundle.diagram_assertions is None:
        bundle.diagram_assertions = tuple(_desugar_diagrams(bundle))
    return bundle.diagram_assertions


def _desugar_diagrams(bundle: ResolvedBundle):
    out = []
    for unit_name, diagram in bundle.diagrams:
        _, assertions = desugar_diagram(diagram)
        rigid_comp = dict(rigid_declarations(diagram))
        for label, gamma in zip(annotation_labels(diagram), assertions):
            out.append((f"{unit_name}.{label}", gamma, rigid_comp))
    return out


def run_check(
    bundle: ResolvedBundle,
    algebra: Optional[Algebra] = None,
    trace: Optional[TraceData] = None,
    mode: str = OPEN,
    max_assignments: int = DEFAULT_ASSIGNMENT_BOUND,
) -> CheckReport:
    """Run all three phases.

    What does not depend on the trace (the desugared diagram assertions and
    an ``AssertionPlan`` per assertion) is made on the first check of
    ``bundle`` and kept on it, so checks that reuse one bundle, as
    ``verify_theorem(bundle=...)`` does, make it once.  The assertions are
    checked one after another by ``check_trace_assertion``; what they read
    of the trace alone, the index of each configuration and of the
    interpretation set, was made with the trace.
    """
    algebra = _pick(bundle.algebras, algebra, "algebra")
    trace = _pick(bundle.traces, trace, "trace")
    failures = []
    for labeled in bundle.datatype_axioms:
        if not models_spec(algebra, [labeled.assertion]):
            failures.append(labeled.name)
    interpretation = check_spec_interpretation(
        trace.interpretation, bundle.interface_spec, bundle.port_spec, algebra
    )
    validity = check_trace(trace.trace)
    results = []
    for name, gamma, rigid_comp, rigid_data, text in _assertions(bundle):
        plan = bundle.plans.get(name)
        if plan is None or plan.gamma is not gamma:
            plan = bundle.plans[name] = AssertionPlan(gamma, rigid_comp, rigid_data)
        verdict = check_trace_assertion(
            algebra,
            trace.interpretation,
            trace.trace,
            gamma,
            mode,
            rigid_comp_decls=rigid_comp,
            rigid_data_decls=rigid_data,
            max_assignments=max_assignments,
            plan=plan,
        )
        results.append(AssertionResult(name, verdict, text))
    results.sort(key=lambda r: r.name)
    return CheckReport(
        datatype_failures=failures,
        interpretation=interpretation,
        trace_validity=validity,
        assertions=results,
        mode=mode,
    )


def _assertions(bundle: ResolvedBundle):
    """Name, assertion, rigid declarations and text of every trace assertion
    of ``bundle``: its constraints, then its diagram annotations."""
    for item in bundle.constraints:
        yield item.name, item.gamma, item.rigid_comp, item.rigid_data, item.text
    for name, gamma, rigid_comp in diagram_assertions(bundle):
        yield name, gamma, rigid_comp, {}, ""


def _pick(table, chosen, what):
    if chosen is not None:
        return chosen
    if len(table) == 1:
        return next(iter(table.values()))
    if not table:
        raise UsageError(f"the bundle contains no {what} unit")
    raise UsageError(
        f"the bundle contains several {what} units: {sorted(table)};"
        " pick one explicitly"
    )


# ---------------------------------------------------------------------------
# Blackboard theorem harness


GUARANTEE_UNIT = "BlackboardGuarantee"


def blackboard_bundle(extra_units=()):
    """Parse and resolve the shipped blackboard pack plus extra units."""
    units = []
    for name, text in load_blackboard_sources().items():
        unit, diagnostics = parse_unit(text)
        if unit is None:
            raise RuntimeError(f"bundled unit {name} failed to parse: {diagnostics}")
        units.append(unit)
    units.extend(extra_units)
    bundle, diagnostics = resolve(units)
    if bundle is None:
        rendered = "; ".join(d.render() for d in diagnostics)
        raise RuntimeError(f"bundled blackboard pack failed to resolve: {rendered}")
    return bundle


@record
class TrialOutcome:
    seed: int
    premise: Truth
    guarantee: Optional[Truth]
    truncated: bool
    failed_assertions: tuple[str, ...] = ()


@record
class TheoremReport:
    trials: tuple[TrialOutcome, ...]
    mutation: Optional[str]

    @property
    def premise_satisfied(self) -> int:
        return sum(1 for t in self.trials if t.premise is Truth.SATISFIED)

    @property
    def guarantee_satisfied(self) -> int:
        return sum(1 for t in self.trials if t.guarantee is Truth.SATISFIED)

    @property
    def ok(self) -> bool:
        return all(
            t.premise is Truth.SATISFIED and t.guarantee is Truth.SATISFIED
            for t in self.trials
        )

    def render(self) -> str:
        total = len(self.trials)
        lines = [
            f"trials: {total}"
            + (f" (mutation: {self.mutation})" if self.mutation else ""),
            f"premises satisfied: {self.premise_satisfied}/{total}",
            f"guarantee satisfied: {self.guarantee_satisfied}/{total}",
        ]
        for trial in self.trials:
            if trial.premise is not Truth.SATISFIED:
                lines.append(
                    f"  seed {trial.seed}: premise {trial.premise}"
                    f" ({', '.join(trial.failed_assertions)})"
                )
            elif trial.guarantee is not Truth.SATISFIED:
                lines.append(f"  seed {trial.seed}: guarantee {trial.guarantee}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "mutation": self.mutation,
                "trials": [
                    {
                        "seed": t.seed,
                        "premise": str(t.premise),
                        "guarantee": str(t.guarantee) if t.guarantee else None,
                        "truncated": t.truncated,
                        "failed": list(t.failed_assertions),
                    }
                    for t in self.trials
                ],
                "ok": self.ok,
            },
            indent=2,
            sort_keys=True,
        )


def check_simulation(
    bundle: ResolvedBundle,
    result: SimulationResult,
    mode: str = CLOSED,
) -> CheckReport:
    """Check a simulated trace against the blackboard bundle in memory."""
    trace_data = TraceData(
        name="simulated", trace=result.trace, interpretation=result.interpretation
    )
    return run_check(bundle, algebra=result.algebra, trace=trace_data, mode=mode)


def verify_theorem(
    trials: int,
    seed: int = 0,
    horizon: int = 50,
    max_problems: int = 6,
    max_depth: int = 3,
    max_sources: int = 3,
    mutation: Optional[str] = None,
    bundle: Optional[ResolvedBundle] = None,
) -> TheoremReport:
    """Empirical bounded validation of the solve guarantee.

    Each trial simulates a fresh random scenario, requires the premise
    constraints (behavior, activation, connection, interface assertions, and
    the liveness assumption) to be satisfied in closed mode, and only then
    evaluates the guarantee.  Any failure reports the offending seed.
    """
    if trials < 1:
        raise UsageError("trials must be at least 1")
    if bundle is None:
        bundle = blackboard_bundle()
    outcomes = []
    rng = random.Random(seed)
    for _ in range(trials):
        scenario = random_scenario(
            rng,
            max_problems=max_problems,
            max_depth=max_depth,
            max_sources=max_sources,
            horizon=horizon,
        )
        result = simulate_blackboard(scenario, mutation=mutation)
        report = check_simulation(bundle, result, mode=CLOSED)
        premise_failures = tuple(
            a.name
            for a in report.assertions
            if a.verdict.truth is not Truth.SATISFIED
            and not a.name.startswith(GUARANTEE_UNIT)
        )
        premise_ok = (
            not premise_failures
            and not report.datatype_failures
            and report.interpretation.ok
            and report.trace_validity.ok
        )
        guarantee = None
        if premise_ok:
            guarantee_results = [
                a.verdict.truth
                for a in report.assertions
                if a.name.startswith(GUARANTEE_UNIT)
            ]
            guarantee = (
                Truth.SATISFIED
                if all(t is Truth.SATISFIED for t in guarantee_results)
                else Truth.VIOLATED
            )
        outcomes.append(
            TrialOutcome(
                seed=scenario.seed,
                premise=Truth.SATISFIED if premise_ok else Truth.VIOLATED,
                guarantee=guarantee,
                truncated=result.truncated,
                failed_assertions=premise_failures,
            )
        )
    return TheoremReport(trials=outcomes, mutation=mutation)
