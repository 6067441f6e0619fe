"""``blackboard.trace_unit`` and the trace part of ``printer.print_unit`` as
they were before each built and rendered a distinct step once: both loops
rebuild and re-render every step anew.  ``test_trace_unit.py``
checks the package against them byte for byte."""
from archcheck.blackboard import BB_ID, _value_expr
from archcheck.parser.printer import print_expr
from archcheck.parser.syntax import (
    ActiveDecl,
    ComponentDecl,
    ConnectDecl,
    SourceUnit,
    StepDecl,
    TraceBody,
)


def trace_unit(result, name="Run", algebra_name="ProbSolModel"):
    scenario = result.scenario
    components = [ComponentDecl(BB_ID, "BB", ())]
    for ks in sorted(scenario.sources):
        components.append(
            ComponentDecl(ks, "KS", ((("prob", _value_expr(scenario.sources[ks]))),))
        )
    steps = []
    for k in result.trace.steps:
        actives = []
        for snap in sorted(k.active, key=lambda s: (s.id != BB_ID, s.id)):
            valuations = tuple(
                (port, _value_expr(snap.valuation[port]))
                for port in sorted(snap.input_ports | snap.output_ports)
                if snap.valuation[port]
            )
            actives.append(ActiveDecl(snap.id, valuations))
        connects = []
        for (cid, port), targets in sorted(k.connection.items()):
            for tid, tport in sorted(targets):
                connects.append(ConnectDecl(cid, port, tid, tport))
        steps.append(StepDecl(tuple(actives), tuple(connects)))
    return SourceUnit(
        kind="trace",
        name=name,
        imports=("BB", "KS", algebra_name),
        body=TraceBody(tuple(components), tuple(steps)),
    )


def print_trace_unit(unit):
    out = [f"{unit.kind} {unit.name}"]
    if unit.imports:
        out.append(f"imports {', '.join(unit.imports)}")
    body = unit.body
    if body.components:
        out.append("components")
        for comp in body.components:
            line = f"  {comp.id} : {comp.interface}"
            if comp.locals:
                parts = ", ".join(
                    f"{port} = {print_expr(value)}" for port, value in comp.locals
                )
                line += f" with {parts}"
            out.append(line)
    for step in body.steps:
        out.append("step")
        for active in step.actives:
            out.append(f"  active {active.id}")
            for port, value in active.valuations:
                out.append(f"    {port} = {print_expr(value)}")
        for conn in step.connects:
            out.append(
                f"  connect {conn.in_owner}.{conn.in_port}"
                f" <- {conn.out_owner}.{conn.out_port}"
            )
    return "\n".join(out) + "\n"
