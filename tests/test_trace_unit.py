"""Writing a simulated trace builds and renders each distinct step once:
``trace_unit`` makes one ``ActiveDecl`` per distinct snapshot and one
``StepDecl`` per distinct configuration, and ``print_unit`` renders each
distinct step object once.  The text is byte for byte that of the loops
in ``trace_unit_reference.py``, which rebuild and re-render every step."""
import dataclasses
import random

import pytest

from archcheck import blackboard
from archcheck.blackboard import MUTATIONS, random_scenario, simulate_blackboard, trace_unit
from archcheck.model import ArchConfiguration, ConfigurationTrace, make_snapshot
from archcheck.parser import parse_unit, print_unit, printer

import trace_unit_reference as reference

VARIANTS = (None,) + MUTATIONS


def _results(seeds, horizon):
    for seed in seeds:
        scenario = random_scenario(random.Random(seed), horizon=horizon)
        for mutation in VARIANTS:
            yield simulate_blackboard(scenario, mutation)


def _same_text(result):
    unit = trace_unit(result)
    expected = reference.trace_unit(result)
    assert unit == expected
    text = print_unit(unit)
    assert text == reference.print_trace_unit(expected)
    return text


@pytest.mark.parametrize("horizon", [4, 50, 150])
def test_simulated_traces_print_as_the_reference_does(horizon):
    truncated = 0
    for result in _results(range(8), horizon):
        _same_text(result)
        truncated += result.truncated
    assert truncated > 0  # the roots of some short runs stay unsolved


def test_a_parsed_trace_prints_as_the_reference_does():
    result = next(_results([3], 50))
    text = _same_text(result)
    unit, diagnostics = parse_unit(text)
    assert not diagnostics
    # parsing makes every step a distinct object
    assert len({id(step) for step in unit.body.steps}) == len(unit.body.steps)
    assert print_unit(unit) == reference.print_trace_unit(unit) == text


def _fresh(snap):
    def values(ports):
        return {port: set(snap.valuation[port]) for port in ports}

    return make_snapshot(
        snap.id,
        local=values(snap.local_ports),
        inputs=values(snap.input_ports),
        outputs=values(snap.output_ports),
    )


def test_equal_steps_that_are_distinct_objects_print_as_the_reference_does():
    result = simulate_blackboard(random_scenario(random.Random(7), horizon=60))
    steps = tuple(
        ArchConfiguration(frozenset(map(_fresh, k.active)), k.connection)
        for k in result.trace.steps
    )
    trace = ConfigurationTrace(result.trace.universe, steps)
    object.__setattr__(trace, "steps", steps)  # undo the trace's interning
    assert len(set(steps)) < len(steps)  # equal steps, each its own object
    snaps = [snap for k in steps for snap in k.active]
    assert len(set(snaps)) < len(snaps)
    assert len({id(snap) for snap in snaps}) == len(snaps)
    rebuilt = dataclasses.replace(result, trace=trace)
    assert _same_text(rebuilt) == _same_text(result)
    # equal steps and equal snapshots share one declaration each
    unit = trace_unit(rebuilt)
    assert len({id(step) for step in unit.body.steps}) == len(set(steps))
    actives = {id(decl) for step in unit.body.steps for decl in step.actives}
    assert len(actives) == len(set(snaps))


def _counted(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_each_distinct_snapshot_and_step_is_built_and_rendered_once(monkeypatch):
    repeated = 0
    for result in _results(range(6), 150):
        steps = result.trace.steps
        actives = _counted(monkeypatch, blackboard, "ActiveDecl")
        step_decls = _counted(monkeypatch, blackboard, "StepDecl")
        unit = trace_unit(result)
        monkeypatch.undo()
        assert len(actives) == len({snap for k in steps for snap in k.active})
        assert len(step_decls) == len(set(steps))
        distinct = {id(step): step for step in unit.body.steps}.values()
        assert len(distinct) == len(set(steps))

        # print_expr calls itself on nested values, so the calls of printing
        # the unit are set against those of printing each value once: the
        # components' locals and the valuations of each distinct step
        rendered = _counted(monkeypatch, printer, "print_expr")
        text = print_unit(unit)
        made = len(rendered)
        rendered.clear()
        for comp in unit.body.components:
            for _, value in comp.locals:
                printer.print_expr(value)
        for step in distinct:
            for active in step.actives:
                for _, value in active.valuations:
                    printer.print_expr(value)
        monkeypatch.undo()
        assert made == len(rendered)
        assert text == reference.print_trace_unit(unit)
        repeated += len(set(steps)) < len(steps)
    assert repeated > 10  # most runs repeat configurations
