"""Work that a theorem trial used to redo: the simulator builds each distinct
snapshot once per simulation, a bundle keeps the analysis of its assertions
across checks, an interface check analyses each axiom once, and a
rigid-closed assertion reports the verdict of its one run, witness and
explanation included."""
import gc
import hashlib
import random
import sys
import weakref

import pytest

from archcheck import algebra, blackboard, checker, constraints
from archcheck.blackboard import (
    MUTATIONS,
    random_scenario,
    simulate_blackboard,
    trace_unit,
)
from archcheck.checker import blackboard_bundle, check_simulation, diagram_assertions
from archcheck.constraints import (
    CLOSED,
    OPEN,
    AssertionPlan,
    check_trace_assertion,
    free_vars,
    trace_holds,
)
from archcheck.errors import UsageError
from archcheck.interfaces import identity_interpretation
from archcheck.model import ArchConfiguration, ConfigurationTrace, make_snapshot
from archcheck.parser import print_unit

from generators import random_closed_assertion, random_world

SEEDS = range(20)
VARIANTS = (None,) + MUTATIONS

# sha256 of the printed trace units, truncation flags and solution steps of
# SEEDS x VARIANTS, as the simulator gave them when it built a new snapshot
# for every active component at every step
SIMULATIONS_DIGEST = "93b30f52e3f71e8f3922876c11d518584fce0f29c5fbc3493c3aef0972141b18"


def _simulations():
    for seed in SEEDS:
        scenario = random_scenario(random.Random(seed))
        for mutation in VARIANTS:
            yield simulate_blackboard(scenario, mutation)


def _rebuilt(snap):
    """An equal snapshot made afresh from the snapshot's own valuation."""
    def values(ports):
        return {port: snap.valuation[port] for port in ports}

    return make_snapshot(
        snap.id,
        local=values(snap.local_ports),
        inputs=values(snap.input_ports),
        outputs=values(snap.output_ports),
    )


def test_one_simulation_builds_each_distinct_snapshot_once(monkeypatch):
    calls = []
    real = blackboard.make_snapshot

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(blackboard, "make_snapshot", counting)
    repeated = 0
    for seed in SEEDS:
        scenario = random_scenario(random.Random(seed))
        for mutation in VARIANTS:
            calls.clear()
            trace = simulate_blackboard(scenario, mutation).trace
            assert len(calls) == len(trace.universe.snapshots)
            repeated += sum(len(k.active) for k in trace.steps) > len(calls)
    assert repeated > 40  # most simulations repeat snapshots


def test_interned_simulations_equal_snapshots_rebuilt_from_each_step():
    digest = hashlib.sha256()
    for result in _simulations():
        scenario, trace = result.scenario, result.trace
        seen = {}
        for k in trace.steps:
            for snap in k.active:
                assert snap == _rebuilt(snap)
                # equal snapshots are one object
                assert seen.setdefault(snap, snap) is snap
        never_active = {
            _rebuilt(make_snapshot(
                ks,
                local={"prob": scenario.sources[ks]},
                inputs={"ksip": (), "ksis": ()},
                outputs={"ksop": (), "ksos": ()},
            ))
            for ks in scenario.sources
            if not any(s.id == ks for s in seen)
        }
        assert trace.universe.snapshots == set(seen) | never_active
        interpretations = {
            "BB": {identity_interpretation(s) for s in trace.universe.snapshots
                   if s.id == blackboard.BB_ID},
            "KS": {identity_interpretation(s) for s in trace.universe.snapshots
                   if s.id != blackboard.BB_ID},
        }
        assert dict(result.interpretation.by_interface) == interpretations
        digest.update(print_unit(trace_unit(result)).encode())
        digest.update(f"{result.truncated} {result.steps_to_solution}\n".encode())
    assert digest.hexdigest() == SIMULATIONS_DIGEST


def _nodes(gamma):
    stack, found = [gamma], set()
    while stack:
        node = stack.pop()
        found.add(id(node))
        stack.extend(algebra.children(node))
    return found


def _verdicts(report):
    return [(a.name, a.verdict) for a in report.assertions]


def test_the_second_check_of_a_bundle_analyses_none_of_its_assertions(monkeypatch):
    bundle = blackboard_bundle()
    rng = random.Random(5)
    first, second = (
        simulate_blackboard(random_scenario(rng), mutation)
        for mutation in (None, MUTATIONS[0])
    )
    check_simulation(bundle, first)
    gammas = [c.gamma for c in bundle.constraints]
    gammas += [gamma for _, gamma, _ in diagram_assertions(bundle)]
    owned = set().union(*map(_nodes, gammas))

    calls = {"free_vars": 0, "desugar_diagram": 0, "find_guard": []}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            if name == "find_guard":
                calls[name].append(id(args[0]))
            else:
                calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(constraints, "free_vars")
    counted(checker, "desugar_diagram")
    counted(constraints, "find_guard")
    counted(algebra, "find_guard")
    report = check_simulation(bundle, second)
    monkeypatch.undo()
    assert calls["free_vars"] == 0
    assert calls["desugar_diagram"] == 0
    assert not owned & set(calls["find_guard"])
    assert len(bundle.plans) == len(gammas)
    # a fresh bundle, analysed on its first check, gives the same report
    assert _verdicts(report) == _verdicts(check_simulation(blackboard_bundle(), second))


def test_interface_axioms_are_analysed_once_per_check(monkeypatch):
    # find_guard runs once per interface axiom of each check, however many
    # interpretations the axioms are checked against
    from archcheck import interfaces

    bundle = blackboard_bundle()
    axioms = sum(len(items) for items in bundle.interface_spec.assertions.values())
    assert axioms > 0
    calls = []
    real = interfaces.find_guard
    monkeypatch.setattr(
        interfaces, "find_guard", lambda *args: calls.append(args) or real(*args)
    )
    rng = random.Random(13)
    sizes = set()
    for sources in (1, 2, 3):
        result = simulate_blackboard(random_scenario(rng, max_sources=sources))
        J = result.interpretation
        sizes.add(sum(len(items) for items in J.by_interface.values()))
        calls.clear()
        report = interfaces.check_spec_interpretation(
            J, bundle.interface_spec, bundle.port_spec, result.algebra
        )
        assert report.ok
        assert len(calls) == axioms
    assert len(sizes) > 1


def _module_tables():
    """Sizes of the containers held at module level by archcheck's modules."""
    sizes = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("archcheck") or module is None:
            continue
        for attr, value in vars(module).items():
            if isinstance(value, (dict, list, set)):
                sizes[name, attr] = len(value)
    return sizes


def test_checking_fresh_bundles_keeps_nothing_at_module_level():
    rng = random.Random(11)
    results = [simulate_blackboard(random_scenario(rng)) for _ in range(3)]

    def check_fresh_bundle(result):
        bundle = blackboard_bundle()
        check_simulation(bundle, result)
        return weakref.ref(bundle)

    check_fresh_bundle(results[0])
    gc.collect()
    after_first = _module_tables()
    bundles = [check_fresh_bundle(results[i % 3]) for i in range(30)]
    gc.collect()
    after_all = _module_tables()
    grown = {
        key: (after_first.get(key), size)
        for key, size in after_all.items()
        if size > after_first.get(key, 0)
    }
    assert not grown
    # the plans belong to their bundle, and go with it
    assert all(ref() is None for ref in bundles)


def test_a_plan_is_used_only_with_its_own_assertion():
    world = random_world(random.Random(3))
    gamma, other = (random_closed_assertion(random.Random(s), world) for s in (1, 2))
    with pytest.raises(UsageError):
        check_trace_assertion(
            world.alg, world.J, world.trace, other, CLOSED, plan=AssertionPlan(gamma)
        )


def _mutants(rng, trace):
    """Traces over the same universe: the steps reversed, one step with its
    connections dropped, and one step with an active component removed and
    its connections dropped."""
    steps = list(trace.steps)
    yield ConfigurationTrace(trace.universe, steps[::-1])
    i = rng.randrange(len(steps))
    yield ConfigurationTrace(
        trace.universe, steps[:i] + [ArchConfiguration(steps[i].active, {})] + steps[i + 1:]
    )
    crowded = [j for j, k in enumerate(steps) if k.active]
    if crowded:
        j = rng.choice(crowded)
        active = sorted(steps[j].active, key=lambda s: s.id)[1:]
        yield ConfigurationTrace(
            trace.universe, steps[:j] + [ArchConfiguration(active, {})] + steps[j + 1:]
        )


def test_rigid_closed_assertions_report_the_verdict_of_their_one_run():
    rng = random.Random(808001)
    witnessed = 0
    for _ in range(60):
        world = random_world(rng)
        gammas = [random_closed_assertion(rng, world, depth=3) for _ in range(3)]
        for trace in (world.trace, world.extension, *_mutants(rng, world.extension)):
            for gamma in gammas:
                data, comps = free_vars(gamma)
                assert not data and not comps
                for mode in (OPEN, CLOSED):
                    verdict = check_trace_assertion(world.alg, world.J, trace, gamma, mode)
                    assert verdict == trace_holds(
                        world.alg, world.J, {}, {}, trace, 0, gamma, mode
                    ), (mode, gamma)
                    witnessed += verdict.witness is not None
    assert witnessed > 100
