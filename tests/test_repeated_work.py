"""Work that a theorem trial used to redo: the simulator builds each distinct
snapshot once per simulation, a bundle keeps the analysis of its assertions
across checks, their state formulas compiled once per plan, a check builds
no configuration and no interpretation set (both index themselves when
they are made, and configurations rebuilt down to their snapshots get the
same verdicts), a conjunction whose items stand still is not made again,
one evaluation of a state formula looks each active snapshot's
interpretation up once (and none, when the assertion has no port read,
`conn` or `irconn`), a monitor hashes none of the configurations it is
fed (each computed its hash when it was made), an interface check analyses and compiles each axiom once, and a
rigid-closed assertion reports the verdict of its one run, witness and
explanation included; a chain whose pending positions all drop out is the
fresh chain its run keeps; a connection map and a port valuation find a port
without reading their other entries, and a missed lookup raises nothing; a
port valuation keeps messages that are already frozen; an algebra orders
each distinct message set once, in a table of bounded size; and 20
criterion-6 trials evaluate at most 7,708 state formulas."""
import collections
import gc
import hashlib
import random
import sys
import weakref

import pytest

from archcheck import algebra, blackboard, checker, constraints, model
from archcheck.blackboard import (
    MUTATIONS,
    random_scenario,
    simulate_blackboard,
    trace_unit,
)
from archcheck.algebra import Algebra, Signature
from archcheck.checker import (
    blackboard_bundle,
    check_simulation,
    diagram_assertions,
    verify_theorem,
)
from archcheck.constraints import (
    CLOSED,
    OPEN,
    AssertionPlan,
    Monitor,
    Truth,
    check_trace_assertion,
    free_vars,
    trace_holds,
)
from archcheck.errors import StructuralError, UsageError
from archcheck.interfaces import SpecInterpretation, identity_interpretation
from archcheck.model import (
    ArchConfiguration,
    ConfigurationTrace,
    ConnectionMap,
    PortValuation,
    make_snapshot,
)
from archcheck.parser import print_unit, resolver

from generators import count_starts, random_closed_assertion, random_world
from test_rigid_enumeration import _bundle_assertions

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


def test_a_simulation_freezes_no_message_value_again(monkeypatch):
    # every port value the simulator hands make_snapshot is a frozenset of
    # frozen values already; freezing them again made 162.4 freeze_value
    # calls per simulation of SEEDS x VARIANTS
    calls = []
    real = model.freeze_value

    def counting(value):
        calls.append(value)
        return real(value)

    monkeypatch.setattr(model, "freeze_value", counting)
    snapshots = 0
    for result in _simulations():
        snapshots += len(result.trace.universe.snapshots)
    assert snapshots > 100
    assert not calls


def test_a_port_valuation_keeps_frozen_messages_and_still_checks_them():
    messages = frozenset({("p1", frozenset({"p2"})), ("p2", "s2")})
    valuation = PortValuation({"o": messages, "i": frozenset()})
    assert valuation["o"] is messages
    # a message set that is not frozen yet is frozen as before
    thawed = PortValuation({"o": [("p1", frozenset({"p2"})), ("p2", "s2")], "i": ()})
    assert thawed == valuation and hash(thawed) == hash(valuation)
    for bad in (
        frozenset({""}),
        frozenset({1}),
        frozenset({("p1", frozenset({""}))}),
        frozenset({("p1", frozenset({None}))}),
    ):
        with pytest.raises(StructuralError):
            PortValuation({"o": bad})
        with pytest.raises(StructuralError):
            make_snapshot("c", outputs={"o": bad})


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
    counted(resolver, "desugar_diagram")
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
    # the universal closure of each interface axiom is built once per check,
    # however many interpretations the axioms are checked against
    from archcheck import interfaces

    bundle = blackboard_bundle()
    axioms = sum(len(items) for items in bundle.interface_spec.assertions.values())
    assert axioms > 0
    calls = []
    real = interfaces.universal_closure
    monkeypatch.setattr(
        interfaces, "universal_closure", lambda *args: calls.append(args) or real(*args)
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


def _compiled(monkeypatch):
    """The table and the node of every compilation from now on; the list
    keeps them alive, so their ids are not reused."""
    compiled = []
    compile_node = algebra.Compiler.compile

    def counted(compiler, node, table):
        compiled.append((compiler.closures, node))
        return compile_node(compiler, node, table)

    monkeypatch.setattr(algebra.Compiler, "compile", counted)
    return compiled


def test_each_state_node_is_compiled_once_per_plan(monkeypatch):
    # a bundle's plans compile their state formulas when they are made, on
    # the first check; later trials compile nothing into them
    bundle = blackboard_bundle()
    compiled = _compiled(monkeypatch)
    first = checker.verify_theorem(trials=1, bundle=bundle)
    tables = {id(plan.tables[1]) for plan in bundle.plans.values()}
    into_plans = [(id(t), id(n)) for t, n in compiled if id(t) in tables]
    assert len(into_plans) == len(set(into_plans)) > 100
    assert len(into_plans) == sum(len(plan.tables[1]) for plan in bundle.plans.values())
    owned = set().union(*(_nodes(plan.closed) for plan in bundle.plans.values()))
    compiled.clear()
    report = checker.verify_theorem(trials=20, bundle=bundle)
    assert first.ok and report.ok
    assert not [node for _, node in compiled if id(node) in owned]


def test_state_evaluations_per_20_criterion_6_trials(monkeypatch):
    # 7,708 is the number of state verdicts these trials ask for: each is
    # evaluated once, on the steps that the skip does not pass over and for
    # the instances that the guards start
    calls = count_starts(monkeypatch)
    report = verify_theorem(20, seed=930106, horizon=50, bundle=blackboard_bundle())
    assert report.ok
    assert 0 < len(calls) <= 7708


def test_a_chain_whose_positions_all_drop_out_is_its_fresh_chain(monkeypatch):
    # a run makes the fresh chain of each G, F, U or W once per assignment;
    # a chain whose pending positions all drop out is that chain again (124
    # more chains with no position were made in these trials when progress
    # made a new one)
    makers = collections.Counter()
    init = constraints._Chain.__init__

    def counted(chain, op, opening, entries=(), *rest):
        if not entries:
            makers[sys._getframe(1).f_code.co_name] += 1
        init(chain, op, opening, entries, *rest)

    monkeypatch.setattr(constraints._Chain, "__init__", counted)
    report = verify_theorem(20, seed=930106, horizon=50, bundle=blackboard_bundle())
    assert report.ok
    assert makers["progress"] == 0
    assert 0 < sum(makers.values()) <= 1176


def test_a_check_builds_no_configuration_and_no_interpretation_set(monkeypatch):
    # what a check reads of the trace alone, the index of each
    # configuration and of the interpretation set, was made with the trace
    bundle = blackboard_bundle()
    result = simulate_blackboard(random_scenario(random.Random(17), horizon=30))
    built = []
    for cls in (ArchConfiguration, SpecInterpretation):
        def counted(obj, made=cls.__post_init__):
            built.append(obj)
            made(obj)

        monkeypatch.setattr(cls, "__post_init__", counted)
    report = check_simulation(bundle, result)
    assert len(report.assertions) == len(bundle.plans) > 10
    assert built == []


def test_a_conjunction_whose_items_stand_still_is_not_made_again(monkeypatch):
    # BlackboardDiagram.rigid is the closure of G(...) over one blackboard:
    # its one instance progresses to itself at every step, so the closure
    # stays the conjunction made at its first step (8, 12 and 15 were made
    # when every step made a new one)
    built = [0]
    init = constraints._Items.__init__

    def counted(items, *args):
        built[0] += 1
        init(items, *args)

    monkeypatch.setattr(constraints._Items, "__init__", counted)
    assertions = {name: rest for name, *rest in _bundle_assertions()}
    gamma, rigid_comp, rigid_data = assertions["BlackboardDiagram.rigid"]
    for seed in (1, 17, 19):
        result = simulate_blackboard(random_scenario(random.Random(seed), horizon=50))
        for mode in (OPEN, CLOSED):
            built[0] = 0
            verdict = check_trace_assertion(
                result.algebra, result.interpretation, result.trace, gamma, mode,
                rigid_comp, rigid_data,
            )
            assert verdict.truth is (Truth.SATISFIED if mode == CLOSED else Truth.INCONCLUSIVE)
            assert built[0] == 1, (seed, mode)
    # and the whole bundle on the seed-1 run, closed: 137 were made before
    result = simulate_blackboard(random_scenario(random.Random(1), horizon=50))
    built[0] = 0
    report = check_simulation(blackboard_bundle(), result)
    assert report.overall is Truth.SATISFIED and built[0] <= 43


def _rebuilt_steps(trace):
    """Each configuration of ``trace`` made again from snapshots rebuilt
    from their valuations: equal to the original, and sharing no snapshot
    object with it or with the interpretation set."""
    return [
        ArchConfiguration(frozenset(map(_rebuilt, k.active)), k.connection)
        for k in trace.steps
    ]


def test_configurations_rebuilt_down_to_their_snapshots_get_the_same_verdicts():
    # the interpretation of an active component is found by its snapshot's
    # equality, not its identity
    assertions = _bundle_assertions()
    assert len(assertions) == 15
    compared = violated = 0
    runs = [(19, None)] + [(seed, m) for seed in (1, 3) for m in MUTATIONS]
    for seed, mutation in runs:
        result = simulate_blackboard(
            random_scenario(random.Random(seed), horizon=40), mutation
        )
        alg, J, trace = result.algebra, result.interpretation, result.trace
        steps = _rebuilt_steps(trace)
        assert steps == list(trace.steps)
        originals = {id(s) for k in trace.steps for s in k.active}
        originals |= {id(snap) for snap in J.by_snapshot}
        assert not originals & {id(s) for k in steps for s in k.active}
        rebuilt = ConfigurationTrace(trace.universe, steps)
        for name, gamma, rigid_comp, rigid_data in assertions:
            plan = AssertionPlan(gamma, rigid_comp, rigid_data)
            for mode in (OPEN, CLOSED):
                expected = check_trace_assertion(alg, J, trace, gamma, mode, plan=plan)
                got = check_trace_assertion(alg, J, rebuilt, gamma, mode, plan=plan)
                assert got == expected, (seed, mutation, name, mode)
                compared += 1
                violated += expected.truth is Truth.VIOLATED
            on_original, on_rebuilt = Monitor(alg, J, gamma, plan), Monitor(alg, J, gamma, plan)
            for k, fresh in zip(trace.steps, _rebuilt_steps(trace)):
                assert on_rebuilt.step(fresh) == on_original.step(k), (seed, name)
            assert on_rebuilt.verdict == check_trace_assertion(
                alg, J, trace, gamma, OPEN, plan=plan
            )
    assert compared == 2 * 15 * len(runs) and violated > 5


class _CountedLookups(dict):
    """A dict that counts the lookups made with ``get`` and ``[]``."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_one_evaluation_of_connections_looks_each_active_snapshot_up_once():
    # the state evaluator finds each active component's interpretation once
    # when it visits a configuration; when every read found it again, this
    # evaluation made 128 lookups
    name, gamma, rigid_comp, rigid_data = next(
        a for a in _bundle_assertions() if a[0] == "BlackboardDiagram.connections"
    )
    result = simulate_blackboard(random_scenario(random.Random(3), horizon=30))
    k = next(k for k in result.trace.steps if len(k.active) == 4)
    J = SpecInterpretation(result.interpretation.by_interface)
    counted = _CountedLookups(J.by_snapshot)
    object.__setattr__(J, "by_snapshot", counted)
    trace = ConfigurationTrace(result.trace.universe, [k])
    for mode in (OPEN, CLOSED):
        counted.lookups = 0
        verdict = check_trace_assertion(
            result.algebra, J, trace, gamma, mode, rigid_comp, rigid_data
        )
        assert verdict.truth is (Truth.SATISFIED if mode == CLOSED else Truth.INCONCLUSIVE)
        assert 0 < counted.lookups <= 4, mode


def test_assertions_without_port_reads_look_no_interpretation_up():
    # only an assertion with a port read, conn or irconn reads an
    # interpretation; the others read which components are active
    result = simulate_blackboard(random_scenario(random.Random(3), horizon=30))
    J = SpecInterpretation(result.interpretation.by_interface)
    counted = _CountedLookups(J.by_snapshot)
    object.__setattr__(J, "by_snapshot", counted)
    looked_up = {}
    for name, gamma, rigid_comp, rigid_data in _bundle_assertions():
        counted.lookups = 0
        for mode in (OPEN, CLOSED):
            check_trace_assertion(
                result.algebra, J, result.trace, gamma, mode, rigid_comp, rigid_data
            )
        looked_up[name] = counted.lookups > 0
    assert sorted(name for name, looked in looked_up.items() if not looked) == [
        "BlackboardActivation.ax1", "BlackboardDiagram.minmax", "BlackboardDiagram.rigid",
    ]


def test_a_monitor_hashes_no_configuration_it_is_fed(monkeypatch):
    # a configuration computes its hash once, when it is made: a stream of
    # 100 steps over M distinct configurations hashes M times, however often
    # the monitor's skip set looks a step up
    hashed = [0]
    fresh = ConnectionMap.__hash__

    def counted(links):
        hashed[0] += 1
        return fresh(links)

    monkeypatch.setattr(ConnectionMap, "__hash__", counted)
    result = simulate_blackboard(random_scenario(random.Random(19), horizon=100))
    steps = result.trace.steps  # equal steps are one object
    distinct = {id(k): k for k in steps}
    assert len(steps) == 100 and 1 < len(distinct) < 50
    for name, gamma, rigid_comp, rigid_data in _bundle_assertions():
        plan = AssertionPlan(gamma, rigid_comp, rigid_data)
        monitor = Monitor(result.algebra, result.interpretation, gamma, plan)
        hashed[0] = 0
        remade = {key: ArchConfiguration(k.active, dict(k.connection))
                  for key, k in distinct.items()}
        for k in steps:
            monitor.step(remade[id(k)])
        assert hashed[0] <= len(distinct), name


def test_interface_axioms_are_compiled_once_per_check(monkeypatch):
    from archcheck import interfaces

    bundle = blackboard_bundle()
    axioms = {id(a) for items in bundle.interface_spec.assertions.values() for a in items}
    compiled = _compiled(monkeypatch)
    rng = random.Random(13)
    for sources in (2, 3):
        result = simulate_blackboard(random_scenario(rng, max_sources=sources))
        assert len(result.interpretation.by_interface["KS"]) > 1
        compiled.clear()
        report = interfaces.check_spec_interpretation(
            result.interpretation, bundle.interface_spec, bundle.port_spec, result.algebra
        )
        assert report.ok
        roots = [id(node) for _, node in compiled if id(node) in axioms]
        assert sorted(roots) == sorted(axioms)
        assert len({id(table) for table, _ in compiled}) == 1


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


class _Port(tuple):
    """A port reference that counts the comparisons made with it."""

    compared = 0

    def __eq__(self, other):
        _Port.compared += 1
        return tuple.__eq__(self, other)

    __hash__ = tuple.__hash__


def _raised_by(call, *args):
    """What ``call(*args)`` returns, and the exceptions raised inside it."""
    raised = []

    def tracer(frame, event, arg):
        if event == "exception":
            raised.append(arg[0])
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = call(*args)
    finally:
        sys.settrace(previous)
    return result, raised


def test_a_connection_lookup_reads_one_entry_and_a_miss_raises_nothing():
    entries = {(f"ks{i}", "ksip"): {("bb", "bbop")} for i in range(100)}
    connection = ConnectionMap(entries)
    _Port.compared = 0
    assert connection[_Port(("ks70", "ksip"))] == {("bb", "bbop")}
    assert connection.get(_Port(("ks99", "ksip"))) == {("bb", "bbop")}
    assert connection.get(_Port(("bb", "bbip"))) == frozenset()
    assert _Port.compared <= 2  # a scan of the entries made 269
    with pytest.raises(KeyError):
        connection[("bb", "bbip")]

    assert _raised_by(connection.get, ("bb", "bbip"), None) == (None, [])

    # iteration, equality, hashing and repr still follow the sorted entries
    backwards = ConnectionMap(dict(reversed(list(entries.items()))))
    assert list(backwards) == list(connection) == sorted(entries)
    assert backwards == connection and hash(backwards) == hash(connection)
    assert hash(connection) == hash(tuple(sorted(connection.items())))
    small = ConnectionMap({("ks", "ksis"): {("bb", "bbos")}, ("bb", "bbip"): {("ks", "ksos")}})
    assert repr(small) == "ConnectionMap(bb.bbip <- ks.ksos; ks.ksis <- bb.bbos)"


class _Name(str):
    """A port name that counts the comparisons made with it."""

    compared = 0

    def __eq__(self, other):
        _Name.compared += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


def test_a_port_lookup_reads_one_entry_and_a_miss_raises_nothing():
    entries = {f"p{i:02}": {f"m{i}"} for i in range(100)}
    valuation = PortValuation(entries)
    _Name.compared = 0
    assert valuation[_Name("p70")] == {"m70"}
    assert valuation.get(_Name("p99")) == {"m99"}
    assert valuation.get(_Name("q")) is None
    assert _Name.compared <= 2  # a scan of the entries made 271
    with pytest.raises(KeyError):
        valuation["q"]
    assert _raised_by(valuation.get, "q", frozenset()) == (frozenset(), [])

    # iteration, equality, hashing and repr still follow the sorted entries
    backwards = PortValuation(dict(reversed(list(entries.items()))))
    assert list(backwards) == list(valuation) == sorted(entries)
    assert backwards == valuation and hash(backwards) == hash(valuation)
    assert hash(valuation) == hash(tuple(sorted(valuation.items())))
    assert valuation == {port: frozenset(messages) for port, messages in entries.items()}
    small = PortValuation({"o": {"b", "a"}, "i": set()})
    assert repr(small) == "PortValuation(i={}, o={a, b})"


def test_each_distinct_message_set_is_sorted_once_per_algebra(monkeypatch):
    # bounded quantifiers, rigid instances and port typing sorted the same
    # few port values again at every instance start and every evaluation
    current, kept, sorts, asked = [None], {}, collections.Counter(), [0]
    real_ordered = Algebra.ordered

    def ordered(alg, values):
        current[0] = kept[id(alg)] = alg  # kept alive, so that no id is reused
        asked[0] += 1
        return real_ordered(alg, values)

    def counted_sorted(values, key=None):
        if key is algebra.value_key:
            sorts[id(current[0]), values] += 1
        return sorted(values, key=key)

    monkeypatch.setattr(Algebra, "ordered", ordered)
    monkeypatch.setattr(algebra, "sorted", counted_sorted, raising=False)
    report = verify_theorem(trials=20, seed=930106, bundle=blackboard_bundle())
    assert report.ok
    assert len(kept) >= 20 and sorts and max(sorts.values()) == 1
    assert asked[0] > 5 * len(sorts)


def test_value_keys_per_criterion_6_trial(monkeypatch):
    # 827 per trial when each sort site sorted its set afresh
    calls = [0]
    real = model.value_key

    def counting(value):
        calls[0] += 1
        return real(value)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("archcheck"):
            if getattr(module, "value_key", None) is real:
                monkeypatch.setattr(module, "value_key", counting)
    report = verify_theorem(
        trials=100, seed=930106, horizon=50, max_problems=6, max_depth=3,
        bundle=blackboard_bundle(),
    )
    assert report.ok
    assert calls[0] <= 100 * 100


def _message(rng, depth):
    shape = rng.randrange(3 if depth else 1)
    if shape == 0:
        return rng.choice("abcde") * rng.randint(1, 2)
    if shape == 1:
        return (_message(rng, depth - 1), _message(rng, depth - 1))
    return _messages(rng, depth - 1)


def _messages(rng, depth):
    return frozenset(_message(rng, depth) for _ in range(rng.randrange(5)))


def _small_algebra():
    return Algebra(Signature(frozenset({"D"})), {"D": ("a",)})


def test_an_ordered_set_is_its_value_key_sort_kept_for_the_next_call():
    rng = random.Random(280001)
    alg = _small_algebra()
    seen = 0
    for _ in range(500):
        messages = _messages(rng, 3)
        order = alg.ordered(messages)
        assert order == tuple(sorted(messages, key=model.value_key))
        assert alg.ordered(messages) is order
        # an equal set built afresh, in another insertion order
        assert alg.ordered(frozenset(reversed(order))) is order
        seen += not messages
    assert seen  # the empty set among them
    assert alg.ordered(frozenset()) == ()


def test_the_ordered_table_is_bounded_and_verdicts_hold_across_clears(monkeypatch):
    # a bound of 4 against a monitor on fresh configurations, whose bounded
    # quantifiers and rigid instances meet many distinct port values
    monkeypatch.setattr(algebra, "_ORDERED_SETS", 4)
    run = simulate_blackboard(random_scenario(random.Random(220002), horizon=40))
    steps = list(dict.fromkeys(run.trace.steps))
    assert len(steps) >= 8
    alg = run.algebra
    clears = 0
    for name, gamma, rigid_comp, rigid_data in _bundle_assertions():
        plan = AssertionPlan(gamma, rigid_comp, rigid_data)
        monitor = Monitor(alg, run.interpretation, gamma, plan)
        size = len(alg._ordered_cache)
        for t, k in enumerate(steps, start=1):
            verdict = monitor.step(ArchConfiguration(set(k.active), dict(k.connection)))
            table = len(alg._ordered_cache)
            assert table <= 4, name
            clears += table < size
            expected = check_trace_assertion(
                alg, run.interpretation, ConfigurationTrace(run.trace.universe, steps[:t]),
                gamma, OPEN, plan=plan,
            )
            assert verdict.truth is expected.truth, (name, t)
            size = len(alg._ordered_cache)
    assert clears > 5
