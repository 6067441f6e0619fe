"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""
import itertools
import random
import time
import zlib

import oracle
from archcheck.algebra import Algebra, BaseSort, Signature, check_well_founded
from archcheck.checker import blackboard_bundle, verify_theorem
from archcheck.constraints import CLOSED, OPEN, Truth, check_trace_assertion
from archcheck.diagrams import desugar_minmax, desugar_required_conn, desugar_rigid
from archcheck.model import (
    ArchConfiguration,
    ComponentUniverse,
    ConfigurationTrace,
    check_configuration,
    check_healthy,
    check_trace,
    make_snapshot,
    snapshot_key,
)
from archcheck.parser import parse_unit, print_unit, resolve
from archcheck.parser.syntax import UNIT_KINDS

from blackboard_sources import bundle_units
from fixtures import config_k0, example_trace, example_universe
from generators import random_closed_assertion, random_world
from rawgen import RawGen
from test_diagrams import (
    _direct_minmax,
    _direct_rigid,
    _random_minmax,
    _random_required_conn,
    _random_rigid,
)


def report(number, description, started, budget):
    elapsed = time.time() - started
    print(f"criterion {number}: PASS in {elapsed:.2f}s (< {budget}s) - {description}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_worked_example_fidelity():
    started = time.time()
    universe = example_universe()
    assert check_healthy(universe).ok
    assert check_configuration(universe, config_k0()).ok
    assert check_trace(example_trace()).ok

    mutated_c2 = make_snapshot(
        "c2",
        local={"l0": {"4"}, "l1": {"C"}},
        inputs={"i0": {"Z"}, "i1": {"B"}, "i2": {"8"}},
        outputs={"o0": {"9"}},
    )
    base = example_trace()
    k0 = base.steps[0]
    mutated_step = ArchConfiguration(
        active=frozenset(s for s in k0.active if s.id != "c2") | {mutated_c2},
        connection=k0.connection,
    )
    mutated_trace = ConfigurationTrace(
        ComponentUniverse(base.universe.snapshots | {mutated_c2}),
        (mutated_step,) + base.steps[1:],
    )
    violations = check_trace(mutated_trace).violations
    assert len(violations) == 1
    assert violations[0].code == "valuation-consistency"
    assert violations[0].subject == "c2.i1"
    assert violations[0].index == 0
    report(1, "worked-example fixtures and the single-port mutation", started, 1)


def test_criterion_2_subset_preserves_healthiness():
    started = time.time()
    rng = random.Random(202401)
    for _ in range(1000):
        snapshots = set()
        n_ids = rng.randint(1, 5)
        budget = 8
        for i in range(n_ids):
            if budget == 0:
                break
            cid = f"c{i}"
            ports = [f"p{j}" for j in range(rng.randint(1, 5))]
            rng.shuffle(ports)
            a = rng.randint(0, len(ports))
            b = rng.randint(a, len(ports))
            local_vals = {p: {rng.choice("uvw")} for p in ports[:a]}
            copies = rng.randint(1, min(3, budget))
            budget -= copies
            for _ in range(copies):
                snapshots.add(
                    make_snapshot(
                        cid,
                        local=local_vals,
                        inputs={p: {rng.choice("uvw")} for p in ports[a:b]},
                        outputs={p: {rng.choice("uvw")} for p in ports[b:]},
                    )
                )
        universe = ComponentUniverse(frozenset(snapshots))
        assert check_healthy(universe).ok
        ordered = sorted(universe.snapshots, key=snapshot_key)
        subset = frozenset(s for s in ordered if rng.random() < 0.5)
        assert check_healthy(ComponentUniverse(subset)).ok
    report(2, "1000 random healthy universes stay healthy under subsets", started, 5)


def test_criterion_3_semantics_oracle_equivalence():
    started = time.time()
    rng = random.Random(930103)
    checked = 0
    while checked < 500:
        world = random_world(rng)
        oworld = oracle.World(world.alg, world.J)
        for _ in range(4):
            if checked == 500:
                break
            gamma = random_closed_assertion(rng, world, depth=4)
            for mode in (OPEN, CLOSED):
                verdict = check_trace_assertion(
                    world.alg, world.J, world.trace, gamma, mode
                )
                expected = oracle.check_assertion(oworld, world.trace, gamma, mode)
                assert oracle.truth_letter(verdict) == expected, (gamma, mode)
            checked += 1
    report(3, "500 random assertions agree with the brute-force oracle", started, 60)


def test_criterion_4_desugaring_equivalence():
    started = time.time()
    rng = random.Random(930104)
    checked = 0
    while checked < 200:
        world = random_world(rng)
        kind = checked % 3
        if kind == 0:
            ann = _random_minmax(rng, world)
            gamma = desugar_minmax(ann)
            expected = _direct_minmax(world, ann)
            verdict = check_trace_assertion(
                world.alg, world.J, world.trace, gamma, CLOSED
            )
        elif kind == 1:
            ann = _random_rigid(rng, world)
            if not ann.vars:
                continue
            gamma = desugar_rigid(ann)
            decls = {v: i for i, vs in ann.vars.items() for v in vs}
            expected = _direct_rigid(world, ann)
            verdict = check_trace_assertion(
                world.alg, world.J, world.trace, gamma, CLOSED,
                rigid_comp_decls=decls,
            )
        else:
            ann = _random_required_conn(rng, world)
            gamma = desugar_required_conn(ann, world.spec)
            expected = oracle.check_full_homomorphism(world.trace, ann, world.J)
            verdict = check_trace_assertion(
                world.alg, world.J, world.trace, gamma, CLOSED
            )
        assert (verdict.truth is Truth.SATISFIED) == expected, (ann, verdict)
        checked += 1
    report(4, "200 random annotations match their defining conditions", started, 30)


def test_criterion_5_monitor_monotonicity():
    started = time.time()
    rng = random.Random(930105)
    final = 0
    for _ in range(500):
        world = random_world(rng)
        gamma = random_closed_assertion(rng, world, depth=3)
        prefix = check_trace_assertion(world.alg, world.J, world.trace, gamma, OPEN)
        if prefix.truth is Truth.INCONCLUSIVE:
            continue
        extended = check_trace_assertion(
            world.alg, world.J, world.extension, gamma, OPEN
        )
        assert extended.truth is prefix.truth, (gamma, prefix, extended)
        final += 1
    assert final >= 100, "sample did not exercise enough final verdicts"
    report(
        5,
        f"500 extensions never revised a final verdict ({final} finals)",
        started,
        30,
    )


def test_criterion_6_theorem_at_desk_scale():
    started = time.time()
    bundle = blackboard_bundle()
    clean = verify_theorem(
        trials=100, seed=930106, horizon=50, max_problems=6, max_depth=3,
        bundle=bundle,
    )
    assert clean.premise_satisfied == 100, clean.render()
    assert clean.guarantee_satisfied == 100, clean.render()
    for mutation in ("drop-forwarding", "drop-activation"):
        mutated = verify_theorem(
            trials=10, seed=930106, horizon=50, max_problems=6, max_depth=3,
            mutation=mutation, bundle=bundle,
        )
        violated = [t for t in mutated.trials if t.premise is Truth.VIOLATED]
        assert violated, f"{mutation} went undetected"
    report(
        6,
        "100/100 premise+guarantee trials, both mutations detected",
        started,
        30,
    )


def test_criterion_7_parser_round_trip_and_bundle():
    started = time.time()
    for kind in UNIT_KINDS:
        rng = random.Random(930107 + zlib.crc32(kind.encode()) % 1000)
        gen = RawGen(rng)
        for i in range(300):
            unit = gen.unit(kind)
            text = print_unit(unit)
            reparsed, diagnostics = parse_unit(text)
            assert reparsed == unit, (kind, i, text, diagnostics)
    bundle, diagnostics = resolve(list(bundle_units().values()))
    assert bundle is not None
    assert diagnostics == []
    report(
        7,
        "2100 random units round-trip; bundle resolves without diagnostics",
        started,
        10,
    )


def _chain_oracle(n, rows):
    """A relation is well-founded iff no walk of carrier-size+1 edges exists."""
    masks = [0] * n
    for a, b in rows:
        masks[a] |= 1 << b
    current = masks[:]
    for _ in range(n):  # n+1 edges require n compositions
        nxt = [0] * n
        for i in range(n):
            row = current[i]
            acc = 0
            j = 0
            while row:
                if row & 1:
                    acc |= masks[j]
                row >>= 1
                j += 1
            nxt[i] = acc
        current = nxt
    return not any(current)


def _relation_algebra(n, rows):
    carrier = tuple(f"e{i}" for i in range(n))
    sig = Signature(sorts={"S"}, predicates={"r": (BaseSort("S"), BaseSort("S"))})
    return Algebra(
        sig,
        carriers={"S": carrier},
        predicates={"r": {(carrier[a], carrier[b]) for a, b in rows}},
    )


def test_criterion_8_well_foundedness_oracle():
    started = time.time()
    for n in range(1, 5):
        pairs = list(itertools.product(range(n), repeat=2))
        for bits in range(1 << len(pairs)):
            rows = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            alg = _relation_algebra(n, rows)
            assert check_well_founded(alg, "r") == _chain_oracle(n, rows)
    rng = random.Random(930108)
    n = 5
    pairs = list(itertools.product(range(n), repeat=2))
    for _ in range(2000):
        rows = [p for p in pairs if rng.random() < rng.choice((0.1, 0.3, 0.6))]
        alg = _relation_algebra(n, rows)
        assert check_well_founded(alg, "r") == _chain_oracle(n, rows)
    report(
        8,
        "exhaustive size<=4 and 2000 sampled size-5 relations match the"
        " longest-chain oracle",
        started,
        20,
    )
