import random

import pytest

from archcheck.errors import StructuralError
from archcheck.model import (
    ArchConfiguration,
    ComponentUniverse,
    ConfigurationTrace,
    PortValuation,
    check_configuration,
    check_healthy,
    check_trace,
    make_snapshot,
    snapshot_key,
)

from fixtures import (
    c2_k0,
    c4_k2,
    config_k0,
    config_k2,
    example_trace,
    example_universe,
)


class TestSnapshots:
    def test_roles_must_be_disjoint(self):
        with pytest.raises(StructuralError):
            make_snapshot("c", local={"p": {"1"}}, inputs={"p": {"2"}})

    def test_valuation_domain_must_match(self):
        with pytest.raises(StructuralError, match="domain"):
            ArchConfiguration  # silence linters about unused import paths
            from archcheck.model import ComponentSnapshot

            ComponentSnapshot(
                id="c",
                local_ports=frozenset({"l"}),
                input_ports=frozenset(),
                output_ports=frozenset(),
                valuation=PortValuation({}),
            )

    def test_worked_example_component(self):
        snap = c2_k0()
        assert snap.local_ports == {"l0", "l1"}
        assert snap.input_ports == {"i0", "i1", "i2"}
        assert snap.output_ports == {"o0"}
        assert snap.valuation["i1"] == {"A"}


class TestHealthiness:
    def test_worked_example_universe_is_healthy(self):
        assert check_healthy(example_universe()).ok

    def test_single_snapshot_is_healthy(self):
        assert check_healthy(ComponentUniverse(frozenset({c2_k0()}))).ok

    def test_differing_inputs_allowed(self):
        a = make_snapshot("c", local={"l0": {"4"}}, inputs={"i0": {"1"}})
        b = make_snapshot("c", local={"l0": {"4"}}, inputs={"i0": {"2"}})
        assert check_healthy(ComponentUniverse(frozenset({a, b}))).ok

    def test_local_value_mismatch_detected(self):
        a = make_snapshot("c", local={"l0": {"4"}})
        b = make_snapshot("c", local={"l0": {"5"}})
        report = check_healthy(ComponentUniverse(frozenset({a, b})))
        assert not report.ok
        assert report.violations[0].code == "local-valuation-mismatch"
        assert report.violations[0].subject == "c"

    def test_interface_mismatch_detected(self):
        a = make_snapshot("c", inputs={"i0": set()})
        b = make_snapshot("c", outputs={"o0": set()})
        report = check_healthy(ComponentUniverse(frozenset({a, b})))
        assert [v.code for v in report.violations] == ["interface-mismatch"]

    def test_subset_preserves_healthiness(self):
        # Random healthy universes stay healthy under arbitrary subsets.
        rng = random.Random(20240817)
        for _ in range(50):
            universe = _random_healthy_universe(rng)
            assert check_healthy(universe).ok
            snaps = sorted(universe.snapshots, key=snapshot_key)
            subset = frozenset(s for s in snaps if rng.random() < 0.5)
            assert check_healthy(ComponentUniverse(subset)).ok


def _random_healthy_universe(rng) -> ComponentUniverse:
    snapshots = set()
    n_ids = rng.randint(1, 4)
    for i in range(n_ids):
        cid = f"c{i}"
        ports = [f"p{j}" for j in range(rng.randint(1, 5))]
        rng.shuffle(ports)
        split1 = rng.randint(0, len(ports))
        split2 = rng.randint(split1, len(ports))
        local = ports[:split1]
        inputs = ports[split1:split2]
        outputs = ports[split2:]
        local_vals = {p: {rng.choice("xyz")} for p in local}
        for _ in range(rng.randint(1, 3)):
            snapshots.add(
                make_snapshot(
                    cid,
                    local=local_vals,
                    inputs={p: {rng.choice("xyz")} for p in inputs},
                    outputs={p: {rng.choice("xyz")} for p in outputs},
                )
            )
    return ComponentUniverse(frozenset(snapshots))


class TestInterfaceLookups:
    def test_ports_of_worked_example(self):
        snaps = [s for s in example_universe().snapshots if s.id == "c2"]
        assert snaps
        for snap in snaps:
            assert snap.local_ports == {"l0", "l1"}
            assert snap.input_ports == {"i0", "i1", "i2"}
            assert snap.output_ports == {"o0"}

    def test_ports_of_agrees_across_snapshots(self):
        a = make_snapshot("c", inputs={"i0": {"1"}})
        b = make_snapshot("c", inputs={"i0": {"2"}})
        universe = ComponentUniverse(frozenset({a, b}))
        assert check_healthy(universe).ok
        assert {s.input_ports for s in universe.snapshots} == {frozenset({"i0"})}

    def test_local_valuation(self):
        # a local port's value is fixed: every snapshot of c2 has it
        values = {
            s.valuation["l0"] for s in example_universe().snapshots if s.id == "c2"
        }
        assert values == {frozenset({"4"})}


class TestConfigurations:
    def test_open_inputs_of_worked_example(self):
        k = config_k0()
        inputs = {(s.id, p) for s in k.active for p in s.input_ports}
        assert inputs - set(k.connection) == {
            ("c1", "i0"),
            ("c2", "i0"),
            ("c3", "i0"),
        }

    def test_fully_connected_chain_has_no_open_inputs(self):
        a = make_snapshot("a", outputs={"o": {"m"}})
        b = make_snapshot("b", inputs={"i": {"m"}})
        k = ArchConfiguration(
            active=frozenset({a, b}), connection={("b", "i"): {("a", "o")}}
        )
        assert set(k.connection) == {("b", "i")}

    def test_worked_example_configuration_ok(self):
        assert check_configuration(example_universe(), config_k0()).ok

    def test_consistency_violation(self):
        mutated = make_snapshot(
            "c2",
            local={"l0": {"4"}, "l1": {"C"}},
            inputs={"i0": {"Z"}, "i1": {"B"}, "i2": {"8"}},
            outputs={"o0": {"9"}},
        )
        k = ArchConfiguration(
            active=frozenset({x for x in config_k0().active if x.id != "c2"})
            | {mutated},
            connection=config_k0().connection,
        )
        universe = ComponentUniverse(example_universe().snapshots | {mutated})
        report = check_configuration(universe, k)
        assert [v.code for v in report.violations] == ["valuation-consistency"]
        assert report.violations[0].subject == "c2.i1"

    def test_connection_to_inactive_component(self):
        a = make_snapshot("a", outputs={"o": {"m"}})
        b = make_snapshot("b", inputs={"i": {"m"}})
        universe = ComponentUniverse(frozenset({a, b}))
        k = ArchConfiguration(
            active=frozenset({b}), connection={("b", "i"): {("a", "o")}}
        )
        report = check_configuration(universe, k)
        assert "connection-typing" in {v.code for v in report.violations}

    def test_config_valuation(self):
        assert c2_k0() in config_k0().active
        assert c4_k2() in config_k2().active

    def test_active_uniqueness_in_valid_configurations(self):
        # Two active snapshots with one id must be the identical record.
        k = config_k0()
        by_id = {}
        for snap in k.active:
            assert by_id.setdefault(snap.id, snap) == snap


class TestTraces:
    def test_worked_example_trace_ok(self):
        assert check_trace(example_trace()).ok

    def test_single_step_trace_ok(self):
        trace = ConfigurationTrace(example_universe(), (config_k0(),))
        assert check_trace(trace).ok

    def test_empty_trace_rejected(self):
        with pytest.raises(StructuralError):
            ConfigurationTrace(example_universe(), ())

    @staticmethod
    def _corrupted_steps():
        """The example's steps with step 1's c2 mistyped, and its universe."""
        base = example_trace()
        bad_c2 = make_snapshot(
            "c2",
            local={"l0": {"4"}, "l1": {"C"}},
            inputs={"i0": {"G"}, "i1": {"Q"}, "i2": {"8"}},
            outputs={"o0": {"1"}},
        )
        k1 = base.steps[1]
        corrupted = ArchConfiguration(
            active=frozenset({s for s in k1.active if s.id != "c2"}) | {bad_c2},
            connection=k1.connection,
        )
        universe = ComponentUniverse(base.universe.snapshots | {bad_c2})
        return universe, (base.steps[0], corrupted, base.steps[2])

    def test_corrupted_step_reports_index(self):
        trace = ConfigurationTrace(*self._corrupted_steps())
        report = check_trace(trace)
        assert not report.ok
        assert {v.index for v in report.violations} == {1}

    def _repeating_trace(self):
        universe, (k0, corrupted, k2) = self._corrupted_steps()
        # A fresh equal copy: the trace interns it to the first one.
        again = ArchConfiguration(corrupted.active, dict(corrupted.connection))
        return ConfigurationTrace(universe, (k0, corrupted, k2, again, k0, corrupted))

    def test_repeated_invalid_step_reports_every_index(self):
        trace = self._repeating_trace()
        one = check_configuration(trace.universe, trace.steps[1]).violations
        assert one
        expected = [
            (v.code, v.subject, v.message, index)
            for index in (1, 3, 5)
            for v in one
        ]
        report = check_trace(trace)
        assert [(v.code, v.subject, v.message, v.index)
                for v in report.violations] == expected

    def test_each_distinct_configuration_is_checked_once(self, monkeypatch):
        import archcheck.model as model

        calls = []
        real = model.check_configuration

        def counting(universe, k):
            calls.append(k)
            return real(universe, k)

        monkeypatch.setattr(model, "check_configuration", counting)
        trace = self._repeating_trace()
        model.check_trace(trace)
        assert len(calls) == len(set(trace.steps)) == 3
