"""Tests for the chaos sweep (faults x churn vs hardened recovery)."""

import pytest

from repro.experiments import chaos
from repro.experiments.chaos import (
    ChaosPoint,
    ChaosRunRecord,
    ChaosSweepResult,
    chaos_horizon,
    hardened_factories,
    run_chaos_sweep,
)
from repro.experiments.config import ScenarioConfig

GRID = {"faults": (0.0, 0.5), "churn": (0.0, 0.6)}


@pytest.fixture(scope="module")
def small_sweep():
    return run_chaos_sweep(seeds=(1,), num_routers=25, num_packets=6, **GRID)


class TestHardenedFactories:
    def test_covers_all_five_protocols(self):
        names = [f.name for f in hardened_factories()]
        assert names == ["RP", "SRM", "RMA", "SOURCE", "NEAREST"]
        assert len(set(names)) == 5

    def test_policies_are_hardened(self):
        for factory in hardened_factories():
            if factory.name == "SRM":
                assert factory.config.max_request_rounds > 0
            else:
                assert not factory.config.recovery_policy.is_default


class TestRunChaosSweep:
    def test_rejects_empty_grids(self):
        with pytest.raises(ValueError):
            run_chaos_sweep(seeds=())
        with pytest.raises(ValueError):
            run_chaos_sweep(faults=())
        with pytest.raises(ValueError):
            run_chaos_sweep(churn=())

    def test_structure_and_zero_violations(self, small_sweep):
        assert [(p.faults, p.churn) for p in small_sweep.points] == [
            (0.0, 0.0), (0.0, 0.6), (0.5, 0.0), (0.5, 0.6),
        ]
        assert small_sweep.protocols == ["RP", "SRM", "RMA", "SOURCE", "NEAREST"]
        for point in small_sweep.points:
            # one record per protocol x seed
            assert len(point.records) == 5
        # The acceptance gate: no invariant broken anywhere.
        assert small_sweep.total_violations == 0
        assert small_sweep.gates_pass

    def test_zero_intensity_point_is_fault_free(self, small_sweep):
        baseline = small_sweep.point(0.0, 0.0)
        for record in baseline.records:
            assert record.fault_counts == {}
            assert record.member_counts == {}
            assert record.losses_abandoned == 0
            assert record.losses_detected == record.losses_recovered
            assert record.repair_events == 0
            assert record.repair_quality_gap is None

    def test_faulted_point_injects_faults(self, small_sweep):
        faulted = small_sweep.point(0.5, 0.0)
        assert any(record.total_faults > 0 for record in faulted.records)
        assert all(record.member_counts == {} for record in faulted.records)

    def test_point_aggregates(self, small_sweep):
        point = small_sweep.point(0.0, 0.0)
        for protocol in small_sweep.protocols:
            assert point.abandonment_rate(protocol) == 0.0
            assert point.violations(protocol) == 0

    def test_render_mentions_every_protocol(self, small_sweep):
        text = small_sweep.render()
        for protocol in small_sweep.protocols:
            assert protocol in text
        assert "invariant violations: 0" in text
        assert "INVARIANT BROKEN" not in text

    def test_deterministic(self, small_sweep):
        again = run_chaos_sweep(seeds=(1,), num_routers=25, num_packets=6, **GRID)
        assert again.to_dict() == small_sweep.to_dict()


def test_composed_cell_faults_and_churn_together(monkeypatch):
    seen = []
    real = chaos.run_protocol_detailed

    def spy(built, factory, *, faults, membership):
        seen.append((faults, membership))
        return real(built, factory, faults=faults, membership=membership)

    monkeypatch.setattr(chaos, "run_protocol_detailed", spy)
    sweep = run_chaos_sweep(
        seeds=(1,), faults=(0.5,), churn=(0.6,), num_routers=25, num_packets=6
    )
    records = sweep.point(0.5, 0.6).records
    # Faults are injected and members churn within the same run.
    assert any(r.total_faults > 0 and r.leaves > 0 for r in records)
    # Every protocol faces the same fault and membership schedule.
    assert len(seen) == 5
    assert all(pair == seen[0] for pair in seen)
    assert not seen[0][0].is_null and not seen[0][1].is_null
    assert sweep.gates_pass


class TestSerialization:
    def test_round_trip(self, small_sweep, tmp_path):
        path = tmp_path / "chaos.json"
        small_sweep.save(path)
        loaded = ChaosSweepResult.load(path)
        assert loaded.to_dict() == small_sweep.to_dict()
        assert loaded.point(0.5, 0.6).mean_latency(
            "RP"
        ) == small_sweep.point(0.5, 0.6).mean_latency("RP")

    def test_from_dict_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            ChaosSweepResult.from_dict({"kind": "sweep"})

    def test_record_round_trips_none_latency(self):
        record = ChaosRunRecord(
            protocol="RP", seed=1, faults=0.5, churn=0.6,
            losses_detected=3, losses_recovered=2, losses_abandoned=1,
            avg_latency=None, recovery_hops=7, sim_time=100.0,
            fault_counts={"burst.drop": 2},
            member_counts={"member.leave": 2, "member.join": 1},
            invariant_violations=0, repair_events=3, repair_replans=4,
            repair_fraction=0.1, repair_quality_gap=0.0,
        )
        result = ChaosSweepResult(
            seeds=[1], num_routers=10, num_packets=5, loss_prob=0.05,
            protocols=["RP"],
            points=[ChaosPoint(faults=0.5, churn=0.6, records=[record])],
        )
        restored = ChaosSweepResult.from_dict(result.to_dict())
        assert restored.points[0].records[0] == record


def test_chaos_horizon_covers_stream_and_session():
    config = ScenarioConfig(seed=1, num_routers=10, loss_prob=0.05,
                            num_packets=20)
    horizon = chaos_horizon(config)
    assert horizon == 20 * 10.0 + 2 * 100.0
    assert horizon < config.num_packets * config.data_interval + \
        config.drain_time + 2 * config.session_interval
