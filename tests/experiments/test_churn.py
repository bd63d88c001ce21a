"""Tests for the churn axis of the chaos sweep (membership churn vs
hardened recovery).

The faults = 0 row of :func:`run_chaos_sweep` is the churn sweep: every
cell draws the null fault schedule and a membership schedule of the
point's churn intensity.
"""

import json

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

ROW = {"faults": (0.0,), "churn": (0.0, 0.6)}


@pytest.fixture(scope="module")
def small_sweep():
    return run_chaos_sweep(seeds=(1,), num_routers=25, num_packets=6, **ROW)


class TestRunChurnSweep:
    def test_rejects_empty_grids(self):
        with pytest.raises(ValueError):
            run_chaos_sweep(seeds=(), churn=(0.6,))
        with pytest.raises(ValueError):
            run_chaos_sweep(churn=())

    def test_structure_and_gates(self, small_sweep):
        assert [(p.faults, p.churn) for p in small_sweep.points] == [
            (0.0, 0.0), (0.0, 0.6),
        ]
        assert small_sweep.protocols == ["RP", "SRM", "RMA", "SOURCE", "NEAREST"]
        for point in small_sweep.points:
            # one record per protocol x seed
            assert len(point.records) == 5
            # The faults = 0 row injects nothing.
            assert all(r.fault_counts == {} for r in point.records)
        # A departed member's suppressed transmission is an invariant
        # violation, so zero violations also means zero tx drops.
        for record in small_sweep.point(0.0, 0.6).records:
            assert record.member_counts.get("member.tx_drop", 0) == 0
        assert small_sweep.total_violations == 0
        assert small_sweep.gates_pass

    def test_zero_intensity_point_is_churn_free(self, small_sweep):
        baseline = small_sweep.point(0.0, 0.0)
        for record in baseline.records:
            assert record.member_counts == {}
            assert record.leaves == 0 and record.joins == 0
            assert record.repair_events == 0
            assert record.repair_quality_gap is None

    def test_churned_point_churns(self, small_sweep):
        churned = small_sweep.point(0.0, 0.6)
        assert any(record.leaves > 0 for record in churned.records)
        # Every protocol faces the identical schedule per seed.
        assert len({(r.seed, r.leaves, r.joins) for r in churned.records}) == 1

    def test_rp_repairs_incrementally(self, small_sweep):
        churned = small_sweep.point(0.0, 0.6)
        rp = [r for r in churned.records if r.protocol == "RP"]
        assert rp and all(r.repair_events > 0 for r in rp)
        for record in rp:
            assert record.repair_quality_gap is not None
            assert record.repair_quality_gap <= 0.01
            # Sublinearity smell at small scale: a compound event never
            # re-plans the whole group.
            assert 0.0 < record.repair_fraction < 1.0

    def test_render_mentions_every_protocol(self, small_sweep):
        text = small_sweep.render()
        for protocol in small_sweep.protocols:
            assert protocol in text
        assert "leaves" in text and "joins" in text
        assert "INVARIANT BROKEN" not in text
        assert "invariant violations: 0" in text

    def test_deterministic(self, small_sweep):
        again = run_chaos_sweep(seeds=(1,), num_routers=25, num_packets=6, **ROW)
        assert again.to_dict() == small_sweep.to_dict()


class TestSerialization:
    def test_round_trip(self, small_sweep, tmp_path):
        path = tmp_path / "churn.json"
        small_sweep.save(path)
        loaded = ChaosSweepResult.load(path)
        assert loaded.to_dict() == small_sweep.to_dict()
        assert loaded.point(0.0, 0.6).mean_latency(
            "RP"
        ) == small_sweep.point(0.0, 0.6).mean_latency("RP")

    def test_saved_artifact_excludes_wall_clock(self, small_sweep, tmp_path):
        # The saved sweep holds sim-time quantities only, so it stays
        # byte-identical across identical runs (the CI chaos smoke cmp's
        # two of them).
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        small_sweep.save(first)
        ChaosSweepResult.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()
        record = json.loads(first.read_text())["points"][1]["records"][0]
        assert not any("seconds" in key for key in record)

    def test_from_dict_rejects_wrong_kind(self):
        # A churn-sweep document saved before the sweeps merged is not
        # a chaos sweep.
        with pytest.raises(ValueError):
            ChaosSweepResult.from_dict({"kind": "churn-sweep"})

    def test_record_round_trips_none_latency(self):
        record = ChaosRunRecord(
            protocol="RP", seed=1, faults=0.0, churn=0.6,
            losses_detected=3, losses_recovered=2, losses_abandoned=1,
            avg_latency=None, recovery_hops=7, sim_time=100.0,
            fault_counts={},
            member_counts={"member.leave": 2, "member.join": 1},
            invariant_violations=0, repair_events=3, repair_replans=4,
            repair_fraction=0.1, repair_quality_gap=0.0,
        )
        result = ChaosSweepResult(
            seeds=[1], num_routers=10, num_packets=5, loss_prob=0.05,
            protocols=["RP"],
            points=[ChaosPoint(faults=0.0, churn=0.6, records=[record])],
        )
        restored = ChaosSweepResult.from_dict(result.to_dict())
        assert restored.points[0].records[0] == record


def test_churn_horizon_matches_chaos_horizon(monkeypatch):
    # Membership events are placed over the same horizon as fault
    # windows: chaos_horizon of the seed's scenario.
    horizons = {}
    real_faults = chaos.random_fault_schedule
    real_membership = chaos.random_membership_schedule

    def faults_spy(intensity, rng, candidates, links, horizon):
        horizons["faults"] = horizon
        return real_faults(intensity, rng, candidates, links, horizon)

    def membership_spy(intensity, rng, candidates, horizon):
        horizons["churn"] = horizon
        return real_membership(intensity, rng, candidates, horizon)

    monkeypatch.setattr(chaos, "random_fault_schedule", faults_spy)
    monkeypatch.setattr(chaos, "random_membership_schedule", membership_spy)
    run_chaos_sweep(
        seeds=(1,), faults=(0.0,), churn=(0.6,), num_routers=10,
        num_packets=20, factories=hardened_factories()[:1],
    )
    config = ScenarioConfig(seed=1, num_routers=10, loss_prob=0.05,
                            num_packets=20)
    assert horizons == {"faults": chaos_horizon(config),
                        "churn": chaos_horizon(config)}
    assert chaos_horizon(config) == 20 * 10.0 + 2 * 100.0
