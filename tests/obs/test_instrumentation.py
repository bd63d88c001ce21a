"""Tests for the Instrumentation facade, profiler, and report folding."""

import pytest

from repro.obs import (
    NULL_INSTRUMENTATION,
    SOURCE_RANK,
    Instrumentation,
    ObsReport,
    build_obs_report,
)
from repro.obs.events import AttemptEvent
from repro.obs.profiler import Profiler


class TestProfiler:
    def test_scope_accumulates(self):
        prof = Profiler()
        with prof.scope("work"):
            pass
        with prof.scope("work"):
            pass
        stat = prof.stats()["work"]
        assert stat.count == 2
        assert stat.total >= 0.0
        assert prof.total("work") == stat.total

    def test_disabled_scope_records_nothing(self):
        prof = Profiler(enabled=False)
        with prof.scope("work"):
            pass
        assert prof.stats() == {}
        assert prof.total("work") == 0.0

    def test_top_ranked_by_total(self):
        prof = Profiler()
        prof.add("cheap", 0.001)
        prof.add("hot", 1.0, count=10)
        assert [s.name for s in prof.top(2)] == ["hot", "cheap"]
        assert prof.stats()["hot"].mean == pytest.approx(0.1)


class TestRunnerTimers:
    def test_events_run_counts_every_dispatched_event(self):
        # The runner times its two event-loop passes (to completion,
        # then the drain); the event queue itself times nothing.
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.runner import (
            build_scenario,
            run_protocol_detailed,
        )
        from repro.protocols.srm import SRMProtocolFactory

        built = build_scenario(
            ScenarioConfig(seed=2, num_routers=20, loss_prob=0.1, num_packets=5)
        )
        instr = Instrumentation.recording()
        artifacts = run_protocol_detailed(
            built, SRMProtocolFactory(), instrumentation=instr
        )
        stats = instr.profiler.stats()
        assert stats["events.run"].count == artifacts.summary.events_processed
        assert "engine.compact" not in stats


class TestFacade:
    def test_null_is_shared_and_disabled(self, monkeypatch):
        # A plain Instrumentation with no sinks and the profiler off.
        assert type(NULL_INSTRUMENTATION) is Instrumentation
        assert not NULL_INSTRUMENTATION.bus.active
        assert not NULL_INSTRUMENTATION.profiler.enabled
        self._assert_emits_leave_no_trace(NULL_INSTRUMENTATION, monkeypatch)

    def test_noop_counts_but_stores_no_events(self, monkeypatch):
        # A fresh sinkless Instrumentation behaves like the shared null
        # one: counters are folded from recorded events, so with nothing
        # recorded the report counts nothing and no record is built.
        instr = Instrumentation(profiler=Profiler(enabled=False))
        assert instr is not NULL_INSTRUMENTATION
        assert not instr.bus.active
        assert not instr.profiler.enabled
        self._assert_emits_leave_no_trace(instr, monkeypatch)

    @staticmethod
    def _assert_emits_leave_no_trace(instr, monkeypatch):
        # Emitting through it builds no record and leaves nothing
        # recorded anywhere.
        from repro.obs import instrumentation

        def unbuilt(**fields):
            raise AssertionError("a sinkless emit built a record")

        for record in (
            "AttemptEvent", "TimerEvent", "BackoffEvent", "FaultEvent",
            "MemberEvent", "PhaseEvent",
        ):
            monkeypatch.setattr(instrumentation, record, unbuilt)
        instr.attempt(0.0, "rp", 1, 0, 1, 0, 2, "started")
        instr.timer(0.0, "rp", 1, "rp.request", "armed", deadline=40.0)
        instr.backoff(0.0, "srm", 5, 9, 1)
        instr.fault(0.0, "peer.dead", node=3)
        instr.member(0.0, "member.leave", node=3)
        instr.phase(0.0, "session.complete")
        with instr.scope("work"):
            pass
        assert instr.ring_events() == []
        assert instr.profiler.stats() == {}
        assert build_obs_report(instr).counters == {}

    def test_recording_captures_typed_events(self):
        instr = Instrumentation.recording(capacity=16)
        instr.attempt(1.0, "rp", 7, 3, 1, 0, 12, "started")
        instr.attempt(41.0, "rp", 7, 3, 1, 0, 12, "timed_out", elapsed=40.0)
        instr.timer(1.0, "rp", 7, "rp.request", "armed", deadline=41.0)
        instr.backoff(2.0, "srm", 5, 9, 1)
        instr.phase(99.0, "session.complete")
        events = instr.ring_events()
        assert [e.kind for e in events] == [
            "attempt", "attempt", "timer", "backoff", "phase"
        ]
        assert events[1].elapsed == 40.0
        instr.fault(3.0, "peer.dead", node=12)
        instr.member(4.0, "member.leave", node=7)
        instr.member(4.0, "plan.repair", node=7)
        counters = build_obs_report(instr).counters
        assert list(counters) == sorted(counters)
        assert counters == {
            "fault.peer.dead": 1,
            "member.leave": 1,
            "phase.session.complete": 1,
            "plan.repair": 1,
            "rp.attempts.started": 1,
            "rp.attempts.timed_out": 1,
            "rp.timers.armed": 1,
            "srm.backoffs": 1,
        }

    def test_recording_streams_to_jsonl(self, tmp_path):
        from repro.obs.sinks import read_jsonl

        path = tmp_path / "events.jsonl"
        instr = Instrumentation.recording(jsonl_path=path)
        instr.attempt(1.0, "rp", 7, 3, 1, 0, 12, "started")
        instr.close()
        assert list(read_jsonl(path)) == instr.ring_events()


def _attempt(time, client, seq, attempt, rank, status, elapsed=0.0):
    return AttemptEvent(
        time=time, protocol="rp", client=client, seq=seq, attempt=attempt,
        rank=rank, peer=0, status=status, elapsed=elapsed,
    )


class TestBuildReport:
    def _instr_with(self, events):
        instr = Instrumentation.recording(capacity=64)
        for event in events:
            instr.bus.emit(event)
        return instr

    def test_folds_attempt_outcomes(self):
        # Client 7 seq 3: v1 times out, source succeeds (2 attempts).
        # Client 8 seq 1: v1 succeeds first try.
        instr = self._instr_with([
            _attempt(0.0, 7, 3, 1, 0, "started"),
            _attempt(40.0, 7, 3, 1, 0, "timed_out", elapsed=40.0),
            _attempt(40.0, 7, 3, 2, SOURCE_RANK, "started"),
            _attempt(90.0, 7, 3, 2, SOURCE_RANK, "succeeded", elapsed=90.0),
            _attempt(0.0, 8, 1, 1, 0, "started"),
            _attempt(30.0, 8, 1, 1, 0, "succeeded", elapsed=30.0),
        ])
        report = build_obs_report(instr, protocol="rp")
        assert report.recoveries == 2
        assert report.attempts_total == 3
        assert report.attempts_by_status == {
            "started": 3, "timed_out": 1, "succeeded": 2
        }
        assert report.attempts_per_recovery == {1: 1, 2: 1}
        assert report.mean_attempts_per_recovery == pytest.approx(1.5)
        # v1 first, source last.
        assert [r.label for r in report.per_rank] == ["v1", "source"]
        v1, source = report.per_rank
        assert (v1.attempts, v1.successes, v1.timeouts) == (2, 1, 1)
        assert v1.success_rate == pytest.approx(0.5)
        assert (source.attempts, source.successes) == (1, 1)
        # Started-to-terminal times, paired by (client, seq, attempt).
        assert v1.total_time == pytest.approx(70.0)
        assert v1.mean_time == pytest.approx(35.0)
        assert source.total_time == pytest.approx(50.0)
        # Detection-to-repair latency of the two recovered losses.
        assert report.mean_latency == pytest.approx(60.0)
        assert report.planned_delay is None  # no strategies supplied

    def test_success_rate_ignores_undecided_attempts(self):
        # A retracted attempt (a third party's repair arrived first) is
        # neither a success nor a failure of its rank.
        instr = self._instr_with([
            _attempt(0.0, 7, 3, 1, 0, "started"),
            _attempt(10.0, 7, 3, 1, 0, "retracted", elapsed=10.0),
            _attempt(0.0, 8, 1, 1, 0, "started"),
            _attempt(30.0, 8, 1, 1, 0, "succeeded", elapsed=30.0),
        ])
        (v1,) = build_obs_report(instr, protocol="rp").per_rank
        assert (v1.attempts, v1.decided) == (2, 1)
        assert v1.success_rate == 1.0
        assert v1.mean_time == pytest.approx(20.0)

    def test_report_round_trips_through_json(self):
        import json

        instr = self._instr_with([
            _attempt(0.0, 7, 3, 1, 0, "started"),
            _attempt(30.0, 7, 3, 1, 0, "succeeded", elapsed=30.0),
        ])
        report = build_obs_report(instr, protocol="rp")
        data = json.loads(json.dumps(report.to_dict()))
        restored = ObsReport.from_dict(data)
        assert restored == report
        assert "rp attempt-level breakdown" in restored.render()

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(ValueError):
            ObsReport.from_dict({"schema": 999})

    def test_empty_run_renders(self):
        report = build_obs_report(Instrumentation.recording(), protocol="rp")
        assert report.recoveries == 0
        assert report.mean_attempts_per_recovery is None
        assert "recoveries: 0" in report.render()

    def test_ring_drops_surface_in_report(self):
        instr = Instrumentation.recording(capacity=4)
        for seq in range(4):
            instr.bus.emit(_attempt(float(seq), 7, seq, 1, 0, "started"))
        report = build_obs_report(instr, protocol="rp")
        assert report.events_dropped == 0
        assert "WARNING" not in report.render()
        for seq in range(4, 7):
            instr.bus.emit(_attempt(float(seq), 7, seq, 1, 0, "started"))
        report = build_obs_report(instr, protocol="rp")
        assert report.events_dropped == 3
        assert "ring buffer dropped 3 events" in report.render()
        assert report.to_dict()["events_dropped"] == 3

    def test_from_dict_tolerates_predrop_reports(self):
        instr = self._instr_with([
            _attempt(0.0, 7, 3, 1, 0, "started"),
            _attempt(30.0, 7, 3, 1, 0, "succeeded", elapsed=30.0),
        ])
        data = build_obs_report(instr, protocol="rp").to_dict()
        del data["events_dropped"]  # a report saved before the counter
        assert ObsReport.from_dict(data).events_dropped == 0

    def test_load_tolerates_reports_without_time_and_model_fields(
        self, tmp_path
    ):
        import json

        from repro.experiments.persistence import load_obs_report

        instr = self._instr_with([
            _attempt(0.0, 7, 3, 1, 0, "started"),
            _attempt(30.0, 7, 3, 1, 0, "succeeded", elapsed=30.0),
        ])
        data = build_obs_report(instr, protocol="rp").to_dict()
        # A report saved before attempt times and eq.-1/eq.-3 fields.
        del data["mean_latency"], data["planned_delay"]
        for raw in data["per_rank"]:
            del raw["total_time"], raw["predicted_cost"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data))
        report = load_obs_report(path)
        (v1,) = report.per_rank
        assert (v1.attempts, v1.successes) == (1, 1)
        assert v1.total_time == 0.0 and v1.predicted_cost is None
        assert report.mean_latency is None and report.planned_delay is None
        assert "per-rank attempts vs model" in report.render()


#: ``ObsReport.counters`` (minus the plan-cache pair) of two runs at 40
#: routers, seed 1, 10 packets: hardened RP under a 0.5-intensity fault
#: schedule and 0.5 churn (the chaos sweep's schedule lanes), and plain
#: SRM.  Recorded while the counts were still bumped at every emit; the
#: report's fold over the recorded events must give the same numbers.
GOLDEN_COUNTERS = {
    "rp": {
        "fault.blackhole.repair": 3,
        "fault.blackhole.request": 10,
        "fault.burst.drop": 327,
        "fault.crash.rx_drop": 7,
        "fault.crash.tx_drop": 2,
        "fault.link.down_drop": 1,
        "fault.peer.dead": 4,
        "fault.recovery.abandoned": 2,
        "member.join": 4,
        "member.leave": 4,
        "member.rx_drop": 3,
        "phase.session.complete": 1,
        "phase.session.drained": 1,
        "phase.stream.end": 1,
        "phase.stream.start": 1,
        "plan.repair": 8,
        "rp.attempts.abandoned": 2,
        "rp.attempts.started": 147,
        "rp.attempts.succeeded": 55,
        "rp.attempts.timed_out": 91,
        "rp.backoffs": 71,
        "rp.timers.armed": 147,
        "rp.timers.cancelled": 56,
        "rp.timers.fired": 91,
    },
    "srm": {
        "phase.session.complete": 1,
        "phase.session.drained": 1,
        "phase.stream.end": 1,
        "phase.stream.start": 1,
        "srm.attempts.started": 12,
        "srm.attempts.succeeded": 22,
        "srm.backoffs": 35,
        "srm.timers.armed": 197,
        "srm.timers.cancelled": 109,
        "srm.timers.fired": 65,
    },
}


class TestGoldenCounters:
    @pytest.fixture(scope="class")
    def counters(self):
        from repro.experiments.chaos import chaos_horizon, hardened_factories
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.runner import (
            build_scenario,
            run_protocol_detailed,
        )
        from repro.protocols.srm import SRMProtocolFactory
        from repro.sim.faults import random_fault_schedule
        from repro.sim.membership import random_membership_schedule
        from repro.sim.rng import RngStreams

        config = ScenarioConfig(
            seed=1, num_routers=40, loss_prob=0.05, num_packets=10,
            lossless_recovery=False,
        )
        built = build_scenario(config)
        horizon = chaos_horizon(config)
        candidates = [c for c in built.tree.clients if c != built.tree.root]
        lanes = RngStreams(config.seed)
        faults = random_fault_schedule(
            0.5, lanes.get("fault-schedule:0.5"), candidates,
            built.topology.links, horizon,
        )
        membership = random_membership_schedule(
            0.5, lanes.get("membership-schedule:0.5"), candidates, horizon
        )
        rp = next(f for f in hardened_factories() if f.name == "RP")
        runs = {
            "rp": (rp, {"faults": faults, "membership": membership}),
            "srm": (SRMProtocolFactory(), {}),
        }
        out = {}
        for name, (factory, perturbations) in runs.items():
            artifacts = run_protocol_detailed(
                built, factory,
                instrumentation=Instrumentation.recording(profile=False),
                **perturbations,
            )
            out[name] = {
                k: v for k, v in artifacts.obs.counters.items()
                if not k.startswith("plan.cache.")
            }
        return out

    @pytest.mark.parametrize("protocol", sorted(GOLDEN_COUNTERS))
    def test_counters_match_the_pinned_run(self, counters, protocol):
        assert counters[protocol] == GOLDEN_COUNTERS[protocol]
