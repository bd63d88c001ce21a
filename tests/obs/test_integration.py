"""End-to-end telemetry checks against a real instrumented RP run.

One fixed-seed scenario is run once per module; every test inspects the
same artifacts.  The key invariants: the attempt-event stream is
consistent with the RecoveryLog ground truth (same recoveries, same
latencies), every event survives the JSONL round trip, and wiring the
instrumentation in does not perturb the simulation itself.
"""

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario, run_protocol_detailed
from repro.obs import Instrumentation
from repro.obs.events import AttemptEvent
from repro.obs.sinks import read_jsonl
from repro.protocols.rp import RPProtocolFactory

CONFIG = ScenarioConfig(seed=3, num_routers=40, loss_prob=0.08, num_packets=10)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    jsonl = tmp_path_factory.mktemp("obs") / "events.jsonl"
    built = build_scenario(CONFIG)
    instr = Instrumentation.recording(jsonl_path=jsonl)
    artifacts = run_protocol_detailed(
        built, RPProtocolFactory(), instrumentation=instr
    )
    instr.close()
    return artifacts, instr, jsonl


def _attempts(instr):
    return [e for e in instr.ring_events() if isinstance(e, AttemptEvent)]


class TestAttemptStream:
    def test_scenario_actually_exercises_recovery(self, run):
        artifacts, _, _ = run
        assert artifacts.summary.losses_detected > 0
        assert artifacts.summary.fully_recovered

    def test_one_started_event_per_request_counter(self, run):
        artifacts, instr, _ = run
        started = [e for e in _attempts(instr) if e.status == "started"]
        assert started
        assert artifacts.obs.counters["rp.attempts.started"] == len(started)

    def test_succeeded_events_match_recovery_log(self, run):
        artifacts, instr, _ = run
        log = artifacts.log
        succeeded = [e for e in _attempts(instr) if e.status == "succeeded"]
        # Exactly one success event per recovered loss...
        keys = [(e.client, e.seq) for e in succeeded]
        assert len(keys) == len(set(keys)) == log.num_recovered
        for client, seq in keys:
            assert log.is_recovered(client, seq)
        # ...and its elapsed time IS that loss's recovery latency.
        assert sorted(e.elapsed for e in succeeded) == pytest.approx(
            sorted(log.latencies())
        )

    def test_success_attempt_index_counts_started_events(self, run):
        _, instr, _ = run
        started_per_key: dict[tuple[int, int], int] = {}
        for e in _attempts(instr):
            if e.status == "started":
                key = (e.client, e.seq)
                started_per_key[key] = started_per_key.get(key, 0) + 1
            elif e.status == "succeeded":
                assert e.attempt == started_per_key[(e.client, e.seq)]

    def test_report_built_from_same_stream(self, run):
        artifacts, _, _ = run
        report = artifacts.obs
        assert report is not None
        assert report.protocol == "rp"
        assert report.recoveries == artifacts.summary.losses_recovered
        assert sum(report.attempts_per_recovery.values()) == report.recoveries
        # RP supplies strategies, so list ranks carry model predictions.
        v_ranks = [r for r in report.per_rank if r.rank >= 0]
        assert v_ranks
        for r in v_ranks:
            assert r.predicted is None or 0.0 <= r.predicted <= 1.0


class TestJsonlStream:
    def test_file_holds_every_event(self, run):
        _, instr, jsonl = run
        assert list(read_jsonl(jsonl)) == instr.ring_events()

    def test_every_attempt_parseable(self, run):
        _, instr, jsonl = run
        from_file = [
            e for e in read_jsonl(jsonl) if isinstance(e, AttemptEvent)
        ]
        assert from_file == _attempts(instr)
        assert from_file  # the run produced attempts at all


class TestDeterminism:
    def test_instrumentation_does_not_perturb_the_run(self, run):
        artifacts, _, _ = run
        plain = run_protocol_detailed(build_scenario(CONFIG), RPProtocolFactory())
        # events_processed is a harness metric, not a simulated outcome:
        # the tracer's link observer makes the instrumented run take the
        # scalar dissemination path (one event per hop) where the plain
        # run takes the array fast path (one event per delivery).  Every
        # simulated quantity must still match exactly.
        import dataclasses

        assert dataclasses.replace(
            plain.summary, events_processed=artifacts.summary.events_processed
        ) == artifacts.summary
        assert plain.obs is None
