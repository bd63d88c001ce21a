"""Tests for typed events, the bus fast path, and sinks."""

import json

import pytest

from repro.obs.events import (
    SOURCE_RANK,
    AttemptEvent,
    BackoffEvent,
    EventBus,
    PhaseEvent,
    TimerEvent,
    event_from_dict,
)
from repro.obs.sinks import JsonlSink, RingBufferSink, read_jsonl

ALL_EVENTS = [
    AttemptEvent(time=1.0, protocol="rp", client=7, seq=3, attempt=2,
                 rank=1, peer=12, status="timed_out", elapsed=40.0),
    AttemptEvent(time=2.0, protocol="rp", client=7, seq=3, attempt=3,
                 rank=SOURCE_RANK, peer=0, status="succeeded", elapsed=80.0),
    TimerEvent(time=3.0, protocol="srm", node=5, label="srm.request",
               action="armed", deadline=45.0),
    BackoffEvent(time=4.0, protocol="srm", node=5, seq=9, backoff=2),
    PhaseEvent(time=5.0, phase="session.complete", detail="30 packets"),
]


class TestEventRoundTrip:
    @pytest.mark.parametrize("event", ALL_EVENTS, ids=lambda e: e.kind)
    def test_to_dict_from_dict_identity(self, event):
        data = event.to_dict()
        assert data["kind"] == event.kind
        # The dict must survive JSON (what the JSONL sink writes).
        restored = event_from_dict(json.loads(json.dumps(data)))
        assert restored == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            event_from_dict({"kind": "mystery", "time": 0.0})


class TestEventBus:
    def test_no_sinks_is_inactive(self):
        assert not EventBus().active

    def test_ring_sink_activates_bus(self):
        assert EventBus([RingBufferSink()]).active

    def test_emit_fans_out(self):
        a, b = RingBufferSink(), RingBufferSink()
        bus = EventBus([a, b])
        bus.emit(ALL_EVENTS[0])
        assert a.events() == [ALL_EVENTS[0]]
        assert b.events() == [ALL_EVENTS[0]]


class TestRingBufferSink:
    def test_keeps_last_capacity_events(self):
        ring = RingBufferSink(capacity=3)
        for event in ALL_EVENTS:
            ring.write(event)
        assert len(ring) == 3
        assert ring.events() == ALL_EVENTS[-3:]
        assert ring.dropped == len(ALL_EVENTS) - 3

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestJsonlSink:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            for event in ALL_EVENTS:
                sink.write(event)
        assert list(read_jsonl(path)) == ALL_EVENTS

    def test_every_line_is_standalone_json(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            for event in ALL_EVENTS:
                sink.write(event)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(ALL_EVENTS)
        for line in lines:
            assert "kind" in json.loads(line)

    def test_write_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "events.jsonl")
        sink.close()
        with pytest.raises(ValueError):
            sink.write(ALL_EVENTS[0])
        sink.close()  # idempotent

    def test_flush_every_n_hits_disk_mid_run(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path, flush_every=2)
        sink.write(ALL_EVENTS[0])
        sink.write(ALL_EVENTS[1])  # second write triggers the flush
        sink.write(ALL_EVENTS[2])  # buffered again
        lines = path.read_text().strip().splitlines()
        assert len(lines) >= 2  # the flushed prefix is already durable
        sink.close()
        assert list(read_jsonl(path)) == ALL_EVENTS[:3]

    def test_rejects_negative_flush_every(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink(tmp_path / "events.jsonl", flush_every=-1)

    def test_context_manager_closes_on_mid_run_exception(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with pytest.raises(RuntimeError):
            with JsonlSink(path) as sink:
                for event in ALL_EVENTS[:3]:
                    sink.write(event)
                raise RuntimeError("simulation crashed mid-run")
        # __exit__ flushed and closed: every completed record is on disk
        # and parseable, and the sink refuses further writes.
        assert list(read_jsonl(path)) == ALL_EVENTS[:3]
        with pytest.raises(ValueError):
            sink.write(ALL_EVENTS[3])
