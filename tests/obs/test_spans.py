"""Unit tests for the span model and the causal tracer."""

import pytest

from repro.obs.events import (
    AttemptEvent,
    BackoffEvent,
    EventBus,
    FaultEvent,
    TimerEvent,
)
from repro.obs.instrumentation import Instrumentation
from repro.obs.sinks import RingBufferSink
from repro.obs.spans import (
    CATEGORY_ATTEMPT,
    CATEGORY_LINK,
    CATEGORY_RECOVERY,
    NO_SPAN,
    Span,
    SpanStore,
)
from repro.obs.tracing import Tracer, sample_hash
from repro.sim.packet import PacketKind
from repro.sim.trace import TraceEvent, TraceKind


def _link(kind, packet_kind, trace_id, span_id, *, time=0.0, node=0, peer=1,
          seq=0, delay=1.0):
    return TraceEvent(
        time=time, kind=kind, packet_kind=packet_kind, seq=seq, origin=node,
        node=node, peer=peer, trace_id=trace_id, span_id=span_id, delay=delay,
    )


class TestSpan:
    def test_duration_and_annotate(self):
        span = Span(0, 1, NO_SPAN, "recovery", CATEGORY_RECOVERY, start=5.0)
        assert span.duration == 0.0
        span.end = 9.0
        assert span.duration == 4.0
        span.annotate(6.0, "fault.crash", node=3)
        assert span.annotations == [
            {"time": 6.0, "label": "fault.crash", "node": 3}
        ]

    def test_dict_round_trip(self):
        span = Span(
            2, 7, 3, "attempt[1]", CATEGORY_ATTEMPT, start=1.0, end=2.5,
            node=9, attrs={"rank": 1}, annotations=[{"time": 1.5, "label": "x"}],
        )
        assert Span.from_dict(span.to_dict()) == span


class TestSpanStore:
    def test_roots_and_by_trace(self):
        store = SpanStore()
        root = Span(0, 0, NO_SPAN, "recovery", CATEGORY_RECOVERY, 0.0)
        child = Span(0, 1, 0, "attempt[0]", CATEGORY_ATTEMPT, 0.0)
        store.add_trace([root, child])
        other = Span(1, 2, NO_SPAN, "recovery", CATEGORY_RECOVERY, 5.0)
        store.add_trace([other])
        assert len(store) == 3
        assert store.roots() == [root, other]
        assert store.by_trace() == {0: [root, child], 1: [other]}


class TestSampleHash:
    def test_deterministic_and_uniform_ish(self):
        values = [sample_hash(c, s) for c in range(40) for s in range(40)]
        assert values == [sample_hash(c, s) for c in range(40) for s in range(40)]
        assert all(0.0 <= v < 1.0 for v in values)
        # Crude uniformity: roughly half below 0.5.
        below = sum(v < 0.5 for v in values)
        assert 0.4 < below / len(values) < 0.6


class TestTracerLifecycle:
    def test_rejects_bad_sample_rate(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)

    def test_root_backdated_to_detection(self):
        tracer = Tracer()
        tracer.write(AttemptEvent(10.0, "rp", 3, 1, 1, 0, 7, "started", 2.0))
        tracer.write(AttemptEvent(14.0, "rp", 3, 1, 1, 0, 7, "succeeded", 6.0))
        spans = tracer.store.spans()
        root = next(s for s in spans if s.category == CATEGORY_RECOVERY)
        assert root.start == 8.0  # detection, not first send
        assert root.end == 14.0
        assert root.attrs["status"] == "succeeded"

    def test_attempt_tree_shape(self):
        tracer = Tracer()
        tracer.write(AttemptEvent(0.0, "rp", 3, 1, 1, 0, 7, "started", 0.0))
        tracer.write(AttemptEvent(5.0, "rp", 3, 1, 1, 0, 7, "timed_out", 5.0))
        tracer.write(AttemptEvent(5.0, "rp", 3, 1, 2, -1, 9, "started", 5.0))
        tracer.write(AttemptEvent(8.0, "rp", 3, 1, 2, -1, 9, "succeeded", 8.0))
        spans = tracer.store.spans()
        root = next(s for s in spans if s.category == CATEGORY_RECOVERY)
        attempts = [s for s in spans if s.category == CATEGORY_ATTEMPT]
        assert [a.name for a in attempts] == ["attempt[0]", "source_fallback"]
        assert all(a.parent_id == root.span_id for a in attempts)
        assert attempts[0].attrs["status"] == "timed_out"
        assert attempts[1].attrs["status"] == "succeeded"

    def test_context_follows_current_attempt(self):
        tracer = Tracer()
        assert tracer.ids(3, 1) == (NO_SPAN, NO_SPAN)
        tracer.write(AttemptEvent(0.0, "rp", 3, 1, 1, 0, 7, "started", 0.0))
        trace_id, first_span = tracer.ids(3, 1)
        assert trace_id != NO_SPAN and first_span != NO_SPAN
        tracer.write(AttemptEvent(5.0, "rp", 3, 1, 1, 0, 7, "timed_out", 5.0))
        # Between attempts the root is the context.
        _, between = tracer.ids(3, 1)
        assert between != first_span
        tracer.write(AttemptEvent(5.0, "rp", 3, 1, 2, 1, 8, "started", 5.0))
        _, second = tracer.ids(3, 1)
        assert second not in (first_span, between)

    def test_terminal_without_start_is_ignored(self):
        tracer = Tracer()
        tracer.write(AttemptEvent(4.0, "srm", 3, 1, 0, 0, -1, "retracted", 4.0))
        assert len(tracer.store) == 0
        assert tracer.traces_started == 0

    def test_finish_promotes_unterminated(self):
        tracer = Tracer(sample_rate=0.0)
        tracer.write(AttemptEvent(0.0, "rp", 3, 1, 1, 0, 7, "started", 0.0))
        tracer.finish(50.0)
        roots = tracer.store.roots()
        assert len(roots) == 1
        assert roots[0].attrs["status"] == "unterminated"
        assert roots[0].end == 50.0


class TestTracerSampling:
    def test_sampled_out_counted(self):
        tracer = Tracer(sample_rate=0.0)
        tracer.write(AttemptEvent(0.0, "rp", 3, 1, 1, 0, 7, "started", 0.0))
        tracer.write(AttemptEvent(4.0, "rp", 3, 1, 1, 0, 7, "succeeded", 4.0))
        assert len(tracer.store) == 0
        assert tracer.store.sampled_out == 1
        assert tracer.traces_started == 1

    def test_abandonment_always_kept(self):
        tracer = Tracer(sample_rate=0.0)
        tracer.write(AttemptEvent(0.0, "rp", 3, 1, 1, 0, 7, "started", 0.0))
        tracer.write(AttemptEvent(9.0, "rp", 3, 1, 1, 0, 7, "abandoned", 9.0))
        assert len(tracer.store.roots()) == 1
        assert tracer.store.sampled_out == 0

    def test_abnormal_keep_can_be_disabled(self):
        tracer = Tracer(sample_rate=0.0, always_sample_abnormal=False)
        tracer.write(AttemptEvent(0.0, "rp", 3, 1, 1, 0, 7, "started", 0.0))
        tracer.write(AttemptEvent(9.0, "rp", 3, 1, 1, 0, 7, "abandoned", 9.0))
        assert len(tracer.store) == 0
        assert tracer.store.sampled_out == 1

    def test_fault_promotes_unsampled_trace(self):
        tracer = Tracer(sample_rate=0.0)
        tracer.write(AttemptEvent(0.0, "rp", 3, 1, 1, 0, 7, "started", 0.0))
        tracer.write(FaultEvent(2.0, "blackhole.request", 3, -1, 1))
        tracer.write(AttemptEvent(4.0, "rp", 3, 1, 1, 0, 7, "succeeded", 4.0))
        roots = tracer.store.roots()
        assert len(roots) == 1


class TestTracerLinkEvents:
    def _started(self, tracer):
        tracer.write(AttemptEvent(0.0, "rp", 3, 1, 1, 0, 7, "started", 0.0))
        return tracer.ids(3, 1)

    def test_transmit_becomes_link_span(self):
        tracer = Tracer()
        trace_id, span_id = self._started(tracer)
        tracer.on_link_event(_link(
            TraceKind.TRANSMIT, PacketKind.REQUEST, trace_id, span_id,
            time=1.0, node=5, peer=3, delay=2.0,
        ))
        tracer.write(AttemptEvent(6.0, "rp", 3, 1, 1, 0, 7, "succeeded", 6.0))
        links = [
            s for s in tracer.store.spans() if s.category == CATEGORY_LINK
        ]
        assert len(links) == 1
        link = links[0]
        assert link.name == "xmit.request"
        assert link.parent_id == span_id
        assert (link.start, link.end) == (1.0, 3.0)
        assert "dropped" not in link.attrs

    def test_drop_marked_and_zero_length(self):
        tracer = Tracer()
        trace_id, span_id = self._started(tracer)
        tracer.on_link_event(_link(
            TraceKind.DROP, PacketKind.REQUEST, trace_id, span_id, time=1.5,
        ))
        tracer.write(AttemptEvent(6.0, "rp", 3, 1, 1, 0, 7, "succeeded", 6.0))
        link = next(
            s for s in tracer.store.spans() if s.category == CATEGORY_LINK
        )
        assert link.attrs["dropped"] is True
        assert link.start == link.end == 1.5

    def test_repair_delivery_annotates_only_the_client(self):
        tracer = Tracer()
        trace_id, span_id = self._started(tracer)
        # Repair heard by a bystander: no annotation.
        tracer.on_link_event(_link(
            TraceKind.DELIVER, PacketKind.REPAIR, trace_id, span_id,
            time=3.0, node=9, delay=0.0,
        ))
        # Repair landing at the requesting client (3): annotated.
        tracer.on_link_event(_link(
            TraceKind.DELIVER, PacketKind.REPAIR, trace_id, span_id,
            time=4.0, node=3, delay=0.0,
        ))
        attempt = next(
            s for s in tracer.store._spans + list(tracer._by_trace.values())[0].spans
            if s.category == CATEGORY_ATTEMPT
        )
        labels = [a["label"] for a in attempt.annotations]
        assert labels == ["deliver.repair"]

    def test_request_delivery_annotates_only_the_peer(self):
        tracer = Tracer()
        trace_id, span_id = self._started(tracer)
        tracer.on_link_event(_link(
            TraceKind.DELIVER, PacketKind.REQUEST, trace_id, span_id,
            time=2.0, node=7, delay=0.0,
        ))
        tracer.on_link_event(_link(  # a router hop, not the target peer
            TraceKind.DELIVER, PacketKind.REQUEST, trace_id, span_id,
            time=2.5, node=6, delay=0.0,
        ))
        state = list(tracer._by_trace.values())[0]
        labels = [a["label"] for a in state.current.annotations]
        assert labels == ["deliver.request"]

    def test_untraced_and_late_events(self):
        tracer = Tracer()
        tracer.on_link_event(_link(
            TraceKind.TRANSMIT, PacketKind.DATA, -1, -1,
        ))
        assert tracer.store.late_events == 0  # untraced, not late
        tracer.on_link_event(_link(
            TraceKind.TRANSMIT, PacketKind.REPAIR, 123, 5,
        ))
        assert tracer.store.late_events == 1


class TestTracerOnTheBus:
    def test_instrumentation_puts_tracer_last_on_the_bus(self):
        ring = RingBufferSink()
        tracer = Tracer()
        instr = Instrumentation(bus=EventBus([ring]), tracer=tracer)
        assert instr.bus.sinks == (ring, tracer)
        recording = Instrumentation.recording(trace=True)
        assert recording.bus.sinks[-1] is recording.tracer

    def test_emit_helpers_reach_the_tracer(self):
        tracer = Tracer()
        instr = Instrumentation(tracer=tracer)
        assert instr.bus.active
        instr.attempt(0.0, "rp", 3, 1, 1, 0, 7, "started")
        instr.phase(1.0, "session.complete")  # no recovery identity
        instr.attempt(4.0, "rp", 3, 1, 1, 0, 7, "succeeded", elapsed=4.0)
        (root,) = tracer.store.roots()
        assert root.attrs["status"] == "succeeded"


class TestTracerAnnotations:
    def test_timer_annotations_attach_by_seq(self):
        tracer = Tracer()
        tracer.write(AttemptEvent(0.0, "rp", 3, 1, 1, 0, 7, "started", 0.0))
        tracer.write(TimerEvent(0.0, "rp", 3, "rp.request", "armed", 12.0, 1))
        # No seq, then no open trace: neither attaches.
        tracer.write(TimerEvent(0.5, "rp", 3, "rp.request", "armed", 12.0, -1))
        tracer.write(TimerEvent(1.0, "rp", 9, "rp.request", "armed", 12.0, 1))
        state = list(tracer._by_trace.values())[0]
        assert state.current.annotations == [
            {"time": 0.0, "label": "timer.armed", "timer": "rp.request",
             "deadline": 12.0}
        ]

    def test_backoff_before_attempt_is_held_for_it(self):
        tracer = Tracer()
        tracer.write(AttemptEvent(0.0, "rp", 3, 1, 1, 0, 7, "started", 0.0))
        tracer.write(AttemptEvent(5.0, "rp", 3, 1, 1, 0, 7, "timed_out", 5.0))
        # RP emits the backoff before the attempt it scales.
        tracer.write(BackoffEvent(5.0, "rp", 3, 1, 1, 10.0))
        tracer.write(AttemptEvent(5.0, "rp", 3, 1, 2, -1, 9, "started", 5.0))
        state = list(tracer._by_trace.values())[0]
        assert state.current.annotations == [
            {"time": 5.0, "label": "backoff", "backoff": 1, "extra": 10.0}
        ]

    def test_backoff_during_attempt_attaches_directly(self):
        tracer = Tracer()
        tracer.write(AttemptEvent(0.0, "srm", 3, 1, 1, 0, -1, "started", 0.0))
        tracer.write(BackoffEvent(1.0, "srm", 3, 1, 1, 0.0))
        state = list(tracer._by_trace.values())[0]
        assert state.current.annotations[0]["label"] == "backoff"
