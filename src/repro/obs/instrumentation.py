"""The :class:`Instrumentation` facade — one object to thread around.

Carries the observability facilities as one injectable unit:

* ``bus`` — the :class:`~repro.obs.events.EventBus` with its sinks;
* ``profiler`` — the :class:`~repro.obs.profiler.Profiler`.

Emit helpers (:meth:`attempt`, :meth:`timer`, :meth:`backoff`,
:meth:`fault`, :meth:`member`, :meth:`phase`) keep protocol code terse:
when the bus has sinks, each builds and emits the typed record, and
does nothing otherwise.  Nothing is counted beside the event stream:
:func:`~repro.obs.report.build_obs_report` folds the report's counters
from the recorded events.

The module-level :data:`NULL_INSTRUMENTATION` is the process-wide
default every simulation runs with unless a caller injects its own: a
shared ``Instrumentation`` with no sinks and the profiler off, so
uninstrumented runs pay one attribute test per emit.
``Instrumentation.recording(...)`` is the common configuration: ring
buffer (optionally plus a JSONL file), profiler on — everything the
``repro obs`` breakdown and :class:`~repro.obs.report.ObsReport` need.
``recording(trace=True)`` adds a causal
:class:`~repro.obs.tracing.Tracer` as one more bus sink, which
``trace_ids`` reads span contexts from (the ``repro trace``
configuration).
"""

from __future__ import annotations

import pathlib

from repro.obs.events import (
    SOURCE_RANK,
    AttemptEvent,
    BackoffEvent,
    EventBus,
    FaultEvent,
    MemberEvent,
    PhaseEvent,
    TimerEvent,
)
from repro.obs.profiler import Profiler
from repro.obs.sinks import JsonlSink, RingBufferSink
from repro.obs.spans import NO_SPAN
from repro.obs.timeseries import TimeSeriesCollector
from repro.obs.tracing import Tracer


class Instrumentation:
    """Injectable bundle of event bus + profiler (+ tracer)."""

    def __init__(
        self,
        bus: EventBus | None = None,
        profiler: Profiler | None = None,
        tracer: Tracer | None = None,
    ):
        bus = bus if bus is not None else EventBus()
        if tracer is not None:
            # The tracer is one more sink, after the caller's: it folds
            # the attempt, timer, backoff and fault records into spans.
            bus = EventBus([*bus.sinks, tracer])
        self.bus = bus
        self.profiler = profiler if profiler is not None else Profiler()
        #: Optional causal tracer: ``trace_ids`` hands out its span
        #: contexts for packet stamping, and the runner feeds it link
        #: events and finishes it after the drain.
        self.tracer = tracer
        #: Optional windowed :class:`~repro.obs.timeseries.TimeSeriesCollector`.
        #: Set by ``recording(timeseries=...)`` (which also attaches it
        #: as a bus sink); the runner arms it with the live engine and
        #: ledger and finalizes it at drain.  None means no windowing
        #: anywhere.
        self.timeseries: TimeSeriesCollector | None = None

    # -- presets ---------------------------------------------------------

    @classmethod
    def recording(
        cls,
        capacity: int = 1_000_000,
        jsonl_path: str | pathlib.Path | None = None,
        profile: bool = True,
        trace: bool = False,
        trace_sample_rate: float = 1.0,
        timeseries: TimeSeriesCollector | None = None,
    ) -> "Instrumentation":
        """Ring buffer (+ optional JSONL file), profiler on by default.

        ``trace=True`` adds a causal :class:`~repro.obs.tracing.Tracer`
        (head-sampled at ``trace_sample_rate``; abandonment/fault traces
        always kept) as the last bus sink — the runner registers it on
        the network and finishes it after the drain.

        ``timeseries`` attaches a windowed
        :class:`~repro.obs.timeseries.TimeSeriesCollector` as an extra
        bus sink and exposes it as ``instr.timeseries`` so the runner
        can arm/finalize it (the ``repro health`` configuration).
        ``None`` changes nothing — byte-identical to a build without
        the time-series subsystem.
        """
        sinks: list = [RingBufferSink(capacity)]
        if jsonl_path is not None:
            sinks.append(JsonlSink(jsonl_path))
        if timeseries is not None:
            sinks.append(timeseries)
        tracer = Tracer(sample_rate=trace_sample_rate) if trace else None
        instr = cls(
            bus=EventBus(sinks), profiler=Profiler(enabled=profile),
            tracer=tracer,
        )
        instr.timeseries = timeseries
        return instr

    # -- emit helpers ---------------------------------------------------------

    def attempt(
        self,
        time: float,
        protocol: str,
        client: int,
        seq: int,
        attempt: int,
        rank: int,
        peer: int,
        status: str,
        elapsed: float = 0.0,
    ) -> None:
        """A recovery attempt changed state; see
        :class:`~repro.obs.events.AttemptEvent` for field semantics."""
        if self.bus.active:
            self.bus.emit(AttemptEvent(
                time=time, protocol=protocol, client=client, seq=seq,
                attempt=attempt, rank=rank, peer=peer, status=status,
                elapsed=elapsed,
            ))

    def timer(
        self,
        time: float,
        protocol: str,
        node: int,
        label: str,
        action: str,
        deadline: float = 0.0,
        seq: int = -1,
    ) -> None:
        if self.bus.active:
            self.bus.emit(TimerEvent(
                time=time, protocol=protocol, node=node, label=label,
                action=action, deadline=deadline, seq=seq,
            ))

    def backoff(
        self, time: float, protocol: str, node: int, seq: int, backoff: int,
        extra: float = 0.0,
    ) -> None:
        if self.bus.active:
            self.bus.emit(BackoffEvent(
                time=time, protocol=protocol, node=node, seq=seq,
                backoff=backoff, extra=extra,
            ))

    def fault(
        self,
        time: float,
        fault: str,
        node: int = -1,
        peer: int = -1,
        seq: int = -1,
    ) -> None:
        """An injected fault fired (or hardening reacted to one); emits
        a :class:`~repro.obs.events.FaultEvent`."""
        if self.bus.active:
            self.bus.emit(FaultEvent(
                time=time, fault=fault, node=node, peer=peer, seq=seq,
            ))

    def member(
        self, time: float, action: str, node: int = -1, seq: int = -1
    ) -> None:
        """A group-composition change (or its enforcement) happened;
        emits a :class:`~repro.obs.events.MemberEvent` named by its
        dotted ``member.*``/``plan.*`` action."""
        if self.bus.active:
            self.bus.emit(MemberEvent(
                time=time, action=action, node=node, seq=seq,
            ))

    def phase(self, time: float, phase: str, detail: str = "") -> None:
        if self.bus.active:
            self.bus.emit(PhaseEvent(time=time, phase=phase, detail=detail))

    # -- shorthands -------------------------------------------------------

    def trace_ids(self, client: int, seq: int) -> tuple[int, int]:
        """The open attempt's ``(trace_id, span_id)`` for stamping onto
        outgoing packets; ``(-1, -1)`` when untraced."""
        tracer = self.tracer
        if tracer is None:
            return (NO_SPAN, NO_SPAN)
        return tracer.ids(client, seq)

    def scope(self, name: str):
        """Profiler scope passthrough (a with-block timer)."""
        return self.profiler.scope(name)

    def ring_events(self) -> list:
        """Events held by the first ring-buffer sink (empty if none)."""
        for sink in self.bus.sinks:
            if isinstance(sink, RingBufferSink):
                return sink.events()
        return []

    def close(self) -> None:
        """Flush and close every sink (JSONL files in particular)."""
        self.bus.close()


#: The process-wide default: no sinks, profiler off, shared.
NULL_INSTRUMENTATION = Instrumentation(profiler=Profiler(enabled=False))

__all__ = ["Instrumentation", "NULL_INSTRUMENTATION", "SOURCE_RANK"]
