"""The :class:`Instrumentation` facade — one object to thread around.

Carries the three observability facilities as one injectable unit:

* ``registry`` — the :class:`~repro.obs.metrics.MetricsRegistry`;
* ``bus`` — the :class:`~repro.obs.events.EventBus` with its sinks;
* ``profiler`` — the :class:`~repro.obs.profiler.Profiler`.

Emit helpers (:meth:`attempt`, :meth:`timer`, :meth:`backoff`,
:meth:`fault`, :meth:`member`, :meth:`phase`) keep protocol code terse:
each bumps its counter and, when the bus has sinks, emits the typed
record.  The registry holds counters only; every other quantity is
folded from the recorded events.

The module-level :data:`NULL_INSTRUMENTATION` is the process-wide
default every simulation runs with unless a caller injects its own; its
methods are all no-ops so uninstrumented runs pay nothing beyond the
attribute checks at the call sites.  A plain ``Instrumentation()`` has
live counters and no sinks, so it builds no records.
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
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import Profiler
from repro.obs.sinks import JsonlSink, RingBufferSink
from repro.obs.spans import NO_SPAN
from repro.obs.timeseries import TimeSeriesCollector
from repro.obs.tracing import Tracer


class Instrumentation:
    """Injectable bundle of registry + event bus + profiler (+ tracer)."""

    enabled = True

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        bus: EventBus | None = None,
        profiler: Profiler | None = None,
        tracer: Tracer | None = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
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
        # Emit helpers run on the protocol hot path; caching the counter
        # per tuple key skips the dotted-name formatting and registry
        # lookup after the first emit of each (protocol, status) pair.
        self._counters: dict[tuple, object] = {}

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
        counter = self._counters.get(("attempt", protocol, status))
        if counter is None:
            counter = self.registry.counter(f"{protocol}.attempts.{status}")
            self._counters[("attempt", protocol, status)] = counter
        counter.value += 1
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
        counter = self._counters.get(("timer", protocol, action))
        if counter is None:
            counter = self.registry.counter(f"{protocol}.timers.{action}")
            self._counters[("timer", protocol, action)] = counter
        counter.value += 1
        if self.bus.active:
            self.bus.emit(TimerEvent(
                time=time, protocol=protocol, node=node, label=label,
                action=action, deadline=deadline, seq=seq,
            ))

    def backoff(
        self, time: float, protocol: str, node: int, seq: int, backoff: int,
        extra: float = 0.0,
    ) -> None:
        counter = self._counters.get(("backoff", protocol))
        if counter is None:
            counter = self.registry.counter(f"{protocol}.backoffs")
            self._counters[("backoff", protocol)] = counter
        counter.value += 1
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
        """An injected fault fired (or hardening reacted to one); bumps
        the ``fault.<kind>`` counter and emits a
        :class:`~repro.obs.events.FaultEvent`."""
        counter = self._counters.get(("fault", fault))
        if counter is None:
            counter = self.registry.counter(f"fault.{fault}")
            self._counters[("fault", fault)] = counter
        counter.value += 1
        if self.bus.active:
            self.bus.emit(FaultEvent(
                time=time, fault=fault, node=node, peer=peer, seq=seq,
            ))

    def member(
        self, time: float, action: str, node: int = -1, seq: int = -1
    ) -> None:
        """A group-composition change (or its enforcement) happened;
        bumps the dotted ``member.*``/``plan.*`` counter and emits a
        :class:`~repro.obs.events.MemberEvent`."""
        counter = self._counters.get(("member", action))
        if counter is None:
            counter = self.registry.counter(action)
            self._counters[("member", action)] = counter
        counter.value += 1
        if self.bus.active:
            self.bus.emit(MemberEvent(
                time=time, action=action, node=node, seq=seq,
            ))

    def phase(self, time: float, phase: str, detail: str = "") -> None:
        counter = self._counters.get(("phase", phase))
        if counter is None:
            counter = self.registry.counter(f"phase.{phase}")
            self._counters[("phase", phase)] = counter
        counter.value += 1
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


class _NullInstrumentation(Instrumentation):
    """Does nothing, as cheaply as possible."""

    enabled = False

    def __init__(self):
        super().__init__(profiler=Profiler(enabled=False))

    def attempt(self, *args, **kwargs) -> None:
        pass

    def timer(self, *args, **kwargs) -> None:
        pass

    def backoff(self, *args, **kwargs) -> None:
        pass

    def fault(self, *args, **kwargs) -> None:
        pass

    def member(self, *args, **kwargs) -> None:
        pass

    def phase(self, *args, **kwargs) -> None:
        pass


#: The process-wide default: fully disabled, shared, stateless.
NULL_INSTRUMENTATION = _NullInstrumentation()

__all__ = ["Instrumentation", "NULL_INSTRUMENTATION", "SOURCE_RANK"]
