"""Typed telemetry records and the bus that carries them.

Every record is a small frozen dataclass with a ``kind`` tag, a
simulation timestamp and a ``to_dict`` projection, so any sink can
serialize any event without knowing its type.  The taxonomy mirrors the
things the paper's analysis talks about but the end-of-run summaries
cannot show:

* :class:`AttemptEvent` — one unicast recovery attempt changing state:
  ``started`` when the REQUEST leaves, then exactly one of
  ``succeeded`` (the missing packet arrived while this attempt was
  outstanding), ``timed_out`` (the attempt timer expired), ``nacked``
  (the peer replied "don't have", negative-ack mode) or ``retracted``
  (the original data showed up late — the detection was false).
  ``rank`` is the attempt's position in the client's prioritized list;
  :data:`SOURCE_RANK` marks the source fallback.
* :class:`TimerEvent` — a protocol timer armed, fired or cancelled.
* :class:`BackoffEvent` — a suppression/congestion backoff increment
  (SRM request timers, hardened-retry exponential backoff).
* :class:`PhaseEvent` — session lifecycle transitions (stream start and
  end, completion, drain).
* :class:`FaultEvent` — one injected fault firing (crash rx/tx drop,
  link-down drop, burst-state drop, request/repair blackhole) or a
  hardening reaction to faults (a peer declared dead, a recovery
  abandoned).  See :mod:`repro.sim.faults`.
* :class:`MemberEvent` — one group-composition change (a member leaving
  or rejoining), its enforcement (deliveries dropped / sends suppressed
  for departed members), or the plan-repair reaction to it.  See
  :mod:`repro.sim.membership`.

The :class:`EventBus` fans records out to attached sinks.  Its
``active`` property is the fast path guard: when no attached sink
consumes events (e.g. only a ``NullSink``), emitters skip building the
record entirely, which is what keeps no-op instrumentation nearly free.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:  # pragma: no cover - import cycle breaker
    from repro.obs.sinks import EventSink

#: ``rank`` value marking the source-fallback attempt (not a list peer).
SOURCE_RANK = -1

#: Attempt statuses an :class:`AttemptEvent` may carry.  ``abandoned``
#: is the hardened runtimes' explicit terminal give-up (bounded source
#: retries exhausted) — it only ever appears under a non-default
#: :class:`~repro.protocols.policy.RecoveryPolicy`.
ATTEMPT_STATUSES = (
    "started", "succeeded", "timed_out", "nacked", "retracted", "abandoned",
)


@dataclass(frozen=True, slots=True)
class ObsEvent:
    """Base telemetry record: a tagged, timestamped dataclass."""

    kind: ClassVar[str] = "event"

    time: float

    def to_dict(self) -> dict:
        out = asdict(self)
        out["kind"] = self.kind
        return out


@dataclass(frozen=True, slots=True)
class AttemptEvent(ObsEvent):
    """One state change of one recovery attempt.

    ``attempt`` is the 1-based count of requests this (client, seq)
    recovery has sent so far; ``rank`` is the prioritized-list index
    tried (:data:`SOURCE_RANK` for the source fallback — source retries
    keep the same rank).  ``elapsed`` is sim-time since this attempt
    started (0 for ``started``; for ``succeeded`` it is measured from
    loss detection, so it equals the loss's recovery latency).
    """

    kind: ClassVar[str] = "attempt"

    protocol: str = ""
    client: int = -1
    seq: int = -1
    attempt: int = 0
    rank: int = SOURCE_RANK
    peer: int = -1
    status: str = "started"
    elapsed: float = 0.0


@dataclass(frozen=True, slots=True)
class TimerEvent(ObsEvent):
    """A protocol timer armed / fired / cancelled.

    ``seq`` names the recovery the timer guards (-1 for timers not tied
    to one loss), which is what lets the causal tracer attach timer
    annotations to the right span.
    """

    kind: ClassVar[str] = "timer"

    protocol: str = ""
    node: int = -1
    label: str = ""
    action: str = "armed"  # armed | fired | cancelled
    deadline: float = 0.0
    seq: int = -1


@dataclass(frozen=True, slots=True)
class BackoffEvent(ObsEvent):
    """A backoff increment (SRM request suppression / congestion).

    ``extra`` is the absolute extra wait the increment added to the
    next timeout (scaled minus base, in sim-ms; 0 where the protocol
    has no single scaled timeout, e.g. SRM's timer-window backoff) —
    the critical-path analyzer reads it to split timeout slack from
    backoff overhead.
    """

    kind: ClassVar[str] = "backoff"

    protocol: str = ""
    node: int = -1
    seq: int = -1
    backoff: int = 0
    extra: float = 0.0


@dataclass(frozen=True, slots=True)
class PhaseEvent(ObsEvent):
    """A session lifecycle transition."""

    kind: ClassVar[str] = "phase"

    phase: str = ""
    detail: str = ""


@dataclass(frozen=True, slots=True)
class FaultEvent(ObsEvent):
    """An injected fault fired, or the hardening layer reacted to one.

    ``fault`` is the dotted kind (``crash.rx_drop``, ``crash.tx_drop``,
    ``link.down_drop``, ``burst.drop``, ``blackhole.request``,
    ``blackhole.repair``, ``peer.dead``, ``recovery.abandoned``);
    ``node``/``peer``/``seq`` carry whatever identity the kind has
    (-1 where not applicable).
    """

    kind: ClassVar[str] = "fault"

    fault: str = ""
    node: int = -1
    peer: int = -1
    seq: int = -1


@dataclass(frozen=True, slots=True)
class HealthEvent(ObsEvent):
    """One invariant watchdog violation (see :mod:`repro.obs.health`).

    ``check`` is the dotted check name (``progress.stall``,
    ``conservation.ledger``, ``membership.tx_drop``,
    ``quiescence.drain``, ``quiescence.timers``); ``window_start`` /
    ``window_end`` bound the offending sim-time window (-1 for run-wide
    checks evaluated at drain).  ``time`` is when the watchdog fired,
    which for drain-time checks is the drain cutoff.
    """

    kind: ClassVar[str] = "health"

    check: str = ""
    message: str = ""
    window_start: float = -1.0
    window_end: float = -1.0


@dataclass(frozen=True, slots=True)
class MemberEvent(ObsEvent):
    """A group-composition change or its enforcement.

    ``action`` is the dotted kind (``member.leave``, ``member.join``,
    ``member.rx_drop``, ``member.tx_drop``, ``plan.repair``);
    ``node``/``seq`` carry whatever identity the kind has (-1 where not
    applicable).  See :mod:`repro.sim.membership`.
    """

    kind: ClassVar[str] = "member"

    action: str = ""
    node: int = -1
    seq: int = -1


_EVENT_TYPES: dict[str, type[ObsEvent]] = {
    cls.kind: cls
    for cls in (
        AttemptEvent, TimerEvent, BackoffEvent, PhaseEvent, FaultEvent,
        MemberEvent, HealthEvent,
    )
}


def event_from_dict(data: dict) -> ObsEvent:
    """Inverse of ``ObsEvent.to_dict`` — the JSONL read path."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    cls = _EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    return cls(**payload)


class EventBus:
    """Fans emitted records out to the attached sinks."""

    def __init__(self, sinks: "list[EventSink] | None" = None):
        self._sinks: list[EventSink] = list(sinks) if sinks else []
        self._recompute_active()

    def _recompute_active(self) -> None:
        self.active = any(
            getattr(sink, "consumes", True) for sink in self._sinks
        )

    @property
    def sinks(self) -> "tuple[EventSink, ...]":
        return tuple(self._sinks)

    def add_sink(self, sink: "EventSink") -> "EventBus":
        self._sinks.append(sink)
        self._recompute_active()
        return self

    def emit(self, event: ObsEvent) -> None:
        for sink in self._sinks:
            sink.write(event)

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()
