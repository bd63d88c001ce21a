"""The causal tracer: assembling recoveries into span trees.

The :class:`Tracer` is an event-bus sink that also observes the
network's link events, and turns both into the span taxonomy of
:mod:`repro.obs.spans`:

* attempt events (written to it by the
  :class:`~repro.obs.events.EventBus`) drive the
  span *lifecycle* — a ``started`` attempt opens the trace's root span
  (back-dated to loss detection via the event's ``elapsed``) and an
  attempt child span; terminal statuses close them;
* link events (delivered by
  :meth:`~repro.sim.network.SimNetwork.add_link_observer`) become link
  child spans of the attempt whose packet crossed the wire —
  ``xmit.request`` / ``xmit.nack`` / ``xmit.repair`` — plus delivery
  annotations on the attempt span itself;
* timer, backoff and fault events become annotations on the span they
  concern.

Protocol runtimes ask :meth:`Tracer.ids` (via
``Instrumentation.trace_ids``) for the open attempt's ``(trace_id,
span_id)`` and stamp it onto outgoing packets; repairs and NACKs copy
the ids of the request they answer, which is what makes the link spans
*causal* rather than merely temporal.

Sampling is head-based and deterministic: the keep/drop decision is a
pure hash of ``(client, seq)`` against ``sample_rate`` — no RNG stream
is consulted, so tracing can never perturb the simulation.  Unsampled
traces are still assembled provisionally and *promoted* into the store
when a fault touches them or they end abnormally (abandoned,
unterminated); otherwise they are discarded at termination and counted
in ``SpanStore.sampled_out``.
"""

from __future__ import annotations

from repro.obs.events import (
    SOURCE_RANK,
    AttemptEvent,
    BackoffEvent,
    FaultEvent,
    ObsEvent,
    TimerEvent,
)
from repro.obs.spans import (
    CATEGORY_ATTEMPT,
    CATEGORY_LINK,
    CATEGORY_RECOVERY,
    NO_SPAN,
    Span,
    SpanStore,
)
from repro.sim.packet import PacketKind
from repro.sim.trace import TraceEvent, TraceKind

#: Root-span terminal statuses that force promotion of unsampled traces.
ABNORMAL_STATUSES = frozenset({"abandoned", "unterminated"})

_MASK64 = (1 << 64) - 1


def sample_hash(client: int, seq: int) -> float:
    """Deterministic hash of a recovery's identity onto [0, 1).

    A splitmix64-style finalizer over the packed (client, seq) pair:
    well-mixed enough that ``sample_hash < rate`` keeps ~``rate`` of
    recoveries without any RNG draw, and stable across runs, platforms
    and worker processes.
    """
    x = (((client & 0xFFFFFFFF) << 32) | (seq & 0xFFFFFFFF)) & _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    x ^= x >> 31
    return x / 2.0**64


class _OpenTrace:
    """Assembly state of one in-progress recovery."""

    __slots__ = (
        "trace_id", "client", "seq", "root", "current", "spans",
        "spans_by_id", "sampled", "promoted", "pending_backoffs",
    )

    def __init__(self, trace_id: int, client: int, seq: int, root: Span,
                 sampled: bool):
        self.trace_id = trace_id
        self.client = client
        self.seq = seq
        self.root = root
        self.current: Span | None = None
        self.spans: list[Span] = [root]
        #: Root + attempt spans by id, for annotation routing.
        self.spans_by_id: dict[int, Span] = {root.span_id: root}
        self.sampled = sampled
        self.promoted = False
        #: Backoff annotations emitted before their attempt opened
        #: (RP/RMA/SOURCE emit the backoff just before ``started``).
        self.pending_backoffs: list[dict] = []


class Tracer:
    """Builds span trees from bus events + link events.

    One tracer per run.  Register :meth:`on_link_event` as a network
    link observer and hand the tracer to an
    :class:`~repro.obs.instrumentation.Instrumentation`, which puts it
    on the event bus; call :meth:`finish` after the drain so stragglers
    terminate explicitly.
    """

    def __init__(
        self,
        store: SpanStore | None = None,
        sample_rate: float = 1.0,
        always_sample_abnormal: bool = True,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.store = store if store is not None else SpanStore()
        self.sample_rate = sample_rate
        self.always_sample_abnormal = always_sample_abnormal
        self._open: dict[tuple[int, int], _OpenTrace] = {}
        self._by_trace: dict[int, _OpenTrace] = {}
        self._next_trace = 0
        self._next_span = 0
        #: Recoveries traced (kept or not) — the denominator sampling
        #: reports against.
        self.traces_started = 0

    # -- identity ---------------------------------------------------------

    def _new_span_id(self) -> int:
        span_id = self._next_span
        self._next_span += 1
        return span_id

    def ids(self, client: int, seq: int) -> tuple[int, int]:
        """``(trace_id, span_id)`` for packet stamping; (-1, -1) when
        untraced — the tuple form keeps the protocol hot path free of
        conditional attribute access."""
        state = self._open.get((client, seq))
        if state is None:
            return (NO_SPAN, NO_SPAN)
        span = state.current if state.current is not None else state.root
        return (state.trace_id, span.span_id)

    # -- bus sink ------------------------------------------------------------

    def write(self, event: ObsEvent) -> None:
        """Fold one bus event into the open span trees; events of other
        kinds (phases, membership, health) carry no recovery identity."""
        kind = event.kind
        if kind == "attempt":
            self._on_attempt(event)
        elif kind == "timer":
            self._on_timer(event)
        elif kind == "backoff":
            self._on_backoff(event)
        elif kind == "fault":
            self._on_fault(event)

    def close(self) -> None:
        pass

    # -- attempt lifecycle -------------------------------------------------

    def _on_attempt(self, event: AttemptEvent) -> None:
        time, client, seq = event.time, event.client, event.seq
        status = event.status
        state = self._open.get((client, seq))
        if status == "started":
            if state is None:
                state = self._start_trace(
                    time - event.elapsed, event.protocol, client, seq
                )
            self._open_attempt(state, time, event.attempt, event.rank,
                               event.peer)
            return
        if state is None:
            return  # terminal event for a trace we never saw start
        if status in ("timed_out", "nacked"):
            self._close_attempt(state, time, status)
        elif status in ("succeeded", "retracted", "abandoned"):
            self._close_attempt(state, time, status)
            self._close_trace(state, time, status)

    def _start_trace(
        self, detected_at: float, protocol: str, client: int, seq: int
    ) -> _OpenTrace:
        trace_id = self._next_trace
        self._next_trace += 1
        self.traces_started += 1
        root = Span(
            trace_id=trace_id,
            span_id=self._new_span_id(),
            parent_id=NO_SPAN,
            name="recovery",
            category=CATEGORY_RECOVERY,
            start=detected_at,
            node=client,
            attrs={"protocol": protocol, "client": client, "seq": seq},
        )
        sampled = (
            self.sample_rate >= 1.0
            or sample_hash(client, seq) < self.sample_rate
        )
        state = _OpenTrace(trace_id, client, seq, root, sampled)
        self._open[(client, seq)] = state
        self._by_trace[trace_id] = state
        return state

    def _open_attempt(
        self, state: _OpenTrace, time: float, attempt: int, rank: int,
        peer: int,
    ) -> None:
        # A started attempt while one is open (shouldn't happen; be
        # safe): close the dangling one at the new attempt's start.
        if state.current is not None:
            self._close_attempt(state, time, "superseded")
        name = "source_fallback" if rank == SOURCE_RANK else f"attempt[{rank}]"
        span = Span(
            trace_id=state.trace_id,
            span_id=self._new_span_id(),
            parent_id=state.root.span_id,
            name=name,
            category=CATEGORY_ATTEMPT,
            start=time,
            node=state.client,
            attrs={"attempt": attempt, "rank": rank, "peer": peer},
        )
        for entry in state.pending_backoffs:
            span.annotations.append(entry)
        state.pending_backoffs.clear()
        state.current = span
        state.spans.append(span)
        state.spans_by_id[span.span_id] = span

    def _close_attempt(
        self, state: _OpenTrace, time: float, status: str
    ) -> None:
        span = state.current
        if span is None:
            return
        span.end = time
        span.attrs["status"] = status
        state.current = None

    def _close_trace(self, state: _OpenTrace, time: float, status: str) -> None:
        root = state.root
        root.end = time
        root.attrs["status"] = status
        if state.pending_backoffs:
            root.annotations.extend(state.pending_backoffs)
            state.pending_backoffs.clear()
        del self._open[(state.client, state.seq)]
        del self._by_trace[state.trace_id]
        keep = state.sampled or state.promoted or (
            self.always_sample_abnormal and status in ABNORMAL_STATUSES
        )
        if keep:
            self.store.add_trace(state.spans)
        else:
            self.store.sampled_out += 1

    # -- link events -------------------------------------------------------

    def on_link_event(self, event: TraceEvent) -> None:
        if event.trace_id < 0:
            return
        state = self._by_trace.get(event.trace_id)
        if state is None:
            self.store.late_events += 1
            return
        if event.kind is TraceKind.DELIVER:
            owner = state.spans_by_id.get(event.span_id)
            if owner is None:
                return
            if event.packet_kind is PacketKind.REPAIR:
                # The repair landing at the requesting client is the
                # recovery's payoff moment; intermediate tree members
                # hearing the multicast are not annotated.
                if event.node == state.client:
                    owner.annotate(event.time, "deliver.repair", node=event.node)
            elif event.node == owner.attrs.get("peer", -1):
                # The REQUEST/NACK reaching the attempt's target.
                owner.annotate(
                    event.time, f"deliver.{event.packet_kind.value}",
                    node=event.node,
                )
            return
        # TRANSMIT / DROP: one closed link span per traversal, child of
        # the attempt span the packet was stamped with.
        dropped = event.kind is TraceKind.DROP
        span = Span(
            trace_id=event.trace_id,
            span_id=self._new_span_id(),
            parent_id=event.span_id,
            name=f"xmit.{event.packet_kind.value}",
            category=CATEGORY_LINK,
            start=event.time,
            end=event.time + (0.0 if dropped else event.delay),
            node=event.node,
            attrs={"src": event.peer, "dst": event.node, "seq": event.seq},
        )
        if dropped:
            span.attrs["dropped"] = True
        state.spans.append(span)

    # -- annotations -------------------------------------------------------

    def _on_timer(self, event: TimerEvent) -> None:
        if event.seq < 0:
            return
        state = self._open.get((event.node, event.seq))
        if state is None:
            return
        span = state.current if state.current is not None else state.root
        entry = {
            "time": event.time, "label": f"timer.{event.action}",
            "timer": event.label,
        }
        if event.action == "armed":
            entry["deadline"] = event.deadline
        span.annotations.append(entry)

    def _on_backoff(self, event: BackoffEvent) -> None:
        state = self._open.get((event.node, event.seq))
        if state is None:
            return
        entry = {
            "time": event.time, "label": "backoff", "backoff": event.backoff,
            "extra": event.extra,
        }
        if state.current is not None:
            state.current.annotations.append(entry)
        else:
            # RP/RMA/SOURCE emit the backoff just before the attempt it
            # scales — hold it for the next attempt span.
            state.pending_backoffs.append(entry)

    def _on_fault(self, event: FaultEvent) -> None:
        if event.seq < 0:
            return
        state = self._open.get((event.node, event.seq))
        if state is None:
            return
        span = state.current if state.current is not None else state.root
        span.annotate(
            event.time, f"fault.{event.fault}", node=event.node,
            peer=event.peer,
        )
        state.promoted = True

    # -- termination -------------------------------------------------------

    def finish(self, time: float) -> None:
        """Close every still-open trace as ``unterminated``.

        In a healthy run nothing is open after the drain (the liveness
        checker guarantees termination); anything left is exactly what
        a debugger wants to see, so unterminated traces are always
        promoted into the store.
        """
        for state in list(self._open.values()):
            self._close_attempt(state, time, "unterminated")
            self._close_trace(state, time, "unterminated")
