"""Event tracing for the packet simulator.

The network emits one :class:`TraceEvent` per link transmission, drop
and delivery to whatever *link observers* are registered on it (see
:meth:`~repro.sim.network.SimNetwork.add_link_observer`).  This is the
single transmission-level record of the simulator: the debugging
:class:`TraceRecorder` below and the causal tracer
(:mod:`repro.obs.tracing`) both consume it, so there is exactly one
notion of "what happened on the wire".

A :class:`TraceRecorder` registers as an observer and records filtered
events for protocol debugging and for tests that assert *how* something
happened (which links a repair crossed, when a NACK flood reached a
node) rather than just the end state.  With no observers registered the
network skips event construction entirely, so tracing costs nothing
when not installed.  Filters keep traces of large runs manageable: by
packet kind, by sequence number, and by node.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.packet import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover - import cycle breaker
    from repro.sim.network import SimNetwork


class TraceKind(enum.Enum):
    TRANSMIT = "transmit"   # packet put on a link
    DROP = "drop"           # loss process ate it on that link
    DELIVER = "deliver"     # packet handed to a node's agent


@dataclass(frozen=True)
class TraceEvent:
    """One recorded simulator event.

    ``trace_id``/``span_id`` carry the packet's causal-tracing context
    (-1 when untraced); ``delay`` is the effective link delay of a
    TRANSMIT (jitter and congestion included; 0 for drops/deliveries),
    so a consumer knows when the packet lands without re-deriving the
    link model.
    """

    time: float
    kind: TraceKind
    packet_kind: PacketKind
    seq: int
    origin: int
    node: int          # receiving endpoint (transmit/drop: link target)
    peer: int = -1     # transmit/drop: link source; deliver: -1
    trace_id: int = -1
    span_id: int = -1
    delay: float = 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        arrow = f"{self.peer}->{self.node}" if self.peer >= 0 else f"@{self.node}"
        return (
            f"[{self.time:10.3f}] {self.kind.value:8} "
            f"{self.packet_kind.value:7} seq={self.seq} {arrow}"
        )


@dataclass
class TraceFilter:
    """Which events to keep.  Empty sets mean "no restriction"."""

    packet_kinds: frozenset[PacketKind] = frozenset()
    seqs: frozenset[int] = frozenset()
    nodes: frozenset[int] = frozenset()

    def admits(self, event: TraceEvent) -> bool:
        if self.packet_kinds and event.packet_kind not in self.packet_kinds:
            return False
        if self.seqs and event.seq not in self.seqs:
            return False
        if self.nodes and event.node not in self.nodes and event.peer not in self.nodes:
            return False
        return True


class TraceRecorder:
    """Records filtered simulator events; install via :meth:`attach`.

    A thin adapter over the network's link-observer stream: attaching
    registers an observer, detaching removes it.  Multiple observers
    coexist (a recorder and the causal tracer can watch one network at
    once).  Attach before the network's fast dissemination is armed:
    arming then refuses, and attaching to an armed network raises.
    """

    def __init__(self, trace_filter: TraceFilter | None = None,
                 max_events: int = 1_000_000):
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.filter = trace_filter or TraceFilter()
        self.max_events = max_events
        self.events: list[TraceEvent] = []
        self._attached: SimNetwork | None = None

    # -- installation -------------------------------------------------------

    def attach(self, network: "SimNetwork") -> "TraceRecorder":
        """Start recording ``network``; returns self for chaining."""
        if self._attached is not None:
            raise RuntimeError("recorder already attached")
        self._attached = network
        network.add_link_observer(self._record)
        return self

    def detach(self) -> None:
        """Stop recording and deregister from the network."""
        if self._attached is None:
            return
        self._attached.remove_link_observer(self._record)
        self._attached = None

    # -- recording -----------------------------------------------------------

    def _record(self, event: TraceEvent) -> None:
        if len(self.events) >= self.max_events:
            raise RuntimeError(
                f"trace exceeded {self.max_events} events; narrow the filter"
            )
        if self.filter.admits(event):
            self.events.append(event)

    # -- queries ----------------------------------------------------------------

    def of_kind(self, kind: TraceKind) -> list[TraceEvent]:
        return [e for e in self.events if e.kind is kind]

    def deliveries_to(self, node: int) -> list[TraceEvent]:
        return [
            e for e in self.events
            if e.kind is TraceKind.DELIVER and e.node == node
        ]

    def drops(self) -> list[TraceEvent]:
        return self.of_kind(TraceKind.DROP)

    def path_of(self, packet_kind: PacketKind, seq: int) -> list[tuple[int, int]]:
        """(src, dst) link traversals of matching packets, in time order."""
        return [
            (e.peer, e.node)
            for e in self.events
            if e.kind is TraceKind.TRANSMIT
            and e.packet_kind is packet_kind
            and e.seq == seq
        ]

    def render(self, limit: int = 50) -> str:
        """Human-readable dump of the first ``limit`` events."""
        lines = [str(e) for e in self.events[:limit]]
        if len(self.events) > limit:
            lines.append(f"... and {len(self.events) - limit} more")
        return "\n".join(lines)
