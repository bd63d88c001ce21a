"""Shared protocol machinery.

Every recovery scheme in the paper sits on the same substrate: the
source streams sequence-numbered data packets down the multicast tree,
receivers detect losses, and some recovery mechanism repairs them.  This
module provides that substrate once so the protocols differ only in the
recovery mechanism — which is the thing the paper compares.

Loss detection is *gap-based*: a client infers it lost sequence ``s``
the first time it sees any sequence beyond ``s`` (a later data packet,
a repair, or a SESSION message announcing the stream's highest sequence
number).  SESSION messages repeat until the session completes, so tail
losses are always detected eventually regardless of loss pattern.
Latency is measured from that detection instant, identically for every
protocol.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

from repro.metrics.collectors import RecoveryLog
from repro.obs.instrumentation import NULL_INSTRUMENTATION, Instrumentation
from repro.sim.engine import EventQueue
from repro.sim.network import SimNetwork
from repro.sim.packet import Packet, PacketKind
from repro.sim.rng import RngStreams


class CompletionTracker:
    """O(1) "is everyone fully repaired?" check for the run loop.

    ``expected`` is ``num_clients × num_packets``; each first-time
    acceptance of an in-range sequence by a client decrements the
    remaining count.  Given an event queue, the tracker stops its run
    (:meth:`EventQueue.stop <repro.sim.engine.EventQueue.stop>`) when
    the count reaches zero — at once if it starts there, which ends the
    next run after its first event.
    """

    def __init__(
        self, num_clients: int, num_packets: int,
        events: EventQueue | None = None,
    ):
        if num_clients < 0 or num_packets < 0:
            raise ValueError("counts must be non-negative")
        self.expected = num_clients * num_packets
        self._remaining = self.expected
        self._abandoned = 0
        self._events = events
        if events is not None and not self._remaining:
            events.stop()

    def _settle_slot(self) -> None:
        self._remaining -= 1
        if not self._remaining and self._events is not None:
            self._events.stop()

    def mark_received(self) -> None:
        if self._remaining <= 0:
            raise ValueError("more receptions than expected — double counting")
        self._settle_slot()

    def mark_abandoned(self) -> None:
        """A (client, seq) slot was explicitly given up on.

        Settles the slot exactly like a reception would — ``complete``
        means "every slot terminated", not "every slot repaired" — so
        hardened runs under faults still drain instead of flushing
        SESSION messages forever for a packet nobody will ever supply.
        """
        if self._remaining <= 0:
            raise ValueError("more settlements than expected — double counting")
        self._abandoned += 1
        self._settle_slot()

    @property
    def remaining(self) -> int:
        return self._remaining

    @property
    def abandoned(self) -> int:
        return self._abandoned

    @property
    def complete(self) -> bool:
        return self._remaining == 0


class ClientAgent:
    """Base receiver: reception bookkeeping + gap-based loss detection.

    Subclasses implement the recovery mechanism through three hooks:

    * :meth:`on_loss_detected` — start recovering ``seq``;
    * :meth:`on_recovered` — the missing packet arrived (by whatever
      route); tear down per-seq recovery state;
    * :meth:`on_protocol_packet` — REQUEST/NACK traffic addressed to or
      overheard by this client.
    """

    def __init__(
        self,
        node: int,
        network: SimNetwork,
        log: RecoveryLog,
        tracker: CompletionTracker,
        num_packets: int,
        instrumentation: Instrumentation | None = None,
    ):
        self.node = node
        self.network = network
        self.log = log
        self.tracker = tracker
        self.num_packets = num_packets
        self.instr = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self.received: set[int] = set()
        self.detected: set[int] = set()
        self.abandoned_seqs: set[int] = set()
        self._next_unchecked = 0
        #: True while the member is out of the group (see :meth:`depart`).
        self.departed = False
        # Earliest-arrival row of the armed fast path (bind_fast_path).
        self._arrival = None

    # -- reception --------------------------------------------------------

    def has(self, seq: int) -> bool:
        return seq in self.received

    def bind_fast_path(self, receivers, row: int) -> None:
        """The network armed its array fast path and this agent is
        ``row`` of its :class:`~repro.sim.network.FastReceivers`.

        A DATA or REPAIR for a seq already held changes nothing here,
        so the fast path may leave such deliveries out; :meth:`_accept`
        records each first acceptance in the row for it.
        """
        self._arrival = receivers.bind(row)

    def on_packet(self, packet: Packet) -> None:
        if packet.kind in (PacketKind.DATA, PacketKind.REPAIR):
            self._accept(packet.seq, packet.kind)
        elif packet.kind is PacketKind.SESSION:
            self._check_gaps(packet.highest_seq + 1)
        else:
            self.on_protocol_packet(packet)

    def _accept(self, seq: int, kind: PacketKind = PacketKind.DATA) -> None:
        if seq in self.received:
            return
        self.received.add(seq)
        now = self.network.events.now
        if 0 <= seq < self.num_packets:
            if self._arrival is not None:
                self._arrival[seq] = now
            if seq not in self.abandoned_seqs:
                # Abandonment already settled this slot in the tracker; a
                # late repair must not decrement it a second time.
                self.tracker.mark_received()
        if seq in self.detected:
            if kind is PacketKind.DATA and seq not in self.abandoned_seqs:
                # The original data arrived after all — the detection was
                # false (a request raced the data, or jitter reordered the
                # stream).  The packet was never lost: retract it.
                self.log.retract(self.node, seq)
            else:
                # Abandoned seqs keep their record (the abandonment is
                # history worth keeping) and take the recovered path even
                # for late DATA.
                self.log.recovered(self.node, seq, now)
            self.on_recovered(seq)
        self.on_new_packet(seq)
        # Everything below this sequence must exist; scan for new gaps.
        self._check_gaps(seq)
        if self._next_unchecked == seq:
            self._next_unchecked = seq + 1

    def _check_gaps(self, upto: int) -> None:
        """Detect losses of every unseen sequence in [next_unchecked, upto)."""
        if upto <= self._next_unchecked:
            return
        for seq in range(self._next_unchecked, upto):
            self.force_detect(seq)
        self._next_unchecked = upto

    # -- hooks ------------------------------------------------------------

    def on_loss_detected(self, seq: int) -> None:  # pragma: no cover - abstract-ish
        raise NotImplementedError

    def on_recovered(self, seq: int) -> None:
        """Default: nothing to tear down."""

    def on_new_packet(self, seq: int) -> None:
        """Called on every first-time acceptance of a sequence, whether
        or not it had been detected as lost.  Protocols that owe other
        nodes a copy (RMA's subsumed requests) flush here."""

    def on_protocol_packet(self, packet: Packet) -> None:
        """Default: ignore protocol chatter not handled by the subclass."""

    def abandon(self, seq: int) -> None:
        """Terminate the recovery of ``seq`` without the packet.

        The hardened runtimes' explicit give-up: records the abandonment
        in the log, settles the completion-tracker slot so the run can
        drain, and remembers the seq so a late repair neither
        double-counts the slot nor erases the abandonment record.
        No-op if the packet already arrived or was already abandoned.
        """
        if seq in self.received or seq in self.abandoned_seqs:
            return
        self.abandoned_seqs.add(seq)
        self.log.abandoned(self.node, seq, self.network.events.now)
        if 0 <= seq < self.num_packets:
            self.tracker.mark_abandoned()

    # -- dynamic membership ------------------------------------------------

    def depart(self, permanent: bool) -> None:
        """The member left the group (churn, not crash).

        Every in-flight recovery terminates explicitly — the detected
        losses are abandoned (log record + tracker settlement) and the
        subclass cancels its armed timers via
        :meth:`_teardown_recoveries`, so a churned run drains with zero
        pending timers and ``member.tx_drop`` never fires.

        A *permanent* leaver additionally settles every slot it never
        received and — being gone — will never detect: quietly, with no
        ``abandoned`` log record (they were never detected losses, so
        liveness does not track them), but marked in ``abandoned_seqs``
        so a stray late repair cannot double-settle the tracker.  A
        temporary leaver keeps those slots open and catches up after
        :meth:`rejoin` through ordinary SESSION-driven gap detection.
        """
        self.departed = True
        for seq in sorted(self.detected):
            if seq not in self.received:
                self.abandon(seq)
        self._teardown_recoveries()
        if permanent:
            for seq in range(self.num_packets):
                if seq not in self.received and seq not in self.abandoned_seqs:
                    self.abandoned_seqs.add(seq)
                    self.tracker.mark_abandoned()

    def rejoin(self) -> None:
        """The member is back; losses accrued while away surface through
        the next SESSION message's gap scan."""
        self.departed = False

    def _teardown_recoveries(self) -> None:
        """Cancel every armed recovery timer and drop per-seq recovery
        state.  Subclasses with timers **must** override — the liveness
        checker counts stale armed timers at drain."""

    def force_detect(self, seq: int) -> None:
        """Treat ``seq`` as lost right now.

        The gap scan calls it for every unseen sequence below a newer
        one; RMA calls it when someone's request proves the packet
        exists before any later packet revealed the gap.  No-op if
        already received/detected.
        """
        if seq in self.received or seq in self.detected:
            return
        self.detected.add(seq)
        self.log.loss_detected(self.node, seq, self.network.events.now)
        self.on_loss_detected(seq)


class RepairDeduper:
    """Suppresses duplicate repair multicasts.

    When a near-root loss hits, dozens of clients send recovery requests
    for the same sequence within a short window; without suppression the
    repairer multicasts one subtree flood per request.  A repair down
    subtree ``root`` at time ``t`` covers any requester inside that
    subtree until the flood has certainly arrived, so a second multicast
    before then is pure duplication.  (A requester whose copy of the
    flood was *lost* re-requests after its timeout — by then the hold has
    expired and a fresh repair goes out, so reliability is unaffected.)

    The hold window per (seq, root) is ``2 ×`` the maximum tree delay
    from the repair root to its subtree — an upper bound on request/
    repair crossing time.
    """

    def __init__(self, tree) -> None:
        self._tree = tree
        # seq -> active holds [(root, until)]; several disjoint subtree
        # repairs for one seq can be in flight at once (finer
        # subgroupings), so each needs its own hold.
        self._holds: dict[int, list[tuple[int, float]]] = {}
        self._span_cache: dict[int, float] = {}

    def _subtree_span(self, root: int) -> float:
        span = self._span_cache.get(root)
        if span is None:
            base = self._tree.delay_from_root(root)
            span = max(
                self._tree.delay_from_root(n) - base
                for n in self._tree.iter_subtree(root)
            )
            self._span_cache[root] = span
        return span

    def should_repair(self, seq: int, root: int, now: float) -> bool:
        """True when a repair multicast down ``root`` is not redundant;
        records the new hold when it returns True."""
        active = [
            (held_root, until)
            for held_root, until in self._holds.get(seq, [])
            if now < until
        ]
        for held_root, _ in active:
            if self._tree.is_ancestor(held_root, root):
                self._holds[seq] = active
                return False
        active.append((root, now + 2.0 * max(self._subtree_span(root), 1.0)))
        self._holds[seq] = active
        return True

    def send(
        self, network: SimNetwork, sender: int, root: int | None,
        requester: int, repair: Packet,
    ) -> None:
        """Send ``repair`` down the subtree at ``root``, or unicast it to
        ``requester`` when that subtree already holds a repair for its
        seq (its copy of the flood may be the lost one) or there is no
        subtree to repair (``root`` None: a requester pruned from the
        tree, or a protocol variant that repairs by unicast)."""
        if root is not None and self.should_repair(
            repair.seq, root, network.events.now
        ):
            network.multicast_subtree(sender, root, repair)
        else:
            network.send_unicast(sender, requester, repair)


class SourceAgentBase(abc.ABC):
    """The multicast source: owns every sent packet, answers requests."""

    def __init__(self, node: int, network: SimNetwork):
        self.node = node
        self.network = network
        self.next_seq = 0

    def has(self, seq: int) -> bool:
        return 0 <= seq < self.next_seq

    def bind_fast_path(self, receivers, row: int) -> None:
        """See :meth:`ClientAgent.bind_fast_path`: the source holds
        every packet, so every DATA or REPAIR it hears is a duplicate."""
        receivers.bind(row, holds_all=True)

    def on_packet(self, packet: Packet) -> None:
        if packet.kind is PacketKind.REQUEST:
            self.on_request(packet)
        elif packet.kind is PacketKind.NACK:
            self.on_nack(packet)
        # The source ignores DATA/REPAIR/SESSION echoes.

    @abc.abstractmethod
    def on_request(self, packet: Packet) -> None:
        """A unicast recovery request reached the source."""

    def on_nack(self, packet: Packet) -> None:
        """A multicast NACK reached the source (SRM); default ignore."""


@dataclass(frozen=True)
class StreamConfig:
    """Data/session stream parameters; a run takes them from
    :meth:`~repro.experiments.config.ScenarioConfig.stream_config`,
    which holds their defaults.

    Parameters
    ----------
    num_packets:
        Length of the data stream.
    data_interval:
        Gap between consecutive data multicasts (ms).
    session_interval:
        Period of the SESSION flush messages sent after the stream ends
        until the session completes.
    """

    num_packets: int
    data_interval: float
    session_interval: float

    def __post_init__(self) -> None:
        if self.num_packets < 1:
            raise ValueError("num_packets must be >= 1")
        # Negated, so NaN fails too: a NaN interval breaks the first
        # reschedule, an infinite one runs the clock to inf.
        for name in ("data_interval", "session_interval"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")


class StreamDriver:
    """Drives the source's data stream and session flushes."""

    def __init__(
        self,
        network: SimNetwork,
        source_agent: SourceAgentBase,
        config: StreamConfig,
        tracker: CompletionTracker,
        instrumentation: Instrumentation | None = None,
    ):
        self.network = network
        self.source_agent = source_agent
        self.config = config
        self.tracker = tracker
        self.instr = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self._session_timer = None

    def start(self) -> None:
        self.instr.phase(self.network.events.now, "stream.start")
        self.network.events.schedule(0.0, lambda: self._send_data(0))

    def _send_data(self, seq: int) -> None:
        source = self.source_agent.node
        self.network.multicast_subtree(
            source, source, Packet(PacketKind.DATA, seq, origin=source)
        )
        self.source_agent.next_seq = seq + 1
        if seq + 1 < self.config.num_packets:
            self.network.events.schedule(
                self.config.data_interval, lambda: self._send_data(seq + 1)
            )
        else:
            self.instr.phase(
                self.network.events.now,
                "stream.end",
                detail=f"sent {self.config.num_packets} packets",
            )
            self._session_timer = self.network.events.schedule(
                self.config.session_interval, self._send_session
            )

    def cancel_pending(self) -> None:
        """Cancel the session flush still armed at the drain cutoff.

        A drain shorter than ``session_interval`` ends before the next
        flush fires; the runner calls this before the invariant check so
        the driver's own timer doesn't read as a live protocol timer.
        """
        if self._session_timer is not None:
            self._session_timer.cancel()

    def _send_session(self) -> None:
        if self.tracker.complete:
            self.network.end_session()
            return
        source = self.source_agent.node
        packet = Packet(
            PacketKind.SESSION,
            seq=0,
            origin=source,
            highest_seq=self.config.num_packets - 1,
        )
        self.network.multicast_subtree(source, source, packet)
        self._session_timer = self.network.events.schedule(
            self.config.session_interval, self._send_session
        )


class ProtocolFactory(abc.ABC):
    """Builds and attaches one protocol's agents onto a simulation.

    :meth:`install` must attach a :class:`ClientAgent` subclass to every
    client of the tree and a :class:`SourceAgentBase` subclass to the
    source, and return the source agent (the runner hands it to the
    :class:`StreamDriver`).
    """

    name: str = "base"

    @abc.abstractmethod
    def install(
        self,
        network: SimNetwork,
        log: RecoveryLog,
        tracker: CompletionTracker,
        streams: RngStreams,
        num_packets: int,
        instrumentation: Instrumentation | None = None,
    ) -> SourceAgentBase:
        ...
