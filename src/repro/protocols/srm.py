"""SRM baseline — Scalable Reliable Multicast (Floyd et al., 1997).

The mechanism as the paper summarizes it (section 1): a receiver that
lost packet ``P`` sets a *request-suppression* timer; when it expires
without having heard anyone else's request for ``P``, the receiver
multicasts its request (NACK) to the whole group.  Any member holding
``P`` that hears the NACK sets a *repair-suppression* timer; when it
expires without having heard a repair, the member multicasts the repair.
"The timers effectively reduce the number of duplicate NACKs and repairs
... however, these timers also increase the recovery latency.
Furthermore, multicasting NACKs/repairs adds unnecessary load on routers
and significantly increases the bandwidth being used."

Timer distributions follow the SRM paper: a request fires uniformly in
``[C1·d_S, (C1+C2)·d_S]`` scaled by ``2^backoff`` (``d_S`` = one-way
delay estimate to the source), and a repair uniformly in
``[D1·d_A, (D1+D2)·d_A]`` (``d_A`` = delay to the NACK's origin).
Hearing another NACK for the same packet backs the request timer off;
hearing a repair cancels pending repair timers (suppression).  Requests
re-arm after each NACK so a lost repair is eventually re-requested —
full reliability.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from repro.metrics.collectors import RecoveryLog
from repro.obs.instrumentation import NULL_INSTRUMENTATION, Instrumentation
from repro.protocols.base import (
    ClientAgent,
    CompletionTracker,
    ProtocolFactory,
    SourceAgentBase,
)
from repro.sim.engine import Timer
from repro.sim.network import SimNetwork
from repro.sim.packet import Packet, PacketKind
from repro.sim.rng import RngStreams


@dataclass(frozen=True)
class SRMConfig:
    """SRM timer constants.

    ``c1``/``c2`` shape the request timer, ``d1``/``d2`` the repair
    timer (the classic defaults are 2, 2, 1, 1).  ``repair_hold_factor``
    scales the post-repair quiet period (in units of the responder's
    distance to the requester) during which it will not schedule another
    repair for the same packet.  ``max_backoff`` caps the exponential
    request backoff so timers stay finite.  ``max_request_rounds``
    bounds how many NACK floods one loss may send before the receiver
    gives up on it (an explicit ``abandoned`` terminal, for fault
    injection where nobody left alive may hold the packet); 0, the
    default, is the classic NACK-forever full-reliability mode.
    """

    c1: float = 2.0
    c2: float = 2.0
    d1: float = 1.0
    d2: float = 1.0
    repair_hold_factor: float = 3.0
    max_backoff: int = 8
    max_request_rounds: int = 0

    def __post_init__(self) -> None:
        # Negated, so NaN fails too: a non-finite constant would reach
        # the calendar as a NaN or infinite timer deadline.
        for name in ("c1", "c2", "d1", "d2", "repair_hold_factor"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.c1 + self.c2 <= 0:
            raise ValueError("request timer window must be positive")
        if self.max_backoff < 0:
            raise ValueError("max_backoff must be >= 0")
        if self.max_request_rounds < 0:
            raise ValueError("max_request_rounds must be >= 0 (0 = unbounded)")


class _SRMRepairLogic:
    """Repair-side behaviour shared by members and the source.

    Under the armed fast path, a duplicate REPAIR that finds no repair
    timer pending at its key only starts a hold, so the network leaves
    it off the calendar and records it in ``_suppressed`` (see
    :class:`~repro.sim.network.FastReceivers`).  :meth:`_settle` applies
    those records before every read or write of the seq's repair state:
    the latest one keyed below the current event sets the hold, exactly
    as its delivery would have.  Arming a timer puts the earliest record
    inside the timer's window back on the calendar, since that delivery
    cancels it.

    A NACK that finds a repair timer armed or a hold running changes
    nothing either, and the fast path leaves it off the calendar too.
    Every change of a held seq's repair state tells the network's
    screen when the agent can next arm a timer (:meth:`_reopen_nacks`),
    and the screen puts back the first NACK from then on.

    Runs on the agent's own ``node``, ``network`` and ``instr``, so the
    agent's base class sets those first.
    """

    def __init__(self, config: SRMConfig, rng: np.random.Generator):
        self.config = config
        self._rng = rng
        self._repair_timers: dict[int, Timer] = {}
        self._repair_hold_until: dict[int, float] = {}
        # Trace context of the NACK each pending repair answers, so the
        # repair flood inherits the requester's span (causal stamping).
        self._repair_ctx: dict[int, tuple[int, int]] = {}
        # The distance to the source, read once: members scale their
        # request timers by it, and the hold another member's repair
        # starts is the repair-hold factor times it, at least one unit.
        network = self.network
        self._d_source = network.routing.delay(self.node, network.tree.root)
        self._suppress_hold = config.repair_hold_factor * max(
            self._d_source, 1.0
        )
        # The dropped duplicate REPAIRs, seq -> sorted [(t, key seq,
        # packet index)], and the fast path's repair-deadline row (both
        # filled once the fast path is armed).
        self._suppressed: dict[int, list] = {}
        self._repair_due = None
        # The fast path's receivers and this agent's row in them.
        self._screen = None
        self._screen_row = -1

    def _watch_fast_path(self, receivers, row: int, holds_all: bool) -> None:
        self._repair_due = receivers.watch(
            row, self._suppressed, self._suppress_hold, holds_all
        )
        self._screen = receivers
        self._screen_row = row

    def _reopen_nacks(self, seq: int, heard: bool = False) -> None:
        """Tell the fast path's screen when this agent, which holds
        ``seq``, can next act on a NACK of it: never while a repair
        timer is armed, otherwise from its hold on — or from the end of
        the hold the first dropped REPAIR still ahead starts, if that
        comes first.  ``heard`` when a NACK of ``seq`` arrives now."""
        screen = self._screen
        if screen is None:
            return
        if seq in self._repair_timers:
            screen.nacks_closed(self._screen_row, seq)
            return
        self._settle(seq)
        at = self._repair_hold_until.get(seq, -1.0)
        records = self._suppressed.get(seq)
        if records and records[0][0] + self._suppress_hold < at:
            at = records[0][0] + self._suppress_hold
        screen.nacks_open(self._screen_row, seq, at, heard)

    def _settle(self, seq: int) -> None:
        """Apply the dropped REPAIRs of ``seq`` keyed below the current
        event: the latest of them sets the hold."""
        records = self._suppressed.get(seq)
        if not records:
            return
        now_key = self.network.events.current_key
        if records[0] > now_key:
            return
        i = bisect.bisect_left(records, now_key)
        self._repair_hold_until[seq] = records[i - 1][0] + self._suppress_hold
        del records[:i]

    def repair_hold_until(self) -> dict[int, float]:
        """The hold deadline of every seq, settled up to the current
        event."""
        for seq in list(self._suppressed):
            self._settle(seq)
        return self._repair_hold_until

    def _maybe_schedule_repair(self, nack: Packet) -> None:
        now = self.network.events.now
        seq, requester = nack.seq, nack.origin
        if seq in self._repair_timers:
            return
        self._settle(seq)
        if self._repair_hold_until.get(seq, -1.0) > now:
            self._reopen_nacks(seq, heard=True)
            return
        cfg = self.config
        d_a = self.network.routing.delay(self.node, requester)
        low, high = cfg.d1 * d_a, (cfg.d1 + cfg.d2) * d_a
        delay = low
        if high > low:  # Generator.uniform(low, high), bit for bit
            delay += (high - low) * self._rng.random()
        self._repair_ctx[seq] = (nack.trace_id, nack.span_id)
        self._repair_timers[seq] = self.network.events.schedule(
            delay, lambda: self._fire_repair(seq, requester)
        )
        self.instr.timer(
            now, "srm", self.node, "srm.repair", "armed",
            deadline=now + delay, seq=seq,
        )
        if self._repair_due is not None:
            self._repair_due[seq] = now + delay
            self._restore_suppression(seq, now + delay)
            self._screen.nacks_closed(self._screen_row, seq)

    def _restore_suppression(self, seq: int, due: float) -> None:
        """The earliest dropped REPAIR of ``seq`` due by ``due`` cancels
        the timer just armed: put its delivery back on the calendar.
        (It was keyed before the timer, so a tie at ``due`` is its.)"""
        records = self._suppressed.get(seq)
        if records and records[0][0] <= due:
            self.network.redeliver(records.pop(0), self.node)

    def _fire_repair(self, seq: int, requester: int) -> None:
        self._settle(seq)
        self._repair_timers.pop(seq, None)
        if self._repair_due is not None:
            self._repair_due[seq] = -math.inf
        self.instr.timer(
            self.network.events.now, "srm", self.node,
            "srm.repair", "fired", seq=seq,
        )
        cfg = self.config
        d_a = self.network.routing.delay(self.node, requester)
        self._repair_hold_until[seq] = (
            self.network.events.now + cfg.repair_hold_factor * d_a
        )
        self._reopen_nacks(seq)
        trace_id, span_id = self._repair_ctx.pop(seq, (-1, -1))
        self.network.flood_tree(
            self.node,
            Packet(
                PacketKind.REPAIR, seq, origin=self.node,
                trace_id=trace_id, span_id=span_id,
            ),
        )

    def _suppress_repair(self, seq: int) -> None:
        self._settle(seq)
        timer = self._repair_timers.pop(seq, None)
        self._repair_ctx.pop(seq, None)
        if timer is not None:
            timer.cancel()
            if self._repair_due is not None:
                self._repair_due[seq] = -math.inf
            self.instr.timer(
                self.network.events.now, "srm", self.node,
                "srm.repair", "cancelled", seq=seq,
            )
        # Seeing someone else's repair also starts our hold period:
        # without it we might respond to a retransmitted NACK that the
        # just-seen repair is already answering.
        self._repair_hold_until[seq] = (
            self.network.events.now + self._suppress_hold
        )
        if self.has(seq):
            self._reopen_nacks(seq)


class _PendingRequest:
    __slots__ = ("seq", "backoff", "timer", "detected_at", "attempts_sent")

    def __init__(self, seq: int, detected_at: float = 0.0):
        self.seq = seq
        self.backoff = 0
        self.timer: Timer | None = None
        self.detected_at = detected_at
        self.attempts_sent = 0


class SRMClientAgent(ClientAgent, _SRMRepairLogic):
    """A group member running SRM."""

    def __init__(
        self,
        node: int,
        network: SimNetwork,
        log: RecoveryLog,
        tracker: CompletionTracker,
        num_packets: int,
        config: SRMConfig,
        rng: np.random.Generator,
        instrumentation: Instrumentation | None = None,
    ):
        ClientAgent.__init__(
            self, node, network, log, tracker, num_packets,
            instrumentation=instrumentation,
        )
        _SRMRepairLogic.__init__(self, config, rng)
        self._requests: dict[int, _PendingRequest] = {}

    # -- request side -------------------------------------------------------

    def _request_delay(self, backoff: int) -> float:
        cfg = self.config
        scale = 2.0 ** min(backoff, cfg.max_backoff)
        low = cfg.c1 * self._d_source * scale
        high = (cfg.c1 + cfg.c2) * self._d_source * scale
        # Generator.uniform(low, high) draws exactly this, bit for bit,
        # but its argument handling costs three times the draw.
        return low + (high - low) * self._rng.random() if high > low else low

    def _arm_request(self, pending: _PendingRequest) -> None:
        if pending.timer is not None:
            pending.timer.cancel()
        delay = self._request_delay(pending.backoff)
        now = self.network.events.now
        pending.timer = self.network.events.schedule(
            delay, lambda: self._fire_request(pending)
        )
        self.instr.timer(
            now, "srm", self.node, "srm.request", "armed",
            deadline=now + delay, seq=pending.seq,
        )

    def _fire_request(self, pending: _PendingRequest) -> None:
        if pending.seq not in self._requests:
            return
        now = self.network.events.now
        self.instr.timer(
            now, "srm", self.node, "srm.request", "fired", seq=pending.seq
        )
        limit = self.config.max_request_rounds
        if limit > 0 and pending.attempts_sent >= limit:
            # Bounded mode: the wait after the final NACK flood expired
            # unanswered — terminate explicitly instead of flooding
            # forever.  (A repair that still arrives later is accepted
            # and logged as recovered.)
            self._abandon_request(pending)
            return
        pending.attempts_sent += 1
        # SRM has no prioritized list; every NACK flood addresses the
        # whole group, recorded as rank 0.
        self.instr.attempt(
            now, "srm", self.node, pending.seq, pending.attempts_sent,
            0, -1, "started", elapsed=now - pending.detected_at,
        )
        # The attempt event opens the trace span, so the span context
        # must be read *after* emitting it.
        trace_id, span_id = self.instr.trace_ids(self.node, pending.seq)
        self.network.flood_tree(
            self.node,
            Packet(
                PacketKind.NACK, pending.seq, origin=self.node,
                trace_id=trace_id, span_id=span_id,
            ),
        )
        # Wait (with backoff) for the repair; if it is lost, NACK again.
        pending.backoff += 1
        self.instr.backoff(now, "srm", self.node, pending.seq, pending.backoff)
        self._arm_request(pending)

    def _abandon_request(self, pending: _PendingRequest) -> None:
        now = self.network.events.now
        self._requests.pop(pending.seq, None)
        if pending.timer is not None:
            pending.timer.cancel()
        if self._screen is not None:
            self._screen.nacks_closed(self._screen_row, pending.seq)
        self.instr.attempt(
            now, "srm", self.node, pending.seq, pending.attempts_sent, 0, -1,
            "abandoned", elapsed=now - pending.detected_at,
        )
        self.instr.fault(
            now, "recovery.abandoned", node=self.node, seq=pending.seq
        )
        self.abandon(pending.seq)

    def on_loss_detected(self, seq: int) -> None:
        pending = _PendingRequest(seq, detected_at=self.network.events.now)
        self._requests[seq] = pending
        self._arm_request(pending)
        if self._screen is not None:
            self._screen.nacks_open(self._screen_row, seq, -math.inf)

    def on_new_packet(self, seq: int) -> None:
        self._reopen_nacks(seq)

    def on_recovered(self, seq: int) -> None:
        pending = self._requests.pop(seq, None)
        if pending is None:
            return
        now = self.network.events.now
        if pending.timer is not None:
            pending.timer.cancel()
            self.instr.timer(
                now, "srm", self.node, "srm.request", "cancelled", seq=seq
            )
        if self.log.is_recovered(self.node, seq):
            self.instr.attempt(
                now, "srm", self.node, seq, pending.attempts_sent, 0, -1,
                "succeeded", elapsed=now - pending.detected_at,
            )
        else:
            self.instr.attempt(
                now, "srm", self.node, seq, pending.attempts_sent, 0, -1,
                "retracted", elapsed=now - pending.detected_at,
            )

    def _teardown_recoveries(self) -> None:
        """Departure teardown: cancel request *and* repair timers (a
        leaver owes nobody a repair either)."""
        now = self.network.events.now
        for pending in self._requests.values():
            if pending.timer is not None:
                pending.timer.cancel()
                self.instr.timer(
                    now, "srm", self.node, "srm.request", "cancelled",
                    seq=pending.seq,
                )
        self._requests.clear()
        for seq, timer in self._repair_timers.items():
            timer.cancel()
            if self._repair_due is not None:
                self._repair_due[seq] = -math.inf
            self.instr.timer(
                now, "srm", self.node, "srm.repair", "cancelled", seq=seq
            )
        self._repair_timers.clear()
        self._repair_ctx.clear()
        self.repair_hold_until()

    def bind_fast_path(self, receivers, row: int) -> None:
        super().bind_fast_path(receivers, row)
        self._watch_fast_path(receivers, row, holds_all=False)

    # -- overheard traffic ---------------------------------------------------

    def on_protocol_packet(self, packet: Packet) -> None:
        if packet.kind is not PacketKind.NACK:
            return
        seq = packet.seq
        pending = self._requests.get(seq)
        if pending is not None:
            # Someone else asked first: suppress and back off.
            pending.backoff += 1
            self.instr.backoff(
                self.network.events.now, "srm", self.node, seq, pending.backoff
            )
            self._arm_request(pending)
            if self._screen is not None:
                self._screen.nacks_open(
                    self._screen_row, seq, -math.inf, heard=True
                )
        elif self.has(seq):
            self._maybe_schedule_repair(packet)

    def on_packet(self, packet: Packet) -> None:
        if packet.kind is PacketKind.REPAIR:
            self._suppress_repair(packet.seq)
        super().on_packet(packet)


class SRMSourceAgent(SourceAgentBase, _SRMRepairLogic):
    """The source is just a member that always has the data."""

    def __init__(
        self,
        node: int,
        network: SimNetwork,
        config: SRMConfig,
        rng: np.random.Generator,
        instrumentation: Instrumentation | None = None,
    ):
        SourceAgentBase.__init__(self, node, network)
        self.instr = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        _SRMRepairLogic.__init__(self, config, rng)

    def bind_fast_path(self, receivers, row: int) -> None:
        super().bind_fast_path(receivers, row)
        self._watch_fast_path(receivers, row, holds_all=True)

    def on_request(self, packet: Packet) -> None:
        # SRM has no unicast requests; treat defensively as a NACK.
        self.on_nack(packet)

    def on_nack(self, packet: Packet) -> None:
        if self.has(packet.seq):
            self._maybe_schedule_repair(packet)

    def on_packet(self, packet: Packet) -> None:
        if packet.kind is PacketKind.REPAIR:
            self._suppress_repair(packet.seq)
        super().on_packet(packet)


class SRMProtocolFactory(ProtocolFactory):
    name = "SRM"

    def __init__(self, config: SRMConfig | None = None):
        self.config = config or SRMConfig()

    def install(
        self,
        network: SimNetwork,
        log: RecoveryLog,
        tracker: CompletionTracker,
        streams: RngStreams,
        num_packets: int,
        instrumentation: Instrumentation | None = None,
    ) -> SourceAgentBase:
        rng = streams.get("srm-timers")
        for client in network.tree.clients:
            agent = SRMClientAgent(
                client, network, log, tracker, num_packets, self.config, rng,
                instrumentation=instrumentation,
            )
            network.attach_agent(client, agent)
        source = SRMSourceAgent(
            network.tree.root, network, self.config, rng,
            instrumentation=instrumentation,
        )
        network.attach_agent(source.node, source)
        return source
