"""RP protocol runtime — executing the planner's prioritized lists.

Section 2.2 of the paper, operationally: when client ``u`` detects a
loss it unicasts a REQUEST to ``v_1`` from its prioritized list; if no
REPAIR arrives within the attempt's timeout it tries ``v_2``, and so on;
after the list is exhausted it requests the source, which "will
multicast the packet to all members of the subgroup (using the original
multicast tree) from where the recovery request came".  Subgroups are
the subtrees hanging off each child of the source
(:meth:`~repro.net.mcast_tree.MulticastTree.top_level_subgroup`).

Peers that receive a REQUEST for a packet they hold unicast the REPAIR
straight back; peers that miss it too stay silent and let the
requester's timer expire (the paper's failure-detection-by-timeout).
Requests to the source are retried forever (with the source timeout),
so the protocol is fully reliable even when requests or repairs are
themselves lost — a case the paper's analysis ignores but its (and our)
simulations exercise at up to 20% per-link loss.

Under injected faults (:mod:`repro.sim.faults`) retry-forever against a
crashed or black-holed source is a silent hang, so the runtime also
supports a hardened mode through
:class:`~repro.protocols.policy.RecoveryPolicy`: bounded per-peer
retries with exponential backoff, a consecutive-timeout failure
detector that skips dead peers (optionally re-planning the prioritized
lists with the dead peers restricted out of the strategy graph), and a
bounded source fallback that terminates hopeless recoveries in an
explicit ``abandoned`` record.  At the default policy every hardened
path collapses to the paper-faithful behaviour above, bit for bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.core import plan_cache
from repro.core.plan_repair import IncrementalPlanRepairer
from repro.core.planner import RecoveryStrategy, RPPlanner
from repro.core.objective import AttemptCostEstimator
from repro.core.strategy_graph import StrategyRestrictions
from repro.core.timeouts import TimeoutPolicy
from repro.metrics.collectors import RecoveryLog
from repro.obs.instrumentation import (
    NULL_INSTRUMENTATION,
    SOURCE_RANK,
    Instrumentation,
)
from repro.protocols.base import (
    ClientAgent,
    CompletionTracker,
    ProtocolFactory,
    RepairDeduper,
    SourceAgentBase,
)
from repro.protocols.policy import (
    DEFAULT_RECOVERY_POLICY,
    PeerFailureDetector,
    RecoveryPolicy,
)
from repro.sim.engine import Timer
from repro.sim.network import SimNetwork
from repro.sim.packet import Packet, PacketKind
from repro.sim.rng import RngStreams


@dataclass(frozen=True)
class RPConfig:
    """RP runtime knobs.

    Parameters
    ----------
    timeout_policy / estimator / restrictions:
        Forwarded to :class:`~repro.core.planner.RPPlanner`; ``None``
        picks the planner defaults (proportional timeouts, the paper's
        blend estimator, no restrictions).
    source_multicast:
        When True (the paper's design) the source repairs by
        multicasting to the requester's top-level subgroup; when False
        it unicasts to the requester only — an ablation isolating the
        subgroup mechanism's bandwidth/latency contribution.
    negative_acks:
        Beyond-paper extension: a peer that lacks the requested packet
        replies with a unicast "don't have" (NACK) instead of staying
        silent, so the requester advances after one round trip instead
        of a full timeout.  When enabled and no estimator is given, the
        planner automatically uses the RTT-only estimator — with NACKs
        a failed attempt costs the round trip, not ``t0``, so eq. (1)'s
        blend would mis-model the protocol.
    subgrouping:
        Factory ``tree -> SubgroupingStrategy`` controlling which
        subtree the source repairs into (section 2.2's "grouping clients
        in a net neighborhood"; the authors' [4]).  ``None`` uses the
        coarse one-subgroup-per-source-child default.
    recovery_policy:
        Retry/backoff/failure-detection/abandonment knobs
        (:class:`~repro.protocols.policy.RecoveryPolicy`); the default
        is the paper-faithful behaviour described in the module
        docstring.
    """

    timeout_policy: TimeoutPolicy | None = None
    estimator: AttemptCostEstimator | None = None
    restrictions: StrategyRestrictions | None = None
    source_multicast: bool = True
    negative_acks: bool = False
    subgrouping: "Callable[..., object] | None" = None
    recovery_policy: RecoveryPolicy = DEFAULT_RECOVERY_POLICY


class _PendingRecovery:
    """State machine for one in-progress loss recovery."""

    __slots__ = (
        "seq",
        "attempt_index",
        "timer",
        "req_id",
        "detected_at",
        "attempts_sent",
        "rank",
        "peer",
        "sent_at",
        "strategy",
        "target_retries",
        "source_attempts",
    )

    def __init__(self, seq: int, strategy: RecoveryStrategy, detected_at: float = 0.0):
        self.seq = seq
        self.attempt_index = 0
        self.timer: Timer | None = None
        self.req_id = -1
        # The strategy is snapshotted per recovery: a failure-detector
        # re-plan swaps the agent's list for *subsequent* losses, while
        # an in-flight recovery finishes on the list (and indexing) it
        # started with.
        self.strategy = strategy
        # Hardening state: retries of the current target (drives the
        # backoff scale) and total requests sent to the source (drives
        # the bounded-fallback abandonment).
        self.target_retries = 0
        self.source_attempts = 0
        # Telemetry bookkeeping: when the loss clock started, how many
        # requests went out, and where the latest one went.
        self.detected_at = detected_at
        self.attempts_sent = 0
        self.rank = SOURCE_RANK
        self.peer = -1
        self.sent_at = detected_at


class ListClientAgent(ClientAgent):
    """The requester every list protocol shares: walk a prioritized
    list, one unicast REQUEST and one timer per attempt, then fall back
    to the source.  :class:`RPClientAgent` (RP, the naive lists, SOURCE)
    and :class:`~repro.protocols.rma.RMAClientAgent` extend it as
    siblings, each serving requests its own way."""

    def __init__(
        self,
        node: int,
        network: SimNetwork,
        log: RecoveryLog,
        tracker: CompletionTracker,
        num_packets: int,
        strategy: RecoveryStrategy,
        instrumentation: Instrumentation | None = None,
        protocol: str = "rp",
        policy: RecoveryPolicy | None = None,
        detector: PeerFailureDetector | None = None,
    ):
        super().__init__(
            node, network, log, tracker, num_packets,
            instrumentation=instrumentation,
        )
        self.strategy = strategy
        self.protocol = protocol
        self.policy = policy if policy is not None else DEFAULT_RECOVERY_POLICY
        #: Shared per-run failure detector (None = disabled); dead peers
        #: are skipped when a recovery walks its prioritized list.
        self.detector = detector
        self._pending: dict[int, _PendingRecovery] = {}
        self._req_counter = 0

    # -- recovery state machine ------------------------------------------

    def on_loss_detected(self, seq: int) -> None:
        pending = _PendingRecovery(
            seq, self.strategy, detected_at=self.network.events.now
        )
        self._pending[seq] = pending
        self._send_next_request(pending)

    def _skip_dead_peers(self, pending: _PendingRecovery) -> None:
        if self.detector is None:
            return
        attempts = pending.strategy.attempts
        while (
            pending.attempt_index < len(attempts)
            and self.detector.is_dead(attempts[pending.attempt_index].node)
        ):
            pending.attempt_index += 1
            pending.target_retries = 0

    def _send_next_request(self, pending: _PendingRecovery) -> None:
        self._skip_dead_peers(pending)
        attempts = pending.strategy.attempts
        index = pending.attempt_index
        now = self.network.events.now
        if index < len(attempts):
            peer = attempts[index].node
            rank = index
            timeout = pending.strategy.timeouts[index]
        else:
            # Source fallback; retried on timeout — forever at the
            # default policy, bounded (then abandoned) when hardened.
            limit = self.policy.max_source_attempts
            if limit > 0 and pending.source_attempts >= limit:
                self._abandon_recovery(pending)
                return
            pending.source_attempts += 1
            peer = self.network.tree.root
            rank = SOURCE_RANK
            timeout = pending.strategy.source_timeout
        scale = self.policy.backoff_scale(pending.target_retries)
        if scale != 1.0:
            scaled = timeout * scale
            self.instr.backoff(
                now, self.protocol, self.node, pending.seq,
                backoff=pending.target_retries, extra=scaled - timeout,
            )
            timeout = scaled
        self._req_counter += 1
        pending.req_id = self._req_counter
        pending.attempts_sent += 1
        pending.rank = rank
        pending.peer = peer
        pending.sent_at = now
        # The attempt event opens the trace span, so the span context
        # must be read *after* emitting it.
        self.instr.attempt(
            now, self.protocol, self.node, pending.seq,
            pending.attempts_sent, rank, peer, "started",
            elapsed=now - pending.detected_at,
        )
        trace_id, span_id = self.instr.trace_ids(self.node, pending.seq)
        request = Packet(
            PacketKind.REQUEST,
            pending.seq,
            origin=self.node,
            req_id=self._req_counter,
            trace_id=trace_id,
            span_id=span_id,
        )
        self.network.send_unicast(self.node, peer, request)
        pending.timer = self.network.events.schedule(
            timeout, lambda: self._on_timeout(pending)
        )
        self.instr.timer(
            now, self.protocol, self.node, "rp.attempt", "armed",
            deadline=now + timeout, seq=pending.seq,
        )

    def _on_timeout(self, pending: _PendingRecovery) -> None:
        if pending.seq not in self._pending:
            return  # already recovered; timer raced with teardown
        now = self.network.events.now
        self.instr.timer(
            now, self.protocol, self.node, "rp.attempt", "fired",
            seq=pending.seq,
        )
        self.instr.attempt(
            now, self.protocol, self.node, pending.seq,
            pending.attempts_sent, pending.rank, pending.peer, "timed_out",
            elapsed=now - pending.sent_at,
        )
        if pending.rank != SOURCE_RANK:
            if self.detector is not None:
                died = self.detector.record_timeout(pending.peer)
                if died:
                    self.instr.fault(
                        now, "peer.dead", node=self.node, peer=pending.peer
                    )
            if (
                pending.target_retries + 1 < self.policy.max_peer_retries
                and not (
                    self.detector is not None
                    and self.detector.is_dead(pending.peer)
                )
            ):
                # Retry the same peer with a backed-off timeout.
                pending.target_retries += 1
            else:
                pending.attempt_index += 1
                pending.target_retries = 0
        else:
            # Stay on the source; the retry count drives the backoff.
            pending.target_retries += 1
        self._send_next_request(pending)

    def _abandon_recovery(self, pending: _PendingRecovery) -> None:
        """Bounded source fallback exhausted — terminate explicitly."""
        now = self.network.events.now
        self._pending.pop(pending.seq, None)
        self.instr.attempt(
            now, self.protocol, self.node, pending.seq,
            pending.attempts_sent, SOURCE_RANK, self.network.tree.root,
            "abandoned", elapsed=now - pending.detected_at,
        )
        self.instr.fault(
            now, "recovery.abandoned", node=self.node, seq=pending.seq
        )
        self.abandon(pending.seq)

    def on_recovered(self, seq: int) -> None:
        pending = self._pending.pop(seq, None)
        if pending is None:
            return
        now = self.network.events.now
        self._cancel_timer(pending)
        if self.log.is_recovered(self.node, seq):
            if self.detector is not None and pending.rank != SOURCE_RANK:
                self.detector.record_alive(pending.peer)
            # Success is attributed to the outstanding attempt: repairs
            # raced from an earlier rank are rare and indistinguishable
            # here without packet provenance.
            self.instr.attempt(
                now, self.protocol, self.node, seq,
                pending.attempts_sent, pending.rank, pending.peer,
                "succeeded", elapsed=now - pending.detected_at,
            )
        else:
            # The original DATA arrived late — the detection was false.
            self.instr.attempt(
                now, self.protocol, self.node, seq,
                pending.attempts_sent, pending.rank, pending.peer,
                "retracted", elapsed=now - pending.detected_at,
            )

    def _cancel_timer(self, pending: _PendingRecovery) -> None:
        if pending.timer is not None:
            pending.timer.cancel()
            self.instr.timer(
                self.network.events.now, self.protocol, self.node,
                "rp.attempt", "cancelled", seq=pending.seq,
            )

    def _teardown_recoveries(self) -> None:
        """Departure teardown: cancel every armed attempt timer."""
        for pending in self._pending.values():
            self._cancel_timer(pending)
        self._pending.clear()


class RPClientAgent(ListClientAgent):
    """A client executing its prioritized recovery list, answering
    peers' requests with unicast repairs (or NACKs)."""

    def __init__(self, *args, negative_acks: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.negative_acks = negative_acks

    # -- serving peers ------------------------------------------------------

    def on_protocol_packet(self, packet: Packet) -> None:
        if packet.kind is PacketKind.NACK:
            self._on_negative_ack(packet)
            return
        if packet.kind is not PacketKind.REQUEST:
            return
        if self.has(packet.seq):
            self.network.send_unicast(
                self.node, packet.origin,
                packet.reply(PacketKind.REPAIR, self.node),
            )
        elif self.negative_acks:
            # "Don't have": let the requester advance without a timeout.
            self.network.send_unicast(
                self.node, packet.origin,
                packet.reply(PacketKind.NACK, self.node),
            )
        # Without NACKs: stay silent; the requester's timer expires.

    def _on_negative_ack(self, packet: Packet) -> None:
        """A peer told us it lacks the packet — advance immediately."""
        pending = self._pending.get(packet.seq)
        if pending is None or packet.req_id != pending.req_id:
            return  # stale reply from an already-advanced attempt
        now = self.network.events.now
        if self.detector is not None:
            # "Don't have" is still proof of life.
            self.detector.record_alive(packet.origin)
        self._cancel_timer(pending)
        self.instr.attempt(
            now, self.protocol, self.node, pending.seq,
            pending.attempts_sent, pending.rank, pending.peer, "nacked",
            elapsed=now - pending.sent_at,
        )
        if pending.attempt_index < len(pending.strategy.attempts):
            # No point retrying a peer that just said "don't have":
            # advance regardless of the per-peer retry budget.
            pending.attempt_index += 1
            pending.target_retries = 0
        self._send_next_request(pending)


class RPSourceAgent(SourceAgentBase):
    """The source: subgroup-multicasts (or unicasts) repairs on request.

    Subgroup repairs are deduplicated: a burst of requests for one
    sequence (typical after a near-root loss) triggers a single subtree
    multicast, not one per requester (see
    :class:`~repro.protocols.base.RepairDeduper`).
    """

    def __init__(
        self,
        node: int,
        network: SimNetwork,
        source_multicast: bool,
        subgrouping=None,
    ):
        super().__init__(node, network)
        self.source_multicast = source_multicast
        self._deduper = RepairDeduper(network.tree)
        if subgrouping is None:
            from repro.core.subgroups import TopLevelSubgrouping

            subgrouping = TopLevelSubgrouping(network.tree)
        self.subgrouping = subgrouping

    def on_request(self, packet: Packet) -> None:
        if not self.has(packet.seq):
            return  # request for data not yet sent; requester will retry
        # A request from a member that has since left (and been pruned)
        # has no subgroup: it gets a unicast, membership-dropped at the
        # leaver.
        subgroup = (
            self.subgrouping.subgroup_root(packet.origin)
            if self.source_multicast
            and self.network.tree.contains(packet.origin)
            else None
        )
        self._deduper.send(
            self.network, self.node, subgroup, packet.origin,
            packet.reply(PacketKind.REPAIR, self.node),
        )


class RPProtocolFactory(ProtocolFactory):
    """Plans strategies for every client and installs the RP agents."""

    name = "RP"

    def __init__(self, config: RPConfig | None = None):
        self.config = config or RPConfig()
        #: Strategies planned by the most recent :meth:`install` and
        #: their estimator — telemetry reports read them for predictions.
        self.last_strategies: dict[int, RecoveryStrategy] = {}
        self.last_estimator: AttemptCostEstimator | None = None
        #: The incremental repairer the most recent :meth:`install` wired
        #: to the network's membership director (its history/stats feed
        #: the churn sweep's repair-cost report); None without churn.
        self.last_repairer: IncrementalPlanRepairer | None = None

    def install(
        self,
        network: SimNetwork,
        log: RecoveryLog,
        tracker: CompletionTracker,
        streams: RngStreams,
        num_packets: int,
        instrumentation: Instrumentation | None = None,
    ) -> SourceAgentBase:
        """Plan every client, attach the agents and the source, and —
        when the network has a membership director — wire incremental
        plan repair to it.

        After every join/leave the director fires, only the invalidated
        clients are re-planned, in one batched planner call per event
        (see :mod:`repro.core.plan_repair`), and one ``plan.repair``
        record carries the re-planned client count.  Failure-detector
        and churn re-plans alike swap lists for *subsequent* recoveries;
        in-flight recoveries keep their strategy snapshot.
        """
        estimator = self.config.estimator
        if estimator is None and self.config.negative_acks:
            # With "don't have" replies a failed attempt costs one
            # round trip, so plan with the RTT-only estimator.
            from repro.core.objective import RttOnlyEstimator

            estimator = RttOnlyEstimator()
        instr = (
            instrumentation if instrumentation is not None
            else NULL_INSTRUMENTATION
        )

        def planner(forbidden: frozenset = frozenset()) -> RPPlanner:
            """The planner with ``forbidden`` restricted out of the
            strategy graph, on top of the configured restrictions."""
            base = self.config.restrictions or StrategyRestrictions()
            return RPPlanner(
                network.tree,
                network.routing,
                timeout_policy=self.config.timeout_policy,
                estimator=estimator,
                restrictions=dataclasses.replace(
                    base,
                    forbidden_peers=(
                        frozenset(base.forbidden_peers) | forbidden
                    ),
                ),
            )

        def plan(forbidden: frozenset = frozenset()):
            rp_planner = planner(forbidden)
            self.last_estimator = rp_planner.estimator
            # Planning is a pure function of (tree, RTTs, timeout,
            # estimator, restrictions) — notably not of link loss
            # probabilities — so a loss-probability sweep hits the
            # process-global plan cache on every point after the first
            # (see repro.core.plan_cache).  The restrictions are part of
            # the cache key, so failure-detector re-plans with the same
            # dead set hit too; a new dead set on the same tree epoch
            # re-solves only the clients with a newly dead peer among
            # their candidates.  Timed once per plan call, not per
            # client: the profiler sees planning as one phase.
            with instr.scope("planner.plan"):
                return plan_cache.plans_for(rp_planner)

        agents: dict[int, RPClientAgent] = {}

        def swap(replanned: dict[int, RecoveryStrategy]) -> None:
            for client, strategy in replanned.items():
                agent = agents.get(client)
                if agent is not None:
                    agent.strategy = strategy

        self.last_strategies = plan()
        policy = self.config.recovery_policy
        detector: PeerFailureDetector | None = None
        if policy.failure_threshold > 0:

            def on_death(peer: int) -> None:
                self.last_strategies = plan(detector.dead)
                swap(self.last_strategies)

            detector = PeerFailureDetector(
                policy.failure_threshold, on_death=on_death
            )
        for client, strategy in self.last_strategies.items():
            agent = RPClientAgent(
                client,
                network,
                log,
                tracker,
                num_packets,
                strategy=strategy,
                negative_acks=self.config.negative_acks,
                instrumentation=instrumentation,
                policy=policy,
                detector=detector,
            )
            agents[client] = agent
            network.attach_agent(client, agent)
        subgrouping = (
            self.config.subgrouping(network.tree)
            if self.config.subgrouping is not None
            else None
        )
        source = RPSourceAgent(
            network.tree.root,
            network,
            self.config.source_multicast,
            subgrouping=subgrouping,
        )
        network.attach_agent(source.node, source)
        director = network.membership
        self.last_repairer = None
        if director is not None:
            repairer = IncrementalPlanRepairer(
                network.tree,
                network.routing,
                self.last_strategies,
                lambda clients, departed: (
                    planner(departed).plan_clients(clients)
                ),
            )
            self.last_repairer = repairer

            def on_change(kind: str, node: int, director) -> None:
                replanned = repairer.repair(kind, node, director.departed)
                swap(replanned)
                self.last_strategies = dict(repairer.strategies)
                instr.member(
                    network.events.now, "plan.repair", node=node,
                    seq=len(replanned),
                )

            director.add_listener(on_change)
        return source
