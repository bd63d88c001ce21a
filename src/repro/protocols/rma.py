"""RMA baseline — Reliable Multicast Architecture (Levine & G-L-A, 1997).

As the paper describes it (section 1): "each receiver that lost some
packet attempts to achieve the shortest delay from the nearest upstream
(from this receiver toward the source) receiver that has received the
packet.  Once the request approaches an upstream receiver that has the
packet, this receiver will multicast the repair to the subtree that
contains all the receivers that have been requested."

Our runtime implements that with two mechanisms:

* **One-by-one upstream search.**  That search is a prioritized list —
  every upstream receiver, deepest attachment point on the requester's
  source path (largest ``DS``) first, ties broken toward the lowest RTT
  — so it runs on the list runtime RP shares
  (:class:`~repro.protocols.rp.ListClientAgent`): one REQUEST per
  upstream receiver, escalating on timeout, ending at the source.  RMA
  adds one rule: once ``source_deadline_factor × source RTT`` has passed
  since detection, it stops escalating and asks the source.  This is
  the "one-by-one searching is just best-effort, not strategic" the
  paper criticizes: the nearest upstream peers are precisely the ones
  whose losses correlate most with the requester's, so timeouts are
  burned on peers that almost surely miss the packet too — while RP's
  planner picks a better list.

* **Request subsumption.**  A visited receiver that also lacks the
  packet does not bounce the request; it *subsumes* it — remembering the
  first common router with the requester and making sure its own
  upstream search is running — and, when the packet finally reaches it
  (its own repair, or late data), multicasts the repair down the subtree
  rooted at the shallowest recorded meeting router, which by
  construction contains every receiver that requested through it.  This
  is how RMA keeps a near-root loss from degenerating into hundreds of
  independent end-to-end searches.

Repairs are subtree multicasts rooted at the first common router of
repairer and requester; the source repairs into the requester's
top-level subgroup (the subtree containing everything that was asked).
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.candidates import Candidate
from repro.core.planner import RecoveryStrategy
from repro.core.timeouts import ProportionalTimeout, TimeoutPolicy
from repro.metrics.collectors import RecoveryLog
from repro.net.mcast_tree import MulticastTree
from repro.net.routing import RoutingTable
from repro.obs.instrumentation import Instrumentation
from repro.protocols.base import (
    CompletionTracker,
    ProtocolFactory,
    RepairDeduper,
    SourceAgentBase,
)
from repro.protocols.policy import DEFAULT_RECOVERY_POLICY, RecoveryPolicy
from repro.protocols.rp import ListClientAgent
from repro.sim.network import SimNetwork
from repro.sim.packet import Packet, PacketKind
from repro.sim.rng import RngStreams


@dataclass(frozen=True)
class RMAConfig:
    """RMA runtime knobs.

    ``timeout_policy`` guards each one-by-one attempt (scaled to the
    attempted peer's RTT).  ``source_deadline_factor`` bounds the whole
    peer search: once ``factor × source RTT`` has elapsed since
    detection, the requester stops escalating through peers and asks the
    source directly — RMA's terminal fallback.  Without the bound, a
    near-root loss (where *every* upstream peer is missing the packet
    too) degenerates into hundreds of sequential timeouts.
    ``recovery_policy`` hardens the source fallback.  Its
    ``max_peer_retries`` is ignored, because RMA asks each upstream
    receiver once, and so is its ``failure_threshold``: a peer that stays
    silent is subsuming the request, not failing, so RMA runs no failure
    detector.
    """

    timeout_policy: TimeoutPolicy | None = None
    source_deadline_factor: float = 2.0
    recovery_policy: RecoveryPolicy = DEFAULT_RECOVERY_POLICY

    def __post_init__(self) -> None:
        if not self.source_deadline_factor > 0:
            raise ValueError("source_deadline_factor must be positive")


class UpstreamList(Sequence[Candidate]):
    """One client's RMA search order, kept as the arrays it was sorted
    in: index ``i`` builds ``Candidate(peer, ds, rtt)`` on access.

    A session walks a few entries of each list (the source deadline
    ends the walk), so building every entry at install would make
    objects nobody reads.  Iteration and slices build entries too;
    length and order are the full list's, which the source-deadline jump
    (to index ``len(attempts)``) relies on.
    """

    __slots__ = ("_peers", "_ds", "_rtt")

    def __init__(self, peers: np.ndarray, ds: np.ndarray, rtt: np.ndarray):
        self._peers = peers
        self._ds = ds
        self._rtt = rtt

    def __len__(self) -> int:
        return len(self._peers)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(
                Candidate, self._peers[index].tolist(),
                self._ds[index].tolist(), self._rtt[index].tolist(),
            ))
        return Candidate(
            int(self._peers[index]), int(self._ds[index]),
            float(self._rtt[index]),
        )

    def __iter__(self) -> Iterator[Candidate]:
        return iter(self[:])


def upstream_strategies(
    tree: MulticastTree, routing: RoutingTable, timeout_policy: TimeoutPolicy
) -> dict[int, RecoveryStrategy]:
    """Every client's RMA search order, as a prioritized list.

    A client's list holds every other client whose first common router
    with it lies strictly above it, nearest upstream first: descending
    ``DS``, then ascending RTT, then id.  Its ``attempts`` is an
    :class:`UpstreamList` over the sorted arrays, so a candidate is
    built only when a recovery reads it.  ``expected_delay`` is NaN: the
    source deadline truncates the list, so eq. 2 does not describe it.
    """
    depth = tree.depth_vector()
    clients = np.asarray(tree.clients, dtype=np.int64)
    strategies: dict[int, RecoveryStrategy] = {}
    for client in tree.clients:
        ds_u = tree.depth(client)
        ds = depth[tree.lca_vector(client, clients)]
        # Peers at or below the client (the client itself included)
        # lost whatever it lost.
        upstream = ds < ds_u
        peers, ds = clients[upstream], ds[upstream]
        rtt = 2.0 * np.asarray(routing.distances_from(client))[peers]
        # lexsort's primary key is its LAST array: (-ds, rtt, peer).
        order = np.lexsort((peers, rtt, -ds))
        peers, ds, rtt = peers[order], ds[order], rtt[order]
        source_rtt = routing.rtt(client, tree.root)
        strategies[client] = RecoveryStrategy(
            client=client,
            attempts=UpstreamList(peers, ds, rtt),
            timeouts=tuple(timeout_policy.timeout_array(rtt).tolist()),
            source_rtt=source_rtt,
            source_timeout=timeout_policy.timeout(source_rtt),
            expected_delay=math.nan,
            ds_u=ds_u,
        )
    return strategies


class RMAClientAgent(ListClientAgent):
    """An RMA receiver: walks its upstream search order on the shared
    list runtime, and repairs or subsumes the requests it is asked."""

    def __init__(self, *args, config: RMAConfig, **kwargs):
        # One request per upstream receiver: the deadline, not a retry
        # budget, bounds the walk.
        kwargs["policy"] = dataclasses.replace(
            config.recovery_policy, max_peer_retries=1
        )
        super().__init__(*args, protocol="rma", **kwargs)
        self._search_budget = config.source_deadline_factor * max(
            self.strategy.source_rtt, 1.0
        )
        # seq -> meeting routers of requests we subsumed while also
        # missing the packet; flushed when the packet reaches us.
        self._subsumed: dict[int, set[int]] = {}
        self._deduper = RepairDeduper(self.network.tree)

    # -- requester side ----------------------------------------------------

    def _send_next_request(self, pending) -> None:
        if self.network.events.now >= pending.detected_at + self._search_budget:
            # Deadline passed: stop escalating, ask the source.
            pending.attempt_index = len(pending.strategy.attempts)
        super()._send_next_request(pending)

    def _teardown_recoveries(self) -> None:
        """Departure teardown: also forget subsumed requests (the leaver
        no longer owes anyone a repair)."""
        super()._teardown_recoveries()
        self._subsumed.clear()

    # -- visited-receiver side ---------------------------------------------------

    def on_protocol_packet(self, packet: Packet) -> None:
        if packet.kind is not PacketKind.REQUEST:
            return
        seq = packet.seq
        tree = self.network.tree
        # A requester that left (and was pruned) while its request was
        # in flight has no meeting router any more: it gets a unicast if
        # we can answer — the delivery is membership-dropped at the
        # leaver — and is never subsumed.
        meeting = (
            tree.first_common_router(self.node, packet.origin)
            if tree.contains(packet.origin) else None
        )
        if self.has(seq):
            self._deduper.send(
                self.network, self.node, meeting, packet.origin,
                packet.reply(PacketKind.REPAIR, self.node),
            )
        elif meeting is not None:
            # Subsume: remember whom to cover, make sure our own search
            # runs.
            self._subsumed.setdefault(seq, set()).add(meeting)
            self.force_detect(seq)  # no-op if our search is already running

    def on_new_packet(self, seq: int) -> None:
        meetings = self._subsumed.pop(seq, None)
        if not meetings:
            return
        # The shallowest recorded meeting router's subtree contains all
        # the others (they lie on our own source path).
        tree = self.network.tree
        root = min(meetings, key=tree.depth)
        repair = Packet(PacketKind.REPAIR, seq, origin=self.node)
        self.network.multicast_subtree(self.node, root, repair)


class RMASourceAgent(SourceAgentBase):
    """The source: repairs into the requester's top-level subgroup."""

    def __init__(self, node: int, network: SimNetwork):
        super().__init__(node, network)
        self._deduper = RepairDeduper(network.tree)

    def on_request(self, packet: Packet) -> None:
        if not self.has(packet.seq):
            return  # not sent yet; the requester retries
        tree = self.network.tree
        # A pruned-leaver straggler has no subgroup: it gets a unicast.
        subgroup = (
            tree.top_level_subgroup(packet.origin)
            if tree.contains(packet.origin) else None
        )
        self._deduper.send(
            self.network, self.node, subgroup, packet.origin,
            packet.reply(PacketKind.REPAIR, self.node),
        )


class RMAProtocolFactory(ProtocolFactory):
    name = "RMA"

    def __init__(self, config: RMAConfig | None = None):
        self.config = config or RMAConfig()

    def install(
        self,
        network: SimNetwork,
        log: RecoveryLog,
        tracker: CompletionTracker,
        streams: RngStreams,
        num_packets: int,
        instrumentation: Instrumentation | None = None,
    ) -> SourceAgentBase:
        strategies = upstream_strategies(
            network.tree, network.routing,
            self.config.timeout_policy or ProportionalTimeout(),
        )
        for client, strategy in strategies.items():
            agent = RMAClientAgent(
                client, network, log, tracker, num_packets, strategy,
                config=self.config,
                instrumentation=instrumentation,
            )
            network.attach_agent(client, agent)
        source = RMASourceAgent(network.tree.root, network)
        network.attach_agent(source.node, source)
        return source
