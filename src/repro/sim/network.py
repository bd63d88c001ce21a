"""Packet-level network simulation.

Wires a :class:`~repro.net.topology.Topology`, its
:class:`~repro.net.routing.RoutingTable` and a
:class:`~repro.net.mcast_tree.MulticastTree` onto the event calendar.
Three transmission primitives cover everything the protocols need:

* :meth:`SimNetwork.send_unicast` — hop-by-hop along the minimum
  expected-RTT route (how the paper routes unicast, section 5.1);
* :meth:`SimNetwork.multicast_subtree` — a repair travelling up/over to
  a tree node and then copied down its subtree along tree links (RMA
  repairs, RP's source-subgroup fallback, the original data stream);
* :meth:`SimNetwork.flood_tree` — any-source group multicast: the
  packet spreads over every tree link outward from the originating
  member (SRM NACKs and repairs).

Each link traversal *attempt* draws an independent Bernoulli loss and
charges one hop to the bandwidth ledger — a transmitted-then-dropped
packet still consumed the link.  Link delay and loss are independent of
traffic volume; the paper points out this favors the chattier protocols
(SRM, then RMA), and we preserve that bias for fidelity.

Agents (protocol endpoints) register per node; intermediate routers
forward without an agent.  Deliveries never happen synchronously inside
the sender's call — everything is mediated by the event queue, so
protocol code observes a consistent clock.

**Array dissemination fast path.**  When the experiment runner calls
:meth:`SimNetwork.enable_fast_dissem` and the run has load-independent
links (no jitter, no congestion, no faults), a fixed membership and no
link observers, eligible disseminations are computed in numpy via
:mod:`repro.sim.dissem` and their deliveries are scheduled as one
calendar batch, instead of one event per link traversal.  A batch
holds one event per delivery that can change its receiver's state: a
DATA or REPAIR copy of a seq the receiver already holds, or will hold
from an earlier-keyed delivery, is left out (:class:`FastReceivers`),
and an SRM member settles the hold such a REPAIR would have started
when it next reads its repair state.  An SRM NACK that would find its
member neither waiting for the seq nor able to arm a repair timer is
left out too, and goes back on the calendar, at its own key, once the
member's state lets it act.  Eligibility is settled when the path is
armed; a send then falls back to the scalar path only when its
loss draws cannot be reproduced.  Where no two events share an
instant the fast path is bit-identical to the scalar path — same RNG
consumption, arrival times and ledger counts (each charge counts once
its transmit instant passes, see
:meth:`~repro.metrics.collectors.BandwidthLedger.charge_fast`) —
except for the number of events it runs.  Same-instant deliveries fire
in batch or send order, not the scalar walk's: common on integer
delays, rare on random float ones.

The DATA stream and the SESSION flushes each run on one stream lane
(:class:`_Stream`) whose loss draws only its cascades consume: DATA has
its own loss lane, and SESSION shares the recovery lane only under
lossless recovery, which draws nothing there.  A send resolves every
draw up to the next send's instant, across all cascades still in
flight; DATA's last send resolves the rest, and the stream driver's
:meth:`SimNetwork.end_session` does so for SESSION once it finds the
session complete.

The scalar path is two closure-free walkers: a path walker steps a
cached route (LRUs of routed paths — client↔peer pairs repeat heavily
— and of tree access legs), a flood walker copies over cached per-node
``(neighbor, link)`` tuples.  A subtree copy is a flood that never
climbs above its root, so SRM's floods and every subtree multicast
share the flood walker.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Protocol

import numpy as np

from repro.lru import LRU
from repro.net.mcast_tree import MulticastTree
from repro.net.routing import RoutingTable
from repro.net.topology import Link, Topology
from repro.sim import dissem as dissem_mod
from repro.sim.engine import EventQueue, HeapEntry
from repro.sim.packet import RECOVERY_KINDS, Packet, PacketKind
from repro.sim.trace import TraceEvent, TraceKind

if TYPE_CHECKING:  # pragma: no cover - import cycle breaker
    from repro.metrics.collectors import BandwidthLedger
    from repro.protocols.base import StreamConfig
    from repro.sim.faults import FaultInjector
    from repro.sim.membership import MembershipDirector

#: Routed-path LRU capacity (entries).  Recovery traffic concentrates
#: on client↔peer and client↔source pairs, which repeat heavily.
PATH_CACHE_SIZE = 65536

#: Tree access-leg LRU capacity (entries).
LEG_CACHE_SIZE = 8192

_INF = float("inf")
_NEG_INF = -_INF


class Agent(Protocol):
    """Protocol endpoint attached to a node.

    An agent may also define ``bind_fast_path(receivers, row)``, called
    when the fast path is armed (see :class:`FastReceivers`); one that
    does not receives every delivery.
    """

    def on_packet(self, packet: Packet) -> None:  # pragma: no cover - protocol
        ...


class _RoutedPath:
    """A cached unicast route: nodes, links and per-hop delays."""

    __slots__ = ("nodes", "links", "delays", "lossless")

    def __init__(self, topology: Topology, nodes: list[int]):
        self.nodes = tuple(nodes)
        links = tuple(
            topology.link_between(nodes[i], nodes[i + 1])
            for i in range(len(nodes) - 1)
        )
        self.links = links
        self.delays = [link.delay for link in links]
        self.lossless = all(link.loss_prob == 0.0 for link in links)

    def hop_times(self, start: float) -> tuple[np.ndarray, float]:
        """Transmit instant of each hop of a walk leaving at ``start``,
        and its arrival time: the scalar walk's clock, one left-to-right
        float addition per hop."""
        times = np.empty(len(self.delays), dtype=np.float64)
        t = start
        for i, d in enumerate(self.delays):
            times[i] = t
            t = t + d
        return times, t


class _PathTransit(HeapEntry):
    """Closure-free hop walker along a cached path.

    One instance per send; it is its own heap entry and steps the path
    without allocating a timer or a lambda per hop.  At the last node it
    delivers; a multicast access leg then floods the subtree below that
    node (``came_from`` is the subtree root's tree parent, -1 at the
    tree root), a unicast journey (``came_from`` None) stops there.
    """

    __slots__ = ("_network", "_path", "_packet", "_came_from", "_index")

    def __init__(
        self,
        network: "SimNetwork",
        path: _RoutedPath,
        packet: Packet,
        came_from: int | None,
    ):
        self._network = network
        self._path = path
        self._packet = packet
        self._came_from = came_from
        self._index = 0

    def callback(self) -> None:
        network = self._network
        path = self._path
        i = self._index
        if i == len(path.nodes) - 1:
            node = path.nodes[i]
            network._deliver(self._packet, node)
            if self._came_from is not None:
                network._flood_spread(node, self._came_from, self._packet)
            return
        self._index = i + 1
        network._transmit(path.links[i], path.nodes[i + 1], self._packet, self)


class _FloodArrival(HeapEntry):
    """Arrival of one flood or subtree copy, as its own heap entry:
    deliver, then spread everywhere but back where it came from."""

    __slots__ = ("_network", "_node", "_came_from", "_packet")

    def __init__(
        self, network: "SimNetwork", node: int, came_from: int, packet: Packet
    ):
        self._network = network
        self._node = node
        self._came_from = came_from
        self._packet = packet

    def callback(self) -> None:
        self._network._deliver(self._packet, self._node)
        self._network._flood_spread(self._node, self._came_from, self._packet)


@dataclass(eq=False, slots=True)
class _Stream:
    """One root stream of the fast path, DATA or SESSION: its cascades,
    resolved epoch by epoch between the stream driver's sends."""

    cascades: dissem_mod.CascadeSet  # holds the lane's loss RNG
    interval: float
    #: Sends in the stream; None = until the session ends.
    count: int | None
    #: The packets sent, by cascade ordinal, and the next send's instant
    #: (the epoch end).
    packets: list[Packet] = field(default_factory=list)
    next: float = 0.0


class FastReceivers:
    """Receiver-side sequence state of an armed fast path: one row per
    agent, in preorder, so its size follows the agents, not the nodes.

    ``arrival[row, seq]`` is the earliest instant at which the row's
    agent is known to hold ``seq``: written by the agent when it first
    accepts ``seq`` and lowered by :meth:`SimNetwork._apply_fast` for
    every delivery it schedules.  A delivery at ``t >= arrival[row,
    seq]`` is therefore a duplicate — the agent holds ``seq`` already,
    or an earlier-keyed delivery will have given it.  NaN marks an agent
    that did not bind (:meth:`bind`): every delivery to it runs.

    A bound agent is one for which a duplicate DATA or REPAIR changes
    nothing, and the fast path drops those deliveries.  An agent that
    also calls :meth:`watch` (SRM) still acts on a duplicate REPAIR: it
    cancels a repair timer pending at that key and starts a hold.
    ``repair_due[row, seq]`` is that timer's deadline (-inf when none is
    armed).  A duplicate REPAIR before it runs; any other is dropped and
    recorded in the agent's ``suppressed`` map as ``(t, key seq, i)``,
    ``packets[i]`` its packet, in key order, for the agent to settle.

    A watching agent acts on a NACK for ``seq`` only while it waits for
    ``seq`` (it backs off its request) or holds it and can arm a repair
    timer for it (it arms one).  ``nack_open[seq][row]`` says which:
    -inf while it waits; NaN while it can act on none (it neither holds
    nor waits for ``seq``, or a repair timer is armed); otherwise a time
    before which it cannot arm a timer (a lower bound of its hold that
    counts the dropped REPAIRs still ahead).  ``nack_next[seq][row]`` is
    the time of a NACK to the agent still on the calendar that fires
    before any recorded one could act, or inf.  A batch keeps a
    delivery to a waiting agent only ahead of that one and of the seq's
    arrival, and to an open agent only from its open time on and ahead
    of that one, since the first that acts arms a timer; a kept
    delivery becomes ``nack_next``.  Every other delivery is recorded
    in ``nacks[row][seq]``, sorted.  Whenever the agent's state changes
    it tells the screen (:meth:`nacks_open`, :meth:`nacks_closed`),
    which puts the earliest record that can now act back on the
    calendar; so does every NACK that runs and leaves the agent waiting
    or open.  Each NACK that acts thus fires at its own key.
    """

    __slots__ = (
        "arrival", "nodes", "watched", "repair_due", "suppressed",
        "packets", "nack_open", "nack_next", "hold_span", "nacks",
        "_node_ids", "_events", "_redeliver",
    )

    def __init__(
        self, nodes: np.ndarray, num_packets: int,
        network: "SimNetwork | None" = None,
    ):
        #: Node id of each row.
        self.nodes = nodes
        self._node_ids = nodes.tolist()
        self.arrival = np.full((nodes.size, num_packets), np.nan)
        self.watched = np.zeros(nodes.size, dtype=bool)
        self.repair_due: np.ndarray | None = None
        self.suppressed: dict[int, dict] = {}
        #: The packet of every batch that recorded deliveries.  Records
        #: hold its index, not the packet: a tuple of numbers leaves the
        #: garbage collector's tracking, one holding an object does not.
        self.packets: list[Packet] = []
        # Per seq, per row (Python lists: the agents read and write
        # them one at a time).
        self.nack_open: list[list[float]] = []
        self.nack_next: list[list[float]] = []
        #: The hold a REPAIR heard from another member starts, per row.
        self.hold_span: np.ndarray | None = None
        self.nacks: list[list[list] | None] = [None] * nodes.size
        # The clock, and the network's put-back of recorded deliveries.
        self._events = network.events if network is not None else None
        self._redeliver = network.redeliver if network is not None else None

    def bind(self, row: int, holds_all: bool = False) -> np.ndarray:
        """Drop duplicate DATA/REPAIR deliveries to ``row``; returns
        the row's arrival view (-inf throughout when the agent holds
        every packet from the start, the source)."""
        self.arrival[row] = -np.inf if holds_all else np.inf
        return self.arrival[row]

    def watch(
        self, row: int, suppressed: dict, hold_span: float,
        holds_all: bool = False,
    ) -> np.ndarray:
        """Duplicate REPAIRs and NACKs to ``row`` act as the class
        docstring says.  The dropped REPAIRs are recorded in
        ``suppressed`` (seq -> sorted records); one heard from another
        member holds the agent for ``hold_span``.  The agent starts out
        closed to the NACKs of every seq, or open from the start when it
        holds every packet (the source).  Returns the row's
        repair-deadline view for the agent to keep."""
        rows, seqs = self.arrival.shape
        if self.repair_due is None:
            self.repair_due = np.full((rows, seqs), -np.inf)
            self.nack_open = [[np.nan] * rows for _ in range(seqs)]
            self.nack_next = [[np.inf] * rows for _ in range(seqs)]
            self.hold_span = np.zeros(rows)
        self.watched[row] = True
        self.suppressed[row] = suppressed
        for opens in self.nack_open:
            opens[row] = 0.0 if holds_all else np.nan
        self.hold_span[row] = hold_span
        self.nacks[row] = [[] for _ in range(seqs)]
        return self.repair_due[row]

    def screen(
        self, packet: Packet, rows: np.ndarray, times: np.ndarray
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``(keep, recorded)`` masks over a batch of ``packet`` to
        ``rows``; None when every item runs (keep) or none is recorded.
        A DATA/REPAIR batch lowers the rows' arrivals."""
        kind, seq = packet.kind, packet.seq
        if kind is PacketKind.NACK:
            if self.repair_due is None:
                return None, None
            opens = np.array(self.nack_open[seq])[rows]
            ahead = np.array(self.nack_next[seq])[rows]
            # A waiting agent holds the seq from its arrival on.
            waiting = opens == -np.inf
            if waiting.any():
                ahead = np.where(
                    waiting, np.fmin(ahead, self.arrival[rows, seq]), ahead
                )
            watched = self.watched[rows]
            keep = (times >= opens) & (times < ahead) & watched
            nxt = self.nack_next[seq]
            for row, t in zip(rows[keep].tolist(), times[keep].tolist()):
                nxt[row] = t
            keep |= ~watched
            if keep.all():
                return None, None
            return keep, ~keep
        if kind is not PacketKind.DATA and kind is not PacketKind.REPAIR:
            return None, None
        known = self.arrival[rows, seq]
        dup = times >= known
        self.arrival[rows, seq] = np.minimum(known, times)  # NaN stays
        if not dup.any():
            return None, None
        keep = ~dup
        if kind is PacketKind.REPAIR and self.repair_due is not None:
            watched = dup & self.watched[rows]
            if watched.any():
                real = watched & (times < self.repair_due[rows, seq])
                keep |= real
                recorded = watched & ~real
                return keep, recorded if recorded.any() else None
        return keep, None

    def record(
        self, packet: Packet, rows: np.ndarray, times: np.ndarray,
        keys: np.ndarray,
    ) -> None:
        """Record each dropped NACK or duplicate REPAIR with its agent as
        ``(t, key seq, i)``, in key order, ``packets[i]`` being
        ``packet``.  A REPAIR that holds an open agent for less than its
        open time opens it earlier."""
        seq = packet.seq
        pairs = zip(rows.tolist(), zip(
            times.tolist(), keys.tolist(), repeat(len(self.packets))
        ))
        self.packets.append(packet)
        insort = bisect.insort
        if packet.kind is PacketKind.NACK:
            nacks = self.nacks
            for row, record in pairs:
                insort(nacks[row][seq], record)
            return
        suppressed = self.suppressed
        for row, record in pairs:
            insort(suppressed[row].setdefault(seq, []), record)
        ats = times + self.hold_span[rows]
        earlier = ats < np.array(self.nack_open[seq])[rows]  # open rows only
        if earlier.any():
            for row, at in zip(rows[earlier].tolist(), ats[earlier].tolist()):
                self.nacks_open(row, seq, at)

    def nacks_open(
        self, row: int, seq: int, at: float, heard: bool = False
    ) -> None:
        """``row`` holds ``seq`` with no repair timer armed and cannot
        arm one before ``at`` — or waits for ``seq``, ``at`` = -inf;
        ``heard`` when a NACK of ``seq`` to it fires now.  The earliest
        NACK recorded from ``at`` on, and after the current event, goes
        back on the calendar unless a delivery already there comes
        first — for a waiting agent, only if it comes no later than the
        seq's arrival (a tie's order is not known)."""
        self.nack_open[seq][row] = at
        nxt = self.nack_next[seq]
        first = nxt[row]
        records = self.nacks[row][seq]
        if not records and not heard:
            return
        now_key = self._events.current_key
        if heard and first <= now_key[0]:
            first = _INF  # it was this delivery
        if records:
            i = bisect.bisect_left(
                records, (at, -1) if at > now_key[0] else now_key
            )
            if i < len(records):
                t = records[i][0]
                waiting = at == _NEG_INF
                if t <= first and (not waiting or t <= self.arrival[row, seq]):
                    self._redeliver(records.pop(i), self._node_ids[row])
                    first = t
        nxt[row] = first

    def nacks_closed(self, row: int, seq: int) -> None:
        """``row`` can act on no NACK of ``seq`` until it tells again."""
        self.nack_open[seq][row] = np.nan
        self.nack_next[seq][row] = np.inf


class _FastDissem:
    """Per-run state of the array dissemination fast path: the tree's
    arrays, the agents' preorder positions, their receiver state and
    the two stream lanes, built when it is armed."""

    __slots__ = (
        "stream", "dissem", "agent_pos", "receivers", "scratch", "streams",
    )

    def __init__(
        self,
        network: "SimNetwork",
        stream: "StreamConfig",
        data_rng: np.random.Generator,
        session_rng: np.random.Generator,
    ):
        agents = network._agents
        self.stream = stream
        self.dissem = dissem_mod.TreeDissem(network.tree)
        pos = self.dissem.pos_of_node
        self.agent_pos = np.asarray(
            sorted(int(pos[n]) for n in agents if pos[n] >= 0),
            dtype=np.int64,
        )
        nodes = self.dissem.order[self.agent_pos]
        self.receivers = FastReceivers(nodes, stream.num_packets, network)
        for row, node in enumerate(nodes.tolist()):
            bind = getattr(agents[node], "bind_fast_path", None)
            if bind is not None:
                bind(self.receivers, row)
        self.scratch = np.empty(self.dissem.num_members, dtype=np.float64)
        receivers = self.agent_pos[self.agent_pos > 0]
        # A lane refused at its first send is removed.
        self.streams = {
            PacketKind.DATA: _Stream(
                dissem_mod.CascadeSet(self.dissem, data_rng, receivers),
                stream.data_interval, stream.num_packets,
            ),
            PacketKind.SESSION: _Stream(
                dissem_mod.CascadeSet(self.dissem, session_rng, receivers),
                stream.session_interval, None,
            ),
        }


class SimNetwork:
    """The simulated network: forwarding, loss, delay, accounting."""

    def __init__(
        self,
        events: EventQueue,
        topology: Topology,
        routing: RoutingTable,
        tree: MulticastTree,
        loss_rng: np.random.Generator,
        ledger: "BandwidthLedger | None" = None,
        data_loss_rng: np.random.Generator | None = None,
        lossless_recovery: bool = False,
        jitter: float = 0.0,
        jitter_rng: np.random.Generator | None = None,
        congestion: "object | None" = None,
        faults: "FaultInjector | None" = None,
        membership: "MembershipDirector | None" = None,
    ):
        # Imported here, not at module level: metrics.collectors imports
        # sim.packet, so a module-level import would be circular.
        from repro.metrics.collectors import BandwidthLedger

        if routing.topology is not topology or tree.topology is not topology:
            raise ValueError("topology, routing and tree must be consistent")
        self.events = events
        self.topology = topology
        self.routing = routing
        self.tree = tree
        self._loss_rng = loss_rng
        # DATA packets may draw from their own stream so that protocols
        # compared on one seed face the *identical* original-loss
        # pattern (recovery traffic still uses per-protocol entropy).
        self._data_loss_rng = data_loss_rng if data_loss_rng is not None else loss_rng
        # The paper's simulator ignores loss of requests and repairs
        # (section 3.1: "the probability that the request or the repair
        # is lost is ignored"; Figure 7's flat latency curves up to
        # p=20% are only consistent with that).  With
        # ``lossless_recovery`` only DATA/SESSION packets face loss.
        self._lossless_recovery = lossless_recovery
        # Optional per-transmission delay jitter: the actual delay of a
        # traversal is uniform in [d(1-j), d(1+j)].  The paper fixes the
        # expected delay per link; jitter is a beyond-paper realism knob
        # (it introduces reordering, which gap detection must tolerate).
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        if jitter > 0.0 and jitter_rng is None:
            raise ValueError("jitter > 0 requires a jitter_rng")
        self._jitter = jitter
        self._jitter_rng = jitter_rng
        # Optional load-dependent delays (LinearCongestionModel); None
        # keeps the paper's load-independent links.
        self._congestion = congestion
        # Optional fault injection (crash windows, link downs, burst
        # loss, recovery black-holing — see repro.sim.faults).  None
        # keeps every fault check at a single attribute test, and the
        # runner never constructs an injector for a null schedule, so
        # fault-free runs replay the pre-fault byte stream exactly.
        self._faults = faults
        # Read once: whether Gilbert–Elliott replaces the Bernoulli draw.
        self._burst_loss = faults is not None and faults.burst_loss
        # Optional dynamic membership (join/leave churn — see
        # repro.sim.membership).  Same discipline as faults: None keeps
        # every check at one attribute test, and the runner never
        # constructs a director for a null schedule, so churn-free runs
        # replay the pre-membership byte stream exactly.  The director
        # suppresses a departed member's sends *before* the tree
        # containment checks: a pruned leaf is no longer a tree member,
        # and its last armed sends must vanish, not raise.
        self._membership = membership
        if membership is not None:
            membership.bind(self)
        self.ledger = ledger if ledger is not None else BandwidthLedger()
        self._agents: dict[int, Agent] = {}
        # Link observers receive one TraceEvent per transmission, drop
        # and delivery — the single transmission-level record stream the
        # TraceRecorder and the causal tracer both consume.  The empty
        # list keeps every emission site at one truthiness test, so an
        # unobserved run constructs no events at all.
        self._link_observers: list[Callable[[TraceEvent], None]] = []
        # Array dissemination fast path; armed by enable_fast_dissem.
        self._fast: _FastDissem | None = None
        # LRUs of routed unicast paths and tree access legs (both as
        # _RoutedPath records), shared by the scalar transits and the
        # fast path's delay prefixes.
        self._path_cache = LRU(PATH_CACHE_SIZE)
        self._leg_cache = LRU(LEG_CACHE_SIZE)

    # -- link observers ---------------------------------------------------

    def add_link_observer(
        self, observer: Callable[[TraceEvent], None]
    ) -> None:
        """Register ``observer`` for every transmit/drop/deliver event.

        Observers must be registered before the fast path is armed: a
        fast dissemination emits no per-link events.
        """
        if self._fast is not None:
            raise RuntimeError(
                "cannot add a link observer once fast dissemination is armed"
            )
        self._link_observers.append(observer)

    def remove_link_observer(
        self, observer: Callable[[TraceEvent], None]
    ) -> None:
        self._link_observers.remove(observer)

    def _emit_link(
        self, kind: TraceKind, packet: Packet, node: int, peer: int,
        delay: float,
    ) -> None:
        event = TraceEvent(
            time=self.events.now,
            kind=kind,
            packet_kind=packet.kind,
            seq=packet.seq,
            origin=packet.origin,
            node=node,
            peer=peer,
            trace_id=packet.trace_id,
            span_id=packet.span_id,
            delay=delay,
        )
        for observer in self._link_observers:
            observer(event)

    # -- agents ----------------------------------------------------------

    def attach_agent(self, node: int, agent: Agent) -> None:
        if node in self._agents:
            raise ValueError(f"node {node} already has an agent")
        if not 0 <= node < self.topology.num_nodes:
            raise ValueError(f"unknown node {node}")
        self._agents[node] = agent

    def agent_at(self, node: int) -> Agent | None:
        return self._agents.get(node)

    def _deliver(self, packet: Packet, node: int) -> None:
        # The DELIVER event fires for every arrival — agentless routers
        # and crash-dropped deliveries included — so observers see the
        # wire's view, not the process's.
        if self._link_observers:
            self._emit_link(TraceKind.DELIVER, packet, node, -1, 0.0)
        agent = self._agents.get(node)
        if agent is not None:
            if self._faults is not None and self._faults.drop_delivery(
                node, packet, self.events.now
            ):
                # The node's *process* is crashed: the wire delivered,
                # the agent silently ignores.  (Forwarding through the
                # node is unaffected — routers did not crash.)
                return
            if self._membership is not None and self._membership.drop_delivery(
                node, packet, self.events.now
            ):
                # The node left the group: the wire delivered, the
                # departed process ignores.  (Interior ex-members still
                # forward — the wire outlives the member.)
                return
            agent.on_packet(packet)

    # -- path caches -----------------------------------------------------

    def _routed_path(self, src: int, dst: int) -> _RoutedPath:
        key = (src, dst)
        entry = self._path_cache.get(key)
        if entry is None:
            entry = _RoutedPath(self.topology, self.routing.path(src, dst))
            self._path_cache.put(key, entry)
        return entry

    def _tree_leg(self, src: int, subtree_root: int) -> _RoutedPath:
        key = (src, subtree_root)
        entry = self._leg_cache.get(key)
        if entry is None:
            entry = _RoutedPath(
                self.topology, self.tree.tree_path(src, subtree_root)
            )
            self._leg_cache.put(key, entry)
        return entry

    # -- dynamic membership ----------------------------------------------

    @property
    def membership(self) -> "MembershipDirector | None":
        return self._membership

    def on_tree_mutated(self) -> None:
        """Invalidate tree-derived caches after a prune/graft.

        The access-leg LRU holds tree paths, which a mutation can
        reroute; the routed-path LRU is topology-only and survives.
        (The tree rebuilds its own derived structures internally, and
        the fast dissemination path is never armed alongside a
        membership director.)
        """
        self._leg_cache.clear()

    # -- array dissemination fast path -----------------------------------

    def enable_fast_dissem(self, stream: "StreamConfig") -> bool:
        """Arm the array dissemination fast path for a runner-driven
        session.

        Eligibility is settled here, once: links are load-independent —
        no jitter, no congestion model, no fault injector — membership is
        fixed (no director) and no link observer is registered (a fast
        dissemination emits no per-link events; :meth:`add_link_observer`
        refuses once armed).  What remains per send is whether the
        journey's loss draws can be reproduced (draw-freedom, the
        DATA/SESSION lanes' first-send refusals); a send that fails it
        takes the scalar path.  Arming builds the tree's arrays, the
        agents' positions and the stream lanes, so every agent must be
        attached first.  Only the runner calls
        this; directly constructed networks keep the scalar path
        throughout.
        """
        self._fast = None
        if self._jitter > 0.0 or self._congestion is not None:
            return False
        if self._faults is not None or self._link_observers:
            return False
        if self._membership is not None:
            # Churn mutates the tree mid-run; the fast path's TreeDissem
            # arrays snapshot it once.  Scalar path throughout.
            return False
        self._fast = _FastDissem(
            self, stream, self._data_loss_rng, self._loss_rng
        )
        return True

    @property
    def fast_dissem_enabled(self) -> bool:
        return self._fast is not None

    def _apply_fast(
        self,
        packet: Packet,
        rows: np.ndarray,
        deliver_times: np.ndarray,
        hop_times: np.ndarray,
        drop_times: np.ndarray | None,
    ) -> None:
        """Charge a resolved dissemination and schedule its deliveries
        to the agents of ``rows`` as one calendar batch, leaving out the
        deliveries that cannot change their receiver's state (see
        :class:`FastReceivers`)."""
        self.ledger.charge_fast(
            packet.kind, self.events.now, hop_times, drop_times
        )
        receivers = self._fast.receivers
        keep = recorded = None
        if 0 <= packet.seq < receivers.arrival.shape[1]:
            keep, recorded = receivers.screen(packet, rows, deliver_times)
        seq0 = self.events.schedule_batch(
            deliver_times, receivers.nodes[rows],
            partial(self._deliver, packet), keep,
        )
        if recorded is not None:
            idx = np.flatnonzero(recorded)
            receivers.record(packet, rows[idx], deliver_times[idx], idx + seq0)

    def redeliver(self, record: tuple[float, int, int], node: int) -> None:
        """Put the delivery to ``node`` that the fast path recorded as
        ``record`` (see :meth:`FastReceivers.record`) back on the
        calendar, at its key."""
        t, key_seq, i = record
        packet = self._fast.receivers.packets[i]
        self.events.schedule_at_key(
            t, key_seq, partial(self._deliver, packet, node)
        )

    def _stream_packet(self, kind: PacketKind, k: int) -> Packet:
        """The stream driver's ``k``-th send of ``kind``."""
        root = self.tree.root
        if kind is PacketKind.DATA:
            return Packet(PacketKind.DATA, k, origin=root)
        return Packet(
            PacketKind.SESSION, 0, origin=root,
            highest_seq=self._fast.stream.num_packets - 1,
        )

    def _stream_refused(self, lane: _Stream, packet: Packet) -> bool:
        """Whether a stream's first send must leave its lane to the
        scalar path — decided before any draw, and for good: a later
        fast send would resolve draws ahead of a scalar cascade's
        tail."""
        if packet != self._stream_packet(packet.kind, 0):
            return True  # not the stream driver's pattern
        dissem = self._fast.dissem
        if not dissem.num_lossy:
            return False
        # The lane's cascades must be its RNG's only consumer: lossy
        # recovery traffic, or a scalar DATA tail on a shared lane,
        # would interleave with their draws.
        if self._data_loss_rng is self._loss_rng or (
            packet.kind is PacketKind.SESSION and not self._lossless_recovery
        ):
            return True
        return dissem_mod.sends_tie(
            dissem, self.events.now, lane.interval, lane.count
        )

    def _try_fast_stream(self, packet: Packet) -> bool:
        """A root DATA or SESSION send: add its cascade to the kind's
        lane and resolve the lane up to the next send."""
        fast = self._fast
        lane = fast.streams.get(packet.kind)
        if lane is None:
            return False
        now = self.events.now
        k = len(lane.packets)
        lossy = fast.dissem.num_lossy
        if k == 0:
            if self._stream_refused(lane, packet):
                del fast.streams[packet.kind]
                return False
        elif (
            packet != self._stream_packet(packet.kind, k)
            or (lane.count is not None and k >= lane.count)
            or (lossy and now != lane.next)
        ):
            # Draws are resolved up to the predicted next send; a
            # divergent caller cannot be replayed.
            raise RuntimeError(
                f"fast {packet.kind.value} dissemination diverged from the "
                f"stream driver (send {k}, t={now}, expected t={lane.next}, "
                f"packet={packet})"
            )
        if not lane.cascades.add(now):
            raise RuntimeError(
                f"{packet.kind.value} cascades tie at t={now} (float "
                "rounding); their draw order cannot be replayed"
            )
        lane.packets.append(packet)
        lane.next = now + lane.interval
        # An epoch ends at the next send; a lossless tree draws nothing
        # and a stream's last send has no next, so those resolve whole.
        last = lane.count is not None and k + 1 == lane.count
        self._resolve_stream(lane, np.inf if last or not lossy else lane.next)
        return True

    def _resolve_stream(self, lane: _Stream, hi: float) -> None:
        """Resolve ``lane``'s epoch ending at ``hi``: charge it and
        schedule its deliveries."""
        fast = self._fast
        for outcome in lane.cascades.resolve(hi):
            if outcome.hop_times.size:
                rows = np.searchsorted(
                    fast.agent_pos,
                    fast.dissem.pos_of_node[outcome.deliver_nodes],
                )
                self._apply_fast(
                    lane.packets[outcome.cascade],
                    rows,
                    outcome.deliver_times,
                    outcome.hop_times,
                    outcome.drop_times,
                )

    def end_session(self) -> None:
        """The stream driver found the session complete and sends no
        more SESSION flushes: resolve their tails over ``[now, inf)``.

        SESSION cascades still in flight at the drain cutoff, with no
        driver tick before it, stay unresolved and uncharged — their
        scalar transmissions would have fallen after the cutoff too.
        """
        fast = self._fast
        lane = None if fast is None else fast.streams.get(PacketKind.SESSION)
        if lane is not None and len(lane.cascades.arrivals):
            self._resolve_stream(lane, np.inf)

    def _try_fast_subtree(
        self, src: int, subtree_root: int, packet: Packet
    ) -> bool:
        """Draw-free repair-style multicast: access leg + subtree copy
        resolved in one pass.  Scalar fallback whenever any traversed
        link would draw."""
        fast = self._fast
        dissem = fast.dissem
        exempt = self._lossless_recovery and packet.is_recovery_traffic
        p0 = int(dissem.pos_of_node[subtree_root])
        if not exempt and not dissem.subtree_is_lossless(p0):
            return False
        leg_times = None
        t_root = self.events.now
        if src != subtree_root:
            leg = self._tree_leg(src, subtree_root)
            if not exempt and not leg.lossless:
                return False
            leg_times, t_root = leg.hop_times(t_root)
        scratch = fast.scratch
        dissem_mod.subtree_arrivals(dissem, p0, t_root, scratch)
        size = int(dissem.size_pos[p0])
        inner = np.arange(p0 + 1, p0 + size, dtype=np.int64)
        hop_times = scratch[dissem.parent_pos[inner]]
        if leg_times is not None:
            hop_times = np.concatenate((leg_times, hop_times))
        agent_pos = fast.agent_pos
        lo = int(np.searchsorted(agent_pos, p0 + 1))
        hi = int(np.searchsorted(agent_pos, p0 + size))
        rows = np.arange(lo, hi)
        times = scratch[agent_pos[lo:hi]]
        if src != subtree_root and subtree_root in self._agents:
            # The subtree root is delivered at the end of the access
            # leg (before its descendants — scalar order).
            rows = np.concatenate(([lo - 1], rows))
            times = np.concatenate(([t_root], times))
        self._apply_fast(packet, rows, times, hop_times, None)
        return True

    def _try_fast_flood(self, src: int, packet: Packet) -> bool:
        """Draw-free tree flood resolved in one pass."""
        fast = self._fast
        dissem = fast.dissem
        exempt = self._lossless_recovery and packet.is_recovery_traffic
        if not exempt and dissem.num_lossy:
            return False
        src_pos = int(dissem.pos_of_node[src])
        arrivals, pred = dissem_mod.flood_arrivals(
            dissem, src_pos, self.events.now
        )
        edges = np.flatnonzero(pred >= 0)
        hop_times = arrivals[pred[edges]]
        agent_pos = fast.agent_pos
        rows = np.flatnonzero(agent_pos != src_pos)
        self._apply_fast(
            packet, rows, arrivals[agent_pos[rows]], hop_times, None
        )
        return True

    # -- link-level primitive ------------------------------------------------

    def _transmit(
        self,
        link: Link,
        to_node: int,
        packet: Packet,
        arrival: HeapEntry,
    ) -> bool:
        """Put ``packet`` on ``link`` toward ``to_node``.

        Charges the hop, draws the loss, and puts ``arrival`` on the
        calendar after the link delay when the packet survives.  Returns
        whether the packet survived the loss draw — the authoritative
        survive/drop outcome tracing and telemetry consume (inferring
        it from event-heap growth would mislabel transmissions whenever
        a hook or future primitive schedules differently).
        """
        kind = packet.kind
        self.ledger.hops_by_kind[kind] += 1
        faults = self._faults
        if faults is not None and faults.link_down(link, self.events.now):
            # A down link drops everything — data, session and recovery
            # alike, regardless of the lossless_recovery exemption.
            dropped = True
        elif self._lossless_recovery and kind in RECOVERY_KINDS:
            dropped = False
        elif self._burst_loss:
            # Gilbert–Elliott replaces the Bernoulli draw entirely; its
            # draws come from the fault lane, never the loss streams.
            dropped = faults.burst_loss_draw(link, self.events.now)
        else:
            loss_prob = link.loss_prob
            dropped = loss_prob > 0.0 and (
                self._data_loss_rng if kind is PacketKind.DATA
                else self._loss_rng
            ).random() < loss_prob
        if dropped:
            self.ledger.drops_by_kind[kind] += 1
            if self._link_observers:
                self._emit_link(
                    TraceKind.DROP, packet, to_node, link.other(to_node), 0.0
                )
            return False
        delay = link.delay
        if self._jitter > 0.0:
            assert self._jitter_rng is not None
            delay *= 1.0 + self._jitter * (2.0 * self._jitter_rng.random() - 1.0)
        if self._congestion is not None:
            key = (link.u, link.v)
            concurrent = self._congestion.begin(key)
            delay = self._congestion.effective_delay(delay, concurrent)
            congestion = self._congestion

            def arrive_and_release() -> None:
                congestion.end(key)
                arrival.callback()

            self.events.schedule(delay, arrive_and_release)
        else:
            self.events.schedule_entry(delay, arrival)
        if self._link_observers:
            self._emit_link(
                TraceKind.TRANSMIT, packet, to_node, link.other(to_node), delay
            )
        return True

    # -- unicast ---------------------------------------------------------------

    def send_unicast(self, src: int, dst: int, packet: Packet) -> None:
        """Send ``packet`` from ``src`` to ``dst`` along the routed path.

        Delivery (if the packet survives every hop) invokes the
        destination agent; intermediate nodes just forward.  ``src ==
        dst`` delivers locally on the next event tick (zero hops) —
        through :meth:`_deliver`, so local delivery faces the same
        crash check as a remote arrival.
        """
        if self._membership is not None and self._membership.suppress_send(
            src, packet, self.events.now
        ):
            return
        faults = self._faults
        if faults is not None:
            now = self.events.now
            if faults.suppress_send(src, packet, now):
                return
            if faults.blackhole(packet, now):
                # The recovery packet vanishes end-to-end: hops are not
                # charged (it was eaten, not transmitted) and the
                # receiver's only signal is its own timeout.
                return
        if src == dst:
            self.events.schedule(0.0, partial(self._deliver, packet, dst))
            return
        path = self._routed_path(src, dst)
        if self._fast is not None and (
            path.lossless
            or (self._lossless_recovery and packet.is_recovery_traffic)
        ):
            # Draw-free journey: one arrival event instead of one per
            # hop; the ledger counts each hop at its transmit instant.
            now = self.events.now
            hop_times, arrival = path.hop_times(now)
            self.ledger.charge_fast(packet.kind, now, hop_times)
            self.events.schedule_at(arrival, partial(self._deliver, packet, dst))
            return
        _PathTransit(self, path, packet, None).callback()

    # -- tree multicast -----------------------------------------------------------

    def multicast_subtree(
        self, src: int, subtree_root: int, packet: Packet
    ) -> None:
        """Carry ``packet`` from ``src`` to ``subtree_root`` along the
        tree path, then copy it down the whole subtree.

        Both legs use tree links (this is multicast infrastructure, not
        unicast routing).  ``subtree_root`` and every member below it
        receive the packet; nodes on the access leg only forward.  The
        originator does not hear its own upward leg, but a leg that
        climbs from inside the subtree copies back down the branch it
        came up, so the originator hears the downward copy once.
        """
        if self._membership is not None and self._membership.suppress_send(
            src, packet, self.events.now
        ):
            # Checked before containment: a departed-and-pruned leaf is
            # no longer a tree member, and its last armed sends must be
            # suppressed, not raise.
            return
        if not self.tree.contains(src) or not self.tree.contains(subtree_root):
            raise ValueError("multicast endpoints must be tree members")
        if self._faults is not None and self._faults.suppress_send(
            src, packet, self.events.now
        ):
            return
        if self._fast is not None:
            if src == subtree_root == self.tree.root and packet.kind in (
                PacketKind.DATA, PacketKind.SESSION
            ):
                if self._try_fast_stream(packet):
                    return
            elif self._try_fast_subtree(src, subtree_root, packet):
                return
        # The subtree copy is a flood that never climbs above its root.
        parent = self.tree.parent(subtree_root)
        came_from = -1 if parent is None else parent
        if src == subtree_root:
            self._flood_spread(src, came_from, packet)
            return
        _PathTransit(
            self, self._tree_leg(src, subtree_root), packet, came_from
        ).callback()

    def _flood_spread(self, node: int, came_from: int, packet: Packet) -> None:
        """Copy ``packet`` to every tree neighbor of ``node`` but
        ``came_from``; each copy spreads on when it arrives.  Started
        with a subtree root's parent, it is the downward subtree copy."""
        if self._membership is not None and not self.tree.contains(node):
            # In-flight flood copy arriving at a since-pruned leaf: it
            # has no tree links left to spread over.
            return
        for neighbor, link in self.tree.flood_neighbors(node):
            if neighbor == came_from:
                continue
            self._transmit(
                link, neighbor, packet,
                _FloodArrival(self, neighbor, node, packet),
            )

    def flood_tree(self, src: int, packet: Packet) -> None:
        """Any-source group multicast: spread over every tree link
        outward from ``src``, delivering to every member reached."""
        if self._membership is not None and self._membership.suppress_send(
            src, packet, self.events.now
        ):
            # Before containment, same as multicast_subtree: a pruned
            # leaf's stragglers suppress, they do not raise.
            return
        if not self.tree.contains(src):
            raise ValueError(f"flood origin {src} is not a tree member")
        if self._faults is not None and self._faults.suppress_send(
            src, packet, self.events.now
        ):
            return
        if self._fast is not None and self._try_fast_flood(src, packet):
            return
        self._flood_spread(src, -1, packet)
