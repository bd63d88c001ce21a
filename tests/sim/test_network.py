"""Tests for the packet-level network: forwarding, delays, loss,
multicast, flooding, hop accounting."""

from unittest import mock

import numpy as np
import pytest

from repro.metrics.collectors import BandwidthLedger
from repro.net.mcast_tree import MulticastTree
from repro.net.routing import RoutingTable
from repro.net.topology import NodeKind, Topology
from repro.protocols.base import StreamConfig
from repro.sim import engine
from repro.sim.engine import EventQueue
from repro.sim.faults import FaultInjector, FaultSchedule, LinkDownWindow
from repro.sim.network import FastReceivers, SimNetwork
from repro.sim.packet import Packet, PacketKind
from repro.sim.trace import TraceKind, TraceRecorder


class Recorder:
    """Agent that records (time, packet) deliveries."""

    def __init__(self, events: EventQueue):
        self.events = events
        self.deliveries: list[tuple[float, Packet]] = []

    def on_packet(self, packet: Packet) -> None:
        self.deliveries.append((self.events.now, packet))


# Node ids in build_net: r0=0, r1=1, S=2, cA=3 (at r0), cB=4 (at r1).
S, CA, CB = 2, 3, 4


def build_net(loss_prob=0.0, seed=0):
    """S - r0 - r1 with clients cA (at r0) and cB (at r1).

    Extra non-tree shortcut link cA-cB for unicast routing tests.
    Link delays: S-r0: 1, r0-r1: 2, r0-cA: 3, r1-cB: 4, cA-cB: 1.
    """
    topo = Topology()
    r0, r1 = topo.add_nodes(2, NodeKind.ROUTER)
    s = topo.add_node(NodeKind.SOURCE)
    ca = topo.add_node(NodeKind.CLIENT)
    cb = topo.add_node(NodeKind.CLIENT)
    topo.add_link(s, r0, 1.0, loss_prob)
    topo.add_link(r0, r1, 2.0, loss_prob)
    topo.add_link(r0, ca, 3.0, loss_prob)
    topo.add_link(r1, cb, 4.0, loss_prob)
    topo.add_link(ca, cb, 1.0, loss_prob)  # shortcut, not in tree
    tree = MulticastTree(topo, s, {r0: s, r1: r0, ca: r0, cb: r1})
    events = EventQueue()
    net = SimNetwork(
        events,
        topo,
        RoutingTable(topo),
        tree,
        loss_rng=np.random.default_rng(seed),
        ledger=BandwidthLedger(),
    )
    return topo, tree, events, net


DATA0 = Packet(PacketKind.DATA, 0, origin=S)
REQ = Packet(PacketKind.REQUEST, 0, origin=CA)


class TestUnicast:
    def test_delivery_time_is_path_delay(self):
        _, _, events, net = build_net()
        rec = Recorder(events)
        net.attach_agent(CA, rec)
        net.send_unicast(S, CA, REQ)  # S -> r0 -> cA: 1 + 3
        events.run()
        assert rec.deliveries == [(4.0, REQ)]

    def test_uses_shortest_path_not_tree(self):
        _, _, events, net = build_net()
        rec = Recorder(events)
        net.attach_agent(CB, rec)
        net.send_unicast(CA, CB, REQ)  # shortcut cA-cB: delay 1
        events.run()
        assert rec.deliveries == [(1.0, REQ)]

    def test_self_delivery(self):
        _, _, events, net = build_net()
        rec = Recorder(events)
        net.attach_agent(CA, rec)
        net.send_unicast(CA, CA, REQ)
        events.run()
        assert rec.deliveries == [(0.0, REQ)]
        assert net.ledger.recovery_hops == 0

    def test_intermediate_nodes_not_delivered(self):
        _, _, events, net = build_net()
        mid = Recorder(events)
        dst = Recorder(events)
        net.attach_agent(0, mid)
        net.attach_agent(CA, dst)
        net.send_unicast(S, CA, REQ)
        events.run()
        assert mid.deliveries == []
        assert len(dst.deliveries) == 1

    def test_hops_charged_per_link(self):
        _, _, events, net = build_net()
        net.attach_agent(CA, Recorder(events))
        net.send_unicast(S, CA, REQ)
        events.run()
        assert net.ledger.hops_by_kind[PacketKind.REQUEST] == 2

    def test_total_loss_drops_packet_but_charges_first_hop(self):
        _, _, events, net = build_net(loss_prob=0.999999, seed=1)
        rec = Recorder(events)
        net.attach_agent(CA, rec)
        net.send_unicast(S, CA, REQ)
        events.run()
        assert rec.deliveries == []
        assert net.ledger.hops_by_kind[PacketKind.REQUEST] == 1
        assert net.ledger.drops_by_kind[PacketKind.REQUEST] == 1


class TestFaultedHops:
    def test_link_down_window_declared_reversed_drops_the_link(self):
        # Declared as (S, r0) = (2, 0); the link is stored as (0, 2).
        topo, tree, events, _ = build_net()
        faults = FaultInjector(
            FaultSchedule(link_down_windows=(LinkDownWindow(S, 0, 0.0, 5.0),)),
            np.random.default_rng(0),
        )
        net = SimNetwork(
            events, topo, RoutingTable(topo), tree,
            loss_rng=np.random.default_rng(0), faults=faults,
        )
        rec = Recorder(events)
        net.attach_agent(CA, rec)
        net.send_unicast(S, CA, REQ)  # first hop S -> r0 is down
        events.run(until=5.0)
        assert rec.deliveries == []
        assert net.ledger.hops_by_kind[PacketKind.REQUEST] == 1
        assert net.ledger.drops_by_kind[PacketKind.REQUEST] == 1
        assert faults.counts == {"link.down_drop": 1}
        net.send_unicast(S, CA, REQ)  # the window is half-open
        events.run()
        assert rec.deliveries == [(9.0, REQ)]

    def test_faulted_scalar_run_allocates_no_timer_per_hop(self):
        # Faults keep every hop on the scalar walk; each surviving hop is
        # one heap entry, so the run's timers (protocol timers and
        # zero-hop sends) number far fewer than its surviving hops.
        from repro.experiments.chaos import chaos_horizon, hardened_factories
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.runner import build_scenario, run_protocol_detailed
        from repro.sim.faults import random_fault_schedule
        from repro.sim.rng import RngStreams

        config = ScenarioConfig(
            seed=1, num_routers=25, loss_prob=0.05, num_packets=5
        )
        built = build_scenario(config)
        candidates = [c for c in built.tree.clients if c != built.tree.root]
        faults = random_fault_schedule(
            0.3, RngStreams(config.seed).get("fault-schedule:0.3"),
            candidates, built.topology.links, chaos_horizon(config),
        )
        factory = next(f for f in hardened_factories() if f.name == "SRM")
        made = []

        class CountingTimer(engine.Timer):
            __slots__ = ()

            def __init__(self, callback):
                made.append(callback)
                super().__init__(callback)

        with mock.patch.object(engine, "Timer", CountingTimer):
            artifacts = run_protocol_detailed(built, factory, faults=faults)
        ledger = artifacts.ledger
        surviving = sum(ledger.hops_by_kind.values()) - sum(
            ledger.drops_by_kind.values()
        )
        assert artifacts.faults.counts["burst.drop"] > 0
        assert 0 < len(made) < surviving


class TestMulticastSubtree:
    def test_full_tree_multicast_reaches_all_members(self):
        _, _, events, net = build_net()
        recs = {n: Recorder(events) for n in (CA, CB)}
        for n, r in recs.items():
            net.attach_agent(n, r)
        net.multicast_subtree(S, S, DATA0)
        events.run()
        # cA: S->r0->cA = 1+3 = 4; cB: 1+2+4 = 7.
        assert recs[CA].deliveries[0][0] == pytest.approx(4.0)
        assert recs[CB].deliveries[0][0] == pytest.approx(7.0)

    def test_hop_count_equals_tree_links(self):
        _, tree, events, net = build_net()
        net.multicast_subtree(S, S, DATA0)
        events.run()
        assert net.ledger.data_hops == tree.num_tree_links

    def test_subtree_multicast_covers_only_subtree(self):
        _, _, events, net = build_net()
        recs = {n: Recorder(events) for n in (CA, CB)}
        for n, r in recs.items():
            net.attach_agent(n, r)
        repair = Packet(PacketKind.REPAIR, 0, origin=S)
        net.multicast_subtree(S, 1, repair)  # subtree rooted at r1
        events.run()
        assert recs[CA].deliveries == []
        assert [t for t, _ in recs[CB].deliveries] == [pytest.approx(7.0)]

    def test_access_leg_then_subtree(self):
        """A repair travelling up to the subtree root and down again."""
        _, _, events, net = build_net()
        rec = Recorder(events)
        net.attach_agent(CB, rec)
        repair = Packet(PacketKind.REPAIR, 0, origin=CA)
        # cA repairs into subtree r1: tree path cA -> r0 -> r1, then down.
        net.multicast_subtree(CA, 1, repair)
        events.run()
        assert [t for t, _ in rec.deliveries] == [pytest.approx(3 + 2 + 4)]

    def test_originator_not_self_delivered(self):
        _, _, events, net = build_net()
        rec = Recorder(events)
        net.attach_agent(CA, rec)
        repair = Packet(PacketKind.REPAIR, 0, origin=CA)
        # cA lies inside r0's subtree, so the downward copy returns to
        # it — exactly once; it must not hear its own upward leg.
        net.multicast_subtree(CA, 0, repair)
        events.run()
        assert len(rec.deliveries) == 1

    def test_loss_on_tree_link_prunes_subtree(self):
        _, _, events, net = build_net(loss_prob=0.999999, seed=3)
        recs = {n: Recorder(events) for n in (CA, CB)}
        for n, r in recs.items():
            net.attach_agent(n, r)
        net.multicast_subtree(S, S, DATA0)
        events.run()
        assert recs[CA].deliveries == []
        assert recs[CB].deliveries == []
        # Only the first link was attempted (S->r0 dropped).
        assert net.ledger.data_hops == 1

    def test_non_member_endpoints_rejected(self):
        topo, _, events, net = build_net()
        outsider = topo.add_node(NodeKind.ROUTER)
        with pytest.raises(ValueError):
            net.multicast_subtree(outsider, 0, DATA0)
        with pytest.raises(ValueError):
            net.multicast_subtree(S, outsider, DATA0)


class TestFlood:
    def test_flood_reaches_everyone_from_any_member(self):
        _, _, events, net = build_net()
        recs = {n: Recorder(events) for n in (S, CA, CB)}
        for n, r in recs.items():
            net.attach_agent(n, r)
        nack = Packet(PacketKind.NACK, 0, origin=CB)
        net.flood_tree(CB, nack)
        events.run()
        # cB -> r1 (4), r1 -> r0 (+2), r0 -> S (+1) and r0 -> cA (+3).
        assert recs[S].deliveries[0][0] == pytest.approx(7.0)
        assert recs[CA].deliveries[0][0] == pytest.approx(9.0)
        assert recs[CB].deliveries == []  # no self-delivery

    def test_flood_hop_count_covers_all_tree_links(self):
        _, tree, events, net = build_net()
        net.flood_tree(CB, Packet(PacketKind.NACK, 0, origin=CB))
        events.run()
        assert net.ledger.hops_by_kind[PacketKind.NACK] == tree.num_tree_links

    def test_flood_from_non_member_rejected(self):
        topo, _, events, net = build_net()
        outsider = topo.add_node(NodeKind.ROUTER)
        with pytest.raises(ValueError):
            net.flood_tree(outsider, Packet(PacketKind.NACK, 0, origin=0))


class TestAgentManagement:
    def test_duplicate_agent_rejected(self):
        _, _, events, net = build_net()
        net.attach_agent(CA, Recorder(events))
        with pytest.raises(ValueError):
            net.attach_agent(CA, Recorder(events))

    def test_unknown_node_rejected(self):
        _, _, events, net = build_net()
        with pytest.raises(ValueError):
            net.attach_agent(99, Recorder(events))

    def test_agent_at(self):
        _, _, events, net = build_net()
        rec = Recorder(events)
        net.attach_agent(CA, rec)
        assert net.agent_at(CA) is rec
        assert net.agent_at(0) is None

    def test_inconsistent_components_rejected(self):
        topo, tree, events, _ = build_net()
        other_topo, _, _, _ = build_net()
        with pytest.raises(ValueError):
            SimNetwork(
                events,
                other_topo,
                RoutingTable(topo),
                tree,
                loss_rng=np.random.default_rng(0),
            )


class TestLinkObservers:
    """Fast dissemination emits no link events, so the two exclude each
    other, settled when the fast path is armed."""

    def test_observer_rejected_once_armed(self):
        _, _, _, net = build_net()
        assert net.enable_fast_dissem(StreamConfig(1, 10.0, 50.0))
        with pytest.raises(RuntimeError, match="armed"):
            net.add_link_observer(lambda event: None)

    def test_recorder_attached_before_arming_still_records(self):
        _, tree, events, net = build_net()
        recorder = TraceRecorder().attach(net)
        assert not net.enable_fast_dissem(StreamConfig(1, 10.0, 50.0))
        assert not net.fast_dissem_enabled
        net.multicast_subtree(S, S, DATA0)
        events.run()
        kinds = [event.kind for event in recorder.events]
        assert kinds.count(TraceKind.TRANSMIT) == tree.num_tree_links
        assert kinds.count(TraceKind.DELIVER) == tree.num_tree_links


def build_chain_net(num_clients):
    """S - r0 - r1 - ... with one client hanging off each router; a
    lossless tree, with equal-delay ties between some arrivals."""
    topo = Topology()
    routers = topo.add_nodes(num_clients, NodeKind.ROUTER)
    s = topo.add_node(NodeKind.SOURCE)
    clients = topo.add_nodes(num_clients, NodeKind.CLIENT)
    parents = {}
    prev = s
    for i, (router, client) in enumerate(zip(routers, clients)):
        topo.add_link(prev, router, 1.0 + 0.5 * (i % 3), 0.0)
        topo.add_link(router, client, 2.0 if i % 2 else 3.5, 0.0)
        parents[router] = prev
        parents[client] = router
        prev = router
    tree = MulticastTree(topo, s, parents)
    events = EventQueue()
    net = SimNetwork(
        events, topo, RoutingTable(topo), tree,
        loss_rng=np.random.default_rng(0), ledger=BandwidthLedger(),
    )
    recorders = {}
    for node in (s, *clients):
        recorders[node] = Recorder(events)
        net.attach_agent(node, recorders[node])
    return events, net, clients, recorders


class TestFastBatch:
    """An armed network schedules a fast dissemination's deliveries as
    one calendar batch: one heap entry, one pending event per agent."""

    REPAIR = Packet(PacketKind.REPAIR, 0, origin=CA)

    def _flood(self, armed):
        events, net, clients, recorders = build_chain_net(12)
        if armed:  # a directly constructed network stays scalar
            assert net.enable_fast_dissem(StreamConfig(1, 10.0, 50.0))
        events.schedule_at(0.5, lambda: None)  # an ordinary timer
        heap, pending = len(events._heap), events.pending
        net.flood_tree(clients[3], self.REPAIR)
        grown = (len(events._heap) - heap, events.pending - pending)
        events.run()
        # A fast hop counts once its transmit instant has passed; every
        # hop here leaves before the last delivery.
        net.ledger.close(events.now)
        deliveries = {node: rec.deliveries for node, rec in recorders.items()}
        return grown, deliveries, dict(net.ledger.hops_by_kind), events

    def test_flood_is_one_heap_entry(self):
        (entries, pending), fast, hops, events = self._flood(armed=True)
        agents = 12  # 12 clients and the source, all but the sender
        assert (entries, pending) == (1, agents)
        assert events.pending == 0 and not events._heap

        _, scalar, scalar_hops, _ = self._flood(armed=False)
        assert fast == scalar
        assert hops == scalar_hops


class TestFastReceivers:
    """The fast path's duplicate screen: which deliveries of a DATA or
    REPAIR batch are left off the calendar, and which are recorded."""

    REPAIR = Packet(PacketKind.REPAIR, 1, origin=CA)
    DATA = Packet(PacketKind.DATA, 1, origin=S)
    ROWS = np.arange(4)

    @staticmethod
    def _receivers():
        # Rows 0-1 bound, row 2 the source (holds everything), row 3 an
        # agent that did not bind.
        receivers = FastReceivers(np.array([10, 11, 12, 13]), num_packets=2)
        receivers.bind(0)
        receivers.bind(1)
        receivers.bind(2, holds_all=True)
        return receivers

    def test_later_or_tied_arrivals_of_a_held_seq_are_dropped(self):
        receivers = self._receivers()
        times = np.array([5.0, 5.0, 5.0, 5.0])
        keep, recorded = receivers.screen(self.REPAIR, self.ROWS, times)
        assert keep.tolist() == [True, True, False, True]
        assert recorded is None
        # An equal time is keyed after the delivery already scheduled.
        times = np.array([5.0, 4.0, 6.0, 5.0])
        keep, _ = receivers.screen(self.DATA, self.ROWS, times)
        assert keep.tolist() == [False, True, False, True]
        assert receivers.arrival[:2, 1].tolist() == [5.0, 4.0]
        assert np.isnan(receivers.arrival[3, 1])

    def test_fresh_batch_keeps_everything(self):
        keep, recorded = self._receivers().screen(
            self.REPAIR, self.ROWS[:2], np.array([1.0, 2.0])
        )
        assert keep is None and recorded is None

    def test_watched_duplicates_run_only_while_a_timer_is_pending(self):
        receivers = self._receivers()
        suppressed = {}
        due = receivers.watch(0, suppressed, hold_span=3.0)
        receivers.arrival[:3, 1] = 0.0  # rows 0-1 accepted seq 1
        due[1] = 7.0
        rows = np.array([0, 1])
        # Row 0's timer is still pending at t=6: that REPAIR runs.
        keep, recorded = receivers.screen(
            self.REPAIR, rows, np.array([6.0, 6.0])
        )
        assert keep.tolist() == [True, False] and recorded is None
        # At t=7 the timer, keyed first, has fired: the REPAIR is
        # recorded.
        keep, recorded = receivers.screen(
            self.REPAIR, rows, np.array([7.0, 7.0])
        )
        assert keep.tolist() == [False, False]
        assert recorded.tolist() == [True, False]
        due[1] = -np.inf
        _, recorded = receivers.screen(
            self.REPAIR, rows, np.array([3.0, 3.0])
        )
        assert recorded.tolist() == [True, False]
        # A duplicate DATA starts no hold: never recorded.
        keep, recorded = receivers.screen(
            self.DATA, rows, np.array([3.0, 3.0])
        )
        assert keep.tolist() == [False, False] and recorded is None

    def test_recorded_keys_stay_sorted_and_find_their_packet(self):
        receivers = self._receivers()
        suppressed = {}
        receivers.watch(0, suppressed, hold_span=3.0)
        other = Packet(PacketKind.REPAIR, 1, origin=CB)
        receivers.record(self.REPAIR, np.array([0]), np.array([9.0]),
                         np.array([4]))
        receivers.record(other, np.array([0]), np.array([8.0]),
                         np.array([7]))
        assert suppressed == {1: [(8.0, 7, 1), (9.0, 4, 0)]}
        assert receivers.packets == [self.REPAIR, other]


class TestNackScreen:
    """The fast path's NACK screen: which deliveries of a NACK batch go
    on the calendar, which are recorded, and which records come back
    when an agent's state changes."""

    NACK = Packet(PacketKind.NACK, 1, origin=CA)
    ROWS = np.arange(4)

    class _Network:
        """What the screen uses of the network: the clock, and the
        put-backs (logged instead of scheduled)."""

        def __init__(self):
            self.events = EventQueue()
            self.put_back = []

        def redeliver(self, record, node):
            self.put_back.append((node, record[:2]))

    def _receivers(self):
        # Rows 0-1 members, row 2 the source (holds everything), row 3
        # an agent that did not bind.
        network = self._Network()
        receivers = FastReceivers(
            np.array([10, 11, 12, 13]), num_packets=2, network=network
        )
        for row in (0, 1):
            receivers.bind(row)
            receivers.watch(row, {}, hold_span=3.0)
        receivers.bind(2, holds_all=True)
        receivers.watch(2, {}, hold_span=3.0, holds_all=True)
        return receivers, network

    def _batch(self, receivers, times, key0):
        """Screen a NACK batch to every row, keyed from ``key0``, and
        record what it drops, as ``SimNetwork._apply_fast`` does."""
        times = np.asarray(times, dtype=float)
        keep, recorded = receivers.screen(self.NACK, self.ROWS, times)
        if recorded is not None:
            idx = np.flatnonzero(recorded)
            receivers.record(
                self.NACK, self.ROWS[idx], times[idx], idx + key0
            )
        return None if keep is None else keep.tolist()

    @staticmethod
    def _keys(records):
        return [(t, key) for t, key, _ in records]

    @staticmethod
    def _at(network, t, call):
        """Run ``call`` as the event at time ``t``."""
        network.events.schedule_at(t, call)
        network.events.run()

    def test_closed_rows_record_and_open_rows_keep_the_first(self):
        receivers, _ = self._receivers()
        # Members that neither hold nor wait for seq 1 act on no NACK;
        # the source acts on the first one; row 3 runs everything.
        assert self._batch(receivers, [5, 5, 5, 5], 100) == [
            False, False, True, True,
        ]
        assert self._keys(receivers.nacks[0][1]) == [(5.0, 100)]
        # An earlier delivery to the source comes first now.
        assert self._batch(receivers, [6, 6, 4, 6], 104) == [
            False, False, True, True,
        ]
        # One at the same instant is keyed after it.
        assert self._batch(receivers, [7, 7, 4, 7], 108) == [
            False, False, False, True,
        ]
        assert self._keys(receivers.nacks[2][1]) == [(4.0, 110)]
        assert self._keys(receivers.nacks[1][1]) == [(5.0, 101), (6.0, 105), (7.0, 109)]

    def test_waiting_row_keeps_nacks_until_the_seq_arrives(self):
        receivers, network = self._receivers()
        self._at(network, 1.0, lambda: receivers.nacks_open(0, 1, -np.inf))
        assert self._batch(receivers, [5, 5, 5, 5], 100)[0]
        assert self._batch(receivers, [3, 3, 3, 3], 104)[0]
        # Behind a waiting delivery already on the calendar: recorded.
        assert not self._batch(receivers, [4, 4, 4, 4], 108)[0]
        # The seq arrives at 6: from then on the member holds it.
        receivers.arrival[0, 1] = 6.0
        self._at(
            network, 3.0,
            lambda: receivers.nacks_open(0, 1, -np.inf, heard=True),
        )
        assert network.put_back == [(10, (4.0, 108))]
        assert self._batch(receivers, [3.5, 3.5, 3.5, 3.5], 112)[0]
        assert not self._batch(receivers, [6, 6, 6, 6], 116)[0]
        assert self._keys(receivers.nacks[0][1]) == [(6.0, 116)]

    def test_detection_puts_back_every_later_record_one_ahead(self):
        receivers, network = self._receivers()
        for t, key0 in ((0.5, 100), (2, 104), (9, 108), (7, 112), (4, 116)):
            self._batch(receivers, [t] * 4, key0)
        receivers.arrival[0, 1] = 7.0
        self._at(network, 1.0, lambda: receivers.nacks_open(0, 1, -np.inf))
        # Each NACK it waits through puts back the next, up to the
        # arrival (a tie included); the one before detection changed
        # nothing and stays recorded.
        for t in (2.0, 4.0):
            self._at(
                network, t,
                lambda: receivers.nacks_open(0, 1, -np.inf, heard=True),
            )
        assert network.put_back == [
            (10, (2.0, 104)), (10, (4.0, 116)), (10, (7.0, 112)),
        ]
        assert self._keys(receivers.nacks[0][1]) == [(0.5, 100), (9.0, 108)]

    def test_timer_armed_holder_reopens_at_the_end_of_its_hold(self):
        receivers, network = self._receivers()
        receivers.nacks_closed(0, 1)  # a repair timer is armed
        for t, key0 in ((5, 100), (6, 104), (9, 108)):
            self._batch(receivers, [t] * 4, key0)
        assert self._keys(receivers.nacks[0][1]) == [(5.0, 100), (6.0, 104), (9.0, 108)]
        # The timer fires at 4 and holds until 6: a NACK at 6 acts.
        self._at(network, 4.0, lambda: receivers.nacks_open(0, 1, 6.0))
        assert network.put_back == [(10, (6.0, 104))]
        # Before the hold ends, or behind the one put back: recorded.
        assert not self._batch(receivers, [5.9] * 4, 112)[0]
        assert not self._batch(receivers, [6.0] * 4, 116)[0]
        # That NACK finds a longer hold (a REPAIR came in between).
        self._at(
            network, 6.0, lambda: receivers.nacks_open(0, 1, 8.5, heard=True)
        )
        assert network.put_back[1:] == [(10, (9.0, 108))]
        assert receivers.nack_next[1][0] == 9.0

    def test_hold_ending_at_a_delivery_keeps_it(self):
        receivers, network = self._receivers()
        receivers.arrival[0, 1] = 0.0
        self._at(network, 1.0, lambda: receivers.nacks_open(0, 1, 6.0))
        # A NACK at the instant the hold ends acts (the hold must lie
        # ahead of it to block it); one just before it cannot.
        assert not self._batch(receivers, [5.9] * 4, 100)[0]
        assert self._batch(receivers, [6.0] * 4, 104)[0]
        # A record at the instant of the delivery already on the
        # calendar goes back too: which is keyed first is not known.
        receivers.nack_next[1][0] = 5.9
        self._at(network, 2.0, lambda: receivers.nacks_open(0, 1, 5.0))
        assert network.put_back == [(10, (5.9, 100))]

    def test_recorded_repair_opens_a_holder_earlier(self):
        receivers, network = self._receivers()
        suppressed = receivers.suppressed[0]
        receivers.arrival[0, 1] = 0.0
        for t, key0 in ((12, 100), (25, 104)):
            self._batch(receivers, [t] * 4, key0)
        # Its own repair holds it until 20.
        self._at(network, 1.0, lambda: receivers.nacks_open(0, 1, 20.0))
        assert network.put_back == [(10, (25.0, 104))]
        # A REPAIR from another member, dropped at 8, holds it until 11
        # only, so the NACK at 12 can act.
        repair = Packet(PacketKind.REPAIR, 1, origin=CB)
        self._at(network, 2.0, lambda: receivers.record(
            repair, np.array([0]), np.array([8.0]), np.array([120]),
        ))
        assert self._keys(suppressed[1]) == [(8.0, 120)]
        assert receivers.nack_open[1][0] == 11.0
        assert network.put_back[1:] == [(10, (12.0, 100))]


class TestDataLossPairing:
    def test_data_stream_isolated_from_recovery_draws(self):
        """Two networks drawing recovery losses differently still see the
        same DATA loss pattern when sharing a data stream seed."""
        outcomes = []
        for extra_recovery_draws in (0, 57):
            topo, tree, events, _ = build_net(loss_prob=0.3)
            net = SimNetwork(
                events, topo, RoutingTable(topo), tree,
                loss_rng=np.random.default_rng(1),
                data_loss_rng=np.random.default_rng(2),
            )
            rec = Recorder(events)
            net.attach_agent(CB, rec)
            # Perturb the recovery stream.
            for _ in range(extra_recovery_draws):
                net.send_unicast(S, CA, REQ)
            # Then send data packets; their fate must be identical.
            for seq in range(20):
                net.multicast_subtree(S, S, Packet(PacketKind.DATA, seq, origin=S))
            events.run()
            outcomes.append(sorted(p.seq for _, p in rec.deliveries
                                   if p.kind is PacketKind.DATA))
        assert outcomes[0] == outcomes[1]


class TestJitter:
    def test_jitter_requires_rng(self):
        topo, tree, events, _ = build_net()
        with pytest.raises(ValueError):
            SimNetwork(
                events, topo, RoutingTable(topo), tree,
                loss_rng=np.random.default_rng(0), jitter=0.2,
            )

    def test_jitter_bounds_validated(self):
        topo, tree, events, _ = build_net()
        with pytest.raises(ValueError):
            SimNetwork(
                events, topo, RoutingTable(topo), tree,
                loss_rng=np.random.default_rng(0), jitter=1.0,
                jitter_rng=np.random.default_rng(1),
            )

    def test_delivery_time_within_jitter_bounds(self):
        topo, tree, events, _ = build_net()
        net = SimNetwork(
            events, topo, RoutingTable(topo), tree,
            loss_rng=np.random.default_rng(0),
            jitter=0.5, jitter_rng=np.random.default_rng(2),
        )
        rec = Recorder(events)
        net.attach_agent(CA, rec)
        for _ in range(30):
            net.send_unicast(S, CA, REQ)
        events.run()
        # Nominal path delay 4.0; per-hop jitter 50% -> total in [2, 6].
        times = sorted(t for t, _ in rec.deliveries)
        assert all(2.0 - 1e-9 <= t <= 6.0 + 1e-9 for t in times)
        # And it actually varies.
        assert times[-1] - times[0] > 0.1

    def test_zero_jitter_is_deterministic(self):
        _, _, events, net = build_net()
        rec = Recorder(events)
        net.attach_agent(CA, rec)
        net.send_unicast(S, CA, REQ)
        events.run()
        assert rec.deliveries[0][0] == 4.0
