"""Trace-level integration assertions: not just *that* recovery worked,
but that the packets moved the way each protocol specifies."""

import numpy as np
import pytest

from repro.metrics.collectors import BandwidthLedger, RecoveryLog
from repro.net.mcast_tree import MulticastTree
from repro.net.routing import RoutingTable
from repro.net.topology import NodeKind, Topology
from repro.protocols.base import CompletionTracker, StreamConfig, StreamDriver
from repro.protocols.rp import RPProtocolFactory
from repro.protocols.srm import SRMProtocolFactory
from repro.sim.engine import EventQueue
from repro.sim.network import SimNetwork
from repro.sim.packet import PacketKind
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceFilter, TraceKind, TraceRecorder


class RiggedLossRng:
    """Drops exactly the given 1-based draw indices."""

    def __init__(self, drop_at: set[int]):
        self.calls = 0
        self.drop_at = drop_at

    def random(self):
        self.calls += 1
        return 0.0 if self.calls in self.drop_at else 1.0


def build(factory, drop_draws, num_packets=3):
    """Line-ish topology with a shortcut so unicast != tree path."""
    topo = Topology()
    r0, r1 = topo.add_nodes(2, NodeKind.ROUTER)
    s = topo.add_node(NodeKind.SOURCE)
    ca, cb = topo.add_nodes(2, NodeKind.CLIENT)
    topo.add_link(s, r0, 2.0, 1e-9)
    topo.add_link(r0, r1, 2.0, 1e-9)
    topo.add_link(r1, ca, 2.0, 1e-9)
    topo.add_link(r0, cb, 2.0, 1e-9)
    topo.add_link(ca, cb, 1.0, 1e-9)  # direct shortcut, not in tree
    tree = MulticastTree(topo, s, {r0: s, r1: r0, ca: r1, cb: r0})
    events = EventQueue()
    log = RecoveryLog()
    net = SimNetwork(
        events, topo, RoutingTable(topo), tree,
        loss_rng=np.random.default_rng(1),
        ledger=BandwidthLedger(),
        data_loss_rng=RiggedLossRng(drop_draws),
    )
    recorder = TraceRecorder().attach(net)
    tracker = CompletionTracker(2, num_packets, events)
    source_agent = factory.install(net, log, tracker, RngStreams(0), num_packets)
    StreamDriver(net, source_agent, StreamConfig(num_packets, 10.0, 50.0),
                 tracker).start()
    events.run(max_events=200_000)
    assert tracker.complete
    return topo, tree, log, recorder, (s, ca, cb)


class TestRPTraces:
    def test_repair_travels_unicast_shortcut(self):
        """cA loses seq 1 (dropped on r1->cA, draw 7); its planned peer
        is cB, and cB's repair must take the 1-hop shortcut — proving RP
        repairs are unicast on routed paths, not tree multicasts."""
        # DATA draws per multicast: links in cascade order:
        # S->r0 (1), r0->r1 (2), r0->cB (3), r1->cA (4) per packet.
        # Packet seq 1 uses draws 5..8; drop draw 8?? order within
        # cascade: children sorted -> r0 children [1, cb]; so order is
        # S->r0, r0->r1, r0->cB, r1->cA: seq 1 -> draws 5,6,7,8; drop
        # r1->cA = draw 8.
        topo, tree, log, recorder, (s, ca, cb) = build(
            RPProtocolFactory(), drop_draws={8}
        )
        assert log.is_recovered(ca, 1)
        repair_path = recorder.path_of(PacketKind.REPAIR, 1)
        assert (cb, ca) in repair_path  # the shortcut link
        request_path = recorder.path_of(PacketKind.REQUEST, 1)
        assert (ca, cb) in request_path

    def test_no_recovery_traffic_without_losses(self):
        _, _, log, recorder, _ = build(RPProtocolFactory(), drop_draws=set())
        assert log.num_detected == 0
        for kind in (PacketKind.REQUEST, PacketKind.REPAIR, PacketKind.NACK):
            assert recorder.path_of(kind, 0) == []
            assert recorder.path_of(kind, 1) == []


class TestSRMTraces:
    def test_nack_and_repair_are_tree_floods(self):
        """SRM's NACK must traverse tree links (not the shortcut), and
        the repair likewise floods the tree."""
        topo, tree, log, recorder, (s, ca, cb) = build(
            SRMProtocolFactory(), drop_draws={8}
        )
        assert log.is_recovered(ca, 1)
        nack_hops = recorder.path_of(PacketKind.NACK, 1)
        assert nack_hops, "expected at least one NACK flood"
        assert (ca, cb) not in nack_hops and (cb, ca) not in nack_hops
        # The NACK left cA toward its tree parent r1.
        assert (ca, 1) in nack_hops
        repair_hops = recorder.path_of(PacketKind.REPAIR, 1)
        assert repair_hops
        assert (ca, cb) not in repair_hops and (cb, ca) not in repair_hops
