"""Trace-driven protocol debugging.

When a recovery behaves unexpectedly, the first question is "what did
the packets actually do?"  This example attaches a
:class:`~repro.sim.trace.TraceRecorder` to a tiny deterministic session,
injects a loss by hand, and prints the full life of one recovery under
RP: the data packet dying on a link, the gap detection, the unicast
request finding a peer, and the repair coming back.

Run:  python examples/trace_debugging.py
"""

import numpy as np

from repro.core.planner import RPPlanner
from repro.metrics.collectors import BandwidthLedger, RecoveryLog
from repro.net.mcast_tree import MulticastTree
from repro.net.render import render_tree
from repro.net.routing import RoutingTable
from repro.net.topology import NodeKind, Topology
from repro.protocols.base import CompletionTracker, StreamConfig, StreamDriver
from repro.protocols.rp import RPProtocolFactory
from repro.sim.engine import EventQueue
from repro.sim.network import SimNetwork
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceFilter, TraceRecorder
from repro.sim.packet import PacketKind


def build_session():
    """S - r0 - {r1 - {cA, cB}, cC}; we will lose seq 1 on r1->cA."""
    topo = Topology()
    r0, r1 = topo.add_nodes(2, NodeKind.ROUTER)
    s = topo.add_node(NodeKind.SOURCE)
    ca, cb, cc = topo.add_nodes(3, NodeKind.CLIENT)
    for a, b in ((s, r0), (r0, r1), (r1, ca), (r1, cb), (r0, cc)):
        topo.add_link(a, b, 2.0)
    tree = MulticastTree(topo, s, {r0: s, r1: r0, ca: r1, cb: r1, cc: r0})
    return topo, tree, (s, ca, cb, cc)


class OneShotLossRng:
    """A 'random' stream that drops exactly the n-th loss draw."""

    def __init__(self, drop_at: int):
        self.calls = 0
        self.drop_at = drop_at

    def random(self):
        self.calls += 1
        return 0.0 if self.calls == self.drop_at else 1.0


def main() -> None:
    topo, tree, (s, ca, cb, cc) = build_session()
    print("the session tree:")
    print(render_tree(tree))

    routing = RoutingTable(topo)
    # Give links tiny nominal loss so the loss stream is consulted, and
    # rig the stream to drop exactly one traversal: the 8th DATA draw
    # (packet seq 1 on the r1->cA link, as the trace will show).
    topo.set_loss_prob(1e-9)
    events = EventQueue()
    log = RecoveryLog()
    ledger = BandwidthLedger()
    net = SimNetwork(
        events, topo, routing, tree,
        loss_rng=np.random.default_rng(0),
        ledger=ledger,
        data_loss_rng=OneShotLossRng(drop_at=8),
    )
    recorder = TraceRecorder(
        TraceFilter(seqs=frozenset({1}))  # follow sequence 1 only
    ).attach(net)

    tracker = CompletionTracker(3, 3, events)
    factory = RPProtocolFactory()
    source_agent = factory.install(net, log, tracker, RngStreams(0), 3)
    stream = StreamConfig(
        num_packets=3, data_interval=10.0, session_interval=50.0
    )
    StreamDriver(net, source_agent, stream, tracker).start()
    events.run(max_events=100_000)

    drops = recorder.drops()
    assert len(drops) == 1 and drops[0].packet_kind is PacketKind.DATA
    victim = next(c for c in (ca, cb, cc) if log.was_lost(c, 1))
    print(
        f"\nthe rigged loss hit link {drops[0].peer}->{drops[0].node}, "
        f"so client {victim} lost sequence 1"
    )
    print(f"strategy of client {victim}: "
          f"{list(net.agent_at(victim).strategy.peer_nodes)} then the source")
    print("\nthe life of sequence 1 (trace, filtered):")
    print(recorder.render(limit=40))
    print(f"\nrecovery log: client {victim} recovered: "
          f"{log.is_recovered(victim, 1)}, "
          f"latency {log.latencies()[0]:.1f} ms")
    assert log.is_recovered(victim, 1)


if __name__ == "__main__":
    main()
