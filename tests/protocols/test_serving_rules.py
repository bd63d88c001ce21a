"""The two serving rules the list protocols share: a reply keeps the
request's context (``Packet.reply``), and a repair goes down a subtree
unless one is already held there (``RepairDeduper.send``)."""

import pytest

from repro.protocols.rma import RMAProtocolFactory
from repro.protocols.rp import RPConfig, RPProtocolFactory
from repro.sim.packet import Packet, PacketKind
from repro.sim.rng import RngStreams


def install(world, factory):
    """Install ``factory`` on ``world`` and record every send instead of
    delivering it: ``("unicast", dst, packet)`` or
    ``("multicast", root, packet)``."""
    source = factory.install(
        world.network, world.log, world.tracker, RngStreams(0),
        world.num_packets,
    )
    source.next_seq = 1  # the source holds seq 0
    sent = []
    world.network.send_unicast = (
        lambda src, dst, packet: sent.append(("unicast", dst, packet))
    )
    world.network.multicast_subtree = (
        lambda src, root, packet: sent.append(("multicast", root, packet))
    )
    return source, sent


def request(world):
    return Packet(
        PacketKind.REQUEST, 0, origin=world.CA, req_id=7, trace_id=11,
        span_id=13,
    )


def peer_holding(world, source):
    peer = world.network.agent_at(world.CB)
    peer.on_packet(Packet(PacketKind.DATA, 0, origin=source.node))
    return peer


def peer_missing(world, source):
    return world.network.agent_at(world.CB)


#: (factory, which node answers, reply kind)
REPLIES = {
    "rp-peer-repair": (RPProtocolFactory, peer_holding, PacketKind.REPAIR),
    "rp-peer-nack": (
        lambda: RPProtocolFactory(RPConfig(negative_acks=True)),
        peer_missing, PacketKind.NACK,
    ),
    "rp-source-repair": (
        RPProtocolFactory, lambda world, source: source, PacketKind.REPAIR,
    ),
    "rma-peer-repair": (RMAProtocolFactory, peer_holding, PacketKind.REPAIR),
    "rma-source-repair": (
        RMAProtocolFactory, lambda world, source: source, PacketKind.REPAIR,
    ),
}


@pytest.mark.parametrize("case", list(REPLIES))
def test_reply_keeps_the_request_context(world, case):
    make_factory, replier_of, kind = REPLIES[case]
    source, sent = install(world, make_factory())
    replier = replier_of(world, source)
    replier.on_packet(request(world))
    [(_, _, reply)] = sent
    assert reply == Packet(
        kind, 0, origin=replier.node, req_id=7, trace_id=11, span_id=13
    )


#: (factory, which node repairs, expected subtree root)
SCOPES = {
    # The requester's top-level subgroup is r0's subtree.
    "rp-source": (RPProtocolFactory, lambda world, source: source, 0),
    "rma-source": (RMAProtocolFactory, lambda world, source: source, 0),
    # CA and CB first meet at r1.
    "rma-peer": (RMAProtocolFactory, peer_holding, 1),
}


@pytest.mark.parametrize("case", list(SCOPES))
def test_repair_scope_holds_then_expires(world, case):
    make_factory, repairer_of, root = SCOPES[case]
    source, sent = install(world, make_factory())
    repairer = repairer_of(world, source)
    # The hold per (seq, root) is 2 * max(span, 1): 4 ms for r0's
    # subtree, 2 ms for r1's.  A request at t = 1 falls inside it and
    # one at t = 50 after it.
    for at in (0.0, 1.0, 50.0):
        world.events.schedule(at, lambda: repairer.on_packet(request(world)))
    world.events.run(until=100.0)
    assert [(how, dst) for how, dst, _ in sent] == [
        ("multicast", root), ("unicast", world.CA), ("multicast", root),
    ]

