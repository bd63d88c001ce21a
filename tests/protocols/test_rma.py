"""Tests for the RMA baseline: upstream ordering, one-by-one escalation,
subsumption, subtree repairs, the source deadline."""

import math

import pytest

from repro.core.candidates import Candidate
from repro.core.timeouts import FixedTimeout, ProportionalTimeout
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario, run_protocol
from repro.protocols.policy import RecoveryPolicy
from repro.protocols.rma import (
    RMAClientAgent,
    RMAConfig,
    RMAProtocolFactory,
    RMASourceAgent,
    upstream_strategies,
)
from repro.sim.network import SimNetwork
from repro.sim.packet import Packet, PacketKind
from repro.sim.rng import RngStreams


def data(seq):
    return Packet(PacketKind.DATA, seq, origin=2)


class Sink:
    """Records the requests delivered to a node; never answers."""

    def __init__(self):
        self.requests = []

    def on_packet(self, packet):
        if packet.kind is PacketKind.REQUEST:
            self.requests.append(packet)


def upstream_receiver_order(tree, routing, client):
    """Scalar oracle for the RMA search order: ``(peer, ds, rtt)`` of
    every client whose first common router with ``client`` lies strictly
    above it, by descending ``DS``, then ascending RTT, then id."""
    ds_u = tree.depth(client)
    order = []
    for peer in tree.clients:
        ds = tree.ds(client, peer)
        if peer != client and ds < ds_u:
            order.append((peer, ds, routing.rtt(client, peer)))
    order.sort(key=lambda item: (-item[1], item[2], item[0]))
    return order


def install_rma(world, config=None):
    source = RMAProtocolFactory(config).install(
        world.network, world.log, world.tracker, RngStreams(0),
        world.num_packets,
    )
    agents = {
        client: world.network.agent_at(client)
        for client in (world.CA, world.CB, world.CC)
    }
    return agents, source


class TestUpstreamOrder:
    def test_nearest_upstream_first(self, world):
        # For CA (under r1, depth 3): CB shares r1 (ds=2) -> nearest;
        # CC shares r0 (ds=1) -> second.
        agents, _ = install_rma(world)
        order = list(agents[world.CA].strategy.peer_nodes)
        assert order == [world.CB, world.CC]

    def test_own_subtree_excluded(self, world):
        # For CC (under r0, depth 2): CA and CB share r0 (ds=1 < 2): both
        # upstream; neither is in CC's subtree.
        agents, _ = install_rma(world)
        order = list(agents[world.CC].strategy.peer_nodes)
        assert set(order) == {world.CA, world.CB}

    def test_order_function_matches_agent(self, world):
        agents, _ = install_rma(world)
        for client, agent in agents.items():
            attempts = agent.strategy.attempts
            assert upstream_receiver_order(world.tree, world.routing, client) == [
                (c.node, c.ds, c.rtt) for c in attempts
            ]

    @pytest.mark.parametrize(
        "policy", [ProportionalTimeout(), FixedTimeout(40.0)], ids=repr
    )
    def test_vectorized_build_matches_scalar_oracle(self, policy):
        built = build_scenario(
            ScenarioConfig(seed=3, num_routers=60, loss_prob=0.05)
        )
        strategies = upstream_strategies(built.tree, built.routing, policy)
        assert sorted(strategies) == sorted(built.tree.clients)
        for client, strategy in strategies.items():
            order = upstream_receiver_order(built.tree, built.routing, client)
            attempts = strategy.attempts
            assert [(c.node, c.ds, c.rtt) for c in attempts] == order
            # Python scalars, not numpy ones, however an entry is read.
            read = [attempts[i] for i in range(len(attempts))]
            for c in read + list(attempts) + list(attempts[:]):
                assert (type(c.node), type(c.ds), type(c.rtt)) == (
                    int, int, float
                )
            assert strategy.timeouts == tuple(
                policy.timeout(rtt) for _, _, rtt in order
            )
            assert all(type(t) is float for t in strategy.timeouts)
            source_rtt = built.routing.rtt(client, built.tree.root)
            assert strategy.source_rtt == source_rtt
            assert strategy.source_timeout == policy.timeout(source_rtt)
            # The deadline truncates the list: eq. 2 does not apply.
            assert math.isnan(strategy.expected_delay)

    def test_list_behaves_as_its_tuple(self, world):
        strategy = upstream_strategies(
            world.tree, world.routing, ProportionalTimeout()
        )[world.CA]
        attempts = strategy.attempts
        eager = tuple(attempts)
        assert len(attempts) == len(eager) == len(strategy.timeouts) == 2
        assert tuple(attempts) == eager  # iterating again: same entries
        assert [attempts[i] for i in range(-len(eager), len(eager))] == (
            list(eager) * 2
        )
        for cut in (slice(None), slice(1, None), slice(None, -1),
                    slice(None, None, -1), slice(5, 9)):
            assert attempts[cut] == eager[cut]
        for index in (len(eager), -len(eager) - 1):
            with pytest.raises(IndexError):
                attempts[index]
        assert list(reversed(attempts)) == list(reversed(eager))
        assert eager[1] in attempts
        assert attempts.index(eager[1]) == 1

    def test_session_builds_only_the_entries_it_walks(self, monkeypatch):
        # A request sent reads its list entry at most twice
        # (_skip_dead_peers, then _send_next_request); the entries no
        # recovery walks, most of them past the source deadline, are
        # never built.
        built = build_scenario(
            ScenarioConfig(seed=1, num_routers=30, loss_prob=0.05, num_packets=6)
        )
        counts = {"candidates": 0, "requests": 0}
        init = Candidate.__init__
        send_unicast = SimNetwork.send_unicast

        def counting_init(self, *args, **kwargs):
            counts["candidates"] += 1
            init(self, *args, **kwargs)

        def counting_send(self, src, dst, packet, *args, **kwargs):
            if packet.kind is PacketKind.REQUEST:
                counts["requests"] += 1
            return send_unicast(self, src, dst, packet, *args, **kwargs)

        monkeypatch.setattr(Candidate, "__init__", counting_init)
        monkeypatch.setattr(SimNetwork, "send_unicast", counting_send)
        summary = run_protocol(built, RMAProtocolFactory())
        assert summary.losses_detected > 0
        assert counts["requests"] > 0
        assert counts["candidates"] <= 2 * counts["requests"]


class TestSearch:
    def test_first_request_to_nearest_upstream(self, world):
        config = RMAConfig(timeout_policy=FixedTimeout(50.0))
        agents, _ = install_rma(world, config)
        agents[world.CB].on_packet(data(0))  # CB holds seq 0
        agents[world.CA].on_packet(data(1))  # CA loses 0, asks CB
        world.events.run(until=300.0)
        assert world.log.is_recovered(world.CA, 0)

    def test_timeout_escalates_to_next(self, world):
        config = RMAConfig(timeout_policy=FixedTimeout(5.0))
        agents, _ = install_rma(world, config)
        # CB misses seq 0 too (silent subsume); CC holds it.
        agents[world.CC].on_packet(data(0))
        agents[world.CA].on_packet(data(1))
        world.events.run(until=500.0)
        assert world.log.is_recovered(world.CA, 0)

    def test_deadline_jumps_to_source(self, world):
        # Tiny deadline: the search goes to the source immediately after
        # the first timeout even though peers remain.
        config = RMAConfig(
            timeout_policy=FixedTimeout(5.0), source_deadline_factor=0.001
        )
        agents, source = install_rma(world, config)
        source.next_seq = 2
        agents[world.CA].on_packet(data(1))
        world.events.run(until=400.0)
        assert world.log.is_recovered(world.CA, 0)

    @pytest.mark.parametrize(
        "deadline_factor,asked", [(2.0, [1, 1]), (0.5, [1, 0])]
    )
    def test_each_upstream_receiver_asked_once_until_deadline(
        self, world, deadline_factor, asked
    ):
        # The hardened policy allows two tries per peer; RMA still asks
        # each upstream receiver once, and none past the deadline.
        config = RMAConfig(
            timeout_policy=FixedTimeout(5.0),
            source_deadline_factor=deadline_factor,
            recovery_policy=RecoveryPolicy.hardened(),
        )
        strategy = upstream_strategies(
            world.tree, world.routing, FixedTimeout(5.0)
        )[world.CA]
        requester = RMAClientAgent(
            world.CA, world.network, world.log, world.tracker,
            world.num_packets, strategy, config=config,
        )
        world.network.attach_agent(world.CA, requester)
        sinks = [Sink(), Sink()]
        world.network.attach_agent(world.CB, sinks[0])
        world.network.attach_agent(world.CC, sinks[1])
        source = RMASourceAgent(world.S, world.network)
        source.next_seq = 2
        world.network.attach_agent(world.S, source)
        requester.on_packet(data(1))
        world.events.run(until=100.0)
        assert world.log.is_recovered(world.CA, 0)
        assert [len(sink.requests) for sink in sinks] == asked

    def test_source_repair_is_subtree_multicast(self, world):
        config = RMAConfig(source_deadline_factor=0.001)
        agents, source = install_rma(world, config)
        source.next_seq = 2
        # CA and CB both lose 0; CA's source repair covers CB too.
        agents[world.CA].on_packet(data(1))
        agents[world.CB].on_packet(data(1))
        world.events.run(until=1000.0)
        assert world.log.is_recovered(world.CA, 0)
        assert world.log.is_recovered(world.CB, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RMAConfig(source_deadline_factor=0.0)
        with pytest.raises(ValueError):
            RMAConfig(source_deadline_factor=float("nan"))


class TestSubsumption:
    def test_request_to_missing_peer_forces_detection(self, world):
        agents, _ = install_rma(world)
        cb = agents[world.CB]
        # CB has not even noticed seq 0 exists; the request teaches it.
        cb.on_packet(Packet(PacketKind.REQUEST, 0, origin=world.CA))
        assert 0 in cb.detected
        assert world.log.was_lost(world.CB, 0)

    def test_subsumed_request_flushed_on_recovery(self, world):
        agents, _ = install_rma(world)
        cb = agents[world.CB]
        cb.on_packet(Packet(PacketKind.REQUEST, 0, origin=world.CA))
        before = world.ledger.hops_by_kind[PacketKind.REPAIR]
        cb.on_packet(Packet(PacketKind.REPAIR, 0, origin=world.S))
        world.events.run(until=50.0)
        # CB multicast a repair covering CA once it got the packet.
        assert world.ledger.hops_by_kind[PacketKind.REPAIR] > before
        assert world.log.is_recovered(world.CA, 0) or any(
            p is not None for p in [world.network.agent_at(world.CA)]
        )

    def test_peer_with_packet_repairs_subtree(self, world):
        agents, _ = install_rma(world)
        cb = agents[world.CB]
        cb.on_packet(data(0))
        cb.on_packet(Packet(PacketKind.REQUEST, 0, origin=world.CA))
        world.events.run(until=50.0)
        # Repair multicast rooted at r1 (meeting of CA and CB): 2 links
        # up... CB -> r1 (1 hop) then down to CA and CB (2 hops).
        assert world.ledger.hops_by_kind[PacketKind.REPAIR] >= 2


class TestFactory:
    def test_install(self, world):
        factory = RMAProtocolFactory()
        source = factory.install(
            world.network, world.log, world.tracker, RngStreams(0),
            world.num_packets,
        )
        assert isinstance(source, RMASourceAgent)
        for client in world.tree.clients:
            assert isinstance(world.network.agent_at(client), RMAClientAgent)
