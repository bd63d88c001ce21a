"""Tests for the SRM baseline: suppression timers, NACK/repair floods,
backoff, and full recovery."""

import numpy as np
import pytest

from repro.protocols.srm import SRMClientAgent, SRMConfig, SRMProtocolFactory, SRMSourceAgent
from repro.sim.packet import Packet, PacketKind
from repro.sim.rng import RngStreams


def data(seq):
    return Packet(PacketKind.DATA, seq, origin=2)


def install_srm(world, config=None):
    config = config or SRMConfig()
    rng = np.random.default_rng(7)
    agents = {}
    for client in (world.CA, world.CB, world.CC):
        agent = SRMClientAgent(
            client, world.network, world.log, world.tracker,
            world.num_packets, config, rng,
        )
        world.network.attach_agent(client, agent)
        agents[client] = agent
    source = SRMSourceAgent(world.S, world.network, config, rng)
    world.network.attach_agent(world.S, source)
    return agents, source


class TestConfig:
    def test_defaults_valid(self):
        cfg = SRMConfig()
        assert cfg.c1 == 2.0 and cfg.d1 == 1.0

    def test_rejects_negative_constants(self):
        with pytest.raises(ValueError):
            SRMConfig(c1=-1.0)

    @pytest.mark.parametrize(
        "field", ["c1", "c2", "d1", "d2", "repair_hold_factor"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_constants(self, field, value):
        # `min(...) < 0` is False for NaN, so these used to construct
        # and fail later, inside the calendar.
        with pytest.raises(ValueError, match=field):
            SRMConfig(**{field: value})

    def test_rejects_zero_request_window(self):
        with pytest.raises(ValueError):
            SRMConfig(c1=0.0, c2=0.0)

    def test_rejects_negative_backoff(self):
        with pytest.raises(ValueError):
            SRMConfig(max_backoff=-1)


class TestRequestTimers:
    def test_loss_triggers_nack_flood_within_window(self, world):
        agents, source = install_srm(world)
        source.next_seq = 2
        agent = agents[world.CA]
        agent.on_packet(data(1))  # loses 0
        # Request timer in [c1*dS, (c1+c2)*dS]; dS = 3 -> [6, 12].
        world.events.run(until=5.9)
        assert world.ledger.hops_by_kind[PacketKind.NACK] == 0
        world.events.run(until=12.1)
        assert world.ledger.hops_by_kind[PacketKind.NACK] > 0

    def test_hearing_nack_suppresses_own_request(self, world):
        agents, source = install_srm(world)
        source.next_seq = 2
        # Both CA and CB lost 0; CA hears CB's NACK first.
        a, b = agents[world.CA], agents[world.CB]
        a.on_packet(data(1))
        b.on_packet(data(1))
        world.events.run(until=400.0)
        # Exactly one original NACK flood should dominate; with
        # suppression the total NACK floods stay small while both
        # clients recover.
        assert world.log.is_recovered(world.CA, 0)
        assert world.log.is_recovered(world.CB, 0)

    def test_backoff_grows_request_interval(self, world):
        agents, source = install_srm(world)
        agent = agents[world.CA]
        base = agent._request_delay(0)
        assert agent._request_delay(3) > base  # scaled by 2^3 window


class TestRepairTimers:
    def test_member_with_packet_repairs_on_nack(self, world):
        agents, source = install_srm(world)
        source.next_seq = 1
        holder = agents[world.CC]
        holder.on_packet(data(0))
        nack = Packet(PacketKind.NACK, 0, origin=world.CA)
        holder.on_packet(nack)
        world.events.run(until=100.0)
        assert world.ledger.hops_by_kind[PacketKind.REPAIR] > 0

    def test_member_without_packet_does_not_repair(self, world):
        agents, source = install_srm(world)
        holder = agents[world.CC]  # never received anything
        holder.on_packet(Packet(PacketKind.NACK, 0, origin=world.CA))
        world.events.run(until=100.0)
        assert world.ledger.hops_by_kind[PacketKind.REPAIR] == 0

    def test_hearing_repair_suppresses_pending_repair(self, world):
        agents, source = install_srm(world)
        source.next_seq = 1
        holder = agents[world.CC]
        holder.on_packet(data(0))
        holder.on_packet(Packet(PacketKind.NACK, 0, origin=world.CA))
        # A repair from elsewhere arrives before the timer fires.
        holder.on_packet(Packet(PacketKind.REPAIR, 0, origin=world.CB))
        world.events.run(until=100.0)
        assert world.ledger.hops_by_kind[PacketKind.REPAIR] == 0

    def test_source_answers_nacks(self, world):
        agents, source = install_srm(world)
        source.next_seq = 1
        source.on_packet(Packet(PacketKind.NACK, 0, origin=world.CA))
        world.events.run(until=100.0)
        assert world.ledger.hops_by_kind[PacketKind.REPAIR] > 0

    def test_repair_hold_rate_limits(self, world):
        agents, source = install_srm(world)
        source.next_seq = 1
        source.on_packet(Packet(PacketKind.NACK, 0, origin=world.CA))
        world.events.run(until=100.0)
        hops_first = world.ledger.hops_by_kind[PacketKind.REPAIR]
        # Immediate second NACK during hold: no second flood.
        source.on_packet(Packet(PacketKind.NACK, 0, origin=world.CB))
        world.events.run(until=100.5)
        assert world.ledger.hops_by_kind[PacketKind.REPAIR] == hops_first


class TestFactory:
    def test_install(self, world):
        factory = SRMProtocolFactory(SRMConfig(c1=1.0))
        source = factory.install(
            world.network, world.log, world.tracker, RngStreams(3),
            world.num_packets,
        )
        assert isinstance(source, SRMSourceAgent)
        for client in world.tree.clients:
            agent = world.network.agent_at(client)
            assert isinstance(agent, SRMClientAgent)
            assert agent.config.c1 == 1.0


class TestBackoffCap:
    def test_backoff_capped(self, world):
        agents, _ = install_srm(world, SRMConfig(max_backoff=3))
        agent = agents[world.CA]
        capped = agent._request_delay(3)
        beyond = agent._request_delay(50)
        assert beyond <= capped * (1.0 + 1.0)  # same 2^3 window, both draws

    def test_cap_keeps_timers_finite(self, world):
        agents, _ = install_srm(world, SRMConfig(max_backoff=2))
        agent = agents[world.CA]
        assert agent._request_delay(100) < 1e6


class TestSuppressionState:
    def test_request_timer_cancelled_on_recovery(self, world):
        agents, source = install_srm(world)
        source.next_seq = 2
        agent = agents[world.CA]
        agent.on_packet(data(1))  # lost 0: timer armed
        assert 0 in agent._requests
        agent.on_packet(Packet(PacketKind.REPAIR, 0, origin=world.S))
        assert 0 not in agent._requests

    def test_nack_for_unknown_seq_from_holder_arms_repair(self, world):
        agents, _ = install_srm(world)
        holder = agents[world.CC]
        holder.on_packet(data(0))
        holder.on_packet(Packet(PacketKind.NACK, 0, origin=world.CA))
        assert 0 in holder._repair_timers
