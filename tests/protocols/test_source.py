"""Tests for the source-based recovery baseline (the empty prioritized
list on RP's runtime)."""

import pytest

from repro.core.strategy_graph import StrategyRestrictions
from repro.core.timeouts import FixedTimeout
from repro.obs import Instrumentation
from repro.obs.events import AttemptEvent
from repro.protocols.policy import RecoveryPolicy
from repro.protocols.rp import (
    RPClientAgent,
    RPConfig,
    RPProtocolFactory,
    RPSourceAgent,
)
from repro.protocols.source import SourceConfig, SourceProtocolFactory
from repro.sim.packet import Packet, PacketKind
from repro.sim.rng import RngStreams


def data(seq):
    return Packet(PacketKind.DATA, seq, origin=2)


def install(world, factory=None, instrumentation=None):
    factory = factory or SourceProtocolFactory(
        SourceConfig(timeout_policy=FixedTimeout(20.0))
    )
    source = factory.install(
        world.network, world.log, world.tracker, RngStreams(0),
        world.num_packets, instrumentation=instrumentation,
    )
    agents = {
        client: world.network.agent_at(client)
        for client in (world.CA, world.CB, world.CC)
    }
    return agents, source


class TestSourceRecovery:
    def test_loss_recovered_from_source(self, world):
        agents, source = install(world)
        source.next_seq = 2
        agents[world.CA].on_packet(data(1))
        world.events.run(until=200.0)
        assert world.log.is_recovered(world.CA, 0)

    def test_unicast_mode_touches_only_requester(self, world):
        agents, source = install(world)
        source.next_seq = 2
        agents[world.CA].on_packet(data(1))
        world.events.run(until=200.0)
        assert not world.log.was_lost(world.CB, 0)

    def test_subgroup_multicast_mode_covers_subgroup(self, world):
        # Source-only recovery with subgroup repair is RP restricted to
        # the empty list.
        agents, source = install(world, RPProtocolFactory(RPConfig(
            timeout_policy=FixedTimeout(20.0),
            restrictions=StrategyRestrictions(max_list_length=0),
        )))
        assert all(not a.strategy.attempts for a in agents.values())
        source.next_seq = 2
        # CB also lost 0 but never requests; CA's request repairs both.
        agents[world.CB].on_packet(data(1))
        agents[world.CA].on_packet(data(1))
        world.events.run(until=200.0)
        assert world.log.is_recovered(world.CA, 0)
        assert world.log.is_recovered(world.CB, 0)

    def test_retries_on_silent_source(self, world):
        # The source has sent nothing yet, so it ignores every request;
        # the client must keep trying.
        agents, _ = install(world, SourceProtocolFactory(
            SourceConfig(timeout_policy=FixedTimeout(10.0))
        ))
        agents[world.CA].on_packet(data(1))
        world.events.run(until=100.0)
        assert world.ledger.hops_by_kind[PacketKind.REQUEST] >= 3 * 3

    def test_timed_out_elapsed_is_the_backed_off_wait(self, world):
        instr = Instrumentation.recording()
        agents, _ = install(world, SourceProtocolFactory(SourceConfig(
            timeout_policy=FixedTimeout(10.0),
            recovery_policy=RecoveryPolicy.hardened(),
        )), instrumentation=instr)
        agents[world.CA].on_packet(data(1))
        world.events.run(until=100.0)
        timed_out = [
            e for e in instr.ring_events()
            if isinstance(e, AttemptEvent) and e.status == "timed_out"
        ]
        assert [e.attempt for e in timed_out[:2]] == [1, 2]
        assert timed_out[0].elapsed == pytest.approx(10.0)
        # The second request ran under a 2x backoff.
        assert timed_out[1].elapsed == pytest.approx(20.0)

    def test_factory_install(self, world):
        factory = SourceProtocolFactory()
        agents, source = install(world, factory)
        assert factory.name == "SOURCE"
        for agent in agents.values():
            assert isinstance(agent, RPClientAgent)
            assert agent.protocol == "source"
            assert agent.strategy.attempts == ()
        assert isinstance(source, RPSourceAgent)
        assert not source.source_multicast
