"""Tests for load-dependent link delays."""

import numpy as np
import pytest

from repro.net.routing import RoutingTable
from repro.sim.congestion import LinearCongestionModel
from repro.sim.network import SimNetwork
from repro.sim.packet import Packet, PacketKind

from tests.sim.test_network import CA, CB, S, Recorder, build_net


class TestModel:
    def test_begin_end_bookkeeping(self):
        model = LinearCongestionModel(0.5)
        key = (0, 1)
        assert model.begin(key) == 0
        assert model.begin(key) == 1
        assert model.in_flight(key) == 2
        model.end(key)
        assert model.in_flight(key) == 1
        model.end(key)
        assert model.in_flight(key) == 0

    def test_end_without_begin_raises(self):
        model = LinearCongestionModel()
        with pytest.raises(ValueError):
            model.end((0, 1))

    def test_effective_delay(self):
        model = LinearCongestionModel(0.25)
        assert model.effective_delay(8.0, 0) == 8.0
        assert model.effective_delay(8.0, 2) == pytest.approx(12.0)

    def test_alpha_zero_is_load_independent(self):
        model = LinearCongestionModel(0.0)
        assert model.effective_delay(8.0, 100) == 8.0

    def test_peak_occupancy(self):
        model = LinearCongestionModel()
        key = (3, 4)
        model.begin(key)
        model.begin(key)
        model.end(key)
        assert model.peak_occupancy() == 2

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            LinearCongestionModel(-0.1)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            LinearCongestionModel(alpha)


class TestNetworkIntegration:
    def _net_with_congestion(self, alpha):
        topo, tree, events, _ = build_net()
        model = LinearCongestionModel(alpha)
        net = SimNetwork(
            events, topo, RoutingTable(topo), tree,
            loss_rng=np.random.default_rng(0), congestion=model,
        )
        return topo, events, net, model

    def test_single_packet_unaffected(self):
        _, events, net, _ = self._net_with_congestion(1.0)
        rec = Recorder(events)
        net.attach_agent(CA, rec)
        net.send_unicast(S, CA, Packet(PacketKind.REQUEST, 0, origin=S))
        events.run()
        assert rec.deliveries[0][0] == pytest.approx(4.0)

    def test_concurrent_packets_slow_each_other(self):
        _, events, net, _ = self._net_with_congestion(1.0)
        rec = Recorder(events)
        net.attach_agent(CA, rec)
        # Two packets on the same path at the same instant: the second
        # finds the first in flight on S->r0 and is slowed.
        net.send_unicast(S, CA, Packet(PacketKind.REQUEST, 0, origin=S))
        net.send_unicast(S, CA, Packet(PacketKind.REQUEST, 1, origin=S))
        events.run()
        times = sorted(t for t, _ in rec.deliveries)
        assert times[0] == pytest.approx(4.0)
        assert times[1] > 4.0

    def test_occupancy_returns_to_zero(self):
        _, events, net, model = self._net_with_congestion(0.5)
        net.attach_agent(CA, Recorder(events))
        for seq in range(5):
            net.multicast_subtree(S, S, Packet(PacketKind.DATA, seq, origin=S))
        events.run()
        assert model.peak_occupancy() >= 1
        # All packets arrived or were dropped: links are empty again.
        assert all(
            model.in_flight((l.u, l.v)) == 0 for l in net.topology.links
        )

    def test_end_to_end_run_with_congestion(self):
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.runner import build_scenario, run_protocol
        from repro.protocols.rp import RPProtocolFactory

        config = ScenarioConfig(
            seed=23, num_routers=25, loss_prob=0.05, num_packets=8,
            congestion_alpha=0.2, max_events=5_000_000,
        )
        built = build_scenario(config)
        summary = run_protocol(built, RPProtocolFactory())
        assert summary.fully_recovered
