"""Tests for the topology generators, including the paper's random
backbone construction (section 5.1)."""

import numpy as np
import pytest

from repro.net.generators import (
    TopologyConfig,
    binary_tree_topology,
    dumbbell_topology,
    grid_topology,
    line_topology,
    random_backbone,
    star_topology,
)
from repro.net.topology import NodeKind


class TestTopologyConfig:
    def test_rejects_zero_routers(self):
        with pytest.raises(ValueError):
            TopologyConfig(num_routers=0)

    def test_rejects_negative_extra_links(self):
        with pytest.raises(ValueError):
            TopologyConfig(num_routers=5, extra_link_fraction=-0.1)

    def test_rejects_bad_delay_range(self):
        with pytest.raises(ValueError):
            TopologyConfig(num_routers=5, typical_delay_range=(5.0, 1.0))
        with pytest.raises(ValueError):
            TopologyConfig(num_routers=5, typical_delay_range=(0.0, 1.0))

    def test_rejects_bad_loss(self):
        with pytest.raises(ValueError):
            TopologyConfig(num_routers=5, loss_prob=1.0)

    @pytest.mark.parametrize("fraction", [float("nan"), float("inf")])
    def test_rejects_non_finite_extra_links(self, fraction):
        # random_backbone turns the fraction into a link count, which
        # failed with a NaN-to-int ValueError or an OverflowError.
        with pytest.raises(ValueError, match="extra_link_fraction"):
            TopologyConfig(num_routers=5, extra_link_fraction=fraction)

    @pytest.mark.parametrize("delay_range", [
        (1.0, float("inf")),
        (float("inf"), float("inf")),
    ])
    def test_rejects_non_finite_delay_range(self, delay_range):
        # An infinite bound overflowed inside random_backbone.
        with pytest.raises(ValueError, match="typical_delay_range"):
            TopologyConfig(num_routers=5, typical_delay_range=delay_range)


class TestRandomBackbone:
    @pytest.fixture
    def topo(self):
        return random_backbone(
            TopologyConfig(num_routers=40, loss_prob=0.05),
            np.random.default_rng(42),
        )

    def test_connected(self, topo):
        assert topo.is_connected()

    def test_has_one_source(self, topo):
        source = topo.source
        assert topo.kind(source) is NodeKind.SOURCE

    def test_node_count(self, topo):
        assert topo.num_nodes == 41  # 40 routers + source

    def test_extra_links_beyond_spanning_tree(self, topo):
        # Spanning tree over routers = 39 links, +1 source attach,
        # +extra_link_fraction*40 = 12 extras.
        assert topo.num_links >= 40

    def test_loss_prob_applied(self, topo):
        assert all(l.loss_prob == 0.05 for l in topo.links)

    def test_expected_delays_in_two_stage_range(self, topo):
        # Typical in [1, 10], expected in [typical, 2*typical] => [1, 20].
        for link in topo.links:
            assert 1.0 <= link.delay <= 20.0

    def test_reproducible_from_seed(self):
        config = TopologyConfig(num_routers=25)
        a = random_backbone(config, np.random.default_rng(7))
        b = random_backbone(config, np.random.default_rng(7))
        assert [(l.u, l.v, l.delay) for l in a.links] == [
            (l.u, l.v, l.delay) for l in b.links
        ]

    def test_different_seeds_differ(self):
        config = TopologyConfig(num_routers=25)
        a = random_backbone(config, np.random.default_rng(7))
        b = random_backbone(config, np.random.default_rng(8))
        assert [(l.u, l.v) for l in a.links] != [(l.u, l.v) for l in b.links]

    def test_single_router_backbone(self):
        topo = random_backbone(
            TopologyConfig(num_routers=1), np.random.default_rng(0)
        )
        assert topo.num_nodes == 2
        assert topo.num_links == 1
        assert topo.is_connected()

    def test_validates(self, topo):
        topo.validate()


class TestDeterministicShapes:
    def test_line_topology_structure(self):
        topo = line_topology(num_routers=3, num_clients_at_end=2, delay=1.5)
        assert topo.is_connected()
        assert len(topo.clients) == 2
        source = topo.source
        # S-r0-r1-r2-client: 5 links of delay 1.5 each for the first client.
        assert topo.path_delay([source, 0, 1, 2, topo.clients[0]]) == pytest.approx(6.0)

    def test_line_requires_router(self):
        with pytest.raises(ValueError):
            line_topology(num_routers=0)

    def test_star_topology(self):
        topo = star_topology(num_clients=5)
        assert topo.is_connected()
        assert len(topo.clients) == 5
        hub = 0
        assert topo.degree(hub) == 6  # source + 5 clients

    def test_star_requires_client(self):
        with pytest.raises(ValueError):
            star_topology(num_clients=0)

    def test_binary_tree_counts(self):
        depth = 3
        topo = binary_tree_topology(depth)
        assert topo.is_connected()
        assert len(topo.clients) == 2**depth
        routers = topo.nodes_of_kind(NodeKind.ROUTER)
        assert len(routers) == 2**depth - 1

    def test_binary_tree_requires_depth(self):
        with pytest.raises(ValueError):
            binary_tree_topology(0)

    def test_grid_topology(self):
        topo = grid_topology(3, 4)
        assert topo.is_connected()
        # 3*4 routers + source.
        assert topo.num_nodes == 13
        # Grid links: 3*3 + 2*4 = 17, plus source attach.
        assert topo.num_links == 18

    def test_dumbbell_topology(self):
        topo = dumbbell_topology(clients_per_side=3, bottleneck_delay=20.0)
        assert topo.is_connected()
        assert len(topo.clients) == 6
        assert topo.link_between(0, 1).delay == 20.0


class TestWaxmanBackbone:
    def test_connected_and_sourced(self):
        from repro.net.generators import waxman_backbone

        topo = waxman_backbone(
            TopologyConfig(num_routers=30), np.random.default_rng(3)
        )
        assert topo.is_connected()
        assert topo.kind(topo.source) is NodeKind.SOURCE
        assert topo.num_nodes == 31

    def test_more_links_than_spanning_tree(self):
        from repro.net.generators import waxman_backbone

        topo = waxman_backbone(
            TopologyConfig(num_routers=40), np.random.default_rng(4)
        )
        # 39 tree links + 1 source attach + Waxman extras.
        assert topo.num_links > 41

    def test_reproducible(self):
        from repro.net.generators import waxman_backbone

        config = TopologyConfig(num_routers=25)
        a = waxman_backbone(config, np.random.default_rng(9))
        b = waxman_backbone(config, np.random.default_rng(9))
        assert [(l.u, l.v, l.delay) for l in a.links] == [
            (l.u, l.v, l.delay) for l in b.links
        ]

    def test_rejects_bad_parameters(self):
        from repro.net.generators import waxman_backbone

        with pytest.raises(ValueError):
            waxman_backbone(
                TopologyConfig(num_routers=5), np.random.default_rng(0),
                alpha=0.0,
            )
        with pytest.raises(ValueError):
            waxman_backbone(
                TopologyConfig(num_routers=5), np.random.default_rng(0),
                beta=-1.0,
            )

    def test_delays_within_two_stage_bounds(self):
        from repro.net.generators import waxman_backbone

        topo = waxman_backbone(
            TopologyConfig(num_routers=30, typical_delay_range=(2.0, 8.0)),
            np.random.default_rng(5),
        )
        for link in topo.links:
            assert 2.0 <= link.delay <= 16.0


class TestLossHotspots:
    def _topo(self):
        return random_backbone(
            TopologyConfig(num_routers=30, loss_prob=0.02),
            np.random.default_rng(8),
        )

    def test_raises_selected_links_only(self):
        from repro.net.generators import apply_loss_hotspots

        topo = self._topo()
        picks = apply_loss_hotspots(topo, np.random.default_rng(1), count=4)
        assert len(picks) == 4
        for i, link in enumerate(topo.links):
            if i in picks:
                assert link.loss_prob == pytest.approx(0.10)
            else:
                assert link.loss_prob == pytest.approx(0.02)

    def test_cap_respected(self):
        from repro.net.generators import apply_loss_hotspots

        topo = self._topo()
        apply_loss_hotspots(
            topo, np.random.default_rng(1), count=3, multiplier=100.0,
            max_loss=0.4,
        )
        assert max(l.loss_prob for l in topo.links) == pytest.approx(0.4)

    def test_count_clamped_to_links(self):
        from repro.net.generators import apply_loss_hotspots

        topo = self._topo()
        picks = apply_loss_hotspots(
            topo, np.random.default_rng(1), count=10_000
        )
        assert len(picks) == topo.num_links

    def test_zero_count_noop(self):
        from repro.net.generators import apply_loss_hotspots

        topo = self._topo()
        assert apply_loss_hotspots(topo, np.random.default_rng(1), 0) == []

    def test_validation(self):
        from repro.net.generators import apply_loss_hotspots

        topo = self._topo()
        with pytest.raises(ValueError):
            apply_loss_hotspots(topo, np.random.default_rng(1), -1)
        with pytest.raises(ValueError):
            apply_loss_hotspots(topo, np.random.default_rng(1), 1, multiplier=0.5)
        with pytest.raises(ValueError):
            apply_loss_hotspots(topo, np.random.default_rng(1), 1, max_loss=1.0)

    def test_delays_untouched(self):
        from repro.net.generators import apply_loss_hotspots

        topo = self._topo()
        before = [l.delay for l in topo.links]
        apply_loss_hotspots(topo, np.random.default_rng(1), count=5)
        assert [l.delay for l in topo.links] == before
