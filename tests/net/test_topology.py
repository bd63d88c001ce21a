"""Unit tests for the topology primitives."""

import math

import pytest

from repro.net.topology import Link, NodeKind, Topology


class TestLink:
    def test_other_endpoint(self):
        link = Link(1, 4, delay=2.0)
        assert link.other(1) == 4
        assert link.other(4) == 1

    def test_other_rejects_non_endpoint(self):
        link = Link(1, 4, delay=2.0)
        with pytest.raises(ValueError):
            link.other(2)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Link(3, 3, delay=1.0)

    def test_rejects_unordered_endpoints(self):
        with pytest.raises(ValueError):
            Link(4, 1, delay=1.0)

    def test_rejects_non_positive_delay(self):
        with pytest.raises(ValueError):
            Link(0, 1, delay=0.0)
        with pytest.raises(ValueError):
            Link(0, 1, delay=-2.0)

    @pytest.mark.parametrize("delay", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_delay(self, delay):
        # ``nan <= 0.0`` is False, so a sign check alone let NaN through
        # (and a NaN link left its far end silently unreachable).
        topo = Topology()
        topo.add_nodes(2)
        with pytest.raises(ValueError, match="outside"):
            topo.add_link(0, 1, delay)
        assert topo.num_links == 0

    @pytest.mark.parametrize("p", [-0.1, 1.0, 1.5])
    def test_rejects_bad_loss_prob(self, p):
        with pytest.raises(ValueError):
            Link(0, 1, delay=1.0, loss_prob=p)

    def test_loss_prob_bounds_accepted(self):
        assert Link(0, 1, delay=1.0, loss_prob=0.0).loss_prob == 0.0
        assert Link(0, 1, delay=1.0, loss_prob=0.999).loss_prob == 0.999


class TestTopologyConstruction:
    def test_add_nodes_assigns_contiguous_ids(self):
        topo = Topology()
        ids = topo.add_nodes(3)
        assert ids == [0, 1, 2]
        assert topo.num_nodes == 3

    def test_node_kinds_recorded(self):
        topo = Topology()
        r = topo.add_node(NodeKind.ROUTER)
        c = topo.add_node(NodeKind.CLIENT)
        s = topo.add_node(NodeKind.SOURCE)
        assert topo.kind(r) is NodeKind.ROUTER
        assert topo.kind(c) is NodeKind.CLIENT
        assert topo.kind(s) is NodeKind.SOURCE

    def test_add_link_canonicalizes_order(self):
        topo = Topology()
        topo.add_nodes(2)
        topo.add_link(1, 0, delay=3.0)
        link = topo.link_between(0, 1)
        assert (link.u, link.v) == (0, 1)
        assert link.delay == 3.0

    def test_duplicate_link_rejected_either_direction(self):
        topo = Topology()
        topo.add_nodes(2)
        topo.add_link(0, 1, delay=1.0)
        with pytest.raises(ValueError):
            topo.add_link(0, 1, delay=1.0)
        with pytest.raises(ValueError):
            topo.add_link(1, 0, delay=1.0)

    def test_link_to_unknown_node_rejected(self):
        topo = Topology()
        topo.add_node()
        with pytest.raises(ValueError):
            topo.add_link(0, 5, delay=1.0)

    def test_set_loss_prob_applies_to_all_links(self):
        topo = Topology()
        topo.add_nodes(3)
        topo.add_link(0, 1, delay=1.0)
        topo.add_link(1, 2, delay=2.0)
        topo.set_loss_prob(0.25)
        assert all(l.loss_prob == 0.25 for l in topo.links)
        # Delays preserved.
        assert [l.delay for l in topo.links] == [1.0, 2.0]


class TestTopologyQueries:
    @pytest.fixture
    def triangle(self):
        topo = Topology()
        topo.add_nodes(3)
        topo.add_link(0, 1, delay=1.0)
        topo.add_link(1, 2, delay=2.0)
        topo.add_link(0, 2, delay=5.0)
        return topo

    def test_neighbors(self, triangle):
        assert sorted(triangle.neighbors(0)) == [1, 2]
        assert sorted(triangle.neighbors(1)) == [0, 2]

    def test_degree(self, triangle):
        assert triangle.degree(0) == 2

    def test_link_between_missing_raises(self):
        topo = Topology()
        topo.add_nodes(2)
        with pytest.raises(KeyError):
            topo.link_between(0, 1)

    def test_has_link_symmetric(self, triangle):
        assert triangle.has_link(2, 0) and triangle.has_link(0, 2)

    def test_path_delay_sums_links(self, triangle):
        assert triangle.path_delay([0, 1, 2]) == pytest.approx(3.0)
        assert triangle.path_delay([0, 2]) == pytest.approx(5.0)
        assert triangle.path_delay([0]) == 0.0

    def test_is_connected_true(self, triangle):
        assert triangle.is_connected()

    def test_is_connected_false(self):
        topo = Topology()
        topo.add_nodes(4)
        topo.add_link(0, 1, delay=1.0)
        topo.add_link(2, 3, delay=1.0)
        assert not topo.is_connected()

    def test_empty_topology_is_connected(self):
        assert Topology().is_connected()

    def test_source_property(self):
        topo = Topology()
        topo.add_node(NodeKind.ROUTER)
        s = topo.add_node(NodeKind.SOURCE)
        assert topo.source == s

    def test_source_property_requires_exactly_one(self):
        topo = Topology()
        topo.add_node(NodeKind.ROUTER)
        with pytest.raises(ValueError):
            _ = topo.source
        topo.add_node(NodeKind.SOURCE)
        topo.add_node(NodeKind.SOURCE)
        with pytest.raises(ValueError):
            _ = topo.source

    def test_clients_property(self):
        topo = Topology()
        topo.add_node(NodeKind.CLIENT)
        topo.add_node(NodeKind.ROUTER)
        topo.add_node(NodeKind.CLIENT)
        assert topo.clients == [0, 2]

    def test_validate_passes_on_consistent_graph(self, triangle):
        triangle.validate()

    def test_incident_returns_link_indices(self, triangle):
        pairs = dict(triangle.incident(1))
        assert set(pairs) == {0, 2}
        assert triangle.links[pairs[0]].delay == 1.0
        assert triangle.links[pairs[2]].delay == 2.0
