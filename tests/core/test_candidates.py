"""Tests for competitive classes and candidate selection (section 4)."""

import numpy as np
import pytest

from repro.core.candidates import (
    Candidate,
    candidate_clients,
    competitive_classes,
)
from repro.core.planner_batch import row_candidates
from repro.net.generators import TopologyConfig, random_backbone
from repro.net.mcast_tree import MulticastTree, random_multicast_tree
from repro.net.routing import RoutingTable
from repro.net.topology import NodeKind, Topology


@pytest.fixture
def fork_tree():
    """Tree with two competitive peers and one deeper/shallower each:

            S(6)
             |
            r0
           /  \\
          r1   c5        c5 meets c3/c4 at r0 (DS=1)
         /  \\
        r2   c4          c4 meets c3 at r1 (DS=2)
       /  \\
      c3   c6            c6 competitive with... shares r2 with c3 (DS=3)
    """
    topo = Topology()
    r0, r1, r2 = topo.add_nodes(3, NodeKind.ROUTER)
    c3, c4, c5 = topo.add_nodes(3, NodeKind.CLIENT)
    s = topo.add_node(NodeKind.SOURCE)
    c6 = topo.add_node(NodeKind.CLIENT)
    topo.add_link(s, r0, 1.0)
    topo.add_link(r0, r1, 1.0)
    topo.add_link(r0, c5, 4.0)
    topo.add_link(r1, r2, 1.0)
    topo.add_link(r1, c4, 2.0)
    topo.add_link(r2, c3, 1.0)
    topo.add_link(r2, c6, 9.0)
    tree = MulticastTree(
        topo, s, {r0: s, r1: r0, c5: r0, r2: r1, c4: r1, c3: r2, c6: r2}
    )
    return topo, tree


class TestCompetitiveClasses:
    def test_classes_keyed_by_meeting_router(self, fork_tree):
        topo, tree = fork_tree
        classes = competitive_classes(tree, client=3)
        # c7 meets c3 at r2 (depth 3); c4 at r1 (2); c5 at r0 (1).
        assert classes == {2: [7], 1: [4], 0: [5]}

    def test_client_and_source_excluded(self, fork_tree):
        _, tree = fork_tree
        classes = competitive_classes(tree, client=3)
        members = [m for ms in classes.values() for m in ms]
        assert 3 not in members
        assert tree.root not in members

    def test_own_subtree_peers_excluded(self, fork_tree):
        topo, tree = fork_tree
        # From c7's perspective, c3 shares r2 at depth 3 < depth(c7)=4: kept.
        classes = competitive_classes(tree, client=7)
        assert 3 in classes[2]

    def test_source_has_no_strategy(self, fork_tree):
        _, tree = fork_tree
        with pytest.raises(ValueError):
            competitive_classes(tree, client=tree.root)

    def test_unknown_client_rejected(self, fork_tree):
        _, tree = fork_tree
        with pytest.raises(ValueError):
            competitive_classes(tree, client=77)

    def test_explicit_peer_list_respected(self, fork_tree):
        _, tree = fork_tree
        classes = competitive_classes(tree, client=3, peers=[4])
        assert classes == {1: [4]}

    def test_competitive_is_equivalence_relation(self):
        """Peers with the same meeting router are mutually competitive:
        classes partition the peer set."""
        topo = random_backbone(
            TopologyConfig(num_routers=40), np.random.default_rng(3)
        )
        tree = random_multicast_tree(topo, np.random.default_rng(4))
        clients = tree.clients
        u = clients[0]
        classes = competitive_classes(tree, u)
        all_members = [m for ms in classes.values() for m in ms]
        assert len(all_members) == len(set(all_members))  # disjoint
        for ancestor, members in classes.items():
            for m in members:
                assert tree.first_common_router(u, m) == ancestor


class TestCandidateClients:
    def test_one_candidate_per_class_min_rtt(self, fork_tree):
        topo, tree = fork_tree
        routing = RoutingTable(topo)
        candidates = candidate_clients(tree, routing, client=3)
        # Each class has one member here, so all three appear.
        assert [c.node for c in candidates] == [7, 4, 5]
        assert [c.ds for c in candidates] == [3, 2, 1]

    def test_sorted_descending_ds(self, fork_tree):
        topo, tree = fork_tree
        routing = RoutingTable(topo)
        candidates = candidate_clients(tree, routing, client=3)
        ds = [c.ds for c in candidates]
        assert ds == sorted(ds, reverse=True)
        assert len(set(ds)) == len(ds)

    def test_rtt_values_from_routing(self, fork_tree):
        topo, tree = fork_tree
        routing = RoutingTable(topo)
        candidates = candidate_clients(tree, routing, client=3)
        for c in candidates:
            assert c.rtt == pytest.approx(routing.rtt(3, c.node))

    def test_min_rtt_member_chosen_within_class(self):
        """Two peers under the same router: the cheaper one is candidate."""
        topo = Topology()
        r0 = topo.add_node(NodeKind.ROUTER)
        r1 = topo.add_node(NodeKind.ROUTER)
        u = topo.add_node(NodeKind.CLIENT)
        near = topo.add_node(NodeKind.CLIENT)
        far = topo.add_node(NodeKind.CLIENT)
        s = topo.add_node(NodeKind.SOURCE)
        topo.add_link(s, r0, 1.0)
        topo.add_link(r0, r1, 1.0)
        topo.add_link(r1, u, 1.0)
        topo.add_link(r0, near, 1.0)
        topo.add_link(r0, far, 50.0)
        tree = MulticastTree(topo, s, {r0: s, r1: r0, u: r1, near: r0, far: r0})
        routing = RoutingTable(topo)
        candidates = candidate_clients(tree, routing, client=u)
        assert [c.node for c in candidates] == [near]

    def test_random_tree_candidates_valid(self):
        topo = random_backbone(
            TopologyConfig(num_routers=50), np.random.default_rng(8)
        )
        tree = random_multicast_tree(topo, np.random.default_rng(9))
        routing = RoutingTable(topo)
        for client in tree.clients[:5]:
            ds_u = tree.depth(client)
            candidates = candidate_clients(tree, routing, client)
            previous = ds_u
            for c in candidates:
                assert c.ds < previous  # strictly descending, below ds_u
                previous = c.ds
                assert c.node != client
                assert c.rtt >= 0


def test_tie_across_the_two_parts_of_a_class_goes_to_smaller_id():
    """Client 5 sits under r3; its class at r1 has a peer in the preorder
    part before r3's subtree (9, under r2) and one after it (4), both at
    distance 4.  The smaller id wins, whichever part it lies in."""
    topo = Topology()
    s, r1, r2, r3 = (
        topo.add_node(NodeKind.SOURCE), *topo.add_nodes(3, NodeKind.ROUTER)
    )
    c4, c5 = topo.add_nodes(2, NodeKind.CLIENT)
    topo.add_nodes(3, NodeKind.ROUTER)
    c9 = topo.add_node(NodeKind.CLIENT)
    for a, b, delay in ((s, r1, 1), (r1, r2, 1), (r2, c9, 1), (r1, r3, 1),
                        (r3, c5, 1), (r1, c4, 2)):
        topo.add_link(a, b, delay)
    tree = MulticastTree(topo, s, {r1: s, r2: r1, c9: r2, r3: r1, c5: r3, c4: r1})
    routing = RoutingTable(topo)
    expected = [Candidate(node=c4, ds=1, rtt=8.0)]
    assert candidate_clients(tree, routing, c5) == expected
    pairs = row_candidates(tree, routing, np.array([c5]))
    assert pairs.peer.tolist() == [c4] and pairs.rtt.tolist() == [8.0]


class TestVectorizedEquivalence:
    """The planner's array row stage must match the scalar per-client
    candidates exactly — nodes, DS, RTT floats, and order."""

    def test_matches_scalar_path_on_random_trees(self):
        for seed in range(12):
            topo = random_backbone(
                TopologyConfig(num_routers=30), np.random.default_rng(seed)
            )
            tree = random_multicast_tree(topo, np.random.default_rng(seed + 1))
            routing = RoutingTable(topo)
            # Members that are not clients plan too (interior routers).
            planned = tree.clients + [
                n for n in tree.members if n != tree.root
            ][:5]
            pairs = row_candidates(
                tree, routing, np.asarray(planned, dtype=np.int64)
            )
            for i, client in enumerate(planned):
                mine = pairs.client == i
                fast = [
                    Candidate(node=int(v), ds=int(d), rtt=float(r))
                    for v, d, r in zip(
                        pairs.peer[mine], pairs.ds[mine], pairs.rtt[mine]
                    )
                ]
                assert fast == candidate_clients(tree, routing, client)
                assert pairs.source_rtt[i] == routing.rtt(client, tree.root)
