"""Tests for the multicast tree: structure, DS distances, ancestor
queries, subtrees, and the random spanning-subtree generator."""

import networkx as nx
import numpy as np
import pytest

from repro.net.generators import TopologyConfig, binary_tree_topology, random_backbone
from repro.net.mcast_tree import MulticastTree, random_multicast_tree
from repro.net.topology import NodeKind, Topology


@pytest.fixture
def small_tree():
    """Hand-built tree:

        S(4)
         |
        r0
        / \\
      r1   c5
      / \\
    c2   c3        (c = clients, r = routers)
    """
    topo = Topology()
    r0, r1 = topo.add_nodes(2, NodeKind.ROUTER)
    c2, c3 = topo.add_nodes(2, NodeKind.CLIENT)
    s = topo.add_node(NodeKind.SOURCE)
    c5 = topo.add_node(NodeKind.CLIENT)
    topo.add_link(s, r0, delay=1.0)
    topo.add_link(r0, r1, delay=2.0)
    topo.add_link(r0, c5, delay=3.0)
    topo.add_link(r1, c2, delay=4.0)
    topo.add_link(r1, c3, delay=5.0)
    tree = MulticastTree(topo, s, {r0: s, r1: r0, c5: r0, c2: r1, c3: r1})
    return topo, tree


class TestTreeStructure:
    def test_members(self, small_tree):
        _, tree = small_tree
        assert tree.members == [0, 1, 2, 3, 4, 5]
        assert tree.num_members == 6
        assert tree.num_tree_links == 5

    def test_parent_child(self, small_tree):
        _, tree = small_tree
        assert tree.parent(tree.root) is None
        assert tree.parent(1) == 0
        assert tree.children(0) == [1, 5]
        assert tree.children(2) == []

    def test_leaves_and_clients(self, small_tree):
        _, tree = small_tree
        assert sorted(tree.leaves) == [2, 3, 5]
        assert tree.clients == [2, 3, 5]

    def test_is_leaf(self, small_tree):
        _, tree = small_tree
        assert tree.is_leaf(2)
        assert not tree.is_leaf(0)
        assert not tree.is_leaf(tree.root)

    def test_contains(self, small_tree):
        _, tree = small_tree
        assert tree.contains(3)
        assert not tree.contains(99)

    def test_non_member_queries_raise(self, small_tree):
        _, tree = small_tree
        with pytest.raises(ValueError):
            tree.depth(99)
        with pytest.raises(ValueError):
            tree.parent(99)
        with pytest.raises(ValueError):
            tree.children(99)

    @pytest.mark.parametrize("node", [-1, 6, 99])
    def test_queries_reject_ids_outside_the_tree(self, small_tree, node):
        # -1 must not wrap around to the last node of an id-indexed array.
        _, tree = small_tree
        for query in (
            tree.depth, tree.delay_from_root, tree.subtree_size,
            tree.iter_subtree, tree.top_level_subgroup, tree.lca_row,
            lambda v: tree.first_common_router(2, v),
            lambda v: tree.is_ancestor(v, 2),
            lambda v: tree.lca_vector(v, np.array([2])),
            lambda v: tree.lca_pairs(np.array([2]), np.array([v])),
        ):
            with pytest.raises(ValueError):
                query(node)

    @pytest.mark.parametrize("root", [-1, 6])
    def test_root_must_be_a_topology_node(self, small_tree, root):
        topo, _ = small_tree
        with pytest.raises(ValueError, match="not a node of the topology"):
            MulticastTree(topo, root, {})

    def test_root_cannot_have_parent(self, small_tree):
        topo, _ = small_tree
        with pytest.raises(ValueError):
            MulticastTree(topo, 4, {4: 0})

    def test_tree_edge_must_exist_in_topology(self):
        topo = Topology()
        topo.add_nodes(3)
        topo.add_link(0, 1, delay=1.0)
        with pytest.raises(ValueError):
            MulticastTree(topo, 0, {1: 0, 2: 0})  # no 0-2 link

    def test_parent_outside_tree_rejected(self, small_tree):
        topo, _ = small_tree
        with pytest.raises(ValueError):
            MulticastTree(topo, 4, {1: 0})  # parent 0 not a member


class TestDistances:
    def test_depth(self, small_tree):
        _, tree = small_tree
        assert tree.depth(4) == 0
        assert tree.depth(0) == 1
        assert tree.depth(1) == 2
        assert tree.depth(2) == 3
        assert tree.depth(5) == 2

    def test_delay_from_root(self, small_tree):
        _, tree = small_tree
        assert tree.delay_from_root(4) == 0.0
        assert tree.delay_from_root(2) == pytest.approx(1.0 + 2.0 + 4.0)
        assert tree.delay_from_root(5) == pytest.approx(1.0 + 3.0)

    def test_path_to_root(self, small_tree):
        _, tree = small_tree
        assert tree.path_to_root(2) == [2, 1, 0, 4]
        assert tree.path_from_root(2) == [4, 0, 1, 2]
        assert tree.path_to_root(tree.root) == [4]

    def test_tree_path_between_leaves(self, small_tree):
        _, tree = small_tree
        assert tree.tree_path(2, 3) == [2, 1, 3]
        assert tree.tree_path(2, 5) == [2, 1, 0, 5]
        assert tree.tree_path(2, 2) == [2]


class TestAncestorQueries:
    def test_first_common_router(self, small_tree):
        _, tree = small_tree
        assert tree.first_common_router(2, 3) == 1
        assert tree.first_common_router(2, 5) == 0
        assert tree.first_common_router(2, 4) == 4
        assert tree.first_common_router(2, 1) == 1

    def test_ds(self, small_tree):
        _, tree = small_tree
        assert tree.ds(2, 3) == 2  # meet at r1, depth 2
        assert tree.ds(2, 5) == 1  # meet at r0, depth 1
        assert tree.ds(3, 2) == 2  # symmetric

    def test_is_ancestor(self, small_tree):
        _, tree = small_tree
        assert tree.is_ancestor(0, 2)
        assert tree.is_ancestor(2, 2)
        assert not tree.is_ancestor(5, 2)
        assert tree.is_ancestor(tree.root, 5)

    def test_top_level_subgroup(self, small_tree):
        _, tree = small_tree
        # Source has one child r0; every member's subgroup root is r0.
        for node in (0, 1, 2, 3, 5):
            assert tree.top_level_subgroup(node) == 0
        assert tree.top_level_subgroup(tree.root) == tree.root

    def test_lca_matches_networkx(self):
        topo = random_backbone(
            TopologyConfig(num_routers=40), np.random.default_rng(11)
        )
        tree = random_multicast_tree(topo, np.random.default_rng(12))
        g = nx.DiGraph()
        for node in tree.members:
            parent = tree.parent(node)
            if parent is not None:
                g.add_edge(parent, node)
        members = tree.members
        pairs = [(members[i], members[-1 - i]) for i in range(0, len(members) // 2, 3)]
        for u, v in pairs:
            expected = nx.lowest_common_ancestor(g, u, v)
            assert tree.first_common_router(u, v) == expected


class TestSubtrees:
    def test_subtree_nodes(self, small_tree):
        _, tree = small_tree
        assert tree.subtree_nodes(1) == [1, 2, 3]
        assert tree.subtree_nodes(4) == [0, 1, 2, 3, 4, 5]
        assert tree.subtree_nodes(5) == [5]

    def test_subtree_clients(self, small_tree):
        _, tree = small_tree
        assert tree.subtree_clients(1) == [2, 3]
        assert tree.subtree_clients(0) == [2, 3, 5]

    def test_subtree_link_count(self, small_tree):
        _, tree = small_tree
        assert tree.subtree_link_count(1) == 2
        assert tree.subtree_link_count(2) == 0
        assert tree.subtree_link_count(4) == 5


class TestRandomMulticastTree:
    @pytest.fixture
    def random_pair(self):
        topo = random_backbone(
            TopologyConfig(num_routers=60), np.random.default_rng(21)
        )
        tree = random_multicast_tree(topo, np.random.default_rng(22))
        return topo, tree

    def test_spans_whole_connected_topology(self, random_pair):
        topo, tree = random_pair
        assert tree.num_members == topo.num_nodes

    def test_rooted_at_source(self, random_pair):
        topo, tree = random_pair
        assert tree.root == topo.source

    def test_leaves_marked_as_clients(self, random_pair):
        topo, tree = random_pair
        for leaf in tree.leaves:
            assert topo.kind(leaf) in (NodeKind.CLIENT, NodeKind.SOURCE)
        assert len(tree.clients) >= 1

    def test_uses_only_topology_links(self, random_pair):
        topo, tree = random_pair
        for node in tree.members:
            parent = tree.parent(node)
            if parent is not None:
                assert topo.has_link(node, parent)

    def test_reproducible(self):
        config = TopologyConfig(num_routers=30)
        results = []
        for _ in range(2):
            topo = random_backbone(config, np.random.default_rng(1))
            tree = random_multicast_tree(topo, np.random.default_rng(2))
            results.append({n: tree.parent(n) for n in tree.members})
        assert results[0] == results[1]

    def test_depths_consistent_with_parents(self, random_pair):
        _, tree = random_pair
        for node in tree.members:
            parent = tree.parent(node)
            if parent is None:
                assert tree.depth(node) == 0
            else:
                assert tree.depth(node) == tree.depth(parent) + 1

    def test_binary_tree_client_depths(self):
        topo = binary_tree_topology(depth=3)
        # Build the natural tree by BFS from the source.
        tree = random_multicast_tree(topo, np.random.default_rng(0))
        # The only spanning subtree of a tree topology is the tree itself:
        # every client sits depth+1 hops below the root router + source hop.
        # Depths: S=0, root router=1, two more router levels, client=4.
        for client in topo.clients:
            assert tree.depth(client) == 4


class TestPruneGraftClone:
    """Dynamic membership mutations: leaf prune/graft, structural clone,
    and the epoch counter that invalidates plan-cache fingerprints."""

    def test_prune_leaf_removes_and_returns_graft_point(self, small_tree):
        _, tree = small_tree
        parent = tree.prune_leaf(5)
        assert parent == 0
        assert not tree.contains(5)
        assert tree.clients == [2, 3]
        assert 5 not in tree.children(0)
        # Derived structure stays queryable and consistent.
        assert tree.depth(3) == tree.depth(1) + 1
        assert tree.first_common_router(2, 3) == 1

    def test_prune_rejects_root_interior_and_unknown(self, small_tree):
        _, tree = small_tree
        with pytest.raises(ValueError):
            tree.prune_leaf(tree.root)
        with pytest.raises(ValueError):
            tree.prune_leaf(1)  # interior: load-bearing for 2 and 3
        with pytest.raises(ValueError):
            tree.prune_leaf(99)

    def test_graft_restores_original_structure(self, small_tree):
        _, tree = small_tree
        reference = tree.clone()
        parent = tree.prune_leaf(5)
        tree.graft_leaf(5, parent)
        assert tree.contains(5)
        assert tree.clients == reference.clients
        for node in reference.members:
            assert tree.parent(node) == reference.parent(node)
            assert tree.depth(node) == reference.depth(node)
        assert tree.first_common_router(5, 2) == reference.first_common_router(5, 2)

    def test_graft_validation(self, small_tree):
        _, tree = small_tree
        with pytest.raises(ValueError):
            tree.graft_leaf(5, 0)  # already a member
        tree.prune_leaf(5)
        with pytest.raises(ValueError):
            tree.graft_leaf(5, 99)  # parent not a member
        with pytest.raises(ValueError):
            tree.graft_leaf(5, 1)  # no (1,5) link in the topology

    def test_mutations_bump_epoch(self, small_tree):
        _, tree = small_tree
        assert tree.membership_epoch == 0
        parent = tree.prune_leaf(5)
        assert tree.membership_epoch == 1
        tree.graft_leaf(5, parent)
        assert tree.membership_epoch == 2

    def test_clone_is_independent(self, small_tree):
        _, tree = small_tree
        copy = tree.clone()
        copy.prune_leaf(5)
        # The original is untouched — structure and epoch alike.
        assert tree.contains(5)
        assert tree.membership_epoch == 0
        assert copy.membership_epoch == 1
        assert tree.clients == [2, 3, 5]
        assert copy.clients == [2, 3]
        # And the copy shares the topology object (unmutated by design).
        assert copy.topology is tree.topology
