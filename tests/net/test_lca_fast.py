"""Equivalence of the O(1) LCA fast path with the naive pointer walks.

The Euler-tour sparse table, preorder intervals and batched rows in
:class:`~repro.net.mcast_tree.MulticastTree` must be *indistinguishable*
from the original pointer-walk implementations (kept as ``naive_*``
reference methods) — the planner's output, and therefore every sweep
artifact, depends on them bit for bit.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.net.generators import TopologyConfig, random_backbone
from repro.net.mcast_tree import (
    MulticastTree,
    floor_log2,
    random_multicast_tree,
)


def build(seed, routers=25):
    topo = random_backbone(
        TopologyConfig(num_routers=routers), np.random.default_rng(seed)
    )
    tree = random_multicast_tree(topo, np.random.default_rng(seed + 10_000))
    return topo, tree


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000), data=st.data())
def test_fast_lca_matches_naive(seed, data):
    _, tree = build(seed)
    members = tree.members
    u = data.draw(st.sampled_from(members))
    v = data.draw(st.sampled_from(members))
    assert tree.first_common_router(u, v) == tree.naive_first_common_router(u, v)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000), data=st.data())
def test_fast_is_ancestor_matches_naive(seed, data):
    _, tree = build(seed)
    members = tree.members
    a = data.draw(st.sampled_from(members))
    n = data.draw(st.sampled_from(members))
    assert tree.is_ancestor(a, n) == tree.naive_is_ancestor(a, n)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000), data=st.data())
def test_lca_row_matches_per_pair_queries(seed, data):
    _, tree = build(seed)
    client = data.draw(st.sampled_from(tree.members))
    row = tree.lca_row(client)
    assert set(row) == set(tree.members)
    for node in tree.members:
        assert row[node] == tree.naive_first_common_router(client, node)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000), data=st.data())
def test_ds_row_matches_per_pair_ds(seed, data):
    _, tree = build(seed)
    client = data.draw(st.sampled_from(tree.members))
    row = tree.ds_row(client)
    for node in tree.members:
        assert row[node] == tree.depth(tree.naive_first_common_router(client, node))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000), data=st.data())
def test_subtree_queries_consistent(seed, data):
    _, tree = build(seed)
    node = data.draw(st.sampled_from(tree.members))
    nodes = tree.subtree_nodes(node)
    # subtree_nodes keeps its documented ascending-id contract.
    assert nodes == sorted(nodes)
    # iter_subtree yields the same membership (preorder, no sort).
    assert sorted(tree.iter_subtree(node)) == nodes
    assert tree.subtree_size(node) == len(nodes)
    assert tree.subtree_link_count(node) == len(nodes) - 1
    # Membership equals the ancestor predicate.
    in_subtree = set(nodes)
    for other in tree.members:
        assert (other in in_subtree) == tree.is_ancestor(node, other)


def test_fast_path_on_hand_built_line():
    """Pin the structures on a hand-checkable line: S - r0 - r1 - r2 - r3 - c."""
    from repro.net.generators import line_topology

    topo = line_topology(4)  # routers 0..3, source 4, client 5
    tree = MulticastTree(topo, 4, {0: 4, 1: 0, 2: 1, 3: 2, 5: 3})
    # On a line, every LCA is the shallower endpoint.
    assert tree.first_common_router(5, 1) == 1
    assert tree.first_common_router(4, 3) == 4
    assert tree.ds(5, 2) == tree.depth(2) == 3
    assert tree.lca_row(5) == {n: n for n in (4, 0, 1, 2, 3, 5)}
    assert tree.is_ancestor(4, 5) and not tree.is_ancestor(5, 4)
    assert tree.subtree_link_count(4) == 5
    assert tree.subtree_size(3) == 2
    assert tree.top_level_subgroup(5) == 0


def assert_index_matches_naive(tree):
    """The vectorized queries and the stored arrays agree with the
    pointer walks on every member."""
    members = np.asarray(tree.members, dtype=np.int64)
    n = tree.topology.num_nodes
    outside = np.setdiff1d(np.arange(n), members)
    order, tin, size, parent = tree.structure_arrays()
    depth = tree.depth_vector()
    for arr in (order, tin, size, parent, depth):
        assert not arr.flags.writeable
    assert sorted(order.tolist()) == members.tolist()
    assert order[0] == tree.root
    assert (tin[order] == np.arange(len(order))).all()
    for arr in (tin, size, parent, depth):
        assert (arr[outside] == -1).all()
    for v in members.tolist():
        assert depth[v] == tree.depth(v)
        assert parent[v] == (-1 if v == tree.root else tree.parent(v))
        # The preorder slice of v is exactly v's subtree.
        inside = set(order[tin[v] : tin[v] + size[v]].tolist())
        assert inside == {u for u in tree.members if tree.naive_is_ancestor(v, u)}
        row = tree.lca_vector(v, members)
        assert row.tolist() == [
            tree.naive_first_common_router(v, u) for u in members.tolist()
        ]
    us = np.repeat(members, len(members))
    vs = np.tile(members, len(members))
    assert tree.lca_pairs(us, vs).tolist() == [
        tree.naive_first_common_router(u, v)
        for u, v in zip(us.tolist(), vs.tolist())
    ]


def assert_same_index(a, b):
    for x, y in zip(a.structure_arrays(), b.structure_arrays()):
        assert np.array_equal(x, y)
    assert np.array_equal(a.depth_vector(), b.depth_vector())
    for v in a.members:
        assert a.delay_from_root(v) == b.delay_from_root(v)
        assert a.top_level_subgroup(v) == b.top_level_subgroup(v)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_vector_queries_and_arrays_match_naive(seed):
    _, tree = build(seed, routers=15)
    assert_index_matches_naive(tree)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000), data=st.data())
def test_index_after_prune_graft_matches_fresh_build(seed, data):
    topo, tree = build(seed, routers=15)
    pruned: list[int] = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        graftable = [
            (node, par)
            for node in pruned
            for par in topo.neighbors(node)
            if tree.contains(par)
        ]
        if graftable and data.draw(st.booleans()):
            node, par = data.draw(st.sampled_from(graftable))
            tree.graft_leaf(node, par)
            pruned.remove(node)
        else:
            leaf = data.draw(st.sampled_from(sorted(tree.leaves)))
            tree.prune_leaf(leaf)
            pruned.append(leaf)
    assert_index_matches_naive(tree)
    parents = {v: tree.parent(v) for v in tree.members if v != tree.root}
    assert_same_index(tree, MulticastTree(topo, tree.root, parents))


def test_floor_log2_matches_the_halving_recurrence():
    # The sparse tables' level lookup: log2[i] = log2[i // 2] + 1 from
    # i = 2, zero at 0 and 1, as int64.
    n = (1 << 17) + 3
    expected = np.zeros(n + 1, dtype=np.int64)
    for i in range(2, n + 1):
        expected[i] = expected[i >> 1] + 1
    got = floor_log2(n)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    assert floor_log2(0).tolist() == [0]
