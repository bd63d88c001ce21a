"""Distance-backend tests: the Dijkstra tie-break regression, API
hardening (read-only rows, unreachable error messages), exact-backend
bit-identity against the historical all-pairs implementation, landmark
parity properties, the members-only near tier against the every-node
build, LRU bounds and backend selection."""

import copy
import heapq
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import plan_cache, planner_batch
from repro.core.planner import RPPlanner
from repro.experiments.chaos import chaos_horizon
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario, run_protocol_detailed
from repro.net.generators import TopologyConfig, random_backbone
from repro.net.mcast_tree import random_multicast_tree
from repro.net.routing import (
    ExactDistanceBackend,
    LandmarkDistanceBackend,
    RoutingTable,
    default_num_landmarks,
    make_backend,
)
from repro.net.topology import NodeKind, Topology
from repro.obs.ledger import RunFingerprint
from repro.protocols.rp import RPProtocolFactory
from repro.sim.membership import JOIN, random_membership_schedule


def legacy_dijkstra(topology, source):
    """The pre-backend implementation, verbatim: list-based rows and
    pop-time predecessor assignment (the dead tie-break included).  The
    exact backend must reproduce its *distances* bit-for-bit."""
    n = topology.num_nodes
    dist = [math.inf] * n
    pred = [-1] * n
    dist[source] = 0.0
    heap = [(0.0, -1, source)]
    done = [False] * n
    while heap:
        d, parent, node = heapq.heappop(heap)
        if done[node]:
            continue
        done[node] = True
        pred[node] = parent
        for neighbor, link_index in topology.incident(node):
            if done[neighbor]:
                continue
            nd = d + topology.links[link_index].delay
            if nd < dist[neighbor] or (
                nd == dist[neighbor] and node < pred[neighbor]
            ):
                dist[neighbor] = nd
                heapq.heappush(heap, (nd, node, neighbor))
    return dist, pred


def equal_cost_diamond():
    """Two routes 0->3 of identical total delay 3.0:
    0-1 (2.0), 1-3 (1.0)  and  0-2 (1.0), 2-3 (2.0).

    Node 2 pops first (dist 1.0 < 2.0), so pop-time predecessor
    assignment keeps ``pred[3] = 2`` and the smaller-predecessor rule
    never fires; the fixed relaxation-time tracking adopts node 1.
    """
    topo = Topology()
    topo.add_nodes(4)
    topo.add_link(0, 1, 2.0)
    topo.add_link(1, 3, 1.0)
    topo.add_link(0, 2, 1.0)
    topo.add_link(2, 3, 2.0)
    return topo


def two_islands():
    topo = Topology()
    topo.add_nodes(4)
    topo.add_link(0, 1, 1.0)
    topo.add_link(2, 3, 1.0)
    return topo


class TestTieBreakRegression:
    def test_equal_cost_routes_resolve_to_smaller_predecessor(self):
        backend = ExactDistanceBackend(equal_cost_diamond())
        dist, pred = backend.shortest_path_tree(0)
        assert dist[3] == 3.0
        assert pred[3] == 1  # the dead tie-break used to leave 2 here
        assert backend.path(0, 3) == [0, 1, 3]

    def test_legacy_oracle_demonstrates_the_old_behaviour(self):
        # Documents what the fix changed: same distances, different
        # (order-dependent) predecessor.
        dist, pred = legacy_dijkstra(equal_cost_diamond(), 0)
        assert dist[3] == 3.0
        assert pred[3] == 2

    def test_tie_break_is_pop_order_independent(self):
        # Mirrored variant: now the smaller-id route is also the one
        # popped first, and both implementations agree.
        topo = Topology()
        topo.add_nodes(4)
        topo.add_link(0, 1, 1.0)
        topo.add_link(1, 3, 2.0)
        topo.add_link(0, 2, 2.0)
        topo.add_link(2, 3, 1.0)
        backend = ExactDistanceBackend(topo)
        assert backend.path(0, 3) == [0, 1, 3]


class TestReadOnlyRows:
    @pytest.mark.parametrize("backend_name", ["exact", "landmark"])
    def test_distances_from_rejects_mutation(self, backend_name):
        topo = random_backbone(
            TopologyConfig(num_routers=20), np.random.default_rng(1)
        )
        routing = RoutingTable(topo, backend=backend_name)
        row = routing.distances_from(0)
        with pytest.raises(ValueError):
            row[0] = 123.0
        # The cached row is shared, so the rejected write cannot have
        # corrupted later queries.
        assert routing.delay(0, 1) == float(routing.distances_from(0)[1])


class TestUnreachableErrors:
    def test_next_hop_message_names_the_checked_direction(self):
        backend = ExactDistanceBackend(two_islands())
        # next_hop(u, v) consults v's tree and checks u's entry in it.
        with pytest.raises(ValueError, match=r"node 0 unreachable from 3"):
            backend.next_hop(0, 3)

    def test_path_message(self):
        backend = ExactDistanceBackend(two_islands())
        with pytest.raises(ValueError, match=r"node 3 unreachable from 0"):
            backend.path(0, 3)

    def test_delay_is_inf_across_islands(self):
        routing = RoutingTable(two_islands(), backend="exact")
        assert math.isinf(routing.delay(0, 2))
        assert not routing.reachable(0, 2)


class TestExactBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2_000))
    def test_distances_match_legacy_bitwise(self, seed):
        topo = random_backbone(
            TopologyConfig(num_routers=30), np.random.default_rng(seed)
        )
        backend = ExactDistanceBackend(topo)
        for source in range(0, topo.num_nodes, 7):
            expect = legacy_dijkstra(topo, source)[0]
            got = backend.distances_from(source)
            assert [float(x) for x in got] == expect

    def test_path_delays_match_distances(self):
        topo = random_backbone(
            TopologyConfig(num_routers=30), np.random.default_rng(9)
        )
        backend = ExactDistanceBackend(topo)
        dist = backend.distances_from(0)
        for v in range(1, topo.num_nodes, 5):
            path = backend.path(0, v)
            total = sum(
                topo.link_between(a, b).delay for a, b in zip(path, path[1:])
            )
            assert total == pytest.approx(float(dist[v]), rel=1e-12)


class TestLandmarkParity:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2_000), data=st.data())
    def test_estimates_upper_bound_exact_and_paths_are_real_walks(
        self, seed, data
    ):
        topo = random_backbone(
            TopologyConfig(num_routers=30), np.random.default_rng(seed)
        )
        exact = ExactDistanceBackend(topo)
        landmark = LandmarkDistanceBackend(topo)
        u = data.draw(st.integers(min_value=0, max_value=topo.num_nodes - 1))
        v = data.draw(st.integers(min_value=0, max_value=topo.num_nodes - 1))
        true = float(exact.distances_from(u)[v])
        est = float(landmark.distances_from(u)[v])
        # Both tiers are exact or upper bounds — never below the truth.
        assert est >= true - 1e-9
        if u == v:
            assert est == 0.0
            return
        # The returned path is a real walk whose delay brackets the pair:
        # at least the exact distance, at most the *landmark* bound (the
        # near tier tightens estimates only, not walks, so the walk may
        # exceed ``est`` for ball pairs).
        lm_bound = float(
            np.min(landmark.landmark_matrix[:, u] + landmark.landmark_matrix[:, v])
        )
        assert est <= lm_bound + 1e-9
        path = landmark.path(u, v)
        assert path[0] == u and path[-1] == v
        walk = sum(
            topo.link_between(a, b).delay for a, b in zip(path, path[1:])
        )
        assert true - 1e-9 <= walk <= lm_bound + 1e-9
        assert landmark.next_hop(u, v) == path[1]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_exact_at_landmarks_and_bounded_error_overall(self, seed):
        topo = random_backbone(
            TopologyConfig(num_routers=40), np.random.default_rng(seed)
        )
        exact = ExactDistanceBackend(topo)
        # near_k=0 isolates the landmark tier: with the default near
        # tier a 40-node topology would be almost entirely ball-exact
        # and the bound invariants would test nothing.
        landmark = LandmarkDistanceBackend(topo, near_k=0)
        lm = landmark.landmarks[0]
        # Exact at a landmark up to ULP noise: the row minimum includes
        # the landmark's own Dijkstra distances, but other landmarks'
        # two-term sums may round a hair below them.
        np.testing.assert_allclose(
            np.asarray(landmark.distances_from(lm)),
            np.asarray(exact.distances_from(lm)),
            rtol=1e-9,
        )
        # Aggregate error stays bounded: farthest-point landmarks keep
        # the upper bound within a small constant of the truth.  (The
        # per-pair ratio is unbounded as the true distance goes to zero,
        # so the invariants are delay-weighted stretch and mean ratio.)
        ratios = []
        true_total = est_total = 0.0
        for u in range(0, topo.num_nodes, 5):
            true_row = np.asarray(exact.distances_from(u))
            est_row = np.asarray(landmark.distances_from(u))
            mask = (np.arange(len(true_row)) != u) & np.isfinite(true_row)
            ratios.append(est_row[mask] / true_row[mask])
            true_total += float(true_row[mask].sum())
            est_total += float(est_row[mask].sum())
        assert est_total <= 2.0 * true_total
        assert float(np.concatenate(ratios).mean()) <= 3.0

    def test_single_node_topology(self):
        topo = Topology()
        topo.add_node()
        landmark = LandmarkDistanceBackend(topo)
        assert landmark.distances_from(0)[0] == 0.0
        assert landmark.path(0, 0) == [0]


class TestNearTier:
    def test_ball_pairs_are_exact(self):
        topo = random_backbone(
            TopologyConfig(num_routers=30), np.random.default_rng(21)
        )
        exact = ExactDistanceBackend(topo)
        landmark = LandmarkDistanceBackend(topo, num_landmarks=2, near_k=5)
        indptr, cols, dists = landmark.near_csr()
        assert indptr[-1] == len(cols) == len(dists)
        for u in range(topo.num_nodes):
            true_row = np.asarray(exact.distances_from(u))
            est_row = np.asarray(landmark.distances_from(u))
            ball = cols[indptr[u] : indptr[u + 1]]
            # Symmetrization keeps the min over both directions' path
            # sums, which may sit an ULP below this direction's.
            np.testing.assert_allclose(
                est_row[ball], true_row[ball], rtol=1e-9
            )
            # Each node's own k nearest are covered (symmetrization only
            # ever adds pairs beyond them).
            finite = np.flatnonzero(
                np.isfinite(true_row) & (np.arange(len(true_row)) != u)
            )
            nearest = finite[np.argsort(true_row[finite], kind="stable")][:5]
            assert set(nearest) <= set(ball)

    def test_estimates_are_symmetric(self):
        topo = random_backbone(
            TopologyConfig(num_routers=25), np.random.default_rng(8)
        )
        routing = RoutingTable(topo, backend=LandmarkDistanceBackend(topo))
        for u in range(0, topo.num_nodes, 3):
            for v in range(0, topo.num_nodes, 4):
                assert routing.delay(u, v) == routing.delay(v, u)

    def test_near_k_zero_disables_the_tier(self):
        topo = random_backbone(
            TopologyConfig(num_routers=25), np.random.default_rng(8)
        )
        bare = LandmarkDistanceBackend(topo, near_k=0)
        D = bare.landmark_matrix
        row = np.min(D + D[:, 3 : 4], axis=0)
        row[3] = 0.0
        np.testing.assert_array_equal(np.asarray(bare.distances_from(3)), row)

    def test_near_k_in_cache_key(self):
        topo = random_backbone(
            TopologyConfig(num_routers=25), np.random.default_rng(8)
        )
        a = LandmarkDistanceBackend(topo, near_k=0)
        b = LandmarkDistanceBackend(topo, near_k=4)
        assert a.cache_key() != b.cache_key()
        assert b.near_k == 4

    def test_negative_near_k_rejected(self):
        topo = random_backbone(
            TopologyConfig(num_routers=10), np.random.default_rng(8)
        )
        with pytest.raises(ValueError, match="near_k"):
            LandmarkDistanceBackend(topo, near_k=-1)


class TestNearTierPaths:
    """In-ball ``path()`` walks are exact — not just in-ball distances."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1_000))
    def test_full_ball_paths_equal_exact_backend(self, seed):
        # near_k >= n-1 puts every pair in every ball: each walk must be
        # the exact backend's walk node for node (same truncated-Dijkstra
        # predecessors, same tie-break).
        topo = random_backbone(
            TopologyConfig(num_routers=25), np.random.default_rng(seed)
        )
        exact = ExactDistanceBackend(topo)
        landmark = LandmarkDistanceBackend(
            topo, num_landmarks=2, near_k=topo.num_nodes - 1
        )
        for u in range(0, topo.num_nodes, 4):
            for v in range(0, topo.num_nodes, 3):
                assert landmark.path(u, v) == exact.path(u, v)
                if u != v:
                    assert landmark.next_hop(u, v) == exact.next_hop(u, v)

    def test_partial_ball_walks_are_shortest_paths(self):
        topo = random_backbone(
            TopologyConfig(num_routers=40), np.random.default_rng(13)
        )
        exact = ExactDistanceBackend(topo)
        landmark = LandmarkDistanceBackend(topo, num_landmarks=3, near_k=6)
        indptr, cols, _ = landmark.near_csr()
        checked = 0
        for u in range(topo.num_nodes):
            true_row = exact.distances_from(u)
            for v in cols[indptr[u] : indptr[u + 1]]:
                path = landmark.path(u, int(v))
                assert path[0] == u and path[-1] == v
                walk = sum(
                    topo.link_between(a, b).delay
                    for a, b in zip(path, path[1:])
                )
                # The symmetrized ball may route this pair through the
                # other direction's tree; both are exact up to an ULP.
                assert walk == pytest.approx(float(true_row[v]), rel=1e-9)
                checked += 1
        assert checked > 0

    def test_out_of_ball_pairs_still_splice_via_landmarks(self):
        topo = random_backbone(
            TopologyConfig(num_routers=40), np.random.default_rng(13)
        )
        exact = ExactDistanceBackend(topo)
        bare = LandmarkDistanceBackend(topo, num_landmarks=3, near_k=0)
        for u in range(0, topo.num_nodes, 7):
            for v in range(0, topo.num_nodes, 5):
                if u == v:
                    continue
                path = bare.path(u, v)
                assert path[0] == u and path[-1] == v
                walk = sum(
                    topo.link_between(a, b).delay
                    for a, b in zip(path, path[1:])
                )
                assert walk >= float(exact.distances_from(u)[v]) - 1e-9


def every_node_backend(topology, **kwargs):
    """The oracle for the members-only near tier: the same backend built
    while the topology's CLIENT nodes read as ROUTER, which takes the
    every-node build.  The kinds are restored afterwards, so the oracle
    stays bound to ``topology`` and a routing table, planner or session
    accepts it (a re-kinded copy builds the same arrays, checked below)."""
    kinds = list(topology.node_kinds)
    topology.node_kinds[:] = [
        NodeKind.ROUTER if k is NodeKind.CLIENT else k for k in kinds
    ]
    try:
        return LandmarkDistanceBackend(topology, **kwargs)
    finally:
        topology.node_kinds[:] = kinds


def group_topology(seed, num_routers=30):
    """A backbone plus a random multicast tree, whose leaves are CLIENT."""
    rng = np.random.default_rng(seed)
    topo = random_backbone(TopologyConfig(num_routers=num_routers), rng)
    tree = random_multicast_tree(topo, rng)
    return topo, tree


def members_of(topology):
    return sorted(
        topology.nodes_of_kind(NodeKind.CLIENT)
        + topology.nodes_of_kind(NodeKind.SOURCE)
    )


def assert_member_pairs_equal(backend, oracle, members):
    idx = np.asarray(members)
    for s in members:
        np.testing.assert_array_equal(
            np.asarray(backend.distances_from(s))[idx],
            np.asarray(oracle.distances_from(s))[idx],
        )
        for t in members:
            assert backend.path(s, t) == oracle.path(s, t)
            if s != t:
                assert backend.next_hop(s, t) == oracle.next_hop(s, t)


class TestMemberNearTier:
    """Balls are built for group members only (CLIENT and SOURCE nodes);
    every member pair answers exactly as the every-node build does."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        near_k=st.integers(min_value=3, max_value=8),
    )
    def test_member_pairs_match_every_node_build(self, seed, near_k):
        topo, tree = group_topology(seed)
        members = members_of(topo)
        backend = LandmarkDistanceBackend(topo, num_landmarks=3, near_k=near_k)
        oracle = every_node_backend(topo, num_landmarks=3, near_k=near_k)
        assert_member_pairs_equal(backend, oracle, members)
        routing = RoutingTable(topo, backend=backend)
        reference = RoutingTable(topo, backend=oracle)
        for s in members:
            for t in members:
                assert routing.delay(s, t) == reference.delay(s, t)
        # Every member, the source included, has its own ball: its near
        # row covers every node strictly closer than its k-th nearest.
        # (Pairs with the source are exact through its landmark tree even
        # without that ball, so only the ball set itself shows it.)
        indptr, cols, _ = backend.near_csr()
        exact = ExactDistanceBackend(topo)
        for u in members:
            row = np.asarray(exact.distances_from(u))
            kth = np.sort(np.delete(row, u))[near_k - 1]
            closer = np.flatnonzero(row < kth)
            assert set(closer[closer != u]) <= set(cols[indptr[u] : indptr[u + 1]])
        # Balls start at members only: a non-member's near row holds only
        # the members whose balls reached it.
        is_member = np.zeros(topo.num_nodes, dtype=bool)
        is_member[members] = True
        for r in np.flatnonzero(~is_member):
            assert is_member[cols[indptr[r] : indptr[r + 1]]].all()

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        near_k=st.integers(min_value=3, max_value=8),
    )
    def test_plans_match_every_node_build(self, seed, near_k):
        topo, tree = group_topology(seed, num_routers=40)
        backend = LandmarkDistanceBackend(topo, num_landmarks=3, near_k=near_k)
        oracle = every_node_backend(topo, num_landmarks=3, near_k=near_k)
        planner = RPPlanner(tree, RoutingTable(topo, backend=backend))
        reference = RPPlanner(tree, RoutingTable(topo, backend=oracle))
        assert planner_batch.batchable(planner)
        plans = planner.plan_all()
        assert plans.keys() == reference.plan_all().keys()
        expected = reference.plan_all()
        for client, strategy in plans.items():
            assert strategy == expected[client]
            assert strategy == reference.plan(client)

    def test_oracle_equals_a_client_free_copy(self):
        topo, _ = group_topology(5)
        copy_topo = copy.deepcopy(topo)
        copy_topo.node_kinds[:] = [
            NodeKind.ROUTER if k is NodeKind.CLIENT else k
            for k in copy_topo.node_kinds
        ]
        oracle = every_node_backend(topo, num_landmarks=3, near_k=4)
        on_copy = LandmarkDistanceBackend(copy_topo, num_landmarks=3, near_k=4)
        for a, b in zip(oracle.near_csr(), on_copy.near_csr()):
            np.testing.assert_array_equal(a, b)
        assert topo.nodes_of_kind(NodeKind.CLIENT)  # kinds restored

    def test_clients_without_a_source(self):
        # A CLIENT-bearing topology with no SOURCE node: the member set
        # comes from the node kinds, never from ``topology.source``
        # (which raises here).
        topo = Topology()
        routers = topo.add_nodes(6)
        for a, b in zip(routers, routers[1:]):
            topo.add_link(a, b, 1.0 + 0.1 * a)
        clients = []
        for r in routers[::2]:
            c = topo.add_node(NodeKind.CLIENT)
            topo.add_link(r, c, 0.5 + 0.01 * r)
            clients.append(c)
        with pytest.raises(ValueError, match="source"):
            topo.source
        backend = LandmarkDistanceBackend(topo, num_landmarks=2, near_k=2)
        oracle = every_node_backend(topo, num_landmarks=2, near_k=2)
        assert_member_pairs_equal(backend, oracle, clients)
        indptr, cols, _ = backend.near_csr()
        for r in routers:
            assert set(cols[indptr[r] : indptr[r + 1]].tolist()) <= set(clients)

    def test_churned_session_matches_every_node_build(self):
        # Leave-first churn with rejoins only removes and re-adds original
        # members, so a landmark session under it never asks about a
        # non-member pair and fingerprints exactly as the every-node
        # build's does.
        config = ScenarioConfig(
            seed=3, num_routers=40, num_packets=6, loss_prob=0.05
        )
        built = build_scenario(config)
        candidates = [c for c in built.tree.clients if c != built.tree.root]
        schedule = random_membership_schedule(
            0.6, np.random.default_rng(11), candidates, chaos_horizon(config)
        )
        assert any(e.kind == JOIN for e in schedule.events)
        fingerprints = []
        for make in (LandmarkDistanceBackend, every_node_backend):
            backend = make(built.topology, num_landmarks=3, near_k=4)
            run = replace(
                built, routing=RoutingTable(built.topology, backend=backend)
            )
            # Both backends share a plan-cache key; clear it so each run
            # plans against its own near tier.
            plan_cache.clear()
            artifacts = run_protocol_detailed(
                run, RPProtocolFactory(), membership=schedule
            )
            assert artifacts.membership.counts.get("member.join", 0) > 0
            fingerprints.append(
                RunFingerprint.from_artifacts("churn", config, artifacts)
            )
        plan_cache.clear()
        assert fingerprints[0] == fingerprints[1]


class TestRowCacheBounds:
    def test_exact_lru_evicts_beyond_max_rows(self):
        topo = random_backbone(
            TopologyConfig(num_routers=20), np.random.default_rng(3)
        )
        backend = ExactDistanceBackend(topo, max_rows=2)
        first = np.asarray(backend.distances_from(0)).copy()
        backend.distances_from(1)
        backend.distances_from(2)  # evicts source 0
        assert backend.cached_rows == 2
        assert backend.evictions == 1
        # Recomputed row is identical to the evicted one.
        np.testing.assert_array_equal(
            np.asarray(backend.distances_from(0)), first
        )
        assert backend.evictions == 2

    def test_default_budget_keeps_small_topologies_fully_cached(self):
        topo = random_backbone(
            TopologyConfig(num_routers=20), np.random.default_rng(3)
        )
        backend = ExactDistanceBackend(topo)
        assert backend.max_cached_rows >= topo.num_nodes


class TestBackendSelection:
    def test_auto_picks_exact_below_threshold(self):
        topo = random_backbone(
            TopologyConfig(num_routers=15), np.random.default_rng(2)
        )
        assert isinstance(make_backend("auto", topo), ExactDistanceBackend)

    def test_auto_picks_landmark_above_threshold(self, monkeypatch):
        monkeypatch.setattr(
            "repro.net.routing.EXACT_AUTO_MAX_NODES", 10
        )
        topo = random_backbone(
            TopologyConfig(num_routers=15), np.random.default_rng(2)
        )
        assert isinstance(make_backend("auto", topo), LandmarkDistanceBackend)
        # No backend argument means "auto".
        assert RoutingTable(topo).backend_name == "landmark"

    def test_unknown_backend_rejected(self):
        topo = random_backbone(
            TopologyConfig(num_routers=10), np.random.default_rng(2)
        )
        with pytest.raises(ValueError, match="unknown routing backend"):
            RoutingTable(topo, backend="fancy")

    def test_foreign_backend_instance_rejected(self):
        topo_a = random_backbone(
            TopologyConfig(num_routers=10), np.random.default_rng(2)
        )
        topo_b = random_backbone(
            TopologyConfig(num_routers=10), np.random.default_rng(4)
        )
        backend = ExactDistanceBackend(topo_a)
        with pytest.raises(ValueError, match="different topology"):
            RoutingTable(topo_b, backend=backend)

    def test_cache_keys_distinguish_backends(self):
        topo = random_backbone(
            TopologyConfig(num_routers=15), np.random.default_rng(2)
        )
        exact = ExactDistanceBackend(topo)
        landmark = LandmarkDistanceBackend(topo)
        assert exact.cache_key() != landmark.cache_key()
        assert landmark.cache_key() == (
            "landmark",
            len(landmark.landmarks),
            landmark.near_k,
        )

    def test_default_num_landmarks_clamps(self):
        assert default_num_landmarks(4) == 4
        assert default_num_landmarks(100) == 10
        assert default_num_landmarks(1_000_000) == 64
        assert default_num_landmarks(0) == 1
