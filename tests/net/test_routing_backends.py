"""Distance-backend tests: the Dijkstra tie-break regression, API
hardening (read-only rows, unreachable error messages), exact-backend
bit-identity against the historical all-pairs implementation, landmark
parity properties, LRU bounds and backend selection."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net.generators import TopologyConfig, random_backbone
from repro.net.routing import (
    ExactDistanceBackend,
    LandmarkDistanceBackend,
    RoutingTable,
    default_num_landmarks,
    make_backend,
)
from repro.net.topology import NodeKind, Topology


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
