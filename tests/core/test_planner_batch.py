"""Equivalence of the array-native batched planner with the per-client
pipeline on the landmark backend, plus its eligibility gating."""

import numpy as np
import pytest

from repro.core import planner_batch
from repro.core.objective import (
    AttemptCostEstimator,
    RttOnlyEstimator,
    TimeoutOnlyEstimator,
)
from repro.core.planner import RPPlanner
from repro.core.strategy_graph import StrategyRestrictions
from repro.core.timeouts import FixedTimeout, TimeoutPolicy
from repro.net.generators import TopologyConfig, random_backbone
from repro.net.mcast_tree import random_multicast_tree
from repro.net.routing import LandmarkDistanceBackend, RoutingTable


def landmark_scene(seed: int, num_routers: int = 60):
    topo = random_backbone(
        TopologyConfig(num_routers=num_routers), np.random.default_rng(seed)
    )
    tree = random_multicast_tree(topo, np.random.default_rng(seed + 1))
    routing = RoutingTable(topo, backend="landmark")
    return topo, tree, routing


def assert_strategies_equal(batched, looped):
    assert list(batched) == list(looped)
    for client, expect in looped.items():
        got = batched[client]
        assert got.client == expect.client
        assert got.ds_u == expect.ds_u
        assert got.source_rtt == expect.source_rtt
        assert got.source_timeout == expect.source_timeout
        assert got.expected_delay == expect.expected_delay
        assert got.timeouts == expect.timeouts
        assert len(got.attempts) == len(expect.attempts)
        for a, b in zip(got.attempts, expect.attempts):
            assert (a.node, a.ds, a.rtt) == (b.node, b.ds, b.rtt)


class TestBatchedEquivalence:
    @pytest.mark.parametrize("seed", [3, 11, 47, 101])
    def test_matches_per_client_loop(self, seed):
        _, tree, routing = landmark_scene(seed)
        planner = RPPlanner(tree, routing)
        assert planner_batch.batchable(planner)
        batched = planner.plan_all()
        looped = {c: planner.plan(c) for c in tree.clients}
        assert_strategies_equal(batched, looped)

    def test_matches_with_forbid_direct_source(self):
        _, tree, routing = landmark_scene(7)
        planner = RPPlanner(
            tree,
            routing,
            restrictions=StrategyRestrictions(forbid_direct_source=True),
        )
        assert planner_batch.batchable(planner)
        assert_strategies_equal(
            planner.plan_all(), {c: planner.plan(c) for c in tree.clients}
        )

    @pytest.mark.parametrize(
        "estimator", [RttOnlyEstimator(), TimeoutOnlyEstimator()]
    )
    def test_matches_with_stock_estimators(self, estimator):
        _, tree, routing = landmark_scene(13)
        planner = RPPlanner(tree, routing, estimator=estimator)
        assert planner_batch.batchable(planner)
        assert_strategies_equal(
            planner.plan_all(), {c: planner.plan(c) for c in tree.clients}
        )

    def test_matches_with_fixed_timeout(self):
        _, tree, routing = landmark_scene(19)
        planner = RPPlanner(tree, routing, timeout_policy=FixedTimeout(40.0))
        assert planner_batch.batchable(planner)
        assert_strategies_equal(
            planner.plan_all(), {c: planner.plan(c) for c in tree.clients}
        )

    def test_custom_timeout_policy_uses_loop_fallback_array(self):
        class Tripled(TimeoutPolicy):
            def timeout(self, rtt):
                return 3.0 * rtt + 1.0

        _, tree, routing = landmark_scene(23)
        planner = RPPlanner(tree, routing, timeout_policy=Tripled())
        # Unknown timeout policies stay batchable through the element-wise
        # timeout_array default — results must still match exactly.
        assert planner_batch.batchable(planner)
        assert_strategies_equal(
            planner.plan_all(), {c: planner.plan(c) for c in tree.clients}
        )


class TestEligibility:
    def test_exact_backend_not_batchable(self):
        topo = random_backbone(
            TopologyConfig(num_routers=30), np.random.default_rng(5)
        )
        tree = random_multicast_tree(topo, np.random.default_rng(6))
        planner = RPPlanner(tree, RoutingTable(topo, backend="exact"))
        assert not planner_batch.batchable(planner)

    def test_custom_estimator_not_batchable(self):
        class Weird(AttemptCostEstimator):
            def cost(self, rtt, timeout, success_prob):
                return max(rtt, timeout)

        _, tree, routing = landmark_scene(9)
        planner = RPPlanner(tree, routing, estimator=Weird())
        assert not planner_batch.batchable(planner)

    def test_restrictions_force_fallback(self):
        _, tree, routing = landmark_scene(9)
        some_client = tree.clients[0]
        for restrictions in (
            StrategyRestrictions(forbidden_peers=frozenset({some_client})),
            StrategyRestrictions(max_list_length=2),
        ):
            planner = RPPlanner(tree, routing, restrictions=restrictions)
            assert not planner_batch.batchable(planner)
            # plan_all still works through the per-client loop.
            plans = planner.plan_all()
            assert set(plans) == set(tree.clients)

    def test_stock_subclass_with_scalar_override_not_batchable(self):
        # Overriding timeout() while inheriting FixedTimeout's vectorized
        # timeout_array would desynchronize the scalar and array paths —
        # such policies must fall back to the per-client loop.
        class Doubler(FixedTimeout):
            def timeout(self, rtt):
                return 2.0 * rtt + self.t0

        _, tree, routing = landmark_scene(23)
        planner = RPPlanner(tree, routing, timeout_policy=Doubler(5.0))
        assert not planner_batch.batchable(planner)
