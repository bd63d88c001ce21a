"""Equivalence of the array-native planner (``RPPlanner.plan``,
``plan_clients`` and ``plan_all``) with the paper's per-client reference pipeline: candidates,
the Definition-1 strategy graph and Algorithm 1."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithm import (
    searching_minimal_delay,
    searching_minimal_delay_bounded,
)
from repro.core.candidates import Candidate, candidate_clients
from repro.core.objective import (
    AttemptCostEstimator,
    BlendEstimator,
    RttOnlyEstimator,
    TimeoutOnlyEstimator,
)
from repro.core.planner import RecoveryStrategy, RPPlanner
from repro.core.planner_batch import _algorithm1, row_candidates
from repro.core.strategy_graph import StrategyGraph, StrategyRestrictions
from repro.core.timeouts import FixedTimeout, ProportionalTimeout, TimeoutPolicy
from repro.net.generators import TopologyConfig, random_backbone
from repro.net.mcast_tree import MulticastTree, random_multicast_tree
from repro.net.routing import RoutingTable
from repro.net.topology import NodeKind, Topology


def reference_plan(planner: RPPlanner, client: int) -> RecoveryStrategy:
    """The scalar pipeline: ``searching_minimal_delay[_bounded]`` over
    ``planner.strategy_graph_for(client)``."""
    graph = planner.strategy_graph_for(client)
    limit = planner.restrictions.max_list_length
    if limit is None:
        result = searching_minimal_delay(graph)
    else:
        result = searching_minimal_delay_bounded(graph, limit)
    chain = tuple(graph.candidate_at(i) for i in result.path)
    policy = planner.timeout_policy
    return RecoveryStrategy(
        client=client,
        attempts=chain,
        timeouts=tuple(policy.timeout(c.rtt) for c in chain),
        source_rtt=graph.source_rtt,
        source_timeout=policy.timeout(graph.source_rtt),
        expected_delay=result.delay,
        ds_u=graph.ds_u,
    )


def landmark_scene(seed: int, num_routers: int = 60):
    topo = random_backbone(
        TopologyConfig(num_routers=num_routers), np.random.default_rng(seed)
    )
    tree = random_multicast_tree(topo, np.random.default_rng(seed + 1))
    routing = RoutingTable(topo, backend="landmark")
    return topo, tree, routing


def exact_scene(seed: int, num_routers: int = 40):
    topo = random_backbone(
        TopologyConfig(num_routers=num_routers), np.random.default_rng(seed)
    )
    tree = random_multicast_tree(topo, np.random.default_rng(seed + 1))
    return topo, tree, RoutingTable(topo, backend="exact")


def assert_strategy_equal(got, expect):
    assert got.client == expect.client
    assert got.ds_u == expect.ds_u
    assert got.source_rtt == expect.source_rtt
    assert got.source_timeout == expect.source_timeout
    assert got.expected_delay == expect.expected_delay
    assert got.timeouts == expect.timeouts
    assert len(got.attempts) == len(expect.attempts)
    for a, b in zip(got.attempts, expect.attempts):
        assert (a.node, a.ds, a.rtt) == (b.node, b.ds, b.rtt)


def assert_strategies_equal(batched, looped):
    assert list(batched) == list(looped)
    for client, expect in looped.items():
        assert_strategy_equal(batched[client], expect)


def assert_matches_reference(planner):
    """``plan_all`` and every ``plan(c)`` equal the scalar reference."""
    clients = planner.tree.clients
    reference = {c: reference_plan(planner, c) for c in clients}
    assert_strategies_equal(planner.plan_all(), reference)
    for c in clients:
        assert_strategy_equal(planner.plan(c), reference[c])
    return reference


class Weird(AttemptCostEstimator):
    def cost(self, rtt, timeout, success_prob):
        return max(rtt, timeout)


class Tripled(TimeoutPolicy):
    def timeout(self, rtt):
        return 3.0 * rtt + 1.0


class Doubler(FixedTimeout):
    # Overrides timeout() only: the inherited closed-form
    # FixedTimeout.timeout_array would disagree with it.
    def timeout(self, rtt):
        return 2.0 * rtt + self.t0


class HalfBlend(BlendEstimator):
    # Overrides cost() only, under a stock estimator's closed form.
    def cost(self, rtt, timeout, success_prob):
        return 0.5 * super().cost(rtt, timeout, success_prob) + 0.25 * rtt


class TestBatchedEquivalence:
    @pytest.mark.parametrize("seed", [3, 11, 47, 101])
    def test_matches_per_client_loop(self, seed):
        _, tree, routing = landmark_scene(seed)
        assert_matches_reference(RPPlanner(tree, routing))

    def test_matches_with_forbid_direct_source(self):
        _, tree, routing = landmark_scene(7)
        assert_matches_reference(
            RPPlanner(
                tree,
                routing,
                restrictions=StrategyRestrictions(forbid_direct_source=True),
            )
        )

    @pytest.mark.parametrize(
        "estimator", [RttOnlyEstimator(), TimeoutOnlyEstimator()]
    )
    def test_matches_with_stock_estimators(self, estimator):
        _, tree, routing = landmark_scene(13)
        assert_matches_reference(RPPlanner(tree, routing, estimator=estimator))

    def test_matches_with_fixed_timeout(self):
        _, tree, routing = landmark_scene(19)
        assert_matches_reference(
            RPPlanner(tree, routing, timeout_policy=FixedTimeout(40.0))
        )

    def test_custom_timeout_policy_uses_loop_fallback_array(self):
        _, tree, routing = landmark_scene(23)
        # Tripled defines only timeout(): its array form is the
        # element-wise default, so results match exactly.
        assert Tripled.timeout_array is TimeoutPolicy.timeout_array
        assert_matches_reference(
            RPPlanner(tree, routing, timeout_policy=Tripled())
        )


class TestNonStockKnobs:
    """Custom estimators and timeouts, restrictions and the exact backend
    must equal the reference exactly."""

    def test_exact_backend_matches_reference(self):
        _, tree, routing = exact_scene(5, num_routers=30)
        assert routing.backend_name == "exact"
        assert_matches_reference(RPPlanner(tree, routing))

    @pytest.mark.parametrize("backend", ["exact", "landmark"])
    def test_custom_estimator_matches_reference(self, backend):
        _, tree, _ = landmark_scene(9)
        routing = RoutingTable(tree.topology, backend=backend)
        assert Weird.cost_array is AttemptCostEstimator.cost_array
        assert_matches_reference(RPPlanner(tree, routing, estimator=Weird()))

    @pytest.mark.parametrize("backend", ["exact", "landmark"])
    def test_restrictions_match_reference(self, backend):
        _, tree, _ = landmark_scene(9)
        routing = RoutingTable(tree.topology, backend=backend)
        unrestricted = RPPlanner(tree, routing).plan_all()
        # Forbid the winner of some class: its class disappears rather
        # than promoting the runner-up.
        banned = next(s.attempts[0].node for s in unrestricted.values() if s.attempts)
        for restrictions in (
            StrategyRestrictions(forbidden_peers=frozenset({banned})),
            StrategyRestrictions(max_list_length=2),
            StrategyRestrictions(max_list_length=0),
            StrategyRestrictions(
                forbid_direct_source=True,
                max_list_length=1,
                forbidden_peers=frozenset(tree.clients[::5]),
            ),
        ):
            planner = RPPlanner(tree, routing, restrictions=restrictions)
            plans = assert_matches_reference(planner)
            assert set(plans) == set(tree.clients)
            for strategy in plans.values():
                assert not set(strategy.peer_nodes) & restrictions.forbidden_peers
                if restrictions.max_list_length is not None:
                    assert len(strategy) <= restrictions.max_list_length

    @pytest.mark.parametrize("backend", ["exact", "landmark"])
    def test_scalar_only_overrides_match_reference(self, backend):
        # Overriding timeout() under FixedTimeout's closed-form
        # timeout_array resets the array form to the element-wise default.
        assert Doubler.timeout_array is TimeoutPolicy.timeout_array
        assert HalfBlend.cost_array is AttemptCostEstimator.cost_array
        rtt = np.array([0.0, 3.5, 10.0])
        assert Doubler(5.0).timeout_array(rtt).tolist() == [5.0, 12.0, 25.0]
        _, tree, _ = landmark_scene(23)
        routing = RoutingTable(tree.topology, backend=backend)
        assert_matches_reference(
            RPPlanner(
                tree, routing, timeout_policy=Doubler(5.0), estimator=HalfBlend()
            )
        )

    def test_unreachable_sink_raises_like_reference(self):
        _, tree, routing = exact_scene(5, num_routers=30)
        restrictions = StrategyRestrictions(
            forbid_direct_source=True, forbidden_peers=frozenset(tree.clients)
        )
        planner = RPPlanner(tree, routing, restrictions=restrictions)
        with pytest.raises(ValueError, match="restrictions removed every"):
            reference_plan(planner, tree.clients[0])
        with pytest.raises(ValueError, match="restrictions removed every"):
            planner.plan_all()
        with pytest.raises(ValueError, match="restrictions removed every"):
            planner.plan(tree.clients[0])
        bounded = RPPlanner(
            tree,
            routing,
            restrictions=StrategyRestrictions(
                forbid_direct_source=True, max_list_length=0
            ),
        )
        with pytest.raises(ValueError, match="max_list_length"):
            bounded.plan_all()
        with pytest.raises(ValueError, match="max_list_length"):
            bounded.plan(tree.clients[0])

    def test_plan_rejects_the_source_and_non_members(self):
        topo, tree, routing = exact_scene(5, num_routers=30)
        planner = RPPlanner(tree, routing)
        with pytest.raises(ValueError, match="source"):
            planner.plan(tree.root)
        with pytest.raises(ValueError, match="not a tree member"):
            planner.plan(topo.num_nodes + 7)


class TestPlanClients:
    """``plan_clients(S)`` is ``{c: plan(c) for c in S}`` in one batch."""

    @pytest.mark.parametrize("backend", ["exact", "landmark"])
    @pytest.mark.parametrize("seed", [3, 29])
    def test_random_subsets_equal_single_plans(self, backend, seed):
        _, tree, _ = landmark_scene(seed)
        routing = RoutingTable(tree.topology, backend=backend)
        rng = np.random.default_rng(seed)
        clients = np.asarray(tree.clients)
        for restrictions, estimator in (
            (None, None),
            (StrategyRestrictions(forbidden_peers=frozenset(clients[::4].tolist())),
             None),
            (StrategyRestrictions(max_list_length=1), Weird()),
            (StrategyRestrictions(
                max_list_length=2,
                forbidden_peers=frozenset(clients[1::3].tolist()),
            ), HalfBlend()),
        ):
            planner = RPPlanner(
                tree, routing, estimator=estimator, restrictions=restrictions
            )
            for size in (1, 2, len(clients) // 3, len(clients)):
                subset = rng.permutation(clients)[:size].tolist()
                batched = planner.plan_clients(subset)
                assert list(batched) == subset
                assert_strategies_equal(
                    batched, {c: planner.plan(c) for c in subset}
                )

    def test_empty_is_empty(self):
        _, tree, routing = exact_scene(5, num_routers=30)
        assert RPPlanner(tree, routing).plan_clients([]) == {}

    def test_rejects_like_plan(self):
        topo, tree, routing = exact_scene(5, num_routers=30)
        planner = RPPlanner(tree, routing)
        some = tree.clients[0]
        with pytest.raises(ValueError, match="source"):
            planner.plan_clients([some, tree.root])
        with pytest.raises(ValueError, match="not a tree member"):
            planner.plan_clients([topo.num_nodes + 7, some])
        with pytest.raises(ValueError, match="distinct"):
            planner.plan_clients([some, tree.clients[1], some])


ESTIMATORS = [
    BlendEstimator(),
    RttOnlyEstimator(),
    TimeoutOnlyEstimator(),
    Weird(),
    HalfBlend(),
]
TIMEOUTS = [
    ProportionalTimeout(),
    ProportionalTimeout(factor=1.0, slack=0.0),
    FixedTimeout(4.0),
    Tripled(),
    Doubler(2.0),
]


@st.composite
def small_group(draw):
    """A hand-built tree over a few routers and clients, plus off-tree
    routers and chords, every link delay a small integer so that
    equal-cost paths (and so bit-equal RTTs) are common."""
    num_tree = draw(st.integers(min_value=2, max_value=12))
    topo = Topology()
    source = topo.add_node(NodeKind.SOURCE)
    parent = {}
    for _ in range(1, num_tree):
        client = draw(st.booleans())
        node = topo.add_node(NodeKind.CLIENT if client else NodeKind.ROUTER)
        parent[node] = draw(st.integers(min_value=0, max_value=node - 1))
        topo.add_link(parent[node], node, draw(st.integers(1, 3)))
    for _ in range(draw(st.integers(0, 3))):
        node = topo.add_node(NodeKind.ROUTER)
        topo.add_link(draw(st.integers(0, node - 1)), node, draw(st.integers(1, 3)))
    for _ in range(draw(st.integers(0, 6))):
        a = draw(st.integers(0, topo.num_nodes - 1))
        b = draw(st.integers(0, topo.num_nodes - 1))
        if a != b and not topo.has_link(a, b):
            topo.add_link(a, b, draw(st.integers(1, 3)))
    tree = MulticastTree(topo, source, parent)
    clients = tree.clients
    forbidden = draw(st.sets(st.sampled_from(clients))) if clients else set()
    restrictions = StrategyRestrictions(
        forbid_direct_source=draw(st.booleans()),
        forbidden_peers=frozenset(forbidden),
        max_list_length=draw(st.none() | st.integers(0, 3)),
    )
    return tree, restrictions


def outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=150, deadline=None)
@given(
    scene=small_group(),
    estimator=st.sampled_from(ESTIMATORS),
    timeout_policy=st.sampled_from(TIMEOUTS),
)
def test_array_planner_equals_scalar_reference(scene, estimator, timeout_policy):
    tree, restrictions = scene
    routing = RoutingTable(tree.topology, backend="exact")
    clients = tree.clients
    if clients:
        pairs = row_candidates(tree, routing, np.asarray(clients))
        for i, c in enumerate(clients):
            mine = pairs.client == i
            assert list(
                zip(pairs.peer[mine].tolist(), pairs.ds[mine].tolist(),
                    pairs.rtt[mine].tolist())
            ) == [(x.node, x.ds, x.rtt) for x in candidate_clients(tree, routing, c)]
    planner = RPPlanner(
        tree,
        routing,
        timeout_policy=timeout_policy,
        estimator=estimator,
        restrictions=restrictions,
    )
    reference = {
        c: outcome(lambda c=c: reference_plan(planner, c)) for c in tree.clients
    }
    failures = {r for r in reference.values() if isinstance(r, str)}
    batched = outcome(planner.plan_all)
    if failures:
        # Every client fails the same way under one restriction set.
        assert failures == {batched}
    else:
        assert_strategies_equal(batched, reference)
    for c in tree.clients:
        got = outcome(lambda c=c: planner.plan(c))
        if isinstance(reference[c], str):
            assert got == reference[c]
        else:
            assert_strategy_equal(got, reference[c])


class Tabled(AttemptCostEstimator):
    """Arbitrary signed costs: one fixed pseudo-random integer in
    [-10, 10] per (salt, rtt, timeout, success) input."""

    def __init__(self, salt):
        self.salt = salt

    def cost(self, rtt, timeout, success_prob):
        return float(hash((self.salt, rtt, timeout, success_prob)) % 21 - 10)


@st.composite
def graph_batch(draw):
    """``M`` strategy graphs with the same candidate count and small
    integer inputs, so equal-cost paths are common."""
    n = draw(st.integers(0, 6))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        ds_u = draw(st.integers(n + 1, n + 4))
        ds = sorted(draw(st.sets(st.integers(0, ds_u - 1), min_size=n, max_size=n)))
        rows.append((
            ds_u,
            ds[::-1],
            draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
            draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
            draw(st.integers(0, 20)),
        ))
    return n, rows


@settings(max_examples=300, deadline=None)
@given(
    batch=graph_batch(),
    salt=st.integers(0, 10_000),
    forbid_direct=st.booleans(),
    limit=st.none() | st.integers(0, 4),
)
def test_lockstep_algorithm1_equals_scalar(batch, salt, forbid_direct, limit):
    # Signed arbitrary costs give negative weights: the regime where the
    # paper's distance(x) >= distance(S) skip changes the answer.
    n, rows = batch
    estimator = Tabled(salt)
    restrictions = StrategyRestrictions(forbid_direct_source=forbid_direct)
    expected = []
    for ds_u, ds, rtt, tmo, src in rows:
        graph = StrategyGraph(
            ds_u,
            [Candidate(node=i, ds=d, rtt=float(r)) for i, (d, r) in enumerate(zip(ds, rtt))],
            float(src),
            [float(t) for t in tmo],
            estimator,
            restrictions,
        )
        expected.append(outcome(
            lambda g=graph: searching_minimal_delay(g) if limit is None
            else searching_minimal_delay_bounded(g, limit)
        ))
    ds_u, src = (np.array([r[i] for r in rows], dtype=float) for i in (0, 4))
    ds, rtt, tmo = (
        np.array([r[i] for r in rows], dtype=float).reshape(len(rows), n)
        for i in (1, 2, 3)
    )
    got = outcome(lambda: _algorithm1(
        estimator, ds_u, ds, rtt, tmo, src, forbid_direct, limit
    ))
    failures = {e for e in expected if isinstance(e, str)}
    if failures:
        assert failures == {got}
        return
    delay, chains = got
    for row, result in enumerate(expected):
        assert delay[row] == result.delay
        assert tuple(i + 1 for i in chains[row]) == result.path
