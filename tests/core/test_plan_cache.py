"""Plan cache: fingerprint sensitivity, counters, LRU, and the
end-to-end guarantee that a cached run is indistinguishable from an
uncached one (plans, latencies, telemetry)."""

import math

import numpy as np
import pytest

from repro.core import plan_cache, planner_batch
from repro.core.objective import RttOnlyEstimator
from repro.core.plan_cache import PlanCache, scenario_fingerprint
from repro.core.planner import RPPlanner
from repro.core.strategy_graph import StrategyRestrictions
from repro.core.timeouts import FixedTimeout, ProportionalTimeout
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario, run_protocol_detailed
from repro.net.generators import TopologyConfig, random_backbone
from repro.net.mcast_tree import MulticastTree, random_multicast_tree
from repro.net.routing import RoutingTable
from repro.net.topology import Topology
from repro.obs.instrumentation import Instrumentation
from repro.protocols.rp import RPProtocolFactory


@pytest.fixture(autouse=True)
def isolated_global_cache():
    """Each test starts (and leaves) the process-global cache empty."""
    plan_cache.clear()
    yield
    plan_cache.clear()


def uncached(monkeypatch):
    """Route the RP factory's planning around the global cache (the
    uncached reference is ``plan_all`` itself)."""
    monkeypatch.setattr(
        plan_cache, "plans_for", lambda planner: planner.plan_all()
    )


def make_planner(seed=7, routers=12, loss_prob=0.0, **kwargs):
    topo = random_backbone(
        TopologyConfig(num_routers=routers, loss_prob=loss_prob),
        np.random.default_rng(seed),
    )
    tree = random_multicast_tree(topo, np.random.default_rng(seed + 10_000))
    return RPPlanner(tree, RoutingTable(topo), **kwargs)


class TestFingerprint:
    def test_same_seed_same_fingerprint(self):
        a = make_planner(seed=3)
        b = make_planner(seed=3)
        assert scenario_fingerprint(a.tree) == scenario_fingerprint(b.tree)

    def test_different_seed_different_fingerprint(self):
        a = make_planner(seed=3)
        b = make_planner(seed=4)
        assert scenario_fingerprint(a.tree) != scenario_fingerprint(b.tree)

    def test_loss_prob_does_not_change_fingerprint(self):
        # The whole point: a loss sweep shares one planning problem.
        a = make_planner(seed=3, loss_prob=0.0)
        b = make_planner(seed=3, loss_prob=0.15)
        assert scenario_fingerprint(a.tree) == scenario_fingerprint(b.tree)

    def test_one_ulp_of_one_link_delay_changes_fingerprint(self):
        tree = make_planner(seed=3).tree
        topo = tree.topology
        parents = {n: tree.parent(n) for n in tree.members if n != tree.root}

        def rebuilt(nudge):
            copy = Topology()
            for node in range(topo.num_nodes):
                copy.add_node(topo.kind(node))
            for i, link in enumerate(topo.links):
                delay = link.delay
                if i == nudge:
                    delay = math.nextafter(delay, math.inf)
                copy.add_link(link.u, link.v, delay, link.loss_prob)
            return MulticastTree(copy, tree.root, parents)

        fp = scenario_fingerprint(tree)
        assert scenario_fingerprint(rebuilt(None)) == fp
        assert scenario_fingerprint(rebuilt(len(topo.links) // 2)) != fp

    def test_fingerprint_memoized_on_tree(self):
        planner = make_planner()
        fp = scenario_fingerprint(planner.tree)
        assert scenario_fingerprint(planner.tree) is fp


class TestCacheKeys:
    def test_policy_value_equality_hits(self):
        cache = PlanCache()
        a = make_planner(timeout_policy=ProportionalTimeout())
        b = make_planner(timeout_policy=ProportionalTimeout())
        cache.plans_for(a)
        cache.plans_for(b)
        assert cache.stats()["hits"] == 1

    def test_different_policy_values_miss(self):
        cache = PlanCache()
        cache.plans_for(make_planner(timeout_policy=FixedTimeout(5.0)))
        cache.plans_for(make_planner(timeout_policy=FixedTimeout(9.0)))
        assert cache.stats() == {
            "hits": 0, "misses": 2, "entries": 2, "hit_rate": 0.0,
        }

    def test_estimator_and_restrictions_key(self):
        cache = PlanCache()
        cache.plans_for(make_planner())
        cache.plans_for(make_planner(estimator=RttOnlyEstimator()))
        cache.plans_for(
            make_planner(restrictions=StrategyRestrictions(max_list_length=1))
        )
        assert cache.misses == 3 and cache.hits == 0

    def test_unknown_policy_subclass_never_false_hits(self):
        class WeirdTimeout(FixedTimeout):
            pass

        cache = PlanCache()
        cache.plans_for(make_planner(timeout_policy=WeirdTimeout(5.0)))
        cache.plans_for(make_planner(timeout_policy=WeirdTimeout(5.0)))
        # Identity-keyed: two instances may not share an entry.
        assert cache.hits == 0 and cache.misses == 2

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        p1, p2, p3 = (make_planner(seed=s) for s in (1, 2, 3))
        cache.plans_for(p1)
        cache.plans_for(p2)
        cache.plans_for(p3)  # evicts p1
        assert len(cache) == 2
        cache.plans_for(p1)
        assert cache.misses == 4 and cache.hits == 0


class TestPlansFor:
    def test_hit_returns_equal_plans_in_fresh_dict(self):
        cache = PlanCache()
        planner = make_planner()
        first = cache.plans_for(planner)
        second = cache.plans_for(planner)
        assert first == second == planner.plan_all()
        assert first is not second  # callers may mutate their mapping

    def test_metrics_counters(self):
        # The cache is the one owner of its hit and miss counts.
        cache = PlanCache()
        planner = make_planner()
        cache.plans_for(planner)
        cache.plans_for(planner)
        cache.plans_for(planner)
        assert cache.misses == 1
        assert cache.hits == 2

    def test_clear_resets(self):
        cache = PlanCache()
        cache.plans_for(make_planner())
        cache.clear()
        assert len(cache) == 0 and cache.stats()["misses"] == 0


class TestEndToEndEquivalence:
    """A cached run must reproduce an uncached one bit for bit."""

    CONFIG = ScenarioConfig(
        seed=11, num_routers=14, loss_prob=0.1, num_packets=8,
        drain_time=50.0,
    )

    def _run(self):
        built = build_scenario(self.CONFIG)
        instr = Instrumentation.recording(profile=False)
        artifacts = run_protocol_detailed(built, RPProtocolFactory(), instr)
        events = instr.bus.sinks[0].events()
        return artifacts, [e.to_dict() for e in events]

    def test_cache_on_vs_off_identical(self, monkeypatch):
        with monkeypatch.context() as m:
            uncached(m)
            cold_art, cold_events = self._run()
        assert plan_cache.GLOBAL_PLAN_CACHE.stats()["entries"] == 0
        miss_art, miss_events = self._run()  # populates the cache
        hit_art, hit_events = self._run()  # replans from the cache
        assert plan_cache.GLOBAL_PLAN_CACHE.hits >= 1
        assert cold_art.summary == miss_art.summary == hit_art.summary
        assert cold_events == miss_events == hit_events

    def test_factory_strategies_identical_across_cache_paths(self, monkeypatch):
        built = build_scenario(self.CONFIG)
        factory = RPProtocolFactory()
        with monkeypatch.context() as m:
            uncached(m)
            run_protocol_detailed(built, factory)
        reference = factory.last_strategies
        run_protocol_detailed(built, factory)
        run_protocol_detailed(built, factory)
        assert factory.last_strategies == reference
        assert list(factory.last_strategies) == list(reference)

    def test_loss_sweep_hits_cache_per_topology(self):
        # Same seed, different loss probs: one planning miss, then hits.
        for loss in (0.0, 0.05, 0.1, 0.15):
            config = ScenarioConfig(
                seed=21, num_routers=12, loss_prob=loss, num_packets=5,
                drain_time=50.0,
            )
            run_protocol_detailed(build_scenario(config), RPProtocolFactory())
        assert plan_cache.GLOBAL_PLAN_CACHE.misses == 1
        assert plan_cache.GLOBAL_PLAN_CACHE.hits == 3


def scene(backend, seed=5, routers=60):
    topo = random_backbone(
        TopologyConfig(num_routers=routers), np.random.default_rng(seed)
    )
    tree = random_multicast_tree(topo, np.random.default_rng(seed + 1))
    return tree, RoutingTable(topo, backend=backend)


def restricted(tree, routing, forbidden=(), **kwargs):
    # A short fixed timeout makes long lists, so every restriction binds.
    return RPPlanner(
        tree, routing, timeout_policy=FixedTimeout(1.0),
        restrictions=StrategyRestrictions(
            forbidden_peers=frozenset(forbidden), **kwargs
        ),
    )


def forbiddable_peers(tree, routing, count, **knobs):
    """``count`` peers that some client tries first, all of which may be
    forbidden at once without leaving a client no strategy."""
    plans = restricted(tree, routing).plan_all()
    picked: list[int] = []
    for peer in dict.fromkeys(s.attempts[0].node for s in plans.values()
                              if s.attempts):
        try:
            restricted(tree, routing, picked + [peer], **knobs).plan_all()
        except ValueError:
            continue
        picked.append(peer)
        if len(picked) == count:
            return picked
    raise AssertionError("scene has too few forbiddable peers")


class TestDerivedPlans:
    """A plan derived from a held plan of the same family (the problem
    up to ``forbidden_peers``) equals ``plan_all()`` from scratch,
    strategy for strategy and in ``tree.clients`` order."""

    @pytest.fixture
    def solved(self, monkeypatch):
        """Client counts of every Algorithm-1 solve, in call order."""
        counts = []
        solve = planner_batch._solve

        def spy(planner, clients, pairs):
            counts.append(len(clients))
            return solve(planner, clients, pairs)

        monkeypatch.setattr(planner_batch, "_solve", spy)
        return counts

    @pytest.mark.parametrize("backend", ["exact", "landmark"])
    @pytest.mark.parametrize("knobs", [
        {},
        {"forbid_direct_source": True},
        {"max_list_length": 2},
    ], ids=["plain", "forbid-direct", "max-len-2"])
    def test_forbidden_sequence_matches_scratch(self, backend, knobs, solved):
        tree, routing = scene(backend)
        a, b, c, d, e = forbiddable_peers(tree, routing, 5, **knobs)
        sequence = [
            (),
            (a,),  # grows by one
            (a, b, c, d, e),  # grows by several
            (a, c),  # shrinks
            (b, d),  # swaps
            (),  # returns to empty
        ]
        # One entry: every step misses and derives from the step before.
        cache = PlanCache(capacity=1)
        previous = None
        moved = 0
        solved.clear()
        for forbidden in sequence:
            derived = cache.plans_for(restricted(tree, routing, forbidden, **knobs))
            scratch = restricted(tree, routing, forbidden, **knobs).plan_all()
            assert derived == scratch
            assert list(derived) == list(scratch) == list(tree.clients)
            moved += previous is not None and derived != previous
            previous = derived
        assert cache.misses == len(sequence) and cache.hits == 0
        assert moved == len(sequence) - 1  # every step changed some plan
        # Each step solves through the cache, then from scratch.
        assert solved[1::2] == [len(tree.clients)] * len(sequence)
        assert all(0 < n < len(tree.clients) for n in solved[2::2])

    @pytest.mark.parametrize("backend", ["exact", "landmark"])
    def test_families_never_share_held_plans(self, backend):
        # Planners differing in a restriction other than forbidden_peers
        # are different families, even planned through one cache.
        tree, routing = scene(backend)
        peers = forbiddable_peers(
            tree, routing, 6, forbid_direct_source=True, max_list_length=2
        )
        unbounded = restricted(tree, routing).plan_all()
        assert max(map(len, unbounded.values())) > 2
        cache = PlanCache(capacity=1)
        for step, knobs in enumerate([
            {},
            {"max_list_length": 2},
            {"forbid_direct_source": True},
            {"max_list_length": 2, "forbid_direct_source": True},
            {},
        ]):
            forbidden = peers[step : step + 2]
            got = cache.plans_for(restricted(tree, routing, forbidden, **knobs))
            assert got == restricted(tree, routing, forbidden, **knobs).plan_all()

    def test_unrelated_forbidden_peer_resolves_no_client(self, solved):
        tree, routing = scene("exact")
        cache = PlanCache(capacity=1)
        held = cache.plans_for(restricted(tree, routing))
        # The source is no client's candidate; the others are no node.
        assert tree.root not in tree.clients
        unrelated = (tree.root, -1, tree.topology.num_nodes)
        derived = cache.plans_for(restricted(tree, routing, unrelated))
        assert derived == held and cache.misses == 2
        assert solved == [len(tree.clients)]

    @pytest.mark.parametrize("backend", ["exact", "landmark"])
    @pytest.mark.parametrize("limit", [None, 2])
    def test_unreachable_sink_raises_like_full_solve(self, backend, limit):
        tree, routing = scene(backend)
        knobs = {"forbid_direct_source": True, "max_list_length": limit}
        cache = PlanCache(capacity=1)
        cache.plans_for(restricted(tree, routing, **knobs))
        everyone = tree.clients
        with pytest.raises(ValueError) as full:
            restricted(tree, routing, everyone, **knobs).plan_all()
        with pytest.raises(ValueError) as derived:
            cache.plans_for(restricted(tree, routing, everyone, **knobs))
        assert str(derived.value) == str(full.value)
        # The failed derivation left the held plan usable.
        forbidden = forbiddable_peers(tree, routing, 2, **knobs)
        assert cache.plans_for(
            restricted(tree, routing, forbidden, **knobs)
        ) == restricted(tree, routing, forbidden, **knobs).plan_all()
