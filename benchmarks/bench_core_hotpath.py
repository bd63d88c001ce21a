"""Single-run hot path: O(1) LCA planning, plan caching, loop slimming.

Measures the three layers of the fast path against their reference
implementations and writes its four keys (``planner``, ``lca``,
``plan_cache``, ``event_loop``) into ``BENCH_core_hotpath.json`` at the
repo root, leaving the keys other benches write there as they are:

* **Planner speedup** — ``RPPlanner.plan_all`` on a tree with ≥ 200
  clients, fast (the array planner) vs naive (the pointer-walk
  ``naive_*`` candidates the pre-change code used, then the per-client
  strategy graph and Algorithm 1), same routing table, same outputs
  (asserted).  Target: ≥ 2×.
* **LCA query throughput** — random-pair ``first_common_router`` calls
  per second, fast vs naive.
* **Plan-cache hit rate** — an RP loss-probability sweep over one
  topology: planning depends on everything *but* ``p``, so 10 points
  cost 1 miss + 9 hits (≥ 90%).  That cached sweeps save the same JSON
  as uncached ones is a tier-1 test
  (``tests/experiments/test_campaign.py``).
* **Event-loop compaction** — heap size after 50k cancel/re-arm cycles.

Whole-session timings live in the end-to-end benchmark
(``python3 -m benchmarks.e2e``).

Scale knobs (environment variables): ``REPRO_BENCH_ROUTERS`` (default
600 — big enough that the spanning tree's leaves exceed 200 clients),
``REPRO_BENCH_LCA_QUERIES`` (default 200_000).
"""

import json
import os
import pathlib
import time

import numpy as np

from benchmarks.conftest import record
from repro.core import plan_cache
from repro.core.algorithm import searching_minimal_delay
from repro.core.planner import RecoveryStrategy, RPPlanner
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario, run_protocol
from repro.net.mcast_tree import MulticastTree
from repro.protocols.rp import RPProtocolFactory
from repro.sim.engine import EventQueue

RESULT_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_core_hotpath.json"

TARGET_PLANNER_SPEEDUP = 2.0
TARGET_HIT_RATE = 0.9

LOSS_PROBS = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16, 0.20)


def _routers() -> int:
    return int(os.environ.get("REPRO_BENCH_ROUTERS", "600"))


def _lca_queries() -> int:
    return int(os.environ.get("REPRO_BENCH_LCA_QUERIES", "200000"))


class NaiveTreeView(MulticastTree):
    """A tree answering queries the way the pre-change code did: pointer
    walks for ancestor queries, and ``clients`` recomputed per access."""

    def first_common_router(self, u: int, v: int) -> int:
        return self.naive_first_common_router(u, v)

    def is_ancestor(self, ancestor: int, node: int) -> bool:
        return self.naive_is_ancestor(ancestor, node)

    @property
    def clients(self) -> list[int]:
        from repro.net.topology import NodeKind

        topo = self.topology
        return sorted(
            n for n in self._children if topo.kind(n) is NodeKind.CLIENT
        )


def _baseline_candidate_clients(tree, routing, client):
    """The pre-change candidate builder, verbatim (git history): one
    pointer-walk LCA per (client, peer) pair, ``tree.clients`` rebuilt
    per call, ``routing.rtt`` re-evaluated through the call chain."""
    from repro.core.candidates import Candidate

    ds_u = tree.depth(client)
    classes: dict[int, list[int]] = {}
    for peer in tree.clients:
        if peer == client or peer == tree.root:
            continue
        ancestor = tree.first_common_router(client, peer)
        if tree.depth(ancestor) >= ds_u:
            continue
        classes.setdefault(ancestor, []).append(peer)
    for members in classes.values():
        members.sort()
    candidates = []
    for ancestor, members in classes.items():
        ds = tree.depth(ancestor)
        best = min(members, key=lambda peer: (routing.rtt(client, peer), peer))
        candidates.append(
            Candidate(node=best, ds=ds, rtt=routing.rtt(client, best))
        )
    candidates.sort(key=lambda c: (-c.ds, c.node))
    return candidates


class BaselinePlanner(RPPlanner):
    """RPPlanner wired to the pre-change per-client pipeline."""

    def candidates_for(self, client: int):
        return _baseline_candidate_clients(self._tree, self._routing, client)

    def plan_all(self):
        plans = {}
        policy = self.timeout_policy
        for client in self.tree.clients:
            graph = self.strategy_graph_for(client)
            result = searching_minimal_delay(graph)
            chain = tuple(graph.candidate_at(i) for i in result.path)
            plans[client] = RecoveryStrategy(
                client=client,
                attempts=chain,
                timeouts=tuple(policy.timeout(c.rtt) for c in chain),
                source_rtt=graph.source_rtt,
                source_timeout=policy.timeout(graph.source_rtt),
                expected_delay=result.delay,
                ds_u=graph.ds_u,
            )
        return plans


def test_core_hotpath():
    routers = _routers()

    # -- planner: fast vs naive on one big tree --------------------------
    built = build_scenario(
        ScenarioConfig(seed=5, num_routers=routers, loss_prob=0.05)
    )
    tree, routing = built.tree, built.routing
    num_clients = len(tree.clients)
    parent = {n: tree.parent(n) for n in tree.members if n != tree.root}
    naive_tree = NaiveTreeView(tree.topology, tree.root, parent)

    fast_planner = RPPlanner(tree, routing)
    naive_planner = BaselinePlanner(naive_tree, routing)

    fast_plans = fast_planner.plan_all()  # warmup: fills routing caches

    t0 = time.perf_counter()
    naive_plans = naive_planner.plan_all()
    naive_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast_plans = fast_planner.plan_all()
    fast_seconds = time.perf_counter() - t0

    assert fast_plans == naive_plans, "fast planner diverged from naive"
    planner_speedup = naive_seconds / fast_seconds

    # -- LCA query throughput -------------------------------------------
    queries = _lca_queries()
    rng = np.random.default_rng(0)
    members = np.array(tree.members)
    pairs = [
        (int(u), int(v))
        for u, v in zip(
            members[rng.integers(0, len(members), queries)],
            members[rng.integers(0, len(members), queries)],
        )
    ]
    fast_lca = tree.first_common_router
    t0 = time.perf_counter()
    for u, v in pairs:
        fast_lca(u, v)
    fast_lca_seconds = time.perf_counter() - t0

    naive_sample = pairs[: max(1, queries // 20)]  # naive is ~50x slower
    naive_lca = tree.naive_first_common_router
    t0 = time.perf_counter()
    for u, v in naive_sample:
        naive_lca(u, v)
    naive_lca_seconds = time.perf_counter() - t0

    fast_lca_qps = queries / fast_lca_seconds
    naive_lca_qps = len(naive_sample) / naive_lca_seconds

    # -- plan-cache hit rate across a loss sweep ------------------------
    plan_cache.clear()
    sweep_routers = 60
    for p in LOSS_PROBS:
        run_protocol(
            build_scenario(
                ScenarioConfig(
                    seed=9, num_routers=sweep_routers, loss_prob=p,
                    num_packets=5,
                )
            ),
            RPProtocolFactory(),
        )
    cache_stats = plan_cache.GLOBAL_PLAN_CACHE.stats()

    # -- event-loop compaction under synthetic churn --------------------
    q = EventQueue()
    timer = q.schedule(1.0, lambda: None)
    for i in range(50_000):
        timer.cancel()
        timer = q.schedule(float(i + 2), lambda: None)
    heap_after_churn = len(q._heap)

    payload = {
        "planner": {
            "num_routers": routers,
            "num_clients": num_clients,
            "naive_seconds": naive_seconds,
            "fast_seconds": fast_seconds,
            "speedup": planner_speedup,
            "target_speedup": TARGET_PLANNER_SPEEDUP,
            "within_target": planner_speedup >= TARGET_PLANNER_SPEEDUP,
            "plans_identical": True,
        },
        "lca": {
            "queries": queries,
            "fast_qps": fast_lca_qps,
            "naive_qps": naive_lca_qps,
            "speedup": fast_lca_qps / naive_lca_qps,
        },
        "plan_cache": {
            "loss_probs": list(LOSS_PROBS),
            "num_routers": sweep_routers,
            **cache_stats,
            "target_hit_rate": TARGET_HIT_RATE,
            "within_target": cache_stats["hit_rate"] >= TARGET_HIT_RATE,
        },
        "event_loop": {
            "churn_cycles": 50_000,
            "heap_after_churn": heap_after_churn,
            "compactions": q.compactions,
        },
    }
    data = json.loads(RESULT_PATH.read_text()) if RESULT_PATH.exists() else {}
    data.update(payload)
    RESULT_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")

    record(
        f"== Core hot path ({routers} routers, {num_clients} clients) ==\n"
        f"planner    naive {naive_seconds:7.2f} s   fast {fast_seconds:7.2f} s"
        f"   speedup {planner_speedup:6.1f}x (target {TARGET_PLANNER_SPEEDUP}x)\n"
        f"LCA        naive {naive_lca_qps:9.0f} q/s  fast {fast_lca_qps:9.0f} q/s"
        f"   speedup {fast_lca_qps / naive_lca_qps:6.1f}x\n"
        f"plan cache {cache_stats['hits']}/{cache_stats['hits'] + cache_stats['misses']}"
        f" hits ({100 * cache_stats['hit_rate']:.0f}%, target"
        f" {100 * TARGET_HIT_RATE:.0f}%)\n"
        f"event loop heap after 50k cancel/rearm: {heap_after_churn}"
        f" ({q.compactions} compactions)\n"
        f"written to {RESULT_PATH.name}"
    )

    assert num_clients >= 200, (
        f"bench tree has only {num_clients} clients; raise REPRO_BENCH_ROUTERS"
    )
    assert planner_speedup >= TARGET_PLANNER_SPEEDUP, (
        f"planner speedup {planner_speedup:.2f}x below"
        f" {TARGET_PLANNER_SPEEDUP}x target"
    )
    assert cache_stats["hit_rate"] >= TARGET_HIT_RATE, (
        f"plan-cache hit rate {cache_stats['hit_rate']:.0%} below target"
    )
    assert heap_after_churn < 200, "heap grew unboundedly under cancel/rearm"
