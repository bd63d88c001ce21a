"""Micro-benchmark: Algorithm 1 planner cost versus candidate count.

The paper claims ``O(N²)`` for the strategy-graph shortest path where N
is the number of competitive equivalence classes.  This bench times the
pure DAG pass on synthetic candidate sets of growing N and sanity-checks
the growth stays polynomial (quadratic-ish), plus times a full
``plan_all`` over a realistic 500-router scenario.

Two backend-scaling arms ride along, both writing their results into
``BENCH_core_hotpath.json`` (read-modify-write — the core hot-path bench
owns the other keys):

* **plan quality** (always on): landmark-backend strategies re-evaluated
  under exact distances versus the exact-backend optimum on the
  274-client reference scenario; the mean expected recovery delay must
  stay within 1%.
* **100k clients** (``REPRO_BENCH_XL=1``): full landmark-stage ``plan_all``
  over a ~230k-router topology, tracking wall-clock seconds and peak
  RSS, with an 8 GB memory-budget assert.
"""

import json
import os
import pathlib
import resource
import sys
import time

import pytest

from benchmarks.conftest import record
from repro.core.algorithm import searching_minimal_delay
from repro.core.candidates import Candidate
from repro.core.objective import Attempt, expected_strategy_delay_descending
from repro.core.planner import RPPlanner
from repro.core.strategy_graph import StrategyGraph
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario
from repro.net.routing import LandmarkDistanceBackend, RoutingTable

RESULT_PATH = (
    pathlib.Path(__file__).resolve().parents[1] / "BENCH_core_hotpath.json"
)

#: Peak-RSS ceiling for the 100k-client arm.
XL_RSS_BUDGET_BYTES = 8 << 30

#: Landmark plans may cost at most this much extra mean recovery delay.
QUALITY_TOLERANCE = 0.01


def update_hotpath_json(key: str, value: dict) -> None:
    data = json.loads(RESULT_PATH.read_text()) if RESULT_PATH.exists() else {}
    data[key] = value
    RESULT_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def peak_rss_bytes() -> int:
    """Peak resident set size of this process (ru_maxrss is KiB on
    Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def synthetic_graph(n: int) -> StrategyGraph:
    ds_u = n + 1
    candidates = [
        Candidate(node=100 + i, ds=n - i, rtt=5.0 + (i % 7))
        for i in range(n)
    ]
    return StrategyGraph(
        ds_u=ds_u,
        candidates=candidates,
        source_rtt=300.0,
        timeouts=[20.0] * n,
    )


@pytest.mark.parametrize("n", [8, 32, 128, 512])
def test_algorithm1_scaling(benchmark, n):
    graph = synthetic_graph(n)
    result = benchmark(searching_minimal_delay, graph)
    assert result.delay > 0


def test_plan_all_500_router_scenario(benchmark):
    built = build_scenario(
        ScenarioConfig(seed=1, num_routers=500, loss_prob=0.05)
    )
    planner = RPPlanner(built.tree, built.routing)
    plans = benchmark.pedantic(planner.plan_all, rounds=1, iterations=1)
    assert len(plans) == built.num_clients
    record(
        f"== Planner: plan_all over {built.num_clients} clients "
        f"(500-router backbone) ==\n"
        f"mean list length: "
        f"{sum(len(p) for p in plans.values()) / len(plans):.2f}\n"
        f"max list length:  {max(len(p) for p in plans.values())}"
    )


def test_landmark_plan_quality_vs_exact():
    """Landmark-backend plans, scored under *exact* distances, must stay
    within 1% of the exact-backend optimum (mean expected recovery
    delay, 600-router / 274-client reference scenario)."""
    built = build_scenario(ScenarioConfig(seed=5, num_routers=600, loss_prob=0.05))
    topo, tree = built.topology, built.tree
    exact_routing = RoutingTable(topo, backend="exact")
    landmark_routing = RoutingTable(topo, backend="landmark")

    exact_planner = RPPlanner(tree, exact_routing)
    landmark_planner = RPPlanner(tree, landmark_routing)
    # plan_all on a landmark backend runs the landmark candidate stage.
    assert isinstance(landmark_routing.backend, LandmarkDistanceBackend)
    exact_plans = exact_planner.plan_all()
    landmark_plans = landmark_planner.plan_all()
    policy = exact_planner.timeout_policy

    def exact_score(plan) -> float:
        # Re-evaluate the landmark-chosen chain with true RTTs: the
        # plan's own expected_delay is computed against upper-bound
        # estimates, which would make the comparison unfairly pessimistic
        # *and* inconsistent (different distance models on each side).
        dist = exact_routing.distances_from(plan.client)
        attempts = []
        for cand in plan.attempts:
            rtt = 2.0 * float(dist[cand.node])
            attempts.append(
                Attempt(ds=cand.ds, rtt=rtt, timeout=policy.timeout(rtt))
            )
        return expected_strategy_delay_descending(
            plan.ds_u, attempts, exact_routing.rtt(plan.client, tree.root)
        )

    exact_mean = sum(p.expected_delay for p in exact_plans.values()) / len(
        exact_plans
    )
    landmark_mean = sum(
        exact_score(p) for p in landmark_plans.values()
    ) / len(landmark_plans)
    gap = landmark_mean / exact_mean - 1.0

    update_hotpath_json(
        "plan_quality",
        {
            "num_routers": 600,
            "num_clients": len(exact_plans),
            "num_landmarks": len(landmark_routing.backend.landmarks),
            "near_k": landmark_routing.backend.near_k,
            "exact_mean_delay": exact_mean,
            "landmark_mean_delay_exact_scored": landmark_mean,
            "relative_gap": gap,
            "tolerance": QUALITY_TOLERANCE,
            "within_tolerance": gap <= QUALITY_TOLERANCE,
        },
    )
    record(
        f"== Plan quality: landmark vs exact ({len(exact_plans)} clients) ==\n"
        f"exact mean delay:    {exact_mean:8.3f} ms\n"
        f"landmark mean delay: {landmark_mean:8.3f} ms (exact-scored)\n"
        f"relative gap:        {100 * gap:+.3f}% (tolerance"
        f" {100 * QUALITY_TOLERANCE:.0f}%)"
    )
    assert gap <= QUALITY_TOLERANCE, (
        f"landmark plans cost {100 * gap:.2f}% extra mean delay"
        f" (> {100 * QUALITY_TOLERANCE:.0f}% tolerance)"
    )


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_XL") != "1",
    reason="100k-client arm is opt-in: set REPRO_BENCH_XL=1",
)
def test_plan_all_100k_clients_xl():
    """Batched ``plan_all`` at 100k clients: seconds + peak RSS < 8 GB."""
    routers = int(os.environ.get("REPRO_BENCH_XL_ROUTERS", "230000"))
    t0 = time.perf_counter()
    built = build_scenario(
        ScenarioConfig(seed=1, num_routers=routers, loss_prob=0.05)
    )
    build_seconds = time.perf_counter() - t0
    # auto selection must have picked landmarks at this size, so
    # plan_all runs the landmark candidate stage.
    assert isinstance(built.routing.backend, LandmarkDistanceBackend)

    planner = RPPlanner(built.tree, built.routing)
    t0 = time.perf_counter()
    plans = planner.plan_all()
    plan_seconds = time.perf_counter() - t0

    num_clients = len(plans)
    peak = peak_rss_bytes()
    mean_len = sum(len(p) for p in plans.values()) / num_clients
    update_hotpath_json(
        "planner_xl",
        {
            "num_routers": routers,
            "num_clients": num_clients,
            "num_landmarks": len(built.routing.backend.landmarks),
            "near_k": built.routing.backend.near_k,
            "build_seconds": build_seconds,
            "plan_all_seconds": plan_seconds,
            "mean_list_length": mean_len,
            "peak_rss_bytes": peak,
            "rss_budget_bytes": XL_RSS_BUDGET_BYTES,
            "within_budget": peak < XL_RSS_BUDGET_BYTES,
        },
    )
    record(
        f"== Planner XL: plan_all over {num_clients} clients "
        f"({routers} routers, landmark backend) ==\n"
        f"scenario build: {build_seconds:7.1f} s\n"
        f"plan_all:       {plan_seconds:7.1f} s\n"
        f"mean list length: {mean_len:.2f}\n"
        f"peak RSS: {peak / (1 << 30):.2f} GiB"
        f" (budget {XL_RSS_BUDGET_BYTES / (1 << 30):.0f} GiB)"
    )
    assert num_clients >= 100_000, (
        f"only {num_clients} clients; raise REPRO_BENCH_XL_ROUTERS"
    )
    assert peak < XL_RSS_BUDGET_BYTES, (
        f"peak RSS {peak / (1 << 30):.2f} GiB exceeds 8 GiB budget"
    )
