"""Model validation — does eq. (3) predict simulated RP latency, and how
suboptimal does the reliable-network plan get as p grows?

Two checks beyond the paper's figures:

1. **Analytic vs simulated**: the planner's expected delay (eq. 3) is a
   model of the *request-to-repair* time of a client executing its list.
   At small p the simulated per-client mean should land in the same
   range as the analytic prediction (averaged over clients that lost
   packets).  Exact equality is not expected — the simulation adds
   repair floods from other clients' recoveries, which can only help.

2. **Optimality gap** (exact-model extension): evaluate the
   reliable-network plan under the exact finite-p model and compare with
   the exhaustively optimal chain.  The paper's claim that its strategy
   "performs as well with the per link loss probability up to 20%"
   predicts a small gap across the range.
"""

import pytest

from benchmarks.conftest import bench_packets, record
from repro.core.exact_model import ExactLossModel, exact_best_any_order
from repro.core.planner import RPPlanner
from repro.core.timeouts import ProportionalTimeout
from repro.experiments.config import ScenarioConfig
from repro.experiments.report import format_table
from repro.experiments.runner import build_scenario, run_protocol
from repro.obs.report import predict_model
from repro.protocols.rp import RPProtocolFactory


def test_analytic_vs_simulated_latency():
    config = ScenarioConfig(
        seed=3, num_routers=200, loss_prob=0.02, num_packets=bench_packets()
    )
    built = build_scenario(config)
    planner = RPPlanner(built.tree, built.routing)
    # The same eq.-3 mean `repro obs` prints as its planned E[delay].
    _, predicted = predict_model(planner.plan_all(), planner.estimator)
    summary = run_protocol(built, RPProtocolFactory())
    record(
        "== Model validation: eq. (3) prediction vs simulation "
        "(n=200, p=2%) ==\n"
        f"analytic mean expected delay: {predicted:.2f} ms\n"
        f"simulated mean recovery latency: {summary.avg_latency:.2f} ms\n"
        f"ratio (sim/analytic): {summary.avg_latency / predicted:.2f}"
    )
    assert summary.fully_recovered
    # Same scale: within a factor 3 either way (the model ignores
    # detection offsets, queueing of timers and third-party repairs).
    assert predicted / 3 < summary.avg_latency < predicted * 3


def test_optimality_gap_vs_loss():
    """Exact-model optimality gap of the reliable-network plan."""
    config = ScenarioConfig(seed=5, num_routers=60, loss_prob=0.05)
    built = build_scenario(config)
    planner = RPPlanner(built.tree, built.routing)
    policy = ProportionalTimeout()

    def gaps():
        rows = []
        for p in (0.01, 0.05, 0.10, 0.20):
            ratios = []
            for client in built.clients[:8]:
                plan = planner.plan(client)
                candidates = planner.candidates_for(client)[:6]
                exact_peers = ExactLossModel.peers_from_tree(
                    built.tree, built.routing, client,
                    [c.node for c in candidates], policy,
                )
                model = ExactLossModel(built.tree.depth(client), p)
                by_node = {e.node: e for e in exact_peers}
                planned = [by_node[n] for n in plan.peer_nodes if n in by_node]
                planned_delay = model.expected_delay(
                    planned, plan.source_rtt
                )
                best_delay, _ = exact_best_any_order(
                    built.tree.depth(client), p, exact_peers, plan.source_rtt,
                    max_length=3,
                )
                ratios.append(planned_delay / best_delay if best_delay else 1.0)
            rows.append((p, sum(ratios) / len(ratios), max(ratios)))
        return rows

    rows = gaps()
    record(
        "== Model validation: exact-model optimality gap of the RP plan ==\n"
        + format_table(
            ["p", "mean plan/optimal", "worst plan/optimal"],
            [[f"{p:.2f}", f"{mean:.3f}", f"{worst:.3f}"] for p, mean, worst in rows],
        )
    )
    # The paper's robustness claim: modest degradation across the range.
    for p, mean, worst in rows:
        assert mean < 1.6
