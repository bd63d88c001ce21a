"""Ablation A2 — how ``d(v_j)`` is estimated (paper section 3.1).

The paper weighs three estimators for the per-attempt cost: pure timeout
("a gross overestimation"), pure routing-table RTT ("underestimates"),
and its recommended blend (eq. 1).  This bench plans and simulates RP
under each estimator on one fixed scenario, showing the blend is the
safe middle ground.
"""

from benchmarks.conftest import bench_packets, record
from repro.core.objective import (
    BlendEstimator,
    RttOnlyEstimator,
    TimeoutOnlyEstimator,
)
from repro.experiments.config import ScenarioConfig
from repro.experiments.report import format_table
from repro.experiments.runner import build_scenario, run_protocol
from repro.protocols.rp import RPConfig, RPProtocolFactory


class _NamedRP(RPProtocolFactory):
    def __init__(self, name: str, config: RPConfig):
        super().__init__(config)
        self.name = name


ESTIMATORS = [
    ("blend (eq. 1)", BlendEstimator()),
    ("rtt-only", RttOnlyEstimator()),
    ("timeout-only", TimeoutOnlyEstimator()),
]


def run_estimators():
    config = ScenarioConfig(
        seed=1, num_routers=300, loss_prob=0.05, num_packets=bench_packets()
    )
    built = build_scenario(config)
    out = {}
    for name, estimator in ESTIMATORS:
        factory = _NamedRP(name, RPConfig(estimator=estimator))
        out[name] = run_protocol(built, factory)
    return out


def test_ablation_estimation():
    results = run_estimators()
    rows = [
        [name, f"{s.avg_latency:.2f}", f"{s.bandwidth_per_recovery:.2f}"]
        for name, s in results.items()
    ]
    record(
        "== Ablation A2: attempt-cost estimator (n=300, p=5%) ==\n"
        + format_table(["estimator", "latency (ms)", "bw (hops)"], rows)
    )
    for summary in results.values():
        assert summary.fully_recovered
