"""Extension E2 — RP vs the naive strategies the conclusion dismisses.

The paper's conclusion argues that random peer lists waste attempts on
far-away or correlated peers, and nearest-peer lists waste attempts on
peers that almost surely lost the same packet.  Both strawmen run here
on the identical runtime as RP (only the list construction differs), so
the measured gap is purely the planner's contribution.
"""

from benchmarks.conftest import bench_packets, record
from repro.experiments.config import ScenarioConfig
from repro.experiments.report import format_table
from repro.experiments.runner import build_scenario, run_protocol
from repro.protocols.naive import (
    NaiveConfig,
    NearestPeerProtocolFactory,
    RandomListProtocolFactory,
)
from repro.protocols.rp import RPProtocolFactory


def run_strategies():
    config = ScenarioConfig(
        seed=1, num_routers=300, loss_prob=0.05, num_packets=bench_packets(),
        lossless_recovery=True,
    )
    built = build_scenario(config)
    factories = [
        RPProtocolFactory(),
        RandomListProtocolFactory(NaiveConfig(list_length=3)),
        NearestPeerProtocolFactory(NaiveConfig(list_length=3)),
    ]
    return {f.name: run_protocol(built, f) for f in factories}


def test_naive_strategies():
    results = run_strategies()
    rows = [
        [name, f"{s.avg_latency:.2f}", f"{s.bandwidth_per_recovery:.2f}"]
        for name, s in results.items()
    ]
    record(
        "== Extension E2: RP vs naive list constructions (n=300, p=5%) ==\n"
        + format_table(["strategy", "latency (ms)", "bw (hops)"], rows)
    )
    for summary in results.values():
        assert summary.fully_recovered
    # The planner beats both strawmen on latency — the paper's closing
    # claim, isolated to the list construction.
    assert results["RP"].avg_latency < results["RANDOM"].avg_latency
    assert results["RP"].avg_latency < results["NEAREST"].avg_latency
