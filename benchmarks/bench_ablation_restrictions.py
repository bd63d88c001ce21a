"""Ablation A1 — strategy-graph restrictions (paper section 4).

The paper notes the strategy graph "may be modified to represent
restricted strategies ... if we do not want any client to go to source
directly, we remove the (u → S) edge.  Such a strategy will alleviate
congestion at source."  This bench quantifies what the restrictions cost
and buy on one fixed 300-router scenario:

* ``forbid-direct-source`` — how much latency the source sheds vs gains;
* ``max-list-1`` — the value of multi-peer lists;
* ``unicast-source-repair`` — the subgroup-multicast fallback's
  contribution (RPConfig.source_multicast=False).
"""

from benchmarks.conftest import bench_packets, record
from repro.core.strategy_graph import StrategyRestrictions
from repro.experiments.config import ScenarioConfig
from repro.experiments.report import format_table
from repro.experiments.runner import build_scenario, run_protocol
from repro.protocols.rp import RPConfig, RPProtocolFactory


class _NamedRP(RPProtocolFactory):
    def __init__(self, name: str, config: RPConfig):
        super().__init__(config)
        self.name = name


VARIANTS = [
    ("RP", RPConfig()),
    (
        "RP-no-direct-src",
        RPConfig(restrictions=StrategyRestrictions(forbid_direct_source=True)),
    ),
    (
        "RP-maxlist-1",
        RPConfig(restrictions=StrategyRestrictions(max_list_length=1)),
    ),
    ("RP-unicast-src", RPConfig(source_multicast=False)),
]


def run_variants():
    config = ScenarioConfig(
        seed=1, num_routers=300, loss_prob=0.05, num_packets=bench_packets()
    )
    built = build_scenario(config)
    return {
        name: run_protocol(built, _NamedRP(name, cfg)) for name, cfg in VARIANTS
    }


def test_ablation_restrictions():
    results = run_variants()
    rows = [
        [name, f"{s.avg_latency:.2f}", f"{s.bandwidth_per_recovery:.2f}",
         str(s.losses_recovered)]
        for name, s in results.items()
    ]
    record(
        "== Ablation A1: RP restrictions (n=300, p=5%) ==\n"
        + format_table(["variant", "latency (ms)", "bw (hops)", "recovered"], rows)
    )
    for summary in results.values():
        assert summary.fully_recovered
    # Restricting the planner can only keep or worsen expected latency.
    assert results["RP"].avg_latency <= results["RP-maxlist-1"].avg_latency * 1.5
