"""Ablation A4 — source-subgroup granularity (paper section 2.2 / [4]).

"The recovery load on S may be reduced by grouping clients in a net
neighborhood together" — but how big should a neighborhood be?  This
bench forces all recovery through the source (every peer forbidden) so
the subgrouping choice is the *only* variable, and sweeps granularity
from one-group-per-source-child down to 8-client subtrees.

Coarse groups repair many co-losers with one multicast (good after a
near-root loss) but flood the whole session for an isolated deep loss;
fine groups do the opposite.  The per-recovery bandwidth/latency trade
below is the quantitative version of that sentence.
"""

from benchmarks.conftest import bench_packets, record
from repro.core.strategy_graph import StrategyRestrictions
from repro.core.subgroups import DepthSubgrouping, SizeCappedSubgrouping
from repro.experiments.config import ScenarioConfig
from repro.experiments.report import format_table
from repro.experiments.runner import build_scenario, run_protocol
from repro.protocols.rp import RPConfig, RPProtocolFactory


class _NamedRP(RPProtocolFactory):
    def __init__(self, name: str, config: RPConfig):
        super().__init__(config)
        self.name = name


def run_granularities():
    config = ScenarioConfig(
        seed=1, num_routers=300, loss_prob=0.05,
        num_packets=bench_packets(), lossless_recovery=True,
    )
    built = build_scenario(config)
    source_only = StrategyRestrictions(
        forbidden_peers=frozenset(built.tree.clients)
    )
    variants = [
        ("top-level", None),
        ("depth-2", lambda tree: DepthSubgrouping(tree, 2)),
        ("depth-4", lambda tree: DepthSubgrouping(tree, 4)),
        ("cap-8", lambda tree: SizeCappedSubgrouping(tree, 8)),
    ]
    rows = []
    for name, subgrouping in variants:
        factory = _NamedRP(name, RPConfig(
            restrictions=source_only, subgrouping=subgrouping,
        ))
        summary = run_protocol(built, factory)
        assert summary.fully_recovered
        rows.append([
            name,
            f"{summary.avg_latency:.2f}",
            f"{summary.bandwidth_per_recovery:.2f}",
        ])
    return rows


def test_ablation_subgrouping():
    rows = run_granularities()
    record(
        "== Ablation A4: source-subgroup granularity "
        "(source-only recovery, n=300, p=5%) ==\n"
        + format_table(["subgrouping", "latency (ms)", "bw (hops)"], rows)
    )
    by_name = {row[0]: float(row[2]) for row in rows}
    # Finer subgroups must not be more expensive per recovery than the
    # coarsest one (isolated deep losses dominate the count).
    assert by_name["cap-8"] <= by_name["top-level"] * 1.05
