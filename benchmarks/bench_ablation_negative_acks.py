"""Extension E3 — "don't have" replies instead of silent timeouts.

The paper's RP detects a failed attempt purely by timeout.  An obvious
protocol refinement (in the spirit of its own observation that "timeout
is usually a gross overestimation of d(v_j)") is a unicast negative
acknowledgment: the peer that lacks the packet says so, and the
requester advances after one round trip.  The planner then uses the
RTT-only estimator, because a failed attempt no longer costs ``t0``.

This bench measures what the refinement buys (latency) and costs
(request/NACK bandwidth), in both the paper's lossless-recovery mode
and the realistic lossy mode (where silent timeouts are still needed as
the fallback for lost NACKs).
"""

from benchmarks.conftest import bench_packets, record
from repro.experiments.config import ScenarioConfig
from repro.experiments.report import format_table
from repro.experiments.runner import build_scenario, run_protocol
from repro.protocols.rp import RPConfig, RPProtocolFactory


class _NamedRP(RPProtocolFactory):
    def __init__(self, name: str, config: RPConfig):
        super().__init__(config)
        self.name = name


def run_variants():
    rows = []
    for lossless in (True, False):
        config = ScenarioConfig(
            seed=1, num_routers=300, loss_prob=0.05,
            num_packets=bench_packets(), lossless_recovery=lossless,
        )
        built = build_scenario(config)
        for name, cfg in (
            ("RP (timeouts)", RPConfig()),
            ("RP + neg-acks", RPConfig(negative_acks=True)),
        ):
            summary = run_protocol(built, _NamedRP(name, cfg))
            assert summary.fully_recovered
            rows.append([
                name,
                "lossless" if lossless else "lossy",
                f"{summary.avg_latency:.2f}",
                f"{summary.p95_latency:.2f}",
                f"{summary.bandwidth_per_recovery:.2f}",
            ])
    return rows


def test_ablation_negative_acks():
    rows = run_variants()
    record(
        "== Extension E3: negative acknowledgments (n=300, p=5%) ==\n"
        + format_table(
            ["variant", "recovery traffic", "latency (ms)", "p95 (ms)",
             "bw (hops)"],
            rows,
        )
    )
    # In lossless mode a failed attempt now costs an RTT, never more:
    # latency must not regress.
    base = float(rows[0][2])
    nak = float(rows[1][2])
    assert nak <= base * 1.1
