"""Ablation A3 — SRM timer constants sensitivity.

SRM's request timer is uniform in ``[C1·d_S, (C1+C2)·d_S]`` and its
repair timer in ``[D1·d_A, (D1+D2)·d_A]``.  The paper's criticism —
"these timers also increase the recovery latency" — implies shrinking
the constants trades suppression (bandwidth) for latency.  This bench
sweeps three settings around the classic (2, 2, 1, 1) defaults to show
that trade-off, i.e. that RP's advantage is not an artifact of one SRM
tuning.
"""

from benchmarks.conftest import bench_packets, record
from repro.experiments.config import ScenarioConfig
from repro.experiments.report import format_table
from repro.experiments.runner import build_scenario, run_protocol
from repro.protocols.srm import SRMConfig, SRMProtocolFactory


class _NamedSRM(SRMProtocolFactory):
    def __init__(self, name: str, config: SRMConfig):
        super().__init__(config)
        self.name = name


SETTINGS = [
    ("aggressive (1,1,0.5,0.5)", SRMConfig(c1=1.0, c2=1.0, d1=0.5, d2=0.5)),
    ("classic (2,2,1,1)", SRMConfig()),
    ("conservative (4,4,2,2)", SRMConfig(c1=4.0, c2=4.0, d1=2.0, d2=2.0)),
]


def run_settings():
    config = ScenarioConfig(
        seed=1, num_routers=300, loss_prob=0.05, num_packets=bench_packets()
    )
    built = build_scenario(config)
    return {
        name: run_protocol(built, _NamedSRM(name, cfg))
        for name, cfg in SETTINGS
    }


def test_ablation_srm_timers():
    results = run_settings()
    rows = [
        [name, f"{s.avg_latency:.2f}", f"{s.bandwidth_per_recovery:.2f}"]
        for name, s in results.items()
    ]
    record(
        "== Ablation A3: SRM timer constants (n=300, p=5%) ==\n"
        + format_table(["setting", "latency (ms)", "bw (hops)"], rows)
    )
    for summary in results.values():
        assert summary.fully_recovered
    # Larger constants wait longer before NACKing: latency grows.
    names = [name for name, _ in SETTINGS]
    assert (
        results[names[0]].avg_latency
        < results[names[2]].avg_latency
    )
