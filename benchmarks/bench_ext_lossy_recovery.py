"""Extension E1 — what if recovery traffic is lossy too?

The paper's simulator (like its theory, section 3.1) ignores loss of
requests and repairs.  This bench re-runs the Figure 7/8 loss sweep with
recovery traffic subject to the same per-link loss as data — the
realistic mode — and reports where each protocol's behaviour departs
from the paper's flat curves.

Expected picture: RP (pure unicast recovery) keeps its win while the
round trip survives (p ≲ 8% on these ~15-hop paths), then degrades
faster than SRM, whose flooded NACKs/repairs are inherently
loss-redundant.  This is a real robustness limit of prioritized-list
unicast recovery that the paper's evaluation could not expose.
"""

from benchmarks.conftest import bench_packets, bench_seeds, record
from repro.experiments.figures import run_loss_sweep
from repro.experiments.report import render_figure

LOSS_PROBS = (0.02, 0.05, 0.08, 0.12, 0.16, 0.20)


def test_lossy_recovery_sweep():
    sweep = run_loss_sweep(
        loss_probs=LOSS_PROBS,
        num_packets=bench_packets(),
        seeds=bench_seeds(),
        lossless_recovery=False,
    )
    record(render_figure(
        sweep, "latency",
        "Extension E1: latency with LOSSY recovery traffic (n=500)",
        "ms",
    ))
    record(render_figure(
        sweep, "bandwidth",
        "Extension E1: bandwidth with LOSSY recovery traffic (n=500)",
        "hops",
    ))
    series = {s.protocol: s for s in sweep.latency_series()}
    # At the low end RP still wins.
    assert series["RP"].ys[0] < series["SRM"].ys[0]
    # At the high end the unicast chain has degraded much more than at
    # the low end — the robustness limit the paper could not see.
    assert series["RP"].ys[-1] > 2.0 * series["RP"].ys[0]
    for point in sweep.points:
        for runs in point.runs.values():
            assert all(r.fully_recovered for r in runs)
