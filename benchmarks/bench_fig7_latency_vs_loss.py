"""Figure 7 — average recovery latency per packet recovered vs per-link
loss probability (2%..20%, 500-router topology).

Paper reference: all three schemes stay roughly flat across the loss
range ("the three schemes can perform as well in unreliable network as
in reliable network"); RP is 78.53% below SRM and 56% below RMA.  This
is the experiment backing the paper's claim that the p² ≈ 0 theory keeps
working at 20% loss.
"""

from benchmarks.conftest import get_loss_sweep, record
from repro.experiments.report import render_figure


def test_figure7_latency_vs_loss():
    sweep = get_loss_sweep()
    record(render_figure(
        sweep, "latency",
        "Figure 7: average recovery latency per packet recovered (n=500)",
        "ms",
    ))
    rp = sweep.overall_mean("RP", "latency")
    srm = sweep.overall_mean("SRM", "latency")
    rma = sweep.overall_mean("RMA", "latency")
    assert rp < srm
    assert rp < rma
    # Roughly flat in p: RP's extreme points stay within a small factor
    # of its sweep mean (the paper's "almost constant").
    rp_series = next(s for s in sweep.latency_series() if s.protocol == "RP")
    assert max(rp_series.ys) < 4.0 * max(min(rp_series.ys), 1e-9)
    for point in sweep.points:
        for runs in point.runs.values():
            assert all(r.fully_recovered for r in runs)
