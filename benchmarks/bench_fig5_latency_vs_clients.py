"""Figure 5 — average recovery latency per packet recovered vs number of
clients (backbone 50..600 routers, per-link loss 5%).

Paper reference: RP's average recovery latency is 77.78% shorter than
SRM's and 71.3% shorter than RMA's; RP and SRM stay within a small range
as the client count grows while RMA is noisier.
"""

from benchmarks.conftest import get_client_sweep, record
from repro.experiments.report import improvement_pct, render_figure


def test_figure5_latency_vs_clients():
    sweep = get_client_sweep()
    record(render_figure(
        sweep, "latency",
        "Figure 5: average recovery latency per packet recovered (p=5%)",
        "ms",
    ))
    rp = sweep.overall_mean("RP", "latency")
    srm = sweep.overall_mean("SRM", "latency")
    rma = sweep.overall_mean("RMA", "latency")
    # Shape assertions: RP wins against both baselines (the paper's
    # headline), by a sizable margin against SRM.
    assert rp < srm
    assert rp < rma
    assert improvement_pct(rp, srm) > 20.0
    # Full reliability everywhere.
    for point in sweep.points:
        for runs in point.runs.values():
            assert all(r.fully_recovered for r in runs)
