"""Figure 8 — average bandwidth usage (hops) per packet recovered vs
per-link loss probability (2%..20%, 500-router topology).

Paper reference: SRM's per-recovery bandwidth *decreases* with p (its
flood cost is fixed per lost packet, so more requesters amortize it)
while RMA's and RP's *increase* (their retransmission cost grows with
the number of requesters); RP stays cheapest overall.
"""

from benchmarks.conftest import get_loss_sweep, record
from repro.experiments.report import render_figure


def _slope(xs, ys):
    """Least-squares slope — sign is what the paper's trend claims."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def test_figure8_bandwidth_vs_loss():
    sweep = get_loss_sweep()
    record(render_figure(
        sweep, "bandwidth",
        "Figure 8: average bandwidth usage per packet recovered (n=500)",
        "hops",
    ))
    rp = sweep.overall_mean("RP", "bandwidth")
    srm = sweep.overall_mean("SRM", "bandwidth")
    rma = sweep.overall_mean("RMA", "bandwidth")
    assert rp < srm and rp < rma
    # Trend shapes: SRM amortizes (negative slope), RP/RMA grow or stay
    # flat relative to SRM's decline.
    series = {s.protocol: s for s in sweep.bandwidth_series()}
    srm_slope = _slope(series["SRM"].xs, series["SRM"].ys)
    rp_slope = _slope(series["RP"].xs, series["RP"].ys)
    assert srm_slope < 0
    assert rp_slope > srm_slope
