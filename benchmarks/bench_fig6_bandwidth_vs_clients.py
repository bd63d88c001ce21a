"""Figure 6 — average bandwidth usage (hops) per packet recovered vs
number of clients (backbone 50..600 routers, per-link loss 5%).

Paper reference: RP does not sacrifice bandwidth for its latency win —
its average bandwidth usage is 38.53% smaller than SRM's and 23.2%
smaller than RMA's.
"""

from benchmarks.conftest import get_client_sweep, record
from repro.experiments.report import render_figure


def test_figure6_bandwidth_vs_clients():
    sweep = get_client_sweep()
    record(render_figure(
        sweep, "bandwidth",
        "Figure 6: average bandwidth usage per packet recovered (p=5%)",
        "hops",
    ))
    rp = sweep.overall_mean("RP", "bandwidth")
    srm = sweep.overall_mean("SRM", "bandwidth")
    rma = sweep.overall_mean("RMA", "bandwidth")
    # Shape: RP cheapest, SRM (global floods) most expensive.
    assert rp < rma < srm
