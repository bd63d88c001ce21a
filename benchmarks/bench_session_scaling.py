"""100k-client scale: plan every client, then run a whole session.

One opt-in arm (``REPRO_BENCH_XL=1``) over a ~230k-router topology with
100k+ clients, on the landmark distance backend that auto-selects at
this size:

* ``RPPlanner.plan_all`` plans every client (timed, then dropped: RP
  plans do not depend on the loss probability, so one scenario serves
  both phases);
* a SOURCE session — stream, loss, recovery, drain — executes end to
  end and every client receives every packet.

The simulation phase must finish inside a wall-clock budget and the
process must stay under an 8 GiB peak RSS.  Everything below that
scale is checked deterministically in tier-1 (see
``tests/test_feature_off_equivalence.py`` and ``tests/core/``) or timed
by the end-to-end harness (``python3 -m benchmarks.e2e``).
"""

import os
import resource
import sys
import time

import pytest

from benchmarks.conftest import record
from repro.core.planner import RPPlanner
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario, run_protocol_detailed
from repro.net.routing import LandmarkDistanceBackend
from repro.protocols.source import SourceProtocolFactory

XL_ROUTERS = 230_000

#: Peak-RSS ceiling for the whole arm.
XL_RSS_BUDGET_BYTES = 8 << 30

#: Wall-clock ceiling for the simulation phase (scenario build and
#: planning are recorded, not bounded).
XL_SIM_WALL_BUDGET_SECONDS = 600.0


def peak_rss_bytes() -> int:
    """Peak resident set size of this process (ru_maxrss is KiB on
    Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_XL") != "1",
    reason="100k-client arm is opt-in: set REPRO_BENCH_XL=1",
)
def test_plan_and_run_100k_client_session_xl():
    config = ScenarioConfig(
        seed=1, num_routers=XL_ROUTERS, loss_prob=0.01, num_packets=4,
        lossless_recovery=True,
    )
    t0 = time.perf_counter()
    built = build_scenario(config)
    build_seconds = time.perf_counter() - t0
    assert isinstance(built.routing.backend, LandmarkDistanceBackend)
    assert built.num_clients >= 100_000

    t0 = time.perf_counter()
    plans = RPPlanner(built.tree, built.routing).plan_all()
    plan_seconds = time.perf_counter() - t0
    assert len(plans) == built.num_clients
    mean_len = sum(len(p) for p in plans.values()) / len(plans)
    del plans

    t0 = time.perf_counter()
    summary = run_protocol_detailed(built, SourceProtocolFactory()).summary
    sim_seconds = time.perf_counter() - t0
    assert summary.fully_recovered
    assert summary.losses_detected > 0  # the run exercised recovery

    peak = peak_rss_bytes()
    record(
        f"== 100k-client scale: {summary.num_clients} clients"
        f" ({XL_ROUTERS} routers, landmark backend) ==\n"
        f"build: {build_seconds:.1f}s   plan_all: {plan_seconds:.1f}s"
        f" (mean list length {mean_len:.2f})\n"
        f"SOURCE session: {sim_seconds:.1f}s"
        f" (budget {XL_SIM_WALL_BUDGET_SECONDS:.0f}s),"
        f" {summary.events_processed} events, losses recovered"
        f" {summary.losses_recovered}/{summary.losses_detected}\n"
        f"peak RSS: {peak / (1 << 30):.2f} GiB"
        f" (budget {XL_RSS_BUDGET_BYTES / (1 << 30):.0f} GiB)"
    )
    assert sim_seconds < XL_SIM_WALL_BUDGET_SECONDS
    assert peak < XL_RSS_BUDGET_BYTES
