"""Session-scaling benchmark: the array dissemination fast path.

Two arms, both writing ``BENCH_sim_scaling.json``:

* **reference** (always on): the 600-router / 274-client reference
  scenario run twice — scalar (``enable_fast_dissem`` patched to
  refuse) and fast — with
  a bit-identity check (summaries modulo ``events_processed``, ledgers
  exactly) and a **>= 5x event-count reduction** assert.  Wall-clock
  ratio is recorded but not asserted (CI machines are noisy; the event
  count is the deterministic proxy).
* **100k clients** (``REPRO_BENCH_XL=1``): a full session — stream,
  loss, recovery, drain — over a ~230k-router topology with 100k+
  clients actually *executes* end-to-end, under a wall-clock budget for
  the simulation phase and the same 8 GB peak-RSS budget the planner XL
  arm uses.  This is the ROADMAP's "run 100k-client sessions, not just
  plan them".
"""

import dataclasses
import json
import os
import pathlib
import resource
import sys
import time

import pytest

from benchmarks.conftest import record
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario, run_protocol_detailed
from repro.net.routing import LandmarkDistanceBackend
from repro.protocols.source import SourceProtocolFactory
from repro.sim.network import SimNetwork

RESULT_PATH = (
    pathlib.Path(__file__).resolve().parents[1] / "BENCH_sim_scaling.json"
)

#: Minimum event-count reduction the fast path must deliver on the
#: reference scenario (deterministic, machine-independent).
REFERENCE_MIN_EVENT_RATIO = 5.0

#: Peak-RSS ceiling for the 100k-client arm.
XL_RSS_BUDGET_BYTES = 8 << 30

#: Wall-clock ceiling for the XL *simulation* phase (scenario build is
#: recorded separately — it is the planner benches' territory).
XL_SIM_WALL_BUDGET_SECONDS = 600.0


def update_scaling_json(key: str, value: dict) -> None:
    data = json.loads(RESULT_PATH.read_text()) if RESULT_PATH.exists() else {}
    data[key] = value
    RESULT_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def peak_rss_bytes() -> int:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def _timed_run(config, factory):
    built = build_scenario(config)
    t0 = time.perf_counter()
    artifacts = run_protocol_detailed(built, factory)
    return artifacts, time.perf_counter() - t0


def test_reference_session_event_reduction(monkeypatch):
    """Fast path >= 5x fewer events on the 274-client reference run,
    with bit-identical simulated results."""
    # SOURCE recovery is unicast-heavy: every request/repair journey is
    # many scalar hop events but one fast delivery event, which is the
    # dissemination work this PR vectorizes (protocol timers and agent
    # deliveries are irreducible and common to both modes).
    config = ScenarioConfig(
        seed=5, num_routers=600, loss_prob=0.15, num_packets=12,
        lossless_recovery=True,
    )
    factory = SourceProtocolFactory
    with monkeypatch.context() as patch:
        # The scalar reference: the fast path refuses to arm.
        patch.setattr(
            SimNetwork, "enable_fast_dissem", lambda network, stream: False
        )
        scalar, scalar_seconds = _timed_run(config, factory())
    fast, fast_seconds = _timed_run(config, factory())

    assert dataclasses.replace(
        fast.summary, events_processed=scalar.summary.events_processed
    ) == scalar.summary
    assert fast.ledger.hops_by_kind == scalar.ledger.hops_by_kind
    assert fast.ledger.drops_by_kind == scalar.ledger.drops_by_kind

    event_ratio = (
        scalar.summary.events_processed / fast.summary.events_processed
    )
    wall_ratio = scalar_seconds / fast_seconds
    update_scaling_json(
        "reference_274",
        {
            "num_routers": 600,
            "num_clients": fast.summary.num_clients,
            "num_packets": 12,
            "loss_prob": 0.15,
            "protocol": "SOURCE",
            "events_scalar": scalar.summary.events_processed,
            "events_fast": fast.summary.events_processed,
            "event_ratio": event_ratio,
            "min_event_ratio": REFERENCE_MIN_EVENT_RATIO,
            "scalar_seconds": scalar_seconds,
            "fast_seconds": fast_seconds,
            "wall_ratio": wall_ratio,
            "bit_identical": True,
        },
    )
    record(
        f"== Session scaling: reference ({fast.summary.num_clients} clients,"
        f" SOURCE, lossless recovery) ==\n"
        f"events: {scalar.summary.events_processed} scalar ->"
        f" {fast.summary.events_processed} fast ({event_ratio:.1f}x)\n"
        f"wall:   {scalar_seconds:.2f}s scalar -> {fast_seconds:.2f}s fast"
        f" ({wall_ratio:.1f}x)"
    )
    assert event_ratio >= REFERENCE_MIN_EVENT_RATIO, (
        f"fast path only cut events by {event_ratio:.2f}x"
        f" (< {REFERENCE_MIN_EVENT_RATIO}x)"
    )


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_XL") != "1",
    reason="100k-client arm is opt-in: set REPRO_BENCH_XL=1",
)
def test_run_100k_client_session_xl():
    """A 100k-client session *executes* end to end: every client
    receives every packet, recovery included, inside the wall-clock and
    memory budgets."""
    routers = int(os.environ.get("REPRO_BENCH_XL_ROUTERS", "230000"))
    config = ScenarioConfig(
        seed=1, num_routers=routers, loss_prob=0.01, num_packets=4,
        lossless_recovery=True,
    )
    t0 = time.perf_counter()
    built = build_scenario(config)
    build_seconds = time.perf_counter() - t0
    assert isinstance(built.routing.backend, LandmarkDistanceBackend)
    assert built.num_clients >= 100_000

    t0 = time.perf_counter()
    artifacts = run_protocol_detailed(built, SourceProtocolFactory())
    sim_seconds = time.perf_counter() - t0
    summary = artifacts.summary

    assert summary.fully_recovered
    assert summary.losses_detected > 0  # the run exercised recovery
    peak = peak_rss_bytes()
    update_scaling_json(
        "session_xl",
        {
            "num_routers": routers,
            "num_clients": summary.num_clients,
            "num_packets": config.num_packets,
            "loss_prob": config.loss_prob,
            "protocol": "SOURCE",
            "events_processed": summary.events_processed,
            "losses_detected": summary.losses_detected,
            "losses_recovered": summary.losses_recovered,
            "sim_time": summary.sim_time,
            "build_seconds": build_seconds,
            "sim_seconds": sim_seconds,
            "sim_wall_budget_seconds": XL_SIM_WALL_BUDGET_SECONDS,
            "peak_rss_bytes": peak,
            "rss_budget_bytes": XL_RSS_BUDGET_BYTES,
            "within_budget": (
                sim_seconds < XL_SIM_WALL_BUDGET_SECONDS
                and peak < XL_RSS_BUDGET_BYTES
            ),
        },
    )
    record(
        f"== Session scaling XL: {summary.num_clients} clients"
        f" ({routers} routers, SOURCE) ==\n"
        f"build: {build_seconds:.1f}s   sim: {sim_seconds:.1f}s"
        f" (budget {XL_SIM_WALL_BUDGET_SECONDS:.0f}s)\n"
        f"events: {summary.events_processed}   losses recovered:"
        f" {summary.losses_recovered}/{summary.losses_detected}\n"
        f"peak RSS: {peak / (1 << 30):.2f} GB (budget 8 GB)"
    )
    assert sim_seconds < XL_SIM_WALL_BUDGET_SECONDS
    assert peak < XL_RSS_BUDGET_BYTES
