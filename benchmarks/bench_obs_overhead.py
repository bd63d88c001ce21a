"""Instrumentation overhead: what does wiring telemetry in cost?

Six arms run the identical seeded RP session:

* **uninstrumented** — the process-wide ``NULL_INSTRUMENTATION``
  default (what every normal run pays);
* **noop sink** — a fresh
  ``Instrumentation(profiler=Profiler(enabled=False))``, the same
  shape as the default: an event bus without sinks
  (``EventBus.active`` is False, so no records are built and nothing
  is counted), profiler off.  This is the cost of merely having the
  layer present;
* **recording** — ``Instrumentation.recording()``: ring buffer plus
  profiler, everything ``repro obs`` needs — tracing *off*, so this is
  also the "tracing disabled" reference for the tracing arms;
* **tracing** — ``recording(trace=True)``: every recovery becomes a
  span tree (link-observer fan-in, span assembly, annotations);
* **tracing sampled** — ``recording(trace=True,
  trace_sample_rate=0.25)``: head sampling drops ~3/4 of the traces at
  the root, so span assembly for them is skipped;
* **timeseries** — ``recording(timeseries=TimeSeriesCollector())``:
  windowed sim-time telemetry on top of the recording arm (window
  bucketing per event plus the end-of-window engine/ledger snapshots).

Each arm is repeated and the *median* wall clock kept (the arms
alternate, so a warmup or turbo drift hits all arms equally).  The
medians and the derived overhead ratios are written to
``BENCH_obs_overhead.json`` at the repo root; the acceptance target is
no-op-sink overhead ≤ 5%, which the JSON records exactly.  The inline
assertion is deliberately looser (wall-clock ratios on shared CI
machines are noisy) — it only catches the layer becoming grossly
expensive.

Determinism is asserted too: every arm must produce the identical run
summary — modulo ``events_processed``, which is legitimately lower on
the fast dissemination path — or the "overhead" numbers would compare
different work.  The uninstrumented, no-op, recording and time-series
arms run that fast path (the profiler times phases, not hops; the
ledger counts each fast hop in the window of its transmit instant); the
tracer's link observer makes arming it refuse, so the whole traced run
is per-hop (see ``docs/PERFORMANCE.md``).
"""

import dataclasses
import json
import pathlib
import statistics
import time

from benchmarks.conftest import record
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario, run_protocol_detailed
from repro.obs import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    Profiler,
    TimeSeriesCollector,
)
from repro.protocols.rp import RPProtocolFactory

RESULT_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_obs_overhead.json"

CONFIG = ScenarioConfig(seed=1, num_routers=100, loss_prob=0.05, num_packets=30)
REPEATS = 5

ARMS = {
    "uninstrumented": lambda: NULL_INSTRUMENTATION,
    "noop_sink": lambda: Instrumentation(profiler=Profiler(enabled=False)),
    "recording": Instrumentation.recording,
    "tracing": lambda: Instrumentation.recording(trace=True),
    "tracing_sampled": lambda: Instrumentation.recording(
        trace=True, trace_sample_rate=0.25
    ),
    "timeseries": lambda: Instrumentation.recording(
        timeseries=TimeSeriesCollector()
    ),
}
OVERHEAD_ARMS = (
    "noop_sink", "recording", "tracing", "tracing_sampled", "timeseries"
)


def _strip_events(summary):
    """Drop ``events_processed`` before comparing arms: the fast
    dissemination path coalesces per-member deliveries into one event,
    so the traced arms, which run without it, process more events for
    the same session."""
    return dataclasses.replace(summary, events_processed=0)


def _time_arm(built, make_instr) -> tuple[float, object]:
    instr = make_instr()
    t0 = time.perf_counter()
    artifacts = run_protocol_detailed(
        built, RPProtocolFactory(), instrumentation=instr
    )
    elapsed = time.perf_counter() - t0
    instr.close()
    return elapsed, artifacts.summary


def test_obs_overhead():
    built = build_scenario(CONFIG)
    # Warmup: the first run per process pays for the lazy routing-table
    # fills (and bytecode/allocator warmup), which would otherwise be
    # billed entirely to whichever arm happens to run first.
    for make_instr in ARMS.values():
        _time_arm(built, make_instr)
    times: dict[str, list[float]] = {name: [] for name in ARMS}
    summaries: dict[str, object] = {}
    for _ in range(REPEATS):
        for name, make_instr in ARMS.items():
            elapsed, summary = _time_arm(built, make_instr)
            times[name].append(elapsed)
            summaries[name] = summary

    # All arms must have simulated the exact same session.
    for name in OVERHEAD_ARMS:
        assert _strip_events(summaries[name]) == _strip_events(
            summaries["uninstrumented"]
        ), name

    medians = {name: statistics.median(ts) for name, ts in times.items()}
    base = medians["uninstrumented"]
    overhead = {name: medians[name] / base - 1.0 for name in OVERHEAD_ARMS}

    payload = {
        "config": {
            "seed": CONFIG.seed,
            "num_routers": CONFIG.num_routers,
            "loss_prob": CONFIG.loss_prob,
            "num_packets": CONFIG.num_packets,
        },
        "repeats": REPEATS,
        "median_seconds": medians,
        "overhead_ratio": overhead,
        "target_noop_overhead": 0.05,
        "noop_within_target": overhead["noop_sink"] <= 0.05,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")

    record(
        "== Instrumentation overhead (median of "
        f"{REPEATS}, seed {CONFIG.seed}) ==\n"
        + "\n".join(
            f"{name:16} {medians[name] * 1e3:8.1f} ms"
            + (
                f"  (+{overhead[name] * 100:.1f}%)"
                if name in overhead else ""
            )
            for name in ARMS
        )
        + f"\nwritten to {RESULT_PATH.name}"
    )

    # Lenient bound — the 5% target lives in the JSON; this only trips
    # if the no-op layer becomes grossly expensive.
    assert overhead["noop_sink"] <= 0.25, (
        f"no-op instrumentation overhead {overhead['noop_sink']:.1%}"
        " exceeds even the lenient 25% ceiling"
    )
