"""Self-test of the end-to-end benchmark harness on tiny configs.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py -q

Checks that the printed metric names are the ones BENCHMARK.json
declares, that the per-layer wrappers are transparent (same digests and
event counts, same fast-dissemination decisions) and removed afterwards,
that ``0 <= self_s <= s`` for every layer, and that the host sampler
leaves the timed work's results alone and restores the signal state.
"""

import importlib
import json
import pathlib
import signal

import pytest

from benchmarks.e2e.calibration import REFERENCE_SAMPLE_S, HostSampler
from benchmarks.e2e.layers import LAYER_METRICS, TARGETS, LayerTracer
from benchmarks.e2e.measure import measure, repetitions
from benchmarks.e2e.workloads import WORKLOADS, run_repetition

SPEC = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
MISSING = object()


def _attributes():
    return [(owner, attr, vars(owner).get(attr, MISSING))
            for owner, attr, _ in TARGETS]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(LAYER_METRICS)


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metric_names_match_benchmark_json(trace):
    result = measure("exact-lru", 1, 1, trace, WORKLOADS["exact-lru"].tiny)
    assert result["failed"] == 0, result["problems"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_is_transparent_and_removed(name):
    before = _attributes()
    config = WORKLOADS[name].tiny
    plain = run_repetition(name, config, 1)
    with LayerTracer() as tracer:
        traced = run_repetition(name, config, 1)

    def outcome(rep):
        return [(s.label, s.digest, s.events, s.problems) for s in rep.sessions]

    assert outcome(traced) == outcome(plain)
    assert all(not s.problems for s in plain.sessions)
    # The runner arms fast dissemination unless a time-series collector
    # is attached; tracing must not change that decision.
    armed = [] if name == "stress-composed" else [True] * len(plain.sessions)
    assert tracer.fast_armed == armed
    assert tracer.records["protocols.RP.on_packet"][0] > 0
    for layer, (calls, total, self_s, depth) in tracer.records.items():
        assert depth == 0, layer
        assert -1e-9 <= self_s <= total + 1e-9, layer
    assert _attributes() == before


def test_refuses_repro_switches(monkeypatch):
    main = importlib.import_module("benchmarks.e2e.__main__").main
    monkeypatch.setenv("REPRO_FAST_DISSEM", "0")
    assert main(["--workload", "fig7-sweep", "--seconds", "0"]) == 2


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_both_inputs_get_equal_repetitions(name):
    for seconds in (0, 16, 60):
        reps = repetitions(name, seconds, trace=False)
        assert reps >= 2 and reps % 2 == 0
        assert repetitions(name, seconds, trace=True) >= 1


def test_host_sampler_is_transparent_and_restored():
    config = WORKLOADS["stress-composed"].tiny
    plain = run_repetition("stress-composed", config, 1)
    handler = signal.getsignal(signal.SIGALRM)
    sampled = run_repetition("stress-composed", config, 1, sample_host=True)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert plain.session_ref_s is None and sampled.session_ref_s > 0
    assert sampled.setup_ref_s > 0 and sampled.slowdown > 0
    assert ([(s.digest, s.events) for s in sampled.sessions]
            == [(s.digest, s.events) for s in plain.sessions])


def test_host_slowdown_counts_the_samples_around_a_call():
    sampler = HostSampler()
    sampler.times = [0.0, 1.0, 2.0, 3.0, 4.0]
    sampler.samples = [1.0, 2.0, 3.0, 4.0, 5.0]
    scale = REFERENCE_SAMPLE_S
    assert sampler.slowdown() * scale == pytest.approx(3.0)
    # Samples 1 and 2 ran inside the call; 0 and 3 bracket it.
    assert sampler.slowdown(0.5, 2.5) * scale == pytest.approx(2.5)
    # A call between two samples gets both.
    assert sampler.slowdown(3.2, 3.4) * scale == pytest.approx(4.5)
    assert sampler.slowdown(4.5, 5.0) * scale == pytest.approx(5.0)
