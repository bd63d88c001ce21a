"""Feature-off equivalence: every optional subsystem is invisible when unused.

Three features share one bit-identity contract — a run that does not
use the feature, a run handed its explicit "off" value, and a run of a
build without the feature all produce byte-identical results:

* **faults** — ``faults=None`` ≡ ``FaultSchedule.none()``;
* **membership** — ``membership=None`` ≡ ``MembershipSchedule.none()``
  ≡ a schedule sampled at intensity 0;
* **timeseries** — a default recording ≡ ``recording(timeseries=None)``.

The third leg of each contract is pinned by the golden tests (their
expected values predate all three subsystems).

A fourth column holds the array dissemination fast path to its
reference: a default run (fast path armed) ≡ the same run on the
per-hop scalar path (the ``scalar_dissem`` fixture).  Same RNG
consumption, arrival times, delivery sets and ledger totals;
``events_processed`` is the one quantity that legitimately differs —
the fast path schedules one event per delivery instead of one per link
traversal — so this column is compared modulo that counter.

Every off value is checked against its default on three observables:
the run's summary, ledger and latencies for the five protocols, the
JSONL telemetry stream, and the summary JSON persistence writes.
Feature-specific cases follow as single tests.
"""

import contextlib
import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import (
    build_scenario,
    run_protocol,
    run_protocol_detailed,
)
from repro.obs import TimeSeriesCollector
from repro.obs.health import evaluate_health
from repro.obs.instrumentation import Instrumentation
from repro.protocols.naive import NearestPeerProtocolFactory
from repro.protocols.rma import RMAProtocolFactory
from repro.protocols.rp import RPProtocolFactory
from repro.protocols.source import SourceProtocolFactory
from repro.protocols.srm import SRMProtocolFactory
from repro.sim.faults import CrashWindow, FaultSchedule
from repro.sim.membership import (
    LEAVE,
    MembershipEvent,
    MembershipSchedule,
    random_membership_schedule,
)
from repro.sim.network import SimNetwork
from repro.sim.rng import RngStreams

FACTORIES = [
    RPProtocolFactory,
    SRMProtocolFactory,
    RMAProtocolFactory,
    SourceProtocolFactory,
    NearestPeerProtocolFactory,
]

CONFIG = ScenarioConfig(
    seed=11, num_routers=30, loss_prob=0.08, num_packets=8,
    lossless_recovery=False,
)


def _zero_churn(built):
    schedule = random_membership_schedule(
        0.0,
        RngStreams(CONFIG.seed).get("membership-schedule:0"),
        [c for c in built.tree.clients if c != built.tree.root],
        280.0,
    )
    assert schedule.is_null
    return schedule


# A variant maps the built scenario to (run kwargs, recording kwargs);
# recording kwargs of None mean an uninstrumented run.

#: Each feature's default: the feature not used at all.
DEFAULTS = {
    "faults": lambda built: ({"faults": None}, None),
    "membership": lambda built: ({"membership": None}, None),
    "timeseries": lambda built: ({}, {}),
    "fast-dissem": lambda built: ({}, None),
}

#: Every off value, which must reproduce its feature's default exactly.
OFF_VALUES = {
    "faults-null": ("faults", lambda built: (
        {"faults": FaultSchedule.none()}, None)),
    "membership-null": ("membership", lambda built: (
        {"membership": MembershipSchedule.none()}, None)),
    "membership-zero": ("membership", lambda built: (
        {"membership": _zero_churn(built)}, None)),
    "timeseries-none": ("timeseries", lambda built: (
        {}, {"timeseries": None})),
    # Same inputs; the off run goes through ``scalar_dissem`` (see _pair).
    "scalar-dissem": ("fast-dissem", lambda built: ({}, None)),
}


def _run(variant, factory_cls, jsonl_path=None, config=CONFIG):
    """One run of ``variant`` (its artifacts); instrumented when the
    variant records or a JSONL stream is asked for."""
    built = build_scenario(config)
    run_kwargs, recording_kwargs = variant(built)
    if recording_kwargs is None and jsonl_path is None:
        return run_protocol_detailed(built, factory_cls(), **run_kwargs)
    instr = Instrumentation.recording(
        jsonl_path=jsonl_path, profile=False, **(recording_kwargs or {})
    )
    try:
        return run_protocol_detailed(
            built, factory_cls(), instrumentation=instr, **run_kwargs
        )
    finally:
        instr.close()


def _pair(name, factory_cls, scalar_dissem, jsonl_paths=(None, None)):
    """Artifacts of (the feature's default, its off value ``name``).
    The fast-dissem off value runs on the scalar path."""
    feature, off = OFF_VALUES[name]
    default = _run(DEFAULTS[feature], factory_cls, jsonl_paths[0])
    scalar = (
        scalar_dissem() if feature == "fast-dissem"
        else contextlib.nullcontext()
    )
    with scalar:
        return default, _run(off, factory_cls, jsonl_paths[1])


def _summary(artifacts, modulo_events=False):
    summary = artifacts.summary
    if modulo_events:
        summary = dataclasses.replace(summary, events_processed=0)
    return summary


def _observables(artifacts, modulo_events=False):
    """Everything that must match bit for bit: the full summary, the
    per-kind ledger, every latency and what is still outstanding."""
    return (
        _summary(artifacts, modulo_events),
        dict(artifacts.ledger.hops_by_kind),
        dict(artifacts.ledger.drops_by_kind),
        sorted(artifacts.log.latencies()),
        artifacts.log.outstanding(),
    )


def _modulo_events(off_value):
    return OFF_VALUES[off_value][0] == "fast-dissem"


@pytest.mark.parametrize("factory_cls", FACTORIES, ids=lambda c: c.name)
@pytest.mark.parametrize("off_value", list(OFF_VALUES))
def test_feature_off_summary_is_identical(off_value, factory_cls, scalar_dissem):
    default, off = _pair(off_value, factory_cls, scalar_dissem)
    modulo = _modulo_events(off_value)
    assert _observables(default, modulo) == _observables(off, modulo)
    if modulo:
        # The fast path must actually have fired, or this column tests
        # nothing: DATA cascades collapse to one event per delivery.
        assert (
            default.summary.events_processed < off.summary.events_processed
        )


@pytest.mark.parametrize("off_value", list(OFF_VALUES))
def test_feature_off_jsonl_stream_is_identical(
    off_value, tmp_path, scalar_dissem
):
    # The JSONL event stream (sim-time telemetry, the observable the obs
    # layer persists) must be identical event-for-event.
    paths = (tmp_path / "a.jsonl", tmp_path / "b.jsonl")
    _pair(off_value, RPProtocolFactory, scalar_dissem, jsonl_paths=paths)
    streams = [path.read_text().splitlines() for path in paths]
    assert streams[0] == streams[1]
    assert streams[0]  # non-empty: the stream actually recorded something


@pytest.mark.parametrize("off_value", list(OFF_VALUES))
def test_feature_off_summary_json_is_identical(off_value, scalar_dissem):
    # What persistence serializes (asdict of RunSummary) is identical.
    dumps = [
        json.dumps(
            dataclasses.asdict(
                _summary(artifacts, _modulo_events(off_value))
            ),
            sort_keys=True,
        )
        for artifacts in _pair(off_value, SRMProtocolFactory, scalar_dissem)
    ]
    assert dumps[0] == dumps[1]


# -- feature-specific cases ------------------------------------------------


def test_armed_collector_never_perturbs_the_simulation():
    # The run summary matches the uninstrumented one except
    # events_processed: the collector disarms the array dissemination
    # fast path, which coalesces per-member deliveries.
    def strip_events(summary):
        return dataclasses.replace(summary, events_processed=0)

    built = build_scenario(CONFIG)
    baseline = run_protocol(built, RPProtocolFactory())
    instr = Instrumentation.recording(timeseries=TimeSeriesCollector())
    try:
        artifacts = run_protocol_detailed(
            built, RPProtocolFactory(), instrumentation=instr
        )
    finally:
        instr.close()
    assert strip_events(artifacts.summary) == strip_events(baseline)
    assert artifacts.timeseries is not None
    assert artifacts.timeseries.finalized
    assert artifacts.health is not None
    assert artifacts.health.ok, [v.render() for v in artifacts.health.violations]


def test_null_membership_leaves_built_tree_untouched():
    built = build_scenario(CONFIG)
    epoch_before = built.tree.membership_epoch
    artifacts = run_protocol_detailed(
        built, RPProtocolFactory(), membership=MembershipSchedule.none()
    )
    # No director, no clone, no mutation.
    assert artifacts.membership is None
    assert built.tree.membership_epoch == epoch_before


def test_health_evaluation_is_read_only():
    built = build_scenario(CONFIG)
    artifacts = run_protocol_detailed(built, RPProtocolFactory())

    def state():
        log = artifacts.log
        return (
            log.num_detected, log.num_recovered, log.num_abandoned,
            dict(artifacts.ledger.hops_by_kind),
        )

    before = state()
    first = evaluate_health(artifacts.log, artifacts.ledger)
    second = evaluate_health(artifacts.log, artifacts.ledger)
    assert first.to_dict() == second.to_dict()
    assert state() == before


# -- fast dissemination: single cases ---------------------------------------


def _fast_and_scalar(scalar_dissem, factory_cls, config, **run_kwargs):
    """Artifacts of one run as the runner arms it, then on the scalar
    reference path."""

    def variant(built):
        return run_kwargs, None

    fast = _run(variant, factory_cls, config=config)
    with scalar_dissem():
        return fast, _run(variant, factory_cls, config=config)


@pytest.mark.parametrize("factory_cls", FACTORIES, ids=lambda c: c.name)
def test_summary_and_ledger_match_scalar(factory_cls, scalar_dissem):
    # The matrix column runs lossy recovery; under lossless_recovery
    # every recovery journey also collapses to one event per delivery.
    config = dataclasses.replace(CONFIG, lossless_recovery=True)
    fast, scalar = _fast_and_scalar(scalar_dissem, factory_cls, config)
    assert _observables(fast, True) == _observables(scalar, True)
    assert fast.summary.events_processed < scalar.summary.events_processed


def test_overlapping_cascades_still_identical(scalar_dissem):
    # data_interval far below the tree's delay span: consecutive DATA
    # cascades interleave in time, exercising the merged-order whole-lane
    # draw schedule rather than one cascade at a time.
    config = ScenarioConfig(
        seed=7, num_routers=60, loss_prob=0.1, num_packets=10,
        data_interval=2.0,
    )
    fast, scalar = _fast_and_scalar(scalar_dissem, RPProtocolFactory, config)
    assert _observables(fast, True) == _observables(scalar, True)


def test_lossless_tree_collapses_every_multicast(scalar_dissem):
    config = dataclasses.replace(CONFIG, loss_prob=0.0)
    fast, scalar = _fast_and_scalar(scalar_dissem, SRMProtocolFactory, config)
    assert _observables(fast, True) == _observables(scalar, True)
    assert fast.summary.events_processed < scalar.summary.events_processed


@settings(
    max_examples=12, deadline=None,
    # scalar_dissem patches per example, inside its with-block.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    loss=st.sampled_from([0.0, 0.02, 0.08, 0.15]),
    lossless_recovery=st.booleans(),
)
def test_rp_bit_identity_over_seeds_and_loss(
    scalar_dissem, seed, loss, lossless_recovery
):
    config = ScenarioConfig(
        seed=seed, num_routers=25, loss_prob=loss, num_packets=6,
        lossless_recovery=lossless_recovery,
    )
    fast, scalar = _fast_and_scalar(scalar_dissem, RPProtocolFactory, config)
    assert _observables(fast, True) == _observables(scalar, True)


def test_profiled_run_keeps_fast_path(monkeypatch):
    # The profiler times phases (one events.run scope, one planner.plan
    # scope per plan call), never hops, so a profiled run arms the fast
    # path and reproduces the plain run exactly, events_processed
    # included.
    networks = []
    arm = SimNetwork.enable_fast_dissem

    def spy(network, stream):
        networks.append(network)
        return arm(network, stream)

    monkeypatch.setattr(SimNetwork, "enable_fast_dissem", spy)
    built = build_scenario(CONFIG)
    plain = run_protocol(built, RPProtocolFactory())
    instr = Instrumentation.recording()
    assert instr.profiler.enabled
    profiled = run_protocol(built, RPProtocolFactory(), instrumentation=instr)
    assert [network.fast_dissem_enabled for network in networks] == [True, True]
    assert profiled == plain
    assert {"events.run", "planner.plan"} <= set(instr.profiler.stats())


# Each ineligibility condition keeps the run scalar — and scalar means
# identical to the scalar_dissem reference, events_processed included.


def test_jitter_disables_fast_path(scalar_dissem):
    config = dataclasses.replace(CONFIG, jitter=0.05)
    armed, scalar = _fast_and_scalar(scalar_dissem, RPProtocolFactory, config)
    assert armed.summary == scalar.summary


def test_tracing_disables_fast_path(monkeypatch, scalar_dissem):
    # A fast dissemination emits no link events for the tracer to see,
    # so the runner registers the tracer first and arming refuses.
    armed = []
    arm = SimNetwork.enable_fast_dissem

    def spy(network, stream):
        armed.append(arm(network, stream))
        return armed[-1]

    monkeypatch.setattr(SimNetwork, "enable_fast_dissem", spy)

    def traced(built):
        return {}, {"trace": True}

    fast = _run(traced, RPProtocolFactory)
    assert armed == [False]
    with scalar_dissem():
        scalar = _run(traced, RPProtocolFactory)
    assert _observables(fast) == _observables(scalar)


def test_congestion_disables_fast_path(scalar_dissem):
    config = dataclasses.replace(CONFIG, congestion_alpha=0.01)
    armed, scalar = _fast_and_scalar(scalar_dissem, RPProtocolFactory, config)
    assert armed.summary == scalar.summary


def test_faults_disable_fast_path(scalar_dissem):
    schedule = FaultSchedule(crash_windows=(CrashWindow(0, 80.0, 120.0),))
    armed, scalar = _fast_and_scalar(
        scalar_dissem, RPProtocolFactory, CONFIG, faults=schedule
    )
    assert armed.summary == scalar.summary


def test_churn_disables_fast_path(scalar_dissem):
    # Churn prunes/grafts the tree mid-run; the fast path snapshots the
    # dissemination arrays once, so an active membership schedule must
    # keep the run scalar.
    built = build_scenario(CONFIG)
    churner = next(c for c in built.tree.clients if c != built.tree.root)
    schedule = MembershipSchedule(events=(
        MembershipEvent(time=40.0, node=churner, kind=LEAVE),
    ))
    armed, scalar = _fast_and_scalar(
        scalar_dissem, RPProtocolFactory, CONFIG, membership=schedule
    )
    assert armed.summary == scalar.summary
