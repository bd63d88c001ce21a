"""Feature-off equivalence: every optional subsystem is invisible when unused.

Three features share one bit-identity contract — a run that does not
use the feature, a run handed its explicit "off" value, and a run of a
build without the feature all produce byte-identical results:

* **faults** — ``faults=None`` ≡ ``FaultSchedule.none()``;
* **membership** — ``membership=None`` ≡ ``MembershipSchedule.none()``
  ≡ a schedule sampled at intensity 0;
* **timeseries** — a default recording ≡ ``recording(timeseries=None)``.

The third leg of each contract is pinned by the golden tests (their
expected values predate all three subsystems).  Here every off value is
checked against the default on three observables: full ``RunSummary``
equality for the five protocols, the JSONL telemetry stream, and the
summary JSON persistence writes.  Feature-specific cases follow as
single tests.
"""

import dataclasses
import json

import pytest

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
from repro.sim.faults import FaultSchedule
from repro.sim.membership import MembershipSchedule, random_membership_schedule
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
}


def _run(variant, factory_cls, jsonl_path=None):
    """One run of ``variant``; instrumented when the variant records or
    a JSONL stream is asked for."""
    built = build_scenario(CONFIG)
    run_kwargs, recording_kwargs = variant(built)
    if recording_kwargs is None and jsonl_path is None:
        return run_protocol(built, factory_cls(), **run_kwargs)
    instr = Instrumentation.recording(
        jsonl_path=jsonl_path, profile=False, **(recording_kwargs or {})
    )
    try:
        return run_protocol(
            built, factory_cls(), instrumentation=instr, **run_kwargs
        )
    finally:
        instr.close()


def _pair(name):
    feature, off = OFF_VALUES[name]
    return DEFAULTS[feature], off


@pytest.mark.parametrize("factory_cls", FACTORIES, ids=lambda c: c.name)
@pytest.mark.parametrize("off_value", list(OFF_VALUES))
def test_feature_off_summary_is_identical(off_value, factory_cls):
    default, off = _pair(off_value)
    # Full dataclass equality, every field.
    assert _run(default, factory_cls) == _run(off, factory_cls)


@pytest.mark.parametrize("off_value", list(OFF_VALUES))
def test_feature_off_jsonl_stream_is_identical(off_value, tmp_path):
    # The JSONL event stream (sim-time telemetry, the observable the obs
    # layer persists) must be identical event-for-event.
    streams = []
    for label, variant in zip("ab", _pair(off_value)):
        path = tmp_path / f"{label}.jsonl"
        _run(variant, RPProtocolFactory, jsonl_path=path)
        streams.append(path.read_text().splitlines())
    assert streams[0] == streams[1]
    assert streams[0]  # non-empty: the stream actually recorded something


@pytest.mark.parametrize("off_value", list(OFF_VALUES))
def test_feature_off_summary_json_is_identical(off_value):
    # What persistence serializes (asdict of RunSummary) is identical.
    dumps = [
        json.dumps(dataclasses.asdict(_run(variant, SRMProtocolFactory)),
                   sort_keys=True)
        for variant in _pair(off_value)
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
