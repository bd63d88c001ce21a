"""Unit and integration tests for the run invariants."""

import pickle

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario, run_protocol_detailed
from repro.metrics.collectors import BandwidthLedger, RecoveryLog
from repro.obs import Instrumentation, TimeSeriesCollector
from repro.obs.events import AttemptEvent, HealthEvent
from repro.obs.health import (
    ALL_CHECKS,
    HealthConfig,
    HealthReport,
    HealthViolation,
    InvariantError,
    evaluate_health,
    render_health,
)
from repro.experiments.chaos import SRM_MAX_REQUEST_ROUNDS
from repro.protocols.rp import RPProtocolFactory
from repro.protocols.srm import SRMConfig, SRMProtocolFactory
from repro.sim.faults import FaultSchedule
from repro.sim.packet import PacketKind


def _attempt(time, status, client=1, seq=0):
    return AttemptEvent(
        time=time, protocol="RP", client=client, seq=seq, status=status
    )


def _stalled_collector(silent_windows):
    """One recovery opens at t=1 and then nothing happens."""
    c = TimeSeriesCollector(window=10.0)
    c.write(_attempt(1.0, "started"))
    c.write(_attempt(2.0, "timed_out"))
    c.finalize((silent_windows + 1) * 10.0)
    return c


# -- stall watchdog -------------------------------------------------------


def test_stall_fires_at_threshold():
    report = evaluate_health(
        RecoveryLog(), BandwidthLedger(),
        timeseries=_stalled_collector(silent_windows=8),
        config=HealthConfig(stall_windows=8),
    )
    stalls = [v for v in report.violations if v.check == "progress.stall"]
    assert len(stalls) == 1
    assert stalls[0].window_start == 10.0
    assert stalls[0].details["open_recoveries"] == 1


def test_stall_below_threshold_is_silent():
    report = evaluate_health(
        RecoveryLog(), BandwidthLedger(),
        timeseries=_stalled_collector(silent_windows=5),
        config=HealthConfig(stall_windows=8),
    )
    assert not [v for v in report.violations if v.check == "progress.stall"]


def test_stall_requires_open_recoveries():
    # Quiet windows with nothing pending are idleness, not a stall.
    c = TimeSeriesCollector(window=10.0)
    c.write(_attempt(1.0, "started"))
    c.write(_attempt(2.0, "succeeded"))
    c.finalize(500.0)
    report = evaluate_health(
        RecoveryLog(), BandwidthLedger(), timeseries=c,
        config=HealthConfig(stall_windows=2),
    )
    assert not [v for v in report.violations if v.check == "progress.stall"]


def test_stall_needs_a_timeseries():
    report = evaluate_health(RecoveryLog(), BandwidthLedger())
    assert "progress.stall" not in report.checks_run


def test_health_config_validation():
    with pytest.raises(ValueError):
        HealthConfig(stall_windows=0)


# -- collector-level checks -----------------------------------------------


def test_conservation_ledger_violation():
    ledger = BandwidthLedger()
    ledger.charge_hop(PacketKind.REQUEST)
    ledger.charge_drops(PacketKind.REQUEST, 2)  # more drops than hops
    report = evaluate_health(RecoveryLog(), ledger)
    bad = [v for v in report.violations if v.check == "conservation.ledger"]
    assert len(bad) == 1
    assert bad[0].details == {"kind": "request", "hops": 1, "drops": 2}


def test_membership_tx_drop_check_is_opt_in():
    clean = evaluate_health(RecoveryLog(), BandwidthLedger())
    assert "membership.tx_drop" not in clean.checks_run
    dirty = evaluate_health(
        RecoveryLog(), BandwidthLedger(), membership_tx_drops=3
    )
    assert [v.check for v in dirty.violations] == ["membership.tx_drop"]


def test_quiescence_drain_violation():
    log = RecoveryLog()
    log.loss_detected(1, 0, 1.0)  # never recovered nor abandoned
    report = evaluate_health(log, BandwidthLedger())
    assert [v.check for v in report.violations] == ["quiescence.drain"]
    assert report.violations[0].details["pending"] == 1


def test_quiescence_timers_violation():
    report = evaluate_health(RecoveryLog(), BandwidthLedger(), pending_timers=2)
    assert [v.check for v in report.violations] == ["quiescence.timers"]
    assert report.violations[0].details == {"pending_timers": 2}
    skipped = evaluate_health(RecoveryLog(), BandwidthLedger())
    assert "quiescence.timers" not in skipped.checks_run


def test_clean_collectors_pass_every_check():
    log = RecoveryLog()
    log.loss_detected(1, 0, 1.0)
    log.recovered(1, 0, 2.0)
    report = evaluate_health(
        log, BandwidthLedger(), membership_tx_drops=0, pending_timers=0
    )
    assert report.ok
    assert set(report.checks_run) == set(ALL_CHECKS) - {"progress.stall"}


def test_stall_is_reported_but_never_raised():
    log = RecoveryLog()
    log.loss_detected(1, 0, 1.0)  # never recovered nor abandoned
    report = evaluate_health(
        log, BandwidthLedger(),
        timeseries=_stalled_collector(silent_windows=8),
    )
    assert {v.check for v in report.violations} == {
        "progress.stall", "quiescence.drain",
    }
    assert [v.check for v in report.raised] == ["quiescence.drain"]
    error = InvariantError(report)
    assert error.report is report
    assert "quiescence.drain" in str(error)
    assert "progress.stall" not in str(error)


def test_invariant_error_pickles_with_its_report():
    # Parallel sweep workers hand exceptions back to the parent pickled.
    log = RecoveryLog()
    log.loss_detected(1, 0, 1.0)
    error = InvariantError(
        evaluate_health(log, BandwidthLedger()), artifacts=object()
    )
    again = pickle.loads(pickle.dumps(error))
    assert str(again) == str(error)
    assert again.report.to_dict() == error.report.to_dict()
    assert again.artifacts is None


# -- the runner checks every run ------------------------------------------


class _LeakyRP(RPProtocolFactory):
    """RP plus one detection that nothing will recover or abandon."""

    def install(self, network, log, tracker, streams, num_packets, **kwargs):
        source = super().install(
            network, log, tracker, streams, num_packets, **kwargs
        )
        log.loss_detected(network.tree.clients[0], num_packets, 0.0)
        return source


class _TimerLeakRP(RPProtocolFactory):
    """RP plus one timer armed far past the drain cutoff."""

    def install(self, network, log, tracker, streams, num_packets, **kwargs):
        network.events.schedule(1e9, lambda: None)
        return super().install(
            network, log, tracker, streams, num_packets, **kwargs
        )


_PLAIN = ScenarioConfig(seed=5, num_routers=20, loss_prob=0.05, num_packets=4)


def test_plain_run_raises_on_unterminated_detection():
    # No faults, no churn, no collector: the invariants still run.
    built = build_scenario(_PLAIN)
    with pytest.raises(InvariantError) as excinfo:
        run_protocol_detailed(built, _LeakyRP())
    err = excinfo.value
    assert [v.check for v in err.report.raised] == ["quiescence.drain"]
    # The drained run's artifacts ride along for callers that record.
    assert err.artifacts.log.unterminated() == [
        (built.tree.clients[0], _PLAIN.num_packets)
    ]


def test_plain_run_raises_on_timer_left_after_drain():
    built = build_scenario(_PLAIN)
    with pytest.raises(InvariantError) as excinfo:
        run_protocol_detailed(built, _TimerLeakRP())
    assert [v.check for v in excinfo.value.report.raised] == [
        "quiescence.timers"
    ]


def test_plain_run_attaches_no_report():
    artifacts = run_protocol_detailed(
        build_scenario(_PLAIN), RPProtocolFactory()
    )
    assert artifacts.health is None


# -- report plumbing ------------------------------------------------------


def test_report_round_trips_through_dict():
    report = evaluate_health(
        RecoveryLog(), BandwidthLedger(),
        timeseries=_stalled_collector(silent_windows=8),
    )
    assert not report.ok
    again = HealthReport.from_dict(report.to_dict())
    assert again.to_dict() == report.to_dict()
    assert isinstance(again.violations[0], HealthViolation)


def test_render_health_includes_sparklines():
    c = _stalled_collector(silent_windows=8)
    report = evaluate_health(RecoveryLog(), BandwidthLedger(), timeseries=c)
    text = render_health(report, c)
    assert "FAIL progress.stall" in text
    assert "windows:" in text
    assert "open_recoveries" in text


# -- end-to-end sensitivity ----------------------------------------------
#
# The watchdog's reason to exist: a black-holed network with a bounded
# retry policy stalls (waiting out capped backoffs, abandoning late),
# and the stall check must see it — while a clean run of the same
# scenario must stay silent.

_SCENARIO = ScenarioConfig(
    seed=3, num_routers=40, loss_prob=0.15, num_packets=10,
    lossless_recovery=False,
)


def _run_with_timeseries(faults=None, factory=None, window=5.0):
    built = build_scenario(_SCENARIO)
    instr = Instrumentation.recording(
        timeseries=TimeSeriesCollector(window=window)
    )
    try:
        artifacts = run_protocol_detailed(
            built,
            factory if factory is not None else SRMProtocolFactory(),
            instrumentation=instr,
            faults=faults,
        )
    finally:
        instr.close()
    return artifacts, instr


def test_injected_blackhole_raises_stall_violation():
    hardened = SRMProtocolFactory(
        SRMConfig(max_request_rounds=SRM_MAX_REQUEST_ROUNDS)
    )
    artifacts, instr = _run_with_timeseries(
        faults=FaultSchedule(
            request_blackhole_prob=1.0, repair_blackhole_prob=1.0
        ),
        factory=hardened,
    )
    assert artifacts.health is not None
    stalls = [
        v for v in artifacts.health.violations if v.check == "progress.stall"
    ]
    assert stalls, "full blackhole must register as a progress stall"
    assert all(v.window_start >= 0 for v in stalls)
    # The violations were mirrored onto the event bus.
    health_events = [
        e for e in instr.ring_events() if isinstance(e, HealthEvent)
    ]
    assert len(health_events) == len(artifacts.health.violations)


def test_clean_run_raises_no_violations():
    # RP at the default window width (50 ms), mirroring the `repro
    # health` defaults.  (SRM with *unbounded* request rounds can sit in
    # a legitimate exponential-backoff gap longer than the default
    # stall horizon — tune `window`/`stall_windows` up when watching
    # protocols whose healthy quiet periods grow without bound.)
    artifacts, _ = _run_with_timeseries(
        factory=RPProtocolFactory(), window=50.0
    )
    assert artifacts.health is not None
    assert artifacts.health.ok, [
        v.render() for v in artifacts.health.violations
    ]
    assert artifacts.timeseries is not None
    assert artifacts.timeseries.num_windows > 0
