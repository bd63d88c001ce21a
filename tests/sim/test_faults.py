"""Tests for the fault-injection subsystem (schedules + live injector)."""

import numpy as np
import pytest

from repro.metrics.collectors import BandwidthLedger, RecoveryLog
from repro.net.topology import Link
from repro.obs.health import InvariantError, evaluate_health
from repro.sim.faults import (
    CrashWindow,
    FaultInjector,
    FaultSchedule,
    GilbertElliottParams,
    LinkDownWindow,
    random_fault_schedule,
)
from repro.sim.packet import Packet, PacketKind


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestScheduleValidation:
    def test_crash_window_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            CrashWindow(node=1, start=-1.0, end=2.0)
        with pytest.raises(ValueError):
            CrashWindow(node=1, start=5.0, end=2.0)

    def test_link_down_window_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            LinkDownWindow(u=0, v=1, start=3.0, end=1.0)

    def test_gilbert_elliott_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GilbertElliottParams(p_enter_bad=1.5, p_exit_bad=0.5)
        with pytest.raises(ValueError):
            GilbertElliottParams(p_enter_bad=0.1, p_exit_bad=0.5, bad_loss=2.0)
        with pytest.raises(ValueError):
            GilbertElliottParams(p_enter_bad=0.1, p_exit_bad=0.5, good_loss=-0.1)

    def test_blackhole_probs_validated(self):
        with pytest.raises(ValueError):
            FaultSchedule(request_blackhole_prob=1.5)
        with pytest.raises(ValueError):
            FaultSchedule(repair_blackhole_prob=-0.1)

    def test_null_schedule(self):
        assert FaultSchedule.none().is_null
        assert FaultSchedule().is_null
        assert not FaultSchedule(
            crash_windows=(CrashWindow(1, 0.0, 1.0),)
        ).is_null
        assert not FaultSchedule(request_blackhole_prob=0.1).is_null
        assert not FaultSchedule(
            gilbert_elliott=GilbertElliottParams(0.1, 0.5)
        ).is_null


class TestRandomFaultSchedule:
    NODES = [3, 4, 5, 6, 7, 8]
    LINKS = [Link(0, 1, 1.0), Link(1, 2, 1.0), Link(2, 3, 1.0)]

    def test_zero_intensity_is_null(self):
        schedule = random_fault_schedule(
            0.0, _rng(), self.NODES, self.LINKS, horizon=100.0
        )
        assert schedule.is_null

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            random_fault_schedule(1.5, _rng(), self.NODES, self.LINKS, 100.0)
        with pytest.raises(ValueError):
            random_fault_schedule(0.5, _rng(), self.NODES, self.LINKS, 0.0)

    def test_deterministic_per_rng_seed(self):
        a = random_fault_schedule(0.7, _rng(42), self.NODES, self.LINKS, 100.0)
        b = random_fault_schedule(0.7, _rng(42), self.NODES, self.LINKS, 100.0)
        assert a == b
        c = random_fault_schedule(0.7, _rng(43), self.NODES, self.LINKS, 100.0)
        assert a != c

    def test_windows_are_finite_and_scale_with_intensity(self):
        schedule = random_fault_schedule(
            1.0, _rng(7), self.NODES, self.LINKS, horizon=100.0
        )
        assert schedule.crash_windows  # intensity 1 crashes ~half the nodes
        for window in schedule.crash_windows:
            assert window.node in self.NODES
            assert 0.0 <= window.start <= window.end
            assert window.end < 100.0 * (0.6 + 0.3) + 1e-9
        assert schedule.gilbert_elliott is not None
        assert schedule.request_blackhole_prob > 0.0


class TestFaultInjector:
    def _packet(self, kind=PacketKind.REQUEST, seq=0):
        return Packet(kind, seq, origin=3)

    def test_crash_window_drops_both_directions(self):
        schedule = FaultSchedule(crash_windows=(CrashWindow(3, 10.0, 20.0),))
        injector = FaultInjector(schedule, _rng())
        packet = self._packet()
        assert not injector.drop_delivery(3, packet, 9.9)
        assert injector.drop_delivery(3, packet, 10.0)
        assert injector.suppress_send(3, packet, 15.0)
        assert not injector.drop_delivery(3, packet, 20.0)  # half-open
        assert not injector.drop_delivery(4, packet, 15.0)  # other node fine
        assert injector.counts == {"crash.rx_drop": 1, "crash.tx_drop": 1}

    def test_link_down_is_undirected(self):
        schedule = FaultSchedule(
            link_down_windows=(LinkDownWindow(2, 1, 5.0, 6.0),)
        )
        injector = FaultInjector(schedule, _rng())
        link = Link(1, 2, 1.0)
        assert injector.link_down(link, 5.5)
        assert not injector.link_down(link, 6.5)
        assert not injector.link_down(Link(1, 3, 1.0), 5.5)
        assert injector.counts["link.down_drop"] == 1

    def test_gilbert_elliott_chain_enters_bad_state(self):
        # p_enter=1: after the first draw the link is pinned bad, where
        # loss is certain; the first draw itself uses the good state.
        params = GilbertElliottParams(
            p_enter_bad=1.0, p_exit_bad=0.0, bad_loss=1.0, good_loss=0.0
        )
        schedule = FaultSchedule(gilbert_elliott=params)
        injector = FaultInjector(schedule, _rng())
        assert injector.burst_loss
        link = Link(0, 1, 1.0)
        assert not injector.burst_loss_draw(link, 0.0)  # good state, loss 0
        assert injector.burst_loss_draw(link, 1.0)  # bad state, loss 1
        assert injector.burst_loss_draw(link, 2.0)
        assert injector.counts["burst.drop"] == 2

    def test_gilbert_elliott_good_state_uses_link_loss(self):
        params = GilbertElliottParams(
            p_enter_bad=0.0, p_exit_bad=0.0, bad_loss=1.0, good_loss=None
        )
        injector = FaultInjector(
            FaultSchedule(gilbert_elliott=params), _rng()
        )
        lossless = Link(0, 1, 1.0, loss_prob=0.0)
        # loss_prob must stay below 1; 0.999 with the seeded rng's first
        # draw (~0.64) makes the outcome deterministic anyway.
        lossy = Link(0, 2, 1.0, loss_prob=0.999)
        assert not injector.burst_loss_draw(lossless, 0.0)
        assert injector.burst_loss_draw(lossy, 0.0)

    def test_blackhole_eats_recovery_unicast_only(self):
        schedule = FaultSchedule(
            request_blackhole_prob=1.0, repair_blackhole_prob=1.0
        )
        injector = FaultInjector(schedule, _rng())
        assert injector.blackhole(self._packet(PacketKind.REQUEST), 0.0)
        assert injector.blackhole(self._packet(PacketKind.REPAIR), 0.0)
        assert not injector.blackhole(self._packet(PacketKind.DATA), 0.0)
        assert not injector.blackhole(self._packet(PacketKind.SESSION), 0.0)
        assert injector.counts["blackhole.request"] == 1
        assert injector.counts["blackhole.repair"] == 1

    def test_null_schedule_injects_nothing(self):
        injector = FaultInjector(FaultSchedule.none(), _rng())
        packet = self._packet()
        assert not injector.drop_delivery(3, packet, 1.0)
        assert not injector.suppress_send(3, packet, 1.0)
        assert not injector.link_down(Link(0, 1, 1.0), 1.0)
        assert not injector.burst_loss
        assert not injector.blackhole(packet, 1.0)
        assert injector.counts == {}


class TestLiveness:
    """The liveness guarantee under faults — every detected loss ends
    recovered or abandoned — is the invariant layer's
    ``quiescence.drain`` check."""

    def test_report_ok(self):
        log = RecoveryLog()
        for seq in range(3):
            log.loss_detected(3, seq, 1.0)
            log.recovered(3, seq, 2.0)
        log.loss_detected(4, 0, 1.0)
        log.abandoned(4, 0, 3.0)
        report = evaluate_health(log, BandwidthLedger())
        assert report.ok
        assert report.violations == [] and report.raised == []

    def test_checker_flags_unterminated(self):
        log = RecoveryLog()
        log.loss_detected(3, 0, 1.0)
        log.loss_detected(3, 1, 1.0)
        log.loss_detected(4, 0, 1.0)
        log.recovered(3, 0, 2.0)
        log.abandoned(3, 1, 3.0)
        report = evaluate_health(log, BandwidthLedger())
        assert [v.check for v in report.raised] == ["quiescence.drain"]
        assert report.raised[0].details["sample"] == [[4, 0]]
        error = InvariantError(report)
        assert "(4, 0)" in str(error)
        assert len(error.report.raised) == 1

    def test_checker_passes_when_all_terminated(self):
        log = RecoveryLog()
        log.loss_detected(3, 0, 1.0)
        log.abandoned(3, 0, 2.0)
        report = evaluate_health(log, BandwidthLedger())
        assert "quiescence.drain" in report.checks_run
        assert report.ok


class TestZeroLengthWindowRegression:
    """random_fault_schedule must never emit a degenerate [t, t) window
    (it would never fire yet still count as an injected fault), and the
    filter must consume the same RNG draws as the unfiltered path so
    every later window is unchanged."""

    class _ScriptedRng:
        """Stands in for a Generator: scripted uniform draws, identity
        choice picks."""

        def __init__(self, uniforms):
            self._uniforms = list(uniforms)

        def choice(self, n, size, replace):
            assert not replace
            return np.arange(size)

        def uniform(self, lo, hi):
            return self._uniforms.pop(0)

    def test_degenerate_window_skipped_draws_preserved(self):
        # First pick: start so large that start + length == start in
        # float arithmetic (the degenerate case).  Second pick: normal.
        horizon = 1.0
        rng = self._ScriptedRng(uniforms=[
            1e18, 0.05,   # pick 1: 1e18 + 0.05 == 1e18 -> skipped
            0.10, 0.06,   # pick 2: [0.10, 0.16) -> kept
        ])
        schedule = random_fault_schedule(
            1.0, rng, nodes=[7, 8, 9, 10], links=[], horizon=horizon
        )
        assert len(schedule.crash_windows) == 1
        window = schedule.crash_windows[0]
        # The second *pick* got the second *pair* of draws: the filter
        # consumed both draws of the degenerate pick before skipping.
        assert window.node == 8
        assert window.start == pytest.approx(0.10)
        assert window.end == pytest.approx(0.16)
        assert not rng._uniforms  # every scripted draw was consumed

    def test_sampled_windows_always_positive_length(self):
        for seed in range(10):
            schedule = random_fault_schedule(
                0.9, _rng(seed), nodes=list(range(20)),
                links=[], horizon=280.0,
            )
            for window in schedule.crash_windows:
                assert window.end > window.start
