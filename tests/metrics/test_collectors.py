"""Tests for the bandwidth ledger and recovery log."""

import numpy as np
import pytest

from repro.metrics.collectors import BandwidthLedger, RecoveryLog
from repro.sim.packet import PacketKind


class TestBandwidthLedger:
    def test_starts_empty(self):
        ledger = BandwidthLedger()
        assert ledger.recovery_hops == 0
        assert ledger.data_hops == 0
        assert ledger.total_drops == 0

    def test_recovery_hops_sums_request_nack_repair(self):
        ledger = BandwidthLedger()
        ledger.charge_hop(PacketKind.REQUEST)
        ledger.charge_hop(PacketKind.NACK)
        ledger.charge_hop(PacketKind.REPAIR)
        ledger.charge_hop(PacketKind.REPAIR)
        assert ledger.recovery_hops == 4

    def test_data_and_session_not_recovery(self):
        ledger = BandwidthLedger()
        ledger.charge_hop(PacketKind.DATA)
        ledger.charge_hop(PacketKind.SESSION)
        assert ledger.recovery_hops == 0
        assert ledger.data_hops == 1

    def test_drops_counted_by_kind(self):
        ledger = BandwidthLedger()
        ledger.charge_drop(PacketKind.DATA)
        ledger.charge_drop(PacketKind.DATA)
        ledger.charge_drop(PacketKind.NACK)
        assert ledger.drops_by_kind[PacketKind.DATA] == 2
        assert ledger.total_drops == 3

    def test_batch_charges_equal_scalar_charges(self):
        scalar = BandwidthLedger()
        for _ in range(7):
            scalar.charge_hop(PacketKind.REPAIR)
        for _ in range(3):
            scalar.charge_drop(PacketKind.DATA)
        batch = BandwidthLedger()
        batch.charge_hops(PacketKind.REPAIR, 7)
        batch.charge_drops(PacketKind.DATA, 3)
        assert batch == scalar

    def test_batch_charge_of_zero_is_a_noop(self):
        ledger = BandwidthLedger()
        ledger.charge_hops(PacketKind.DATA, 0)
        ledger.charge_drops(PacketKind.DATA, 0)
        assert ledger == BandwidthLedger()

    def test_negative_batch_charges_rejected(self):
        ledger = BandwidthLedger()
        with pytest.raises(ValueError):
            ledger.charge_hops(PacketKind.DATA, -1)
        with pytest.raises(ValueError):
            ledger.charge_drops(PacketKind.DATA, -1)

    @staticmethod
    def _fast_ledger():
        # A journey sent at t=5: three hops and one drop at the send,
        # the rest later; one instant (9) is shared by a hop and a drop.
        ledger = BandwidthLedger()
        ledger.charge_fast(
            PacketKind.SESSION, 5.0,
            np.array([5.0, 7.0, 5.0, 9.0, 5.0, 12.0]),
            np.array([5.0, 9.0]),
        )
        return ledger

    def _counts(self, ledger):
        return (
            ledger.hops_by_kind[PacketKind.SESSION],
            ledger.drops_by_kind[PacketKind.SESSION],
        )

    def test_fast_charges_at_the_send_count_at_once(self):
        ledger = self._fast_ledger()
        assert self._counts(ledger) == (3, 1)
        ledger.settle(5.0)
        assert self._counts(ledger) == (3, 1)

    def test_settle_counts_charges_strictly_before_the_clock(self):
        ledger = self._fast_ledger()
        ledger.settle(9.0)  # a reader at 9 runs before the charges at 9
        assert self._counts(ledger) == (4, 1)
        ledger.settle(9.5)
        assert self._counts(ledger) == (5, 2)
        ledger.settle(9.5)  # each charge counts once
        assert self._counts(ledger) == (5, 2)
        ledger.settle(100.0)
        assert self._counts(ledger) == (6, 2)

    def test_close_counts_through_the_cutoff_and_discards_the_rest(self):
        ledger = self._fast_ledger()
        ledger.close(9.0)  # at the cutoff counts, past it never will
        assert self._counts(ledger) == (5, 2)
        ledger.settle(100.0)
        assert self._counts(ledger) == (5, 2)

    def test_settled_fast_charges_equal_scalar_charges(self):
        scalar = BandwidthLedger()
        for _ in range(6):
            scalar.charge_hop(PacketKind.SESSION)
        for _ in range(2):
            scalar.charge_drop(PacketKind.SESSION)
        fast = self._fast_ledger()
        assert fast != scalar
        fast.close(12.0)
        assert fast == scalar


class TestRecoveryLog:
    def test_detection_then_recovery(self):
        log = RecoveryLog()
        log.loss_detected(1, 0, time=10.0)
        log.recovered(1, 0, time=25.0)
        assert log.num_detected == 1
        assert log.num_recovered == 1
        assert log.latencies() == [15.0]
        assert log.mean_latency() == 15.0

    def test_redetection_keeps_first_clock(self):
        log = RecoveryLog()
        log.loss_detected(1, 0, time=10.0)
        log.loss_detected(1, 0, time=50.0)
        log.recovered(1, 0, time=60.0)
        assert log.latencies() == [50.0]

    def test_duplicate_recovery_ignored(self):
        log = RecoveryLog()
        log.loss_detected(1, 0, time=0.0)
        log.recovered(1, 0, time=5.0)
        log.recovered(1, 0, time=99.0)
        assert log.latencies() == [5.0]

    def test_recovery_without_detection_raises(self):
        log = RecoveryLog()
        with pytest.raises(ValueError):
            log.recovered(1, 0, time=5.0)

    def test_recovery_before_detection_raises(self):
        log = RecoveryLog()
        log.loss_detected(1, 0, time=10.0)
        with pytest.raises(ValueError):
            log.recovered(1, 0, time=5.0)

    def test_outstanding(self):
        log = RecoveryLog()
        log.loss_detected(1, 0, time=0.0)
        log.loss_detected(2, 3, time=0.0)
        log.recovered(1, 0, time=1.0)
        assert log.num_outstanding == 1
        assert log.outstanding() == [(2, 3)]

    def test_per_client_per_seq_independent(self):
        log = RecoveryLog()
        log.loss_detected(1, 0, time=0.0)
        log.loss_detected(1, 1, time=0.0)
        log.loss_detected(2, 0, time=0.0)
        log.recovered(1, 0, time=2.0)
        assert log.is_recovered(1, 0)
        assert not log.is_recovered(1, 1)
        assert not log.is_recovered(2, 0)

    def test_mean_latency_empty_is_none(self):
        assert RecoveryLog().mean_latency() is None

    def test_was_lost(self):
        log = RecoveryLog()
        assert not log.was_lost(1, 0)
        log.loss_detected(1, 0, time=0.0)
        assert log.was_lost(1, 0)


class TestLatencyPercentiles:
    def _log_with(self, latencies):
        log = RecoveryLog()
        for i, lat in enumerate(latencies):
            log.loss_detected(1, i, time=0.0)
            log.recovered(1, i, time=lat)
        return log

    def test_median_of_odd_set(self):
        log = self._log_with([10.0, 30.0, 20.0])
        assert log.latency_percentile(50.0) == 20.0

    def test_extremes(self):
        log = self._log_with([5.0, 1.0, 9.0])
        assert log.latency_percentile(0.0) == 1.0
        assert log.latency_percentile(100.0) == 9.0

    def test_empty_is_zero(self):
        assert RecoveryLog().latency_percentile(95.0) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RecoveryLog().latency_percentile(101.0)
        with pytest.raises(ValueError):
            RecoveryLog().latency_percentile(-1.0)

    def test_p95_at_least_median(self):
        log = self._log_with([float(i) for i in range(50)])
        assert log.latency_percentile(95.0) >= log.latency_percentile(50.0)


class TestPerClientStats:
    def test_per_client_breakdown(self):
        log = RecoveryLog()
        log.loss_detected(1, 0, 0.0)
        log.recovered(1, 0, 10.0)
        log.loss_detected(1, 1, 5.0)
        log.recovered(1, 1, 35.0)
        log.loss_detected(2, 0, 0.0)
        stats = log.per_client_stats()
        losses, mean, last = stats[1]
        assert losses == 2
        assert mean == 20.0
        assert last == 35.0
        assert stats[2] == (1, None, None)

    def test_empty_log(self):
        assert RecoveryLog().per_client_stats() == {}


class TestRetract:
    def test_retract_removes_record(self):
        log = RecoveryLog()
        log.loss_detected(1, 0, 0.0)
        log.retract(1, 0)
        assert log.num_detected == 0
        assert not log.was_lost(1, 0)

    def test_retract_unknown_is_noop(self):
        RecoveryLog().retract(9, 9)

    def test_retract_recovered_raises(self):
        log = RecoveryLog()
        log.loss_detected(1, 0, 0.0)
        log.recovered(1, 0, 1.0)
        with pytest.raises(ValueError):
            log.retract(1, 0)
