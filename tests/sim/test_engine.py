"""Tests for the event calendar: ordering, determinism, cancellation."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import COMPACT_MIN_DEAD, EventQueue


class TestScheduling:
    def test_events_fire_in_time_order(self):
        q = EventQueue()
        fired = []
        q.schedule(3.0, lambda: fired.append("c"))
        q.schedule(1.0, lambda: fired.append("a"))
        q.schedule(2.0, lambda: fired.append("b"))
        q.run()
        assert fired == ["a", "b", "c"]

    def test_equal_times_fire_fifo(self):
        q = EventQueue()
        fired = []
        for label in "abcde":
            q.schedule(5.0, lambda label=label: fired.append(label))
        q.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        q = EventQueue()
        seen = []
        q.schedule(4.5, lambda: seen.append(q.now))
        q.run()
        assert seen == [4.5]
        assert q.now == 4.5

    def test_nested_scheduling(self):
        q = EventQueue()
        fired = []

        def outer():
            fired.append(("outer", q.now))
            q.schedule(2.0, lambda: fired.append(("inner", q.now)))

        q.schedule(1.0, outer)
        q.run()
        assert fired == [("outer", 1.0), ("inner", 3.0)]

    def test_rejects_negative_delay(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule(-1.0, lambda: None)

    def test_rejects_scheduling_into_past(self):
        q = EventQueue()
        q.schedule(5.0, lambda: None)
        q.run()
        with pytest.raises(ValueError):
            q.schedule_at(3.0, lambda: None)

    def test_rejects_nan_times(self):
        # NaN compares false against everything, so a `<` guard let it
        # through: the callback fired and the clock read NaN.
        q = EventQueue()
        fired = []
        with pytest.raises(ValueError):
            q.schedule(float("nan"), lambda: fired.append(q.now))
        with pytest.raises(ValueError):
            q.schedule_at(float("nan"), lambda: fired.append(q.now))
        q.run()
        assert fired == []
        assert q.now == 0.0

    def test_schedule_at_now_is_allowed(self):
        q = EventQueue()
        fired = []
        q.schedule(0.0, lambda: fired.append(q.now))
        q.run()
        assert fired == [0.0]


class TestCancellation:
    def test_cancelled_timer_does_not_fire(self):
        q = EventQueue()
        fired = []
        timer = q.schedule(1.0, lambda: fired.append("x"))
        timer.cancel()
        q.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        timer = q.schedule(1.0, lambda: None)
        timer.cancel()
        timer.cancel()
        assert not timer.active

    def test_cancel_from_within_event(self):
        q = EventQueue()
        fired = []
        late = q.schedule(2.0, lambda: fired.append("late"))
        q.schedule(1.0, late.cancel)
        q.run()
        assert fired == []

    def test_pending_excludes_cancelled(self):
        q = EventQueue()
        t1 = q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        t1.cancel()
        assert q.pending == 1

    def test_processed_counts_fired_only(self):
        q = EventQueue()
        t = q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        t.cancel()
        q.run()
        assert q.processed == 1


class TestRunControls:
    def test_until_stops_and_advances_clock(self):
        q = EventQueue()
        fired = []
        q.schedule(1.0, lambda: fired.append(1))
        q.schedule(10.0, lambda: fired.append(10))
        q.run(until=5.0)
        assert fired == [1]
        assert q.now == 5.0
        q.run()
        assert fired == [1, 10]

    def test_until_with_empty_queue_advances_clock(self):
        q = EventQueue()
        q.run(until=7.0)
        assert q.now == 7.0

    def test_max_events_raises(self):
        q = EventQueue()

        def rearm():
            q.schedule(1.0, rearm)

        q.schedule(1.0, rearm)
        with pytest.raises(RuntimeError):
            q.run(max_events=100)

    def test_max_events_budget_is_exact(self):
        # Regression: the old guard (`executed > max_events`) let
        # max_events + 1 events run before raising.
        q = EventQueue()
        fired = []
        for i in range(10):
            q.schedule(float(i + 1), lambda i=i: fired.append(i))
        with pytest.raises(RuntimeError):
            q.run(max_events=4)
        assert fired == [0, 1, 2, 3]
        assert q.processed == 4

    def test_max_events_exactly_enough_completes(self):
        # A queue holding exactly max_events events must drain cleanly.
        q = EventQueue()
        fired = []
        for i in range(5):
            q.schedule(float(i + 1), lambda i=i: fired.append(i))
        q.run(max_events=5)
        assert fired == [0, 1, 2, 3, 4]
        assert q.processed == 5

    def test_stop_when_halts_early(self):
        q = EventQueue()
        fired = []
        for i in range(10):
            q.schedule(float(i + 1), lambda i=i: fired.append(i))
        q.run(stop_when=lambda: len(fired) >= 3)
        assert fired == [0, 1, 2]

    def test_step_returns_false_when_empty(self):
        q = EventQueue()
        assert not q.step()
        q.schedule(1.0, lambda: None)
        assert q.step()
        assert not q.step()

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=60))
    def test_property_fire_times_sorted(self, delays):
        q = EventQueue()
        times = []
        for d in delays:
            q.schedule(d, lambda: times.append(q.now))
        q.run()
        assert times == sorted(times)
        assert len(times) == len(delays)


class TestCompaction:
    """Lazy cancelled-timer compaction: the heap must stay bounded under
    heavy cancel/rearm workloads (SRM suppression, RP repair races)."""

    def test_cancelled_pending_counter(self):
        q = EventQueue()
        timers = [q.schedule(float(i + 1), lambda: None) for i in range(10)]
        for t in timers[:4]:
            t.cancel()
        assert q.cancelled_pending == 4
        assert q.pending == 6

    def test_pending_is_consistent_after_compaction(self):
        q = EventQueue()
        live = [q.schedule(1000.0 + i, lambda: None) for i in range(10)]
        dead = [q.schedule(float(i + 1), lambda: None) for i in range(500)]
        for t in dead:
            t.cancel()
        assert q.compactions >= 1
        # Residual dead weight stays below the compaction floor.
        assert q.cancelled_pending < COMPACT_MIN_DEAD
        assert q.pending == len(live)

    def test_heap_bounded_under_cancel_rearm(self):
        # The regression: before compaction, N cancel/rearm cycles left
        # N dead timers in the heap. Now the heap stays O(live).
        q = EventQueue()
        timer = q.schedule(1.0, lambda: None)
        for i in range(10_000):
            timer.cancel()
            timer = q.schedule(float(i + 2), lambda: None)
        assert len(q._heap) < 200
        assert q.pending == 1

    def test_compaction_preserves_replay_order(self):
        fired_plain = []
        q1 = EventQueue()
        for i in range(300):
            q1.schedule(float(i % 7), lambda i=i: fired_plain.append(i))
        q1.run()

        fired_churn = []
        q2 = EventQueue()
        # Same schedule, but interleave enough cancelled timers to force
        # at least one compaction before anything fires.
        doomed = [q2.schedule(50.0 + i, lambda: None) for i in range(400)]
        for i in range(300):
            q2.schedule(float(i % 7), lambda i=i: fired_churn.append(i))
        for t in doomed:
            t.cancel()
        assert q2.compactions >= 1
        q2.run()
        assert fired_churn == fired_plain

    def test_cancel_after_fire_does_not_skew_count(self):
        q = EventQueue()
        t = q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        q.run()
        t.cancel()  # late cancel of an already-fired timer
        assert q.cancelled_pending == 0
        assert q.pending == 0

    def test_drain_leaves_no_dead_weight(self):
        q = EventQueue()
        for i in range(100):
            t = q.schedule(float(i + 1), lambda: None)
            if i % 2:
                t.cancel()
        q.run()
        assert q.cancelled_pending == 0
        assert len(q._heap) == 0
        assert q.processed == 50
