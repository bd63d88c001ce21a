"""Tests for the event calendar: ordering, determinism, cancellation."""

import gc
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import engine
from repro.sim.engine import (
    COMPACT_DEAD_FRACTION,
    COMPACT_MIN_DEAD,
    EventQueue,
)


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

    def test_until_in_the_past_is_rejected(self):
        # Regression: run(until=5) after run(until=15) moved the clock
        # back to 5, so schedule_at(6) then fired after the t=10 event.
        q = EventQueue()
        fired = []
        q.schedule_at(10.0, lambda: fired.append(10))
        q.schedule_at(20.0, lambda: fired.append(20))
        q.run(until=15.0)
        with pytest.raises(ValueError):
            q.run(until=5.0)
        with pytest.raises(ValueError):
            q.run(until=float("nan"))
        assert q.now == 15.0
        with pytest.raises(ValueError):
            q.schedule_at(6.0, lambda: fired.append(6))
        q.run(until=15.0)  # until == now is a no-op, not an error
        q.run()
        assert fired == [10, 20]

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

    def test_stop_halts_after_the_calling_event(self):
        q = EventQueue()
        fired = []

        def fire(i):
            fired.append(i)
            if len(fired) == 3:
                q.stop()

        for i in range(10):
            q.schedule(float(i + 1), lambda i=i: fire(i))
        q.run()
        assert fired == [0, 1, 2]
        assert q.now == 3.0 and q.pending == 7
        # The request was used up: the next run drains.
        q.run()
        assert len(fired) == 10

    def test_stop_between_runs_ends_the_next_after_one_event(self):
        q = EventQueue()
        fired = []
        for i in range(3):
            q.schedule(float(i + 1), lambda i=i: fired.append(i))
        q.stop()
        q.run()
        assert fired == [0]
        q.run()
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

    def test_compaction_inside_run_preserves_replay_order(self):
        # Callbacks cancel the doomed timers while run() is dispatching,
        # so the heap is rebuilt under the dispatch loop.
        fired_plain = []
        q1 = EventQueue()
        for i in range(300):
            q1.schedule(float(i % 7), lambda i=i: fired_plain.append(i))
        q1.run()

        fired_churn = []
        q2 = EventQueue()
        doomed = []

        def live(i):
            fired_churn.append(i)
            for _ in range(min(40, len(doomed))):
                doomed.pop().cancel()

        for i in range(300):
            q2.schedule(float(i % 7), lambda i=i: live(i))
            doomed.append(
                q2.schedule(i % 7 + 0.5, lambda: fired_churn.append("doomed"))
            )
        assert q2.compactions == 0
        q2.run()
        assert q2.compactions >= 1
        assert fired_churn == fired_plain
        assert q2.cancelled_pending == 0
        assert q2.processed == 300

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


class TestBatch:
    """``schedule_batch`` must replay exactly as the same ``n``
    ``schedule_at`` calls in index order: firing order, clock,
    ``processed`` and ``pending`` at every delivery."""

    @staticmethod
    def _pair(script):
        """Run ``script(q, add, log)`` twice.  ``add(times, labels,
        then=None)`` schedules one batch on the first queue and the same
        ``schedule_at`` loop on the second; each delivery logs its label
        and the queue's state, then calls ``then(label)``.  Returns the
        (equal) log and the batched queue."""
        results = []
        for batched in (True, False):
            q = EventQueue()
            log = []

            def add(times, labels, then=None, q=q, log=log, batched=batched):
                def fire(label):
                    log.append((label, q.now, q.processed, q.pending))
                    if then is not None:
                        then(label)

                if batched:
                    q.schedule_batch(times, labels, fire)
                else:
                    for t, label in zip(times, labels):
                        q.schedule_at(t, lambda label=label: fire(label))

            script(q, add, log)
            results.append((log, q))
        (log_b, q_b), (log_s, q_s) = results
        assert log_b == log_s
        assert (q_b.now, q_b.processed, q_b.pending, q_b.compactions) == (
            q_s.now, q_s.processed, q_s.pending, q_s.compactions
        )
        return log_b, q_b

    def test_ties_inside_a_batch_fire_in_index_order(self):
        def script(q, add, log):
            add([2.0, 1.0, 2.0, 1.0, 0.5], [0, 1, 2, 3, 4])
            q.run()

        log, _ = self._pair(script)
        assert [label for label, *_ in log] == [4, 1, 3, 0, 2]

    def test_ties_across_batches_and_timers(self):
        def script(q, add, log):
            q.schedule_at(1.0, lambda: log.append(("t0", q.now)))
            add([1.0, 0.0, 1.0], ["a0", "a1", "a2"])
            q.schedule_at(1.0, lambda: log.append(("t1", q.now)))
            add([1.0, 1.0], ["b0", "b1"])
            q.schedule_at(0.0, lambda: log.append(("t2", q.now)))
            q.run()

        log, _ = self._pair(script)
        assert [entry[0] for entry in log] == [
            "a1", "t2", "t0", "a0", "a2", "t1", "b0", "b1",
        ]

    def test_one_heap_entry_per_batch(self):
        q = EventQueue()
        q.schedule_batch([3.0, 1.0, 2.0], [0, 1, 2], lambda i: None)
        assert len(q._heap) == 1
        assert q.pending == 3
        assert q.step()
        assert (q.now, q.processed, q.pending, len(q._heap)) == (1.0, 1, 2, 1)
        q.run()
        assert (q.processed, q.pending, len(q._heap)) == (3, 0, 0)

    def test_batch_scheduled_from_a_batch_delivery(self):
        def script(q, add, log):
            def spawn(label):
                if label == "a1":
                    add([q.now, q.now + 1.0, q.now], ["c0", "c1", "c2"])

            add([1.0, 2.0, 2.0, 3.0], ["a0", "a1", "a2", "a3"], spawn)
            q.run()

        log, _ = self._pair(script)
        assert [entry[0] for entry in log] == [
            "a0", "a1", "a2", "c0", "c2", "a3", "c1",
        ]
        assert log[1] == ("a1", 2.0, 2, 2)
        assert log[2] == ("a2", 2.0, 3, 4)

    def test_until_lands_mid_batch(self):
        def script(q, add, log):
            add([1.0, 2.0, 3.0, 4.0], [0, 1, 2, 3])
            q.run(until=2.5)
            log.append(("cut", q.now, q.processed, q.pending))
            q.run(until=3.0)
            log.append(("cut", q.now, q.processed, q.pending))
            q.run()

        log, _ = self._pair(script)
        assert log[2] == ("cut", 2.5, 2, 2)
        assert log[4] == ("cut", 3.0, 3, 1)

    def test_stop_lands_mid_batch(self):
        def script(q, add, log):
            add([1.0, 1.0, 2.0, 3.0], [0, 1, 2, 3],
                then=lambda label: label == 1 and q.stop())
            q.run()
            log.append(("stop", q.now, q.processed, q.pending))
            q.run()

        log, _ = self._pair(script)
        assert log[2] == ("stop", 1.0, 2, 2)

    def test_max_events_lands_mid_batch(self):
        def script(q, add, log):
            add([1.0, 2.0, 3.0, 4.0, 5.0], [0, 1, 2, 3, 4])
            with pytest.raises(RuntimeError):
                q.run(max_events=3)
            log.append(("budget", q.now, q.processed, q.pending))
            q.run(max_events=2)

        log, _ = self._pair(script)
        assert log[3] == ("budget", 3.0, 3, 2)
        assert len(log) == 6

    def test_raising_delivery_leaves_the_rest_queued(self):
        def script(q, add, log):
            def boom(label):
                if label == 1:
                    raise KeyError(label)

            add([1.0, 2.0, 3.0], [0, 1, 2], boom)
            with pytest.raises(KeyError):
                q.run()
            log.append(("raised", q.now, q.processed, q.pending))
            q.run()

        log, _ = self._pair(script)
        assert log[2:] == [("raised", 2.0, 2, 1), (2, 3.0, 3, 0)]

    def test_compaction_with_a_batch_in_flight(self):
        def script(q, add, log):
            doomed = [
                q.schedule_at(10.0 + i, lambda: log.append("doomed"))
                for i in range(COMPACT_MIN_DEAD * 2)
            ]
            add([float(i % 5) for i in range(COMPACT_MIN_DEAD * 3)],
                list(range(COMPACT_MIN_DEAD * 3)))

            def cancel_some():
                for _ in range(COMPACT_MIN_DEAD):
                    doomed.pop().cancel()

            # The threshold counts every unfired batch item, so the same
            # cancels compact at the same moment on both queues.
            q.schedule_at(2.0, cancel_some)
            q.schedule_at(3.0, cancel_some)
            q.run()

        log, q = self._pair(script)
        assert q.compactions >= 1
        assert "doomed" not in log
        assert q.cancelled_pending == 0

    @pytest.mark.parametrize("n", [1, 3])
    def test_spent_batch_is_freed_without_the_collector(self, n):
        class Fire:
            def __call__(self, item):
                pass

        fire = Fire()
        alive = weakref.ref(fire)
        q = EventQueue()
        q.schedule_batch([2.0] * n, list(range(n)), fire)
        del fire
        gc.disable()
        try:
            q.run()
            # Reference counting alone must free the batch (and with it
            # its fire callable): no cycle is left for the collector.
            assert alive() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "times", [[1.0, 0.5, 2.0], [1.0, float("nan"), 2.0], [float("nan")]]
    )
    def test_rejects_past_and_nan_times_consuming_nothing(self, times):
        q = EventQueue()
        q.run(until=0.75)
        fired = []
        with pytest.raises(ValueError):
            q.schedule_batch(times, list(range(len(times))), fired.append)
        assert (q.pending, len(q._heap), q._seq) == (0, 0, 0)
        q.run()
        assert fired == []
        assert q.now == 0.75

    def test_rejects_mismatched_shapes(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule_batch([1.0, 2.0], [0], lambda i: None)
        with pytest.raises(ValueError):
            q.schedule_batch([[1.0]], [[0]], lambda i: None)

    def test_empty_batch_is_a_no_op(self):
        q = EventQueue()
        q.schedule_batch([], [], lambda i: None)
        assert (q.pending, len(q._heap), q._seq) == (0, 0, 0)


class TestKeepMask:
    """A batch with a keep mask keys its survivors exactly as the
    unmasked batch would, and a dropped item scheduled later at its
    reserved key fires in its original slot."""

    TIMES = [2.0, 1.0, 2.0, 1.0, 1.0, 3.0, 1.0]
    KEEP = [True, False, True, False, True, False, True]

    def _log(self, keep=None, restore=()):
        """Fire order with each event's key: two timers tie with the
        batch at t=1 and t=2; the first one puts the ``restore`` items
        back at their reserved keys from inside the run."""
        q = EventQueue()
        log = []

        def note(label):
            log.append((label, q.current_key))

        def put_back():
            note("t0")
            for i in restore:
                q.schedule_at_key(
                    self.TIMES[i], seq0 + i, lambda i=i: note(i)
                )

        q.schedule_at(1.0, put_back)
        seq0 = q.schedule_batch(self.TIMES, range(len(self.TIMES)), note, keep)
        q.schedule_at(1.0, lambda: note("t1"))
        q.schedule_at(2.0, lambda: note("t2"))
        assert q.pending == 3 + (len(self.TIMES) if keep is None else sum(keep))
        q.run()
        assert q.processed == len(log)
        return log

    def test_survivors_fire_at_their_unmasked_keys(self):
        full = self._log()
        dropped = {i for i, kept in enumerate(self.KEEP) if not kept}
        assert self._log(self.KEEP) == [e for e in full if e[0] not in dropped]
        # The ties at t=1 interleave timers and survivors by key.
        assert [e[0] for e in self._log(self.KEEP)] == [
            "t0", 4, 6, "t1", 0, 2, "t2",
        ]

    def test_item_put_back_at_its_reserved_key_fires_in_its_slot(self):
        full = self._log()
        put_back = self._log(self.KEEP, restore=(3, 5))
        assert put_back == [e for e in full if e[0] != 1]

    def test_all_dropped_batch_reserves_its_keys_only(self):
        q = EventQueue()
        seq0 = q.schedule_batch([1.0, 2.0], [0, 1], lambda i: None, [False] * 2)
        assert (seq0, q._seq, q.pending, len(q._heap)) == (0, 2, 0, 0)
        fired = []
        q.schedule_at(1.0, lambda: fired.append(q.current_key))
        q.run()
        assert fired == [(1.0, 2)] and q.processed == 1

    def test_rejects_mismatched_mask(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule_batch([1.0, 2.0], [0, 1], lambda i: None, [True])

    def test_reserved_key_must_be_reserved_and_ahead(self):
        q = EventQueue()
        seq0 = q.schedule_batch([1.0, 2.0], [0, 1], lambda i: None, [True, False])
        with pytest.raises(ValueError):  # never handed out
            q.schedule_at_key(3.0, seq0 + 2, lambda: None)
        q.run(until=2.0)
        with pytest.raises(ValueError):  # would have fired already
            q.schedule_at_key(2.0, seq0 + 1, lambda: None)

    def test_current_key_passes_every_reserved_key_at_a_deadline(self):
        q = EventQueue()
        seq0 = q.schedule_batch([1.0, 1.0], [0, 1], lambda i: None, [True, False])
        assert q.current_key == (0.0, -1)
        q.step()
        assert q.current_key == (1.0, seq0)
        assert q.current_key < (1.0, seq0 + 1)
        q.run(until=1.0)
        assert q.current_key > (1.0, seq0 + 1)


class _Hop(engine.HeapEntry):
    """A hop entry that logs its label and the queue's state when it fires."""

    __slots__ = ("label", "log", "q")

    def __init__(self, q, label, log):
        self.q, self.label, self.log = q, label, log

    def callback(self):
        q = self.q
        self.log.append((self.label, q.now, q.processed, q.pending))


class TestScheduleEntry:
    """``schedule_entry`` keys a hop entry exactly as ``schedule`` keys a
    timer, from the same counter, and puts the entry itself on the heap."""

    def test_interleaves_with_timers_on_one_counter(self):
        # The same script twice: hop entries where the second run uses
        # timers.  Equal times fire in scheduling order either way.
        logs = []
        for hops in (True, False):
            q, log = EventQueue(), []

            def add(delay, label, q=q, log=log, hops=hops):
                if hops:
                    q.schedule_entry(delay, _Hop(q, label, log))
                else:
                    hop = _Hop(q, label, log)
                    q.schedule(delay, hop.callback)

            q.schedule(1.0, lambda q=q, log=log: log.append(("t0", q.now)))
            add(1.0, "h0")
            q.schedule_at(0.5, lambda q=q, log=log: log.append(("t1", q.now)))
            add(0.5, "h1")
            add(1.0, "h2")
            q.schedule(1.0, lambda q=q, log=log: log.append(("t2", q.now)))
            assert q._seq == 6
            q.run()
            logs.append(log)
        assert logs[0] == logs[1]
        assert [entry[0] for entry in logs[0]] == [
            "t1", "h1", "t0", "h0", "h2", "t2",
        ]

    def test_allocates_no_timer(self):
        q = EventQueue()
        with mock.patch.object(engine, "Timer") as timer:
            q.schedule_entry(1.0, _Hop(q, "h", []))
        timer.assert_not_called()
        ((at, seq, entry),) = q._heap
        assert (at, seq, type(entry)) == (1.0, 0, _Hop)

    def test_pending_step_and_run_until(self):
        q, log = EventQueue(), []
        for i in range(4):
            q.schedule_entry(float(i + 1), _Hop(q, i, log))
        assert q.pending == 4
        assert q.step()
        assert log == [(0, 1.0, 1, 3)]
        q.run(until=2.5)
        assert (q.now, q.processed, q.pending) == (2.5, 2, 2)
        assert q.current_key == (2.5, 4)
        q.run()
        assert [label for label, *_ in log] == [0, 1, 2, 3]
        assert (q.now, q.pending, len(q._heap)) == (4.0, 0, 0)

    def test_compaction_keeps_hop_entries(self):
        q, log = EventQueue(), []
        for i in range(3):
            q.schedule_entry(100.0 + i, _Hop(q, i, log))
        doomed = [q.schedule(float(i + 1), lambda: None) for i in range(200)]
        for timer in doomed:
            timer.cancel()
        assert q.compactions >= 1
        assert q.pending == 3
        q._compact()
        assert len(q._heap) == 3
        q.run()
        assert [label for label, *_ in log] == [0, 1, 2]

    @pytest.mark.parametrize("delay", [-1.0, -1e-300, float("nan")])
    def test_rejects_negative_and_nan_delays(self, delay):
        q, log = EventQueue(), []
        with pytest.raises(ValueError, match="into the past"):
            q.schedule_entry(delay, _Hop(q, "h", log))
        assert (q._seq, q.pending, len(q._heap)) == (0, 0, 0)
        q.run()
        assert log == []


class _CalendarModel:
    """Reference calendar: a sorted list with the same lazy-cancel and
    compaction bookkeeping as :class:`EventQueue`, but no heap.  Items
    in ``dropped`` (masked out of their batch) never enter it."""

    def __init__(self, times, kills, min_dead, dropped=()):
        self.times = times
        self.min_dead = min_dead
        self.kills = kills
        self.queue = sorted(
            (i for i in range(len(times)) if i not in dropped),
            key=lambda i: (times[i], i),
        )
        self.cancelled = set()
        self.dead = 0
        self.fired = []
        self.now = 0.0

    @property
    def pending(self):
        return len(self.queue) - self.dead

    def cancel(self, i):
        if i in self.cancelled:
            return
        self.cancelled.add(i)
        if i in self.queue:
            self.dead += 1
            if (
                self.dead >= self.min_dead
                and self.dead >= COMPACT_DEAD_FRACTION * len(self.queue)
            ):
                self.queue = [j for j in self.queue if j not in self.cancelled]
                self.dead = 0

    def _fire(self, i):
        self.now = self.times[i]
        self.fired.append(i)
        for victim in self.kills.get(i, ()):
            self.cancel(victim)

    def step(self):
        while self.queue:
            i = self.queue.pop(0)
            if i in self.cancelled:
                self.dead -= 1
                continue
            self._fire(i)
            return

    def run(self, until=None):
        while self.queue:
            i = self.queue[0]
            if i in self.cancelled:
                self.queue.pop(0)
                self.dead -= 1
                continue
            if until is not None and self.times[i] > until:
                break
            self.queue.pop(0)
            self._fire(i)
        if until is not None:
            self.now = until


class TestModel:
    """The calendar against a sorted-list model: many ties, cancels up
    front and from callbacks, drained by a mix of run(until) and step()."""

    # Twice the default examples: about half draw batches, and the other
    # half keep the batch-free model test's coverage.
    @settings(max_examples=200)
    @given(st.data())
    def test_matches_sorted_list_model(self, data):
        # A lowered compaction floor makes small examples compact, often
        # from inside a callback while run() is dispatching.
        min_dead = data.draw(
            st.sampled_from([1, 3, COMPACT_MIN_DEAD]), label="min_dead"
        )
        with mock.patch.object(engine, "COMPACT_MIN_DEAD", min_dead):
            self._check_against_model(data, min_dead)

    def _check_against_model(self, data, min_dead):
        time_st = st.integers(0, 5).map(float)
        singles = data.draw(
            st.lists(
                st.tuples(
                    time_st,
                    st.sampled_from(["live", "up_front", "callback"]),
                ),
                max_size=200,
            ),
            label="fates",
        )
        # Batches of deliveries, each scheduled by one schedule_batch
        # call just before singles[pos], some items masked out of their
        # batch ("dropped": keys reserved, never fired).  Batches cannot
        # be cancelled and their items dilute the dead fraction, so
        # they are drawn apart from the up-to-200 cancellable singles
        # (which can still reach the real COMPACT_MIN_DEAD), and only in
        # some examples: the rest are the batch-free model test.
        inserts = []
        if data.draw(st.booleans(), label="with_batches"):
            inserts = data.draw(
                st.lists(
                    st.tuples(
                        st.integers(0, len(singles)),
                        st.lists(
                            st.tuples(
                                time_st,
                                st.sampled_from(["batch", "dropped"]),
                            ),
                            min_size=1, max_size=8,
                        ),
                    ),
                    min_size=1,
                    max_size=20,
                ),
                label="batches",
            )
        inserts.sort(key=lambda insert: insert[0])
        fates = []
        batches = []
        for pos in range(len(singles) + 1):
            while inserts and inserts[0][0] == pos:
                group = inserts.pop(0)[1]
                batches.append((len(fates), len(fates) + len(group)))
                fates.extend(group)
            if pos < len(singles):
                fates.append(singles[pos])
        batch_of = {first: last for first, last in batches}
        times = [t for t, _ in fates]
        up_front = [
            i for i, (_, fate) in enumerate(fates) if fate == "up_front"
        ]
        # Each "callback" timer is cancelled by another timer's callback
        # (possibly one that fires after it, or itself).
        kills = {}
        for i, (_, fate) in enumerate(fates):
            if fate == "callback":
                killer = data.draw(
                    st.integers(0, len(fates) - 1), label="killer"
                )
                kills.setdefault(killer, []).append(i)
        ops = data.draw(
            st.lists(
                st.one_of(
                    st.just(None), st.sampled_from([0.0, 0.5, 1.0, 2.0])
                ),
                max_size=12,
            ),
            label="ops",
        )

        q = EventQueue()
        fired = []
        timers = []

        def callback(i):
            fired.append(i)
            for victim in kills.get(i, ()):
                timers[victim].cancel()

        i = 0
        while i < len(times):
            if i in batch_of:
                last = batch_of[i]
                q.schedule_batch(
                    times[i:last], range(i, last), callback,
                    [fate == "batch" for _, fate in fates[i:last]],
                )
                timers.extend([None] * (last - i))
                i = last
                continue
            timers.append(q.schedule_at(times[i], lambda i=i: callback(i)))
            i += 1
        dropped = {
            i for i, (_, fate) in enumerate(fates) if fate == "dropped"
        }
        model = _CalendarModel(times, kills, min_dead, dropped)
        for i in up_front:
            timers[i].cancel()
            model.cancel(i)

        def check():
            assert fired == model.fired
            assert q.now == model.now
            assert q.pending == model.pending
            assert q.cancelled_pending == model.dead
            assert q.processed == len(model.fired)

        check()
        for op in ops:
            if op is None:
                q.step()
                model.step()
            else:
                q.run(until=q.now + op)
                model.run(until=model.now + op)
            check()
        q.run()
        model.run()
        check()
        assert q.cancelled_pending == 0
        # The reference order: every timer not cancelled before its turn,
        # by (time, scheduling order).
        assert fired == sorted(fired, key=lambda i: (times[i], i))
