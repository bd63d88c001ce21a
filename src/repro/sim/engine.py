"""Event calendar for the discrete-event simulator.

A classic binary-heap future-event list.  Three properties matter for a
reproducible network simulation and are guaranteed here:

* **Monotonic time** — events fire in non-decreasing timestamp order;
  scheduling into the past, or running ``until`` a past time, raises
  immediately rather than corrupting causality.
* **Deterministic ties** — events with equal timestamps fire in the
  order they were scheduled (a monotone sequence number breaks heap
  ties), so two runs with the same seeds replay identically.
* **Batched entries** — :meth:`EventQueue.schedule_batch` keys ``n``
  events exactly as ``n`` consecutive :meth:`~EventQueue.schedule_at`
  calls would (one reserved block of sequence numbers), but sorts them
  once and keeps only the smallest remaining key in the heap; firing
  it pushes the batch's next key.  Every key not in the heap is larger
  than its batch's cursor, so pop order is exactly the per-event order.
  A batch counts one event per item in ``pending`` and ``processed``.
  A keep mask leaves items out without renumbering the rest: a dropped
  item's key stays reserved, so the survivors fire in the slots an
  unmasked batch gives them, and :meth:`~EventQueue.schedule_at_key`
  can put a dropped item back in its own slot later.  Callers compare
  their own keys against :attr:`~EventQueue.current_key`, the key of
  the event firing now.
* **Hop entries** — :meth:`EventQueue.schedule_entry` puts an
  uncancellable :class:`HeapEntry` on the heap itself, keyed from the
  same counter as :meth:`~EventQueue.schedule`; the network's per-hop
  walkers are such entries, so a link traversal allocates no
  :class:`Timer`.
* **O(1) cancellation** — timers are cancelled lazily by flagging; the
  heap entry is discarded when popped.  Protocol code cancels far more
  timers than it lets expire (every suppressed SRM request, every
  repaired RP timeout), so cancellation must be cheap.

Lazy cancellation alone lets the heap fill with corpses under heavy
cancel/rearm workloads (SRM's suppression timers are the worst case:
almost every scheduled request is cancelled and rescheduled).  The
queue therefore counts its cancelled-but-unpopped timers and, when the
dead fraction crosses :data:`COMPACT_MIN_DEAD` /
:data:`COMPACT_DEAD_FRACTION`, rebuilds the heap without them in one
O(live) filter + heapify.  Compaction cannot change replay order:
heap entries are ``(time, seq, timer)`` tuples, ``seq`` is unique per
queue, so entries are totally ordered by ``(time, seq)`` (the comparison
never reaches the timer and runs in C), and heapify preserves exactly
that pop order.
"""

from __future__ import annotations

import heapq
from heapq import heappush
from itertools import repeat
from typing import Any, Callable

import numpy as np

#: Compaction never triggers below this many dead timers — tiny runs
#: keep the zero-bookkeeping fast path.
COMPACT_MIN_DEAD = 64

#: ... and beyond that, only once dead timers are at least this fraction
#: of the heap (1/2 keeps amortized compaction cost O(1) per cancel).
COMPACT_DEAD_FRACTION = 0.5


class Timer:
    """Handle for a scheduled event; supports cancellation."""

    __slots__ = ("callback", "cancelled", "_queue")

    def __init__(self, callback: Callable[[], Any]):
        self.callback = callback
        self.cancelled = False
        # Owning queue while the timer sits in its heap; cleared on pop
        # or compaction so late/duplicate cancels don't skew the queue's
        # dead count.
        self._queue: "EventQueue | None" = None

    def cancel(self) -> None:
        """Prevent the callback from running; idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue._note_cancelled()

    @property
    def active(self) -> bool:
        return not self.cancelled


class HeapEntry:
    """An uncancellable object that sits in the heap itself.

    The dispatch loop reads ``cancelled`` (always False here), clears
    ``_queue`` and calls ``callback()``, exactly as for a
    :class:`Timer`, so a subclass that defines ``callback`` fires with
    no timer wrapped around it (:meth:`EventQueue.schedule_entry`).
    ``_queue`` is write-only: the loop sets it, nothing reads it.
    """

    __slots__ = ("_queue",)

    cancelled = False

    def callback(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class _Batch(HeapEntry):
    """Pre-keyed events of one :meth:`EventQueue.schedule_batch` call.

    Sits in the heap as one ``(time, seq, batch)`` cursor entry, always
    its smallest unfired key.
    """

    __slots__ = ("_owner", "_entries", "_items", "_fire", "_next")

    def __init__(self, owner: "EventQueue", items: list, fire: Callable[[Any], Any]):
        self._owner = owner
        self._entries: list[tuple[float, int, _Batch]] = []
        self._items = items
        self._fire = fire
        self._next = 1

    def callback(self) -> None:
        i = self._next
        entries = self._entries
        if i < len(entries):
            # Re-key before delivering, so a callback that raises
            # leaves the rest of the batch queued, as separate timers.
            self._next = i + 1
            owner = self._owner
            owner._batched -= 1
            heapq.heappush(owner._heap, entries[i])
            self._fire(self._items[i - 1])
        else:
            # Last item: drop the entries, which point back at this
            # batch, so reference counting frees it without the GC.
            item = self._items[i - 1]
            self._entries = self._items = None
            self._fire(item)


class EventQueue:
    """The simulator clock and future-event list."""

    def __init__(self):
        self._now = 0.0
        # (time, seq, timer) entries; the list object is never replaced,
        # so a dispatch loop may hold it across callbacks that compact.
        self._heap: list[tuple[float, int, Timer | HeapEntry]] = []
        self._seq = 0
        # Sequence number of the event firing now (see current_key).
        self._current = -1
        self._processed = 0
        # Cancelled timers still sitting in the heap; drives compaction
        # and makes `pending` O(1).
        self._cancelled = 0
        # Unfired batch items beyond each batch's one heap entry, so
        # `pending` and the compaction threshold see per-event counts.
        self._batched = 0
        self._compactions = 0
        # Set by stop(); the dispatch loop returns after the event that
        # set it (or, set between runs, after the next run's first).
        self._stopping = False

    @property
    def now(self) -> float:
        """Current simulation time (milliseconds by convention)."""
        return self._now

    @property
    def current_key(self) -> tuple[float, int]:
        """``(time, sequence number)`` of the event firing now.

        Every key the queue has handed out (:meth:`schedule_batch`
        returns them) compares below it exactly when that event has
        fired, or would have had it not been dropped.  Between
        :meth:`run` calls that stopped at a deadline or drained the
        queue, it sits above every key reserved so far at ``now``.
        """
        return (self._now, self._current)

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events."""
        return len(self._heap) - self._cancelled + self._batched

    @property
    def cancelled_pending(self) -> int:
        """Cancelled timers still occupying heap slots (dead weight)."""
        return self._cancelled

    @property
    def compactions(self) -> int:
        """How many times the heap was rebuilt to shed cancelled timers."""
        return self._compactions

    @property
    def processed(self) -> int:
        """Total events executed so far (cancelled ones excluded)."""
        return self._processed

    def schedule(self, delay: float, callback: Callable[[], Any]) -> Timer:
        """Run ``callback`` after ``delay`` time units; returns its timer."""
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> Timer:
        """Run ``callback`` at absolute ``time``; returns its timer."""
        if not time >= self._now:  # also rejects NaN
            raise ValueError(
                f"cannot schedule at {time}, current time is {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        return self._push(time, seq, callback)

    def schedule_entry(self, delay: float, entry: HeapEntry) -> None:
        """Run ``entry.callback()`` after ``delay`` time units.

        Keyed exactly as :meth:`schedule` would key it, from the same
        sequence counter, but ``entry`` goes on the heap itself: no
        :class:`Timer` is allocated and nothing can cancel it.  The
        network's per-hop walkers use it, one entry per link traversal.
        """
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self._now + delay, seq, entry))

    def schedule_at_key(
        self, time: float, seq: int, callback: Callable[[], Any]
    ) -> Timer:
        """Run ``callback`` at the key ``(time, seq)`` that an earlier
        :meth:`schedule_batch` reserved for an item it dropped.

        The event fires exactly where that item would have.  The key
        must still lie ahead of :attr:`current_key`.
        """
        if not seq < self._seq or not (time, seq) > (self._now, self._current):
            raise ValueError(
                f"key ({time}, {seq}) is not a reserved key ahead of "
                f"{self.current_key}"
            )
        return self._push(time, seq, callback)

    def _push(self, time: float, seq: int, callback: Callable[[], Any]) -> Timer:
        timer = Timer(callback)
        timer._queue = self
        heapq.heappush(self._heap, (time, seq, timer))
        return timer

    def schedule_batch(
        self, times, items, fire: Callable[[Any], Any], keep=None
    ) -> int:
        """Run ``fire(items[i])`` at absolute ``times[i]`` for every ``i``
        where ``keep[i]`` (every ``i`` without a mask).

        Keyed exactly as ``len(times)`` consecutive :meth:`schedule_at`
        calls in index order (equal times fire in index order), so the
        replay is identical; the batch cannot be cancelled.  Item ``i``
        gets the key ``(times[i], seq0 + i)`` whether it is kept or not,
        so dropping items never moves the others.  ``times``, ``items``
        and ``keep`` are equal-length 1-D arrays (or sequences of
        scalars); each item reaches ``fire`` as a Python scalar.
        Returns ``seq0``.
        """
        times = np.asarray(times, dtype=np.float64)
        items = np.asarray(items)
        if times.ndim != 1 or items.shape != times.shape:
            raise ValueError(
                f"times {times.shape} and items {items.shape} must be "
                "equal-length 1-D arrays"
            )
        seq0 = self._seq
        n = times.size
        if not n:
            return seq0
        earliest = times.min()  # NaN-propagating
        if not earliest >= self._now:  # also rejects NaN
            raise ValueError(
                f"cannot schedule at {earliest}, current time is {self._now}"
            )
        if keep is None:
            order = np.argsort(times, kind="stable")
        else:
            keep = np.asarray(keep, dtype=bool)
            if keep.shape != times.shape:
                raise ValueError(
                    f"keep {keep.shape} must match times {times.shape}"
                )
            kept = np.flatnonzero(keep)
            order = kept[np.argsort(times[kept], kind="stable")]
        self._seq = seq0 + n
        m = order.size
        if not m:
            return seq0
        batch = _Batch(self, items[order].tolist(), fire)
        batch._entries = entries = list(zip(
            times[order].tolist(), (order + seq0).tolist(), repeat(batch, m)
        ))
        self._batched += m - 1
        heapq.heappush(self._heap, entries[0])
        return seq0

    def _note_cancelled(self) -> None:
        """A timer in the heap was cancelled; compact when mostly dead."""
        self._cancelled += 1
        if (
            self._cancelled >= COMPACT_MIN_DEAD
            and self._cancelled
            >= COMPACT_DEAD_FRACTION * (len(self._heap) + self._batched)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled timers (order-preserving)."""
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0
        self._compactions += 1

    def step(self) -> bool:
        """Execute the next event; returns False when the queue is empty."""
        heap = self._heap
        while heap:
            at, seq, timer = heapq.heappop(heap)
            if timer.cancelled:
                self._cancelled -= 1
                continue
            timer._queue = None
            self._now = at
            self._current = seq
            self._processed += 1
            timer.callback()
            return True
        return False

    def stop(self) -> None:
        """End the current :meth:`run` right after the event firing now
        (e.g. "all clients fully recovered").  Called between runs, it
        ends the next run after its first event."""
        self._stopping = True

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
    ) -> None:
        """Drain the event list.

        Parameters
        ----------
        until:
            Stop once the next event would fire after this time (the
            clock is still advanced to ``until``).
        max_events:
            Safety valve against runaway protocols; raises
            ``RuntimeError`` when exceeded.

        A callback may end the run early with :meth:`stop`.
        """
        if until is not None and not until >= self._now:  # also rejects NaN
            raise ValueError(
                f"cannot run until {until}, current time is {self._now}"
            )
        heap = self._heap
        heappop = heapq.heappop
        executed = 0
        while heap:
            at, seq, timer = heap[0]
            if timer.cancelled:
                heappop(heap)
                self._cancelled -= 1
                continue
            if until is not None and at > until:
                self._now = until
                self._current = self._seq
                return
            if max_events is not None and executed >= max_events:
                raise RuntimeError(
                    f"event budget exceeded ({max_events} events) at t={self._now}"
                )
            heappop(heap)
            # Clock and counters first: callbacks read `pending`/`processed`.
            timer._queue = None
            self._now = at
            self._current = seq
            self._processed += 1
            timer.callback()
            executed += 1
            if self._stopping:
                self._stopping = False
                return
        # Fully drained: every cancelled timer must have been popped or
        # compacted away, and every batch fired out, or a count has
        # drifted (a bug).
        assert self._cancelled == 0 and self._batched == 0, (
            f"calendar counts drifted: {self._cancelled} cancelled, "
            f"{self._batched} batched with empty heap"
        )
        self._current = self._seq
        if until is not None and until > self._now:
            self._now = until
