"""How fast the host runs this process, sampled while the work runs.

The benchmark's reference machine is a 2-core VM on a shared host.  The
same work runs up to twice as slow there in some stretches as in
others, and a stretch lasts from well under a second to minutes, so a
run of one workload can fall mostly in a slow one.  A mean or median
over the run's repetitions moves with that.

:func:`sample` times a fixed pure-Python kernel shaped like the
simulator's inner loop (heap pops and pushes of ``(time, seq, node)``
tuples, attribute and dict updates).  :class:`HostSampler` runs it from
a ``SIGALRM`` handler every :data:`INTERVAL_S` of wall time, in the main
thread, so the samples cover the stretches the timed work ran in, and
it counts the wall time the samples themselves took so that the timers
can leave it out.  A timed call's ``wall seconds / (mean sample /
REFERENCE_SAMPLE_S)``, over the samples taken while it ran, is then the
time it would have taken at the reference speed.  On the reference
machine that quotient, summed over one repetition, varied a quarter to
a seventh as much as the repetition's wall time did.  The kernel touches
no ``repro`` code, so a change to the program moves the work and leaves
the samples alone.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import math
import signal
import statistics
import time

#: Mean wall seconds of one :func:`sample` on the reference machine
#: (2-core x86-64 VM, CPython 3.11) in its fast stretches.
REFERENCE_SAMPLE_S = 0.0024

#: Wall seconds between samples.  Short samples taken often follow the
#: host's speed more closely than long ones taken rarely.
INTERVAL_S = 0.05

#: Heap pops per sample.
STEPS = 2_000
NODES = 512


class _Node:
    __slots__ = ("seen", "out")

    def __init__(self):
        self.seen = {}
        self.out = []


def _kernel(steps: int) -> int:
    nodes = [_Node() for _ in range(NODES)]
    heap = [(float(i), i, i) for i in range(NODES // 2)]
    seq = len(heap)
    state = 12345
    for _ in range(steps):
        when, _, index = heapq.heappop(heap)
        node = nodes[index]
        node.seen[seq & 1023] = when
        node.out.append(when)
        if len(node.out) > 8:
            node.out.clear()
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        seq += 1
        heapq.heappush(heap, (when + (state & 1023) / 1024.0, seq, state % NODES))
    return seq


def sample() -> float:
    """Wall seconds of one run of the kernel, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel(STEPS)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSampler:
    """Context manager that takes a :func:`sample` on entry and then
    every :data:`INTERVAL_S` while it is active.

    ``stolen`` is the wall time spent in the handler so far; a timer
    subtracts its growth over the timed call.  The previous ``SIGALRM``
    handler and a stopped timer are restored on exit.
    """

    def __init__(self):
        #: ``time.perf_counter()`` at the start of each sample.
        self.times: list[float] = []
        self.samples: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def __enter__(self) -> "HostSampler":
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.times.append(start)
        self.samples.append(sample())
        self.stolen += time.perf_counter() - start

    def slowdown(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Mean sample over :data:`REFERENCE_SAMPLE_S`: how much slower
        than the reference machine's fast stretches the host ran between
        ``start`` and ``end`` (``perf_counter`` values).  The samples
        taken in that span count, and so do the last one before it and the
        first one after it, so that a call shorter than
        :data:`INTERVAL_S` still has two."""
        first = max(0, bisect.bisect_right(self.times, start) - 1)
        last = bisect.bisect_right(self.times, end) + 1
        return statistics.fmean(self.samples[first:last]) / REFERENCE_SAMPLE_S
