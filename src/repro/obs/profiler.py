"""Scoped wall-clock timers for finding hot subsystems.

A :class:`Profiler` accumulates elapsed wall-clock time per label.
Scopes are phase-level — one per event-loop pass of a run
(``events.run``, timed by the runner, counting the events dispatched),
one per RP plan call (``planner.plan``) and per parallel sweep/unit —
never per hop or per client, so profiling leaves every path choice (the
array dissemination fast path included) exactly as an unprofiled run
makes it.  The event queue itself times nothing.

Labels are dotted lowercase.  Scopes may nest and overlap — the
``parallel.unit`` time is also inside ``parallel.sweep`` — so totals
answer "where does the wall clock go *inside* each phase", not "what
sums to 100%".
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class TimerStat:
    """Accumulated cost of one label."""

    name: str
    count: int = 0
    total: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class Profiler:
    """Per-label wall-clock accumulator."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._stats: dict[str, TimerStat] = {}

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Record ``seconds`` of wall clock against ``name``."""
        stat = self._stats.get(name)
        if stat is None:
            stat = TimerStat(name)
            self._stats[name] = stat
        stat.count += count
        stat.total += seconds

    @contextmanager
    def scope(self, name: str):
        """Time a with-block against ``name``; no-op when disabled."""
        if not self.enabled:
            yield self
            return
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.add(name, time.perf_counter() - t0)

    def stats(self) -> dict[str, TimerStat]:
        return dict(self._stats)

    def top(self, n: int = 10) -> list[TimerStat]:
        """The ``n`` most expensive labels by total wall clock."""
        ranked = sorted(self._stats.values(), key=lambda s: -s.total)
        return ranked[:n]

    def total(self, name: str) -> float:
        stat = self._stats.get(name)
        return stat.total if stat is not None else 0.0
