"""Named counters and their registry.

A :class:`Counter` is a monotonically increasing event count (requests
sent, repairs multicast, timeouts fired).  Distributions such as
attempts per recovery are not kept here: :func:`repro.obs.report.
build_obs_report` folds them from the recorded events.

A :class:`MetricsRegistry` is a flat name → counter map with
get-or-create semantics, so instrumentation sites never coordinate on
construction order.  Names are dotted lowercase by convention
(``rp.attempts.started``).
"""

from __future__ import annotations


class Counter:
    """Monotonic count; increments must be non-negative."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (n={n})")
        self.value += n


class MetricsRegistry:
    """Flat name → counter map with get-or-create access."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def names(self) -> list[str]:
        return sorted(self._counters)

    def snapshot(self) -> dict[str, int]:
        """JSON-ready view: each counter's name to its value."""
        return {name: self._counters[name].value for name in self.names()}
