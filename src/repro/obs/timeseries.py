"""Windowed sim-time telemetry: how a run evolved, not just how it ended.

End-of-run counters answer "how much"; the paper's own claims are
trajectory-shaped (per-rank success unfolds as recovery *progresses*,
the eq-1 latency model describes a time course), and stall/regression
questions — did recovery pressure plateau mid-run, did PR N+1 move the
curve — need a time axis.  :class:`TimeSeriesCollector` provides it as
an :class:`~repro.obs.sinks.EventSink`: it folds the bus's event stream
into **fixed-width sim-time windows**, so memory is O(windows) no matter
how many events a 100k-client session produces.

Everything is keyed to *simulation* time — no wall clock anywhere — so
two runs of one seed produce byte-identical series.

Per window the collector keeps:

* event-bus activity: attempt transitions by status, attempt starts per
  protocol, timer arm/fire/cancel counts, backoffs, faults, membership
  actions;
* recovery pressure: the number of open recoveries at the window's end,
  split by phase — ``requesting`` (an attempt is outstanding) vs
  ``waiting`` (loss detected, next attempt not yet sent: suppression or
  backoff gaps);
* engine/ledger deltas, available once :meth:`arm` hands the collector
  the live :class:`~repro.sim.engine.EventQueue` and
  :class:`~repro.metrics.collectors.BandwidthLedger`: events processed
  per window, live timer-heap size, and REQUEST/NACK/REPAIR/DATA link
  traversals charged per window.

**Bounded windows.**  The window list never exceeds ``max_windows``:
when a run outlives ``max_windows × width``, adjacent windows are merged
pairwise and the width doubles (counts add, end-of-window gauges keep
the later sample).  A sweep over any horizon therefore holds at most
``max_windows`` rows at a fixed, deterministic resolution ladder.

**Sampling granularity.**  Engine/ledger gauges are snapshotted when the
first event *past* a window boundary reaches the sink (and at
:meth:`finalize`).  If several windows elapse without a single bus
event, the accumulated processed/hop deltas are attributed to the first
window of the gap and the remaining windows read zero — deterministic,
and exactly the "nothing happened here" shape a stall detector wants.

**Fast-path interaction.**  The ledger defers each fast-path hop to
its transmit instant; every snapshot first settles those strictly
before the engine's clock
(:meth:`~repro.metrics.collectors.BandwidthLedger.settle`), so a window
reads the hops a scalar run had charged by then.
"""

from __future__ import annotations

import math
import zlib

from repro.obs.events import (
    AttemptEvent,
    BackoffEvent,
    FaultEvent,
    MemberEvent,
    ObsEvent,
    TimerEvent,
)
from repro.sim.packet import PacketKind

#: Format version; bump on breaking schema changes.
TIMESERIES_SCHEMA_VERSION = 1

#: Attempt statuses that end the *attempt* (not necessarily the
#: recovery): the requesting→waiting edge of the phase split.
_ATTEMPT_TERMINAL = frozenset(
    ("succeeded", "timed_out", "nacked", "retracted", "abandoned")
)

#: Attempt statuses that end the whole *recovery* for a (client, seq).
_RECOVERY_TERMINAL = frozenset(("succeeded", "retracted", "abandoned"))


#: A window's counts, each also a series of that name; merging two
#: windows adds them.  The per-protocol attempt starts
#: (``Window.starts_by_protocol``, a dict) add too; their series are
#: ``attempt_starts`` and ``attempts.<protocol>``.
WINDOW_COUNTS = (
    # -- bus-event counts -----------------------------------------------
    "bus_events",
    "attempt_transitions",
    "succeeded",
    "timed_out",
    "abandoned",
    "timers_armed",
    "timers_fired",
    "timers_cancelled",
    "backoffs",
    "faults",
    "members",
    # -- engine/ledger deltas (zero unless armed) -----------------------
    "events_processed",
    "request_hops",
    "nack_hops",
    "repair_hops",
    "data_hops",
)

#: A window's end-of-window gauges, each also a series; merging keeps
#: the later sample.
WINDOW_GAUGES = ("pending_timers", "open_recoveries", "requesting", "waiting")


class Window:
    """One sim-time window's counters and end-of-window gauges."""

    __slots__ = (
        ("start", "width", "starts_by_protocol") + WINDOW_COUNTS + WINDOW_GAUGES
    )

    def __init__(self, start: float, width: float):
        self.start = start
        self.width = width
        self.starts_by_protocol: dict[str, int] = {}
        for name in WINDOW_COUNTS + WINDOW_GAUGES:
            setattr(self, name, 0)

    @property
    def end(self) -> float:
        return self.start + self.width

    @property
    def attempt_starts(self) -> int:
        return sum(self.starts_by_protocol.values())

    def set_gauges(self, gauges: tuple[int, int, int, int]) -> None:
        """Take one sample of :data:`WINDOW_GAUGES`, in that order."""
        for name, value in zip(WINDOW_GAUGES, gauges):
            setattr(self, name, value)

    def merge(self, other: "Window") -> None:
        """Absorb the *immediately following* window (coalescing step).

        Counts add; end-of-window gauges take ``other``'s sample — it is
        the later observation and the merged window ends where ``other``
        ended.
        """
        self.width += other.width
        for name in WINDOW_COUNTS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for protocol, n in other.starts_by_protocol.items():
            self.starts_by_protocol[protocol] = (
                self.starts_by_protocol.get(protocol, 0) + n
            )
        self.set_gauges(tuple(getattr(other, name) for name in WINDOW_GAUGES))

    def to_dict(self) -> dict:
        out = {"start": self.start, "width": self.width}
        for name in WINDOW_COUNTS + WINDOW_GAUGES:
            out[name] = getattr(self, name)
        out["starts_by_protocol"] = dict(sorted(self.starts_by_protocol.items()))
        return out


class TimeSeriesCollector:
    """Event sink folding the bus stream into bounded sim-time windows.

    Attach via ``Instrumentation.recording(timeseries=...)`` (the runner
    then arms it with the live engine and ledger and finalizes it at
    drain), or use standalone as a plain sink for offline folding of a
    recorded stream.
    """

    def __init__(self, window: float = 50.0, max_windows: int = 512):
        # Negated, so NaN fails too; an infinite width would hold the
        # whole run in one window, where progress.stall cannot fire.
        if not 0.0 < window < math.inf:
            raise ValueError(
                f"window width must be finite and > 0, got {window}"
            )
        if max_windows < 2:
            raise ValueError(f"max_windows must be >= 2, got {max_windows}")
        self.initial_window = window
        self.width = window
        self.max_windows = max_windows
        self._windows: list[Window] = []
        #: (client, seq) → attempt outstanding?  Present keys are open
        #: recoveries; True marks an in-flight attempt (requesting).
        self._open: dict[tuple[int, int], bool] = {}
        self._engine = None
        self._ledger = None
        self._last_processed = 0
        self._last_hops: dict[PacketKind, int] = {}
        self.finalized = False
        self.end_time = 0.0
        #: Coalescing passes performed (width = initial * 2**coalesced).
        self.coalesced = 0

    # -- wiring ----------------------------------------------------------

    def arm(self, engine, ledger) -> None:
        """Attach the live engine + ledger for boundary snapshots.

        Must happen before the run starts (deltas baseline at the
        current counters).  Standalone sinks that are never armed simply
        report zero for the engine/ledger series.
        """
        self._engine = engine
        self._ledger = ledger
        self._last_processed = engine.processed
        self._last_hops = dict(ledger.hops_by_kind)

    # -- sink protocol ---------------------------------------------------

    def write(self, event: ObsEvent) -> None:
        window = self._window_for(event.time)
        window.bus_events += 1
        if isinstance(event, AttemptEvent):
            window.attempt_transitions += 1
            key = (event.client, event.seq)
            status = event.status
            if status == "started":
                window.starts_by_protocol[event.protocol] = (
                    window.starts_by_protocol.get(event.protocol, 0) + 1
                )
                self._open[key] = True
            else:
                if status == "succeeded":
                    window.succeeded += 1
                elif status == "timed_out":
                    window.timed_out += 1
                elif status == "abandoned":
                    window.abandoned += 1
                if status in _RECOVERY_TERMINAL:
                    self._open.pop(key, None)
                elif key in self._open and status in _ATTEMPT_TERMINAL:
                    self._open[key] = False
        elif isinstance(event, TimerEvent):
            action = event.action
            if action == "armed":
                window.timers_armed += 1
            elif action == "fired":
                window.timers_fired += 1
            elif action == "cancelled":
                window.timers_cancelled += 1
        elif isinstance(event, BackoffEvent):
            window.backoffs += 1
        elif isinstance(event, FaultEvent):
            window.faults += 1
        elif isinstance(event, MemberEvent):
            window.members += 1

    def close(self) -> None:
        pass

    # -- run lifecycle ---------------------------------------------------

    def finalize(self, now: float) -> None:
        """Close out the series at the drain cutoff ``now``.

        Materializes (empty) windows up to ``now``, takes the final
        engine/ledger snapshot into the last window, and freezes the
        series; idempotent.
        """
        if self.finalized:
            return
        if now > 0:
            self._window_for(max(0.0, now - 1e-9))
        if not self._windows:
            self._windows.append(Window(0.0, self.width))
        self._snapshot_into(self._windows[-1])
        self.end_time = now
        self.finalized = True

    # -- windowing -------------------------------------------------------

    def _window_for(self, time: float) -> Window:
        if time < 0:
            raise ValueError(f"negative sim time {time}")
        index = int(time // self.width)
        while index >= self.max_windows:
            self._coalesce()
            index = int(time // self.width)
        windows = self._windows
        if not windows:
            windows.append(Window(0.0, self.width))
        current = len(windows) - 1
        if index > current:
            # Entering a new window: the engine/ledger deltas since the
            # last boundary belong to the window being left behind.
            self._snapshot_into(windows[-1])
            gauges = self._gauges()
            while current < index:
                windows[-1].set_gauges(gauges)
                current += 1
                windows.append(Window(current * self.width, self.width))
        return windows[-1]

    def _coalesce(self) -> None:
        """Merge adjacent window pairs and double the width."""
        merged: list[Window] = []
        windows = self._windows
        for i in range(0, len(windows), 2):
            first = windows[i]
            if i + 1 < len(windows):
                first.merge(windows[i + 1])
            else:
                # Odd tail: keep, widen to the new grid.
                first.width *= 2
            merged.append(first)
        self._windows = merged
        self.width *= 2
        self.coalesced += 1

    def _gauges(self) -> tuple[int, int, int, int]:
        pending = self._engine.pending if self._engine is not None else 0
        open_total = len(self._open)
        requesting = sum(1 for v in self._open.values() if v)
        return (pending, open_total, requesting, open_total - requesting)

    def _snapshot_into(self, window: Window) -> None:
        if self._engine is not None:
            processed = self._engine.processed
            window.events_processed += processed - self._last_processed
            self._last_processed = processed
        if self._ledger is not None:
            self._ledger.settle(self._engine.now)
            hops = self._ledger.hops_by_kind
            for kind, attr in (
                (PacketKind.REQUEST, "request_hops"),
                (PacketKind.NACK, "nack_hops"),
                (PacketKind.REPAIR, "repair_hops"),
                (PacketKind.DATA, "data_hops"),
            ):
                delta = hops[kind] - self._last_hops.get(kind, 0)
                setattr(window, attr, getattr(window, attr) + delta)
            self._last_hops = dict(hops)
        window.set_gauges(self._gauges())

    # -- views -----------------------------------------------------------

    @property
    def windows(self) -> list[Window]:
        return list(self._windows)

    @property
    def num_windows(self) -> int:
        return len(self._windows)

    def protocols(self) -> list[str]:
        names: set[str] = set()
        for window in self._windows:
            names.update(window.starts_by_protocol)
        return sorted(names)

    def series(self) -> dict[str, list]:
        """Per-window value lists, keyed by series name.

        Counting series are per-window totals; ``pending_timers``,
        ``open_recoveries``, ``requesting`` and ``waiting`` are
        end-of-window gauge samples.  Per-protocol attempt-start series
        appear as ``attempts.<protocol>``.
        """
        windows = self._windows
        out: dict[str, list] = {
            "window_start": [w.start for w in windows],
            "attempt_starts": [w.attempt_starts for w in windows],
        }
        for name in WINDOW_COUNTS + WINDOW_GAUGES:
            out[name] = [getattr(w, name) for w in windows]
        for protocol in self.protocols():
            out[f"attempts.{protocol}"] = [
                w.starts_by_protocol.get(protocol, 0) for w in windows
            ]
        return out

    def digests(self) -> dict[str, dict]:
        """Compact per-series fingerprints for the regression ledger.

        Each series reduces to count/total/min/max plus a CRC-32 of its
        canonical text — enough to detect any reordering or value change
        without storing the series itself.  Sim-time only, so digests
        are stable across machines and runs of one seed.
        """
        out: dict[str, dict] = {}
        for name, values in sorted(self.series().items()):
            if name == "window_start":
                continue
            payload = ",".join(repr(v) for v in values).encode()
            out[name] = {
                "count": len(values),
                "total": sum(values),
                "min": min(values) if values else 0,
                "max": max(values) if values else 0,
                "crc": zlib.crc32(payload),
            }
        return out

    def to_dict(self) -> dict:
        return {
            "schema": TIMESERIES_SCHEMA_VERSION,
            "initial_window": self.initial_window,
            "window_width": self.width,
            "max_windows": self.max_windows,
            "coalesced": self.coalesced,
            "end_time": self.end_time,
            "finalized": self.finalized,
            "windows": [w.to_dict() for w in self._windows],
        }


#: ASCII ramp for sparklines, dimmest to densest (index 0 = zero).
SPARK_LEVELS = " .:-=+*#%@"


def sparkline(values: list, width: int = 64) -> str:
    """Render a value list as a one-line ASCII sparkline.

    Values are scaled against the series max; zero renders as a space
    and any non-zero value as at least the dimmest mark, so sparse
    activity never disappears.  Series longer than ``width`` are folded
    by summing fixed-size chunks (gauge-like series look the same to
    the eye either way at terminal resolution).
    """
    if not values:
        return ""
    if len(values) > width:
        chunk = -(-len(values) // width)
        values = [
            sum(values[i:i + chunk]) for i in range(0, len(values), chunk)
        ]
    peak = max(values)
    if peak <= 0:
        return SPARK_LEVELS[0] * len(values)
    marks = []
    top = len(SPARK_LEVELS) - 1
    for value in values:
        if value <= 0:
            marks.append(SPARK_LEVELS[0])
        else:
            level = max(1, min(top, round(value / peak * top)))
            marks.append(SPARK_LEVELS[level])
    return "".join(marks)


def render_sparklines(
    collector: TimeSeriesCollector,
    names: tuple[str, ...] = (
        "events_processed",
        "attempt_starts",
        "attempt_transitions",
        "succeeded",
        "request_hops",
        "repair_hops",
        "open_recoveries",
        "pending_timers",
    ),
    width: int = 64,
) -> str:
    """Multi-series sparkline block for reports and the health CLI."""
    series = collector.series()
    lines = [
        f"windows: {collector.num_windows} x {collector.width:g} ms"
        + (f" (coalesced x{collector.coalesced})" if collector.coalesced else "")
        + f", horizon {collector.end_time:g} ms"
    ]
    label_width = max((len(n) for n in names), default=0)
    for name in names:
        values = series.get(name)
        if values is None:
            continue
        total = sum(values)
        peak = max(values) if values else 0
        lines.append(
            f"  {name:<{label_width}} |{sparkline(values, width)}|"
            f" total={total:g} peak={peak:g}"
        )
    return "\n".join(lines)


__all__ = [
    "TIMESERIES_SCHEMA_VERSION",
    "TimeSeriesCollector",
    "Window",
    "render_sparklines",
    "sparkline",
]
