"""Event sinks — where emitted telemetry records go.

A sink is anything with ``write(event)`` / ``close()``.  Besides the
two here, the :class:`~repro.obs.timeseries.TimeSeriesCollector` and
the causal :class:`~repro.obs.tracing.Tracer` are sinks too.
"""

from __future__ import annotations

import json
import pathlib
from collections import deque
from typing import IO, Iterable, Protocol, runtime_checkable

from repro.obs.events import ObsEvent, event_from_dict


@runtime_checkable
class EventSink(Protocol):
    """Anything that accepts emitted events."""

    def write(self, event: ObsEvent) -> None:  # pragma: no cover - protocol
        ...

    def close(self) -> None:  # pragma: no cover - protocol
        ...


class RingBufferSink:
    """Keeps the last ``capacity`` events in memory.

    The default capacity comfortably holds every protocol-level event of
    a figure-sized run; ``dropped`` counts evictions so a consumer can
    tell a complete record from a truncated one.
    """

    def __init__(self, capacity: int = 1_000_000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._buffer: deque[ObsEvent] = deque(maxlen=capacity)
        self.dropped = 0

    def write(self, event: ObsEvent) -> None:
        if len(self._buffer) == self.capacity:
            self.dropped += 1
        self._buffer.append(event)

    def close(self) -> None:
        pass

    def events(self) -> list[ObsEvent]:
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)


class JsonlSink:
    """Appends one JSON object per event to a file.

    The stream is line-delimited so a crashed or interrupted run still
    leaves every completed record parseable.  ``flush_every`` forces a
    flush to disk every N writes (0, the default, leaves buffering to
    the OS) — with it, a run that dies mid-simulation loses at most the
    last N-1 events.  Use as a context manager or call :meth:`close`
    explicitly to flush; ``__exit__`` closes on exceptions too.
    """

    def __init__(self, path: str | pathlib.Path, flush_every: int = 0):
        if flush_every < 0:
            raise ValueError("flush_every must be >= 0")
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.flush_every = flush_every
        self._since_flush = 0
        self._fh: IO[str] | None = self.path.open("w")

    def write(self, event: ObsEvent) -> None:
        if self._fh is None:
            raise ValueError(f"sink for {self.path} is closed")
        self._fh.write(json.dumps(event.to_dict(), sort_keys=True))
        self._fh.write("\n")
        if self.flush_every:
            self._since_flush += 1
            if self._since_flush >= self.flush_every:
                self._fh.flush()
                self._since_flush = 0

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_jsonl(path: str | pathlib.Path) -> Iterable[ObsEvent]:
    """Parse a file written by :class:`JsonlSink` back into events."""
    with pathlib.Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield event_from_dict(json.loads(line))
