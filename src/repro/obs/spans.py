"""Span records for causal recovery tracing.

A *trace* is one recovery: client ``u`` detecting the loss of sequence
``s``, attempting repairs, and terminating (recovered, retracted,
abandoned).  A trace is a tree of :class:`Span` records:

* the root span, ``recovery`` — from loss detection to termination;
* one child span per attempt — ``attempt[j]`` for the ``j``-th
  prioritized-list rank (``attempt[0]`` is ``v_1``), ``source_fallback``
  for requests to the source, closing with the attempt's outcome
  (``succeeded``, ``timed_out``, ``nacked``, …);
* one grandchild span per link traversal of the attempt's REQUEST/NACK
  and the REPAIR it provoked (``xmit.request``, ``xmit.repair``), with
  dropped traversals marked.

Fault injections, timer arms/fires and backoff increments land as
*annotations* — timestamped dicts — on the span they concern.  The
``(trace_id, span_id)`` pair protocol runtimes stamp onto a
:class:`~repro.sim.packet.Packet` lets the network layer attribute a
link traversal back to the attempt that caused it.

Everything here is plain deterministic data: ids are dense counters in
creation order, so two runs of one seed produce byte-identical span
streams (the property the export tests pin).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: ``parent_id`` of a root span / ``span_id`` of "no span".
NO_SPAN = -1

#: Span categories, most-structural first.
CATEGORY_RECOVERY = "recovery"
CATEGORY_ATTEMPT = "attempt"
CATEGORY_LINK = "link"


@dataclass(slots=True)
class Span:
    """One node of a recovery's span tree."""

    trace_id: int
    span_id: int
    parent_id: int
    name: str
    category: str
    start: float
    end: float | None = None
    node: int = -1
    attrs: dict = field(default_factory=dict)
    annotations: list[dict] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Span length in sim-ms (0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def annotate(self, time: float, label: str, **extra) -> None:
        entry = {"time": time, "label": label}
        entry.update(extra)
        self.annotations.append(entry)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "node": self.node,
            "attrs": dict(self.attrs),
            "annotations": list(self.annotations),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data["parent_id"],
            name=data["name"],
            category=data["category"],
            start=data["start"],
            end=data["end"],
            node=data["node"],
            attrs=dict(data["attrs"]),
            annotations=[dict(a) for a in data["annotations"]],
        )


class SpanStore:
    """Finished traces, in termination order.

    The store only ever holds *kept* traces — the tracer's sampling
    decides what lands here — and keeps explicit counts of what it did
    not keep (``sampled_out``) and of link events that arrived after
    their trace terminated (``late_events``), so truncation is always
    visible, never silent.
    """

    def __init__(self) -> None:
        self._spans: list[Span] = []
        #: Traces discarded by head sampling (never promoted).
        self.sampled_out = 0
        #: Link events whose trace had already terminated (in-flight
        #: multicast branches after the repair landed, late repairs
        #: after abandonment) — expected, counted for visibility.
        self.late_events = 0

    def add_trace(self, spans: list[Span]) -> None:
        self._spans.extend(spans)

    def spans(self) -> list[Span]:
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def by_trace(self) -> dict[int, list[Span]]:
        """Spans grouped by trace id, groups in store order."""
        out: dict[int, list[Span]] = {}
        for span in self._spans:
            out.setdefault(span.trace_id, []).append(span)
        return out

    def roots(self) -> list[Span]:
        """The ``recovery`` root spans, in termination order."""
        return [s for s in self._spans if s.parent_id == NO_SPAN]
