"""Critical-path analysis of recovery span trees.

Splits each traced recovery's latency into the components the paper's
delay model reasons about:

* ``request_transit`` — REQUEST/NACK in flight (from attempt start to
  the delivery at the target peer; a ``nacked`` attempt is all transit:
  request out, negative reply back);
* ``peer_processing`` — the gap between the request landing and the
  repair's first transmission (SRM repair-suppression timers live
  here);
* ``repair_transit`` — REPAIR in flight back to the requester;
* ``timeout_slack`` — time spent waiting on attempt timers that
  expired, plus inter-attempt gaps (SRM request-suppression waits);
* ``backoff`` — the extra wait exponential backoff added on top of the
  base timeout (from the ``extra`` field of backoff annotations);
* ``other`` — whatever the trace cannot attribute (e.g. the tail of a
  retracted recovery).

Per-component totals over the whole store show where recovery latency
actually goes; :meth:`CriticalPathReport.worst` surfaces the slowest
recoveries with their dominant component, which is the ``repro trace``
subcommand's "what should I look at first" answer.  The per-rank check
against the model (Lemma 3, eq. 1) reads attempt events, not spans:
see :mod:`repro.obs.report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.spans import (
    CATEGORY_ATTEMPT,
    CATEGORY_RECOVERY,
    Span,
    SpanStore,
)

#: Latency components, in causal order (``other`` last).
COMPONENTS = (
    "request_transit",
    "peer_processing",
    "repair_transit",
    "timeout_slack",
    "backoff",
    "other",
)

#: Causal order of succeeded-attempt milestones: ties in time (e.g. a
#: source answering a request on the tick it arrives) must still
#: attribute the preceding segment to the earlier stage.
_MILESTONE_ORDER = {
    "request_transit": 0, "peer_processing": 1, "repair_transit": 2,
}


@dataclass
class TraceBreakdown:
    """One recovery's latency split into :data:`COMPONENTS`."""

    trace_id: int
    client: int
    seq: int
    protocol: str
    status: str
    total: float
    attempts: int
    components: dict[str, float] = field(default_factory=dict)

    @property
    def dominant(self) -> str:
        """The component holding the largest share of the latency."""
        return max(COMPONENTS, key=lambda c: self.components.get(c, 0.0))

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "client": self.client,
            "seq": self.seq,
            "protocol": self.protocol,
            "status": self.status,
            "total": self.total,
            "attempts": self.attempts,
            "components": dict(self.components),
        }


def _attempt_milestones(span: Span) -> list[tuple[float, str]]:
    """Causal checkpoints inside a succeeded attempt, in time order.

    Missing checkpoints (a request whose delivery fell outside the
    annotation filter, a repair that originated before this attempt)
    simply drop out; the walk in :func:`analyze_trace` attributes the
    unexplained remainder to ``other``.
    """
    t_request = t_repair_in = None
    for note in span.annotations:
        label = note.get("label", "")
        if label in ("deliver.request", "deliver.nack") and t_request is None:
            t_request = note["time"]
        elif label == "deliver.repair" and t_repair_in is None:
            t_repair_in = note["time"]
    return [
        (t, c)
        for t, c in (
            (t_request, "request_transit"),
            (t_repair_in, "repair_transit"),
        )
        if t is not None
    ]


def analyze_trace(spans: list[Span]) -> TraceBreakdown | None:
    """Break one trace's spans down into latency components.

    Returns ``None`` for span lists without a recovery root (not a
    complete trace).
    """
    root = next(
        (s for s in spans if s.category == CATEGORY_RECOVERY), None
    )
    if root is None or root.end is None:
        return None
    attempts = sorted(
        (s for s in spans if s.category == CATEGORY_ATTEMPT),
        key=lambda s: (s.start, s.span_id),
    )
    xmit_by_parent: dict[int, list[Span]] = {}
    for s in spans:
        if s.name == "xmit.repair":
            xmit_by_parent.setdefault(s.parent_id, []).append(s)

    components = {c: 0.0 for c in COMPONENTS}
    cursor = root.start
    for span in attempts:
        if span.end is None:
            continue
        gap = span.start - cursor
        if gap > 0:
            # Between attempts (or before the first one) the client is
            # waiting on a timer: SRM suppression windows, mostly.
            components["timeout_slack"] += gap
        status = span.attrs.get("status", "")
        duration = span.end - span.start
        if status == "succeeded":
            milestones = list(_attempt_milestones(span))
            repairs = xmit_by_parent.get(span.span_id)
            if repairs:
                first = min(r.start for r in repairs)
                milestones.append((first, "peer_processing"))
            milestones.sort(key=lambda m: (m[0], _MILESTONE_ORDER[m[1]]))
            at = span.start
            for t, component in milestones:
                if at <= t <= span.end:
                    components[component] += t - at
                    at = t
            components["other"] += span.end - at
        elif status == "timed_out":
            extra = sum(
                n.get("extra", 0.0)
                for n in span.annotations
                if n.get("label") == "backoff"
            )
            backoff_part = min(max(extra, 0.0), duration)
            components["backoff"] += backoff_part
            components["timeout_slack"] += duration - backoff_part
        elif status == "nacked":
            components["request_transit"] += duration
        else:
            components["other"] += duration
        cursor = span.end
    tail = root.end - cursor
    if tail > 0:
        components["other"] += tail
    return TraceBreakdown(
        trace_id=root.trace_id,
        client=root.attrs.get("client", root.node),
        seq=root.attrs.get("seq", -1),
        protocol=root.attrs.get("protocol", ""),
        status=root.attrs.get("status", ""),
        total=root.end - root.start,
        attempts=len(attempts),
        components=components,
    )


@dataclass
class CriticalPathReport:
    """Aggregated critical-path view of a span store."""

    breakdowns: list[TraceBreakdown] = field(default_factory=list)
    sampled_out: int = 0
    late_events: int = 0

    @property
    def totals(self) -> dict[str, float]:
        out = {c: 0.0 for c in COMPONENTS}
        for b in self.breakdowns:
            for c in COMPONENTS:
                out[c] += b.components.get(c, 0.0)
        return out

    @property
    def total_latency(self) -> float:
        return sum(b.total for b in self.breakdowns)

    def worst(self, k: int = 5) -> list[TraceBreakdown]:
        """The ``k`` slowest recoveries, slowest first (stable on ties)."""
        return sorted(
            self.breakdowns, key=lambda b: (-b.total, b.trace_id)
        )[:k]

    def to_dict(self) -> dict:
        return {
            "traces": len(self.breakdowns),
            "totals": self.totals,
            "total_latency": self.total_latency,
            "sampled_out": self.sampled_out,
            "late_events": self.late_events,
            "breakdowns": [b.to_dict() for b in self.breakdowns],
        }

    def render(self, worst_k: int = 5) -> str:
        lines = [f"== critical path ({len(self.breakdowns)} traces) =="]
        total = self.total_latency
        if total > 0:
            lines.append("latency by component (sim-ms):")
            for component in COMPONENTS:
                value = self.totals[component]
                share = value / total
                bar = "#" * max(0, round(30 * share))
                lines.append(
                    f"  {component:<16} {value:12.2f}  {share:6.1%}  {bar}"
                )
        if worst_k > 0 and self.breakdowns:
            lines.append("")
            lines.append(f"worst {min(worst_k, len(self.breakdowns))} recoveries:")
            for b in self.worst(worst_k):
                parts = ", ".join(
                    f"{c}={b.components[c]:.2f}"
                    for c in COMPONENTS
                    if b.components.get(c, 0.0) > 0
                )
                lines.append(
                    f"  client={b.client} seq={b.seq} status={b.status}"
                    f" total={b.total:.2f}ms attempts={b.attempts}"
                    f" dominant={b.dominant} [{parts}]"
                )
        if self.sampled_out or self.late_events:
            lines.append("")
            lines.append(
                f"sampling: {self.sampled_out} traces sampled out, "
                f"{self.late_events} late link events ignored"
            )
        return "\n".join(lines)


def analyze(store: SpanStore) -> CriticalPathReport:
    """Fold a span store into a :class:`CriticalPathReport`."""
    report = CriticalPathReport(
        sampled_out=store.sampled_out, late_events=store.late_events
    )
    for spans in store.by_trace().values():
        breakdown = analyze_trace(spans)
        if breakdown is not None:
            report.breakdowns.append(breakdown)
    return report


__all__ = [
    "COMPONENTS",
    "TraceBreakdown",
    "CriticalPathReport",
    "analyze",
    "analyze_trace",
]
