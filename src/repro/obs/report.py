"""Reducing recorded telemetry to an attempt-level run report.

:func:`build_obs_report` folds the events captured by a run's
ring-buffer sink into the quantities the paper's analysis actually
predicts:

* **attempts per recovery** — how many unicast requests each repaired
  loss needed (the makespan/retransmission-count metric hierarchical-
  recovery follow-up work evaluates);
* **per-rank success rates** — how often the attempt to the ``j``-th
  peer of the prioritized list succeeded, and how long it took.  When
  the RP strategies are supplied, :func:`predict_model` attaches the
  model's predictions (Lemma 3's ``1 − DS_j/DS_{j−1}``, eq. 1's cost,
  eq. 3's list delay), so the simulated attempt outcomes can be
  checked against the theory rank by rank;
* **top timers** — the profiler's per-subsystem wall-clock totals, the
  ROADMAP's "find the hot path before optimizing it" hook;
* **counters** — the recorded events counted by name (attempt statuses,
  timer actions, backoffs, faults, membership actions and phases per
  :data:`COUNTER_NAME`).

A report is plain data: ``to_dict``/``from_dict`` round-trips through
JSON (the campaign persists one per instrumented run next to its
summaries), and :meth:`ObsReport.render` prints the human breakdown the
``repro obs`` subcommand shows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.core.objective import AttemptCostEstimator, BlendEstimator
from repro.obs.events import (
    SOURCE_RANK,
    AttemptEvent,
    BackoffEvent,
    FaultEvent,
    MemberEvent,
    PhaseEvent,
    TimerEvent,
)
from repro.obs.instrumentation import Instrumentation
from repro.obs.sinks import RingBufferSink

#: Format version; bump on breaking schema changes.
OBS_SCHEMA_VERSION = 1

#: Decided attempts a list rank needs for its success residual to count.
RESIDUAL_MIN_DECIDED = 50

#: Rows of the "top timers" table :meth:`ObsReport.render` prints.
MAX_TIMER_ROWS = 8

#: The counter each counted event kind adds one to; health records are
#: not counted.
COUNTER_NAME = {
    AttemptEvent: lambda e: f"{e.protocol}.attempts.{e.status}",
    TimerEvent: lambda e: f"{e.protocol}.timers.{e.action}",
    BackoffEvent: lambda e: f"{e.protocol}.backoffs",
    FaultEvent: lambda e: f"fault.{e.fault}",
    MemberEvent: lambda e: e.action,
    PhaseEvent: lambda e: f"phase.{e.phase}",
}


@dataclass
class RankStats:
    """Attempt outcomes of one prioritized-list rank."""

    rank: int
    attempts: int = 0
    successes: int = 0
    timeouts: int = 0
    nacks: int = 0
    predicted: float | None = None
    #: Summed started-to-terminal sim-time of this rank's attempts.
    total_time: float = 0.0
    predicted_cost: float | None = None

    @property
    def decided(self) -> int:
        return self.successes + self.timeouts + self.nacks

    @property
    def success_rate(self) -> float | None:
        decided = self.decided
        return self.successes / decided if decided else None

    @property
    def mean_time(self) -> float | None:
        return self.total_time / self.attempts if self.attempts else None

    @property
    def label(self) -> str:
        return "source" if self.rank == SOURCE_RANK else f"v{self.rank + 1}"


@dataclass
class ObsReport:
    """Attempt-level breakdown of one instrumented run."""

    protocol: str
    recoveries: int = 0
    attempts_total: int = 0
    attempts_by_status: dict[str, int] = field(default_factory=dict)
    attempts_per_recovery: dict[int, int] = field(default_factory=dict)
    per_rank: list[RankStats] = field(default_factory=list)
    timers: list[tuple[str, int, float]] = field(default_factory=list)
    counters: dict[str, object] = field(default_factory=dict)
    events_recorded: int = 0
    #: Ring-buffer evictions during the run: non-zero means the report
    #: was folded from a truncated window, not the whole run.
    events_dropped: int = 0
    #: Pre-rendered ASCII sparkline block (see
    #: :func:`repro.obs.timeseries.render_sparklines`); empty unless the
    #: run carried a time-series collector.
    sparklines: str = ""
    #: Mean detection-to-repair time of the recovered losses.
    mean_latency: float | None = None
    #: Mean planned eq.-3 delay over the RP strategies (RP only).
    planned_delay: float | None = None

    @property
    def mean_attempts_per_recovery(self) -> float | None:
        total = sum(n * c for n, c in self.attempts_per_recovery.items())
        count = sum(self.attempts_per_recovery.values())
        return total / count if count else None

    def largest_residual(self) -> tuple[float, str] | None:
        """``(|observed − predicted| success, label)`` of the list rank
        furthest from Lemma 3, among ranks with enough decided attempts."""
        return max((
            (abs(r.success_rate - r.predicted), r.label)
            for r in self.per_rank
            if r.rank != SOURCE_RANK and r.predicted is not None
            and r.decided >= RESIDUAL_MIN_DECIDED
        ), default=None)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": OBS_SCHEMA_VERSION,
            "protocol": self.protocol,
            "recoveries": self.recoveries,
            "attempts_total": self.attempts_total,
            "attempts_by_status": dict(self.attempts_by_status),
            "attempts_per_recovery": {
                str(n): c for n, c in sorted(self.attempts_per_recovery.items())
            },
            "per_rank": [asdict(r) for r in self.per_rank],
            "timers": [
                {"name": name, "count": count, "total_s": total}
                for name, count, total in self.timers
            ],
            "counters": dict(self.counters),
            "events_recorded": self.events_recorded,
            "events_dropped": self.events_dropped,
            "sparklines": self.sparklines,
            "mean_latency": self.mean_latency,
            "planned_delay": self.planned_delay,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ObsReport":
        schema = data.get("schema")
        if schema != OBS_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported obs schema {schema!r}; expected {OBS_SCHEMA_VERSION}"
            )
        return cls(
            protocol=data["protocol"],
            recoveries=data["recoveries"],
            attempts_total=data["attempts_total"],
            attempts_by_status=dict(data["attempts_by_status"]),
            attempts_per_recovery={
                int(n): c for n, c in data["attempts_per_recovery"].items()
            },
            per_rank=[RankStats(**raw) for raw in data["per_rank"]],
            timers=[
                (raw["name"], raw["count"], raw["total_s"])
                for raw in data["timers"]
            ],
            counters=dict(data["counters"]),
            events_recorded=data["events_recorded"],
            # Tolerant read: reports saved before the drop counter
            # existed simply never dropped anything they could count.
            events_dropped=data.get("events_dropped", 0),
            # Same for fields added later (RankStats has defaults too).
            sparklines=data.get("sparklines", ""),
            mean_latency=data.get("mean_latency"),
            planned_delay=data.get("planned_delay"),
        )

    # -- rendering -------------------------------------------------------------

    def render(self) -> str:
        lines = [f"== {self.protocol} attempt-level breakdown =="]
        mean = self.mean_attempts_per_recovery
        lines.append(
            f"recoveries: {self.recoveries}   attempts: {self.attempts_total}"
            + (f"   mean attempts/recovery: {mean:.2f}" if mean is not None else "")
        )
        if self.events_dropped:
            lines.append(
                f"WARNING: ring buffer dropped {self.events_dropped} events"
                " — this breakdown covers a truncated window"
            )
        if self.attempts_by_status:
            parts = ", ".join(
                f"{status}={count}"
                for status, count in sorted(self.attempts_by_status.items())
            )
            lines.append(f"attempt outcomes: {parts}")
        if self.attempts_per_recovery:
            lines.append("")
            lines.append("attempts per recovery:")
            peak = max(self.attempts_per_recovery.values())
            for n in sorted(self.attempts_per_recovery):
                count = self.attempts_per_recovery[n]
                bar = "#" * max(1, round(40 * count / peak))
                lines.append(f"  {n:3d}  {count:6d}  {bar}")
        model = self.render_model()
        if model:
            lines.append("")
            lines.extend(model)
        membership = {
            name: value
            for name, value in sorted(self.counters.items())
            if name.startswith("member.") or name == "plan.repair"
        }
        if membership:
            lines.append("")
            lines.append("membership churn:")
            parts = ", ".join(
                f"{name}={value}" for name, value in membership.items()
            )
            lines.append(f"  {parts}")
        if self.sparklines:
            lines.append("")
            lines.append("time series (sim-time windows):")
            for row in self.sparklines.splitlines():
                lines.append(f"  {row}")
        if self.timers:
            lines.append("")
            lines.append("top timers (wall clock):")
            for name, count, total in self.timers[:MAX_TIMER_ROWS]:
                lines.append(f"  {name:<24} {count:10d} calls  {total * 1e3:10.2f} ms")
        return "\n".join(lines)

    def render_model(self) -> list[str]:
        """The per-rank table and the whole-list check against the
        model, shared by ``repro obs`` and ``repro trace``."""
        if not self.per_rank:
            return []
        row = "  {:>6}  {:>8}  {:>9}  {:>9}  {:>6}  {:>7}  {:>9}  {:>7}  {:>7}"
        lines = [
            "per-rank attempts vs model (success: 1 - DS_j/DS_j-1,"
            " cost: eq. 1):",
            row.format("rank", "attempts", "succeeded", "timed_out",
                       "nacked", "rate", "predicted", "mean ms", "pred ms"),
        ]
        for r in self.per_rank:
            lines.append(row.format(
                r.label, r.attempts, r.successes, r.timeouts, r.nacks,
                _fmt(r.success_rate, 3), _fmt(r.predicted, 3),
                _fmt(r.mean_time, 2), _fmt(r.predicted_cost, 2),
            ))
        if self.planned_delay is not None:
            lines.append(
                f"planned E[delay] (eq. 3): {self.planned_delay:.2f} ms"
                f"   mean recovery latency: {_fmt(self.mean_latency, 2)} ms"
            )
        if (residual := self.largest_residual()) is not None:
            lines.append(
                f"largest success residual (ranks with >= {RESIDUAL_MIN_DECIDED}"
                f" decided): {residual[1]} {residual[0]:.3f}"
            )
        return lines


def _fmt(value: float | None, digits: int) -> str:
    return "-" if value is None else f"{value:.{digits}f}"


def predict_model(
    strategies: dict, estimator: AttemptCostEstimator | None = None
) -> tuple[dict[int, tuple[float, float]], float]:
    """The paper's model on a run's (non-empty) planned strategies:
    ``rank → (success probability, eq.-1 cost)``, averaged over the
    clients whose list reaches the rank, and the mean eq.-3 delay.

    Lemma 3: after ``v_1 … v_{j−1}`` failed, ``v_j`` succeeds with
    ``1 − DS_j/DS_{j−1}`` (``DS_0 = DS_u``); the source always does.
    Pass the ``estimator`` the strategies were planned with.
    """
    estimator = estimator if estimator is not None else BlendEstimator()
    samples: dict[int, list[tuple[float, float]]] = {
        SOURCE_RANK: [(1.0, s.source_rtt) for s in strategies.values()]
    }
    for strategy in strategies.values():
        prev_ds = strategy.ds_u
        for rank, candidate in enumerate(strategy.attempts):
            if prev_ds > 0:
                p = 1.0 - candidate.ds / prev_ds
                samples.setdefault(rank, []).append((p, estimator.cost(
                    candidate.rtt, strategy.timeouts[rank], p
                )))
            prev_ds = candidate.ds
    per_rank = {
        rank: tuple(sum(column) / len(rows) for column in zip(*rows))
        for rank, rows in samples.items()
    }
    delays = [s.expected_delay for s in strategies.values()]
    return per_rank, sum(delays) / len(delays)


def build_obs_report(
    instr: Instrumentation,
    protocol: str = "",
    strategies: dict | None = None,
    estimator: AttemptCostEstimator | None = None,
) -> ObsReport:
    """Fold an instrumented run's telemetry into an :class:`ObsReport`.

    ``strategies`` (client → ``RecoveryStrategy``, RP only), planned
    with ``estimator``, attach :func:`predict_model`'s predictions.
    """
    events = instr.ring_events()
    timeseries = getattr(instr, "timeseries", None)
    sparklines = ""
    if timeseries is not None and timeseries.num_windows:
        from repro.obs.timeseries import render_sparklines

        sparklines = render_sparklines(timeseries)
    dropped = sum(
        sink.dropped
        for sink in instr.bus.sinks
        if isinstance(sink, RingBufferSink)
    )
    counters: dict[str, int] = {}
    by_status: dict[str, int] = {}
    per_rank: dict[int, RankStats] = {}
    started_per_recovery: dict[tuple[int, int], int] = {}
    open_since: dict[tuple[int, int, int], float] = {}
    latency: dict[tuple[int, int], float] = {}
    for e in events:
        counter_name = COUNTER_NAME.get(type(e))
        if counter_name is None:
            continue
        name = counter_name(e)
        counters[name] = counters.get(name, 0) + 1
        if type(e) is not AttemptEvent:
            continue
        if not protocol:
            protocol = e.protocol
        by_status[e.status] = by_status.get(e.status, 0) + 1
        stats = per_rank.get(e.rank)
        if stats is None:
            stats = RankStats(rank=e.rank)
            per_rank[e.rank] = stats
        key = (e.client, e.seq)
        if e.status == "started":
            stats.attempts += 1
            started_per_recovery[key] = started_per_recovery.get(key, 0) + 1
            open_since[(e.client, e.seq, e.attempt)] = e.time
            continue
        # A second terminal event (abandoned after timed_out) finds none.
        start = open_since.pop((e.client, e.seq, e.attempt), None)
        if start is not None:
            stats.total_time += e.time - start
        if e.status == "succeeded":
            stats.successes += 1
            latency.setdefault(key, e.elapsed)
        elif e.status == "timed_out":
            stats.timeouts += 1
        elif e.status == "nacked":
            stats.nacks += 1

    histogram: dict[int, int] = {}
    for key in latency:
        n = started_per_recovery.get(key, 0)
        if n:
            histogram[n] = histogram.get(n, 0) + 1

    predicted, planned_delay = (
        predict_model(strategies, estimator) if strategies else ({}, None)
    )
    ranks = []
    # List ranks first (v1, v2, …), the source fallback last.
    for rank in sorted(per_rank, key=lambda r: (r == SOURCE_RANK, r)):
        stats = per_rank[rank]
        stats.predicted, stats.predicted_cost = predicted.get(rank, (None, None))
        ranks.append(stats)

    return ObsReport(
        protocol=protocol,
        recoveries=len(latency),
        attempts_total=by_status.get("started", 0),
        attempts_by_status=by_status,
        attempts_per_recovery=histogram,
        per_rank=ranks,
        timers=[
            (stat.name, stat.count, stat.total)
            for stat in instr.profiler.top(32)
        ],
        counters=dict(sorted(counters.items())),
        events_recorded=len(events),
        events_dropped=dropped,
        sparklines=sparklines,
        mean_latency=sum(latency.values()) / len(latency) if latency else None,
        planned_delay=planned_delay,
    )
