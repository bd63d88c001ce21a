"""Run invariants: one drain-time check battery on every run.

The runner calls :func:`evaluate_health` after the drain of **every**
:func:`~repro.experiments.runner.run_protocol_detailed` and raises
:class:`InvariantError` on any violation other than ``progress.stall``.
The checks:

* ``quiescence.drain`` — every detected loss ended recovered or
  explicitly abandoned.  The hardened runtimes may abandon a recovery;
  they must never silently hang one.
* ``quiescence.timers`` — no live timer is left in the event queue after
  the drain (membership events past the cutoff are cancelled first): a
  terminated recovery is a *settled* one.
* ``conservation.ledger`` — hop/drop counters are non-negative, and no
  packet kind records more loss-process drops than link traversals
  charged.
* ``membership.tx_drop`` — a departed member transmitted (the director
  had to suppress it).  Must be zero: teardown is supposed to silence
  agents *before* they can send.  Runs only when a membership director
  ran.
* ``progress.stall`` — windowed, so it runs only when a
  :class:`~repro.obs.timeseries.TimeSeriesCollector` is attached: at
  least one recovery stayed open across ``stall_windows`` consecutive
  windows in which **no** attempt changed state.  A stall is a symptom
  worth a look (a black-holed network waiting out capped backoffs shows
  exactly this silence), not a broken guarantee, so it is reported and
  never raised.

Each failure is a typed :class:`HealthViolation`; run-wide checks carry
no window, the stall check carries the offending sim-time window.  The
runner attaches the :class:`HealthReport` to its artifacts when a
time-series collector ran, mirrors violations onto the event bus as
:class:`~repro.obs.events.HealthEvent` records, and the ``repro health``
CLI renders it (exit status non-zero on any violation).  Everything is
computed from already-collected state — no RNG, no extra events — so
evaluating the invariants never perturbs a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics.collectors import BandwidthLedger, RecoveryLog
from repro.obs.timeseries import TimeSeriesCollector, render_sparklines

#: Format version; bump on breaking schema changes.
HEALTH_SCHEMA_VERSION = 1

#: Every watchdog `evaluate_health` knows how to run.
ALL_CHECKS = (
    "progress.stall",
    "conservation.ledger",
    "membership.tx_drop",
    "quiescence.drain",
    "quiescence.timers",
)

#: Checks that are reported but never raised.
REPORTED_ONLY = frozenset({"progress.stall"})


@dataclass(frozen=True)
class HealthViolation:
    """One failed invariant, with the window it failed in attached."""

    check: str
    message: str
    #: Sim-time bounds of the offending window; -1/-1 for run-wide
    #: checks that have no single window.
    window_start: float = -1.0
    window_end: float = -1.0
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "message": self.message,
            "window_start": self.window_start,
            "window_end": self.window_end,
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HealthViolation":
        return cls(
            check=data["check"],
            message=data["message"],
            window_start=data["window_start"],
            window_end=data["window_end"],
            details=dict(data.get("details", {})),
        )

    def render(self) -> str:
        where = (
            f" [window {self.window_start:g}..{self.window_end:g} ms]"
            if self.window_start >= 0
            else ""
        )
        return f"{self.check}{where}: {self.message}"


@dataclass(frozen=True)
class HealthConfig:
    """Watchdog thresholds.

    ``stall_windows`` is counted in *windows at the collector's current
    width* — after coalescing, the effective stall horizon is
    ``stall_windows x width`` sim-ms, which scales with the run the same
    way the series resolution does.
    """

    stall_windows: int = 8

    def __post_init__(self):
        if self.stall_windows < 1:
            raise ValueError(
                f"stall_windows must be >= 1, got {self.stall_windows}"
            )


@dataclass
class HealthReport:
    """Outcome of one watchdog battery over one run."""

    violations: list[HealthViolation] = field(default_factory=list)
    checks_run: list[str] = field(default_factory=list)
    windows: int = 0
    window_width: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def raised(self) -> list[HealthViolation]:
        """The violations that make the runner raise (all but
        :data:`REPORTED_ONLY`)."""
        return [v for v in self.violations if v.check not in REPORTED_ONLY]

    def to_dict(self) -> dict:
        return {
            "schema": HEALTH_SCHEMA_VERSION,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "checks_run": list(self.checks_run),
            "windows": self.windows,
            "window_width": self.window_width,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HealthReport":
        schema = data.get("schema")
        if schema != HEALTH_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported health schema {schema!r};"
                f" expected {HEALTH_SCHEMA_VERSION}"
            )
        return cls(
            violations=[
                HealthViolation.from_dict(raw) for raw in data["violations"]
            ],
            checks_run=list(data["checks_run"]),
            windows=data["windows"],
            window_width=data["window_width"],
        )

    def render(self) -> str:
        lines = ["== run health =="]
        checks = ", ".join(self.checks_run) if self.checks_run else "none"
        lines.append(f"checks: {checks}")
        if self.windows:
            lines.append(
                f"windowed over {self.windows} x {self.window_width:g} ms"
            )
        if self.ok:
            lines.append("OK: no invariant violations")
        else:
            lines.append(f"{len(self.violations)} violation(s):")
            for violation in self.violations:
                lines.append(f"  FAIL {violation.render()}")
        return "\n".join(lines)


def _check_stall(
    timeseries: TimeSeriesCollector, config: HealthConfig
) -> list[HealthViolation]:
    """Maximal runs of silent-but-pending windows >= the threshold."""
    violations: list[HealthViolation] = []
    run_start: int | None = None
    windows = timeseries.windows

    def flush(end_index: int) -> None:
        nonlocal run_start
        if run_start is None:
            return
        length = end_index - run_start
        if length >= config.stall_windows:
            first, last = windows[run_start], windows[end_index - 1]
            open_peak = max(
                w.open_recoveries for w in windows[run_start:end_index]
            )
            violations.append(HealthViolation(
                check="progress.stall",
                message=(
                    f"{open_peak} recovery(ies) pending with no attempt"
                    f" transition for {length} consecutive windows"
                    f" ({first.start:g}..{last.end:g} ms)"
                ),
                window_start=first.start,
                window_end=last.end,
                details={
                    "windows": length,
                    "open_recoveries": open_peak,
                    "threshold": config.stall_windows,
                },
            ))
        run_start = None

    for i, window in enumerate(windows):
        silent = window.attempt_transitions == 0 and window.open_recoveries > 0
        if silent and run_start is None:
            run_start = i
        elif not silent:
            flush(i)
    flush(len(windows))
    return violations


def evaluate_health(
    log: RecoveryLog,
    ledger: BandwidthLedger,
    *,
    membership_tx_drops: int | None = None,
    pending_timers: int | None = None,
    timeseries: TimeSeriesCollector | None = None,
    config: HealthConfig | None = None,
) -> HealthReport:
    """Run every applicable check; purely read-only.

    ``membership_tx_drops`` is the director's ``member.tx_drop`` count
    (``None`` for churn-free runs, which skips the check);
    ``pending_timers`` is the event queue's live-timer count after the
    drain (``None`` skips the check); the stall check runs only when a
    ``timeseries`` collector is supplied.
    """
    config = config if config is not None else HealthConfig()
    violations: list[HealthViolation] = []
    checks: list[str] = []

    if timeseries is not None:
        checks.append("progress.stall")
        violations.extend(_check_stall(timeseries, config))

    checks.append("conservation.ledger")
    for kind, hops in sorted(
        ledger.hops_by_kind.items(), key=lambda item: item[0].value
    ):
        drops = ledger.drops_by_kind[kind]
        if hops < 0 or drops < 0 or drops > hops:
            violations.append(HealthViolation(
                check="conservation.ledger",
                message=f"{kind.value}: {drops} drops vs {hops} hops",
                details={"kind": kind.value, "hops": hops, "drops": drops},
            ))

    if membership_tx_drops is not None:
        checks.append("membership.tx_drop")
        if membership_tx_drops != 0:
            violations.append(HealthViolation(
                check="membership.tx_drop",
                message=(
                    f"{membership_tx_drops} transmission(s) by departed"
                    " members had to be suppressed at the network"
                ),
                details={"tx_drops": membership_tx_drops},
            ))

    checks.append("quiescence.drain")
    unterminated = log.unterminated()
    if unterminated:
        sample = unterminated[:5]
        violations.append(HealthViolation(
            check="quiescence.drain",
            message=(
                f"{len(unterminated)} recovery(ies) neither recovered nor"
                f" abandoned at drain, e.g. {sample}"
            ),
            details={
                "pending": len(unterminated),
                "sample": [list(key) for key in sample],
            },
        ))

    if pending_timers is not None:
        checks.append("quiescence.timers")
        if pending_timers:
            violations.append(HealthViolation(
                check="quiescence.timers",
                message=f"{pending_timers} live timer(s) left after the drain",
                details={"pending_timers": pending_timers},
            ))

    return HealthReport(
        violations=violations,
        checks_run=checks,
        windows=timeseries.num_windows if timeseries is not None else 0,
        window_width=timeseries.width if timeseries is not None else 0.0,
    )


class InvariantError(RuntimeError):
    """A run broke an invariant the runtimes guarantee.

    The runner raises it after the drain when :func:`evaluate_health`
    finds any violation other than ``progress.stall``.  ``report`` is
    the full :class:`HealthReport`; ``artifacts`` the run's
    :class:`~repro.experiments.runner.RunArtifacts`, so a caller that
    records the failure instead of stopping still has the run's counts.
    """

    def __init__(self, report: HealthReport, artifacts=None):
        self.report = report
        self.artifacts = artifacts
        super().__init__(
            "; ".join(violation.render() for violation in report.raised)
        )

    def __reduce__(self):
        # Parallel sweep workers send errors back pickled; the artifacts
        # hold live simulator state, so only the report crosses over.
        return type(self), (self.report,)


def render_health(
    report: HealthReport, timeseries: TimeSeriesCollector | None = None
) -> str:
    """Health verdict plus the sparkline block, the CLI's main view."""
    parts = [report.render()]
    if timeseries is not None and timeseries.num_windows:
        parts.append("")
        parts.append(render_sparklines(timeseries))
    return "\n".join(parts)


__all__ = [
    "ALL_CHECKS",
    "HEALTH_SCHEMA_VERSION",
    "HealthConfig",
    "HealthReport",
    "HealthViolation",
    "InvariantError",
    "evaluate_health",
    "render_health",
]
