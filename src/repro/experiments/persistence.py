"""Saving and loading sweep results and run telemetry.

A full figure sweep simulates dozens of sessions; re-rendering a table
or plot should not require re-simulating.  :func:`save_sweep` writes a
versioned JSON document with every run summary; :func:`load_sweep`
reconstructs the :class:`~repro.experiments.figures.SweepResult` so all
rendering paths (tables, ASCII plots, improvement lines) work on loaded
data exactly as on fresh data.

:func:`save_obs_report` / :func:`load_obs_report` do the same for a
run's attempt-level telemetry (:class:`~repro.obs.report.ObsReport`),
which carries its own schema version.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict

from repro.experiments.figures import SweepPoint, SweepResult
from repro.experiments.parallel import UnitFailure
from repro.metrics.summary import RunSummary
from repro.obs.report import ObsReport

#: Format version; bump on breaking schema changes.
SCHEMA_VERSION = 1


def sweep_to_dict(sweep: SweepResult) -> dict:
    """Plain-dict form of a sweep (JSON-ready)."""
    return {
        "schema": SCHEMA_VERSION,
        "x_label": sweep.x_label,
        "protocols": list(sweep.protocols),
        "failures": [asdict(failure) for failure in sweep.failures],
        "points": [
            {
                "x": point.x,
                "num_clients": point.num_clients,
                "runs": {
                    name: [asdict(summary) for summary in summaries]
                    for name, summaries in point.runs.items()
                },
            }
            for point in sweep.points
        ],
    }


def sweep_from_dict(data: dict) -> SweepResult:
    """Inverse of :func:`sweep_to_dict`; validates the schema version."""
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported sweep schema {schema!r}; expected {SCHEMA_VERSION}"
        )
    points = []
    for raw in data["points"]:
        runs = {
            name: [RunSummary(**summary) for summary in summaries]
            for name, summaries in raw["runs"].items()
        }
        points.append(
            SweepPoint(x=raw["x"], num_clients=raw["num_clients"], runs=runs)
        )
    return SweepResult(
        x_label=data["x_label"],
        points=points,
        protocols=list(data["protocols"]),
        # Absent in files written before the parallel layer existed.
        failures=[
            UnitFailure(**failure) for failure in data.get("failures", [])
        ],
    )


def save_sweep(sweep: SweepResult, path: str | pathlib.Path) -> None:
    """Write a sweep to ``path`` as JSON."""
    payload = json.dumps(sweep_to_dict(sweep), indent=1, sort_keys=True)
    pathlib.Path(path).write_text(payload)


def load_sweep(path: str | pathlib.Path) -> SweepResult:
    """Read a sweep saved by :func:`save_sweep`."""
    return sweep_from_dict(json.loads(pathlib.Path(path).read_text()))


def save_obs_report(report: ObsReport, path: str | pathlib.Path) -> None:
    """Write one run's telemetry report to ``path`` as JSON."""
    payload = json.dumps(report.to_dict(), indent=1, sort_keys=True)
    pathlib.Path(path).write_text(payload)


def load_obs_report(path: str | pathlib.Path) -> ObsReport:
    """Read a report saved by :func:`save_obs_report`."""
    return ObsReport.from_dict(json.loads(pathlib.Path(path).read_text()))
