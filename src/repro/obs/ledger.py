"""Cross-run regression ledger: durable fingerprints, diffable history.

One-off benchmark snapshots are disconnected — nothing ties the
run a PR measured to the run the next PR measured, so a regression has
to be *noticed*, not detected.  The ledger closes that gap: every
instrumented run or sweep reduces to a :class:`RunFingerprint` — the
scenario's canonical config hash, its headline counters, and compact
digests of its time series — appended to a plain JSONL store.  Two
fingerprints diff structurally (:func:`diff_fingerprints`), which is
what ``repro health --diff A B`` and the CI gate over the campaign
smoke run.

Determinism discipline: a fingerprint contains **sim-time quantities
only**.  Wall-clock durations, hostnames, dates and python versions are
excluded by construction, so the same seed on any machine produces the
same fingerprint and a diff is always a *behaviour* change, never a
timing artifact.  (Stamp wall-clock context into ``meta`` yourself if
you want it recorded; the differ ignores ``meta``.)
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import asdict, dataclass, field, is_dataclass

#: Format version; bump on breaking schema changes.
LEDGER_SCHEMA_VERSION = 1


def canonical_json(data) -> str:
    """Canonical text form: sorted keys, no whitespace drift."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_hash(config) -> str:
    """SHA-256 over a config's canonical JSON.

    Accepts a dataclass (``ScenarioConfig``) or a plain dict.  Two runs
    share a hash iff every scenario knob matches, which is the
    precondition for their counters being comparable at all.
    """
    data = asdict(config) if is_dataclass(config) else dict(config)
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


@dataclass
class RunFingerprint:
    """One run/sweep, reduced to its comparable essence."""

    label: str
    config_hash: str
    counters: dict[str, object] = field(default_factory=dict)
    #: Per-series digests (count/total/min/max/crc) from
    #: :meth:`~repro.obs.timeseries.TimeSeriesCollector.digests`;
    #: empty when the run carried no time-series collector.
    series: dict[str, dict] = field(default_factory=dict)
    #: Free-form context (protocol, sweep kind, git rev).  Never
    #: participates in hashing or diffing.
    meta: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": LEDGER_SCHEMA_VERSION,
            "label": self.label,
            "config_hash": self.config_hash,
            "counters": dict(sorted(self.counters.items())),
            "series": {
                name: dict(sorted(digest.items()))
                for name, digest in sorted(self.series.items())
            },
            "meta": dict(sorted(self.meta.items())),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunFingerprint":
        schema = data.get("schema")
        if schema != LEDGER_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported ledger schema {schema!r};"
                f" expected {LEDGER_SCHEMA_VERSION}"
            )
        return cls(
            label=data["label"],
            config_hash=data["config_hash"],
            counters=dict(data["counters"]),
            series={k: dict(v) for k, v in data.get("series", {}).items()},
            meta=dict(data.get("meta", {})),
        )

    def save(self, path: str | pathlib.Path) -> None:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "RunFingerprint":
        return cls.from_dict(json.loads(pathlib.Path(path).read_text()))

    @classmethod
    def from_artifacts(
        cls, label: str, config, artifacts, meta: dict | None = None
    ) -> "RunFingerprint":
        """Fingerprint one run's :class:`~repro.experiments.runner.RunArtifacts`."""
        summary = artifacts.summary
        counters: dict[str, object] = {
            "num_clients": summary.num_clients,
            "num_packets": summary.num_packets,
            "losses_detected": summary.losses_detected,
            "losses_recovered": summary.losses_recovered,
            "losses_abandoned": artifacts.log.num_abandoned,
            "avg_latency": summary.avg_latency,
            "p95_latency": summary.p95_latency,
            "recovery_hops": summary.recovery_hops,
            "data_hops": summary.data_hops,
            "sim_time": summary.sim_time,
            "events_processed": summary.events_processed,
        }
        health = getattr(artifacts, "health", None)
        if health is not None:
            counters["health_violations"] = len(health.violations)
        timeseries = getattr(artifacts, "timeseries", None)
        series = timeseries.digests() if timeseries is not None else {}
        full_meta = {"protocol": summary.protocol}
        if meta:
            full_meta.update(meta)
        return cls(
            label=label,
            config_hash=config_hash(config),
            counters=counters,
            series=series,
            meta=full_meta,
        )

    @classmethod
    def from_payload(
        cls,
        label: str,
        config_data,
        counters: dict,
        series: dict | None = None,
        meta: dict | None = None,
    ) -> "RunFingerprint":
        """Fingerprint arbitrary already-reduced results (sweeps)."""
        return cls(
            label=label,
            config_hash=config_hash(config_data),
            counters=dict(counters),
            series=dict(series) if series else {},
            meta=dict(meta) if meta else {},
        )


@dataclass
class FingerprintDiff:
    """Structural difference between two fingerprints."""

    a_label: str
    b_label: str
    config_match: bool
    #: counter/series-field name → (value in a, value in b)
    changed: dict[str, tuple] = field(default_factory=dict)
    only_in_a: list[str] = field(default_factory=list)
    only_in_b: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (
            self.config_match
            and not self.changed
            and not self.only_in_a
            and not self.only_in_b
        )

    def render(self) -> str:
        lines = [f"== fingerprint diff: {self.a_label} vs {self.b_label} =="]
        if self.clean:
            lines.append("MATCH: configs and every compared quantity agree")
            return "\n".join(lines)
        if not self.config_match:
            lines.append(
                "CONFIG MISMATCH: the runs used different scenario configs"
                " — counter deltas below are not regressions by themselves"
            )
        for name in sorted(self.changed):
            a, b = self.changed[name]
            lines.append(f"  CHANGED {name}: {a!r} -> {b!r}")
        for name in self.only_in_a:
            lines.append(f"  ONLY IN {self.a_label}: {name}")
        for name in self.only_in_b:
            lines.append(f"  ONLY IN {self.b_label}: {name}")
        return "\n".join(lines)


def diff_fingerprints(
    a: RunFingerprint, b: RunFingerprint
) -> FingerprintDiff:
    """Compare counters and series digests; ``meta`` is ignored."""
    changed: dict[str, tuple] = {}
    only_a: list[str] = []
    only_b: list[str] = []

    def compare(prefix: str, left: dict, right: dict) -> None:
        for name in sorted(set(left) | set(right)):
            key = f"{prefix}{name}"
            if name not in right:
                only_a.append(key)
            elif name not in left:
                only_b.append(key)
            elif left[name] != right[name]:
                changed[key] = (left[name], right[name])

    compare("counters.", a.counters, b.counters)
    flat_a = {
        f"{series}.{k}": v for series, d in a.series.items()
        for k, v in d.items()
    }
    flat_b = {
        f"{series}.{k}": v for series, d in b.series.items()
        for k, v in d.items()
    }
    compare("series.", flat_a, flat_b)
    return FingerprintDiff(
        a_label=a.label,
        b_label=b.label,
        config_match=a.config_hash == b.config_hash,
        changed=changed,
        only_in_a=only_a,
        only_in_b=only_b,
    )


class RegressionLedger:
    """Append-only JSONL store of fingerprints.

    One JSON object per line; append never rewrites existing lines, so
    a crashed run leaves every prior entry parseable and the file diffs
    cleanly under version control.
    """

    def __init__(self, path: str | pathlib.Path):
        self.path = pathlib.Path(path)

    def append(self, fingerprint: RunFingerprint) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(canonical_json(fingerprint.to_dict()))
            fh.write("\n")

    def entries(self) -> list[RunFingerprint]:
        if not self.path.exists():
            return []
        out: list[RunFingerprint] = []
        with self.path.open() as fh:
            for line in fh:
                line = line.strip()
                if line:
                    out.append(RunFingerprint.from_dict(json.loads(line)))
        return out

    def latest(self, label: str | None = None) -> RunFingerprint | None:
        """Newest entry, optionally restricted to one label."""
        for entry in reversed(self.entries()):
            if label is None or entry.label == label:
                return entry
        return None


def load_fingerprint(path: str | pathlib.Path) -> RunFingerprint:
    """Read a fingerprint from a ``.json`` file or the newest entry of
    a ``.jsonl`` ledger — the two argument shapes ``--diff`` accepts."""
    path = pathlib.Path(path)
    if path.suffix == ".jsonl":
        latest = RegressionLedger(path).latest()
        if latest is None:
            raise ValueError(f"ledger {path} has no entries")
        return latest
    return RunFingerprint.load(path)


__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "FingerprintDiff",
    "RegressionLedger",
    "RunFingerprint",
    "canonical_json",
    "config_hash",
    "diff_fingerprints",
    "load_fingerprint",
]
