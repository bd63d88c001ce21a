"""The paper's figure sweeps.

Figures 5/6 sweep the backbone size (50–600 routers, per-link loss 5%)
and read off, for each protocol, the average recovery latency per packet
recovered (Fig. 5) and the average bandwidth usage in hops per packet
recovered (Fig. 6).  Figures 7/8 fix the 500-router topology and sweep
the per-link loss probability 2%–20%.

One sweep run yields *both* metrics of its figure pair, so
:func:`run_client_sweep` backs Figures 5 and 6 and
:func:`run_loss_sweep` backs Figures 7 and 8; the bench files share the
sweep through a result cache.  Both list their (point, seed, protocol)
grid as units, run them through
:func:`repro.experiments.parallel.run_units` — whose ``jobs`` sets only
the worker count — and reassemble the points by unit index.

Paper reference points (section 5.2), the shapes our reproduction is
judged against:

* Fig. 5 — RP latency ≈ 77.78% below SRM and ≈ 71.3% below RMA; RP and
  SRM flat-ish in client count, RMA noisier;
* Fig. 6 — RP bandwidth ≈ 38.53% below SRM and ≈ 23.2% below RMA;
* Fig. 7 — all three roughly flat in p; RP ≈ 78.53% below SRM, ≈ 56%
  below RMA;
* Fig. 8 — SRM bandwidth per recovery *decreases* with p (fixed flood
  cost amortized over more recoveries) while RMA/RP increase; RP lowest.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import SweepUnit, UnitFailure, run_units
from repro.experiments.runner import ensure_unique_factories
from repro.metrics.summary import RunSummary
from repro.obs.profiler import Profiler
from repro.protocols.base import ProtocolFactory
from repro.protocols.rma import RMAProtocolFactory
from repro.protocols.rp import RPProtocolFactory
from repro.protocols.srm import SRMProtocolFactory

#: Backbone sizes of Figures 5–6.
FIG5_NUM_ROUTERS: tuple[int, ...] = (50, 100, 200, 300, 400, 500, 600)

#: Loss probabilities of Figures 7–8.
FIG7_LOSS_PROBS: tuple[float, ...] = (
    0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18, 0.20,
)

#: Backbone size of Figures 7–8.
FIG7_NUM_ROUTERS = 500


def default_protocols() -> list[ProtocolFactory]:
    """The paper's three compared schemes."""
    return [SRMProtocolFactory(), RMAProtocolFactory(), RPProtocolFactory()]


@dataclass
class SweepPoint:
    """One x-axis point of a sweep: per-protocol run summaries, averaged
    over the sweep's seeds."""

    x: float
    num_clients: float
    runs: dict[str, list[RunSummary]] = field(default_factory=dict)

    def mean_latency(self, protocol: str) -> float | None:
        """Per-protocol latency at this point, averaged over the runs
        that recovered anything; ``None`` when no run did."""
        values = [
            r.avg_latency
            for r in self.runs[protocol]
            if r.avg_latency is not None
        ]
        return sum(values) / len(values) if values else None

    def mean_bandwidth(self, protocol: str) -> float | None:
        """Per-protocol bandwidth at this point; ``None`` when every run
        of the protocol here failed (a sweep marks failed units instead
        of aborting)."""
        runs = self.runs[protocol]
        if not runs:
            return None
        return sum(r.bandwidth_per_recovery for r in runs) / len(runs)


@dataclass
class FigureSeries:
    """One protocol's series in one figure: (x, y) pairs.

    A latency ``y`` is ``None`` where no run recovered anything."""

    protocol: str
    xs: list[float]
    ys: list[float | None]


@dataclass
class SweepResult:
    """A completed sweep backing one figure pair.

    ``failures`` lists the units that still failed after their retry,
    at any ``jobs``; the points average the remaining runs."""

    x_label: str
    points: list[SweepPoint]
    protocols: list[str]
    failures: list[UnitFailure] = field(default_factory=list)

    def latency_series(self) -> list[FigureSeries]:
        return [
            FigureSeries(
                protocol=p,
                xs=[pt.x for pt in self.points],
                ys=[pt.mean_latency(p) for pt in self.points],
            )
            for p in self.protocols
        ]

    def bandwidth_series(self) -> list[FigureSeries]:
        return [
            FigureSeries(
                protocol=p,
                xs=[pt.x for pt in self.points],
                ys=[pt.mean_bandwidth(p) for pt in self.points],
            )
            for p in self.protocols
        ]

    def overall_mean(self, protocol: str, metric: str) -> float:
        """Sweep-wide mean of ``latency`` or ``bandwidth`` — what the
        paper's "RP is X% shorter than SRM" sentences average over.
        Points where no run recovered anything carry no latency and are
        skipped."""
        if metric == "latency":
            values = [
                v
                for pt in self.points
                if (v := pt.mean_latency(protocol)) is not None
            ]
        elif metric == "bandwidth":
            values = [
                v
                for pt in self.points
                if (v := pt.mean_bandwidth(protocol)) is not None
            ]
        else:
            raise ValueError(f"unknown metric {metric!r}")
        if not values:
            raise ValueError(
                f"no {metric} data for {protocol!r} anywhere in the sweep"
            )
        return sum(values) / len(values)


def _sweep(
    grid: str,
    configs: list[ScenarioConfig],
    xs: list[float],
    x_label: str,
    factories: list[ProtocolFactory] | None,
    seeds: tuple[int, ...],
    jobs: int = 1,
    progress: Callable[[str], None] | None = None,
    profiler: Profiler | None = None,
) -> SweepResult:
    """Run one sweep grid; ``grid`` names the swept argument."""
    factories = factories if factories is not None else default_protocols()
    ensure_unique_factories(factories)
    if not xs:
        raise ValueError(
            f"{grid} must be non-empty: a sweep needs at least one point"
        )
    if not seeds:
        raise ValueError(
            "seeds must be non-empty: a sweep needs at least one"
            " experiment seed"
        )
    units: list[SweepUnit] = []
    for point_index, (x, base) in enumerate(zip(xs, configs)):
        for seed_index, seed in enumerate(seeds):
            # dataclasses.replace keeps every other scenario knob
            # (including ones added later) instead of enumerating them.
            config = replace(base, seed=seed)
            units += [
                SweepUnit(
                    index=len(units) + offset,
                    point_index=point_index,
                    seed_index=seed_index,
                    x=x,
                    config=config,
                    factory=factory,
                    protocol=factory.name,
                )
                for offset, factory in enumerate(factories)
            ]
    results, failures = run_units(
        units, jobs, progress=progress, profiler=profiler
    )

    points = [
        SweepPoint(x=x, num_clients=0.0, runs={f.name: [] for f in factories})
        for x in xs
    ]
    # Per point, the client count of each seed with at least one run.
    seed_clients: list[dict[int, int]] = [{} for _ in xs]
    for unit in units:
        result = results.get(unit.index)
        if result is None:
            continue
        points[unit.point_index].runs[unit.protocol].append(result.summary)
        seed_clients[unit.point_index].setdefault(
            unit.seed_index, result.num_clients
        )
    for point, clients in zip(points, seed_clients):
        if clients:
            point.num_clients = sum(clients.values()) / len(clients)
    return SweepResult(
        x_label=x_label,
        points=points,
        protocols=[f.name for f in factories],
        failures=[failures[i] for i in sorted(failures)],
    )


def run_client_sweep(
    num_routers: tuple[int, ...] = FIG5_NUM_ROUTERS,
    loss_prob: float = 0.05,
    num_packets: int = 30,
    seeds: tuple[int, ...] = (1,),
    factories: list[ProtocolFactory] | None = None,
    lossless_recovery: bool = True,
    jobs: int = 1,
    progress: Callable[[str], None] | None = None,
    profiler: Profiler | None = None,
) -> SweepResult:
    """The Figures 5–6 sweep: backbone size at fixed 5% per-link loss.

    ``lossless_recovery`` defaults to the paper simulator's behaviour
    (recovery traffic never lost); pass False for the realistic mode.
    ``jobs`` sets how many worker processes run the grid (1: the calling
    process); results are bit-identical at every value (see
    :mod:`repro.experiments.parallel`).
    """
    configs = [
        ScenarioConfig(seed=0, num_routers=n, loss_prob=loss_prob,
                       num_packets=num_packets,
                       lossless_recovery=lossless_recovery)
        for n in num_routers
    ]
    return _sweep("num_routers", configs, [float(n) for n in num_routers],
                  "backbone routers", factories, seeds,
                  jobs=jobs, progress=progress, profiler=profiler)


def run_loss_sweep(
    loss_probs: tuple[float, ...] = FIG7_LOSS_PROBS,
    num_routers: int = FIG7_NUM_ROUTERS,
    num_packets: int = 30,
    seeds: tuple[int, ...] = (1,),
    factories: list[ProtocolFactory] | None = None,
    lossless_recovery: bool = True,
    jobs: int = 1,
    progress: Callable[[str], None] | None = None,
    profiler: Profiler | None = None,
) -> SweepResult:
    """The Figures 7–8 sweep: per-link loss on the 500-router topology.

    ``lossless_recovery`` defaults to the paper simulator's behaviour —
    without it every protocol's unicast recovery drowns at p = 20%
    (a round trip over ~15 links survives with probability 0.8^30),
    which contradicts the paper's flat Figure 7 and thus cannot be what
    its simulator did.
    """
    configs = [
        ScenarioConfig(seed=0, num_routers=num_routers, loss_prob=p,
                       num_packets=num_packets,
                       lossless_recovery=lossless_recovery)
        for p in loss_probs
    ]
    return _sweep("loss_probs", configs, [100.0 * p for p in loss_probs],
                  "per-link loss (%)", factories, seeds,
                  jobs=jobs, progress=progress, profiler=profiler)
