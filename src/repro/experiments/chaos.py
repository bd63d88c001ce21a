"""The chaos sweep: faults × churn versus hardened recovery.

The paper's figures compare the protocols inside the regime its analysis
assumes — independent per-link loss, a fixed receiver group, peers that
always answer, a source that never disappears.  The chaos sweep measures
what the *hardened* protocol configurations do when those assumptions
are broken on purpose, along two axes at once:

* **faults** — a :func:`~repro.sim.faults.random_fault_schedule` of the
  point's fault intensity: peer crashes, burst loss, link downs,
  recovery black-holing;
* **churn** — a :func:`~repro.sim.membership.random_membership_schedule`
  of the point's churn intensity: members leave and rejoin mid-session.

Every protocol runs on the same topology against the same schedules per
(seed, point); the injector's stochastic draws come from the
per-protocol ``faults:<protocol>`` lane.  Intensity 0 on an axis draws
the null schedule, so the churn = 0 column is the fault sweep and the
faults = 0 row the churn sweep, and the (0, 0) cell is the unperturbed
baseline of the same build.

What comes out per (faults, churn, seed, protocol) cell:

* the usual recovery metrics (losses detected/recovered, mean latency,
  recovery hops) — latency *degrades* with intensity, it should not cliff;
* the **abandonment rate** — the fraction of detected losses the bounded
  retry policy explicitly gave up on (a permanent leaver takes its
  losses with it, a crashed peer may never answer);
* the injector's per-kind fault counts and the director's per-kind
  membership counts, so a cell's severity is auditable;
* for the planning protocol (RP), the **incremental plan repair** cost —
  the fraction of the group re-planned per composition change — and the
  **quality gap**: the worst relative expected-delay difference between
  the repaired plans and planning the final group from scratch;
* the count of run-invariant violations (see :mod:`repro.obs.health`).

The gate (:attr:`ChaosSweepResult.gates_pass`): zero invariant
violations everywhere and a repair quality gap within 1%.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.experiments.config import ScenarioConfig
from repro.experiments.report import format_table
from repro.experiments.runner import (
    BuiltScenario,
    build_scenario,
    ensure_unique_factories,
    run_protocol_detailed,
)
from repro.obs.health import InvariantError
from repro.protocols.base import ProtocolFactory
from repro.protocols.naive import NaiveConfig, NearestPeerProtocolFactory
from repro.protocols.policy import RecoveryPolicy
from repro.protocols.rma import RMAConfig, RMAProtocolFactory
from repro.protocols.rp import RPConfig, RPProtocolFactory
from repro.protocols.source import SourceConfig, SourceProtocolFactory
from repro.protocols.srm import SRMConfig, SRMProtocolFactory
from repro.sim.faults import FaultSchedule, random_fault_schedule
from repro.sim.membership import MembershipSchedule, random_membership_schedule
from repro.sim.rng import RngStreams

#: Default fault-intensity grid: fault-free baseline, moderate, severe.
DEFAULT_FAULTS: tuple[float, ...] = (0.0, 0.3, 0.6)

#: Default churn-intensity grid: churn-free.
DEFAULT_CHURN: tuple[float, ...] = (0.0,)

#: The acceptance bound on the incremental-repair quality gap.
QUALITY_GAP_LIMIT = 0.01

#: SRM has no peer-retry policy (its requests flood); its bound is the
#: request-round cap.  8 doubling rounds span a 256x timeout range —
#: far beyond any transient window the default schedules produce.
SRM_MAX_REQUEST_ROUNDS = 8


def hardened_factories() -> list[ProtocolFactory]:
    """All five protocols in their hardened configuration.

    RP, RMA, SOURCE and NEAREST share :meth:`RecoveryPolicy.hardened`
    (bounded peer retries with backoff, failure detector, bounded source
    fallback); SRM's equivalent knob is the request-round cap.
    """
    policy = RecoveryPolicy.hardened()
    return [
        RPProtocolFactory(RPConfig(recovery_policy=policy)),
        SRMProtocolFactory(SRMConfig(max_request_rounds=SRM_MAX_REQUEST_ROUNDS)),
        RMAProtocolFactory(RMAConfig(recovery_policy=policy)),
        SourceProtocolFactory(SourceConfig(recovery_policy=policy)),
        NearestPeerProtocolFactory(NaiveConfig(recovery_policy=policy)),
    ]


def chaos_horizon(config: ScenarioConfig) -> float:
    """The placement horizon for fault windows and membership events:
    the nominal stream duration plus a session-flush margin.  Windows
    end and rejoins land within it, well before the drain — finite
    perturbations are what keep chaos runs terminating."""
    return (
        config.num_packets * config.data_interval + 2.0 * config.session_interval
    )


@dataclass(frozen=True)
class ChaosRunRecord:
    """One (protocol, seed, faults, churn) cell of the sweep."""

    protocol: str
    seed: int
    #: The cell's fault and churn intensities.
    faults: float
    churn: float
    losses_detected: int
    losses_recovered: int
    losses_abandoned: int
    avg_latency: float | None
    recovery_hops: int
    sim_time: float
    #: Per-kind injection totals from the run's FaultInjector.
    fault_counts: dict[str, int]
    #: Per-kind composition totals from the run's MembershipDirector
    #: (member.leave / member.join / member.rx_drop / member.tx_drop /
    #: plan.repair).
    member_counts: dict[str, int]
    #: Run-invariant violations (:mod:`repro.obs.health`); must be 0.
    invariant_violations: int
    #: Incremental plan-repair accounting (zeros for non-planning
    #: protocols or churn-free cells).
    repair_events: int
    repair_replans: int
    #: Mean fraction of the group re-planned per composition change —
    #: the sublinearity headline (1.0 would be plan_all-per-event).
    repair_fraction: float
    #: Worst relative expected-delay gap between the repaired plans and
    #: a from-scratch plan of the final group (``None`` when the
    #: protocol does not plan or nothing churned).
    repair_quality_gap: float | None

    @property
    def total_faults(self) -> int:
        return sum(self.fault_counts.values())

    @property
    def leaves(self) -> int:
        return self.member_counts.get("member.leave", 0)

    @property
    def joins(self) -> int:
        return self.member_counts.get("member.join", 0)


@dataclass
class ChaosPoint:
    """One (faults, churn) point of the grid: every protocol x seed record."""

    faults: float
    churn: float
    records: list[ChaosRunRecord] = field(default_factory=list)

    def _of(self, protocol: str) -> list[ChaosRunRecord]:
        return [r for r in self.records if r.protocol == protocol]

    def mean_latency(self, protocol: str) -> float | None:
        values = [
            r.avg_latency for r in self._of(protocol) if r.avg_latency is not None
        ]
        return sum(values) / len(values) if values else None

    def abandonment_rate(self, protocol: str) -> float:
        """Abandoned / detected across the protocol's seeds (0.0 when
        nothing was detected)."""
        records = self._of(protocol)
        detected = sum(r.losses_detected for r in records)
        if detected == 0:
            return 0.0
        return sum(r.losses_abandoned for r in records) / detected

    def violations(self, protocol: str | None = None) -> int:
        records = self.records if protocol is None else self._of(protocol)
        return sum(r.invariant_violations for r in records)


@dataclass
class ChaosSweepResult:
    """A completed chaos sweep, JSON round-trippable."""

    seeds: list[int]
    num_routers: int
    num_packets: int
    loss_prob: float
    protocols: list[str]
    points: list[ChaosPoint]

    def point(self, faults: float, churn: float) -> ChaosPoint:
        return next(
            p for p in self.points if p.faults == faults and p.churn == churn
        )

    @property
    def total_violations(self) -> int:
        return sum(point.violations() for point in self.points)

    @property
    def max_quality_gap(self) -> float:
        """Worst repaired-vs-scratch plan gap across the sweep."""
        return max(
            (
                r.repair_quality_gap
                for p in self.points
                for r in p.records
                if r.repair_quality_gap is not None
            ),
            default=0.0,
        )

    @property
    def gates_pass(self) -> bool:
        """The acceptance gate: no invariant violation anywhere, and
        repaired plans within 1% of planning from scratch."""
        return (
            self.total_violations == 0
            and self.max_quality_gap <= QUALITY_GAP_LIMIT
        )

    def render(self) -> str:
        rows = []
        for point in self.points:
            for protocol in self.protocols:
                records = point._of(protocol)
                latency = point.mean_latency(protocol)
                fractions = [
                    r.repair_fraction for r in records if r.repair_events
                ]
                gaps = [
                    r.repair_quality_gap
                    for r in records
                    if r.repair_quality_gap is not None
                ]
                rows.append([
                    f"{point.faults:g}",
                    f"{point.churn:g}",
                    protocol,
                    str(sum(r.total_faults for r in records)),
                    str(sum(r.leaves for r in records)),
                    str(sum(r.joins for r in records)),
                    str(sum(r.losses_detected for r in records)),
                    str(sum(r.losses_recovered for r in records)),
                    f"{100.0 * point.abandonment_rate(protocol):.1f}",
                    "n/a" if latency is None else f"{latency:.2f}",
                    (
                        f"{100.0 * sum(fractions) / len(fractions):.1f}"
                        if fractions else "n/a"
                    ),
                    f"{100.0 * max(gaps):.2f}" if gaps else "n/a",
                    str(point.violations(protocol)),
                ])
        table = format_table(
            [
                "faults", "churn", "protocol", "injected", "leaves", "joins",
                "detected", "recovered", "abandon %", "latency ms",
                "replan %", "gap %", "violations",
            ],
            rows,
        )
        header = (
            "Chaos sweep: faults x churn vs hardened recovery\n"
            f"seeds={self.seeds} routers={self.num_routers}"
            f" packets={self.num_packets} loss={self.loss_prob:g}\n"
        )
        footer = (
            f"\n\ninvariant violations: {self.total_violations}"
            f"  worst repair gap: {100.0 * self.max_quality_gap:.2f}%"
            + ("" if self.gates_pass else "  <-- INVARIANT BROKEN")
        )
        return header + "\n" + table + footer

    # -- persistence -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "kind": "chaos-sweep",
            "seeds": list(self.seeds),
            "num_routers": self.num_routers,
            "num_packets": self.num_packets,
            "loss_prob": self.loss_prob,
            "protocols": list(self.protocols),
            "points": [
                {
                    "faults": point.faults,
                    "churn": point.churn,
                    "records": [asdict(record) for record in point.records],
                }
                for point in self.points
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosSweepResult":
        if data.get("kind") != "chaos-sweep":
            raise ValueError(
                f"not a chaos-sweep document (kind={data.get('kind')!r})"
            )
        points = [
            ChaosPoint(
                faults=float(raw["faults"]),
                churn=float(raw["churn"]),
                records=[ChaosRunRecord(**record) for record in raw["records"]],
            )
            for raw in data["points"]
        ]
        return cls(
            seeds=[int(s) for s in data["seeds"]],
            num_routers=int(data["num_routers"]),
            num_packets=int(data["num_packets"]),
            loss_prob=float(data["loss_prob"]),
            protocols=list(data["protocols"]),
            points=points,
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ChaosSweepResult":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _run_cell(
    built: BuiltScenario,
    factory: ProtocolFactory,
    faults: FaultSchedule,
    membership: MembershipSchedule,
    seed: int,
    point: ChaosPoint,
) -> ChaosRunRecord:
    try:
        artifacts = run_protocol_detailed(
            built, factory, faults=faults, membership=membership
        )
        violations = 0
    except InvariantError as err:
        # A protocol that breaks an invariant (say, hangs a recovery) is
        # the finding the sweep exists to surface: record it, keep going.
        artifacts = err.artifacts
        violations = len(err.report.raised)
    summary = artifacts.summary
    director = artifacts.membership
    repair_events = repair_replans = 0
    repair_fraction = 0.0
    quality_gap = None
    repairer = getattr(factory, "last_repairer", None)
    if director is not None and repairer is not None:
        stats = repairer.stats()
        repair_events = stats["events"]
        repair_replans = stats["clients_replanned"]
        repair_fraction = stats["replan_fraction"]
        if repair_events:
            # The quality audit: re-plan the *final* group from scratch
            # and compare every repaired plan against it.
            quality_gap = repairer.verify_against_scratch(director.departed)
    return ChaosRunRecord(
        protocol=factory.name,
        seed=seed,
        faults=point.faults,
        churn=point.churn,
        losses_detected=summary.losses_detected,
        losses_recovered=summary.losses_recovered,
        losses_abandoned=artifacts.log.num_abandoned,
        avg_latency=summary.avg_latency,
        recovery_hops=summary.recovery_hops,
        sim_time=summary.sim_time,
        fault_counts=(
            dict(artifacts.faults.counts) if artifacts.faults is not None else {}
        ),
        member_counts=dict(director.counts) if director is not None else {},
        invariant_violations=violations,
        repair_events=repair_events,
        repair_replans=repair_replans,
        repair_fraction=repair_fraction,
        repair_quality_gap=quality_gap,
    )


def run_chaos_sweep(
    seeds: Sequence[int] = (1,),
    faults: Sequence[float] = DEFAULT_FAULTS,
    churn: Sequence[float] = DEFAULT_CHURN,
    num_routers: int = 60,
    num_packets: int = 20,
    loss_prob: float = 0.05,
    factories: list[ProtocolFactory] | None = None,
    progress: Callable[[str], None] | None = None,
) -> ChaosSweepResult:
    """Sweep the faults × churn grid against the hardened protocol suite.

    Per seed the topology is built once and shared by every (point,
    protocol) cell — the comparison discipline of the figure sweeps;
    churned runs clone the multicast tree so the shared build stays
    pristine.  Per seed each fault intensity's schedule is sampled once
    from its ``fault-schedule:<f>`` RNG lane and each churn intensity's
    from its ``membership-schedule:<c>`` lane, so all protocols (and all
    points sharing an intensity) face identical crash, link-down and
    join/leave events.  Chaos runs use the realistic loss mode
    (``lossless_recovery=False``) — exempting recovery traffic would
    hide exactly the faults being injected.

    The source is never a crash or churn candidate: a sourceless group
    makes every fallback abandon, which measures the schedule rather
    than the protocol.
    """
    if not seeds:
        raise ValueError("seeds must be non-empty")
    if not faults or not churn:
        raise ValueError("the faults and churn grids must be non-empty")
    factories = factories if factories is not None else hardened_factories()
    ensure_unique_factories(factories)
    points = [
        ChaosPoint(faults=float(f), churn=float(c)) for f in faults for c in churn
    ]
    for seed in seeds:
        config = ScenarioConfig(
            seed=seed,
            num_routers=num_routers,
            loss_prob=loss_prob,
            num_packets=num_packets,
            lossless_recovery=False,
        )
        built = build_scenario(config)
        horizon = chaos_horizon(config)
        candidates = [
            client for client in built.tree.clients if client != built.tree.root
        ]
        lanes = RngStreams(seed)
        fault_schedules = {
            f: random_fault_schedule(
                f, lanes.get(f"fault-schedule:{f:g}"), candidates,
                built.topology.links, horizon,
            )
            for f in {point.faults for point in points}
        }
        membership_schedules = {
            c: random_membership_schedule(
                c, lanes.get(f"membership-schedule:{c:g}"), candidates, horizon
            )
            for c in {point.churn for point in points}
        }
        for point in points:
            for factory in factories:
                if progress is not None:
                    progress(
                        f"chaos seed={seed} faults={point.faults:g}"
                        f" churn={point.churn:g} {factory.name}"
                    )
                point.records.append(_run_cell(
                    built, factory, fault_schedules[point.faults],
                    membership_schedules[point.churn], seed, point,
                ))
    return ChaosSweepResult(
        seeds=[int(s) for s in seeds],
        num_routers=num_routers,
        num_packets=num_packets,
        loss_prob=loss_prob,
        protocols=[factory.name for factory in factories],
        points=points,
    )
