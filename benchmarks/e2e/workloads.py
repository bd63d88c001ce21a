"""The four workloads and the recorder that times and gates their sessions.

A *session* is one :func:`repro.experiments.runner.run_protocol_detailed`
call; a *repetition* builds every scenario a workload needs and runs all
of its sessions once.  The workloads drive the program through its own
entry points, ``runner.build_scenario`` and
``runner.run_protocol_detailed``, and go through
:class:`SessionRecorder` to do so, which times each build and session
and gates each session's result.

Each workload takes a plain config dict, a seed and the recorder.  The
network (topology, multicast tree, routing) comes from the config's
``topology_seed``; the seed draws the loss processes.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import time
from dataclasses import dataclass, field, replace

from benchmarks.e2e.calibration import HostSampler
from repro.core import plan_cache
from repro.experiments import runner
from repro.experiments.chaos import chaos_horizon, hardened_factories
from repro.experiments.config import ScenarioConfig
from repro.net.routing import ExactDistanceBackend, RoutingTable
from repro.obs.health import evaluate_health
from repro.obs.instrumentation import Instrumentation
from repro.obs.ledger import RunFingerprint, canonical_json
from repro.obs.timeseries import TimeSeriesCollector
from repro.protocols.rma import RMAProtocolFactory
from repro.protocols.rp import RPProtocolFactory
from repro.protocols.srm import SRMProtocolFactory
from repro.sim.faults import random_fault_schedule
from repro.sim.membership import random_membership_schedule
from repro.sim.rng import RngStreams

#: Loss seed of the reference input, which every run measures.
REFERENCE_SEED = 1000


def session_digest(built, artifacts) -> str:
    """sha256 over the run's fingerprint counters (minus the event count,
    which the fast path legitimately changes) and series digests."""
    fingerprint = RunFingerprint.from_artifacts("e2e", built.config, artifacts)
    counters = {
        k: v for k, v in fingerprint.counters.items() if k != "events_processed"
    }
    payload = canonical_json({"counters": counters, "series": fingerprint.series})
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class SessionRecord:
    """What the benchmark keeps of one session: its digest, the gate's
    findings and the sim-time numbers the metrics are made from."""

    label: str
    protocol: str
    digest: str
    problems: list[str]
    p50_latency: float
    p95_latency: float
    hops_per_loss: float
    events: int
    detected: int
    recovered: int
    abandoned: int
    recovery_hops: int
    data_hops: int
    fault_injections: int
    member_events: int
    stall_violations: int


@dataclass
class Repetition:
    setup_s: float = 0.0
    session_s: float = 0.0
    #: ``setup_s`` and ``session_s`` at the reference speed: each timed
    #: call divided by the host's slowdown while it ran.  ``None`` when
    #: the host was not sampled.
    setup_ref_s: float | None = None
    session_ref_s: float | None = None
    #: How much slower than the reference machine the host ran over the
    #: whole repetition (:meth:`HostSampler.slowdown`), when sampled.
    slowdown: float | None = None
    #: Sessions begun; one more than ``len(sessions)`` when one raised.
    started: int = 0
    sessions: list[SessionRecord] = field(default_factory=list)
    row_evictions: int = 0
    plan_cache: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.session_s

    def rp_outputs(self) -> dict[str, float]:
        """What RP simulated, averaged over its sessions: the recovery
        latency percentiles and hops per recovered loss of Figs 5-8."""
        rp = [s for s in self.sessions if s.protocol == "RP"]
        return {
            name: sum(getattr(s, attr) for s in rp) / len(rp)
            for name, attr in (
                ("recovery_latency_p50", "p50_latency"),
                ("recovery_latency_p95", "p95_latency"),
                ("recovery_hops_per_loss", "hops_per_loss"),
            )
        }


class SessionRecorder:
    """Times every build and session of one repetition and gates each
    session's result.

    ``gc.collect()`` runs before each timed call, outside the timer.
    With a :class:`~benchmarks.e2e.calibration.HostSampler` active, the
    time its samples took is left out of the timed calls, and
    :meth:`finish` divides each call by the slowdown sampled while it
    ran.  The gate is
    :func:`~repro.obs.health.evaluate_health` without a time series:
    recovered + abandoned = detected, per-kind drops <= hops, and no
    sends by departed members.  ``progress.stall`` is not part of it.
    """

    def __init__(self, sampler: HostSampler | None = None):
        self.rep = Repetition()
        self._sampler = sampler
        self._backends: dict[int, object] = {}
        #: ``(kind, start, end, seconds)`` of every timed call.
        self._calls: list[tuple[str, float, float, float]] = []

    def _stolen(self) -> float:
        return self._sampler.stolen if self._sampler is not None else 0.0

    def _timed(self, kind: str, call, *args, **kwargs):
        gc.collect()
        start, stolen = time.perf_counter(), self._stolen()
        try:
            return call(*args, **kwargs)
        finally:
            end = time.perf_counter()
            seconds = end - start - (self._stolen() - stolen)
            self._calls.append((kind, start, end, seconds))
            if kind == "setup":
                self.rep.setup_s += seconds
            else:
                self.rep.session_s += seconds

    def setup(self, build, *args, **kwargs):
        """``build(*args, **kwargs)``, timed as set-up."""
        return self._timed("setup", build, *args, **kwargs)

    def session(self, built, factory, **kwargs):
        """``runner.run_protocol_detailed(built, factory, **kwargs)``,
        timed as a session; its result is recorded and gated."""
        self.rep.started += 1
        artifacts = self._timed(
            "session", runner.run_protocol_detailed, built, factory, **kwargs
        )
        backend = built.routing.backend
        self._backends[id(backend)] = backend
        self.rep.sessions.append(self._record(built, factory, artifacts))
        return artifacts

    def finish(self) -> Repetition:
        """The repetition, with routing and plan-cache counters filled in,
        and its timings at the reference speed when the host was sampled."""
        self.rep.row_evictions = sum(
            getattr(backend, "evictions", 0) for backend in self._backends.values()
        )
        self.rep.plan_cache = plan_cache.GLOBAL_PLAN_CACHE.stats()
        if self._sampler is not None:
            at_reference = {"setup": 0.0, "session": 0.0}
            for kind, start, end, seconds in self._calls:
                at_reference[kind] += seconds / self._sampler.slowdown(start, end)
            self.rep.setup_ref_s = at_reference["setup"]
            self.rep.session_ref_s = at_reference["session"]
            self.rep.slowdown = self._sampler.slowdown()
        return self.rep

    @staticmethod
    def _record(built, factory, artifacts) -> SessionRecord:
        summary, log = artifacts.summary, artifacts.log
        director = artifacts.membership
        member_counts = director.counts if director is not None else {}
        health = evaluate_health(
            log,
            artifacts.ledger,
            membership_tx_drops=(
                member_counts.get("member.tx_drop", 0)
                if director is not None else None
            ),
        )
        stalls = 0
        if artifacts.health is not None:
            stalls = sum(
                v.check == "progress.stall" for v in artifacts.health.violations
            )
        return SessionRecord(
            label=f"{factory.name}@p={built.config.loss_prob:g}",
            protocol=factory.name,
            digest=session_digest(built, artifacts),
            problems=[v.render() for v in health.violations],
            p50_latency=summary.p50_latency,
            p95_latency=summary.p95_latency,
            hops_per_loss=summary.bandwidth_per_recovery,
            events=summary.events_processed,
            detected=summary.losses_detected,
            recovered=summary.losses_recovered,
            abandoned=log.num_abandoned,
            recovery_hops=summary.recovery_hops,
            data_hops=summary.data_hops,
            fault_injections=(
                sum(artifacts.faults.counts.values())
                if artifacts.faults is not None else 0
            ),
            member_events=(
                member_counts.get("member.leave", 0)
                + member_counts.get("member.join", 0)
            ),
            stall_violations=stalls,
        )


# -- workloads ---------------------------------------------------------------


def _built(recorder: SessionRecorder, config: dict, seed: int, lossless: bool,
           loss_prob=None):
    """Build the workload's scenario and hand it the run's seed.

    Topology, tree and routing come from the config's ``topology_seed``,
    so every run measures the same network; ``seed`` draws the loss
    processes (the swap parallel sweep workers make on a cached build).
    A different network per seed would move session time and latencies
    by tens of percent between runs and hide any regression smaller than
    that.
    """
    scenario = ScenarioConfig(
        seed=config["topology_seed"],
        num_routers=config["routers"],
        loss_prob=config["loss_prob"] if loss_prob is None else loss_prob,
        num_packets=config["packets"],
        lossless_recovery=lossless,
    )
    built = recorder.setup(runner.build_scenario, scenario)
    return replace(built, config=replace(scenario, seed=seed))


def fig7_sweep(config: dict, seed: int, recorder: SessionRecorder) -> None:
    """The paper's Fig 7/8 experiment: SRM, RMA and RP at each loss
    probability, one build per point, as ``run_loss_sweep`` runs it."""
    for loss_prob in config["loss_probs"]:
        built = _built(recorder, config, seed, lossless=True, loss_prob=loss_prob)
        for factory in (
            SRMProtocolFactory(), RMAProtocolFactory(), RPProtocolFactory()
        ):
            recorder.session(built, factory)


def exact_lru(config: dict, seed: int, recorder: SessionRecorder) -> None:
    """RP on the exact backend with a row cache smaller than the clients'
    working set, so Dijkstra rows are evicted and recomputed."""
    built = _built(recorder, config, seed, lossless=False)
    routing = recorder.setup(
        lambda: RoutingTable(built.topology, backend=ExactDistanceBackend(
            built.topology, max_rows=config["row_cache"]
        ))
    )
    recorder.session(replace(built, routing=routing), RPProtocolFactory())


def landmark_scale(config: dict, seed: int, recorder: SessionRecorder) -> None:
    """RP on the landmark backend: batched planning, fast dissemination.

    The routing table is built with the backend pinned to ``landmark``,
    the one ``auto`` selects past 20k nodes, so that a repetition takes
    seconds; the exact table ``build_scenario`` makes first computes
    nothing until queried."""
    built = _built(recorder, config, seed, lossless=True)
    built = replace(built, routing=recorder.setup(
        RoutingTable, built.topology, "landmark"
    ))
    recorder.session(built, RPProtocolFactory())


def stress_composed(config: dict, seed: int, recorder: SessionRecorder) -> None:
    """Hardened RP and SRM, exactly as the chaos and churn sweeps
    configure them, under faults, churn and a time-series collector at
    once.  The schedules belong to the scenario: they are drawn from the
    ``topology_seed`` lanes the sweeps use.

    RP draws its losses from ``seed``; SRM always draws them from
    :data:`REFERENCE_SEED`.  Under these faults SRM's event count moves
    3.3-fold with the loss draws alone (55k to 183k events over six
    seeds, against 41k to 45k for RP), more than any timing bound could
    absorb."""
    built = _built(recorder, config, seed, lossless=False)
    horizon = chaos_horizon(built.config)
    candidates = [c for c in built.tree.clients if c != built.tree.root]
    intensity = config["intensity"]
    lanes = RngStreams(config["topology_seed"])
    faults = random_fault_schedule(
        intensity,
        lanes.get(f"fault-schedule:{intensity:g}"),
        candidates,
        built.topology.links,
        horizon,
    )
    churn = random_membership_schedule(
        intensity,
        lanes.get(f"membership-schedule:{intensity:g}"),
        candidates,
        horizon,
    )
    reference = replace(built, config=replace(built.config, seed=REFERENCE_SEED))
    factories = {f.name: f for f in hardened_factories()}
    for scenario, factory in ((built, factories["RP"]),
                              (reference, factories["SRM"])):
        instr = Instrumentation.recording(
            profile=False, timeseries=TimeSeriesCollector()
        )
        try:
            recorder.session(
                scenario, factory, instrumentation=instr, faults=faults,
                membership=churn,
            )
        finally:
            instr.close()


@dataclass(frozen=True)
class Workload:
    run: object
    #: The measured configuration.
    config: dict
    #: A seconds-long configuration with the same code path, used to warm
    #: up lazy imports before timing (the two warm-up runs must agree)
    #: and by the harness self-test.
    tiny: dict
    #: Seconds one repetition of ``config`` takes at the reference speed
    #: (see :mod:`benchmarks.e2e.calibration`).  A run given ``S`` seconds
    #: measures ``2 * round(S / (2 * rep_seconds))`` repetitions: the
    #: count, and so the set of loss seeds, follows from the arguments
    #: alone.
    rep_seconds: float


WORKLOADS: dict[str, Workload] = {
    "fig7-sweep": Workload(
        fig7_sweep,
        config={"topology_seed": 1, "routers": 500, "packets": 8,
                "loss_probs": [0.04, 0.12, 0.20]},
        tiny={"topology_seed": 1, "routers": 40, "packets": 4,
              "loss_probs": [0.04, 0.12, 0.20]},
        rep_seconds=3.3,
    ),
    "exact-lru": Workload(
        exact_lru,
        config={"topology_seed": 1, "routers": 1500, "packets": 8,
                "loss_prob": 0.05, "row_cache": 512},
        tiny={"topology_seed": 1, "routers": 40, "packets": 4,
              "loss_prob": 0.05, "row_cache": 8},
        rep_seconds=3.4,
    ),
    "landmark-10k": Workload(
        landmark_scale,
        config={"topology_seed": 1, "routers": 10000, "packets": 4,
                "loss_prob": 0.003},
        tiny={"topology_seed": 1, "routers": 40, "packets": 4,
              "loss_prob": 0.05},
        rep_seconds=2.4,
    ),
    "stress-composed": Workload(
        stress_composed,
        config={"topology_seed": 1, "routers": 300, "packets": 12,
                "loss_prob": 0.05, "intensity": 0.3},
        tiny={"topology_seed": 1, "routers": 40, "packets": 4,
              "loss_prob": 0.05, "intensity": 0.3},
        rep_seconds=2.3,
    ),
}


def run_repetition(name: str, config: dict, seed: int,
                   sample_host: bool = False) -> Repetition:
    """Build and run everything workload ``name`` does once, cold: the
    plan cache is cleared and every scenario is built afresh.  With
    ``sample_host``, a :class:`HostSampler` samples the host's speed
    while the repetition runs."""
    plan_cache.clear()
    sampler = HostSampler() if sample_host else None
    recorder = SessionRecorder(sampler)
    with sampler or contextlib.nullcontext():
        WORKLOADS[name].run(config, seed, recorder)
    return recorder.finish()
