"""Building and running scenarios.

The comparison discipline matters: for one seed, the topology, multicast
tree and routing are built **once** and every protocol runs on that same
network (fresh event queue, fresh agents, its own loss stream).  This is
how the paper compares "the performance of our recovery strategy with
that of SRM and RMA" per generated topology.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.experiments.config import ScenarioConfig
from repro.metrics.collectors import BandwidthLedger, RecoveryLog
from repro.metrics.summary import RunSummary, summarize_run
from repro.net.generators import random_backbone
from repro.net.mcast_tree import MulticastTree, random_multicast_tree
from repro.net.routing import RoutingTable
from repro.net.topology import Topology
from repro.obs.events import HealthEvent
from repro.obs.health import (
    HealthConfig,
    HealthReport,
    InvariantError,
    evaluate_health,
)
from repro.obs.instrumentation import Instrumentation
from repro.obs.profiler import Profiler
from repro.obs.report import ObsReport, build_obs_report
from repro.obs.spans import SpanStore
from repro.obs.timeseries import TimeSeriesCollector
from repro.protocols.base import CompletionTracker, ProtocolFactory, StreamDriver
from repro.sim.congestion import LinearCongestionModel
from repro.sim.engine import EventQueue
from repro.sim.faults import FaultInjector, FaultSchedule
from repro.sim.membership import MembershipDirector, MembershipSchedule
from repro.sim.network import SimNetwork
from repro.sim.rng import RngStreams


@dataclass
class BuiltScenario:
    """A generated network shared by all protocol runs of one seed."""

    config: ScenarioConfig
    topology: Topology
    tree: MulticastTree
    routing: RoutingTable

    @property
    def clients(self) -> list[int]:
        return self.tree.clients

    @property
    def num_clients(self) -> int:
        return len(self.tree.clients)


def build_scenario(config: ScenarioConfig) -> BuiltScenario:
    """Generate the topology and multicast tree for a config's seed."""
    streams = RngStreams(config.seed)
    topology = random_backbone(config.topology_config(), streams.get("topology"))
    tree = random_multicast_tree(topology, streams.get("tree"))
    routing = RoutingTable(topology)
    return BuiltScenario(
        config=config, topology=topology, tree=tree, routing=routing
    )


@dataclass
class RunArtifacts:
    """A run's summary plus its raw collectors, for deeper analysis.

    ``obs`` is the attempt-level telemetry report; ``None`` unless the
    run was given an enabled
    :class:`~repro.obs.instrumentation.Instrumentation` whose event bus
    has at least one sink.  ``faults`` is the run's live
    injector (``None`` for fault-free runs) — its ``counts`` carry the
    per-kind injection totals.
    """

    summary: RunSummary
    log: RecoveryLog
    ledger: BandwidthLedger
    obs: ObsReport | None = None
    faults: FaultInjector | None = None
    #: The run's live membership director (``None`` for churn-free
    #: runs) — its ``counts`` carry the per-kind composition totals.
    membership: MembershipDirector | None = None
    #: Causal span trees; ``None`` unless the instrumentation carried a
    #: :class:`~repro.obs.tracing.Tracer` (``recording(trace=True)``).
    spans: SpanStore | None = None
    #: Windowed sim-time series; ``None`` unless the instrumentation
    #: carried a :class:`~repro.obs.timeseries.TimeSeriesCollector`
    #: (``recording(timeseries=...)``).  Finalized at the drain cutoff.
    timeseries: TimeSeriesCollector | None = None
    #: The drain-time invariant report (see :mod:`repro.obs.health`).
    #: Every run is checked; the report is attached only alongside
    #: ``timeseries``, the one case where it can hold a violation the
    #: runner does not raise (``progress.stall``).
    health: HealthReport | None = None


def run_protocol(
    built: BuiltScenario,
    factory: ProtocolFactory,
    instrumentation: Instrumentation | None = None,
    faults: FaultSchedule | None = None,
    membership: MembershipSchedule | None = None,
) -> RunSummary:
    """Run one protocol on a built scenario and summarize it.

    The run stops when every client holds every packet, then drains for
    ``config.drain_time`` so in-flight recovery traffic is billed.
    Raises ``RuntimeError`` if the event budget is exhausted before
    completion (a protocol liveness bug, not a measurement), and
    :class:`~repro.obs.health.InvariantError` if the drained run breaks
    an invariant.
    """
    return run_protocol_detailed(
        built, factory, instrumentation, faults=faults, membership=membership
    ).summary


def run_protocol_detailed(
    built: BuiltScenario,
    factory: ProtocolFactory,
    instrumentation: Instrumentation | None = None,
    faults: FaultSchedule | None = None,
    membership: MembershipSchedule | None = None,
    health_config: HealthConfig | None = None,
) -> RunArtifacts:
    """Like :func:`run_protocol` but also returns the raw collectors
    (per-loss timelines, per-kind hop counters).

    ``instrumentation`` threads a telemetry bundle through the whole
    run: each of the run's two event-loop passes is timed under
    ``events.run`` (count: events dispatched), RP planning is timed once
    per plan call (``planner.plan``), the protocol agents get its event
    bus and counters.  Profiling never
    changes which dissemination path runs.  Instrumentation never
    touches the RNG streams or event ordering, so an instrumented run
    reproduces the uninstrumented one exactly.

    ``faults`` injects a :class:`~repro.sim.faults.FaultSchedule` into
    the network.  ``None`` *and* the null schedule construct no injector
    and touch no extra RNG lane — fault-free runs are byte-identical to
    runs of a build without the fault subsystem.  Faulted runs carry
    the injection counters in the returned artifacts.

    ``membership`` drives join/leave churn through a
    :class:`~repro.sim.membership.MembershipDirector`.  ``None`` *and*
    the null schedule construct no director and mutate nothing — the
    shared built tree stays pristine and churn-free runs are
    byte-identical to runs of a build without the membership subsystem.
    Churned runs execute on a :meth:`~repro.net.mcast_tree.MulticastTree.clone`
    of the tree.  The director is on the network before
    ``factory.install``, so a factory that plans wires its incremental
    plan repair there (:meth:`~repro.protocols.rp.RPProtocolFactory.install`);
    other protocols churn without re-planning.

    After the drain every run is checked by
    :func:`~repro.obs.health.evaluate_health`: every detected loss
    recovered or explicitly abandoned, no live timer left, ledger
    conservation, and (churned runs) no send by a departed member.  Any
    violation other than ``progress.stall`` raises
    :class:`~repro.obs.health.InvariantError`, which carries the report
    and the run's artifacts.  Violations are mirrored onto the event bus
    as :class:`~repro.obs.events.HealthEvent` records.

    When the instrumentation carries a time-series collector
    (``recording(timeseries=...)``), the collector is armed with the
    live engine and ledger before the stream starts, and after the
    drain the collector is finalized, the windowed ``progress.stall``
    check joins the others and the report is attached as
    ``artifacts.health``.
    ``health_config`` tunes the stall threshold.
    """
    config = built.config
    instr = instrumentation
    profiler = instr.profiler if instr is not None else None
    streams = RngStreams(config.seed)
    events = EventQueue()
    ledger = BandwidthLedger()
    log = RecoveryLog()
    injector = None
    if faults is not None and not faults.is_null:
        # Own RNG lane: fault draws never perturb the loss/jitter
        # streams, so two protocols on one seed face identical windows
        # with independent stochastic fault draws.
        injector = FaultInjector(
            faults, streams.get(f"faults:{factory.name}"), instrumentation=instr
        )
    director = None
    tree = built.tree
    if membership is not None and not membership.is_null:
        # Churn mutates the tree (leaf prune/graft), so the run gets its
        # own structural copy — the built scenario's tree is shared by
        # every protocol run of this seed and must stay pristine.
        tree = built.tree.clone()
        director = MembershipDirector(membership, instrumentation=instr)
    network = SimNetwork(
        events,
        built.topology,
        built.routing,
        tree,
        loss_rng=streams.get(f"loss:{factory.name}"),
        ledger=ledger,
        data_loss_rng=streams.get("loss:data"),
        lossless_recovery=config.lossless_recovery,
        jitter=config.jitter,
        jitter_rng=(
            streams.get(f"jitter:{factory.name}") if config.jitter > 0 else None
        ),
        congestion=(
            LinearCongestionModel(config.congestion_alpha)
            if config.congestion_alpha > 0
            else None
        ),
        faults=injector,
        membership=director,
    )
    tracer = instr.tracer if instr is not None else None
    if tracer is not None:
        # The tracer also reads the network's link-event stream; packet
        # stamping happens inside the protocol agents via trace_ids.
        network.add_link_observer(tracer.on_link_event)
    clients = tree.clients
    tracker = CompletionTracker(len(clients), config.num_packets, events)
    source_agent = factory.install(
        network, log, tracker, streams, config.num_packets,
        instrumentation=instr,
    )
    if director is not None:
        # Arm after install so the director's events find the agents in
        # place.
        director.arm()
    driver = StreamDriver(
        network, source_agent, config.stream_config(), tracker,
        instrumentation=instr,
    )
    timeseries = instr.timeseries if instr is not None else None
    if timeseries is not None:
        timeseries.arm(events, ledger)
    # Arm the array dissemination fast path once the agents are
    # installed: it snapshots their tree positions.  Refused under
    # jitter, congestion, faults, churn or the tracer's link observer
    # (registered above); an armed run falls back per send only where a
    # loss draw cannot be replayed, bit-identically.
    network.enable_fast_dissem(config.stream_config())
    driver.start()

    _run_events(events, profiler, max_events=config.max_events)
    if not tracker.complete:
        raise RuntimeError(
            f"{factory.name}: session did not complete "
            f"({tracker.remaining} receptions outstanding)"
        )
    if instr is not None:
        instr.phase(events.now, "session.complete")
    # Drain: let armed repair timers and in-flight packets finish.
    _run_events(
        events, profiler,
        until=events.now + config.drain_time, max_events=config.max_events,
    )
    if instr is not None:
        instr.phase(events.now, "session.drained")
    if tracer is not None:
        tracer.finish(events.now)
    # Fast-path charges past the drain cutoff would never have fired.
    ledger.close(events.now)
    # Harness events past the drain cutoff (a session flush, membership
    # events) never fired; cancel them so they don't read as live
    # protocol timers below.
    driver.cancel_pending()
    if director is not None:
        director.cancel_pending()
    if timeseries is not None:
        timeseries.finalize(events.now)
    health = evaluate_health(
        log,
        ledger,
        membership_tx_drops=(
            director.counts.get("member.tx_drop", 0)
            if director is not None else None
        ),
        pending_timers=events.pending,
        timeseries=timeseries,
        config=health_config,
    )
    if instr is not None and instr.bus.active:
        for violation in health.violations:
            instr.bus.emit(HealthEvent(
                time=events.now,
                check=violation.check,
                message=violation.message,
                window_start=violation.window_start,
                window_end=violation.window_end,
            ))

    summary = summarize_run(
        protocol=factory.name,
        num_clients=len(clients),
        num_packets=config.num_packets,
        log=log,
        ledger=ledger,
        sim_time=events.now,
        events_processed=events.processed,
    )
    obs = None
    if instr is not None and instr.bus.active:
        obs = build_obs_report(
            instr,
            protocol=factory.name.lower(),
            strategies=getattr(factory, "last_strategies", None) or None,
            estimator=getattr(factory, "last_estimator", None),
        )
    artifacts = RunArtifacts(
        summary=summary, log=log, ledger=ledger, obs=obs,
        faults=injector, membership=director,
        spans=tracer.store if tracer is not None else None,
        timeseries=timeseries,
        health=health if timeseries is not None else None,
    )
    if health.raised:
        raise InvariantError(health, artifacts)
    return artifacts


def _run_events(
    events: EventQueue, profiler: Profiler | None, **run_kwargs
) -> None:
    """``events.run(**run_kwargs)``, timed under ``events.run`` with the
    events it dispatched as the count when ``profiler`` is enabled."""
    if profiler is None or not profiler.enabled:
        events.run(**run_kwargs)
        return
    t0 = time.perf_counter()
    before = events.processed
    try:
        events.run(**run_kwargs)
    finally:
        profiler.add(
            "events.run", time.perf_counter() - t0,
            count=events.processed - before,
        )


def ensure_unique_factories(factories: list[ProtocolFactory]) -> None:
    """Raise when two factories share a ``name``.

    Every result container downstream (run dicts, sweep points, saved
    JSON) is keyed by factory name, so a duplicate — e.g. two
    differently configured naive strategies — would silently overwrite
    the first factory's results instead of comparing them.
    """
    seen: set[str] = set()
    duplicates: list[str] = []
    for factory in factories:
        if factory.name in seen and factory.name not in duplicates:
            duplicates.append(factory.name)
        seen.add(factory.name)
    if duplicates:
        raise ValueError(
            f"duplicate protocol factory names {duplicates}: results are"
            " keyed by name; give each factory a distinct name"
        )


def run_protocols(
    config: ScenarioConfig, factories: list[ProtocolFactory]
) -> dict[str, RunSummary]:
    """Build once, run every factory; returns summaries keyed by name."""
    ensure_unique_factories(factories)
    built = build_scenario(config)
    return {f.name: run_protocol(built, f) for f in factories}
