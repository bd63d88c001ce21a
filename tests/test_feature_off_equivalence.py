"""Feature-off equivalence: every optional subsystem is invisible when unused.

Three features share one bit-identity contract — a run that does not
use the feature, a run handed its explicit "off" value, and a run of a
build without the feature all produce byte-identical results:

* **faults** — ``faults=None`` ≡ ``FaultSchedule.none()``;
* **membership** — ``membership=None`` ≡ ``MembershipSchedule.none()``
  ≡ a schedule sampled at intensity 0;
* **timeseries** — a default recording ≡ ``recording(timeseries=None)``.

The third leg of each contract is pinned by the golden tests (their
expected values predate all three subsystems).

A fourth column holds the array dissemination fast path to its
reference: a default run (fast path armed) ≡ the same run on the
per-hop scalar path (the ``scalar_dissem`` fixture).  Same RNG
consumption, arrival times, delivery sets and ledger totals;
``events_processed`` is the one quantity that legitimately differs —
the fast path schedules one event per delivery that can change its
receiver's state instead of one per link traversal — so this column is
compared modulo that counter.  A fifth column holds a collector-armed
fast run to its scalar reference window by window: every series but
``events_processed`` and ``pending_timers`` (the events still on the
calendar at a window's end).  Both columns hold where no two events
share an instant; the strict xfails at the end pin cases where two do.

Every off value is checked against its default on three observables:
the run's summary, ledger and latencies for the five protocols, the
JSONL telemetry stream, and the summary JSON persistence writes.
Feature-specific cases follow as single tests.
"""

import collections
import contextlib
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments import runner
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import (
    BuiltScenario,
    build_scenario,
    run_protocol,
    run_protocol_detailed,
)
from repro.metrics.collectors import BandwidthLedger
from repro.obs import TimeSeriesCollector
from repro.obs.health import evaluate_health
from repro.obs.instrumentation import Instrumentation
from repro.protocols.naive import NearestPeerProtocolFactory
from repro.protocols.rma import RMAProtocolFactory
from repro.protocols.rp import RPProtocolFactory
from repro.protocols.source import SourceProtocolFactory
from repro.protocols.srm import SRMConfig, SRMProtocolFactory
from repro.sim.faults import CrashWindow, FaultSchedule
from repro.sim.membership import (
    LEAVE,
    MembershipEvent,
    MembershipSchedule,
    random_membership_schedule,
)
from repro.net.generators import grid_topology, line_topology
from repro.net.mcast_tree import MulticastTree, random_multicast_tree
from repro.net.routing import RoutingTable
from repro.net.topology import NodeKind, Topology
from repro.protocols.base import StreamConfig
from repro.sim.dissem import send_grid
from repro.sim.engine import EventQueue
from repro.sim.network import FastReceivers, SimNetwork
from repro.sim.packet import Packet, PacketKind
from repro.sim.rng import RngStreams

FACTORIES = [
    RPProtocolFactory,
    SRMProtocolFactory,
    RMAProtocolFactory,
    SourceProtocolFactory,
    NearestPeerProtocolFactory,
]

CONFIG = ScenarioConfig(
    seed=11, num_routers=30, loss_prob=0.08, num_packets=8,
    lossless_recovery=False,
)


def _zero_churn(built):
    schedule = random_membership_schedule(
        0.0,
        RngStreams(CONFIG.seed).get("membership-schedule:0"),
        [c for c in built.tree.clients if c != built.tree.root],
        280.0,
    )
    assert schedule.is_null
    return schedule


# A variant maps the built scenario to (run kwargs, recording kwargs);
# recording kwargs of None mean an uninstrumented run.

#: Each feature's default: the feature not used at all.
DEFAULTS = {
    "faults": lambda built: ({"faults": None}, None),
    "membership": lambda built: ({"membership": None}, None),
    "timeseries": lambda built: ({}, {}),
    "fast-dissem": lambda built: ({}, None),
}

#: Every off value, which must reproduce its feature's default exactly.
OFF_VALUES = {
    "faults-null": ("faults", lambda built: (
        {"faults": FaultSchedule.none()}, None)),
    "membership-null": ("membership", lambda built: (
        {"membership": MembershipSchedule.none()}, None)),
    "membership-zero": ("membership", lambda built: (
        {"membership": _zero_churn(built)}, None)),
    "timeseries-none": ("timeseries", lambda built: (
        {}, {"timeseries": None})),
    # Same inputs; the off run goes through ``scalar_dissem`` (see _pair).
    "scalar-dissem": ("fast-dissem", lambda built: ({}, None)),
}


def _run(variant, factory_cls, jsonl_path=None, config=CONFIG):
    """One run of ``variant`` (its artifacts); instrumented when the
    variant records or a JSONL stream is asked for."""
    built = build_scenario(config)
    run_kwargs, recording_kwargs = variant(built)
    if recording_kwargs is None and jsonl_path is None:
        return run_protocol_detailed(built, factory_cls(), **run_kwargs)
    instr = Instrumentation.recording(
        jsonl_path=jsonl_path, profile=False, **(recording_kwargs or {})
    )
    try:
        return run_protocol_detailed(
            built, factory_cls(), instrumentation=instr, **run_kwargs
        )
    finally:
        instr.close()


def _pair(name, factory_cls, scalar_dissem, jsonl_paths=(None, None)):
    """Artifacts of (the feature's default, its off value ``name``).
    The fast-dissem off value runs on the scalar path."""
    feature, off = OFF_VALUES[name]
    default = _run(DEFAULTS[feature], factory_cls, jsonl_paths[0])
    scalar = (
        scalar_dissem() if feature == "fast-dissem"
        else contextlib.nullcontext()
    )
    with scalar:
        return default, _run(off, factory_cls, jsonl_paths[1])


def _summary(artifacts, modulo_events=False):
    summary = artifacts.summary
    if modulo_events:
        summary = dataclasses.replace(summary, events_processed=0)
    return summary


def _observables(artifacts, modulo_events=False):
    """Everything that must match bit for bit: the full summary, the
    per-kind ledger, every latency and what is still outstanding."""
    return (
        _summary(artifacts, modulo_events),
        dict(artifacts.ledger.hops_by_kind),
        dict(artifacts.ledger.drops_by_kind),
        sorted(artifacts.log.latencies()),
        artifacts.log.outstanding(),
    )


def _modulo_events(off_value):
    return OFF_VALUES[off_value][0] == "fast-dissem"


@pytest.mark.parametrize("factory_cls", FACTORIES, ids=lambda c: c.name)
@pytest.mark.parametrize("off_value", list(OFF_VALUES))
def test_feature_off_summary_is_identical(off_value, factory_cls, scalar_dissem):
    default, off = _pair(off_value, factory_cls, scalar_dissem)
    modulo = _modulo_events(off_value)
    assert _observables(default, modulo) == _observables(off, modulo)
    if modulo:
        # The fast path must actually have fired, or this column tests
        # nothing: DATA cascades collapse to one event per delivery.
        assert (
            default.summary.events_processed < off.summary.events_processed
        )


@pytest.mark.parametrize("off_value", list(OFF_VALUES))
def test_feature_off_jsonl_stream_is_identical(
    off_value, tmp_path, scalar_dissem
):
    # The JSONL event stream (sim-time telemetry, the observable the obs
    # layer persists) must be identical event-for-event.
    paths = (tmp_path / "a.jsonl", tmp_path / "b.jsonl")
    _pair(off_value, RPProtocolFactory, scalar_dissem, jsonl_paths=paths)
    streams = [path.read_text().splitlines() for path in paths]
    assert streams[0] == streams[1]
    assert streams[0]  # non-empty: the stream actually recorded something


@pytest.mark.parametrize("off_value", list(OFF_VALUES))
def test_feature_off_summary_json_is_identical(off_value, scalar_dissem):
    # What persistence serializes (asdict of RunSummary) is identical.
    dumps = [
        json.dumps(
            dataclasses.asdict(
                _summary(artifacts, _modulo_events(off_value))
            ),
            sort_keys=True,
        )
        for artifacts in _pair(off_value, SRMProtocolFactory, scalar_dissem)
    ]
    assert dumps[0] == dumps[1]


@pytest.fixture
def fast_armed(monkeypatch):
    """Whether each run's :meth:`SimNetwork.enable_fast_dissem` armed
    the fast path, in run order (``scalar_dissem`` runs bypass it)."""
    armed = []
    arm = SimNetwork.enable_fast_dissem

    def spy(network, stream):
        armed.append(arm(network, stream))
        return armed[-1]

    monkeypatch.setattr(SimNetwork, "enable_fast_dissem", spy)
    return armed


# -- fast dissemination under a time-series collector ----------------------

#: The window series a collector-armed fast run may differ in: it runs
#: fewer events, so fewer of them are pending at a window's end.
EVENT_SERIES = ("events_processed", "pending_timers")


def _windowed_pair(scalar_dissem, factory_cls, config, width):
    """Artifacts of one collector-armed run, fast and then scalar."""

    def variant(built):
        return {}, {"timeseries": TimeSeriesCollector(window=width)}

    fast = _run(variant, factory_cls, config=config)
    with scalar_dissem():
        return fast, _run(variant, factory_cls, config=config)


def _windowed_observables(artifacts):
    series = artifacts.timeseries.series()
    for name in EVENT_SERIES:
        del series[name]
    return _observables(artifacts, True), series


@pytest.mark.parametrize("width", [50.0, 7.3])
@pytest.mark.parametrize("lossless", [False, True], ids=["lossy", "lossless"])
@pytest.mark.parametrize(
    "factory_cls",
    [RPProtocolFactory, SRMProtocolFactory, RMAProtocolFactory],
    ids=lambda c: c.name,
)
def test_collector_windows_match_scalar(
    factory_cls, lossless, width, scalar_dissem, fast_armed
):
    # The ledger counts a fast hop once its transmit instant has passed,
    # so every window reads the hops the scalar run charged by then.
    config = dataclasses.replace(CONFIG, lossless_recovery=lossless)
    fast, scalar = _windowed_pair(scalar_dissem, factory_cls, config, width)
    assert fast_armed == [True]
    assert _windowed_observables(fast) == _windowed_observables(scalar)
    assert fast.summary.events_processed < scalar.summary.events_processed


def test_collector_settles_strictly_before_its_clock(
    scalar_dissem, fast_armed
):
    # A window snapshot taken by a delivery at t must not count the
    # onward hops at t: on this run, counting them (settling at or
    # before the clock) moves request hops into the wrong window.
    config = ScenarioConfig(
        seed=2, num_routers=120, loss_prob=0.1, num_packets=10,
        lossless_recovery=True,
    )
    fast, scalar = _windowed_pair(
        scalar_dissem, RMAProtocolFactory, config, 7.3
    )
    assert fast_armed == [True]
    assert _windowed_observables(fast) == _windowed_observables(scalar)
    assert sum(fast.timeseries.series()["request_hops"]) > 0


# -- feature-specific cases ------------------------------------------------


def test_armed_collector_never_perturbs_the_simulation(fast_armed):
    # The collector leaves the array dissemination fast path armed, so
    # the run summary matches the uninstrumented one exactly.
    built = build_scenario(CONFIG)
    baseline = run_protocol(built, RPProtocolFactory())
    instr = Instrumentation.recording(timeseries=TimeSeriesCollector())
    try:
        artifacts = run_protocol_detailed(
            built, RPProtocolFactory(), instrumentation=instr
        )
    finally:
        instr.close()
    assert fast_armed == [True, True]
    assert artifacts.summary == baseline
    assert artifacts.timeseries is not None
    assert artifacts.timeseries.finalized
    assert artifacts.health is not None
    assert artifacts.health.ok, [v.render() for v in artifacts.health.violations]


def test_null_membership_leaves_built_tree_untouched():
    built = build_scenario(CONFIG)
    epoch_before = built.tree.membership_epoch
    artifacts = run_protocol_detailed(
        built, RPProtocolFactory(), membership=MembershipSchedule.none()
    )
    # No director, no clone, no mutation.
    assert artifacts.membership is None
    assert built.tree.membership_epoch == epoch_before


def test_health_evaluation_is_read_only():
    built = build_scenario(CONFIG)
    artifacts = run_protocol_detailed(built, RPProtocolFactory())

    def state():
        log = artifacts.log
        return (
            log.num_detected, log.num_recovered, log.num_abandoned,
            dict(artifacts.ledger.hops_by_kind),
        )

    before = state()
    first = evaluate_health(artifacts.log, artifacts.ledger)
    second = evaluate_health(artifacts.log, artifacts.ledger)
    assert first.to_dict() == second.to_dict()
    assert state() == before


# -- fast dissemination: single cases ---------------------------------------


def _fast_and_scalar(scalar_dissem, factory_cls, config, **run_kwargs):
    """Artifacts of one run as the runner arms it, then on the scalar
    reference path."""

    def variant(built):
        return run_kwargs, None

    fast = _run(variant, factory_cls, config=config)
    with scalar_dissem():
        return fast, _run(variant, factory_cls, config=config)


@pytest.mark.parametrize("factory_cls", FACTORIES, ids=lambda c: c.name)
def test_summary_and_ledger_match_scalar(factory_cls, scalar_dissem):
    # The matrix column runs lossy recovery; under lossless_recovery
    # every recovery journey also collapses to one event per delivery.
    config = dataclasses.replace(CONFIG, lossless_recovery=True)
    fast, scalar = _fast_and_scalar(scalar_dissem, factory_cls, config)
    assert _observables(fast, True) == _observables(scalar, True)
    assert fast.summary.events_processed < scalar.summary.events_processed


def test_overlapping_cascades_still_identical(scalar_dissem):
    # data_interval far below the tree's delay span: consecutive DATA
    # cascades interleave in time, exercising the merged-order whole-lane
    # draw schedule rather than one cascade at a time.
    config = ScenarioConfig(
        seed=7, num_routers=60, loss_prob=0.1, num_packets=10,
        data_interval=2.0,
    )
    fast, scalar = _fast_and_scalar(scalar_dissem, RPProtocolFactory, config)
    assert _observables(fast, True) == _observables(scalar, True)


def test_reference_session_takes_five_times_fewer_events(scalar_dissem):
    # SOURCE recovery on the 600-router reference scenario: every
    # request and repair journey is many scalar hop events but one fast
    # delivery event, while protocol timers and agent deliveries are
    # common to both paths.
    config = ScenarioConfig(
        seed=5, num_routers=600, loss_prob=0.15, num_packets=12,
        lossless_recovery=True,
    )
    fast, scalar = _fast_and_scalar(
        scalar_dissem, SourceProtocolFactory, config
    )
    assert _observables(fast, True) == _observables(scalar, True)
    assert (
        scalar.summary.events_processed
        >= 5 * fast.summary.events_processed
    )


def test_lossless_tree_collapses_every_multicast(scalar_dissem):
    config = dataclasses.replace(CONFIG, loss_prob=0.0)
    fast, scalar = _fast_and_scalar(scalar_dissem, SRMProtocolFactory, config)
    assert _observables(fast, True) == _observables(scalar, True)
    assert fast.summary.events_processed < scalar.summary.events_processed


@settings(
    max_examples=12, deadline=None,
    # scalar_dissem patches per example, inside its with-block.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    loss=st.sampled_from([0.0, 0.02, 0.08, 0.15]),
    lossless_recovery=st.booleans(),
)
def test_rp_bit_identity_over_seeds_and_loss(
    scalar_dissem, seed, loss, lossless_recovery
):
    config = ScenarioConfig(
        seed=seed, num_routers=25, loss_prob=loss, num_packets=6,
        lossless_recovery=lossless_recovery,
    )
    fast, scalar = _fast_and_scalar(scalar_dissem, RPProtocolFactory, config)
    assert _observables(fast, True) == _observables(scalar, True)


def test_profiled_run_keeps_fast_path(monkeypatch):
    # The profiler times phases (one events.run scope, one planner.plan
    # scope per plan call), never hops, so a profiled run arms the fast
    # path and reproduces the plain run exactly, events_processed
    # included.
    networks = []
    arm = SimNetwork.enable_fast_dissem

    def spy(network, stream):
        networks.append(network)
        return arm(network, stream)

    monkeypatch.setattr(SimNetwork, "enable_fast_dissem", spy)
    built = build_scenario(CONFIG)
    plain = run_protocol(built, RPProtocolFactory())
    instr = Instrumentation.recording()
    assert instr.profiler.enabled
    profiled = run_protocol(built, RPProtocolFactory(), instrumentation=instr)
    assert [network.fast_dissem_enabled for network in networks] == [True, True]
    assert profiled == plain
    assert {"events.run", "planner.plan"} <= set(instr.profiler.stats())


# Each ineligibility condition keeps the run scalar — and scalar means
# identical to the scalar_dissem reference, events_processed included.


def test_jitter_disables_fast_path(scalar_dissem):
    config = dataclasses.replace(CONFIG, jitter=0.05)
    armed, scalar = _fast_and_scalar(scalar_dissem, RPProtocolFactory, config)
    assert armed.summary == scalar.summary


def test_tracing_disables_fast_path(scalar_dissem, fast_armed):
    # A fast dissemination emits no link events for the tracer to see,
    # so the runner registers the tracer first and arming refuses.
    def traced(built):
        return {}, {"trace": True}

    fast = _run(traced, RPProtocolFactory)
    assert fast_armed == [False]
    with scalar_dissem():
        scalar = _run(traced, RPProtocolFactory)
    assert _observables(fast) == _observables(scalar)


def test_congestion_disables_fast_path(scalar_dissem):
    config = dataclasses.replace(CONFIG, congestion_alpha=0.01)
    armed, scalar = _fast_and_scalar(scalar_dissem, RPProtocolFactory, config)
    assert armed.summary == scalar.summary


def test_faults_disable_fast_path(scalar_dissem):
    schedule = FaultSchedule(crash_windows=(CrashWindow(0, 80.0, 120.0),))
    armed, scalar = _fast_and_scalar(
        scalar_dissem, RPProtocolFactory, CONFIG, faults=schedule
    )
    assert armed.summary == scalar.summary


def test_churn_disables_fast_path(scalar_dissem):
    # Churn prunes/grafts the tree mid-run; the fast path snapshots the
    # dissemination arrays once, so an active membership schedule must
    # keep the run scalar.
    built = build_scenario(CONFIG)
    churner = next(c for c in built.tree.clients if c != built.tree.root)
    schedule = MembershipSchedule(events=(
        MembershipEvent(time=40.0, node=churner, kind=LEAVE),
    ))
    armed, scalar = _fast_and_scalar(
        scalar_dissem, RPProtocolFactory, CONFIG, membership=schedule
    )
    assert armed.summary == scalar.summary


# -- fast dissemination: SESSION cascades that outlive session_interval ------

#: A lossy tree whose SESSION cascades span several session intervals;
#: recovery is lossless, so SESSION is the loss lane's only consumer.
SESSION_OVERLAP = ScenarioConfig(
    seed=5, num_routers=60, loss_prob=0.1, num_packets=6,
    lossless_recovery=True, session_interval=20.0,
)


def _cascade_span(tree):
    """Delay from the root to the farthest tree member."""
    topology = tree.topology

    def delay(node):
        path = tree.tree_path(tree.root, node)
        return sum(
            topology.link_between(u, v).delay for u, v in zip(path, path[1:])
        )

    return max(delay(node) for node in tree.members)


@pytest.fixture
def transmits(monkeypatch):
    """Counts the scalar path's link transmissions: ``transmits(kind)``
    returns those of ``kind`` since the last call and restarts every
    count."""
    counts = collections.Counter()
    transmit = SimNetwork._transmit

    def counting(network, link, to_node, packet, on_arrival):
        counts[packet.kind] += 1
        return transmit(network, link, to_node, packet, on_arrival)

    def take(kind):
        count = counts[kind]
        counts.clear()
        return count

    monkeypatch.setattr(SimNetwork, "_transmit", counting)
    return take


def _fast_and_scalar_sessions(
    scalar_dissem, transmits, factory_cls, config=SESSION_OVERLAP,
    built=None, kind=PacketKind.SESSION,
):
    """Artifacts of one run armed and on the scalar path, each with its
    count of scalar ``kind`` transmissions."""
    built = built if built is not None else build_scenario(config)
    fast = run_protocol_detailed(built, factory_cls())
    fast_tx = transmits(kind)
    with scalar_dissem():
        scalar = run_protocol_detailed(built, factory_cls())
    return fast, fast_tx, scalar, transmits(kind)


@pytest.mark.parametrize(
    "factory_cls",
    [RPProtocolFactory, SRMProtocolFactory, RMAProtocolFactory],
    ids=lambda c: c.name,
)
def test_overlapping_session_cascades_leave_the_scalar_flood(
    factory_cls, scalar_dissem, transmits
):
    # Each SESSION send resolves the loss draws of its epoch, up to the
    # next send, across every cascade still in flight.
    built = build_scenario(SESSION_OVERLAP)
    assert _cascade_span(built.tree) > 2 * SESSION_OVERLAP.session_interval
    fast, fast_tx, scalar, scalar_tx = _fast_and_scalar_sessions(
        scalar_dissem, transmits, factory_cls, built=built
    )
    assert _observables(fast, True) == _observables(scalar, True)
    assert scalar_tx > 0
    assert fast_tx == 0


def test_session_tails_past_the_drain_cutoff_stay_unresolved(
    monkeypatch, scalar_dissem, transmits
):
    # The last send's epoch ends at the next send, after the cutoff, so
    # no driver tick calls end_session: its would-be tail (under
    # already-dropped edges) is still in flight at the cutoff, and stays
    # unresolved and uncharged.  Nothing of it is on the calendar, so
    # the runner's quiescence.timers check (it raises on a violation)
    # holds.
    config = ScenarioConfig(
        seed=3, num_routers=20, loss_prob=0.4, num_packets=4,
        lossless_recovery=True, session_interval=30.0, drain_time=10.0,
    )
    in_flight = []
    armed = []
    arm = SimNetwork.enable_fast_dissem
    close = BandwidthLedger.close

    def arming(network, stream):
        armed.append(network)
        return arm(network, stream)

    def spy(ledger, now):
        # The scalar reference run arms no network.
        for network in armed:
            if network.ledger is ledger:
                cascades = network._fast.streams[PacketKind.SESSION].cascades
                in_flight.append(len(cascades.arrivals))
                # Resolved up to the next send, which lies past the cutoff.
                assert cascades.lo > now
        close(ledger, now)

    monkeypatch.setattr(SimNetwork, "enable_fast_dissem", arming)
    monkeypatch.setattr(BandwidthLedger, "close", spy)
    fast, fast_tx, scalar, scalar_tx = _fast_and_scalar_sessions(
        scalar_dissem, transmits, RPProtocolFactory, config
    )
    assert in_flight[0] > 0 and len(in_flight) == 1
    assert _observables(fast, True) == _observables(scalar, True)
    assert fast_tx == 0 < scalar_tx


def _integer_delay_scenario(**interval):
    """Sends every 15 ms over 10 ms links: cascade k reaches the third
    router exactly when send k + 2 leaves the root, a tie the scalar
    path breaks by heap order."""
    topology = line_topology(5, delay=10.0, loss_prob=0.2)
    config = ScenarioConfig(
        seed=4, num_routers=5, loss_prob=0.2, num_packets=6,
        lossless_recovery=True, **interval,
    )
    return BuiltScenario(
        config=config,
        topology=topology,
        tree=random_multicast_tree(topology, np.random.default_rng(0)),
        routing=RoutingTable(topology),
    )


def test_integer_delay_session_ties_stay_scalar(
    scalar_dissem, transmits
):
    # Caught at the first send, before any draw: SESSION stays scalar
    # throughout.  (SRM: RP's unicast recovery journeys collapse to one
    # event each, whose ties with other events on this grid the fast
    # path does not order.)
    fast, fast_tx, scalar, scalar_tx = _fast_and_scalar_sessions(
        scalar_dissem, transmits, SRMProtocolFactory,
        built=_integer_delay_scenario(session_interval=15.0),
    )
    assert _observables(fast, True) == _observables(scalar, True)
    assert fast_tx == scalar_tx > 0


def test_integer_delay_data_ties_stay_scalar(scalar_dissem, transmits):
    # The same tie on the DATA grid, caught at the first send over the
    # whole stream, before any draw: DATA stays scalar throughout.
    fast, fast_tx, scalar, scalar_tx = _fast_and_scalar_sessions(
        scalar_dissem, transmits, SRMProtocolFactory,
        built=_integer_delay_scenario(data_interval=15.0),
        kind=PacketKind.DATA,
    )
    assert _observables(fast, True) == _observables(scalar, True)
    assert fast_tx == scalar_tx > 0


def test_shared_data_lane_keeps_session_scalar(
    monkeypatch, scalar_dissem, transmits
):
    # With DATA on the loss lane, a scalar DATA tail can still be in
    # flight when the first SESSION cascade starts.
    def shared_lane(*args, data_loss_rng=None, **kwargs):
        return SimNetwork(*args, **kwargs)

    monkeypatch.setattr(runner, "SimNetwork", shared_lane)
    fast, fast_tx, scalar, scalar_tx = _fast_and_scalar_sessions(
        scalar_dissem, transmits, RPProtocolFactory
    )
    assert _observables(fast, True) == _observables(scalar, True)
    assert fast_tx == scalar_tx > 0


def test_session_tie_first_met_at_a_later_epoch_raises(transmits):
    # S -a- b, sends every 0.1 ms from t=1: the fl-accumulated send grid
    # drifts by an ulp, so b's delay can land one cascade's arrival on
    # send 11's instant while sends 0..W (W = 2 here) do not tie.  Draws
    # up to that send are spent, so there is no scalar fallback.
    interval, t0, d1 = 0.1, 1.0, 0.03
    grid = send_grid(t0, interval, 12)
    topology = Topology()
    a = topology.add_node(NodeKind.ROUTER)
    s = topology.add_node(NodeKind.SOURCE)
    b = topology.add_node(NodeKind.CLIENT)
    topology.add_link(s, a, d1, 0.1)
    topology.add_link(a, b, grid[11] - (grid[10] + d1), 0.1)
    tree = MulticastTree(topology, s, {a: s, b: a})
    events = EventQueue()
    network = SimNetwork(
        events, topology, RoutingTable(topology), tree,
        loss_rng=np.random.default_rng(0),
        data_loss_rng=np.random.default_rng(1),
        lossless_recovery=True,
    )
    assert network.enable_fast_dissem(
        StreamConfig(1, 10.0, interval)
    )
    session = Packet(PacketKind.SESSION, 0, origin=s, highest_seq=0)

    def send():
        network.multicast_subtree(s, s, session)
        events.schedule(interval, send)

    events.schedule_at(t0, send)
    with pytest.raises(RuntimeError, match="tie"):
        events.run(until=3.0)
    assert events.now > grid[2]
    assert transmits(PacketKind.SESSION) == 0


# -- fast dissemination: duplicate deliveries left off the calendar ---------


@pytest.fixture
def elided(monkeypatch):
    """Spies on the fast path's screening: ``elided["items"]`` counts
    batch items a keep mask dropped, ``elided["recorded"]`` lists the
    ``(node, time)`` of every duplicate REPAIR or NACK recorded with an
    SRM agent (``elided["kinds"]`` counts them by packet kind) and
    ``elided["restored"]`` those put back on the calendar."""
    seen = {
        "items": 0, "recorded": [], "restored": [],
        "kinds": collections.Counter(),
    }
    schedule_batch = EventQueue.schedule_batch
    record = FastReceivers.record
    redeliver = SimNetwork.redeliver

    def counting(queue, times, items, fire, keep=None):
        if keep is not None:
            seen["items"] += int(np.size(keep) - np.count_nonzero(keep))
        return schedule_batch(queue, times, items, fire, keep)

    def recording(receivers, packet, rows, times, keys):
        seen["recorded"].extend(
            zip(receivers.nodes[rows].tolist(), times.tolist())
        )
        seen["kinds"][packet.kind] += len(rows)
        return record(receivers, packet, rows, times, keys)

    def restoring(network, key, node):
        seen["restored"].append((node, key[0]))
        return redeliver(network, key, node)

    monkeypatch.setattr(EventQueue, "schedule_batch", counting)
    monkeypatch.setattr(FastReceivers, "record", recording)
    monkeypatch.setattr(SimNetwork, "redeliver", restoring)
    return seen


@pytest.mark.parametrize(
    "factory_cls",
    [SRMProtocolFactory, RMAProtocolFactory, RPProtocolFactory],
    ids=lambda c: c.name,
)
def test_lossless_recovery_jsonl_stream_matches_scalar(
    factory_cls, tmp_path, scalar_dissem, elided
):
    # Under lossless recovery every repair multicast takes the fast
    # path, and the duplicates among its deliveries are left out.
    config = dataclasses.replace(CONFIG, lossless_recovery=True)

    def variant(built):
        return {}, {}

    paths = (tmp_path / "fast.jsonl", tmp_path / "scalar.jsonl")
    _run(variant, factory_cls, paths[0], config)
    assert elided["items"] > 0
    with scalar_dissem():
        _run(variant, factory_cls, paths[1], config)
    streams = [path.read_text().splitlines() for path in paths]
    assert streams[0] == streams[1]
    assert streams[0]


@pytest.mark.parametrize("loss", [0.04, 0.12, 0.2])
@pytest.mark.parametrize(
    "srm_config",
    [SRMConfig(), SRMConfig(c2=0.0, d2=0.0), SRMConfig(max_request_rounds=2)],
    ids=["default", "fixed-delay", "two-rounds"],
)
def test_srm_bit_identity_over_seeds_and_loss(
    srm_config, loss, tmp_path, scalar_dissem, elided
):
    # Every NACK flood takes the fast path here, and the screen leaves
    # out the deliveries that find their member unable to act.
    def factory():
        return SRMProtocolFactory(srm_config)

    def variant(built):
        return {}, {}

    for seed in (1, 2, 3):
        config = ScenarioConfig(
            seed=seed, num_routers=30, loss_prob=loss, num_packets=8,
            lossless_recovery=True,
        )
        paths = (tmp_path / f"f{seed}.jsonl", tmp_path / f"s{seed}.jsonl")
        fast = _run(variant, factory, paths[0], config)
        with scalar_dissem():
            scalar = _run(variant, factory, paths[1], config)
        assert _observables(fast, True) == _observables(scalar, True)
        assert paths[0].read_text() == paths[1].read_text()
        assert fast.summary.events_processed < scalar.summary.events_processed
    assert elided["kinds"][PacketKind.NACK] > 0


def _y_tree_scenario():
    """Clients inside the tree, on links of distinct integer delays:
    S - c1 - c2 - c3 with c1 - c4 - c5 and c2 - c6.  A member that
    repairs at once relays its REPAIR in step with the NACK it answers,
    so a member further on hears both at one instant."""
    topology = Topology()
    source = topology.add_node(NodeKind.SOURCE)
    nodes = [source, *topology.add_nodes(6, NodeKind.CLIENT)]
    parent = {}
    for (u, v), delay in zip(
        [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (2, 6)],
        [7.0, 11.0, 13.0, 17.0, 19.0, 23.0],
    ):
        topology.add_link(nodes[u], nodes[v], delay, 0.2)
        parent[nodes[v]] = nodes[u]
    return BuiltScenario(
        config=ScenarioConfig(
            seed=1, num_routers=topology.num_nodes, loss_prob=0.2,
            num_packets=6, lossless_recovery=True,
        ),
        topology=topology,
        tree=MulticastTree(topology, source, parent),
        routing=RoutingTable(topology),
    )


def _srm_run_with_holds(monkeypatch, built, jsonl_path, config=None):
    """One SRM run: its JSONL events and every agent's repair holds,
    settled after the drain."""
    networks = []
    install = SRMProtocolFactory.install

    def capture(factory, network, *args, **kwargs):
        networks.append(network)
        return install(factory, network, *args, **kwargs)

    instr = Instrumentation.recording(jsonl_path=jsonl_path, profile=False)
    with monkeypatch.context() as patch:
        patch.setattr(SRMProtocolFactory, "install", capture)
        try:
            run_protocol_detailed(
                built, SRMProtocolFactory(config), instrumentation=instr
            )
        finally:
            instr.close()
    (network,) = networks
    holds = {
        node: dict(network.agent_at(node).repair_hold_until())
        for node in (built.tree.root, *built.tree.clients)
    }
    events = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
    return events, holds


def test_lossless_recovery_srm_holds_match_scalar(
    monkeypatch, tmp_path, scalar_dissem, elided
):
    # Agents settle several recorded REPAIRs at once here: the latest one
    # keyed before the settling event sets the hold.
    config = dataclasses.replace(CONFIG, lossless_recovery=True)
    fast = _srm_run_with_holds(
        monkeypatch, build_scenario(config), tmp_path / "f.jsonl"
    )
    assert elided["recorded"]
    with scalar_dissem():
        scalar = _srm_run_with_holds(
            monkeypatch, build_scenario(config), tmp_path / "s.jsonl"
        )
    assert fast == scalar


def test_integer_delay_duplicate_repair_ties(
    monkeypatch, tmp_path, scalar_dissem, elided
):
    # Repairs go out as soon as a NACK is heard, so timers are due the
    # instant they are armed.
    config = SRMConfig(c2=0.0, d1=0.0, d2=0.0)
    fast, fast_holds = _srm_run_with_holds(
        monkeypatch, _y_tree_scenario(), tmp_path / "f.jsonl", config
    )
    with scalar_dissem():
        scalar, scalar_holds = _srm_run_with_holds(
            monkeypatch, _y_tree_scenario(), tmp_path / "s.jsonl", config
        )
    assert fast == scalar
    assert fast_holds == scalar_holds
    assert any(fast_holds.values())
    # A NACK arms a repair timer at the instant a recorded duplicate REPAIR,
    # keyed before the timer, arrives: the REPAIR goes back on the
    # calendar and cancels the timer at its deadline.
    armed_now, cancelled = set(), set()
    for e in fast:
        if e["kind"] == "timer" and e["label"] == "srm.repair":
            if e["action"] == "armed" and e["deadline"] == e["time"]:
                armed_now.add((e["node"], e["time"]))
            elif e["action"] == "cancelled":
                cancelled.add((e["node"], e["time"]))
    assert set(elided["restored"]) & armed_now & cancelled


# -- fast dissemination: same-instant deliveries --------------------------


def _grid_scenario(tree_rng, seed):
    """A 3×3 router grid of 10 ms links under a random tree: many
    equal-delay paths, so deliveries to different members and the
    events they cause share instants."""
    topology = grid_topology(3, 3, delay=10.0, loss_prob=0.2)
    return BuiltScenario(
        config=ScenarioConfig(
            seed=seed, num_routers=topology.num_nodes, loss_prob=0.2,
            num_packets=6, lossless_recovery=True,
        ),
        topology=topology,
        tree=random_multicast_tree(topology, np.random.default_rng(tree_rng)),
        routing=RoutingTable(topology),
    )


def _request_chain_scenario():
    """Random float delays, yet a tie.  Member 35's RMA request for seq
    3 passes member 55 on its route to 26 at the instant 55 sends its
    own, one request timeout after 35's earlier request reached it;
    both then take one route and reach 26 at t = 150.3647 ms.  The fast
    path delivers them in send order, the scalar walk in last-hop order,
    so 26 repairs a different member first."""
    return build_scenario(ScenarioConfig(
        seed=1, num_routers=60, loss_prob=0.1, num_packets=30,
        lossless_recovery=True,
    ))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="same-instant deliveries fire in batch or send order on the "
    "fast path, not in the scalar walk's order",
)
@pytest.mark.parametrize(
    "factory_cls, scenario",
    [
        (SRMProtocolFactory, lambda: _grid_scenario(1, 1)),
        (RMAProtocolFactory, lambda: _grid_scenario(2, 1)),
        (RPProtocolFactory, lambda: _grid_scenario(0, 2)),
        (RMAProtocolFactory, _request_chain_scenario),
    ],
    ids=["SRM-grid", "RMA-grid", "RP-grid", "RMA-request-chain"],
)
def test_same_instant_ties_match_scalar(factory_cls, scenario, scalar_dissem):
    built = scenario()
    fast = run_protocol_detailed(built, factory_cls())
    with scalar_dissem():
        scalar = run_protocol_detailed(built, factory_cls())
    assert _summary(fast, True) == _summary(scalar, True)
