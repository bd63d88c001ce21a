"""Hardened-recovery tests: bounded retries, failure detection, and the
guaranteed terminal state (recovered or explicitly abandoned).

The full-run cases use a hand-checkable deterministic construction: a
link-down window makes client cA lose packet 0, then every node that
could supply a repair (the source and both other clients) crashes for
the rest of the run.  Under the default (paper) policy that recovery
would retry forever; a hardened policy must abandon it, settle the
completion tracker so the run drains, and pass the runner's drain-time
invariants.
"""

import numpy as np
import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import BuiltScenario, run_protocol_detailed
from repro.metrics.collectors import BandwidthLedger, RecoveryLog
from repro.net.mcast_tree import MulticastTree
from repro.net.routing import RoutingTable
from repro.net.topology import NodeKind, Topology
from repro.protocols.base import ClientAgent, CompletionTracker
from repro.protocols.naive import NaiveConfig, NearestPeerProtocolFactory
from repro.protocols.policy import (
    DEFAULT_RECOVERY_POLICY,
    PeerFailureDetector,
    RecoveryPolicy,
)
from repro.protocols.rma import RMAConfig, RMAProtocolFactory
from repro.protocols.rp import RPConfig, RPProtocolFactory
from repro.protocols.source import SourceConfig, SourceProtocolFactory
from repro.protocols.srm import SRMConfig, SRMProtocolFactory
from repro.sim.engine import EventQueue
from repro.sim.faults import CrashWindow, FaultSchedule, LinkDownWindow
from repro.sim.network import SimNetwork
from repro.sim.packet import Packet, PacketKind


class TestRecoveryPolicy:
    def test_default_is_default(self):
        assert DEFAULT_RECOVERY_POLICY.is_default
        assert RecoveryPolicy().is_default
        assert not RecoveryPolicy.hardened().is_default

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_peer_retries=0)
        with pytest.raises(ValueError):
            RecoveryPolicy(max_source_attempts=-1)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RecoveryPolicy(max_backoff_scale=0.5)
        with pytest.raises(ValueError):
            RecoveryPolicy(failure_threshold=-1)

    def test_default_backoff_is_exactly_one(self):
        # Bit-identity with pre-hardening runs requires the default
        # policy to return the float 1.0 exactly, never a computed value.
        policy = DEFAULT_RECOVERY_POLICY
        for retries in (0, 1, 5, 50):
            assert policy.backoff_scale(retries) == 1.0

    def test_hardened_backoff_doubles_and_caps(self):
        policy = RecoveryPolicy.hardened()
        assert policy.backoff_scale(0) == 1.0
        assert policy.backoff_scale(1) == 2.0
        assert policy.backoff_scale(3) == 8.0
        assert policy.backoff_scale(100) == policy.max_backoff_scale


class TestPeerFailureDetector:
    def test_death_after_threshold_consecutive_timeouts(self):
        detector = PeerFailureDetector(3)
        assert not detector.record_timeout(7)
        assert not detector.record_timeout(7)
        assert detector.record_timeout(7)  # transition happens exactly once
        assert detector.is_dead(7)
        assert not detector.record_timeout(7)  # already dead — no re-fire
        assert detector.dead == frozenset({7})

    def test_alive_resets_the_streak(self):
        detector = PeerFailureDetector(2)
        detector.record_timeout(7)
        detector.record_alive(7)
        assert not detector.record_timeout(7)
        assert detector.record_timeout(7)

    def test_death_is_sticky(self):
        detector = PeerFailureDetector(1)
        detector.record_timeout(7)
        detector.record_alive(7)  # too late: death is permanent
        assert detector.is_dead(7)

    def test_on_death_callback_fires_once(self):
        deaths = []
        detector = PeerFailureDetector(1, on_death=deaths.append)
        detector.record_timeout(7)
        detector.record_timeout(7)
        detector.record_timeout(8)
        assert deaths == [7, 8]


class TestCompletionTrackerAbandonment:
    def test_abandonment_settles_the_slot(self):
        tracker = CompletionTracker(1, 2)
        tracker.mark_received()
        tracker.mark_abandoned()
        assert tracker.complete
        assert tracker.abandoned == 1

    def test_over_settlement_raises(self):
        tracker = CompletionTracker(1, 1)
        tracker.mark_abandoned()
        with pytest.raises(ValueError):
            tracker.mark_abandoned()
        with pytest.raises(ValueError):
            tracker.mark_received()


class _RecordingClient(ClientAgent):
    def on_loss_detected(self, seq):
        pass


def _small_world():
    topo = Topology()
    r0, r1 = topo.add_nodes(2, NodeKind.ROUTER)
    s = topo.add_node(NodeKind.SOURCE)
    ca, cb, cc = topo.add_nodes(3, NodeKind.CLIENT)
    topo.add_link(s, r0, 1.0)
    topo.add_link(r0, r1, 1.0)
    topo.add_link(r1, ca, 1.0)
    topo.add_link(r1, cb, 1.0)
    topo.add_link(r0, cc, 1.0)
    tree = MulticastTree(topo, s, {r0: s, r1: r0, ca: r1, cb: r1, cc: r0})
    return topo, tree, RoutingTable(topo), (s, r1, ca, cb, cc)


class TestClientAgentAbandon:
    def _agent(self):
        topo, tree, routing, (s, r1, ca, cb, cc) = _small_world()
        events = EventQueue()
        network = SimNetwork(
            events, topo, routing, tree,
            loss_rng=np.random.default_rng(0), ledger=BandwidthLedger(),
        )
        log = RecoveryLog()
        tracker = CompletionTracker(1, 2)
        agent = _RecordingClient(ca, network, log, tracker, num_packets=2)
        return agent, log, tracker

    def test_abandon_is_idempotent_and_settles_tracker(self):
        agent, log, tracker = self._agent()
        agent.log.loss_detected(agent.node, 0, 0.0)
        agent.abandon(0)
        agent.abandon(0)  # no double settlement
        assert log.num_abandoned == 1
        assert tracker.abandoned == 1
        assert log.unterminated() == []

    def test_late_repair_after_abandon_keeps_the_record(self):
        agent, log, tracker = self._agent()
        # Simulate the normal detection path, then abandonment, then a
        # straggler repair arriving long after the protocol gave up.
        agent.detected.add(0)
        agent.log.loss_detected(agent.node, 0, 0.0)
        agent.abandon(0)
        agent.on_packet(Packet(PacketKind.REPAIR, 0, origin=2))
        # The arrival is recorded as a recovery (history preserved, not
        # retracted) and the tracker slot is not settled twice.
        assert log.is_recovered(agent.node, 0)
        assert log.was_abandoned(agent.node, 0)
        assert log.num_abandoned == 0  # recovered after all
        assert tracker.remaining == 1  # only the untouched seq-1 slot

    def test_abandon_after_reception_is_a_noop(self):
        agent, log, tracker = self._agent()
        agent.on_packet(Packet(PacketKind.DATA, 0, origin=2))
        agent.abandon(0)
        assert log.num_abandoned == 0
        assert not agent.abandoned_seqs


def _abandonment_scenario():
    """cA loses packet 0 (link-down during its only transmission), then
    every possible repairer is crashed for the rest of the run."""
    topo, tree, routing, (s, r1, ca, cb, cc) = _small_world()
    config = ScenarioConfig(
        seed=3, num_routers=2, loss_prob=0.0, num_packets=2,
        lossless_recovery=False,
    )
    built = BuiltScenario(
        config=config, topology=topo, tree=tree, routing=routing
    )
    schedule = FaultSchedule(
        # Packet 0 crosses r1->cA at t=2; packet 1 (t=10) gets through.
        link_down_windows=(LinkDownWindow(r1, ca, 1.5, 4.0),),
        # Both packets delivered everywhere else by t=13; after that the
        # source and both peers are gone until far beyond the run.
        crash_windows=(
            CrashWindow(s, 13.5, 1e9),
            CrashWindow(cb, 13.5, 1e9),
            CrashWindow(cc, 13.5, 1e9),
        ),
    )
    return built, schedule, ca


HARDENED_FACTORIES = [
    pytest.param(
        lambda: RPProtocolFactory(
            RPConfig(recovery_policy=RecoveryPolicy.hardened())
        ),
        id="rp",
    ),
    pytest.param(
        lambda: SRMProtocolFactory(SRMConfig(max_request_rounds=2)), id="srm"
    ),
    pytest.param(
        lambda: RMAProtocolFactory(
            RMAConfig(recovery_policy=RecoveryPolicy.hardened())
        ),
        id="rma",
    ),
    pytest.param(
        lambda: SourceProtocolFactory(
            SourceConfig(recovery_policy=RecoveryPolicy.hardened())
        ),
        id="source",
    ),
    pytest.param(
        lambda: NearestPeerProtocolFactory(
            NaiveConfig(recovery_policy=RecoveryPolicy.hardened())
        ),
        id="nearest",
    ),
]


class TestGuaranteedTermination:
    @pytest.mark.parametrize("make_factory", HARDENED_FACTORIES)
    def test_unrepairable_loss_is_abandoned_not_hung(self, make_factory):
        built, schedule, ca = _abandonment_scenario()
        artifacts = run_protocol_detailed(
            built, make_factory(), faults=schedule
        )
        log = artifacts.log
        # The loss was detected, could not be repaired, and was
        # explicitly abandoned — the run drained instead of hanging.
        assert log.was_abandoned(ca, 0)
        assert log.num_abandoned == 1
        assert log.unterminated() == []
        assert not artifacts.summary.fully_recovered
        # The injector counted the faults it injected along the way.
        assert artifacts.faults is not None
        assert artifacts.faults.counts.get("crash.rx_drop", 0) >= 1

    @pytest.mark.parametrize("make_factory", HARDENED_FACTORIES)
    def test_fault_free_hardened_run_fully_recovers(self, make_factory):
        # A hardened policy must not change behaviour when nothing
        # fails: plain lossy runs still recover everything.
        config = ScenarioConfig(
            seed=5, num_routers=20, loss_prob=0.08, num_packets=8,
            lossless_recovery=False,
        )
        from repro.experiments.runner import build_scenario

        built = build_scenario(config)
        artifacts = run_protocol_detailed(built, make_factory())
        assert artifacts.summary.fully_recovered
        assert artifacts.log.num_abandoned == 0


class TestFailureDetectorIntegration:
    def test_rp_falls_back_to_source_past_silent_peers(self):
        # cA's prioritized list under RP starts with peers; crashing
        # both peers (after they received the stream) forces request
        # timeouts until the attempt chain reaches the — alive — source.
        topo, tree, routing, (s, r1, ca, cb, cc) = _small_world()
        config = ScenarioConfig(
            seed=3, num_routers=2, loss_prob=0.0, num_packets=2,
            lossless_recovery=False,
        )
        built = BuiltScenario(
            config=config, topology=topo, tree=tree, routing=routing
        )
        schedule = FaultSchedule(
            link_down_windows=(LinkDownWindow(r1, ca, 1.5, 4.0),),
            crash_windows=(
                CrashWindow(cb, 13.5, 1e9),
                CrashWindow(cc, 13.5, 1e9),
            ),
        )
        policy = RecoveryPolicy.hardened()
        artifacts = run_protocol_detailed(
            built,
            RPProtocolFactory(RPConfig(recovery_policy=policy)),
            faults=schedule,
        )
        # The loss was recovered (the source answered) even though the
        # peers were dead the whole time.
        assert artifacts.log.is_recovered(ca, 0)
        assert artifacts.summary.fully_recovered

    def test_repeatedly_silent_peer_is_declared_dead(self):
        # cA misses the whole stream (its access link is down for the
        # stream's duration) and only learns about the five losses from
        # the first SESSION flush — by which time both peers have
        # crashed.  The NEAREST strategy (same hardened runtime as RP,
        # but its list always targets peers; RP's planner rightly goes
        # source-only on a world this small) repeatedly times out on the
        # dead peers, crosses the hardened failure threshold
        # (peer.dead), and still recovers every loss via the live
        # source fallback.
        from repro.obs.instrumentation import Instrumentation

        topo, tree, routing, (s, r1, ca, cb, cc) = _small_world()
        config = ScenarioConfig(
            seed=3, num_routers=2, loss_prob=0.0, num_packets=5,
            lossless_recovery=False,
        )
        built = BuiltScenario(
            config=config, topology=topo, tree=tree, routing=routing
        )
        schedule = FaultSchedule(
            # The stream's last copy crosses r1->cA at t=42; the window
            # spans all of it, so cA sees nothing until SESSION time.
            link_down_windows=(LinkDownWindow(r1, ca, 1.5, 43.5),),
            # Both peers received everything by t=43, then crash.
            crash_windows=(
                CrashWindow(cb, 45.0, 1e9),
                CrashWindow(cc, 45.0, 1e9),
            ),
        )
        instr = Instrumentation.recording(profile=False)
        artifacts = run_protocol_detailed(
            built,
            NearestPeerProtocolFactory(
                NaiveConfig(
                    list_length=2,
                    recovery_policy=RecoveryPolicy.hardened(),
                )
            ),
            instrumentation=instr,
            faults=schedule,
        )
        assert artifacts.summary.fully_recovered
        assert instr.registry.counter("fault.peer.dead").value >= 1
