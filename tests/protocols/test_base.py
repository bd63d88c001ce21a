"""Tests for the shared protocol machinery: gap detection, completion
tracking, the stream driver and repair deduplication."""

import pytest

from repro.protocols.base import (
    ClientAgent,
    CompletionTracker,
    RepairDeduper,
    StreamConfig,
    StreamDriver,
)
from repro.protocols.rp import RPSourceAgent
from repro.sim.engine import EventQueue
from repro.sim.packet import Packet, PacketKind


class ProbeClient(ClientAgent):
    """Records hook invocations instead of recovering anything."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.losses: list[tuple[int, float]] = []
        self.recoveries: list[int] = []
        self.new_packets: list[int] = []

    def on_loss_detected(self, seq: int) -> None:
        self.losses.append((seq, self.network.events.now))

    def on_recovered(self, seq: int) -> None:
        self.recoveries.append(seq)

    def on_new_packet(self, seq: int) -> None:
        self.new_packets.append(seq)


def probe(world, node=None):
    agent = ProbeClient(
        node if node is not None else world.CA,
        world.network,
        world.log,
        world.tracker,
        world.num_packets,
    )
    world.network.attach_agent(agent.node, agent)
    return agent


def data(seq):
    return Packet(PacketKind.DATA, seq, origin=2)


def repair(seq):
    return Packet(PacketKind.REPAIR, seq, origin=2)


def session(highest):
    return Packet(PacketKind.SESSION, 0, origin=2, highest_seq=highest)


class TestGapDetection:
    def test_in_order_reception_no_losses(self, world):
        agent = probe(world)
        for seq in range(4):
            agent.on_packet(data(seq))
        assert agent.losses == []
        assert agent.received == {0, 1, 2, 3}

    def test_gap_detected_on_later_arrival(self, world):
        agent = probe(world)
        agent.on_packet(data(0))
        agent.on_packet(data(3))
        assert [seq for seq, _ in agent.losses] == [1, 2]

    def test_gap_detected_once(self, world):
        agent = probe(world)
        agent.on_packet(data(0))
        agent.on_packet(data(2))
        agent.on_packet(data(3))
        assert [seq for seq, _ in agent.losses] == [1]

    def test_session_reveals_tail_loss(self, world):
        agent = probe(world)
        agent.on_packet(data(0))
        agent.on_packet(session(highest=4))
        assert [seq for seq, _ in agent.losses] == [1, 2, 3, 4]

    def test_losing_everything_detected_via_session(self, world):
        agent = probe(world)
        agent.on_packet(session(highest=2))
        assert [seq for seq, _ in agent.losses] == [0, 1, 2]

    def test_repair_fills_gap_and_records_recovery(self, world):
        agent = probe(world)
        agent.on_packet(data(0))
        agent.on_packet(data(2))  # detects loss of 1
        agent.on_packet(repair(1))
        assert agent.recoveries == [1]
        assert world.log.is_recovered(agent.node, 1)

    def test_duplicate_repair_ignored(self, world):
        agent = probe(world)
        agent.on_packet(data(1))  # detects 0
        agent.on_packet(repair(0))
        agent.on_packet(repair(0))
        assert agent.recoveries == [0]

    def test_on_new_packet_fires_for_every_first_arrival(self, world):
        agent = probe(world)
        agent.on_packet(data(0))
        agent.on_packet(data(2))
        agent.on_packet(repair(1))
        agent.on_packet(data(2))  # duplicate
        assert agent.new_packets == [0, 2, 1]

    def test_force_detect(self, world):
        agent = probe(world)
        agent.force_detect(3)
        assert [seq for seq, _ in agent.losses] == [3]
        agent.force_detect(3)  # idempotent
        assert len(agent.losses) == 1
        agent.on_packet(data(0))
        agent.force_detect(0)  # already received: no-op
        assert len(agent.losses) == 1


class TestCompletionTracker:
    def test_counts_down(self):
        tracker = CompletionTracker(2, 3)
        assert tracker.expected == 6
        for _ in range(6):
            assert not tracker.complete
            tracker.mark_received()
        assert tracker.complete
        assert tracker.remaining == 0

    def test_stops_its_run_at_zero(self):
        events = EventQueue()
        tracker = CompletionTracker(1, 2, events)
        fired = []
        for t in (1.0, 2.0, 3.0):
            events.schedule_at(
                t, lambda t=t: (fired.append(t), tracker.mark_received())
            )
        events.run()
        assert fired == [1.0, 2.0] and tracker.complete
        assert events.pending == 1

    def test_starting_complete_stops_after_one_event(self):
        # Zero packets: nothing to wait for, and the run ends after its
        # first event, as a completion check after each event would.
        events = EventQueue()
        tracker = CompletionTracker(3, 0, events)
        assert tracker.complete
        fired = []
        for t in (1.0, 2.0):
            events.schedule_at(t, lambda t=t: fired.append(t))
        events.run()
        assert fired == [1.0]
        events.run()
        assert fired == [1.0, 2.0]

    def test_abandonment_also_stops_at_zero(self):
        events = EventQueue()
        tracker = CompletionTracker(1, 1, events)
        events.schedule_at(1.0, tracker.mark_abandoned)
        events.schedule_at(2.0, lambda: None)
        events.run()
        assert tracker.complete and tracker.abandoned == 1
        assert events.now == 1.0 and events.pending == 1

    def test_overcount_raises(self):
        tracker = CompletionTracker(1, 1)
        tracker.mark_received()
        with pytest.raises(ValueError):
            tracker.mark_received()

    def test_agent_marks_only_in_range(self, world):
        agent = probe(world)
        before = world.tracker.remaining
        agent.on_packet(data(world.num_packets + 3))  # out of range
        assert world.tracker.remaining == before
        agent.on_packet(data(0))
        assert world.tracker.remaining == before - 1


class TestStreamDriver:
    def test_stream_delivers_all_packets(self, world):
        world.tracker = CompletionTracker(3, world.num_packets, world.events)
        agents = [probe(world, n) for n in (world.CA, world.CB, world.CC)]
        source = RPSourceAgent(world.S, world.network, False)
        world.network.attach_agent(world.S, source)
        driver = StreamDriver(
            world.network, source, StreamConfig(5, 10.0, 50.0), world.tracker
        )
        driver.start()
        world.events.run()
        # The last reception stopped the run: the next flush is pending.
        assert world.events.pending
        for agent in agents:
            assert agent.received == set(range(5))
        assert world.tracker.complete

    def test_sessions_stop_after_completion(self):
        from tests.protocols.conftest import SmallWorld

        world = SmallWorld(num_packets=2)
        for n in (world.CA, world.CB, world.CC):
            probe(world, n)
        source = RPSourceAgent(world.S, world.network, False)
        world.network.attach_agent(world.S, source)
        driver = StreamDriver(
            world.network,
            source,
            StreamConfig(2, 10.0, 5.0),
            world.tracker,
        )
        driver.start()
        world.events.run(max_events=10_000)  # drains: sessions terminate
        assert world.tracker.complete

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(0, 10.0, 50.0)
        with pytest.raises(ValueError):
            StreamConfig(1, 0.0, 50.0)
        with pytest.raises(ValueError):
            StreamConfig(1, 10.0, -1.0)


class TestRepairDeduper:
    def test_first_repair_allowed(self, world):
        deduper = RepairDeduper(world.tree)
        assert deduper.should_repair(0, 0, now=0.0)

    def test_duplicate_within_hold_suppressed(self, world):
        deduper = RepairDeduper(world.tree)
        assert deduper.should_repair(0, 0, now=0.0)
        assert not deduper.should_repair(0, 0, now=0.1)

    def test_expired_hold_allows_again(self, world):
        deduper = RepairDeduper(world.tree)
        assert deduper.should_repair(0, 0, now=0.0)
        assert deduper.should_repair(0, 0, now=1e9)

    def test_descendant_root_covered(self, world):
        deduper = RepairDeduper(world.tree)
        assert deduper.should_repair(0, 0, now=0.0)  # subtree at r0
        # r1 is inside r0's subtree: covered.
        assert not deduper.should_repair(0, 1, now=0.1)

    def test_wider_root_not_covered(self, world):
        deduper = RepairDeduper(world.tree)
        assert deduper.should_repair(0, 1, now=0.0)  # subtree at r1
        # r0 is *above* r1: previous repair did not cover cC.
        assert deduper.should_repair(0, 0, now=0.1)

    def test_different_seq_independent(self, world):
        deduper = RepairDeduper(world.tree)
        assert deduper.should_repair(0, 0, now=0.0)
        assert deduper.should_repair(1, 0, now=0.0)
