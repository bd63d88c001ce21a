"""Tests for the dynamic-membership subsystem (schedules + director)."""

import numpy as np
import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario, run_protocol_detailed
from repro.protocols.rp import RPProtocolFactory
from repro.protocols.srm import SRMConfig, SRMProtocolFactory
from repro.sim.membership import (
    JOIN,
    LEAVE,
    MembershipEvent,
    MembershipSchedule,
    random_membership_schedule,
)

CONFIG = ScenarioConfig(
    seed=11, num_routers=30, loss_prob=0.08, num_packets=8,
    lossless_recovery=False,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestScheduleValidation:
    def test_event_rejects_negative_time(self):
        with pytest.raises(ValueError):
            MembershipEvent(time=-1.0, node=3, kind=LEAVE)

    def test_event_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            MembershipEvent(time=1.0, node=3, kind="crash")

    def test_events_must_be_sorted(self):
        with pytest.raises(ValueError):
            MembershipSchedule(events=(
                MembershipEvent(time=5.0, node=1, kind=LEAVE),
                MembershipEvent(time=2.0, node=2, kind=LEAVE),
            ))

    def test_first_event_per_node_must_be_leave(self):
        # The initial group is the tree's client set: a member cannot
        # join before it has left.
        with pytest.raises(ValueError):
            MembershipSchedule(events=(
                MembershipEvent(time=1.0, node=1, kind=JOIN),
            ))

    def test_events_must_alternate_per_node(self):
        with pytest.raises(ValueError):
            MembershipSchedule(events=(
                MembershipEvent(time=1.0, node=1, kind=LEAVE),
                MembershipEvent(time=2.0, node=1, kind=LEAVE),
            ))

    def test_valid_round_trip_accepted(self):
        schedule = MembershipSchedule(events=(
            MembershipEvent(time=1.0, node=1, kind=LEAVE),
            MembershipEvent(time=2.0, node=2, kind=LEAVE),
            MembershipEvent(time=3.0, node=1, kind=JOIN),
            MembershipEvent(time=4.0, node=1, kind=LEAVE),
        ))
        assert schedule.churners == (1, 2)
        assert not schedule.is_null

    def test_null_schedule(self):
        assert MembershipSchedule.none().is_null
        assert MembershipSchedule().is_null
        assert MembershipSchedule.none().churners == ()


class TestRandomSchedule:
    def test_zero_intensity_is_null_and_draws_nothing(self):
        rng = _rng(7)
        before = rng.bit_generator.state
        schedule = random_membership_schedule(0.0, rng, [1, 2, 3], 100.0)
        assert schedule.is_null
        assert rng.bit_generator.state == before

    def test_deterministic_per_seed(self):
        clients = list(range(10, 40))
        a = random_membership_schedule(0.6, _rng(42), clients, 200.0)
        b = random_membership_schedule(0.6, _rng(42), clients, 200.0)
        assert a == b

    def test_events_valid_and_within_horizon(self):
        horizon = 250.0
        clients = list(range(5, 45))
        for seed in range(8):
            schedule = random_membership_schedule(
                0.8, _rng(seed), clients, horizon
            )
            # Constructing the schedule already validated ordering and
            # per-node alternation; check the placement contract.
            assert set(schedule.churners) <= set(clients)
            for event in schedule.events:
                if event.kind == LEAVE:
                    assert event.time < 0.7 * horizon
                else:
                    assert event.time < 0.85 * horizon

    def test_intensity_scales_churner_count(self):
        clients = list(range(100))
        light = random_membership_schedule(0.2, _rng(1), clients, 300.0)
        heavy = random_membership_schedule(1.0, _rng(1), clients, 300.0)
        assert len(heavy.churners) > len(light.churners) > 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            random_membership_schedule(1.5, _rng(), [1], 100.0)
        with pytest.raises(ValueError):
            random_membership_schedule(0.5, _rng(), [1], 0.0)


def _leaf_client(built):
    return next(
        c for c in built.tree.clients
        if c != built.tree.root and built.tree.is_leaf(c)
    )


class TestDirectorIntegration:
    def test_permanent_leave_settles_and_prunes(self):
        built = build_scenario(CONFIG)
        leaver = _leaf_client(built)
        schedule = MembershipSchedule(events=(
            MembershipEvent(time=40.0, node=leaver, kind=LEAVE),
        ))
        artifacts = run_protocol_detailed(
            built, RPProtocolFactory(), membership=schedule
        )
        director = artifacts.membership
        assert director is not None
        assert director.counts.get("member.leave") == 1
        assert "member.join" not in director.counts
        # Teardown beat every armed send: nothing reached the boundary.
        assert director.counts.get("member.tx_drop", 0) == 0
        assert leaver in director.departed
        assert leaver not in director.members()
        # The leaf was pruned from the run's tree...
        assert not director._network.tree.contains(leaver)
        # ...while the shared built tree stayed pristine.
        assert built.tree.contains(leaver)
        # The run terminated cleanly despite the missing member (the
        # runner's drain-time invariants passed, or it would have raised).
        assert artifacts.log.unterminated() == []

    def test_leave_then_rejoin_catches_up(self):
        built = build_scenario(CONFIG)
        churner = _leaf_client(built)
        schedule = MembershipSchedule(events=(
            MembershipEvent(time=30.0, node=churner, kind=LEAVE),
            MembershipEvent(time=90.0, node=churner, kind=JOIN),
        ))
        artifacts = run_protocol_detailed(
            built, SRMProtocolFactory(SRMConfig(max_request_rounds=8)),
            membership=schedule,
        )
        director = artifacts.membership
        assert director is not None
        assert director.counts.get("member.leave") == 1
        assert director.counts.get("member.join") == 1
        assert director.departed == frozenset()
        assert churner in director.members()
        assert director._network.tree.contains(churner)
        agent = director._network.agent_at(churner)
        assert agent is not None and not agent.departed
        # The rejoiner caught up: every packet slot settled explicitly
        # (a late repair may still land for an abandoned seq, so the
        # two sets can overlap — coverage is what matters).
        assert (
            len(agent.received | agent.abandoned_seqs) == CONFIG.num_packets
        )
        assert artifacts.log.unterminated() == []

    def test_root_never_leaves(self):
        built = build_scenario(CONFIG)
        schedule = MembershipSchedule(events=(
            MembershipEvent(time=40.0, node=built.tree.root, kind=LEAVE),
        ))
        artifacts = run_protocol_detailed(
            built, RPProtocolFactory(), membership=schedule
        )
        director = artifacts.membership
        assert director is not None
        # The leave fired but was refused: the source anchors the group.
        assert director.departed == frozenset()
        assert "member.leave" not in director.counts

    def test_plan_repair_emitted_for_planning_protocol(self):
        built = build_scenario(CONFIG)
        leaver = _leaf_client(built)
        schedule = MembershipSchedule(events=(
            MembershipEvent(time=40.0, node=leaver, kind=LEAVE),
        ))
        factory = RPProtocolFactory()
        run_protocol_detailed(built, factory, membership=schedule)
        repairer = factory.last_repairer
        assert repairer is not None
        assert len(repairer.history) == 1
        assert repairer.history[0]["kind"] == LEAVE
        # The leaver's own plan was retired with it.
        assert leaver not in repairer.strategies
        # No surviving plan names the departed peer.
        for strategy in repairer.strategies.values():
            assert leaver not in [a.node for a in strategy.attempts]
