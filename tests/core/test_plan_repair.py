"""Tests for incremental plan repair under membership churn.

The contract under test (see repro.core.plan_repair): after any
join/leave event, the incrementally repaired strategy set must equal
from-scratch planning of the current group — the skip filters (the
departure monotonicity argument, the join LCA/class-winner filters) may
only skip clients whose optimal plan provably did not move.
"""

import pytest

from repro.core.plan_repair import IncrementalPlanRepairer
from repro.core.planner import RPPlanner
from repro.core.strategy_graph import StrategyRestrictions
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario
from repro.sim.membership import LEAVE, random_membership_schedule
from repro.sim.rng import RngStreams


def _forbidding(tree, routing, departed):
    return RPPlanner(
        tree, routing,
        restrictions=StrategyRestrictions(forbidden_peers=frozenset(departed)),
    )


class _ReplanSpy:
    """The repairer's ``replan`` callable, recording every call."""

    def __init__(self, tree, routing):
        self.tree, self.routing = tree, routing
        self.calls: list[tuple[list[int], frozenset]] = []

    def __call__(self, clients, departed):
        self.calls.append((list(clients), departed))
        return _forbidding(self.tree, self.routing, departed).plan_clients(
            clients
        )


def _setup(seed=3, routers=40):
    built = build_scenario(
        ScenarioConfig(seed=seed, num_routers=routers, loss_prob=0.05,
                       num_packets=5)
    )
    tree = built.tree.clone()
    routing = built.routing
    strategies = dict(RPPlanner(tree, routing).plan_all())
    return tree, routing, strategies, _ReplanSpy(tree, routing)


def _churn_events(tree, rng):
    """Replay a Poisson join/leave schedule on ``tree``: prune each
    departing leaf, graft it back on rejoin, and yield
    ``(kind, node, departed)`` after each membership change."""
    schedule = random_membership_schedule(
        0.8, rng, [c for c in tree.clients if c != tree.root], 280.0
    )
    departed: set[int] = set()
    graft_points: dict[int, int] = {}
    for event in schedule.events:
        if event.kind == LEAVE:
            if event.node in departed:
                continue
            departed.add(event.node)
            if tree.contains(event.node) and tree.is_leaf(event.node):
                graft_points[event.node] = tree.prune_leaf(event.node)
            kind = "leave"
        else:
            departed.discard(event.node)
            if event.node in graft_points:
                tree.graft_leaf(event.node, graft_points.pop(event.node))
            kind = "join"
        yield kind, event.node, frozenset(departed)


def _leaf_peer_in_some_list(tree, strategies):
    """A leaf client that appears in at least one other client's chosen
    prioritized list — leaving it must dirty those clients."""
    chosen_peers = {
        cand.node
        for strategy in strategies.values()
        for cand in strategy.attempts
    }
    for node in sorted(chosen_peers):
        if tree.contains(node) and tree.is_leaf(node) and node != tree.root:
            return node
    pytest.skip("scenario has no leaf client inside a chosen list")


class TestLeave:
    def test_departed_peer_scrubbed_everywhere(self):
        tree, routing, strategies, replan = _setup()
        leaver = _leaf_peer_in_some_list(tree, strategies)
        repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
        tree.prune_leaf(leaver)
        replanned = repairer.repair("leave", leaver, frozenset({leaver}))
        assert leaver not in repairer.strategies
        for strategy in repairer.strategies.values():
            assert leaver not in [a.node for a in strategy.attempts]
        # Only the dirty clients were touched — sublinear by
        # construction, strict on any non-degenerate scenario.
        assert 0 < len(replanned) < len(strategies)

    def test_leave_repair_matches_scratch(self):
        tree, routing, strategies, replan = _setup()
        leaver = _leaf_peer_in_some_list(tree, strategies)
        repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
        tree.prune_leaf(leaver)
        repairer.repair("leave", leaver, frozenset({leaver}))
        # The monotonicity argument, checked empirically: every client
        # the repair *skipped* must still hold its from-scratch optimum.
        assert repairer.verify_against_scratch(frozenset({leaver})) == 0.0

    def test_leave_of_unchosen_peer_replans_nobody(self):
        tree, routing, strategies, replan = _setup()
        chosen = {
            cand.node
            for strategy in strategies.values()
            for cand in strategy.attempts
        }
        unchosen = [
            c for c in tree.clients
            if c not in chosen and c != tree.root and tree.is_leaf(c)
        ]
        if not unchosen:
            pytest.skip("every leaf client is in some chosen list")
        leaver = unchosen[0]
        repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
        tree.prune_leaf(leaver)
        replanned = repairer.repair("leave", leaver, frozenset({leaver}))
        assert replanned == {}
        assert repairer.verify_against_scratch(frozenset({leaver})) == 0.0


class TestJoin:
    def test_rejoin_replans_joiner_and_matches_scratch(self):
        tree, routing, strategies, replan = _setup()
        leaver = _leaf_peer_in_some_list(tree, strategies)
        repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
        parent = tree.prune_leaf(leaver)
        repairer.repair("leave", leaver, frozenset({leaver}))
        tree.graft_leaf(leaver, parent)
        replanned = repairer.repair("join", leaver, frozenset())
        # The joiner always gets a fresh plan.
        assert leaver in replanned
        assert leaver in repairer.strategies
        # After the round trip the group is back to the original set;
        # the LCA/class-winner filters may only skip unmoved plans.
        assert repairer.verify_against_scratch(frozenset()) == 0.0
        # Join repair is also sublinear: the joiner plus the clients it
        # could actually improve, not the whole group.
        assert len(replanned) < len(repairer.strategies)

    @pytest.mark.parametrize("seed", [3, 9, 21])
    def test_round_trip_over_seeds(self, seed):
        tree, routing, strategies, replan = _setup(seed=seed)
        leaver = _leaf_peer_in_some_list(tree, strategies)
        repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
        parent = tree.prune_leaf(leaver)
        repairer.repair("leave", leaver, frozenset({leaver}))
        assert repairer.verify_against_scratch(frozenset({leaver})) == 0.0
        tree.graft_leaf(leaver, parent)
        repairer.repair("join", leaver, frozenset())
        assert repairer.verify_against_scratch(frozenset()) == 0.0


class TestAccounting:
    def test_history_and_stats(self):
        tree, routing, strategies, replan = _setup()
        leaver = _leaf_peer_in_some_list(tree, strategies)
        repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
        parent = tree.prune_leaf(leaver)
        repairer.repair("leave", leaver, frozenset({leaver}))
        tree.graft_leaf(leaver, parent)
        repairer.repair("join", leaver, frozenset())
        assert [h["kind"] for h in repairer.history] == ["leave", "join"]
        stats = repairer.stats()
        assert stats["events"] == 2
        assert stats["clients_replanned"] >= 1
        assert 0.0 < stats["replan_fraction"] < 1.0
        assert stats["seconds"] >= 0.0


class TestReplanContract:
    """One batched ``replan`` call per event with a non-empty dirty set,
    and none otherwise; each returned plan is the single-client plan."""

    def _check_event(self, repairer, replan, kind, node, departed):
        before = len(replan.calls)
        replanned = repairer.repair(kind, node, departed)
        calls = replan.calls[before:]
        if replanned:
            assert len(calls) == 1
            assert calls[0][0] == list(replanned)
            assert calls[0][1] == departed
        else:
            assert calls == []
        planner = _forbidding(replan.tree, replan.routing, departed)
        for client, strategy in replanned.items():
            assert strategy == planner.plan(client)
        return replanned

    def test_leave_and_join_one_call_each(self):
        tree, routing, strategies, replan = _setup()
        leaver = _leaf_peer_in_some_list(tree, strategies)
        repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
        parent = tree.prune_leaf(leaver)
        dirty = self._check_event(
            repairer, replan, "leave", leaver, frozenset({leaver})
        )
        assert list(dirty) == sorted(dirty)
        tree.graft_leaf(leaver, parent)
        joined = self._check_event(
            repairer, replan, "join", leaver, frozenset()
        )
        # The joiner leads its batch; the incumbents follow in the
        # repairer's strategy order.
        assert next(iter(joined)) == leaver
        order = list(repairer.strategies)
        rest = [c for c in joined if c != leaver]
        assert rest == sorted(rest, key=order.index)

    def test_empty_dirty_set_makes_no_call(self):
        tree, routing, strategies, replan = _setup()
        chosen = {
            cand.node
            for strategy in strategies.values()
            for cand in strategy.attempts
        }
        unchosen = [
            c for c in tree.clients
            if c not in chosen and c != tree.root and tree.is_leaf(c)
        ]
        if not unchosen:
            pytest.skip("every leaf client is in some chosen list")
        repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
        tree.prune_leaf(unchosen[0])
        assert self._check_event(
            repairer, replan, "leave", unchosen[0], frozenset({unchosen[0]})
        ) == {}

    def test_verify_against_scratch_is_one_call(self):
        tree, routing, strategies, replan = _setup()
        repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
        assert repairer.verify_against_scratch(frozenset()) == 0.0
        assert replan.calls == [(sorted(strategies), frozenset())]

    @pytest.mark.parametrize("seed", [5, 11])
    def test_poisson_replay_matches_scratch_after_every_event(self, seed):
        tree, routing, strategies, replan = _setup(seed=seed, routers=40)
        repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
        events = 0
        for kind, node, departed in _churn_events(
            tree, RngStreams(seed).get("membership-schedule:test")
        ):
            self._check_event(repairer, replan, kind, node, departed)
            events += 1
            scratch = _forbidding(tree, routing, departed).plan_clients(
                sorted(repairer.strategies)
            )
            assert scratch == repairer.strategies
        assert events > 0


def test_repair_cost_sublinear_in_group_size():
    # One departure dirties the clients whose chosen lists hold the
    # leaver.  Lists are short and local to the leaver's tree vicinity,
    # so that count stays roughly flat while the group grows: the
    # fraction of the group one leave re-plans shrinks (re-planning the
    # group per event would pin it at 1).
    clients, replans = [], []
    for routers in (60, 120, 240):
        tree, routing, strategies, replan = _setup(seed=5, routers=routers)
        clients.append(len(strategies))
        repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
        leaves = [
            c for c in tree.clients if c != tree.root and tree.is_leaf(c)
        ][:12]
        for node in leaves:
            parent = tree.prune_leaf(node)
            repairer.repair("leave", node, frozenset({node}))
            tree.graft_leaf(node, parent)
            repairer.repair("join", node, frozenset())
        replans.append(sum(
            h["replanned"] for h in repairer.history if h["kind"] == "leave"
        ) / len(leaves))
        assert repairer.verify_against_scratch(frozenset()) <= 0.01

        # A compound Poisson schedule, the churn sweep's workload, keeps
        # the repaired plans within its 1% quality bound as well.
        tree, routing, strategies, replan = _setup(seed=5, routers=routers)
        repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
        departed = frozenset()
        for kind, node, departed in _churn_events(
            tree, RngStreams(5).get("membership-schedule:bench")
        ):
            repairer.repair(kind, node, departed)
        assert repairer.history
        assert repairer.verify_against_scratch(departed) <= 0.01

    fractions = [r / c for r, c in zip(replans, clients)]
    assert fractions[0] > fractions[1] > fractions[2], fractions
    assert fractions[-1] < 0.5
    # Per-leave work grows less than half as fast as the group.
    assert replans[-1] / replans[0] < 0.5 * clients[-1] / clients[0]
