"""Micro-benchmark: incremental plan repair cost versus group size.

The dynamic-membership acceptance claim: repairing the RP strategy set
after one join/leave event costs *sublinearly* in the group size,
against the ``plan_all`` baseline that re-plans every client (what RP
does when its failure detector declares a peer dead).  The leave dirty set is the
clients whose chosen list contains the leaver; list lengths are small
and do not grow with the group, and each peer appears in the lists of
the clients in its tree vicinity — so the number of clients one
departure dirties stays roughly constant while the group grows, and the
*fraction* of the group each event re-plans shrinks.

Two measurements per backbone size, recorded in
``BENCH_churn_repair.json``:

* **single-event probe** — prune one leaf client from the fully-planned
  group, repair, graft it back, repair again; averaged over a sample of
  leaves.  This isolates per-event cost against group size (the
  sublinearity assert lives here, on replanned counts — robust to
  wall-clock noise);
* **Poisson replay** — a full ``random_membership_schedule`` driven
  through the repairer, the realistic compound workload the churn sweep
  runs (recorded, not asserted: the schedule itself scales with the
  group).

The repaired-vs-scratch quality gap is checked against the churn
sweep's 1% acceptance bound at every size.
"""

import json
import pathlib
import time

from repro.core.plan_repair import IncrementalPlanRepairer
from repro.core.planner import RPPlanner
from repro.core.strategy_graph import StrategyRestrictions
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario
from repro.sim.membership import LEAVE, random_membership_schedule
from repro.sim.rng import RngStreams

RESULT_PATH = (
    pathlib.Path(__file__).resolve().parents[1] / "BENCH_churn_repair.json"
)

ROUTER_SIZES = (60, 120, 240)

#: Leaf clients sampled per size for the single-event probe.
PROBE_SAMPLES = 12

#: Repaired plans may differ from from-scratch plans by at most this
#: relative expected-delay gap (the churn sweep's acceptance bound).
QUALITY_TOLERANCE = 0.01


def _setup(seed: int, routers: int):
    built = build_scenario(
        ScenarioConfig(seed=seed, num_routers=routers, loss_prob=0.05,
                       num_packets=5)
    )
    tree = built.tree.clone()
    routing = built.routing

    def replan(clients, departed):
        planner = RPPlanner(
            tree, routing,
            restrictions=StrategyRestrictions(
                forbidden_peers=frozenset(departed)
            ),
        )
        return planner.plan_clients(clients)

    started = time.perf_counter()
    strategies = dict(RPPlanner(tree, routing).plan_all())
    plan_all_seconds = time.perf_counter() - started
    return tree, routing, strategies, replan, plan_all_seconds


def _probe_single_events(seed: int, routers: int) -> dict:
    """Leave/rejoin one leaf at a time from the fully-planned group."""
    tree, routing, strategies, replan, plan_all_seconds = _setup(seed, routers)
    group_size = len(strategies)
    repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
    leaves = [
        c for c in tree.clients if c != tree.root and tree.is_leaf(c)
    ][:PROBE_SAMPLES]
    assert leaves
    for node in leaves:
        parent = tree.prune_leaf(node)
        repairer.repair("leave", node, frozenset({node}))
        tree.graft_leaf(node, parent)
        repairer.repair("join", node, frozenset())
    history = repairer.history
    leave_events = [h for h in history if h["kind"] == "leave"]
    mean_replans = sum(h["replanned"] for h in leave_events) / len(leave_events)
    mean_seconds = sum(h["seconds"] for h in leave_events) / len(leave_events)
    quality_gap = repairer.verify_against_scratch(frozenset())
    return {
        "routers": routers,
        "clients": group_size,
        "samples": len(leaves),
        "mean_replans_per_leave": mean_replans,
        "leave_replan_fraction": mean_replans / group_size,
        "mean_repair_ms": 1e3 * mean_seconds,
        "plan_all_ms": 1e3 * plan_all_seconds,
        "quality_gap": quality_gap,
    }


def _replay_poisson(seed: int, routers: int) -> dict:
    """Drive a realistic compound churn schedule through the repairer."""
    tree, routing, strategies, replan, _ = _setup(seed, routers)
    group_size = len(strategies)
    schedule = random_membership_schedule(
        0.8,
        RngStreams(seed).get("membership-schedule:bench"),
        [c for c in tree.clients if c != tree.root],
        280.0,
    )
    repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
    departed: set[int] = set()
    graft_points: dict[int, int] = {}
    for event in schedule.events:
        if event.kind == LEAVE:
            if event.node in departed:
                continue
            departed.add(event.node)
            if tree.contains(event.node) and tree.is_leaf(event.node):
                graft_points[event.node] = tree.prune_leaf(event.node)
            repairer.repair("leave", event.node, frozenset(departed))
        else:
            departed.discard(event.node)
            if event.node in graft_points:
                tree.graft_leaf(event.node, graft_points.pop(event.node))
            repairer.repair("join", event.node, frozenset(departed))
    stats = repairer.stats()
    quality_gap = repairer.verify_against_scratch(frozenset(departed))
    return {
        "routers": routers,
        "clients": group_size,
        "events": stats["events"],
        "replans_per_event": stats["replans_per_event"],
        "replan_fraction": stats["replan_fraction"],
        "mean_repair_ms": (
            1e3 * stats["seconds"] / stats["events"] if stats["events"] else 0.0
        ),
        "quality_gap": quality_gap,
    }


def test_repair_cost_sublinear_in_group_size():
    probes = [_probe_single_events(seed=5, routers=n) for n in ROUTER_SIZES]
    replays = [_replay_poisson(seed=5, routers=n) for n in ROUTER_SIZES]
    # The sublinearity claim, on the noise-free measured quantity: the
    # fraction of the group one departure re-plans shrinks as the group
    # grows (a linear repair would hold it constant; plan_all-per-event
    # would pin it at 1.0).
    fractions = [p["leave_replan_fraction"] for p in probes]
    assert fractions[0] > fractions[1] > fractions[2], fractions
    assert fractions[-1] < 0.5
    # Absolute per-event work grows much slower than the group: the
    # dirty set tracks list lengths (local), not group size (global).
    clients = [p["clients"] for p in probes]
    replans = [p["mean_replans_per_leave"] for p in probes]
    growth = clients[-1] / clients[0]
    assert replans[-1] / max(replans[0], 1e-9) < 0.5 * growth
    # Repairing one event beats re-planning the world at every size.
    assert all(p["mean_repair_ms"] < p["plan_all_ms"] for p in probes)
    # And repaired plans stay within the sweep's quality bound of
    # from-scratch planning (the exactness argument says 0.0 exactly).
    for row in [*probes, *replays]:
        assert row["quality_gap"] <= QUALITY_TOLERANCE
    RESULT_PATH.write_text(json.dumps(
        {
            "description": (
                "Incremental plan repair vs group size.  single_event:"
                " one leaf leaves the fully-planned group (isolated"
                " per-event cost).  poisson_replay: compound churn"
                " schedule, the sweep's realistic workload."
            ),
            "single_event": probes,
            "poisson_replay": replays,
            "sublinear": True,
            "max_quality_gap": max(
                row["quality_gap"] for row in [*probes, *replays]
            ),
        },
        indent=1, sort_keys=True,
    ) + "\n")
