"""Golden regression tests.

A reproduction library must itself be reproducible: these tests pin
exact deterministic outputs of fixed-seed scenarios, so any accidental
behavioural drift (a changed tie-break, a reordered rng draw, an edge
weight tweak) fails loudly instead of silently shifting every number in
EXPERIMENTS.md.

If a change here is *intentional*, update the constants and say so in
the commit: these values are documentation of behaviour, not physics.
"""

import hashlib
import json

import pytest

from repro.core.objective import RttOnlyEstimator
from repro.core.planner import RPPlanner
from repro.core.strategy_graph import StrategyRestrictions
from repro.core.timeouts import FixedTimeout
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import (
    build_scenario,
    run_protocol,
    run_protocol_detailed,
)
from repro.protocols.policy import RecoveryPolicy
from repro.protocols.rma import RMAConfig, RMAProtocolFactory
from repro.protocols.rp import RPConfig, RPProtocolFactory
from repro.protocols.srm import SRMProtocolFactory
from repro.sim.faults import random_fault_schedule
from repro.sim.membership import random_membership_schedule
from repro.sim.rng import RngStreams


@pytest.fixture(scope="module")
def built():
    return build_scenario(
        ScenarioConfig(seed=42, num_routers=40, loss_prob=0.05, num_packets=10)
    )


class TestGoldenNetwork:
    def test_topology_shape(self, built):
        assert built.topology.num_nodes == 41
        assert built.topology.num_links == 52
        assert built.num_clients == 18
        assert built.tree.root == built.topology.source

    def test_client_set(self, built):
        assert built.clients == [
            5, 13, 15, 17, 18, 20, 21, 22, 23, 24, 25, 26, 27, 29, 30, 31,
            35, 39,
        ]

    def test_tree_depths_stable(self, built):
        depths = {c: built.tree.depth(c) for c in built.clients[:5]}
        assert depths == {5: 11, 13: 10, 15: 8, 17: 11, 18: 7}


class TestGoldenPlans:
    def test_first_clients_strategies(self, built):
        planner = RPPlanner(built.tree, built.routing)
        plans = {c: planner.plan(c) for c in built.clients[:4]}
        assert {c: p.peer_nodes for c, p in plans.items()} == {
            5: (24,),
            13: (),
            15: (18,),
            17: (24,),
        }

    def test_expected_delays_stable(self, built):
        planner = RPPlanner(built.tree, built.routing)
        plan = planner.plan(built.clients[0])
        assert plan.expected_delay == pytest.approx(118.1023, abs=1e-3)
        assert plan.source_rtt == pytest.approx(149.3411, abs=1e-3)


def plans_digest(plans) -> str:
    """sha256 over canonical JSON of a ``plan_all`` result, every field
    of every strategy included (floats serialize round-trip exact)."""
    doc = {
        str(client): [
            s.client,
            [[a.node, a.ds, a.rtt] for a in s.attempts],
            list(s.timeouts),
            s.source_rtt,
            s.source_timeout,
            s.expected_delay,
            s.ds_u,
        ]
        for client, s in plans.items()
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class TestGoldenPlanSets:
    """Whole ``plan_all`` results on the golden scenario (exact routing
    backend), one digest per planner configuration."""

    @pytest.mark.parametrize(
        "case,expected",
        [
            ("default",
             "14055f39f93f48ef79f984b185990f9c3489ae7e4a4c8909981155ff041d6035"),
            ("forbid_direct_source",
             "8941b71c6720f56819dc53db11068b7811f8ddd1d501810a5294bb17bcf5fb7f"),
            ("forbidden_peers",
             "de09e6769817a77f5d3cdc510f74377fdb0433e83e4736fe4bbcd1244778c3f3"),
            ("max_list_length_1",
             "14055f39f93f48ef79f984b185990f9c3489ae7e4a4c8909981155ff041d6035"),
            ("rtt_only",
             "faed09623c22be32a770fa9d9e2f1ba2e85622737b63ceec0929cec9a47f75cf"),
            ("fixed_timeout",
             "bffb88f022a5e3559aa3c55085ba7938e4fe7281f94c1a20395d2645cb6fadbf"),
            ("rtt_only_forbid_direct_max_2",
             "31732fb97bc495ae8880b3ff48e2f063a9b0e4b652de95603b2544cb9a2553e4"),
        ],
    )
    def test_plan_all_digest(self, built, case, expected):
        assert built.routing.backend_name == "exact"
        knobs = {
            "default": {},
            "forbid_direct_source": dict(
                restrictions=StrategyRestrictions(forbid_direct_source=True)
            ),
            "forbidden_peers": dict(
                restrictions=StrategyRestrictions(
                    forbidden_peers=frozenset(built.clients[::3])
                )
            ),
            "max_list_length_1": dict(
                restrictions=StrategyRestrictions(max_list_length=1)
            ),
            "rtt_only": dict(estimator=RttOnlyEstimator()),
            "fixed_timeout": dict(timeout_policy=FixedTimeout(40.0)),
            "rtt_only_forbid_direct_max_2": dict(
                estimator=RttOnlyEstimator(),
                restrictions=StrategyRestrictions(
                    forbid_direct_source=True, max_list_length=2
                ),
            ),
        }[case]
        plans = RPPlanner(built.tree, built.routing, **knobs).plan_all()
        assert plans_digest(plans) == expected


class TestGoldenRuns:
    @pytest.mark.parametrize(
        "factory_cls,expected_losses",
        [(RPProtocolFactory, 75), (SRMProtocolFactory, 76),
         (RMAProtocolFactory, 76)],
    )
    def test_losses_pinned(self, built, factory_cls, expected_losses):
        # The shared data-loss stream makes the *physical* losses
        # identical; detected counts differ by at most the few losses an
        # opportunistic repair masked before the client noticed the gap
        # (RP's full-subgroup source repair masks one here).
        summary = run_protocol(built, factory_cls())
        assert summary.losses_detected == expected_losses
        assert summary.fully_recovered

    def test_rp_run_pinned(self, built):
        summary = run_protocol(built, RPProtocolFactory())
        assert summary.recovery_hops == 1436
        assert summary.avg_latency == pytest.approx(186.8700, abs=1e-3)

    def test_rma_run_pinned(self, built):
        summary = run_protocol(built, RMAProtocolFactory())
        assert summary.recovery_hops == 3318
        assert summary.avg_latency == pytest.approx(292.2124, abs=1e-3)

    def test_hardened_rma_under_faults_and_churn_pinned(self, built):
        # Crashes, a link down, burst loss, black-holing and churn at
        # once: the hardened search's backoffs and abandonments shape
        # these numbers (RMA runs no failure detector).
        lanes = RngStreams(42)
        clients = list(built.tree.clients)
        horizon = 10 * built.config.data_interval + 2 * built.config.session_interval
        faults = random_fault_schedule(
            0.5, lanes.get("golden:faults"), clients,
            built.topology.links, horizon,
        )
        churn = random_membership_schedule(
            0.5, lanes.get("golden:churn"), clients, horizon
        )
        artifacts = run_protocol_detailed(
            built,
            RMAProtocolFactory(
                RMAConfig(recovery_policy=RecoveryPolicy.hardened())
            ),
            faults=faults,
            membership=churn,
        )
        summary = artifacts.summary
        assert summary.losses_detected == 76
        assert summary.losses_recovered == 72
        assert artifacts.log.num_abandoned == 4
        assert summary.recovery_hops == 1981
        assert summary.avg_latency == pytest.approx(477.2733, abs=1e-3)
        assert summary.events_processed == 4637

    def test_hardened_rp_under_faults_and_churn_pinned(self, built):
        # Failure-detector re-plans and incremental churn repair at
        # once, on the same lanes as the hardened RMA pin.  The repair
        # history is pinned too: its joins re-plan several clients each,
        # so the batched re-plan of a dirty set is on the pinned path.
        lanes = RngStreams(42)
        clients = list(built.tree.clients)
        horizon = 10 * built.config.data_interval + 2 * built.config.session_interval
        faults = random_fault_schedule(
            0.5, lanes.get("golden:faults"), clients,
            built.topology.links, horizon,
        )
        churn = random_membership_schedule(
            0.5, lanes.get("golden:churn"), clients, horizon
        )
        factory = RPProtocolFactory(
            RPConfig(recovery_policy=RecoveryPolicy.hardened())
        )
        artifacts = run_protocol_detailed(
            built, factory, faults=faults, membership=churn
        )
        summary = artifacts.summary
        assert summary.losses_detected == 87
        assert summary.losses_recovered == 66
        assert artifacts.log.num_abandoned == 21
        assert summary.recovery_hops == 1537
        assert summary.avg_latency == pytest.approx(404.4023, abs=1e-3)
        assert summary.events_processed == 3754
        history = [
            (h["kind"], h["node"], h["replanned"])
            for h in factory.last_repairer.history
        ]
        assert history == [
            ("leave", 25, 0), ("join", 25, 16), ("leave", 31, 0),
            ("leave", 30, 0), ("leave", 15, 1), ("join", 30, 15),
            ("join", 31, 15), ("leave", 30, 1), ("leave", 31, 0),
            ("leave", 25, 1), ("join", 25, 15), ("join", 30, 15),
        ]
        assert max(n for kind, _, n in history if kind == "join") >= 2

    def test_hardened_rp_under_faults_pinned(self, built):
        # The failure detector declares deaths here, and every death
        # re-plans through plan_all with the dead peers restricted out
        # of the strategy graph, re-solving only the clients with a
        # newly dead peer among their candidates.
        lanes = RngStreams(42)
        clients = list(built.tree.clients)
        horizon = 10 * built.config.data_interval + 2 * built.config.session_interval
        faults = random_fault_schedule(
            0.5, lanes.get("golden:faults"), clients,
            built.topology.links, horizon,
        )
        artifacts = run_protocol_detailed(
            built,
            RPProtocolFactory(RPConfig(recovery_policy=RecoveryPolicy.hardened())),
            faults=faults,
        )
        summary = artifacts.summary
        assert summary.losses_detected == 100
        assert summary.losses_recovered == 82
        assert artifacts.log.num_abandoned == 18
        assert summary.recovery_hops == 2280
        assert summary.avg_latency == pytest.approx(1032.2012, abs=1e-3)
        assert summary.events_processed == 4800
