"""Property-based churn: every protocol terminates under membership
dynamics.

Hypothesis drives random join/leave schedules over random topologies
through all five protocol runtimes, and the invariants are the
dynamic-membership guarantees:

* every detected loss reaches an explicit terminal state (recovered or
  abandoned) even when the peer it was recovering from left mid-flight;
* no timer survives the drain — a departing agent's teardown cancels
  everything it had armed;
* ``member.tx_drop`` stays zero: no send from a departed member ever
  reaches the membership boundary, which is the structural form of "no
  recovery settles against a departed peer";
* churn composes with crash faults (a member can churn *and* crash)
  without weakening any of the above.

The runner checks the first three after every drain (the
``quiescence.*`` and ``membership.tx_drop`` invariants) and raises
:class:`~repro.obs.health.InvariantError` otherwise, so a run that
returns has passed; the assertions re-state the counts.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario, run_protocol_detailed
from repro.protocols.naive import NaiveConfig, NearestPeerProtocolFactory
from repro.protocols.policy import RecoveryPolicy
from repro.protocols.rma import RMAConfig, RMAProtocolFactory
from repro.protocols.rp import RPConfig, RPProtocolFactory
from repro.protocols.source import SourceConfig, SourceProtocolFactory
from repro.protocols.srm import SRMConfig, SRMProtocolFactory
from repro.sim.faults import random_fault_schedule
from repro.sim.membership import random_membership_schedule
from repro.sim.rng import RngStreams


def _factory(name):
    policy = RecoveryPolicy.hardened()
    return {
        "rp": lambda: RPProtocolFactory(RPConfig(recovery_policy=policy)),
        "srm": lambda: SRMProtocolFactory(SRMConfig(max_request_rounds=4)),
        "rma": lambda: RMAProtocolFactory(RMAConfig(recovery_policy=policy)),
        "source": lambda: SourceProtocolFactory(
            SourceConfig(recovery_policy=policy)
        ),
        "nearest": lambda: NearestPeerProtocolFactory(
            NaiveConfig(recovery_policy=policy)
        ),
    }[name]()


def _horizon(config):
    return (
        config.num_packets * config.data_interval
        + 2.0 * config.session_interval
    )


def _assert_terminated(artifacts, config):
    log = artifacts.log
    assert log.unterminated() == []
    assert log.num_recovered + log.num_abandoned == log.num_detected
    director = artifacts.membership
    assert director is not None
    # Teardown beat every armed send — nothing from a departed member
    # ever reached the membership boundary.
    assert director.counts.get("member.tx_drop", 0) == 0


churn_strategy = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=10_000),
        "num_routers": st.integers(min_value=8, max_value=30),
        "loss_prob": st.sampled_from([0.0, 0.05, 0.12]),
        "intensity": st.sampled_from([0.3, 0.6, 1.0]),
        "protocol": st.sampled_from(["rp", "srm", "rma", "source", "nearest"]),
    }
)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=churn_strategy)
def test_every_detected_loss_terminates_under_churn(params):
    config = ScenarioConfig(
        seed=params["seed"],
        num_routers=params["num_routers"],
        loss_prob=params["loss_prob"],
        num_packets=6,
        max_events=5_000_000,
        lossless_recovery=False,
    )
    built = build_scenario(config)
    candidates = [c for c in built.tree.clients if c != built.tree.root]
    schedule = random_membership_schedule(
        params["intensity"],
        RngStreams(params["seed"]).get("membership-schedule"),
        candidates,
        _horizon(config),
    )
    artifacts = run_protocol_detailed(
        built, _factory(params["protocol"]), membership=schedule
    )
    if schedule.is_null:
        assert artifacts.membership is None
        return
    _assert_terminated(artifacts, config)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=churn_strategy)
def test_churn_composes_with_crash_faults(params):
    # The same invariants must hold when a node can churn *and* crash.
    config = ScenarioConfig(
        seed=params["seed"],
        num_routers=params["num_routers"],
        loss_prob=params["loss_prob"],
        num_packets=6,
        max_events=5_000_000,
        lossless_recovery=False,
    )
    built = build_scenario(config)
    candidates = [c for c in built.tree.clients if c != built.tree.root]
    horizon = _horizon(config)
    streams = RngStreams(params["seed"])
    membership = random_membership_schedule(
        params["intensity"], streams.get("membership-schedule"),
        candidates, horizon,
    )
    faults = random_fault_schedule(
        0.4, streams.get("fault-schedule"), candidates,
        built.topology.links, horizon,
    )
    artifacts = run_protocol_detailed(
        built, _factory(params["protocol"]),
        faults=faults, membership=membership,
    )
    log = artifacts.log
    assert log.unterminated() == []
    assert log.num_recovered + log.num_abandoned == log.num_detected
    if artifacts.membership is not None:
        assert artifacts.membership.counts.get("member.tx_drop", 0) == 0
