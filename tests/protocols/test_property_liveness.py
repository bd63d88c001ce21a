"""Property-based chaos: hardened protocols always terminate.

Hypothesis drives both the scenario space and the fault space — random
crash windows, burst loss, link downs and recovery black-holing on
random topologies — and the invariant is the hardened-recovery
guarantee: after the run drains, **every** detected loss has reached an
explicit terminal state (recovered or abandoned), no timer is left
armed, and the completion tracker settled every slot.  The runner
checks all of these after every drain and raises
:class:`~repro.obs.health.InvariantError` otherwise, so a run that
returns has passed; the assertions re-state the accounting on the log.
A violation is exactly the class of bug the fault subsystem exists to
flush out: a retry loop that forgets a seq, a timeout that never fires,
an abandonment that leaks its timer.
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


chaos_strategy = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=10_000),
        "num_routers": st.integers(min_value=8, max_value=30),
        "loss_prob": st.sampled_from([0.0, 0.05, 0.12]),
        "intensity": st.sampled_from([0.15, 0.4, 0.7, 1.0]),
        "protocol": st.sampled_from(["rp", "srm", "rma", "source", "nearest"]),
    }
)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=chaos_strategy)
def test_every_detected_loss_terminates_under_faults(params):
    config = ScenarioConfig(
        seed=params["seed"],
        num_routers=params["num_routers"],
        loss_prob=params["loss_prob"],
        num_packets=6,
        max_events=5_000_000,
        lossless_recovery=False,
    )
    built = build_scenario(config)
    horizon = (
        config.num_packets * config.data_interval
        + 2.0 * config.session_interval
    )
    crash_candidates = [
        c for c in built.tree.clients if c != built.tree.root
    ]
    schedule = random_fault_schedule(
        params["intensity"],
        RngStreams(params["seed"]).get("fault-schedule"),
        crash_candidates,
        built.topology.links,
        horizon,
    )
    log = run_protocol_detailed(
        built, _factory(params["protocol"]), faults=schedule
    ).log
    assert log.unterminated() == []
    # Every abandonment was explicit and accounted.
    assert log.num_recovered + log.num_abandoned == log.num_detected
