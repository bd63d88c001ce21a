"""Property-based failure injection: every protocol achieves full
reliability on arbitrary random scenarios.

Hypothesis drives the scenario space — topology seed, backbone size,
per-link loss up to 25%, lossy vs lossless recovery traffic — and the
invariant is the problem statement itself (section 2): "such
applications need full reliability."  Any liveness bug (a dropped
timer, a suppressed retry, an unreachable fallback) surfaces here as an
unrecovered loss or an exhausted event budget.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario, run_protocol
from repro.protocols.naive import NearestPeerProtocolFactory, RandomListProtocolFactory
from repro.protocols.rma import RMAProtocolFactory
from repro.protocols.rp import RPProtocolFactory
from repro.protocols.source import SourceProtocolFactory
from repro.protocols.srm import SRMProtocolFactory

FACTORIES = {
    "rp": RPProtocolFactory,
    "srm": SRMProtocolFactory,
    "rma": RMAProtocolFactory,
    "source": SourceProtocolFactory,
    "random": RandomListProtocolFactory,
    "nearest": NearestPeerProtocolFactory,
}

scenario_strategy = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=10_000),
        "num_routers": st.integers(min_value=5, max_value=35),
        "loss_prob": st.sampled_from([0.0, 0.02, 0.08, 0.15, 0.25]),
        "lossless_recovery": st.booleans(),
        "jitter": st.sampled_from([0.0, 0.3]),
        "protocol": st.sampled_from(sorted(FACTORIES)),
    }
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=scenario_strategy)
# Jitter reorders a DATA packet behind its own repair: one detection,
# one recovery on a lossless tree.
@example(params={
    "seed": 5320, "num_routers": 15, "loss_prob": 0.0,
    "lossless_recovery": False, "jitter": 0.3, "protocol": "nearest",
})
@example(params={
    "seed": 5320, "num_routers": 15, "loss_prob": 0.0,
    "lossless_recovery": True, "jitter": 0.3, "protocol": "nearest",
})
def test_every_protocol_fully_recovers_any_scenario(params):
    config = ScenarioConfig(
        seed=params["seed"],
        num_routers=params["num_routers"],
        loss_prob=params["loss_prob"],
        num_packets=6,
        max_events=3_000_000,
        lossless_recovery=params["lossless_recovery"],
        jitter=params["jitter"],
    )
    built = build_scenario(config)
    summary = run_protocol(built, FACTORIES[params["protocol"]]())
    # The core invariant: everything lost was recovered.
    assert summary.fully_recovered
    # Accounting invariants.
    assert summary.losses_recovered <= summary.num_clients * config.num_packets
    if params["loss_prob"] == 0.0:
        if params["jitter"] == 0.0:
            # No losses to detect.
            assert summary.losses_detected == 0
            assert summary.recovery_hops == 0
        else:
            # Jitter can reorder the stream.  A gap whose late packet
            # lands first is retracted and not counted; one whose repair
            # lands first was a real detection (the receiver acted on
            # it and spent bandwidth), so it counts as detected and
            # recovered.
            assert summary.losses_detected == summary.losses_recovered
    if summary.losses_recovered:
        assert summary.avg_latency > 0.0
        assert summary.p50_latency <= summary.p95_latency
