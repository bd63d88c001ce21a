"""Fault-free equivalence of the recovery policy.

The hardening contract's policy leg: the *default* recovery policy adds
no behaviour, so a factory built with it reproduces the policy-free
factory exactly.  The schedule legs (``faults=None`` ≡ the null
schedule) live in tests/test_feature_off_equivalence.py.
"""

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario, run_protocol
from repro.protocols.policy import DEFAULT_RECOVERY_POLICY, RecoveryPolicy
from repro.protocols.rp import RPConfig, RPProtocolFactory

CONFIG = ScenarioConfig(
    seed=11, num_routers=30, loss_prob=0.08, num_packets=8,
    lossless_recovery=False,
)


def test_default_policy_matches_policy_free_construction():
    # The default RecoveryPolicy must collapse every hardened code path
    # to the pre-hardening behaviour; a factory built with it must
    # reproduce the factory's zero-config output exactly.
    built = build_scenario(CONFIG)
    plain = run_protocol(built, RPProtocolFactory())
    defaulted = run_protocol(
        built,
        RPProtocolFactory(RPConfig(recovery_policy=DEFAULT_RECOVERY_POLICY)),
    )
    assert plain == defaulted
    assert DEFAULT_RECOVERY_POLICY.backoff_scale(10) == 1.0


def test_hardened_policy_is_distinguishable():
    # Sanity check on the test above: the equality is meaningful because
    # policies *can* change behaviour (hardened != default in general).
    assert RecoveryPolicy.hardened() != DEFAULT_RECOVERY_POLICY
