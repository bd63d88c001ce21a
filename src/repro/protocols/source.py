"""Source-based recovery baseline.

The paper's first taxonomy category (section 1): "the source exclusively
retransmits all the lost packets to the requesting receivers.  This
mechanism guarantees that one recovery attempt is enough for each
request" — at the cost of concentrating all recovery load and latency at
the source.  Not part of the paper's figure comparison (its simulations
compare RP/SRM/RMA), but a useful reference point the examples and
extension benches use.

In the Definition-1 strategy graph source-based recovery is the direct
``u -> S`` edge: the *empty* prioritized list, whose expected delay is
``d(S)`` (eq. 3 with ``k = 0``).  So it runs on RP's runtime exactly
like the naive strawmen (:mod:`repro.protocols.naive`), with an empty
list and a source that unicasts the repair to the requester only.
Source-only recovery with subgroup repair is RP with
``StrategyRestrictions(max_list_length=0)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.timeouts import TimeoutPolicy
from repro.protocols.naive import NaiveConfig, _NaiveFactoryBase
from repro.protocols.policy import DEFAULT_RECOVERY_POLICY, RecoveryPolicy
from repro.sim.network import SimNetwork


@dataclass(frozen=True)
class SourceConfig:
    timeout_policy: TimeoutPolicy | None = None
    recovery_policy: RecoveryPolicy = DEFAULT_RECOVERY_POLICY


class SourceProtocolFactory(_NaiveFactoryBase):
    """Every client requests the source directly (the empty list)."""

    name = "SOURCE"

    def __init__(self, config: SourceConfig | None = None):
        config = config or SourceConfig()
        super().__init__(
            NaiveConfig(
                list_length=0,
                timeout_policy=config.timeout_policy,
                source_multicast=False,
                recovery_policy=config.recovery_policy,
            )
        )

    def _peers_for(
        self, network: SimNetwork, client: int, rng: np.random.Generator
    ) -> list[int]:
        return []
