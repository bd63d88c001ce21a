"""Naive prioritized-list strategies — the conclusion's strawmen.

The paper's closing argument: "The recovery strategies proposed in
literature either choose a locally random recovery strategy or prefer
clients in the net neighborhood for recovery purpose.  Random recovery
strategies may increase the cost of recovery by choosing far-away
clients or highly correlated clients.  As the loss in a multicast tree
is correlated ... choosing a nearby client for recovery purpose will
increase the probability of failed recovery attempts."

Both strawmen run on the *same* runtime as RP (unicast request chain
with timeouts, source subgroup fallback) — only the list construction
differs — so the comparison isolates exactly the paper's claim: the
*choice* of the prioritized list is what matters.

* :class:`RandomListProtocolFactory` — ``k`` peers sampled uniformly,
  random order.
* :class:`NearestPeerProtocolFactory` — the ``k`` lowest-RTT peers,
  nearest first (the "net neighborhood" preference).

Source-based recovery (:mod:`repro.protocols.source`) is one more list
builder on this base: the empty list, with unicast source repairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.candidates import Candidate
from repro.core.planner import RecoveryStrategy
from repro.core.timeouts import ProportionalTimeout, TimeoutPolicy
from repro.metrics.collectors import RecoveryLog
from repro.obs.instrumentation import Instrumentation
from repro.protocols.base import CompletionTracker, ProtocolFactory, SourceAgentBase
from repro.protocols.policy import (
    DEFAULT_RECOVERY_POLICY,
    PeerFailureDetector,
    RecoveryPolicy,
)
from repro.protocols.rp import RPClientAgent, RPSourceAgent
from repro.sim.network import SimNetwork
from repro.sim.rng import RngStreams


@dataclass(frozen=True)
class NaiveConfig:
    """Knobs shared by the naive strategies.

    ``list_length`` peers per client (fewer if not enough peers exist);
    ``timeout_policy`` guards each attempt; ``source_multicast`` matches
    the RP fallback so only the list construction differs.
    ``recovery_policy`` hardens the shared runtime exactly as for RP
    (minus re-planning — naive lists are not planner products).
    """

    list_length: int = 3
    timeout_policy: TimeoutPolicy | None = None
    source_multicast: bool = True
    recovery_policy: RecoveryPolicy = DEFAULT_RECOVERY_POLICY

    def __post_init__(self) -> None:
        if self.list_length < 0:
            raise ValueError("list_length must be >= 0")


def _strategy_from_peers(
    network: SimNetwork,
    client: int,
    peers: list[int],
    policy: TimeoutPolicy,
) -> RecoveryStrategy:
    """Package an arbitrary peer list as a RecoveryStrategy.

    The recorded ``expected_delay`` is the general-order objective
    (eq. 2), so naive lists can be compared analytically too.
    """
    from repro.core.objective import Attempt, expected_strategy_delay

    tree = network.tree
    routing = network.routing
    attempts = tuple(
        Candidate(node=p, ds=tree.ds(client, p), rtt=routing.rtt(client, p))
        for p in peers
    )
    timeouts = tuple(policy.timeout(c.rtt) for c in attempts)
    source_rtt = routing.rtt(client, tree.root)
    expected = expected_strategy_delay(
        tree.depth(client),
        [Attempt(ds=c.ds, rtt=c.rtt, timeout=t) for c, t in zip(attempts, timeouts)],
        source_rtt,
    )
    return RecoveryStrategy(
        client=client,
        attempts=attempts,
        timeouts=timeouts,
        source_rtt=source_rtt,
        source_timeout=policy.timeout(source_rtt),
        expected_delay=expected,
        ds_u=tree.depth(client),
    )


class _NaiveFactoryBase(ProtocolFactory):
    """Shared install logic; subclasses pick the peer list."""

    def __init__(self, config: NaiveConfig | None = None):
        self.config = config or NaiveConfig()

    def _peers_for(
        self, network: SimNetwork, client: int, rng: np.random.Generator
    ) -> list[int]:  # pragma: no cover - abstract-ish
        raise NotImplementedError

    def install(
        self,
        network: SimNetwork,
        log: RecoveryLog,
        tracker: CompletionTracker,
        streams: RngStreams,
        num_packets: int,
        instrumentation: Instrumentation | None = None,
    ) -> SourceAgentBase:
        policy = self.config.timeout_policy or ProportionalTimeout()
        recovery_policy = self.config.recovery_policy
        threshold = recovery_policy.failure_threshold
        detector = PeerFailureDetector(threshold) if threshold > 0 else None
        rng = streams.get(f"naive:{self.name}")
        for client in network.tree.clients:
            peers = self._peers_for(network, client, rng)
            strategy = _strategy_from_peers(network, client, peers, policy)
            agent = RPClientAgent(
                client, network, log, tracker, num_packets, strategy,
                instrumentation=instrumentation,
                protocol=self.name.lower(),
                policy=recovery_policy,
                detector=detector,
            )
            network.attach_agent(client, agent)
        source = RPSourceAgent(
            network.tree.root, network, self.config.source_multicast
        )
        network.attach_agent(source.node, source)
        return source


class RandomListProtocolFactory(_NaiveFactoryBase):
    """``k`` uniformly random peers in random order."""

    name = "RANDOM"

    def _peers_for(
        self, network: SimNetwork, client: int, rng: np.random.Generator
    ) -> list[int]:
        others = [c for c in network.tree.clients if c != client]
        k = min(self.config.list_length, len(others))
        if k == 0:
            return []
        picks = rng.choice(len(others), size=k, replace=False)
        return [others[int(i)] for i in picks]


class NearestPeerProtocolFactory(_NaiveFactoryBase):
    """The ``k`` lowest-RTT peers, nearest first (net-neighborhood bias)."""

    name = "NEAREST"

    def _peers_for(
        self, network: SimNetwork, client: int, rng: np.random.Generator
    ) -> list[int]:
        others = [c for c in network.tree.clients if c != client]
        others.sort(key=lambda p: (network.routing.rtt(client, p), p))
        return others[: self.config.list_length]
