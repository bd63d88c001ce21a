"""RP planner — the public façade of the paper's contribution.

Given a multicast tree, a routing table and a timeout policy,
:class:`RPPlanner` computes the low-latency prioritized recovery list
(the paper's "RP — Recovery strategy based on Prioritized list") for any
client: the section-3/4 pipeline of

1. candidate clients (one min-RTT peer per competitive class,
   decreasing ``DS``);
2. the strategy graph (Definition 1) with the configured attempt-cost
   estimator and restrictions;
3. Algorithm 1 (or its length-bounded variant).

:meth:`RPPlanner.plan`, :meth:`RPPlanner.plan_clients` and
:meth:`RPPlanner.plan_all` run it as array passes
(:mod:`repro.core.planner_batch`); :meth:`RPPlanner.strategy_graph_for`
and :mod:`repro.core.algorithm` are the per-client reference.

The result, a :class:`RecoveryStrategy`, is what the RP protocol runtime
(:mod:`repro.protocols.rp`) executes at simulation time and what the
analytic benches evaluate.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core import planner_batch
from repro.core.candidates import Candidate, candidate_clients
from repro.core.objective import AttemptCostEstimator, BlendEstimator
from repro.core.strategy_graph import StrategyGraph, StrategyRestrictions
from repro.core.timeouts import ProportionalTimeout, TimeoutPolicy
from repro.net.mcast_tree import MulticastTree
from repro.net.routing import RoutingTable


@dataclass(frozen=True)
class RecoveryStrategy:
    """A computed prioritized recovery list for one client.

    Parameters
    ----------
    client:
        The client the strategy belongs to.
    attempts:
        Candidates in request order (each carries ``node``, ``ds`` and
        ``rtt``); the source fallback is implicit after the last entry.
        A read-only sequence: the planner's lists are tuples, while a
        list may also build its entries on access (RMA's
        :class:`~repro.protocols.rma.UpstreamList`).
    timeouts:
        Attempt timeout per entry of ``attempts``.
    source_rtt:
        Expected round trip to the source (used by the fallback).
    source_timeout:
        Timeout guarding a request to the source (for lost requests).
    expected_delay:
        The optimal objective value (eq. 3) Algorithm 1 found.
    ds_u:
        Client's hop distance from the source on the tree.
    """

    client: int
    attempts: Sequence[Candidate]
    timeouts: tuple[float, ...]
    source_rtt: float
    source_timeout: float
    expected_delay: float
    ds_u: int

    @property
    def peer_nodes(self) -> tuple[int, ...]:
        return tuple(c.node for c in self.attempts)

    def __len__(self) -> int:
        return len(self.attempts)


class RPPlanner:
    """Computes RP recovery strategies for the clients of one session.

    Parameters
    ----------
    tree:
        The multicast tree ``T``.
    routing:
        Unicast routing (RTT estimates and paths) over the full graph.
    timeout_policy:
        Attempt timeout as a function of peer RTT; defaults to
        ``1.5 × rtt + 1``.
    estimator:
        Per-attempt cost model for eq. (1); defaults to the paper's
        blend of RTT and timeout.
    restrictions:
        Optional strategy-graph restrictions (section 4).
    """

    def __init__(
        self,
        tree: MulticastTree,
        routing: RoutingTable,
        timeout_policy: TimeoutPolicy | None = None,
        estimator: AttemptCostEstimator | None = None,
        restrictions: StrategyRestrictions | None = None,
    ):
        if routing.topology is not tree.topology:
            raise ValueError("tree and routing table must share one topology")
        self._tree = tree
        self._routing = routing
        self._timeout_policy = timeout_policy or ProportionalTimeout()
        self._estimator = estimator if estimator is not None else BlendEstimator()
        self._restrictions = restrictions or StrategyRestrictions()

    @property
    def tree(self) -> MulticastTree:
        return self._tree

    @property
    def routing(self) -> RoutingTable:
        return self._routing

    @property
    def timeout_policy(self) -> TimeoutPolicy:
        return self._timeout_policy

    @property
    def estimator(self) -> AttemptCostEstimator:
        return self._estimator

    @property
    def restrictions(self) -> StrategyRestrictions:
        return self._restrictions

    def candidates_for(self, client: int) -> list[Candidate]:
        """Candidate clients for ``client`` in decreasing-``DS`` order."""
        return candidate_clients(self._tree, self._routing, client)

    def strategy_graph_for(self, client: int) -> StrategyGraph:
        """Build the Definition-1 strategy graph for ``client``."""
        candidates = self.candidates_for(client)
        timeouts = [self._timeout_policy.timeout(c.rtt) for c in candidates]
        return StrategyGraph(
            ds_u=self._tree.depth(client),
            candidates=candidates,
            source_rtt=self._routing.rtt(client, self._tree.root),
            timeouts=timeouts,
            estimator=self._estimator,
            restrictions=self._restrictions,
        )

    def plan(self, client: int) -> RecoveryStrategy:
        """Compute the optimal prioritized list for one client."""
        return self.plan_clients([client])[client]

    def plan_clients(self, clients: list[int]) -> dict[int, RecoveryStrategy]:
        """Strategies for the given tree members in one array pass, keyed
        in the given order."""
        return planner_batch.plan_clients(self, clients)

    def plan_all(
        self, family: planner_batch.PlanFamily | None = None
    ) -> dict[int, RecoveryStrategy]:
        """Strategies for every client of the tree, keyed by client id in
        ``tree.clients`` order.

        ``family``, when given, holds the latest plan of a problem that
        differs from this one at most in ``restrictions.forbidden_peers``
        (the plan cache holds one); only the clients whose
        candidates that difference touches are solved again, and
        ``family`` is updated to this plan.
        """
        return planner_batch.plan_all(self, family)
