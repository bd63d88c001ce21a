"""The paper's primary contribution: the RP recovery-strategy planner.

Pipeline (sections 3–4 of the paper):

1. :mod:`repro.core.probability` — conditional loss probabilities for a
   reliable network (Lemmas 1–3) and the general single-loss model they
   are instances of.
2. :mod:`repro.core.objective` — per-attempt expected cost (eq. 1) and
   expected strategy delay (eq. 2 / eq. 3).
3. :mod:`repro.core.candidates` — competitive equivalence classes and
   candidate-client selection (Lemma 4) plus the descending-``DS``
   "meaningful strategy" ordering (Lemma 5).
4. :mod:`repro.core.strategy_graph` — the weighted DAG whose ``u → S``
   paths are exactly the meaningful recovery strategies (Definition 1),
   including edge-deletion restrictions.
5. :mod:`repro.core.algorithm` — Algorithm 1: single-pass DAG shortest
   path in ``O(N²)``.
6. :mod:`repro.core.planner` — :class:`~repro.core.planner.RPPlanner`,
   the public façade computing a prioritized list per client, through
   the array passes of :mod:`repro.core.planner_batch`.
7. :mod:`repro.core.bruteforce` — exhaustive strategy enumeration, used
   as a correctness oracle in tests.
8. :mod:`repro.core.exact_model` — beyond-paper extension: exact
   conditional probabilities for finite per-link loss ``p`` (the paper
   assumes ``p² ≈ 0``); quantifies how suboptimal the reliable-network
   plan becomes as ``p`` grows.
"""

from repro.core.probability import SingleLossModel, lemma1, lemma2, lemma3
from repro.core.objective import (
    AttemptCostEstimator,
    BlendEstimator,
    RttOnlyEstimator,
    TimeoutOnlyEstimator,
    expected_strategy_delay,
)
from repro.core.candidates import Candidate, candidate_clients, competitive_classes
from repro.core.strategy_graph import StrategyGraph, StrategyRestrictions
from repro.core.algorithm import searching_minimal_delay
from repro.core.planner import RecoveryStrategy, RPPlanner
from repro.core.bruteforce import brute_force_best_strategy
from repro.core.exact_model import ExactLossModel, ExactPeer
from repro.core.montecarlo import TreeLossSampler

__all__ = [
    "SingleLossModel",
    "lemma1",
    "lemma2",
    "lemma3",
    "AttemptCostEstimator",
    "BlendEstimator",
    "RttOnlyEstimator",
    "TimeoutOnlyEstimator",
    "expected_strategy_delay",
    "Candidate",
    "candidate_clients",
    "competitive_classes",
    "StrategyGraph",
    "StrategyRestrictions",
    "searching_minimal_delay",
    "RecoveryStrategy",
    "RPPlanner",
    "brute_force_best_strategy",
    "ExactLossModel",
    "ExactPeer",
    "TreeLossSampler",
]
