"""Expected recovery delay of a strategy (eqs. 1–3 of the paper).

A recovery strategy for client ``u`` is an ordered list of peers
``L_u = (v_1, …, v_k)`` followed by the implicit source fallback.  The
request to ``v_j`` is sent only after the requests to ``v_1 … v_{j-1}``
failed; the attempt either succeeds (costing the round-trip time ``d_j``)
or times out (costing ``t0``).  Equation (1) blends the two into the
per-attempt expected cost

    ``d(v_j) = d_j · P(success │ history) + t0 · P(failure │ history)``

and equation (2) chains the attempts:

    ``Delay(L_u) = d(v_1) + P(v̄_1│ū)·d(v_2) + P(v̄_1 v̄_2│ū)·d(v_3)
                 + … + P(v̄_1 … v̄_k│ū)·d(u, S)``.

For a *meaningful* strategy (candidates in strictly decreasing ``DS``
order) the reach probabilities telescope to ``DS_{j-1}/DS_u`` and the
whole thing collapses to the paper's equation (3):

    ``Delay = d(v_1) + (1/DS_u)·[DS_1·d(v_2) + … + DS_{k-1}·d(v_k)
              + DS_k·d(u,S)]``.

:func:`expected_strategy_delay` evaluates eq. (2) for **any** order via
:class:`~repro.core.probability.SingleLossModel`;
:func:`expected_strategy_delay_descending` is the closed-form eq. (3),
kept separate so tests can confirm they agree on meaningful strategies.

The paper discusses three ways to estimate the per-attempt cost
(section 3.1): pure timeout (gross over-estimate), pure routing-table RTT
(under-estimate), and the probability blend of eq. (1) it recommends.
All three are available as :class:`AttemptCostEstimator` strategies and
are compared in the estimation ablation bench.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.probability import SingleLossModel


@dataclass(frozen=True)
class Attempt:
    """One entry of a strategy as the objective sees it.

    Parameters
    ----------
    ds:
        ``DS`` of the peer relative to the client (hops from the source
        to their first common router on the multicast tree).
    rtt:
        Expected round-trip time from the client to the peer (the
        routing-table estimate ``d_j``).
    timeout:
        The timeout ``t0`` guarding this attempt.
    """

    ds: int
    rtt: float
    timeout: float

    def __post_init__(self) -> None:
        if self.ds < 0:
            raise ValueError(f"ds must be >= 0, got {self.ds}")
        if self.rtt < 0:
            raise ValueError(f"rtt must be >= 0, got {self.rtt}")
        if self.timeout < 0:
            raise ValueError(f"timeout must be >= 0, got {self.timeout}")


class AttemptCostEstimator(abc.ABC):
    """Strategy for the per-attempt expected cost ``d(v_j)`` of eq. (1).

    The planner calls :meth:`cost_array`: element-wise :meth:`cost` by
    default, closed-form (bit-equal) in the stock estimators.  A subclass
    redefining only :meth:`cost` gets the element-wise default back.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "cost" in vars(cls) and "cost_array" not in vars(cls):
            cls.cost_array = AttemptCostEstimator.cost_array

    @abc.abstractmethod
    def cost(self, rtt: float, timeout: float, success_prob: float) -> float:
        """Expected cost of one attempt given its conditional success
        probability."""

    def cost_array(self, rtt, timeout, success_prob) -> np.ndarray:
        """:meth:`cost` over arrays."""
        return np.vectorize(self.cost, otypes=[np.float64])(
            rtt, timeout, success_prob
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class BlendEstimator(AttemptCostEstimator):
    """The paper's recommended estimator (eq. 1):
    ``d_j · P(success) + t0 · P(failure)``."""

    def cost(self, rtt: float, timeout: float, success_prob: float) -> float:
        return rtt * success_prob + timeout * (1.0 - success_prob)

    def cost_array(self, rtt, timeout, success_prob):
        return rtt * success_prob + timeout * (1.0 - success_prob)


class RttOnlyEstimator(AttemptCostEstimator):
    """Routing-table round-trip time only — the under-estimate the paper
    warns about ("this method underestimates d(v_j)")."""

    def cost(self, rtt: float, timeout: float, success_prob: float) -> float:
        return rtt

    def cost_array(self, rtt, timeout, success_prob):
        return rtt


class TimeoutOnlyEstimator(AttemptCostEstimator):
    """Timeout only — "usually a gross overestimation of d(v_j)"."""

    def cost(self, rtt: float, timeout: float, success_prob: float) -> float:
        return timeout

    def cost_array(self, rtt, timeout, success_prob):
        return timeout


def expected_strategy_delay(
    ds_u: int,
    attempts: Sequence[Attempt],
    source_rtt: float,
    estimator: AttemptCostEstimator | None = None,
) -> float:
    """Expected delay of a strategy in **any** request order (eq. 2).

    Parameters
    ----------
    ds_u:
        Client's hop distance from the source on the multicast tree.
    attempts:
        The ordered peer attempts (source fallback excluded — it is
        implicit and always last).
    source_rtt:
        Expected round trip to the source, "not necessarily using the
        path on the multicast tree" (section 4).
    estimator:
        Per-attempt cost model; defaults to the paper's blend (eq. 1).
    """
    if source_rtt < 0:
        raise ValueError("source_rtt must be >= 0")
    est = estimator if estimator is not None else BlendEstimator()
    model = SingleLossModel(ds_u)
    reach = 1.0
    total = 0.0
    for attempt in attempts:
        if reach == 0.0:
            break
        success = model.success_prob(attempt.ds)
        total += reach * est.cost(attempt.rtt, attempt.timeout, success)
        reach *= 1.0 - success
        if success < 1.0:
            model.observe_failure(attempt.ds)
        else:
            reach = 0.0
    total += reach * source_rtt
    return total


def expected_strategy_delay_descending(
    ds_u: int,
    attempts: Sequence[Attempt],
    source_rtt: float,
    estimator: AttemptCostEstimator | None = None,
) -> float:
    """Closed-form eq. (3) for a *meaningful* (strictly descending ``DS``)
    strategy.

    ``Delay = Σ_j (DS_{j-1}/DS_u) · d(v_j│DS_{j-1}) + (DS_k/DS_u)·d(u,S)``
    with ``DS_0 = DS_u`` and ``d(v_j│DS_{j-1})`` the eq. (1) cost with
    conditional success probability ``(DS_{j-1} − DS_j)/DS_{j-1}``.

    Raises ``ValueError`` when the chain is not strictly descending or
    exceeds ``DS_u`` — use :func:`expected_strategy_delay` for general
    orders.
    """
    if source_rtt < 0:
        raise ValueError("source_rtt must be >= 0")
    est = estimator if estimator is not None else BlendEstimator()
    prev = ds_u
    total = 0.0
    for attempt in attempts:
        if attempt.ds >= prev:
            raise ValueError(
                f"not a meaningful strategy: DS {attempt.ds} does not strictly"
                f" decrease from {prev}"
            )
        success = (prev - attempt.ds) / prev
        total += (prev / ds_u) * est.cost(attempt.rtt, attempt.timeout, success)
        prev = attempt.ds
    total += (prev / ds_u) * source_rtt
    return total
