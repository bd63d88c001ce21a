"""Timeout policies for recovery attempts.

The objective function (eq. 1) charges ``t0`` for a failed attempt —
"let the timeout be t0; this much delay will incur if the recovery
effort fails" (section 3.1).  The paper leaves how ``t0`` is set open;
any real implementation must pick a timeout at least as large as the
round-trip time to the peer or every attempt spuriously expires.

Two policies are provided and shared between the planner (which uses
them inside edge weights) and the protocol runtimes (which arm real
timers with them), so the model and the simulated behaviour agree:

* :class:`FixedTimeout` — one constant ``t0`` for every attempt, the
  paper's notation taken literally;
* :class:`ProportionalTimeout` — ``factor · rtt + slack`` per peer, the
  standard RTT-proportional retransmission timeout.
"""

from __future__ import annotations

import abc
import math

import numpy as np


class TimeoutPolicy(abc.ABC):
    """Maps a peer's expected round-trip time to a request timeout.

    The planner calls :meth:`timeout_array`: element-wise :meth:`timeout`
    by default, closed-form (bit-equal) in the stock policies.  A
    subclass redefining only :meth:`timeout` gets the element-wise
    default back.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "timeout" in vars(cls) and "timeout_array" not in vars(cls):
            cls.timeout_array = TimeoutPolicy.timeout_array

    @abc.abstractmethod
    def timeout(self, rtt: float) -> float:
        """Timeout guarding an attempt whose expected RTT is ``rtt``."""

    def timeout_array(self, rtt: "np.ndarray") -> "np.ndarray":
        """:meth:`timeout` over an RTT array."""
        return np.array([self.timeout(float(r)) for r in rtt], dtype=np.float64)


class FixedTimeout(TimeoutPolicy):
    """A single constant ``t0`` regardless of the peer."""

    def __init__(self, t0: float):
        # Negated so NaN fails; an infinite t0 arms timers that never fire.
        if not 0.0 < t0 < math.inf:
            raise ValueError(f"t0 must be finite and positive, got {t0}")
        self._t0 = t0

    @property
    def t0(self) -> float:
        return self._t0

    def timeout(self, rtt: float) -> float:
        return self._t0

    def timeout_array(self, rtt: "np.ndarray") -> "np.ndarray":
        return np.full(len(rtt), self._t0, dtype=np.float64)

    def __repr__(self) -> str:
        return f"FixedTimeout({self._t0!r})"


class ProportionalTimeout(TimeoutPolicy):
    """``max(floor, factor · rtt + slack)`` — scales with the peer's
    distance.

    ``factor`` must be at least 1 so a successful reply always beats the
    timer; the default 1.5× plus a small slack absorbs the simulator's
    processing granularity.  ``floor`` guards the degenerate corner:
    with ``slack=0`` a zero-RTT peer (a co-located agent, or a topology
    with zero-delay links) would otherwise get a 0-length timeout, which
    schedules the expiry *simultaneously* with the request — every such
    attempt spuriously times out, and with retry-forever semantics the
    same-timestamp timer/send pair can ratchet the event queue without
    advancing simulated time.
    """

    def __init__(self, factor: float = 1.5, slack: float = 1.0, floor: float = 1e-3):
        # Negated so NaN fails; an infinite knob arms timers at +inf
        # that never fire.  Likewise below.
        if not 1.0 <= factor < math.inf:
            raise ValueError(f"factor must be finite and >= 1, got {factor}")
        if not 0.0 <= slack < math.inf:
            raise ValueError(f"slack must be finite and >= 0, got {slack}")
        if not 0.0 < floor < math.inf:
            raise ValueError(f"floor must be finite and positive, got {floor}")
        self._factor = factor
        self._slack = slack
        self._floor = floor

    @property
    def factor(self) -> float:
        return self._factor

    @property
    def slack(self) -> float:
        return self._slack

    @property
    def floor(self) -> float:
        return self._floor

    def timeout(self, rtt: float) -> float:
        return max(self._floor, self._factor * rtt + self._slack)

    def timeout_array(self, rtt: "np.ndarray") -> "np.ndarray":
        return np.maximum(self._floor, self._factor * rtt + self._slack)

    def __repr__(self) -> str:
        return (
            f"ProportionalTimeout(factor={self._factor!r}, "
            f"slack={self._slack!r}, floor={self._floor!r})"
        )
