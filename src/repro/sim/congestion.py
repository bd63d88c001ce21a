"""Load-dependent link delays (beyond-paper extension).

The paper's simulator keeps "the link delay and loss properties ...
independent of the number of packets traversing the link" and candidly
notes the consequence: "simulations will favor protocols that generate
more data.  Since SRM ... and RMA ... generate more data than RP, the
simulator is likely to be optimistic about RMA's performance and more
optimistic about SRM's" (section 5.1).

:class:`LinearCongestionModel` removes that favoritism: each link
tracks its in-flight packet count, and a transmission that finds ``k``
packets already occupying the link takes ``delay × (1 + alpha·k)``.
This is a deliberately simple queueing surrogate — enough to charge
flood-happy protocols for their own traffic without modeling full
router queues — and the congestion extension bench measures how much of
SRM's reported latency was the load-independence subsidy.
"""

from __future__ import annotations

import math


class LinearCongestionModel:
    """Per-link linear slowdown with in-flight occupancy.

    Parameters
    ----------
    alpha:
        Slowdown per concurrent in-flight packet: the ``k+1``-th packet
        on a link experiences ``delay × (1 + alpha·k)``.  ``alpha = 0``
        reproduces the paper's load-independent links.
    """

    def __init__(self, alpha: float = 0.1):
        if not 0.0 <= alpha < math.inf:  # negated so NaN fails
            raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
        self._alpha = alpha
        self._in_flight: dict[tuple[int, int], int] = {}
        self._peak: dict[tuple[int, int], int] = {}

    @property
    def alpha(self) -> float:
        return self._alpha

    def begin(self, link_key: tuple[int, int]) -> int:
        """Register a packet entering the link; returns the number of
        packets already in flight on it."""
        count = self._in_flight.get(link_key, 0)
        self._in_flight[link_key] = count + 1
        peak = self._peak.get(link_key, 0)
        if count + 1 > peak:
            self._peak[link_key] = count + 1
        return count

    def end(self, link_key: tuple[int, int]) -> None:
        """Register a packet leaving the link."""
        count = self._in_flight.get(link_key, 0)
        if count <= 0:
            raise ValueError(f"link {link_key} has no in-flight packets")
        if count == 1:
            del self._in_flight[link_key]
        else:
            self._in_flight[link_key] = count - 1

    def effective_delay(self, base_delay: float, concurrent: int) -> float:
        """Delay experienced by a packet finding ``concurrent`` others."""
        return base_delay * (1.0 + self._alpha * concurrent)

    def in_flight(self, link_key: tuple[int, int]) -> int:
        return self._in_flight.get(link_key, 0)

    def peak_occupancy(self) -> int:
        """Highest simultaneous occupancy seen on any link — a cheap
        congestion-pressure statistic for reports."""
        return max(self._peak.values(), default=0)
