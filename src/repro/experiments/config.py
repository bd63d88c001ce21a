"""Scenario configuration.

One :class:`ScenarioConfig` describes everything a run needs: the random
topology (paper section 5.1), the data stream, and the simulation safety
limits.  The same config + seed always reproduces the same network and
loss realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.net.generators import TopologyConfig
from repro.protocols.base import StreamConfig


@dataclass(frozen=True)
class ScenarioConfig:
    """A complete simulation scenario.

    Parameters
    ----------
    seed:
        Master seed; topology, tree growth, link loss and protocol
        timers derive independent streams from it.
    num_routers:
        Backbone size ``n`` — the paper's x-axis in Figures 5–6.
    loss_prob:
        Per-link loss probability ``p`` — the x-axis in Figures 7–8.
    num_packets / data_interval / session_interval:
        The data stream (see :class:`~repro.protocols.base.StreamConfig`).
    extra_link_fraction / typical_delay_range:
        Topology generation knobs (see
        :class:`~repro.net.generators.TopologyConfig`).
    max_events:
        Hard event budget; exceeding it raises, catching runaway
        protocol loops instead of hanging.
    drain_time:
        After the session completes, the simulator keeps running this
        much longer so in-flight repairs and already-armed repair timers
        (SRM) still pay their bandwidth.  It must outlast them: a packet
        or protocol timer still pending at the cutoff breaks the
        runner's ``quiescence.timers`` invariant.
    lossless_recovery:
        When True, requests/NACKs/repairs never face link loss — the
        paper simulator's behaviour (its section 3.1 assumption carried
        into evaluation; Figure 7's flat curves require it).  The
        default False subjects recovery traffic to the same loss as
        data, the more realistic mode.
    jitter:
        Per-transmission delay jitter fraction in [0, 1): the actual
        delay of each traversal is uniform in ``[d(1-j), d(1+j)]``.
        The paper fixes expected delays (0.0, the default); positive
        jitter adds reordering realism.
    congestion_alpha:
        Load-dependent delay slope: a packet finding ``k`` others in
        flight on a link takes ``delay × (1 + alpha·k)``.  0.0 (the
        default) is the paper's load-independent model, which it notes
        "will favor protocols that generate more data".
    """

    seed: int
    num_routers: int
    loss_prob: float
    num_packets: int = 30
    data_interval: float = 10.0
    session_interval: float = 100.0
    extra_link_fraction: float = 0.3
    typical_delay_range: tuple[float, float] = (1.0, 10.0)
    max_events: int = 50_000_000
    drain_time: float = 500.0
    lossless_recovery: bool = False
    jitter: float = 0.0
    congestion_alpha: float = 0.0

    def __post_init__(self) -> None:
        # numpy rejects a negative seed only inside build_scenario; a
        # budget below 1 fails at t=0, and a NaN one disables the guard.
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.max_events < math.inf:
            raise ValueError(
                f"max_events must be finite and >= 1, got {self.max_events}"
            )
        # The runner builds a congestion model only for alpha > 0, so a
        # negative or NaN slope would otherwise run as the paper model.
        if not 0.0 <= self.congestion_alpha < math.inf:
            raise ValueError(
                f"congestion_alpha must be finite and >= 0, "
                f"got {self.congestion_alpha}"
            )
        # The runner drains with run(until=now + drain_time), which
        # rejects a past or NaN cutoff mid-session.
        if not 0.0 <= self.drain_time < math.inf:
            raise ValueError(
                f"drain_time must be finite and >= 0, got {self.drain_time}"
            )
        # The topology knobs and the stream's packet count and
        # intervals, likewise at construction rather than inside
        # build_scenario or at the first DATA or SESSION send.
        self.topology_config()
        self.stream_config()

    def topology_config(self) -> TopologyConfig:
        return TopologyConfig(
            num_routers=self.num_routers,
            extra_link_fraction=self.extra_link_fraction,
            typical_delay_range=self.typical_delay_range,
            loss_prob=self.loss_prob,
        )

    def stream_config(self) -> StreamConfig:
        return StreamConfig(
            num_packets=self.num_packets,
            data_interval=self.data_interval,
            session_interval=self.session_interval,
        )
