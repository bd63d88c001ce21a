"""Scenario configuration.

One :class:`ScenarioConfig` describes everything a run needs: the random
topology (paper section 5.1), the data stream, and the simulation safety
limits.  The same config + seed always reproduces the same network and
loss realization.
"""

from __future__ import annotations

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
