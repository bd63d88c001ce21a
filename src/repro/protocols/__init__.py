"""Recovery protocol runtimes.

The protocols the simulator runs:

* :mod:`repro.protocols.rp` — the paper's contribution: each client
  executes its planner-computed prioritized list with unicast requests
  and timeouts, falling back to a source subgroup multicast;
* :mod:`repro.protocols.srm` — Scalable Reliable Multicast (Floyd et
  al.): multicast NACKs/repairs with request- and repair-suppression
  timers and exponential backoff;
* :mod:`repro.protocols.rma` — Reliable Multicast Architecture (Levine
  & Garcia-Luna-Aceves): one-by-one search of the nearest upstream
  receivers — the list of every upstream receiver by descending ``DS``,
  cut short by a source deadline, on RP's list runtime — with repairs
  multicast to the subtree covering all requesters;
* :mod:`repro.protocols.source` — plain source-based recovery (extra
  reference point; the paper's section-1 first category), run as the
  empty prioritized list on RP's list runtime;
* :mod:`repro.protocols.naive` — the conclusion's strawmen (random and
  nearest-peer lists), also on RP's list runtime.

All share :mod:`repro.protocols.base`: gap-based loss detection, the
completion tracker, and the data/session stream driver — so latency and
bandwidth comparisons between protocols are apples-to-apples.
"""

from repro.protocols.base import (
    ClientAgent,
    CompletionTracker,
    ProtocolFactory,
    SourceAgentBase,
    StreamConfig,
    StreamDriver,
)
from repro.protocols.rp import RPConfig, RPProtocolFactory
from repro.protocols.srm import SRMConfig, SRMProtocolFactory
from repro.protocols.rma import RMAConfig, RMAProtocolFactory
from repro.protocols.source import SourceConfig, SourceProtocolFactory
from repro.protocols.naive import (
    NaiveConfig,
    NearestPeerProtocolFactory,
    RandomListProtocolFactory,
)

__all__ = [
    "ClientAgent",
    "CompletionTracker",
    "ProtocolFactory",
    "SourceAgentBase",
    "StreamConfig",
    "StreamDriver",
    "RPConfig",
    "RPProtocolFactory",
    "SRMConfig",
    "SRMProtocolFactory",
    "RMAConfig",
    "RMAProtocolFactory",
    "SourceConfig",
    "SourceProtocolFactory",
    "NaiveConfig",
    "NearestPeerProtocolFactory",
    "RandomListProtocolFactory",
]
