"""Packet records.

Packets are small immutable records.  Every concrete transmission
(unicast leg, multicast copy, flood copy) accounts its own hops into the
owning :class:`~repro.metrics.collectors.BandwidthLedger` via the network
layer, so the packet itself carries only protocol-level identity:

``kind``
    What the packet is for — original data, a recovery request, an
    SRM-style multicast NACK, a repair, or a session/flush message.
``seq``
    The data sequence number it concerns (-1 for session messages that
    carry only ``highest_seq``).
``origin``
    The node that created it (requester for requests/NACKs, repairer
    for repairs, source for data).
``highest_seq``
    On SESSION messages: the highest sequence number the source has
    sent, letting receivers detect tail losses.
``req_id``
    Correlates a REQUEST with the REPAIR it triggered so protocol
    runtimes can tell "my attempt succeeded" from "someone else's
    repair happened to cover me" — both are recoveries, but the RP/RMA
    search state machines advance differently.
``trace_id`` / ``span_id``
    Causal-tracing context (see :mod:`repro.obs.spans`): which recovery
    trace and which attempt span this packet belongs to, stamped by the
    protocol runtimes when a tracer is installed.  REPAIRs and NACKs
    copy them from the REQUEST they answer (:meth:`Packet.reply`), so
    the network layer can attribute every link traversal to the attempt
    that caused it.  -1 (the default, and the only value in untraced
    runs) means untraced.

The record is frozen with value equality, and the array dissemination
fast path (:mod:`repro.sim.dissem`) leans on that: it validates each
stream-driver send against the expected ``Packet(...)`` literal before
replaying a precomputed plan, so any field a future change adds here
automatically participates in that guard.  One packet instance fans out
to every receiver of a multicast — dissemination never copies it — which
is what makes scheduling 100k deliveries of one packet cheap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class PacketKind(enum.Enum):
    DATA = "data"
    REQUEST = "request"
    NACK = "nack"
    REPAIR = "repair"
    SESSION = "session"

    # Members are singletons, so identity hashing is exact; Enum's own
    # ``__hash__`` hashes the member name in Python on every dict or
    # set lookup, which the per-hop ledger and exemption tests pay.
    __hash__ = object.__hash__


#: Kinds whose hops count as recovery bandwidth (everything except the
#: original data stream and session chatter).
RECOVERY_KINDS = frozenset(
    (PacketKind.REQUEST, PacketKind.NACK, PacketKind.REPAIR)
)


@dataclass(frozen=True, slots=True)
class Packet:
    kind: PacketKind
    seq: int
    origin: int
    highest_seq: int = -1
    req_id: int = -1
    trace_id: int = -1
    span_id: int = -1

    def __post_init__(self) -> None:
        if self.kind is not PacketKind.SESSION and self.seq < 0:
            raise ValueError(f"{self.kind.value} packet needs a sequence number")

    def reply(self, kind: PacketKind, origin: int) -> "Packet":
        """The REPAIR or NACK ``origin`` sends to answer this REQUEST.

        It keeps the request's ``seq``, its ``req_id`` and its trace
        context, so the reply's link traversals are children of the
        attempt that asked."""
        return Packet(
            kind, self.seq, origin=origin, req_id=self.req_id,
            trace_id=self.trace_id, span_id=self.span_id,
        )

    @property
    def is_recovery_traffic(self) -> bool:
        """True for packets whose hops count as recovery bandwidth
        (everything except the original data stream and session chatter)."""
        return self.kind in RECOVERY_KINDS
