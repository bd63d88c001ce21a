"""Low-level measurement collectors.

:class:`BandwidthLedger` lives at the network layer: every link
traversal *attempt* is charged (a packet transmitted onto a link
consumed its bandwidth whether or not the loss process delivered it),
bucketed by packet kind.  Recovery bandwidth — the paper's metric — is
the REQUEST + NACK + REPAIR total.  A fast-path charge counts once its
transmit instant has passed (:meth:`BandwidthLedger.settle`).

:class:`RecoveryLog` lives at the protocol layer: one record per
(client, sequence) loss, from detection to first repair arrival.  A
client may be repaired by traffic it never requested (an SRM flood, an
RMA subtree repair); the log only cares *when* the packet finally
arrived, which is exactly what "recovery latency per packet recovered"
measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sim.packet import PacketKind


@dataclass
class BandwidthLedger:
    """Hop counters, bucketed by packet kind."""

    hops_by_kind: dict[PacketKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in PacketKind}
    )
    drops_by_kind: dict[PacketKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in PacketKind}
    )
    #: Instants of the fast-path hops and drops not counted yet, by kind.
    _later_hops: dict = field(
        default_factory=lambda: {kind: [] for kind in PacketKind},
        init=False, repr=False, compare=False,
    )
    _later_drops: dict = field(
        default_factory=lambda: {kind: [] for kind in PacketKind},
        init=False, repr=False, compare=False,
    )

    def charge_hop(self, kind: PacketKind) -> None:
        self.hops_by_kind[kind] += 1

    def charge_drop(self, kind: PacketKind) -> None:
        self.drops_by_kind[kind] += 1

    def charge_hops(self, kind: PacketKind, n: int) -> None:
        """Charge ``n`` link traversals at once (array dissemination
        path; must equal ``n`` scalar :meth:`charge_hop` calls)."""
        if n < 0:
            raise ValueError(f"cannot charge {n} hops")
        self.hops_by_kind[kind] += n

    def charge_drops(self, kind: PacketKind, n: int) -> None:
        """Charge ``n`` loss-process drops at once."""
        if n < 0:
            raise ValueError(f"cannot charge {n} drops")
        self.drops_by_kind[kind] += n

    def charge_fast(
        self,
        kind: PacketKind,
        now: float,
        hop_times: np.ndarray,
        drop_times: np.ndarray | None = None,
    ) -> None:
        """Charge a journey the fast path resolved at ``now``, one hop or
        drop per entry, each at its would-be transmit instant.  Those at
        ``now`` count at once, as the scalar ``_transmit`` charges them
        inside the sending event; each later one waits for :meth:`settle`
        or :meth:`close`."""
        _defer(self.charge_hops, self._later_hops, kind, now, hop_times)
        if drop_times is not None:
            _defer(self.charge_drops, self._later_drops, kind, now, drop_times)

    def settle(self, clock: float) -> None:
        """Count the deferred charges strictly before ``clock``: those a
        scalar run has made when an event at ``clock`` reads the ledger
        (a member's delivery at ``clock`` runs before its onward hops)."""
        for charge, later in (
            (self.charge_hops, self._later_hops),
            (self.charge_drops, self._later_drops),
        ):
            for kind, pending in later.items():
                if pending:
                    times = np.concatenate(pending)
                    due = times < clock
                    charge(kind, int(np.count_nonzero(due)))
                    rest = times[~due]
                    pending[:] = [rest] if rest.size else []

    def close(self, cutoff: float) -> None:
        """Count the deferred charges at or before the drain ``cutoff``
        and discard the rest: their scalar transmit events never fire."""
        self.settle(np.nextafter(cutoff, np.inf))
        for later in (self._later_hops, self._later_drops):
            for pending in later.values():
                pending.clear()

    @property
    def recovery_hops(self) -> int:
        """Total hops of recovery traffic (the figures' numerator)."""
        return (
            self.hops_by_kind[PacketKind.REQUEST]
            + self.hops_by_kind[PacketKind.NACK]
            + self.hops_by_kind[PacketKind.REPAIR]
        )

    @property
    def data_hops(self) -> int:
        return self.hops_by_kind[PacketKind.DATA]

    @property
    def total_drops(self) -> int:
        return sum(self.drops_by_kind.values())


def _defer(charge, later: dict, kind, now: float, times) -> None:
    """``charge`` the charges at ``now``; file the later ones' instants
    in ``later``."""
    rest = times[times > now]
    charge(kind, times.size - rest.size)
    if rest.size:
        later[kind].append(rest)


@dataclass
class _LossRecord:
    detected_at: float
    recovered_at: float | None = None
    abandoned_at: float | None = None


class RecoveryLog:
    """Per-(client, seq) recovery timelines."""

    def __init__(self):
        self._records: dict[tuple[int, int], _LossRecord] = {}

    def loss_detected(self, client: int, seq: int, time: float) -> None:
        """Record that ``client`` noticed losing ``seq`` at ``time``.

        Idempotent: re-detection of a known loss is ignored (the first
        detection starts the latency clock).
        """
        self._records.setdefault((client, seq), _LossRecord(detected_at=time))

    def recovered(self, client: int, seq: int, time: float) -> None:
        """Record that the missing packet arrived.

        Only the first arrival counts; duplicates (multiple repairs) are
        ignored.  An arrival without a prior detection raises — it would
        mean the protocol recovered something it never reported losing,
        which is a bookkeeping bug.
        """
        record = self._records.get((client, seq))
        if record is None:
            raise ValueError(
                f"recovery of ({client}, {seq}) without a detected loss"
            )
        if record.recovered_at is None:
            if time < record.detected_at:
                raise ValueError(
                    f"recovery at {time} precedes detection at {record.detected_at}"
                )
            record.recovered_at = time

    def abandoned(self, client: int, seq: int, time: float) -> None:
        """Record that the protocol gave up on ``(client, seq)``.

        An explicit terminal state for hardened runtimes under faults:
        the recovery ended, deliberately, without the packet.  Raises on
        an already-recovered record (a recovered loss cannot be given
        up); idempotent on repeats.  A repair that arrives *after*
        abandonment is still recorded by :meth:`recovered` — the
        abandonment timestamp is kept so liveness accounting can tell
        "terminated by giving up" from "never terminated".
        """
        record = self._records.get((client, seq))
        if record is None:
            raise ValueError(
                f"abandonment of ({client}, {seq}) without a detected loss"
            )
        if record.recovered_at is not None:
            raise ValueError(
                f"cannot abandon ({client}, {seq}): already recovered"
            )
        if record.abandoned_at is None:
            record.abandoned_at = time

    def retract(self, client: int, seq: int) -> None:
        """Remove a not-yet-recovered detection that turned out to be
        false (the original packet was merely late, e.g. an RMA request
        raced the data).  Raises if the record was already recovered —
        a recovered loss was a real loss."""
        record = self._records.get((client, seq))
        if record is None:
            return
        if record.recovered_at is not None:
            raise ValueError(
                f"cannot retract ({client}, {seq}): already recovered"
            )
        del self._records[(client, seq)]

    # -- queries ---------------------------------------------------------

    @property
    def num_detected(self) -> int:
        return len(self._records)

    @property
    def num_recovered(self) -> int:
        return sum(1 for r in self._records.values() if r.recovered_at is not None)

    @property
    def num_outstanding(self) -> int:
        return self.num_detected - self.num_recovered

    @property
    def num_abandoned(self) -> int:
        """Losses explicitly given up and never subsequently repaired."""
        return sum(
            1
            for r in self._records.values()
            if r.abandoned_at is not None and r.recovered_at is None
        )

    def outstanding(self) -> list[tuple[int, int]]:
        """(client, seq) pairs still unrepaired — should be empty at the
        end of a fully reliable run."""
        return sorted(
            key for key, r in self._records.items() if r.recovered_at is None
        )

    def unterminated(self) -> list[tuple[int, int]]:
        """(client, seq) pairs neither recovered nor abandoned.

        The liveness invariant the hardened runtimes guarantee is that
        this is empty once the engine drains: every detected loss must
        reach an explicit terminal state.  (Contrast :meth:`outstanding`,
        which also counts abandoned losses — those are unrepaired but
        *terminated*.)
        """
        return sorted(
            key
            for key, r in self._records.items()
            if r.recovered_at is None and r.abandoned_at is None
        )

    def was_abandoned(self, client: int, seq: int) -> bool:
        record = self._records.get((client, seq))
        return record is not None and record.abandoned_at is not None

    def latencies(self) -> list[float]:
        """Detection→recovery delays of all recovered losses."""
        return [
            r.recovered_at - r.detected_at
            for r in self._records.values()
            if r.recovered_at is not None
        ]

    def mean_latency(self) -> float | None:
        """Average recovery latency per packet recovered.

        ``None`` when nothing was recovered: "no losses to measure" and
        "recovered instantly" are different facts, and returning ``0.0``
        here would let aggregation average phantom zeros into the
        paper's Figure 5/7 latency quantities.
        """
        lat = self.latencies()
        return sum(lat) / len(lat) if lat else None

    def latency_percentile(self, q: float) -> float:
        """Latency percentile over recovered losses (0 if none).

        ``q`` in [0, 100]; nearest-rank method, so ``q=100`` is the
        worst recovery the session saw — the figure the file-transfer
        user feels.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        lat = sorted(self.latencies())
        if not lat:
            return 0.0
        rank = max(0, min(len(lat) - 1, int(round(q / 100.0 * (len(lat) - 1)))))
        return lat[rank]

    def was_lost(self, client: int, seq: int) -> bool:
        return (client, seq) in self._records

    def per_client_stats(self) -> dict[int, tuple[int, float | None, float | None]]:
        """Per-client ``(losses, mean latency, last recovery time)``.

        The last-recovery time is when the client finally became whole —
        what a file-transfer user actually experiences.  Clients with no
        recovered losses report ``(losses, None, None)`` rather than
        zeros, so downstream averages can't mistake "nothing recovered"
        for "recovered with zero latency".
        """
        out: dict[int, tuple[int, float | None, float | None]] = {}
        by_client: dict[int, list[_LossRecord]] = {}
        for (client, _), record in self._records.items():
            by_client.setdefault(client, []).append(record)
        for client, records in by_client.items():
            recovered = [r for r in records if r.recovered_at is not None]
            if recovered:
                mean = sum(r.recovered_at - r.detected_at for r in recovered) / len(
                    recovered
                )
                last = max(r.recovered_at for r in recovered)
            else:
                mean, last = None, None
            out[client] = (len(records), mean, last)
        return out

    def is_recovered(self, client: int, seq: int) -> bool:
        record = self._records.get((client, seq))
        return record is not None and record.recovered_at is not None
