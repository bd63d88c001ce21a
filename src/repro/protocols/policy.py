"""Hardened-recovery policy knobs shared by the protocol runtimes.

The paper's runtimes assume a reliable network: one request per list
peer, and the source retried forever with a constant timeout.  Under
injected faults (:mod:`repro.sim.faults`) that design either hangs
silently (a crashed peer black-holes the request chain) or floods a
black-holed source with identical retries.  :class:`RecoveryPolicy`
layers three defenses on top of the existing
:class:`~repro.core.timeouts.TimeoutPolicy` machinery:

* **bounded per-peer retries** — up to ``max_peer_retries`` requests to
  the same list peer before advancing (the paper's behaviour is 1);
* **exponential backoff** — each retry of the *same* target multiplies
  the armed timeout by ``backoff_factor`` (capped at
  ``max_backoff_scale``), so a black-holed path is probed at a
  geometrically decreasing rate instead of a fixed drumbeat;
* **bounded source fallback** — after ``max_source_attempts`` requests
  to the source the recovery terminates in an explicit ``abandoned``
  record (``0`` keeps the paper's retry-forever reliability).

:class:`PeerFailureDetector` adds the cross-recovery memory: ``k``
consecutive timeouts against one peer mark it dead, subsequent
recoveries skip it, and (for RP) a re-plan via
:mod:`repro.core.plan_cache` with the dead peer restricted out of the
strategy graph rebuilds the prioritized lists as if the peer never
existed.  On the tree's current membership epoch it is derived from the
plan before: only the clients with the dead peer among their
candidates are solved again.

**Determinism contract:** the default :data:`DEFAULT_RECOVERY_POLICY`
reduces every hardened code path to the pre-hardening behaviour — same
requests, same timeouts, same telemetry, byte for byte.  The fault-free
equivalence suite enforces this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class RecoveryPolicy:
    """Retry/backoff/abandonment knobs for the unicast recovery loops.

    Parameters
    ----------
    max_peer_retries:
        Requests sent to one prioritized-list peer per recovery before
        advancing to the next.  1 (default) is the paper's behaviour.
    max_source_attempts:
        Requests sent to the source before the recovery is abandoned
        with an explicit record; 0 (default) retries forever — the
        paper's full-reliability mode, which under faults can only be
        safe when the source is reachable.
    backoff_factor:
        Timeout multiplier applied per retry of the same target
        (peer retry or source re-request).  1.0 (default) keeps the
        constant timeouts of the paper.
    max_backoff_scale:
        Cap on the cumulative backoff multiplier, bounding the slowest
        probe rate.
    failure_threshold:
        Consecutive timeouts against one peer before the
        :class:`PeerFailureDetector` declares it dead; 0 (default)
        disables the detector.  RP re-plans on every declared death
        through the plan cache with all dead peers restricted out,
        solving again only the clients with a newly dead peer among
        their candidates (new recoveries use the repaired plan;
        in-flight recoveries finish on the list they started with).
    """

    max_peer_retries: int = 1
    max_source_attempts: int = 0
    backoff_factor: float = 1.0
    max_backoff_scale: float = 64.0
    failure_threshold: int = 0

    def __post_init__(self) -> None:
        if self.max_peer_retries < 1:
            raise ValueError("max_peer_retries must be >= 1")
        if self.max_source_attempts < 0:
            raise ValueError("max_source_attempts must be >= 0 (0 = unbounded)")
        # NaN fails isfinite; an infinite value would arm a timer at
        # t = inf.
        for name in ("backoff_factor", "max_backoff_scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 1.0):
                raise ValueError(f"{name} must be finite and >= 1, got {value}")
        if self.failure_threshold < 0:
            raise ValueError("failure_threshold must be >= 0 (0 = disabled)")

    @classmethod
    def hardened(cls) -> "RecoveryPolicy":
        """The chaos-sweep defaults: every defense on, bounds tight
        enough that a run against an unreachable source terminates in a
        handful of backed-off attempts."""
        return cls(
            max_peer_retries=2,
            max_source_attempts=6,
            backoff_factor=2.0,
            max_backoff_scale=32.0,
            failure_threshold=3,
        )

    @property
    def is_default(self) -> bool:
        """True when every knob is at its paper-faithful default."""
        return self == DEFAULT_RECOVERY_POLICY

    def backoff_scale(self, retries: int) -> float:
        """Cumulative timeout multiplier after ``retries`` same-target
        retries (exactly 1.0 at the default factor, preserving
        bit-identical timers on the fault-free path)."""
        if retries <= 0 or self.backoff_factor == 1.0:
            return 1.0
        try:
            scale = self.backoff_factor ** retries
        except OverflowError:  # the power is far past the (finite) cap
            return self.max_backoff_scale
        return min(scale, self.max_backoff_scale)


#: The paper-faithful behaviour every factory uses unless told otherwise.
DEFAULT_RECOVERY_POLICY = RecoveryPolicy()


class PeerFailureDetector:
    """Consecutive-timeout failure detector over recovery peers.

    ``threshold`` consecutive timeouts (with no intervening reply) mark
    a peer dead; dead peers are skipped by subsequent recoveries.  Death
    is sticky — a peer that recovers from its crash window is *not*
    rehabilitated, the conservative choice for a detector that only
    observes silence (documented trade-off; the source fallback keeps
    reliability regardless).  ``on_death`` fires once per peer, at the
    transition.
    """

    def __init__(
        self,
        threshold: int,
        on_death: Callable[[int], None] | None = None,
    ):
        if threshold < 1:
            raise ValueError("threshold must be >= 1 (use None, not 0)")
        self.threshold = threshold
        self._on_death = on_death
        self._consecutive: dict[int, int] = {}
        self._dead: set[int] = set()

    @property
    def dead(self) -> frozenset[int]:
        return frozenset(self._dead)

    def is_dead(self, peer: int) -> bool:
        return peer in self._dead

    def record_timeout(self, peer: int) -> bool:
        """One more timeout against ``peer``; True when it just died."""
        if peer in self._dead:
            return False
        count = self._consecutive.get(peer, 0) + 1
        self._consecutive[peer] = count
        if count >= self.threshold:
            self._dead.add(peer)
            if self._on_death is not None:
                self._on_death(peer)
            return True
        return False

    def record_alive(self, peer: int) -> None:
        """Proof of life (a repair or NACK reply): reset the streak."""
        if peer in self._consecutive:
            self._consecutive[peer] = 0
