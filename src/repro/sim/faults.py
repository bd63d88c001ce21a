"""Fault injection — breaking the paper's "reliable network" on purpose.

The paper's loss model (section 3.1) is i.i.d. per-link Bernoulli loss
with ``p² ≈ 0`` and peers that always answer requests.  Everything in
this module exists to violate those assumptions in a *controlled,
seed-deterministic* way so the recovery protocols can be stress-tested
far outside the regime their analysis covers:

* **Peer crash/recover windows** (:class:`CrashWindow`) — while crashed
  a node's agent is unplugged from the network: inbound deliveries are
  dropped (it silently ignores requests) and outbound sends are
  suppressed (it stops sending repairs).  Routers keep forwarding
  through the node — the *process* crashed, not the wire.
* **Gilbert–Elliott burst loss** (:class:`GilbertElliottParams`) — a
  two-state Markov chain per link replaces the Bernoulli draw in
  :meth:`~repro.sim.network.SimNetwork._transmit_now`, producing the
  correlated loss runs that make ``p²`` terms very much non-zero.
* **Link down intervals** (:class:`LinkDownWindow`) — every traversal
  attempt during the window is dropped, on both directions of the link.
* **Request/repair black-holing** — a unicast REQUEST or REPAIR
  vanishes end-to-end with some probability, modelling a lossy or
  misrouted recovery path the gap-based detector can never see.

Determinism discipline: the composed :class:`FaultSchedule` is a frozen
value object (windows are precomputed, not sampled during the run), and
every stochastic decision the live :class:`FaultInjector` makes draws
from its **own** :class:`~repro.sim.rng.RngStreams` lane
(``faults:<protocol>``).  A run with ``faults=None`` *or* the null
schedule constructs no injector at all, touches no extra stream and
executes byte-for-byte the pre-fault code path — enforced by the
feature-off equivalence suite.

The loop is closed by the run invariants (:mod:`repro.obs.health`),
which the runner checks after every drain: every detected loss must have
terminated in ``recovered`` or an explicit ``abandoned`` record — a
silent hang is a protocol bug, not a measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.packet import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.topology import Link
    from repro.obs.instrumentation import Instrumentation


@dataclass(frozen=True)
class CrashWindow:
    """Node ``node`` is crashed during ``[start, end)`` (sim time)."""

    node: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(
                f"crash window needs 0 <= start <= end, got [{self.start}, {self.end})"
            )


@dataclass(frozen=True)
class LinkDownWindow:
    """The (undirected) link ``u — v`` drops everything in ``[start, end)``."""

    u: int
    v: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(
                f"link-down window needs 0 <= start <= end, got [{self.start}, {self.end})"
            )


@dataclass(frozen=True)
class GilbertElliottParams:
    """Two-state (good/bad) Markov burst-loss chain, stepped per attempt.

    Each transmission attempt on a link first draws its loss from the
    link's current state — ``good_loss`` (``None`` = the link's own
    Bernoulli ``loss_prob``) or ``bad_loss`` — then draws the state
    transition for the next attempt.  ``p_enter_bad`` / ``p_exit_bad``
    control burst frequency and length; the stationary bad fraction is
    ``p_enter_bad / (p_enter_bad + p_exit_bad)``.
    """

    p_enter_bad: float
    p_exit_bad: float
    bad_loss: float = 0.9
    good_loss: float | None = None

    def __post_init__(self) -> None:
        for name in ("p_enter_bad", "p_exit_bad", "bad_loss"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.good_loss is not None and not 0.0 <= self.good_loss <= 1.0:
            raise ValueError(f"good_loss must be in [0, 1], got {self.good_loss}")


@dataclass(frozen=True)
class FaultSchedule:
    """The composed fault plan for one run — a pure value object.

    An empty schedule (:meth:`none`) is indistinguishable from running
    without the fault subsystem: the runner constructs no injector for
    it, so the simulation replays the fault-free byte stream exactly.
    """

    crash_windows: tuple[CrashWindow, ...] = ()
    link_down_windows: tuple[LinkDownWindow, ...] = ()
    gilbert_elliott: GilbertElliottParams | None = None
    #: Probability a unicast REQUEST vanishes end-to-end (per send).
    request_blackhole_prob: float = 0.0
    #: Probability a unicast REPAIR vanishes end-to-end (per send).
    repair_blackhole_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in ("request_blackhole_prob", "repair_blackhole_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @classmethod
    def none(cls) -> "FaultSchedule":
        """The null schedule — injects nothing, costs nothing."""
        return cls()

    @property
    def is_null(self) -> bool:
        """True when this schedule can inject no fault at all."""
        return (
            not self.crash_windows
            and not self.link_down_windows
            and self.gilbert_elliott is None
            and self.request_blackhole_prob == 0.0
            and self.repair_blackhole_prob == 0.0
        )


def random_fault_schedule(
    intensity: float,
    rng: np.random.Generator,
    nodes: list[int],
    links: "list[Link]",
    horizon: float,
) -> FaultSchedule:
    """Sample a schedule whose severity scales with ``intensity`` ∈ [0, 1].

    ``nodes`` are the crash candidates (callers exclude the source: a
    permanently unreachable source makes every recovery abandon, which
    measures the schedule, not the protocol).  ``horizon`` is the rough
    session length windows are placed within; windows are always finite,
    so crashed nodes recover and SESSION flushes eventually reach them —
    the property that keeps chaos runs terminating.

    ``intensity == 0`` returns the null schedule (drawing nothing), so a
    zero-intensity chaos point is bit-identical to a fault-free run.
    """
    if not 0.0 <= intensity <= 1.0:
        raise ValueError(f"intensity must be in [0, 1], got {intensity}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if intensity == 0.0:
        return FaultSchedule.none()

    crash_windows: list[CrashWindow] = []
    num_crashes = int(round(intensity * 0.5 * len(nodes)))
    if num_crashes and nodes:
        picks = rng.choice(len(nodes), size=min(num_crashes, len(nodes)),
                           replace=False)
        for index in sorted(int(i) for i in picks):
            start = float(rng.uniform(0.0, 0.6 * horizon))
            length = float(rng.uniform(0.05, 0.05 + 0.25 * intensity)) * horizon
            if start + length <= start:
                # Degenerate [t, t) window: it would never fire yet
                # still count as an injected fault.  Skip it *after*
                # consuming both draws so the lane's sequence (and every
                # later window) is unchanged by the filter.
                continue
            crash_windows.append(
                CrashWindow(node=nodes[index], start=start, end=start + length)
            )

    down_windows: list[LinkDownWindow] = []
    num_down = int(round(intensity * 0.05 * len(links)))
    if num_down and links:
        picks = rng.choice(len(links), size=min(num_down, len(links)),
                           replace=False)
        for index in sorted(int(i) for i in picks):
            link = links[index]
            start = float(rng.uniform(0.0, 0.6 * horizon))
            length = float(rng.uniform(0.02, 0.02 + 0.15 * intensity)) * horizon
            if start + length <= start:
                continue
            down_windows.append(
                LinkDownWindow(u=link.u, v=link.v, start=start, end=start + length)
            )

    ge = GilbertElliottParams(
        p_enter_bad=0.01 + 0.05 * intensity,
        p_exit_bad=0.25,
        bad_loss=0.4 + 0.5 * intensity,
    )
    blackhole = 0.15 * intensity
    return FaultSchedule(
        crash_windows=tuple(crash_windows),
        link_down_windows=tuple(down_windows),
        gilbert_elliott=ge,
        request_blackhole_prob=blackhole,
        repair_blackhole_prob=blackhole,
    )


class FaultInjector:
    """The live side of a :class:`FaultSchedule`: answers the network's
    "does this fault fire right now?" questions and accounts every
    injection (plain counters always; ``fault.*`` metrics and typed
    :class:`~repro.obs.events.FaultEvent` records when instrumented).

    One injector serves one run; its Gilbert–Elliott chain state and RNG
    lane are private to the run, so two protocols compared on one seed
    face identical *windows* but independent stochastic fault draws.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        rng: np.random.Generator,
        instrumentation: "Instrumentation | None" = None,
    ):
        from repro.obs.instrumentation import NULL_INSTRUMENTATION

        self.schedule = schedule
        self._rng = rng
        self.instr = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self._crash_by_node: dict[int, list[tuple[float, float]]] = {}
        for window in schedule.crash_windows:
            self._crash_by_node.setdefault(window.node, []).append(
                (window.start, window.end)
            )
        self._down_by_link: dict[tuple[int, int], list[tuple[float, float]]] = {}
        for down in schedule.link_down_windows:
            key = (min(down.u, down.v), max(down.u, down.v))
            self._down_by_link.setdefault(key, []).append((down.start, down.end))
        #: Per-link Gilbert–Elliott state; True = bad (bursting).
        self._ge_bad: dict[tuple[int, int], bool] = {}
        #: Injection counters, keyed by fault kind (JSON-ready).
        self.counts: dict[str, int] = {}

    # -- accounting ------------------------------------------------------

    def _record(self, now: float, kind: str, node: int = -1, peer: int = -1,
                seq: int = -1) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.instr.fault(now, kind, node=node, peer=peer, seq=seq)

    # -- crash windows ---------------------------------------------------

    def node_crashed(self, node: int, now: float) -> bool:
        windows = self._crash_by_node.get(node)
        if not windows:
            return False
        return any(start <= now < end for start, end in windows)

    def drop_delivery(self, node: int, packet: Packet, now: float) -> bool:
        """True when delivery to ``node`` must be dropped (node crashed)."""
        if self.node_crashed(node, now):
            self._record(now, "crash.rx_drop", node=node, seq=packet.seq)
            return True
        return False

    def suppress_send(self, node: int, packet: Packet, now: float) -> bool:
        """True when ``node`` is crashed and must not transmit."""
        if self.node_crashed(node, now):
            self._record(now, "crash.tx_drop", node=node, seq=packet.seq)
            return True
        return False

    # -- link faults -----------------------------------------------------

    def link_down(self, link: "Link", now: float) -> bool:
        key = (min(link.u, link.v), max(link.u, link.v))
        windows = self._down_by_link.get(key)
        if not windows:
            return False
        if any(start <= now < end for start, end in windows):
            self._record(now, "link.down_drop", node=link.u, peer=link.v)
            return True
        return False

    @property
    def burst_loss(self) -> bool:
        """Whether the Gilbert–Elliott chain replaces the Bernoulli draw."""
        return self.schedule.gilbert_elliott is not None

    def burst_loss_draw(self, link: "Link", now: float) -> bool:
        """One Gilbert–Elliott loss decision on ``link``; steps the chain.

        The loss is drawn from the link's *current* state, then the
        state transition for the next attempt is drawn — two draws per
        attempt, both from the fault lane, never from the loss streams.
        """
        params = self.schedule.gilbert_elliott
        assert params is not None
        key = (min(link.u, link.v), max(link.u, link.v))
        bad = self._ge_bad.get(key, False)
        if bad:
            loss_prob = params.bad_loss
        else:
            loss_prob = (
                params.good_loss if params.good_loss is not None else link.loss_prob
            )
        lost = loss_prob > 0.0 and self._rng.random() < loss_prob
        flip = params.p_exit_bad if bad else params.p_enter_bad
        if flip > 0.0 and self._rng.random() < flip:
            self._ge_bad[key] = not bad
        if lost and bad:
            self._record(now, "burst.drop", node=link.u, peer=link.v)
        return lost

    # -- recovery-path black-holing --------------------------------------

    def blackhole(self, packet: Packet, now: float) -> bool:
        """True when a unicast recovery packet vanishes end-to-end."""
        if packet.kind is PacketKind.REQUEST:
            prob = self.schedule.request_blackhole_prob
        elif packet.kind is PacketKind.REPAIR:
            prob = self.schedule.repair_blackhole_prob
        else:
            return False
        if prob > 0.0 and self._rng.random() < prob:
            self._record(
                now, f"blackhole.{packet.kind.value}",
                node=packet.origin, seq=packet.seq,
            )
            return True
        return False
