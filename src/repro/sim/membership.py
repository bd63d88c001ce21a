"""Dynamic group membership — join/leave churn for the receiver set.

The paper plans recovery for a *fixed* receiver group; production
multicast groups churn.  This module adds seed-deterministic membership
dynamics on top of the fault subsystem's crash/recover machinery:

* a :class:`MembershipSchedule` — a frozen plan of per-client
  ``leave``/``join`` events, composable with a
  :class:`~repro.sim.faults.FaultSchedule` (a node can churn *and*
  crash);
* :func:`random_membership_schedule` — a Poisson churn workload whose
  rate scales with an intensity knob, drawn from a dedicated RNG lane;
* the live :class:`MembershipDirector` — fires the schedule on the
  event queue, tears down the departing client's protocol agent (every
  in-flight recovery terminates explicitly — never a silent hang),
  prunes/grafts leaf clients on the multicast tree (bumping its
  membership epoch so cached plans for the old group can never be
  served), and notifies listeners (the protocol factories' incremental
  plan repair) after every composition change.

Semantics of a departure: the *process* leaves the group.  Inbound
deliveries are dropped and outbound sends are suppressed (mirroring
crash windows); a leaf client is additionally pruned from the tree so
multicasts stop traversing its last-hop link.  Interior clients stay on
the tree as pure forwarders — the wire keeps working, the member is
gone.  A permanent leaver settles all of its outstanding packet slots
(detected losses are explicitly abandoned, unseen ones settle quietly)
so the session can complete without it; a temporary leaver abandons
only its in-flight recoveries and catches up after the rejoin through
ordinary SESSION-driven gap detection.

Determinism discipline matches the fault subsystem: the schedule is a
pure value object, the director draws no randomness at run time, and a
run with ``membership=None`` *or* the null schedule constructs no
director, touches no extra RNG lane, and replays the membership-free
byte stream exactly (enforced by the feature-off equivalence suite).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.network import SimNetwork
    from repro.sim.packet import Packet
    from repro.obs.instrumentation import Instrumentation

#: Valid membership event kinds.
LEAVE = "leave"
JOIN = "join"


@dataclass(frozen=True)
class MembershipEvent:
    """One composition change: ``node`` leaves or (re)joins at ``time``."""

    time: float
    node: int
    kind: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.time < math.inf:  # negated, so NaN fails too
            raise ValueError(f"event time must be finite and >= 0, got {self.time}")
        if self.kind not in (LEAVE, JOIN):
            raise ValueError(
                f"kind must be {LEAVE!r} or {JOIN!r}, got {self.kind!r}"
            )


@dataclass(frozen=True)
class MembershipSchedule:
    """The composed churn plan for one run — a pure value object.

    Events must be sorted by time, and each node's events must
    alternate starting with a ``leave`` (the initial group is the
    tree's client set, so the first thing a member can do is depart).
    An empty schedule (:meth:`none`) is indistinguishable from running
    without the membership subsystem.
    """

    events: tuple[MembershipEvent, ...] = ()

    def __post_init__(self) -> None:
        last_time = 0.0
        state: dict[int, str] = {}
        for event in self.events:
            if event.time < last_time:
                raise ValueError(
                    "membership events must be sorted by time;"
                    f" {event} fires before t={last_time}"
                )
            last_time = event.time
            expected = JOIN if state.get(event.node) == LEAVE else LEAVE
            if event.kind != expected:
                raise ValueError(
                    f"node {event.node} events must alternate starting with"
                    f" a leave; got {event.kind!r} at t={event.time}"
                )
            state[event.node] = event.kind

    @classmethod
    def none(cls) -> "MembershipSchedule":
        """The null schedule — changes nothing, costs nothing."""
        return cls()

    @property
    def is_null(self) -> bool:
        return not self.events

    @property
    def churners(self) -> tuple[int, ...]:
        """Nodes the schedule touches, ascending."""
        return tuple(sorted({e.node for e in self.events}))


#: Cap on one churner's leave/join events in a sampled schedule.
MAX_EVENTS_PER_NODE = 4


def random_membership_schedule(
    intensity: float,
    rng: np.random.Generator,
    clients: list[int],
    horizon: float,
) -> MembershipSchedule:
    """Sample a Poisson churn workload scaling with ``intensity`` ∈ [0, 1].

    A fraction of ``clients`` (the candidates; callers exclude the
    source) becomes churners; each draws exponential inter-event gaps —
    leave, possibly rejoin, possibly leave again, at most
    :data:`MAX_EVENTS_PER_NODE` events — within ``horizon``.
    A leaver whose rejoin would land beyond the horizon departs
    permanently.  ``intensity == 0`` returns the null schedule drawing
    nothing, so a zero-churn point is bit-identical to a churn-free run.
    """
    if not 0.0 <= intensity <= 1.0:
        raise ValueError(f"intensity must be in [0, 1], got {intensity}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if intensity == 0.0:
        return MembershipSchedule.none()

    events: list[MembershipEvent] = []
    num_churners = int(round(intensity * 0.4 * len(clients)))
    if num_churners and clients:
        picks = rng.choice(
            len(clients), size=min(num_churners, len(clients)), replace=False
        )
        for index in sorted(int(i) for i in picks):
            node = clients[index]
            t = float(rng.exponential(0.35 * horizon))
            emitted = 0
            while t < 0.7 * horizon and emitted < MAX_EVENTS_PER_NODE:
                events.append(MembershipEvent(time=t, node=node, kind=LEAVE))
                emitted += 1
                away = float(
                    rng.exponential(0.12 * horizon * (0.5 + intensity))
                )
                rejoin_at = t + away
                if rejoin_at >= 0.85 * horizon or emitted >= MAX_EVENTS_PER_NODE:
                    break  # permanent departure
                events.append(
                    MembershipEvent(time=rejoin_at, node=node, kind=JOIN)
                )
                emitted += 1
                t = rejoin_at + float(rng.exponential(0.4 * horizon))
    events.sort(key=lambda e: (e.time, e.node, e.kind))
    return MembershipSchedule(events=tuple(events))


#: Listener signature: (kind, node, director) after the change applied.
MembershipListener = Callable[[str, int, "MembershipDirector"], None]


class MembershipDirector:
    """The live side of a :class:`MembershipSchedule`.

    One director serves one run.  It fires the schedule's events on the
    run's event queue, keeps the authoritative "who is a member right
    now" set, mutates the multicast tree (leaf prune/graft), and
    accounts every action (plain counters always; ``member.*`` metrics
    and typed :class:`~repro.obs.events.MemberEvent` records when
    instrumented) exactly like :class:`~repro.sim.faults.FaultInjector`
    does for faults.
    """

    def __init__(
        self,
        schedule: MembershipSchedule,
        instrumentation: "Instrumentation | None" = None,
    ):
        from repro.obs.instrumentation import NULL_INSTRUMENTATION

        self.schedule = schedule
        self.instr = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        #: Action counters, keyed by kind (JSON-ready).
        self.counts: dict[str, int] = {}
        #: Bumped on every composition change; the tree mirrors it so
        #: plan-cache fingerprints of different epochs never collide.
        self.epoch = 0
        self._departed: set[int] = set()
        self._network: "SimNetwork | None" = None
        #: Pruned leaf -> its former parent, for the graft on rejoin.
        self._graft_points: dict[int, int] = {}
        self._listeners: list[MembershipListener] = []
        self._timers: list = []
        #: Scheduled join times per node — a leave with no later join is
        #: permanent, and the departing agent settles all its slots.
        self._rejoins: dict[int, list[float]] = {}
        for event in schedule.events:
            if event.kind == JOIN:
                self._rejoins.setdefault(event.node, []).append(event.time)

    # -- wiring ----------------------------------------------------------

    def bind(self, network: "SimNetwork") -> None:
        """Attach to the run's network (must precede :meth:`arm`)."""
        self._network = network

    def add_listener(self, listener: MembershipListener) -> None:
        """Called after every applied change — plan repair hooks in here."""
        self._listeners.append(listener)

    def arm(self) -> None:
        """Schedule every event; call after agents are installed."""
        if self._network is None:
            raise RuntimeError("bind() the director to a network before arm()")
        events = self._network.events
        for event in self.schedule.events:
            self._timers.append(
                events.schedule_at(
                    event.time, functools.partial(self._fire, event)
                )
            )

    def cancel_pending(self) -> None:
        """Cancel events still armed after the drain cutoff.

        A session can complete before the schedule runs out; the runner
        calls this before the invariant check so leftover membership
        timers don't read as live timers after the drain.  Idempotent (fired
        timers cancel as no-ops).
        """
        for timer in self._timers:
            timer.cancel()

    # -- membership queries ----------------------------------------------

    @property
    def departed(self) -> frozenset[int]:
        return frozenset(self._departed)

    def is_member(self, node: int) -> bool:
        return node not in self._departed

    def members(self) -> list[int]:
        """Current group: the tree's clients minus departed interiors."""
        assert self._network is not None
        return [
            c for c in self._network.tree.clients if c not in self._departed
        ]

    # -- network hooks (mirroring FaultInjector) -------------------------

    def drop_delivery(self, node: int, packet: "Packet", now: float) -> bool:
        """True when delivery to ``node`` must be dropped (departed)."""
        if node in self._departed:
            self._record(now, "member.rx_drop", node=node, seq=packet.seq)
            return True
        return False

    def suppress_send(self, node: int, packet: "Packet", now: float) -> bool:
        """True when ``node`` has departed and must not transmit.

        Teardown cancels every send a departing agent had armed, so this
        guard should never fire — the ``membership.tx_drop`` run invariant
        requires the ``member.tx_drop`` count to stay zero, which is the structural
        form of "no recovery settles against a departed peer".
        """
        if node in self._departed:
            self._record(now, "member.tx_drop", node=node, seq=packet.seq)
            return True
        return False

    # -- event application ------------------------------------------------

    def _fire(self, event: MembershipEvent) -> None:
        assert self._network is not None
        now = self._network.events.now
        if event.kind == LEAVE:
            self._leave(event.node, now)
        else:
            self._join(event.node, now)

    def _leave(self, node: int, now: float) -> None:
        network = self._network
        assert network is not None
        if node in self._departed or node == network.tree.root:
            return
        self._departed.add(node)
        self.epoch += 1
        permanent = not any(t > now for t in self._rejoins.get(node, ()))
        agent = network.agent_at(node)
        if agent is not None and hasattr(agent, "depart"):
            agent.depart(permanent=permanent)
        tree = network.tree
        if tree.contains(node) and tree.is_leaf(node):
            # Leaf clients leave the tree entirely: multicasts stop
            # traversing the last-hop link.  Interior clients stay as
            # forwarders (the wire outlives the member).
            self._graft_points[node] = tree.parent(node)
            tree.prune_leaf(node)
            network.on_tree_mutated()
        self._record(now, "member.leave", node=node)
        for listener in self._listeners:
            listener(LEAVE, node, self)

    def _join(self, node: int, now: float) -> None:
        network = self._network
        assert network is not None
        if node not in self._departed:
            return
        self._departed.discard(node)
        self.epoch += 1
        parent = self._graft_points.pop(node, None)
        if parent is not None:
            network.tree.graft_leaf(node, parent)
            network.on_tree_mutated()
        agent = network.agent_at(node)
        if agent is not None and hasattr(agent, "rejoin"):
            agent.rejoin()
        self._record(now, "member.join", node=node)
        for listener in self._listeners:
            listener(JOIN, node, self)

    # -- accounting ------------------------------------------------------

    def _record(
        self, now: float, kind: str, node: int = -1, seq: int = -1
    ) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.instr.member(now, kind, node=node, seq=seq)
