"""Incremental repair of RP recovery plans under membership churn.

A composition change invalidates only part of the planning problem, and
this module repairs exactly that part instead of re-running
``plan_all`` (which is O(group²), and what RP does when its failure
detector declares a peer dead):

* **Departure.**  A departed peer can only make plans *worse*: its
  competitive class loses a member.  If the departed peer was not in a
  client's chosen prioritized list, that list stays optimal — the
  departed peer was at best an unchosen class winner, its replacement is
  strictly costlier, and a candidate that lost at a cheaper price cannot
  win at a dearer one (worsening an unchosen option never changes the
  optimum).  So the dirty set is exactly the clients whose chosen list
  contains a departed node, found in O(1) through a peer→clients
  reverse index over the chosen lists.

* **Join.**  A joining peer ``p`` can only make plans *better*, and only
  for clients ``u`` it could serve at all — ``depth(lca(u, p)) < DS_u``
  (Lemma 2; one vectorized LCA pass over the group).  Within those, if
  ``u``'s chosen list already contains the winner of ``p``'s competitive
  class at an RTT no worse than ``p``'s, then ``p`` loses its class and
  nothing changes (chosen entries *are* class winners).  Only clients
  passing both filters — plus the joiner itself, which needs a fresh
  plan — are re-planned.

Each event's dirty set is re-planned in one batched planner call
(``RPPlanner.plan_clients``: one array pass over the dirty clients)
with the currently-departed peers restricted out of the strategy graph
(generalizing the failure detector's on-death re-plan), so a repaired
plan for a client equals the from-scratch plan for that client by
construction; the quality question the churn sweep checks is whether the
*skip* filters above ever skip a client whose from-scratch plan moved
(:meth:`IncrementalPlanRepairer.verify_against_scratch`).  An event with
an empty dirty set makes no planner call.

The repairer is protocol-agnostic: it holds the tree, the routing table
and a ``replan(clients, departed) -> {client: RecoveryStrategy}``
callable, and the RP factory owns the wiring (swapping repaired
strategies into the live agents, emitting ``plan.repair``).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.planner import RecoveryStrategy
    from repro.net.mcast_tree import MulticastTree
    from repro.net.routing import RoutingTable

#: Re-plan the given clients (distinct current members) against the
#: current tree with ``departed`` restricted out of the strategy graph,
#: in one planner call; strategies keyed in the given order.
ReplanFn = Callable[[list[int], frozenset], "dict[int, RecoveryStrategy]"]


class IncrementalPlanRepairer:
    """Keeps a live strategy set consistent across join/leave events.

    ``strategies`` is the repairer's authoritative copy (one entry per
    current member with a plan); callers read it after each
    :meth:`repair` to swap updated lists into their agents.
    """

    def __init__(
        self,
        tree: "MulticastTree",
        routing: "RoutingTable",
        strategies: "dict[int, RecoveryStrategy]",
        replan: ReplanFn,
    ):
        self._tree = tree
        self._routing = routing
        self._replan = replan
        self.strategies: "dict[int, RecoveryStrategy]" = dict(strategies)
        # peer -> clients whose chosen list contains that peer; the
        # departure dirty set is one lookup here.
        self._peer_index: dict[int, set[int]] = {}
        for client, strategy in self.strategies.items():
            for cand in strategy.attempts:
                self._peer_index.setdefault(cand.node, set()).add(client)
        #: One record per composition change:
        #: ``{kind, node, group_size, replanned, seconds}`` — the churn
        #: sweep reads these to chart repair cost against group size.
        self.history: list[dict] = []

    # -- index maintenance ------------------------------------------------

    def _unindex(self, client: int) -> None:
        old = self.strategies.get(client)
        if old is None:
            return
        for cand in old.attempts:
            members = self._peer_index.get(cand.node)
            if members is not None:
                members.discard(client)

    def _apply(self, replanned: "dict[int, RecoveryStrategy]") -> None:
        for client, strategy in replanned.items():
            self._unindex(client)
            self.strategies[client] = strategy
            for cand in strategy.attempts:
                self._peer_index.setdefault(cand.node, set()).add(client)

    # -- event handlers ---------------------------------------------------

    def repair(
        self, kind: str, node: int, departed: frozenset
    ) -> "dict[int, RecoveryStrategy]":
        """Apply one membership event; returns the re-planned strategies."""
        started = time.perf_counter()
        if kind == "leave":
            replanned = self._on_leave(node, departed)
        else:
            replanned = self._on_join(node, departed)
        self.history.append({
            "kind": kind,
            "node": node,
            "group_size": len(self.strategies),
            "replanned": len(replanned),
            "seconds": time.perf_counter() - started,
        })
        return replanned

    def _on_leave(
        self, node: int, departed: frozenset
    ) -> "dict[int, RecoveryStrategy]":
        dirty = set(self._peer_index.pop(node, ()))
        # The leaver's own plan is retired with it (a rejoin replans it).
        self._unindex(node)
        self.strategies.pop(node, None)
        replanned = self._replan_batch(
            [c for c in sorted(dirty) if c != node and c in self.strategies],
            departed,
        )
        self._apply(replanned)
        return replanned

    def _on_join(
        self, node: int, departed: frozenset
    ) -> "dict[int, RecoveryStrategy]":
        tree = self._tree
        dirty = [node]
        incumbents = np.asarray(
            [c for c in self.strategies if c != node], dtype=np.int64
        )
        if incumbents.size:
            ancestors = tree.lca_vector(node, incumbents)
            joiner_ds = tree.depth_vector()[ancestors]
            joiner_rtt = (
                2.0 * np.asarray(self._routing.distances_from(node))[incumbents]
            )
            for client, ds, rtt in zip(
                incumbents.tolist(), joiner_ds.tolist(), joiner_rtt.tolist()
            ):
                strategy = self.strategies[client]
                if ds >= strategy.ds_u:
                    continue  # joiner shares the client's loss (Lemma 2)
                chosen = next(
                    (a for a in strategy.attempts if a.ds == ds), None
                )
                if chosen is not None and chosen.rtt <= rtt:
                    # The chosen entry is its class's winner and already
                    # beats the joiner — the class, hence the plan, is
                    # unchanged.
                    continue
                dirty.append(client)
        replanned = self._replan_batch(dirty, departed)
        self._apply(replanned)
        return replanned

    def _replan_batch(
        self, clients: list[int], departed: frozenset
    ) -> "dict[int, RecoveryStrategy]":
        return self._replan(clients, departed) if clients else {}

    # -- diagnostics ------------------------------------------------------

    def stats(self) -> dict:
        """JSON-ready aggregate of the repair history."""
        events = len(self.history)
        replans = sum(h["replanned"] for h in self.history)
        group = sum(h["group_size"] for h in self.history)
        return {
            "events": events,
            "clients_replanned": replans,
            "replans_per_event": (replans / events) if events else 0.0,
            "replan_fraction": (replans / group) if group else 0.0,
            "seconds": sum(h["seconds"] for h in self.history),
        }

    def verify_against_scratch(self, departed: frozenset) -> float:
        """Max relative expected-delay gap vs from-scratch planning.

        Re-plans every currently-planned client from scratch (same
        restrictions) and returns the worst
        ``|repaired − scratch| / scratch`` over the group — 0.0 when the
        incremental skip filters never skipped a moved plan.
        """
        worst = 0.0
        scratch_plans = self._replan_batch(sorted(self.strategies), departed)
        for client, scratch in scratch_plans.items():
            repaired = self.strategies[client]
            denom = max(abs(scratch.expected_delay), 1e-12)
            gap = abs(repaired.expected_delay - scratch.expected_delay) / denom
            worst = max(worst, gap)
        return worst
