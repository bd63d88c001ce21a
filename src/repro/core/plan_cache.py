"""Cross-run memoization of RP prioritized lists.

The planner's output for one client depends only on the multicast tree,
the expected link delays (through the routing-table RTTs), the timeout
policy, the attempt-cost estimator and the strategy restrictions — it
does **not** depend on the per-link loss probability ``p``.  A
loss-probability sweep (Figures 7–8) therefore re-plans the *identical*
prioritized lists at every sweep point; with ten points and a handful of
seeds that is 90% pure waste.  This module caches ``plan_all`` results
behind a value-based fingerprint so each distinct planning problem is
solved once per process, whether a sweep's units run in the calling
process (``jobs=1``) or on worker processes (each worker holds its own
cache and warms it on its first unit of a topology).

Problems that differ only in ``forbidden_peers`` form one **family**
(the full key minus the forbidden set).  Hardened RP re-plans with
every newly dead peer forbidden, so its failure-detector re-plans miss
the cache one after another within one family.  The cache keeps the
latest plan of the family it last missed on
(:class:`~repro.core.planner_batch.PlanFamily`: candidate pairs before
restrictions, forbidden set, strategies) and hands it to ``plan_all``,
which re-solves only the clients with a candidate peer in the symmetric
difference of the two forbidden sets.  A forbidden class winner drops
its class and Algorithm 1 works per client, so every other client's
held strategy is exactly what a full solve would return.  A derived
plan still counts as a miss.  One family is held, not one per entry: a
churn-mutated tree starts a new family at each membership epoch, and
the old epochs' families would never be planned again.

Correctness discipline:

* The **fingerprint** hashes everything planning reads: tree root,
  parent map, client set, and the topology's delay-graph digest
  (:func:`~repro.net.routing.delay_graph_digest`: node count and every
  link's ``(u, v, delay)``, the digest the routing row store is keyed
  by) — loss probabilities are deliberately excluded (planning never
  reads them).  Policy/estimator/restriction knobs are
  keyed by value for the stock classes and by instance identity for
  unknown subclasses, so an unrecognised policy can cause a redundant
  miss but never a wrong hit.
* The structural part of the fingerprint is cached on the tree object;
  like :class:`~repro.net.routing.RoutingTable`, the cache assumes the
  tree/topology are not mutated after planning first touches them.
* Cached strategies are frozen dataclasses shared by reference;
  :func:`plans_for` returns a fresh dict so callers may reshape the
  mapping freely.
* A cached sweep is **bit-identical** to an uncached one (planning is
  deterministic), and a derived plan to a from-scratch one, enforced by
  the equivalence tests.  The uncached
  reference is :meth:`~repro.core.planner.RPPlanner.plan_all` itself.

Observability: hits/misses are counted on the cache itself
(:meth:`PlanCache.stats`).

Reset: the module-level :func:`clear` is the one reset for the
loss-independent state that outlives a build.  It empties the global
plan cache and resets its counters, and it drops the routing module's
shared row store (the Dijkstra rows the builds of one delay graph
share), so the build after it plans and routes from cold.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np

from repro.core.objective import (
    BlendEstimator,
    RttOnlyEstimator,
    TimeoutOnlyEstimator,
)
from repro.core.planner_batch import PlanFamily
from repro.core.strategy_graph import StrategyRestrictions
from repro.core.timeouts import FixedTimeout, ProportionalTimeout
from repro.lru import LRU
from repro.net.routing import clear_shared_rows, delay_graph_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.planner import RecoveryStrategy, RPPlanner
    from repro.net.mcast_tree import MulticastTree

#: Distinct planning problems kept per cache (LRU beyond this).  Each
#: entry holds one strategy dict for every client of one topology; 8
#: covers the scenario-cache width of a sweep process with room for
#: interleaved sweeps.
DEFAULT_CAPACITY = 8

#: Attribute used to memoize the structural fingerprint on a tree.
_TREE_FP_ATTR = "_plan_cache_scenario_fp"


def scenario_fingerprint(tree: "MulticastTree") -> str:
    """Value-based digest of everything planning reads from the network.

    Covers the tree structure (root + parent map), the client set, the
    tree's membership epoch, the node count, and every topology link's
    endpoints and expected delay (RTTs and thus timeouts derive from
    those), hashed as numpy arrays rather than as Python tuples.  Loss
    probabilities are excluded on purpose: the planner never reads them,
    which is exactly what lets a loss-probability sweep share one plan.

    The membership epoch makes churn-mutated trees safe to plan against:
    a prune/graft bumps the epoch, so a plan computed for an earlier
    group composition can never be served to a later one — even if a
    rejoin restores the identical structure at a different time.  The
    memo on the tree object revalidates against the current epoch, so
    mutation invalidates it without the tree knowing about this module.
    """
    epoch = getattr(tree, "membership_epoch", 0)
    cached = getattr(tree, _TREE_FP_ATTR, None)
    if cached is not None and cached[0] == epoch:
        return cached[1]
    order, _, _, parent = tree.structure_arrays()
    members = np.sort(order).astype(np.int64)
    # Contiguous arrays hashed as raw bytes, the lengths up front so no
    # two field layouts share a byte stream; the links' endpoints and
    # delays come in as the topology's delay-graph digest (memoized on
    # the topology, so each topology's links are hashed once).
    clients = np.asarray(tree.clients, dtype=np.int64)
    head = (tree.root, epoch, members.size, clients.size)
    digest = hashlib.sha256(np.array(head, dtype=np.int64).tobytes())
    for array in (
        members,
        parent[members].astype(np.int64),  # -1 at the root
        clients,
    ):
        digest.update(array.tobytes())
    digest.update(delay_graph_digest(tree.topology))
    fingerprint = digest.hexdigest()
    setattr(tree, _TREE_FP_ATTR, (epoch, fingerprint))
    return fingerprint


def _component_key(obj: object) -> tuple:
    """Value key for a policy/estimator; identity for unknown types.

    Keying an unrecognised subclass by instance identity trades cache
    hits for safety: two differently parameterised instances can never
    collide on a stale plan.
    """
    if obj is None:
        return ("none",)
    # Exact type checks on purpose: a subclass may override behaviour
    # while exposing the same parameters, so it must not share entries
    # with the stock class (or with its own other instances).
    if type(obj) is ProportionalTimeout:
        return ("ProportionalTimeout", obj.factor, obj.slack, obj.floor)
    if type(obj) is FixedTimeout:
        return ("FixedTimeout", obj.t0)
    if type(obj) in (BlendEstimator, RttOnlyEstimator, TimeoutOnlyEstimator):
        return (type(obj).__name__,)
    # The instance itself, not id(obj): the key's strong reference pins
    # the object so a freed instance's address can never be reused for a
    # false hit.
    return (type(obj).__name__, obj)


def _restrictions_key(restrictions: StrategyRestrictions) -> tuple:
    """The restrictions other than ``forbidden_peers``: part of the
    family key."""
    return (restrictions.forbid_direct_source, restrictions.max_list_length)


class PlanCache:
    """LRU of ``fingerprint → {client: RecoveryStrategy}``, beside the
    latest plan of the family last missed on."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.hits = 0
        self.misses = 0
        self._entries = LRU(capacity)
        self._family_key: tuple | None = None
        self._family: PlanFamily | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def key_for(self, planner: "RPPlanner") -> tuple:
        """The planner's full cache key (scenario + knob components):
        its family key, then the sorted forbidden peers.

        Includes the routing backend's value key: the landmark backend
        plans against approximate distances, so its strategies must never
        be served to an exact-backend planner of the same scenario (and
        vice versa).
        """
        backend = planner.routing.backend
        cache_key = getattr(backend, "cache_key", None)
        if cache_key is not None:
            backend_key = cache_key()
        else:
            # Unknown backend type: identity-pin the instance, same
            # safety trade as _component_key.
            backend_key = (type(backend).__name__, backend)
        return (
            scenario_fingerprint(planner.tree),
            backend_key,
            _component_key(planner.timeout_policy),
            _component_key(planner.estimator),
            _restrictions_key(planner.restrictions),
            tuple(sorted(planner.restrictions.forbidden_peers)),
        )

    def plans_for(self, planner: "RPPlanner") -> "dict[int, RecoveryStrategy]":
        """Strategies for every client of the planner's tree, cached.

        A hit returns the memoized strategies (frozen, shared by
        reference) in a fresh dict; a miss delegates to
        :meth:`~repro.core.planner.RPPlanner.plan_all` with the
        family's latest plan, if one is held, and stores the result.
        A new dead set on the same tree thus re-solves only the clients
        whose candidates meet a peer that died (or revived) since.
        """
        key = self.key_for(planner)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            if key[:-1] != self._family_key:
                self._family_key, self._family = key[:-1], PlanFamily()
            entry = planner.plan_all(self._family)
            self._entries.put(key, entry)
        else:
            self.hits += 1
        return dict(entry)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        self._entries.clear()
        self._family_key = self._family = None
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, float]:
        """JSON-ready counters: hits, misses, entries, hit_rate."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "hit_rate": (self.hits / total) if total else 0.0,
        }


#: The process-global cache the RP protocol factory plans through.  One
#: per process means parallel sweep workers each warm their own copy —
#: no cross-process coordination, no shared mutable state.
GLOBAL_PLAN_CACHE = PlanCache()


def plans_for(planner: "RPPlanner") -> "dict[int, RecoveryStrategy]":
    """Plan through the process-global cache (module-level convenience)."""
    return GLOBAL_PLAN_CACHE.plans_for(planner)


def clear() -> None:
    """Reset the process's loss-independent memo state: empty the global
    plan cache, reset its counters and drop the shared routing row store
    (:func:`repro.net.routing.clear_shared_rows`), so the next build
    plans and routes from cold."""
    GLOBAL_PLAN_CACHE.clear()
    clear_shared_rows()
