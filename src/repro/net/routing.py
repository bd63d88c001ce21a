"""Unicast routing over expected link delays, behind pluggable backends.

The paper routes unicast packets "along paths that minimize expected value
of round trip time in the network model" (section 5.1) and estimates the
round-trip time ``d_i`` between a client and a peer from the routing table
(section 3.1, the OSPF link-delay argument).  :class:`RoutingTable`
provides exactly that behind one stable query API:

* ``delay(u, v)`` — expected one-way delay (the OSPF estimate);
* ``rtt(u, v)`` — expected round trip time, ``2 * delay`` on the
  symmetric graphs we model;
* ``path(u, v)`` / ``next_hop(u, v)`` — the actual forwarding path, used
  by the packet-level simulator to move unicast packets hop by hop;
* ``distances_from(u)`` — the whole one-way-delay row as a **read-only**
  numpy array, the planner's batch entry point.

Two distance backends implement that API:

:class:`ExactDistanceBackend`
    Single-source Dijkstra per queried source with deterministic
    tie-breaking (equal-cost relaxations resolve toward the smaller
    predecessor id), rows kept as numpy arrays in an LRU bounded by a
    memory budget.  Exact distances and optimal paths — this is the
    historical behaviour, minus the old all-pairs O(V²) cache growth.
    Rows come from :class:`_CoreDijkstra`, the one shortest-path
    routine here: built once per row store on the first query, it strips
    pendant trees (repeatedly removed degree-1 nodes), runs the heap
    Dijkstra on the remaining core and fills each stripped node from its
    one link toward the core — bit-identical to a whole-graph run.  A
    source's first ``path`` miss runs the same heap loop only until the
    target's core attachment pops and caches nothing; its second miss
    computes the full row and admits it to the LRU.  The core, the LRU
    and the set of sources whose first miss was served form one
    :class:`_RowStore`.  Backends that :func:`make_backend` builds by
    name share the store of their delay graph through a one-entry,
    process-wide memo keyed by :func:`delay_graph_digest`, which leaves
    loss probabilities out: the builds of one loss sweep compute each
    row once.  :func:`clear_shared_rows` drops the memo.

:class:`LandmarkDistanceBackend`
    Tiered approximation for large topologies.  A **near tier** holds
    exact distances to each group member's :data:`NEAR_TIER_K` nearest
    neighbors (truncated Dijkstra, symmetrized).  Members are the
    ``CLIENT`` and ``SOURCE`` nodes — the endpoints of every ``d_i`` the
    paper plans with; a topology with no ``CLIENT`` node (a bare
    backbone) builds a ball at every node.  Beyond the balls, a
    triangle-inequality **landmark tier** takes over: ``L`` landmarks
    chosen by farthest-point sampling, one Dijkstra tree per landmark,
    and ``d(u, v) ≈ min_l d(l, u) + d(l, v)`` — an upper bound on the
    true distance, exact whenever either endpoint is a landmark.  Paths
    route through the best landmark's shortest-path tree (spliced at
    the first shared tree node, so they never detour through the
    landmark itself).  O(L·V + k·M) memory total for ``M`` members,
    O(L·V) per row.

Backend selection is automatic by topology size (exact up to
:data:`EXACT_AUTO_MAX_NODES` nodes, landmark beyond) and can be forced
per table with the ``backend=`` constructor argument (``exact`` /
``landmark`` / ``auto``, or a backend instance).  See
``docs/PERFORMANCE.md`` ("Distance backends") for the memory model.

Only the landmark build imports scipy, lazily, for its C Dijkstra (the
core routine stands in when scipy is missing).  Importing
``scipy.sparse`` alone adds about 22 MiB of resident memory, so the
exact backend never does.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from operator import attrgetter

import numpy as np

from repro.lru import LRU
from repro.net.topology import NodeKind, Topology

#: Node count up to which ``auto`` picks the exact backend.  Beyond it a
#: per-client Dijkstra sweep (the planner queries one row per client)
#: stops being affordable and ``auto`` switches to landmarks.
EXACT_AUTO_MAX_NODES = 20_000

#: Soft memory budget (bytes) for the exact backend's row cache.  One
#: row is a distance + predecessor array pair: ``16 * num_nodes`` bytes.
EXACT_ROW_CACHE_BUDGET = 128 << 20

#: The exact row cache never shrinks below this many rows, so small
#: topologies (every simulation scenario) keep every row — identical
#: caching behaviour to the historical all-pairs table.
EXACT_ROW_CACHE_MIN_ROWS = 64

#: Per-member exact-neighborhood size for the landmark backend's near
#: tier.  Landmark upper bounds are loosest exactly where the planner
#: looks hardest — a client's closest recovery peers — so the backend
#: keeps *exact* distances to each member's ``k`` nearest neighbors
#: (symmetrized: a pair is exact when either endpoint lies in the
#: other's ball) and only falls back to the landmark bound beyond them.
#: O(k·M) memory for ``M`` members; measured on the 600-router
#: reference sweep, k=32 closes the plan-quality gap from ~47% to under
#: 0.2%.
NEAR_TIER_K = 32


def _adjacency(topology: Topology) -> list[list[tuple[int, float]]]:
    """Per-node ``(neighbor, delay)`` lists, in link order."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(topology.num_nodes)]
    for link in topology.links:
        adj[link.u].append((link.v, link.delay))
        adj[link.v].append((link.u, link.delay))
    return adj


class _CoreDijkstra:
    """Exact single-source shortest paths over a pendant-stripped core.

    The build repeatedly strips degree-1 nodes.  Each stripped node keeps
    its one link toward the core (``up`` and that link's delay); what
    remains is the *core* (the 2-core, plus one root per tree
    component), which keeps its own adjacency.  A row for ``source``
    then costs a heap Dijkstra over the core alone:

    * a stripped ``source`` first walks up its pendant chain to the
      core, summing delays one link at a time with predecessors
      pointing back toward ``source``;
    * Dijkstra runs on the core, seeded at the chain's attachment node
      with the chain's distance;
    * the other stripped nodes are filled in reverse strip order (each
      one's ``up`` is settled before it): ``dist[v] = dist[up] + delay``,
      ``pred[v] = up``; unreachable ones stay ``inf``/``-1``.

    Ties are broken toward the smaller predecessor id, and predecessors
    are tracked *tentatively at relaxation time*: an equal-cost
    relaxation from a smaller-id node overwrites the tentative
    predecessor, so the rule holds whatever the heap pop order.

    Rows are bit-identical to a Dijkstra over the whole graph.  Delays
    are positive, so ``dist[v]`` is the minimum of ``dist[u] + delay``
    over neighbors ``u`` settled before ``v``, and ``pred[v]`` is the
    smallest such ``u``.  A stripped node has a single route to the
    core, so the fill performs the same single float addition the full
    run performs, and no path between two core nodes leaves the core.

    :meth:`path` runs the same heap loop with a stop node, for one walk.
    """

    def __init__(self, topology: Topology):
        n = topology.num_nodes
        adj = _adjacency(topology)
        degree = [len(neighbors) for neighbors in adj]
        stripped = [False] * n
        up = [-1] * n
        up_delay = [0.0] * n
        order: list[int] = []
        stack = [v for v in range(n) if degree[v] == 1]
        while stack:
            v = stack.pop()
            if degree[v] != 1:
                continue  # the last node of a tree component: its core
            for u, w in adj[v]:
                if not stripped[u]:
                    break
            stripped[v] = True
            order.append(v)
            up[v] = u
            up_delay[v] = w
            degree[v] = 0
            degree[u] -= 1
            if degree[u] == 1:
                stack.append(u)
        self._num_nodes = n
        self._up = up
        self._up_delay = up_delay
        self._core = [
            [] if stripped[v] else [(u, w) for u, w in adj[v] if not stripped[u]]
            for v in range(n)
        ]
        self._fill = [(v, up[v], up_delay[v]) for v in reversed(order)]

    def _check(self, node: int) -> None:
        if not 0 <= node < self._num_nodes:
            raise ValueError(f"unknown node {node}")

    def _settle(self, source: int, target: int = -1) -> tuple[list, list, int]:
        """The source's chain walk and the core heap loop, as lists.

        With ``target >= 0`` the loop stops once ``target``'s
        attachment pops and returns it as the third value; without one it
        settles every reachable core node (the attachment is ``-1``).
        The attachment is the first node on ``target``'s ``up`` chain
        (``target`` included) that is a core node or lies on the
        source's own chain, whose entries the walk has already set.
        """
        n = self._num_nodes
        inf = math.inf
        dist = [inf] * n
        pred = [-1] * n
        up = self._up
        up_delay = self._up_delay
        d = 0.0
        node = source
        dist[source] = d
        while up[node] != -1:
            parent = up[node]
            d = d + up_delay[node]
            dist[parent] = d
            pred[parent] = node
            node = parent
        stop = target
        if stop >= 0:
            while dist[stop] == inf and up[stop] != -1:
                stop = up[stop]
            if dist[stop] != inf:
                return dist, pred, stop  # on the source's own chain
        core = self._core
        heappush, heappop = heapq.heappush, heapq.heappop
        done = [False] * n
        heap = [(d, node)]
        while heap:
            d, node = heappop(heap)
            if done[node]:
                continue
            done[node] = True
            if node == stop:
                break
            for neighbor, w in core[node]:
                if done[neighbor]:
                    continue
                nd = d + w
                best = dist[neighbor]
                if nd < best:
                    dist[neighbor] = nd
                    pred[neighbor] = node
                    heappush(heap, (nd, neighbor))
                elif nd == best and node < pred[neighbor]:
                    # Equal cost, smaller predecessor: adopt it.  No push
                    # needed — every equal-cost predecessor is strictly
                    # closer than ``neighbor`` (positive delays), so all of
                    # them relax before ``neighbor`` pops and the smallest
                    # one wins deterministically.
                    pred[neighbor] = node
        return dist, pred, stop

    def row(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(distances, predecessors)`` arrays from ``source``."""
        self._check(source)
        dist, pred, _ = self._settle(source)
        inf = math.inf
        # Source's own chain is already set (finite); every other
        # stripped node is still inf and hangs off a settled ``up``.
        for v, parent, w in self._fill:
            if dist[v] == inf:
                d = dist[parent]
                if d != inf:
                    dist[v] = d + w
                    pred[v] = parent
        dist_arr = np.array(dist, dtype=np.float64)
        pred_arr = np.array(pred, dtype=np.int64)
        dist_arr.flags.writeable = False
        pred_arr.flags.writeable = False
        return dist_arr, pred_arr

    def path(self, source: int, target: int) -> list[int]:
        """The walk :meth:`row`'s predecessors give from ``source`` to
        ``target``, settling only the core nodes that pop before
        ``target``'s attachment.

        The walk is bit-identical to the full row's: a popped core
        node's ``dist`` and ``pred`` are final (every equal-cost
        predecessor is strictly closer, so it relaxes first), and so
        are those of every node its ``pred`` chain reaches.  Below the
        attachment, ``target``'s chain is the fill's ``pred = up``.
        """
        self._check(source)
        self._check(target)
        dist, pred, stop = self._settle(source, target)
        if dist[stop] == math.inf:
            raise ValueError(f"node {target} unreachable from {source}")
        up = self._up
        walk = [target]
        node = target
        while node != stop:
            node = up[node]
            walk.append(node)
        while node != source:
            node = pred[node]
            walk.append(node)
        walk.reverse()
        return walk


def _walk_to_root(pred: np.ndarray, node: int) -> list[int]:
    """Node sequence from ``node`` to the tree root along ``pred``."""
    walk = [node]
    cursor = int(pred[node])
    while cursor != -1:
        walk.append(cursor)
        cursor = int(pred[cursor])
    return walk


def _row_capacity(max_rows: int | None, row_bytes: int) -> int:
    """A row LRU's size: ``max_rows``, or by default as many
    ``row_bytes``-sized rows as the budget holds."""
    if max_rows is None:
        max_rows = max(
            EXACT_ROW_CACHE_MIN_ROWS, EXACT_ROW_CACHE_BUDGET // row_bytes
        )
    if max_rows < 1:
        raise ValueError("max_rows must be >= 1")
    return max_rows


#: Attribute used to memoize the delay-graph digest on a topology.
_GRAPH_DIGEST_ATTR = "_routing_graph_digest"


def delay_graph_digest(topology: Topology) -> bytes:
    """SHA-256 of everything routing reads from ``topology``.

    Covers the node count and every link's ``(u, v, delay)`` in link
    order, hashed as contiguous arrays of raw bytes (the delays bit for
    bit, the counts up front).  Loss probabilities are excluded: routing
    follows expected delays only, so the builds of one loss sweep share
    a digest.  The plan cache's scenario fingerprint hashes the same
    digest.

    Memoized on the topology and revalidated against its node and link
    counts, which every :class:`Topology` mutation but
    :meth:`~Topology.set_loss_prob` (which keeps the delays) changes.
    """
    links = topology.links
    counts = (topology.num_nodes, len(links))
    cached = getattr(topology, _GRAPH_DIGEST_ATTR, None)
    if cached is not None and cached[0] == counts:
        return cached[1]
    digest = hashlib.sha256(np.array(counts, dtype=np.int64).tobytes())
    for field, dtype in (("u", np.int64), ("v", np.int64),
                         ("delay", np.float64)):
        column = np.fromiter(map(attrgetter(field), links), dtype, len(links))
        digest.update(column.tobytes())
    value = digest.digest()
    setattr(topology, _GRAPH_DIGEST_ATTR, (counts, value))
    return value


class _RowStore:
    """One delay graph's exact-routing state: its :class:`_CoreDijkstra`,
    the row LRU and the sources whose first ``path`` miss ran an
    early-stopped search (the second-touch set).  Built at a backend's
    first query, so a table that is never queried builds nothing."""

    __slots__ = ("core", "rows", "path_missed")

    def __init__(self, topology: Topology, max_rows: int):
        self.core = _CoreDijkstra(topology)
        self.rows = LRU(max_rows)
        self.path_missed: set[int] = set()

    def admit(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """Compute ``source``'s row and cache it."""
        entry = self.core.row(source)
        self.rows.put(source, entry)
        return entry


#: ``(delay-graph digest, store)`` of the last graph a backend built by
#: name queried: one entry, so at most one graph's rows stay alive here.
_shared: tuple[bytes, _RowStore] | None = None


def _shared_store(topology: Topology, max_rows: int) -> _RowStore:
    """The memoized store for ``topology``'s delay graph, replacing the
    memo when the graph differs.  ``max_rows`` is the default capacity,
    a function of the node count, which the digest covers."""
    global _shared
    digest = delay_graph_digest(topology)
    if _shared is None or _shared[0] != digest:
        _shared = (digest, _RowStore(topology, max_rows))
    return _shared[1]


def clear_shared_rows() -> None:
    """Drop the shared row store, so the next build computes its rows
    afresh.  :func:`repro.core.plan_cache.clear` calls it."""
    global _shared
    _shared = None


class ExactDistanceBackend:
    """On-demand exact Dijkstra rows with an LRU memory bound.

    Query results are identical to the historical all-pairs table; the
    only behavioural difference is that a row evicted under memory
    pressure is recomputed on the next query instead of held forever.
    Rows, the LRU and the second-touch set live in a :class:`_RowStore`
    taken at the first query, so a table that is never queried costs
    nothing.  A backend constructed directly keeps a private store; one
    that :func:`make_backend` builds by name (as ``RoutingTable`` and
    ``build_scenario`` do) takes the shared store of its delay graph, so
    it starts with the rows an earlier build of the same graph computed.
    :attr:`cached_rows` and :attr:`evictions` read the store's counts.

    ``path`` admits rows on second touch.  The first time a source
    misses the cache, :meth:`_CoreDijkstra.path` stops the search once
    the target's core attachment pops and nothing is cached, so a source
    routed from only once neither pays for a full row nor evicts a row
    the planner still reads.  Every later miss from that source computes
    the full row and caches it.  The walk is the same either way.
    ``distances_from`` and ``next_hop`` always use full rows.
    """

    name = "exact"

    def __init__(self, topology: Topology, max_rows: int | None = None):
        self._topology = topology
        self._max_rows = _row_capacity(
            max_rows, 16 * max(1, topology.num_nodes)
        )
        self._shares_rows = False  # set by make_backend
        self._store: _RowStore | None = None
        # The store's LRU once taken; until then an empty dict, so a
        # lookup misses without a check on the hit path.
        self._rows: LRU | dict = {}

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def max_cached_rows(self) -> int:
        return self._max_rows

    @property
    def cached_rows(self) -> int:
        return len(self._rows)

    @property
    def evictions(self) -> int:
        return self._store.rows.evictions if self._store is not None else 0

    def _take_store(self) -> _RowStore:
        store = self._store
        if store is None:
            make = _shared_store if self._shares_rows else _RowStore
            store = self._store = make(self._topology, self._max_rows)
            self._rows = store.rows
        return store

    def shortest_path_tree(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        entry = self._rows.get(source)
        if entry is None:
            # Look again in the store: the miss that takes a shared
            # store looked in the empty dict.
            store = self._take_store()
            entry = store.rows.get(source)
            if entry is None:
                entry = store.admit(source)
        return entry

    def distances_from(self, source: int) -> np.ndarray:
        return self.shortest_path_tree(source)[0]

    def path(self, u: int, v: int) -> list[int]:
        entry = self._rows.get(u)
        if entry is None:
            store = self._take_store()
            entry = store.rows.get(u)
            if entry is None:
                if u not in store.path_missed:
                    # Second-touch admission: a source's first miss runs
                    # an early-stopped search and caches nothing.
                    store.path_missed.add(u)
                    return store.core.path(u, v)
                entry = store.admit(u)
        dist, pred = entry
        if not 0 <= v < len(dist):
            raise ValueError(f"unknown node {v}")
        if math.isinf(dist[v]):
            raise ValueError(f"node {v} unreachable from {u}")
        reverse = [int(v)]
        node = int(v)
        while node != u:
            node = int(pred[node])
            reverse.append(node)
        reverse.reverse()
        return reverse

    def next_hop(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError("next_hop undefined for u == v")
        # Consults the tree rooted at ``v`` (the hop from ``u`` toward
        # ``v`` is ``u``'s predecessor in ``v``'s tree, by symmetry of
        # the undirected graph), so forwarding a packet through many
        # intermediate routers reuses one cached tree.
        dist, pred = self.shortest_path_tree(v)
        if not 0 <= u < len(dist):
            raise ValueError(f"unknown node {u}")
        if math.isinf(dist[u]):
            # The check reads u's entry in v's tree, so what it
            # establishes is that u cannot reach v's component (the two
            # are equivalent on our undirected graphs, but the message
            # should state what was checked).
            raise ValueError(f"node {u} unreachable from {v}")
        return int(pred[u])

    def cache_key(self) -> tuple:
        """Value component for the plan-cache fingerprint."""
        return ("exact",)


def default_num_landmarks(num_nodes: int) -> int:
    """Default landmark count: ``~sqrt(V)`` clamped to ``[8, 64]``.

    More landmarks tighten the triangle-inequality upper bound (the
    estimate is exact whenever either endpoint is a landmark) at O(V)
    memory and one Dijkstra tree each.
    """
    if num_nodes <= 0:
        return 1
    return min(num_nodes, min(64, max(8, int(round(num_nodes**0.5)))))


def _scipy_graph(topology: Topology):
    """CSR adjacency for scipy's C Dijkstra, or ``None`` without scipy."""
    try:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra
    except ImportError:  # pragma: no cover - scipy is in the stock env
        return None
    if not topology.links:
        return None
    rows = np.fromiter((l.u for l in topology.links), dtype=np.int64)
    cols = np.fromiter((l.v for l in topology.links), dtype=np.int64)
    weights = np.fromiter((l.delay for l in topology.links), dtype=np.float64)
    n = topology.num_nodes
    matrix = csr_matrix((weights, (rows, cols)), shape=(n, n))

    def run(source: int) -> tuple[np.ndarray, np.ndarray]:
        dist, pred = csgraph_dijkstra(
            matrix, directed=False, indices=source, return_predecessors=True
        )
        pred = pred.astype(np.int64)
        pred[pred < 0] = -1
        return dist, pred

    return run


class LandmarkDistanceBackend:
    """Approximate distances: a near-exact k-NN tier over a
    farthest-point landmark embedding.

    Two tiers answer every query:

    * **Near tier** — exact Dijkstra distances to each member's
      ``near_k`` nearest neighbors, symmetrized (a pair is exact when
      either endpoint lies in the other's ball).  Members are the
      ``CLIENT`` and ``SOURCE`` nodes, or every node when the topology
      has no ``CLIENT``.  O(near_k·M) memory for ``M`` members.  This is
      where plan quality is decided: the planner chases each client's
      *closest* peers, exactly the pairs a landmark bound estimates
      worst.  Every member pair is answered from one of its two balls,
      both of which are built, so member–member answers equal an
      every-node build's; a pair with a non-member endpoint may fall
      back to the landmark bound where the non-member's ball would have
      reached the other endpoint.
    * **Landmark tier** — for everything beyond the balls,
      ``d(u,v) <= min_l d(l,u) + d(l,v)`` by the triangle inequality:
      an upper bound on the true delay, exact whenever either endpoint
      is a landmark or both lie on one landmark's tree path.

    Estimates never fall below the true distance (both tiers are exact
    or upper bounds).  Paths are real walks in the graph: an in-ball
    pair walks the ball owner's truncated shortest-path tree — an exact
    shortest path, identical to the exact backend's — and everything
    beyond the balls splices the root paths of ``u`` and ``v`` in the
    best landmark's shortest-path tree at their first shared node (an
    upper-bound walk whose delay may exceed the pair's estimate).

    Memory: ``L`` distance + predecessor rows (``16·L·V`` bytes) plus
    the near-tier CSR (``<= 32·near_k·M`` bytes) plus an LRU of
    estimated rows — no O(V²) term, which is what lets 100k+ node
    topologies route at all.
    """

    name = "landmark"

    def __init__(
        self,
        topology: Topology,
        num_landmarks: int | None = None,
        max_rows: int | None = None,
        near_k: int | None = None,
    ):
        self._topology = topology
        n = topology.num_nodes
        if n == 0:
            raise ValueError("cannot route an empty topology")
        if num_landmarks is None:
            num_landmarks = default_num_landmarks(n)
        if not 1 <= num_landmarks <= n:
            raise ValueError(
                f"num_landmarks must be in [1, {n}], got {num_landmarks}"
            )
        if near_k is None:
            near_k = NEAR_TIER_K
        if near_k < 0:
            raise ValueError(f"near_k must be >= 0, got {near_k}")
        self._near_k = min(near_k, n - 1) if n > 1 else 0
        self._rows = LRU(_row_capacity(max_rows, 8 * max(1, n)))
        self._build(num_landmarks)
        self._build_near_tier(self._near_k)

    def _build(self, count: int) -> None:
        topo = self._topology
        n = topo.num_nodes
        sssp = _scipy_graph(topo)
        if sssp is None:
            sssp = _CoreDijkstra(topo).row
        # First landmark: the source when the topology has one (queries
        # concentrate around it), node 0 otherwise.  Then farthest-point
        # sampling: each next landmark maximizes the distance to the
        # chosen set (np.argmax takes the first maximum — deterministic;
        # unreachable components have inf distance, so sampling jumps
        # into them first and every component gets covered).
        try:
            first = topo.source
        except ValueError:
            first = 0
        landmarks = [first]
        dist_rows = []
        pred_rows = []
        d, p = sssp(first)
        dist_rows.append(d)
        pred_rows.append(p)
        min_dist = d.copy()
        while len(landmarks) < count:
            min_dist[np.asarray(landmarks)] = -1.0
            nxt = int(np.argmax(min_dist))
            if min_dist[nxt] <= 0.0:
                break  # every node is already a landmark or at distance 0
            landmarks.append(nxt)
            d, p = sssp(nxt)
            dist_rows.append(d)
            pred_rows.append(p)
            np.minimum(min_dist, d, out=min_dist)
        self._landmarks = tuple(landmarks)
        self._dist = np.vstack(dist_rows)
        self._pred = np.vstack(pred_rows)
        self._dist.flags.writeable = False
        self._pred.flags.writeable = False

    def _build_near_tier(self, k: int) -> None:
        """Exact distances to each member's ``k`` nearest neighbors.

        Members are the ``CLIENT`` and ``SOURCE`` nodes, read from the
        topology (the multicast tree marks its leaves ``CLIENT`` before
        the routing table is built); with no ``CLIENT`` node every node
        is a member.  A member pair is answered from one of its own two
        balls, so no member-pair answer depends on which other nodes
        have balls, and the member set adds nothing to
        :meth:`cache_key`.

        One truncated Dijkstra per member (it stops after ``k`` settles,
        so the recorded distances are exact and bit-identical to the
        full run's — same heap entries, same pop order).  Predecessors
        are tracked with :class:`_CoreDijkstra`'s exact tie-break (tentative
        assignment, equal-cost smaller-id adoption); every equal-cost
        relaxer of a settled node is strictly closer and therefore also
        settles before the break, so the recorded predecessor of every
        ball member is identical to the full run's.  That makes in-ball
        ``path()`` walks exact, not just in-ball distances.  The
        per-node ``best``/``pred``/``done`` lists are allocated once;
        after each ball its touched nodes get ``best``/``done`` reset,
        and ``pred`` needs none (it is written whenever ``best`` leaves
        ``inf``, before anything reads it).

        The directed results are kept as a per-source CSR (for the
        predecessor walks) and also symmetrized into one CSR structure
        for distance overlays, keeping the smaller value when both
        directions discovered a pair (reversed path sums may differ by
        an ULP).
        """
        topo = self._topology
        n = topo.num_nodes
        if k <= 0 or not topo.links:
            self._near_indptr = np.zeros(n + 1, dtype=np.int64)
            self._near_cols = np.zeros(0, dtype=np.int64)
            self._near_dist = np.zeros(0, dtype=np.float64)
            self._ball_indptr = np.zeros(n + 1, dtype=np.int64)
            self._ball_cols = np.zeros(0, dtype=np.int64)
            self._ball_pred = np.zeros(0, dtype=np.int64)
            return
        adj = _adjacency(topo)
        members = topo.nodes_of_kind(NodeKind.CLIENT)
        if members:
            members = sorted(members + topo.nodes_of_kind(NodeKind.SOURCE))
        else:
            members = range(n)
        srcs: list[int] = []
        dsts: list[int] = []
        vals: list[float] = []
        preds: list[int] = []
        heappush, heappop = heapq.heappush, heapq.heappop
        inf = math.inf
        best = [inf] * n
        pred = [-1] * n
        done = [False] * n
        for source in members:
            best[source] = 0.0
            touched = [source]
            heap = [(0.0, source)]
            found = 0
            while heap:
                d, node = heappop(heap)
                if done[node]:
                    continue
                done[node] = True
                if node != source:
                    srcs.append(source)
                    dsts.append(node)
                    vals.append(d)
                    preds.append(pred[node])
                    found += 1
                    if found == k:
                        break
                for nb, w in adj[node]:
                    if not done[nb]:
                        nd = d + w
                        b = best[nb]
                        if nd < b:
                            if b == inf:
                                touched.append(nb)
                            best[nb] = nd
                            pred[nb] = node
                            heappush(heap, (nd, nb))
                        elif nd == b and node < pred[nb]:
                            pred[nb] = node
            for node in touched:
                best[node] = inf
                done[node] = False
        src = np.asarray(srcs, dtype=np.int64)
        dst = np.asarray(dsts, dtype=np.int64)
        val = np.asarray(vals, dtype=np.float64)
        # Directed per-source CSR with predecessors: sources were
        # visited in ascending order, so only an in-row sort is needed.
        dorder = np.lexsort((dst, src))
        ball_cols = dst[dorder]
        ball_pred = np.asarray(preds, dtype=np.int64)[dorder]
        ball_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src[dorder], minlength=n), out=ball_indptr[1:])
        for arr in (ball_indptr, ball_cols, ball_pred):
            arr.flags.writeable = False
        self._ball_indptr = ball_indptr
        self._ball_cols = ball_cols
        self._ball_pred = ball_pred
        rows = np.concatenate([src, dst])
        cols = np.concatenate([dst, src])
        both = np.concatenate([val, val])
        order = np.lexsort((both, cols, rows))
        rows, cols, both = rows[order], cols[order], both[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        rows, cols, both = rows[first], cols[first], both[first]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        for arr in (indptr, cols, both):
            arr.flags.writeable = False
        self._near_indptr = indptr
        self._near_cols = cols
        self._near_dist = both

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def near_k(self) -> int:
        """Requested exact-neighborhood size (0 disables the near tier)."""
        return self._near_k

    def near_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The symmetrized near tier as read-only CSR arrays
        ``(indptr, cols, dists)`` — node ``u``'s exact pairs are
        ``cols[indptr[u]:indptr[u+1]]``.  The batched planner mirrors
        :meth:`distances_from`'s overlay from these."""
        return self._near_indptr, self._near_cols, self._near_dist

    @property
    def landmarks(self) -> tuple[int, ...]:
        return self._landmarks

    @property
    def landmark_matrix(self) -> np.ndarray:
        """Read-only ``(L, V)`` matrix of landmark-to-node delays."""
        return self._dist

    def _check(self, node: int) -> None:
        if not 0 <= node < self._topology.num_nodes:
            raise ValueError(f"unknown node {node}")

    def distances_from(self, source: int) -> np.ndarray:
        self._check(source)
        row = self._rows.get(source)
        if row is None:
            row = np.min(self._dist + self._dist[:, source : source + 1], axis=0)
            lo, hi = self._near_indptr[source], self._near_indptr[source + 1]
            if hi > lo:
                # Near-tier overlay: exact values win wherever the ball
                # reaches (the landmark sum is an upper bound, so the
                # minimum can only tighten).
                cols = self._near_cols[lo:hi]
                row[cols] = np.minimum(row[cols], self._near_dist[lo:hi])
            row[source] = 0.0
            row.flags.writeable = False
            self._rows.put(source, row)
        return row

    def best_landmark(self, u: int, v: int) -> int:
        """Index (into :attr:`landmarks`) of the landmark minimizing the
        ``u``/``v`` estimate; first minimum on ties."""
        self._check(u)
        self._check(v)
        return int(np.argmin(self._dist[:, u] + self._dist[:, v]))

    def _ball_walk(self, source: int, target: int) -> list[int] | None:
        """Exact ``source -> target`` path along ``source``'s truncated
        shortest-path tree, or ``None`` when ``target`` is outside the
        ball.  Bit-identical to the exact backend's walk (same
        predecessors, see :meth:`_build_near_tier`)."""
        lo = int(self._ball_indptr[source])
        hi = int(self._ball_indptr[source + 1])
        if lo == hi:
            return None
        cols = self._ball_cols[lo:hi]
        preds = self._ball_pred[lo:hi]
        walk = [target]
        cur = target
        while cur != source:
            i = int(np.searchsorted(cols, cur))
            if i >= cols.size or cols[i] != cur:
                return None
            cur = int(preds[i])
            walk.append(cur)
        walk.reverse()
        return walk

    def path(self, u: int, v: int) -> list[int]:
        if u == v:
            self._check(u)
            return [u]
        self._check(u)
        self._check(v)
        # Near tier first: when either endpoint lies in the other's
        # ball the walk is a true shortest path (u's tree preferred so
        # the result matches the exact backend's u-rooted walk).
        walk = self._ball_walk(u, v)
        if walk is not None:
            return walk
        walk = self._ball_walk(v, u)
        if walk is not None:
            walk.reverse()
            return walk
        best = self.best_landmark(u, v)
        dist = self._dist[best]
        if math.isinf(dist[u]) or math.isinf(dist[v]):
            raise ValueError(f"node {v} unreachable from {u}")
        pred = self._pred[best]
        walk_u = _walk_to_root(pred, u)
        walk_v = _walk_to_root(pred, v)
        # The two root paths merge at their first shared node and stay
        # merged (tree property), so splicing there yields a simple
        # walk u -> meet -> v with delay <= d(l,u) + d(l,v).
        on_u = {node: i for i, node in enumerate(walk_u)}
        for j, node in enumerate(walk_v):
            if node in on_u:
                return walk_u[: on_u[node]] + walk_v[j::-1]
        raise AssertionError("landmark tree walks never met")  # pragma: no cover

    def next_hop(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError("next_hop undefined for u == v")
        return self.path(u, v)[1]

    def cache_key(self) -> tuple:
        """Value component for the plan-cache fingerprint.

        Landmarks and near-tier balls are deterministic functions of the
        topology, so the two sizes (plus the backend name) disambiguate
        fully once the scenario fingerprint has pinned the topology.
        """
        return ("landmark", len(self._landmarks), self._near_k)


def make_backend(kind: str, topology: Topology):
    """Construct a distance backend by name (``exact`` / ``landmark`` /
    ``auto``).  ``auto`` picks exact for topologies up to
    :data:`EXACT_AUTO_MAX_NODES` nodes and landmark beyond."""
    if kind == "auto":
        kind = (
            "exact"
            if topology.num_nodes <= EXACT_AUTO_MAX_NODES
            else "landmark"
        )
    if kind == "exact":
        backend = ExactDistanceBackend(topology)
        backend._shares_rows = True
        return backend
    if kind == "landmark":
        return LandmarkDistanceBackend(topology)
    raise ValueError(
        f"unknown routing backend {kind!r}"
        " (expected 'exact', 'landmark' or 'auto')"
    )


class RoutingTable:
    """Shortest-delay routing on a :class:`Topology` behind a distance
    backend.

    The topology must not be mutated after the table is constructed;
    mutation invalidates cached trees silently.  Construct a new table
    instead.

    Parameters
    ----------
    topology:
        The graph to route over.
    backend:
        A backend instance, a backend name (``"exact"`` / ``"landmark"``
        / ``"auto"``); ``None`` means ``"auto"``.
    """

    def __init__(self, topology: Topology, backend=None):
        self._topology = topology
        self._num_nodes = topology.num_nodes
        if backend is None:
            backend = "auto"
        if isinstance(backend, str):
            backend = make_backend(backend, topology)
        if backend.topology is not topology:
            raise ValueError("backend was built for a different topology")
        self._backend = backend

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def backend(self):
        """The live distance backend (exact or landmark)."""
        return self._backend

    @property
    def backend_name(self) -> str:
        return self._backend.name

    # -- queries --------------------------------------------------------------

    def delay(self, u: int, v: int) -> float:
        """Expected one-way delay from ``u`` to ``v`` (inf if unreachable).

        Raises ``ValueError`` for an unknown endpoint (the backend's
        ``distances_from`` checks ``u``).
        """
        if not 0 <= v < self._num_nodes:
            raise ValueError(f"unknown node {v}")
        return float(self._backend.distances_from(u)[v])

    def rtt(self, u: int, v: int) -> float:
        """Expected round-trip time between ``u`` and ``v``.

        The paper takes "over twice the one-way delay"; on our symmetric
        links the minimum round trip is exactly twice the one-way delay.
        """
        return 2.0 * self.delay(u, v)

    def distances_from(self, source: int) -> np.ndarray:
        """One-way delays from ``source`` to every node (inf when
        unreachable), indexed by node id.

        Returns the cached backend row as a **read-only** numpy array —
        writing through it raises, so no caller can corrupt the answers
        of later queries.  Batch callers (the planner's row stage
        evaluates every peer of one client) index it directly instead of
        paying the per-pair ``delay``/``rtt`` call chain.
        """
        return self._backend.distances_from(source)

    def reachable(self, u: int, v: int) -> bool:
        return math.isfinite(self.delay(u, v))

    def path(self, u: int, v: int) -> list[int]:
        """Node sequence of a shortest-delay path from ``u`` to ``v``
        (the exact backend; the landmark backend returns its best
        landmark-tree walk).

        Returns ``[u]`` when ``u == v``.  Raises ``ValueError`` when ``v``
        is unreachable from ``u``.
        """
        return self._backend.path(u, v)

    def next_hop(self, u: int, v: int) -> int:
        """First hop on the backend's path from ``u`` toward ``v``.

        Raises ``ValueError`` when ``u == v`` (there is no hop).
        """
        return self._backend.next_hop(u, v)

    def hop_count(self, u: int, v: int) -> int:
        """Number of links on the backend's path from ``u`` to ``v``."""
        return len(self.path(u, v)) - 1

    def eccentricity(self, u: int) -> float:
        """Largest finite shortest-path delay from ``u`` to any node."""
        dist = self._backend.distances_from(u)
        finite = dist[np.isfinite(dist)]
        return float(finite.max()) if len(finite) else 0.0
