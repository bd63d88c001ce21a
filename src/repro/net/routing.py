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
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict

import numpy as np

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


def _dijkstra(topology: Topology, source: int) -> tuple[np.ndarray, np.ndarray]:
    """Single-source Dijkstra; returns read-only (distances, predecessors).

    Ties are broken toward the smaller predecessor id, making the
    forwarding tree deterministic on equal-cost paths.  The predecessor
    is tracked *tentatively at relaxation time* — an equal-cost
    relaxation from a smaller-id node overwrites the tentative
    predecessor, so the documented rule actually fires.  (The historical
    implementation only assigned ``pred`` at pop time, which left the
    equal-cost comparison reading ``-1`` and made the rule dead code.)
    """
    n = topology.num_nodes
    if not 0 <= source < n:
        raise ValueError(f"unknown node {source}")
    dist = [math.inf] * n
    pred = [-1] * n
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    done = [False] * n
    links = topology.links
    while heap:
        d, node = heapq.heappop(heap)
        if done[node]:
            continue
        done[node] = True
        for neighbor, link_index in topology.incident(node):
            if done[neighbor]:
                continue
            nd = d + links[link_index].delay
            if nd < dist[neighbor]:
                dist[neighbor] = nd
                pred[neighbor] = node
                heapq.heappush(heap, (nd, neighbor))
            elif nd == dist[neighbor] and node < pred[neighbor]:
                # Equal cost, smaller predecessor: adopt it.  No push
                # needed — every equal-cost predecessor is strictly
                # closer than ``neighbor`` (positive delays), so all of
                # them relax before ``neighbor`` pops and the smallest
                # one wins deterministically.
                pred[neighbor] = node
    dist_arr = np.array(dist, dtype=np.float64)
    pred_arr = np.array(pred, dtype=np.int64)
    dist_arr.flags.writeable = False
    pred_arr.flags.writeable = False
    return dist_arr, pred_arr


def _walk_to_root(pred: np.ndarray, node: int) -> list[int]:
    """Node sequence from ``node`` to the tree root along ``pred``."""
    walk = [node]
    cursor = int(pred[node])
    while cursor != -1:
        walk.append(cursor)
        cursor = int(pred[cursor])
    return walk


class _RowLRU:
    """A bounded ``source -> row(s)`` cache shared by both backends."""

    def __init__(self, max_rows: int):
        if max_rows < 1:
            raise ValueError("max_rows must be >= 1")
        self.max_rows = max_rows
        self.evictions = 0
        self._entries: OrderedDict[int, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: int):
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: int, value) -> None:
        self._entries[key] = value
        while len(self._entries) > self.max_rows:
            self._entries.popitem(last=False)
            self.evictions += 1


class ExactDistanceBackend:
    """On-demand exact Dijkstra rows with an LRU memory bound.

    Query results are identical to the historical all-pairs table; the
    only behavioural difference is that a row evicted under memory
    pressure is recomputed on the next query instead of held forever.
    """

    name = "exact"

    def __init__(self, topology: Topology, max_rows: int | None = None):
        self._topology = topology
        if max_rows is None:
            per_row = 16 * max(1, topology.num_nodes)
            max_rows = max(
                EXACT_ROW_CACHE_MIN_ROWS, EXACT_ROW_CACHE_BUDGET // per_row
            )
        self._rows = _RowLRU(max_rows)

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def max_cached_rows(self) -> int:
        return self._rows.max_rows

    @property
    def cached_rows(self) -> int:
        return len(self._rows)

    @property
    def evictions(self) -> int:
        return self._rows.evictions

    def shortest_path_tree(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        entry = self._rows.get(source)
        if entry is None:
            entry = _dijkstra(self._topology, source)
            self._rows.put(source, entry)
        return entry

    def distances_from(self, source: int) -> np.ndarray:
        return self.shortest_path_tree(source)[0]

    def path(self, u: int, v: int) -> list[int]:
        dist, pred = self.shortest_path_tree(u)
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
        # Consults the tree rooted at ``v`` (the hop from ``u`` toward
        # ``v`` is ``u``'s predecessor in ``v``'s tree, by symmetry of
        # the undirected graph), so forwarding a packet through many
        # intermediate routers reuses one cached tree.
        dist, pred = self.shortest_path_tree(v)
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
        if max_rows is None:
            per_row = 8 * max(1, n)
            max_rows = max(
                EXACT_ROW_CACHE_MIN_ROWS, EXACT_ROW_CACHE_BUDGET // per_row
            )
        self._rows = _RowLRU(max_rows)
        self._build(num_landmarks)
        self._build_near_tier(self._near_k)

    def _build(self, count: int) -> None:
        topo = self._topology
        n = topo.num_nodes
        sssp = _scipy_graph(topo)
        if sssp is None:
            sssp = lambda source: _dijkstra(topo, source)  # noqa: E731
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
        are tracked with :func:`_dijkstra`'s exact tie-break (tentative
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
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for link in topo.links:
            adj[link.u].append((link.v, link.delay))
            adj[link.v].append((link.u, link.delay))
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
        path = self.path(u, v)
        return path[1]

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
        return ExactDistanceBackend(topology)
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
        """Expected one-way delay from ``u`` to ``v`` (inf if unreachable)."""
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
        of later queries.  Batch callers (the candidate builder
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
        """First hop on the backend's path from ``u`` toward ``v``."""
        if u == v:
            raise ValueError("next_hop undefined for u == v")
        return self._backend.next_hop(u, v)

    def hop_count(self, u: int, v: int) -> int:
        """Number of links on the backend's path from ``u`` to ``v``."""
        return len(self.path(u, v)) - 1

    def eccentricity(self, u: int) -> float:
        """Largest finite shortest-path delay from ``u`` to any node."""
        dist = self._backend.distances_from(u)
        finite = dist[np.isfinite(dist)]
        return float(finite.max()) if len(finite) else 0.0
