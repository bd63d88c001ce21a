"""Array-native RP planning: the one path behind ``RPPlanner.plan``,
``RPPlanner.plan_clients`` and ``RPPlanner.plan_all``.

The paper's per-client pipeline — candidates (Lemma 4), the strategy
graph (Definition 1), Algorithm 1 — runs here as array passes over many
clients at once:

1.  **Candidates.**  A competitive class of client ``u`` at ancestor
    ``a`` (child ``c`` toward ``u``) is ``subtree(a) \\ subtree(c)``:
    two preorder intervals of the clients.  Its candidate is the member
    with the smallest ``(rtt, node id)``.  The **row stage** (any set of
    clients on any backend, ``plan_all`` on the exact one) takes one
    ``distances_from`` row per client, in chunks; the ``2·depth + 1``
    preorder intervals of the client's root path tile the row, so
    segmented minima answer every class.  The **landmark stage**
    (``plan_all`` on a landmark backend) builds no row: with
    ``d(u,v) = min_l D[l,u] + D[l,v]`` a class minimum is
    ``min_l (D[l,u] + min_{v∈C} D[l,v])``, so range-minimum queries per
    tree edge answer every class, and near-tier ball pairs are overlaid
    at their tree LCA.  Its RTTs are bit-equal to the rows'; ties inside
    a class go to the smaller preorder position, and unreachable
    classes are dropped.
2.  **Restrictions** as :class:`~repro.core.strategy_graph.StrategyGraph`
    applies them: a forbidden class winner drops its whole class (the
    runner-up is not promoted); ``forbid_direct_source`` deletes
    ``u → S``.
3.  **Algorithm 1** in lockstep over all clients with the same candidate
    count (:func:`_algorithm1`), bounded lists included.

A client's plan therefore reads the forbidden set only through its own
candidate pairs, and Algorithm 1's arithmetic is elementwise per client.
Given the :class:`PlanFamily` of an earlier ``plan_all`` that differs
only in ``forbidden_peers``, ``plan_all`` re-solves just the clients
with a candidate peer in the symmetric difference of the two forbidden
sets, on the held pairs, and keeps every other client's held strategy:
the result is the one a full solve returns, bit for bit.

Plans are bit-identical to ``searching_minimal_delay[_bounded]`` over
``RPPlanner.strategy_graph_for``, the reference the tests hold them to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.core.candidates import Candidate
from repro.net.mcast_tree import floor_log2
from repro.net.routing import LandmarkDistanceBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.planner import RecoveryStrategy, RPPlanner


class CandidatePairs(NamedTuple):
    """Candidates as flat arrays, grouped by planned client (``client``
    indexes the planned-client array) and by decreasing ``ds``."""

    client: np.ndarray
    ds: np.ndarray
    rtt: np.ndarray
    peer: np.ndarray
    source_rtt: np.ndarray  # one per planned client


@dataclass(slots=True)
class PlanFamily:
    """The latest ``plan_all`` of one family of planning problems — the
    same tree, routing, timeout policy, estimator and restrictions up
    to ``forbidden_peers``: its candidate pairs before restrictions,
    the forbidden set it was solved under and its strategies."""

    pairs: CandidatePairs | None = None
    forbidden: frozenset = frozenset()
    strategies: "dict[int, RecoveryStrategy]" = field(default_factory=dict)


def plan_all(
    planner: "RPPlanner", family: PlanFamily | None = None
) -> "dict[int, RecoveryStrategy]":
    """Strategies for every client, keyed in ``tree.clients`` order.

    With a ``family`` holding an earlier plan of the planner's family,
    only the clients whose candidates meet a peer newly forbidden or
    newly allowed are solved again; the family then holds this plan.
    """
    tree = planner.tree
    clients = np.asarray(tree.clients, dtype=np.int64)
    if not len(clients):
        return {}
    forbidden = frozenset(planner.restrictions.forbidden_peers)
    if family is not None and family.pairs is not None:
        pairs = family.pairs
        strategies = _rederive(planner, clients, family, forbidden)
    else:
        if isinstance(planner.routing.backend, LandmarkDistanceBackend):
            pairs = _landmark_candidates(tree, planner.routing, clients)
        else:
            pairs = row_candidates(tree, planner.routing, clients)
        strategies = _solve(planner, clients, pairs)
    if family is not None:
        family.pairs, family.forbidden = pairs, forbidden
        family.strategies = strategies
    return strategies


def _rederive(
    planner: "RPPlanner",
    clients: np.ndarray,
    family: PlanFamily,
    forbidden: frozenset,
) -> "dict[int, RecoveryStrategy]":
    """``family``'s strategies with every client that has a candidate
    peer in ``forbidden △ family.forbidden`` solved again."""
    pairs = family.pairs
    num_nodes = planner.tree.topology.num_nodes
    changed = [p for p in forbidden ^ family.forbidden if 0 <= p < num_nodes]
    flipped = np.zeros(num_nodes, dtype=bool)
    flipped[changed] = True
    marked = np.zeros(len(clients), dtype=bool)
    marked[pairs.client[flipped[pairs.peer]]] = True
    if not marked.any():
        return dict(family.strategies)
    keep = marked[pairs.client]
    index = np.cumsum(marked) - 1  # client index -> index among the marked
    solved = _solve(planner, clients[marked], CandidatePairs(
        client=index[pairs.client[keep]],
        ds=pairs.ds[keep],
        rtt=pairs.rtt[keep],
        peer=pairs.peer[keep],
        source_rtt=pairs.source_rtt[marked],
    ))
    # Held keys are in tree.clients order; the solved ones replace theirs.
    return family.strategies | solved


def plan_clients(
    planner: "RPPlanner", clients: list[int]
) -> "dict[int, RecoveryStrategy]":
    """Strategies of the given tree members (the row stage, any backend),
    keyed in the given order.  Raises ``ValueError`` for a non-member,
    the root or a repeated client."""
    clients = [int(c) for c in clients]
    if len(set(clients)) != len(clients):
        raise ValueError("clients must be distinct")
    tree = planner.tree
    for client in clients:
        if not tree.contains(client):
            raise ValueError(f"client {client} is not a tree member")
        if client == tree.root:
            raise ValueError("the source does not need a recovery strategy")
    if not clients:
        return {}
    clients = np.asarray(clients, dtype=np.int64)
    pairs = row_candidates(tree, planner.routing, clients)
    return _solve(planner, clients, pairs)


def _root_paths(clients, parent, root) -> tuple[np.ndarray, np.ndarray]:
    """``(client index, class child node)`` for every class of every
    client, grouped by client with ``DS`` decreasing (a level-synchronous
    walk up the root paths)."""
    cur, idx = clients, np.arange(len(clients))
    parts_idx, parts_node = [], []
    while len(idx):
        live = cur != root
        idx, cur = idx[live], cur[live]
        parts_idx.append(idx)
        parts_node.append(cur)
        cur = parent[cur]
    pair_client = np.concatenate(parts_idx)
    grouped = np.argsort(pair_client, kind="stable")  # levels stay in order
    return pair_client[grouped], np.concatenate(parts_node)[grouped]


def _class_bounds(sorted_tin, tin, size, parent, nodes) -> np.ndarray:
    """Preorder intervals ``[b0, b1) ∪ [b2, b3)`` of the class at edge
    ``parent(c) → c`` for each ``c`` in ``nodes``, as positions into the
    ascending ``sorted_tin``."""
    pa = parent[nodes]
    ends = [tin[pa], tin[nodes], tin[nodes] + size[nodes], tin[pa] + size[pa]]
    return np.searchsorted(sorted_tin, np.stack(ends))


#: Row entries gathered per chunk of the row stage: keeps its transient
#: (clients × peers) matrices at a few hundred KB.
_ROW_CHUNK = 1 << 15

_NO_PEER = np.iinfo(np.int64).max


def row_candidates(tree, routing, clients: np.ndarray) -> CandidatePairs:
    """Row-stage candidates of ``clients`` (tree members other than the
    root), every client of the tree being a peer."""
    _, tin, size, parent = tree.structure_arrays()
    peers = np.asarray(tree.clients, dtype=np.int64)
    peers = peers[np.argsort(tin[peers], kind="stable")]
    k = len(peers)
    pair_client, pair_node = _root_paths(clients, parent, tree.root)
    bounds = _class_bounds(tin[peers], tin, size, parent, pair_node)
    pair_start = np.searchsorted(pair_client, np.arange(len(clients) + 1))
    # A client's first pair is its parent edge, so [b1, b2) there is the
    # client's own subtree: the middle of its row, in no class.
    middle = bounds[1:3, pair_start[:-1]]
    side_val = np.full((2, len(pair_client)), np.inf)
    side_peer = np.full((2, len(pair_client)), _NO_PEER)
    source_rtt = np.empty(len(clients))
    chunk = max(1, _ROW_CHUNK // max(k, 1))
    for lo in range(0, len(clients), chunk):
        hi = min(lo + chunk, len(clients))
        block = np.empty((hi - lo, k))
        for i, u in enumerate(clients[lo:hi].tolist()):
            row = routing.distances_from(u)
            block[i] = row[peers]
            source_rtt[lo + i] = 2.0 * row[tree.root]
        p0, p1 = pair_start[lo], pair_start[hi]
        b = bounds[:, p0:p1] + (pair_client[p0:p1] - lo) * k
        mid = middle[:, lo:hi] + np.arange(hi - lo) * k
        starts = np.concatenate((b[0], b[2], mid[0]))
        ends = np.concatenate((b[1], b[3], mid[1]))
        # Sorted by start, the non-empty segments tile the block: they
        # are reduceat's segments.  Ties go to the smallest node id.
        seg = np.flatnonzero(ends > starts)
        seg = seg[np.argsort(starts[seg])]
        flat = block.ravel()
        seg_min = np.minimum.reduceat(flat, starts[seg])
        tied = flat == np.repeat(seg_min, ends[seg] - starts[seg])
        ids = np.where(tied.reshape(block.shape), peers, _NO_PEER).ravel()
        seg_peer = np.minimum.reduceat(ids, starts[seg])
        in_class = seg < 2 * (p1 - p0)
        side, pos = np.divmod(seg[in_class], p1 - p0)
        side_val[side, p0 + pos] = seg_min[in_class]
        side_peer[side, p0 + pos] = seg_peer[in_class]
    # A class's winner over its two parts, by (distance, node id).
    right = (side_val[1] < side_val[0]) | (
        (side_val[1] == side_val[0]) & (side_peer[1] < side_peer[0])
    )
    keep = (bounds[1] > bounds[0]) | (bounds[3] > bounds[2])
    return CandidatePairs(
        client=pair_client[keep],
        ds=tree.depth_vector()[pair_node[keep]] - 1,  # DS of parent(c)
        rtt=2.0 * np.where(right, side_val[1], side_val[0])[keep],
        peer=np.where(right, side_peer[1], side_peer[0])[keep],
        source_rtt=source_rtt,
    )


def _client_rmq(B: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Sparse argmin tables over ``B`` (landmarks × preorder clients).

    Returns the doubling table (level k answers windows of length 2^k,
    positions as int32) and the floor-log2 lookup.  Ties resolve to the
    earlier position, keeping every downstream choice deterministic.
    """
    num_landmarks, k_clients = B.shape
    base = np.broadcast_to(
        np.arange(k_clients, dtype=np.int32), (num_landmarks, k_clients)
    )
    tables = [base]
    span = 1
    while 2 * span <= k_clients:
        width = k_clients - 2 * span + 1
        a = tables[-1][:, :width]
        b = tables[-1][:, span : span + width]
        va = np.take_along_axis(B, a, axis=1)
        vb = np.take_along_axis(B, b, axis=1)
        tables.append(np.where(va <= vb, a, b).astype(np.int32))
        span *= 2
    return tables, floor_log2(k_clients)


def _rmq_query(tables, B, log2, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Per-landmark argmin over the non-empty half-open ranges
    ``[lo, hi)``: ``(values, positions)`` of shape ``(L, Q)``."""
    pos = np.empty((B.shape[0], len(lo)), dtype=np.int32)
    ks = log2[hi - lo]
    for k in np.unique(ks):
        mask = ks == k
        a = tables[k][:, lo[mask]]
        b = tables[k][:, hi[mask] - (1 << int(k))]
        va = np.take_along_axis(B, a.astype(np.int64), axis=1)
        vb = np.take_along_axis(B, b.astype(np.int64), axis=1)
        pos[:, mask] = np.where(va <= vb, a, b)
    return np.take_along_axis(B, pos.astype(np.int64), axis=1), pos


#: Pairs processed per chunk when expanding (landmark, pair) estimates —
#: bounds the transient (L, chunk) matrices to a few hundred MB.
_PAIR_CHUNK = 1 << 18


def _landmark_candidates(tree, routing, clients: np.ndarray) -> CandidatePairs:
    """Landmark-stage candidates of all the tree's ``clients``."""
    backend = routing.backend
    D = backend.landmark_matrix
    order, tin, size, parent = tree.structure_arrays()
    depth = tree.depth_vector()

    # -- per-class minima over the preorder-sorted clients ------------
    cl_order = clients[np.argsort(tin[clients], kind="stable")]
    B = D[:, cl_order]
    tables, log2 = _client_rmq(B)
    # One class per tree edge (parent(c) -> c).
    cs = order[1:]
    class_col = np.full(len(tin), -1, dtype=np.int64)
    class_col[cs] = np.arange(len(cs))
    bounds = _class_bounds(tin[cl_order], tin, size, parent, cs)
    class_val = np.full((D.shape[0], len(cs)), np.inf)
    class_pos = np.full((D.shape[0], len(cs)), -1, dtype=np.int32)
    for lo, hi in ((bounds[0], bounds[1]), (bounds[2], bounds[3])):
        mask = hi > lo
        if not mask.any():
            continue
        vals, pos = _rmq_query(tables, B, log2, lo[mask], hi[mask])
        better = vals < class_val[:, mask]
        class_val[:, mask] = np.where(better, vals, class_val[:, mask])
        class_pos[:, mask] = np.where(better, pos, class_pos[:, mask])
    del tables

    # -- candidate rtt/peer per (client, ancestor) pair, chunked ------
    pair_client, pair_node = _root_paths(clients, parent, tree.root)
    pair_col = class_col[pair_node]
    est_val = np.empty(len(pair_client))
    est_pos = np.empty(len(pair_client), dtype=np.int64)
    u_nodes = clients[pair_client]
    for start in range(0, len(pair_client), _PAIR_CHUNK):
        sl = slice(start, start + _PAIR_CHUNK)
        vals = D[:, u_nodes[sl]] + class_val[:, pair_col[sl]]
        best_l = np.argmin(vals, axis=0)
        est_val[sl] = vals[best_l, np.arange(vals.shape[1])]
        est_pos[sl] = class_pos[best_l, pair_col[sl]]
    peer_node = np.full(len(pair_client), -1, dtype=np.int64)
    finite = np.isfinite(est_val)
    peer_node[finite] = cl_order[est_pos[finite]]

    # -- near-tier overlay: exact ball pairs beat landmark bounds -----
    # Each (client, ball peer) pair lands in the client's class at their
    # meeting ancestor (the pairwise LCA), i.e. pair slot
    # ``ds_u - 1 - depth(lca)`` of the client's block.
    indptr, near_cols, near_dist = backend.near_csr()
    pair_offsets = np.concatenate(([0], np.cumsum(depth[clients])))
    cstart = indptr[clients]
    lens = indptr[clients + 1] - cstart
    rep_ci = np.repeat(np.arange(len(clients)), lens)
    offs = np.concatenate(([0], np.cumsum(lens)))[:-1]
    flat = np.repeat(cstart - offs, lens) + np.arange(int(lens.sum()))
    ball_v = near_cols[flat]
    ball_d = near_dist[flat]
    is_client = np.zeros(len(tin), dtype=bool)
    is_client[clients] = True
    member = is_client[ball_v]
    rep_ci, ball_v, ball_d = rep_ci[member], ball_v[member], ball_d[member]
    anc = tree.lca_pairs(clients[rep_ci], ball_v)
    ok = depth[anc] < depth[clients[rep_ci]]  # skip self/descendants
    rep_ci, ball_v, ball_d, anc = rep_ci[ok], ball_v[ok], ball_d[ok], anc[ok]
    fi = pair_offsets[rep_ci] + (depth[clients[rep_ci]] - 1 - depth[anc])
    # One winner per pair slot: min distance, ties to the smaller peer id.
    dedup = np.lexsort((ball_v, ball_d, fi))
    fi, ball_v, ball_d = fi[dedup], ball_v[dedup], ball_d[dedup]
    lead = np.ones(len(fi), dtype=bool)
    lead[1:] = fi[1:] != fi[:-1]
    fi, ball_v, ball_d = fi[lead], ball_v[lead], ball_d[lead]
    hit = ball_d < est_val[fi]
    est_val[fi[hit]] = ball_d[hit]
    peer_node[fi[hit]] = ball_v[hit]

    keep = np.isfinite(est_val)  # drop empty classes / unreachable peers
    return CandidatePairs(
        client=pair_client[keep],
        ds=depth[pair_node[keep]] - 1,  # DS of the ancestor parent(c)
        rtt=2.0 * est_val[keep],
        peer=peer_node[keep],
        source_rtt=2.0 * np.asarray(routing.distances_from(tree.root))[clients],
    )


def _solve(
    planner: "RPPlanner", clients: np.ndarray, pairs: CandidatePairs
) -> "dict[int, RecoveryStrategy]":
    """Restrictions plus lockstep Algorithm 1 over every client's
    candidates; strategies keyed in ``clients`` order."""
    from repro.core.planner import RecoveryStrategy

    policy = planner.timeout_policy
    restrictions = planner.restrictions
    pair_client, pair_ds, rtt_flat, peer_flat, source_rtt_all = pairs
    forbidden = restrictions.forbidden_peers
    if forbidden:
        allowed = np.array([p not in forbidden for p in peer_flat.tolist()], bool)
        pair_client, pair_ds = pair_client[allowed], pair_ds[allowed]
        rtt_flat, peer_flat = rtt_flat[allowed], peer_flat[allowed]
    timeout_flat = policy.timeout_array(rtt_flat)
    counts = np.bincount(pair_client, minlength=len(clients))
    offsets = np.concatenate(([0], np.cumsum(counts)))
    ds_u_all = planner.tree.depth_vector()[clients].astype(np.float64)

    strategies: dict[int, RecoveryStrategy] = {}
    for n in np.flatnonzero(np.bincount(counts)).tolist():
        rows = np.flatnonzero(counts == n)
        gather = offsets[rows][:, None] + np.arange(n)[None, :]
        ds = pair_ds[gather].astype(np.float64)
        rtt, tmo, peers = rtt_flat[gather], timeout_flat[gather], peer_flat[gather]
        src_rtt = source_rtt_all[rows]
        delay, chains = _algorithm1(
            planner.estimator, ds_u_all[rows], ds, rtt, tmo, src_rtt,
            restrictions.forbid_direct_source, restrictions.max_list_length,
        )
        for row, chain in enumerate(chains):
            client = int(clients[rows[row]])
            source_rtt = float(src_rtt[row])
            strategies[client] = RecoveryStrategy(
                client=client,
                attempts=tuple(
                    Candidate(int(peers[row, i]), int(ds[row, i]), float(rtt[row, i]))
                    for i in chain
                ),
                timeouts=tuple(float(tmo[row, i]) for i in chain),
                source_rtt=source_rtt,
                source_timeout=policy.timeout(source_rtt),
                expected_delay=float(delay[row]),
                ds_u=int(ds_u_all[rows[row]]),
            )
    return {int(c): strategies[int(c)] for c in clients}


def _algorithm1(estimator, ds_u, ds, rtt, tmo, src_rtt, forbid_direct, limit):
    """Algorithm 1 over ``M`` strategy graphs with ``N`` candidates each
    (the ``(M, N)`` inputs, ``DS`` decreasing along a row), in lockstep,
    with :class:`~repro.core.strategy_graph.StrategyGraph`'s weights and
    the scalar relaxation order and strict-improvement rule.  Graph node
    0 is the client, node ``i`` candidate column ``i - 1``.  With
    ``limit`` None this is ``searching_minimal_delay`` (one layer, the
    paper's ``distance(x) >= distance(S)`` skip as a row mask); else the
    layered ``searching_minimal_delay_bounded``, layer ``k`` holding the
    candidates reached as list entry ``k + 1``.  Returns each row's delay
    and chain (candidate columns, ascending).
    """
    m, n = ds.shape
    layers, step = (1, 0) if limit is None else (min(limit, n), 1)
    ds_prev = np.concatenate((ds_u[:, None], ds), axis=1)  # DS of node x
    reach = ds_prev / ds_u[:, None]
    to_sink = reach * src_rtt[:, None]

    def to_candidates(x: int) -> np.ndarray:
        # Edges x -> columns x.. (nodes x+1..).  ds_prev >= 1 on them: DS
        # strictly decreases, so a DS=0 node can only be last.
        prev = ds_prev[:, x : x + 1]
        cost = estimator.cost_array(rtt[:, x:], tmo[:, x:], (prev - ds[:, x:]) / prev)
        return reach[:, x : x + 1] * cost

    dist = np.full((layers, m, n), np.inf)
    par = np.zeros((layers, m, n), dtype=np.int64)  # 0: the client
    best = np.full(m, np.inf)
    via = np.full((m, 2), -1, dtype=np.int64)  # (layer, node) into S
    if not forbid_direct:  # else the u -> S edge is deleted
        best = to_sink[:, 0].copy()
        via[:, 1] = 0
    if layers and n:
        w = to_candidates(0)
        dist[0] = np.where(w < np.inf, w, np.inf)
    for k in range(layers):
        for x in range(1, n + 1):
            dx = dist[k][:, x - 1]
            live = ~np.isinf(dx)
            if limit is None:
                live &= ~(dx >= best)
            if not live.any():
                continue
            nd = dx + to_sink[:, x]
            better = live & (nd < best)
            best[better] = nd[better]
            via[better] = (k, x)
            if k + step < layers and x < n:
                nd = dx[:, None] + to_candidates(x)
                nd[~live] = np.inf
                target = dist[k + step][:, x:]
                better = nd < target
                target[better] = nd[better]
                par[k + step][:, x:][better] = x
    if np.isinf(best).any() or (via[:, 1] < 0).any():
        raise ValueError(
            "sink unreachable: restrictions removed every strategy"
            if limit is None
            else "sink unreachable under max_list_length restriction"
        )
    chains = []
    for row, (k, node) in enumerate(via.tolist()):
        chain: list[int] = []
        while node != 0:
            chain.append(node - 1)
            node = int(par[k][row, node - 1])
            k -= step
        chains.append(chain[::-1])
    return best, chains
