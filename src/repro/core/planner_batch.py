"""Array-native ``plan_all`` over a landmark distance backend.

The per-client pipeline (candidates → strategy graph → Algorithm 1) is
O(V) per client because the candidate builder touches every peer; over K
clients that is O(K·V) — 10^10 element operations at 100k clients, far
beyond what per-client numpy passes can hide.  This module replaces it
with batched passes whose total work is O(L·V·log K + L·Σdepth + Σ N²)
and whose Python-level loop counts are O(tree depth), independent of K:

1.  **Per-class minima.**  A competitive class of client ``u`` at
    ancestor ``a`` (child ``c`` toward ``u``) is the set of clients in
    ``subtree(a) \\ subtree(c)`` — two contiguous intervals in preorder.
    With landmark distances ``d(u,v) = min_l D[l,u] + D[l,v]`` the class
    minimum factorizes::

        min_{v∈C} d(u, v) = min_l ( D[l,u] + min_{v∈C} D[l,v] )

    so the per-landmark class minima ``min_{v∈C} D[l,v]`` — computed
    once per tree edge via sparse-table range-minimum queries over the
    preorder-sorted client array — answer *every* client's candidate
    search in O(L) per (client, ancestor) pair.  This factorization is
    exactly why the batched planner requires the landmark backend: exact
    per-client distance rows do not decompose this way.

    The backend's near tier (exact distances inside each member's k-NN
    ball) is mirrored on top: every (client, ball peer) pair is routed
    to the client's class at their pairwise tree LCA and scatter-min'd
    over the landmark-derived per-pair estimates — the same overlay the
    scalar path applies to each ``distances_from`` row.

2.  **Batched Algorithm 1.**  Clients are grouped by candidate count N;
    each group's strategy graphs relax in lockstep (one vectorized pass
    per graph node, M clients wide), including the paper's
    ``distance(x) >= distance(S)`` skip as a row mask.

The batched pass reproduces the per-client pipeline exactly (same
weights, same relaxation order, same strict-improvement rule) up to
tie-breaking among bit-equal candidate RTTs, where it prefers the
smaller preorder position instead of the smaller node id; on the random
float-delay topologies the sweeps use, ties have measure zero
(equivalence-tested in ``tests/core/test_planner_batch.py``).

``plan_all`` falls back to the per-client loop whenever the scenario is
not batchable: exact backend (byte-identical outputs are the contract
there), non-default restrictions beyond ``forbid_direct_source``, or a
non-stock estimator.  The per-client reference is
``{c: planner.plan(c) for c in tree.clients}``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.core.candidates import Candidate
from repro.core.objective import VECTORIZABLE_ESTIMATORS
from repro.core.timeouts import FixedTimeout, ProportionalTimeout, TimeoutPolicy
from repro.net.routing import LandmarkDistanceBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.planner import RecoveryStrategy, RPPlanner


def batchable(planner: "RPPlanner") -> bool:
    """True when ``plan_all`` may take the array-native path."""
    if not isinstance(planner.routing.backend, LandmarkDistanceBackend):
        return False
    restrictions = planner.restrictions
    if restrictions.forbidden_peers or restrictions.max_list_length is not None:
        return False
    if type(planner.estimator) not in VECTORIZABLE_ESTIMATORS:
        return False
    # A timeout policy is safe to vectorize when its scalar/array pair is
    # known consistent: a stock policy, a policy defining its own
    # timeout_array, or one using the element-wise base default.  The
    # dangerous case is a subclass of a stock policy that overrides
    # ``timeout()`` while inheriting the stock closed-form
    # ``timeout_array`` — batching it would silently apply the parent's
    # timeouts.
    cls = type(planner.timeout_policy)
    return (
        cls in (FixedTimeout, ProportionalTimeout)
        or "timeout_array" in vars(cls)
        or cls.timeout_array is TimeoutPolicy.timeout_array
    )


def _client_rmq(B: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Sparse argmin tables over ``B`` (landmarks × preorder clients).

    Returns the doubling table (level k answers windows of length 2^k,
    positions as int32) and the floor-log2 lookup.  Ties resolve to the
    earlier position, keeping every downstream choice deterministic.
    """
    num_landmarks, k_clients = B.shape
    log2 = np.zeros(k_clients + 1, dtype=np.int64)
    for i in range(2, k_clients + 1):
        log2[i] = log2[i >> 1] + 1
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
    return tables, log2


def _rmq_query(
    tables: list[np.ndarray],
    B: np.ndarray,
    log2: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-landmark argmin over the half-open ranges ``[lo, hi)``.

    All ranges must be non-empty.  Returns ``(values, positions)`` of
    shape ``(L, Q)``.
    """
    num_landmarks = B.shape[0]
    pos = np.empty((num_landmarks, len(lo)), dtype=np.int32)
    ks = log2[hi - lo]
    for k in np.unique(ks):
        mask = ks == k
        lo_k = lo[mask]
        table = tables[k]
        a = table[:, lo_k]
        b = table[:, hi[mask] - (1 << int(k))]
        va = np.take_along_axis(B, a.astype(np.int64), axis=1)
        vb = np.take_along_axis(B, b.astype(np.int64), axis=1)
        pos[:, mask] = np.where(va <= vb, a, b)
    vals = np.take_along_axis(B, pos.astype(np.int64), axis=1)
    return vals, pos


#: Pairs processed per chunk when expanding (landmark, pair) estimates —
#: bounds the transient (L, chunk) matrices to a few hundred MB.
_PAIR_CHUNK = 1 << 18


def batched_plan_all(planner: "RPPlanner") -> "dict[int, RecoveryStrategy]":
    """Array-native equivalent of the per-client ``plan_all`` loop.

    Caller must have checked :func:`batchable`.
    """
    from repro.core.planner import RecoveryStrategy

    tree = planner.tree
    routing = planner.routing
    backend = routing.backend
    policy = planner.timeout_policy
    estimator = planner.estimator
    forbid_direct = planner.restrictions.forbid_direct_source

    clients = np.asarray(tree.clients, dtype=np.int64)
    if len(clients) == 0:
        return {}
    root = tree.root
    D = backend.landmark_matrix
    order, tin, size, parent = tree.structure_arrays()
    depth = tree.depth_vector()

    # -- per-class minima over the preorder-sorted clients ------------
    cl_order = clients[np.argsort(tin[clients], kind="stable")]
    cl_tin = tin[cl_order]
    B = D[:, cl_order]
    tables, log2 = _client_rmq(B)

    # One class per tree edge (parent(c) -> c): clients of
    # subtree(parent) minus subtree(c), i.e. two preorder intervals.
    cs = order[1:]
    pa = parent[cs]
    class_col = np.full(len(tin), -1, dtype=np.int64)
    class_col[cs] = np.arange(len(cs))
    bounds = np.searchsorted(
        cl_tin,
        np.stack([tin[pa], tin[cs], tin[cs] + size[cs], tin[pa] + size[pa]]),
    )
    num_landmarks = D.shape[0]
    num_classes = len(cs)
    class_val = np.full((num_landmarks, num_classes), np.inf)
    class_pos = np.full((num_landmarks, num_classes), -1, dtype=np.int32)
    for lo, hi in ((bounds[0], bounds[1]), (bounds[2], bounds[3])):
        mask = hi > lo
        if not mask.any():
            continue
        vals, pos = _rmq_query(tables, B, log2, lo[mask], hi[mask])
        better = vals < class_val[:, mask]
        class_val[:, mask] = np.where(better, vals, class_val[:, mask])
        class_pos[:, mask] = np.where(better, pos, class_pos[:, mask])
    del tables

    # -- (client, ancestor) pairs via level-synchronous path walk ------
    k_clients = len(clients)
    cur = clients.copy()
    idx = np.arange(k_clients)
    level = 0
    part_idx: list[np.ndarray] = []
    part_node: list[np.ndarray] = []
    part_level: list[np.ndarray] = []
    while len(idx):
        live = cur != root
        idx, cur = idx[live], cur[live]
        if not len(idx):
            break
        part_idx.append(idx)
        part_node.append(cur)
        part_level.append(np.full(len(idx), level, dtype=np.int64))
        cur = parent[cur]
        level += 1
    pair_client = np.concatenate(part_idx)
    pair_node = np.concatenate(part_node)  # the class's child node c
    pair_level = np.concatenate(part_level)
    grouped = np.lexsort((pair_level, pair_client))
    pair_client = pair_client[grouped]
    pair_node = pair_node[grouped]
    pair_ds = depth[pair_node] - 1  # DS of the ancestor parent(c)
    pair_col = class_col[pair_node]

    # -- candidate rtt/peer per pair (chunked argmin over landmarks) --
    est_val = np.empty(len(pair_client))
    est_pos = np.empty(len(pair_client), dtype=np.int64)
    u_nodes = clients[pair_client]
    for start in range(0, len(pair_client), _PAIR_CHUNK):
        sl = slice(start, start + _PAIR_CHUNK)
        vals = D[:, u_nodes[sl]] + class_val[:, pair_col[sl]]
        best_l = np.argmin(vals, axis=0)
        cols = np.arange(vals.shape[1])
        est_val[sl] = vals[best_l, cols]
        est_pos[sl] = class_pos[best_l, pair_col[sl]]
    peer_node = np.full(len(pair_client), -1, dtype=np.int64)
    finite = np.isfinite(est_val)
    peer_node[finite] = cl_order[est_pos[finite]]

    # -- near-tier overlay: exact ball pairs beat landmark bounds -----
    # Mirrors the scalar row overlay: each (client, ball peer) pair
    # lands in the client's class at their meeting ancestor (the
    # pairwise LCA), i.e. pair slot ``ds_u - 1 - depth(lca)`` of the
    # client's level-ordered block.
    indptr, near_cols, near_dist = backend.near_csr()
    pair_offsets = np.concatenate(([0], np.cumsum(depth[clients])))
    assert pair_offsets[-1] == len(pair_client)
    cstart = indptr[clients]
    lens = indptr[clients + 1] - cstart
    if int(lens.sum()):
        rep_ci = np.repeat(np.arange(k_clients), lens)
        offs = np.concatenate(([0], np.cumsum(lens)))[:-1]
        flat = np.repeat(cstart - offs, lens) + np.arange(int(lens.sum()))
        ball_v = near_cols[flat]
        ball_d = near_dist[flat]
        is_client = np.zeros(len(tin), dtype=bool)
        is_client[clients] = True
        member = is_client[ball_v]
        rep_ci, ball_v, ball_d = rep_ci[member], ball_v[member], ball_d[member]
        if len(rep_ci):
            anc = tree.lca_pairs(clients[rep_ci], ball_v)
            ok = depth[anc] < depth[clients[rep_ci]]  # skip self/descendants
            rep_ci, ball_v, ball_d, anc = (
                rep_ci[ok], ball_v[ok], ball_d[ok], anc[ok]
            )
        if len(rep_ci):
            fi = pair_offsets[rep_ci] + (
                depth[clients[rep_ci]] - 1 - depth[anc]
            )
            # One winner per pair slot: min distance, ties to the
            # smaller peer id.
            dedup = np.lexsort((ball_v, ball_d, fi))
            fi, ball_v, ball_d = fi[dedup], ball_v[dedup], ball_d[dedup]
            lead = np.ones(len(fi), dtype=bool)
            lead[1:] = fi[1:] != fi[:-1]
            fi, ball_v, ball_d = fi[lead], ball_v[lead], ball_d[lead]
            hit = ball_d < est_val[fi]
            fi, ball_v, ball_d = fi[hit], ball_v[hit], ball_d[hit]
            est_val[fi] = ball_d
            peer_node[fi] = ball_v

    keep = np.isfinite(est_val)  # drop empty classes / unreachable peers
    pair_client = pair_client[keep]
    pair_ds = pair_ds[keep]
    rtt_flat = 2.0 * est_val[keep]
    peer_flat = peer_node[keep]
    timeout_flat = policy.timeout_array(rtt_flat)

    counts = np.bincount(pair_client, minlength=k_clients)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    ds_u_all = depth[clients].astype(np.float64)
    source_rtt_all = 2.0 * np.asarray(routing.distances_from(root))[clients]

    strategies: dict[int, RecoveryStrategy] = {}
    for n in np.unique(counts):
        rows = np.nonzero(counts == n)[0]
        n = int(n)
        gather = offsets[rows][:, None] + np.arange(n)[None, :]
        ds = pair_ds[gather].astype(np.float64)
        rtt = rtt_flat[gather]
        tmo = timeout_flat[gather]
        peers = peer_flat[gather]
        ds_u = ds_u_all[rows]
        src_rtt = source_rtt_all[rows]
        m = len(rows)
        sink = n + 1
        dist = np.full((m, n + 2), np.inf)
        dist[:, 0] = 0.0
        par = np.full((m, n + 2), -1, dtype=np.int32)
        for x in range(n + 1):
            dx = dist[:, x]
            ds_prev = ds_u if x == 0 else ds[:, x - 1]
            # Paper's skip, row-wise: x cannot improve any route to S.
            active = np.isfinite(dx) & (dx < dist[:, sink])
            if not active.any():
                continue
            reach = ds_prev / ds_u
            if x < n:
                # ds_prev >= 1 whenever candidate columns remain:
                # DS strictly decreases along the chain, so a DS=0
                # node can only be the last candidate.
                succ = (ds_prev[:, None] - ds[:, x:]) / ds_prev[:, None]
                w = reach[:, None] * estimator.cost(
                    rtt[:, x:], tmo[:, x:], succ
                )
                nd = dx[:, None] + w
                nd[~active] = np.inf
                improve = nd < dist[:, x + 1 : sink]
                dist[:, x + 1 : sink][improve] = nd[improve]
                par[:, x + 1 : sink][improve] = x
            if x == 0 and forbid_direct:
                continue  # the u -> S edge is deleted
            nd_sink = dx + reach * src_rtt
            sink_improve = active & (nd_sink < dist[:, sink])
            dist[sink_improve, sink] = nd_sink[sink_improve]
            par[sink_improve, sink] = x
        for row in range(m):
            client = int(clients[rows[row]])
            if math.isinf(dist[row, sink]):
                raise ValueError(
                    "sink unreachable: restrictions removed every strategy"
                )
            reverse: list[int] = []
            node = int(par[row, sink])
            while node != 0:
                reverse.append(node)
                node = int(par[row, node])
            reverse.reverse()
            chain = tuple(
                Candidate(
                    node=int(peers[row, i - 1]),
                    ds=int(ds[row, i - 1]),
                    rtt=float(rtt[row, i - 1]),
                )
                for i in reverse
            )
            source_rtt = float(src_rtt[row])
            strategies[client] = RecoveryStrategy(
                client=client,
                attempts=chain,
                timeouts=tuple(float(tmo[row, i - 1]) for i in reverse),
                source_rtt=source_rtt,
                source_timeout=policy.timeout(source_rtt),
                expected_delay=float(dist[row, sink]),
                ds_u=int(ds_u_all[rows[row]]),
            )

    # Re-key in ascending client order to match the per-client loop's
    # iteration (downstream JSON serialization is order-sensitive).
    return {int(c): strategies[int(c)] for c in clients}
