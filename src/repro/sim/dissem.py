"""Array-native dissemination plans (the struct-of-arrays fast path).

The scalar simulator moves every multicast copy as one heap event per
link traversal: a cascade over an ``M``-member tree is ``M - 1``
closures, heap pushes and RNG draws.  At 100k+ clients that is the
ceiling the ROADMAP names.  This module computes a whole dissemination
in a handful of numpy passes instead:

* :class:`TreeDissem` — static per-tree arrays in preorder (incoming
  edge delay/loss, per-depth level slices, sibling ranks, deepest lossy
  ancestor columns, lossy prefix sums);
* :func:`plan_cascades` — any set of root cascades at once: per-edge
  Bernoulli draws taken in the exact ``(event time, sibling rank)``
  order the scalar path draws them, survivor reachability via anchor
  columns, arrival times as per-level prefix delay sums.  A DATA stream
  (:func:`build_data_plan`) passes its whole send grid; a SESSION send
  passes its one instant and the next send as a deadline;
* :func:`subtree_arrivals` / :func:`flood_arrivals` — arrival times for
  the draw-free recovery multicasts (repair subtrees, SRM floods).

**Bit-identity contract.** Every plan reproduces the scalar path
exactly: identical RNG consumption (count, order and comparison
direction of draws), identical arrival times (per-hop left-associated
float accumulation — each level does the same single ``fl(a + d)`` the
scalar hop did), identical delivery sets.  The plan builders *refuse*
(return ``None``) before consuming any randomness whenever the scalar
draw order cannot be reproduced from times alone — i.e. when two
cascade events share an exact float timestamp, because the scalar tie
break is heap insertion order, which the vectorized path does not
model.  On the continuous random-delay topologies the experiment
runner generates, exact ties are measure-zero; deterministic
hand-built topologies simply fall back to the scalar path.

The module is pure computation over a tree + RNG; all simulation state
(event scheduling, ledgers, eligibility gating, the in-flight hop
registry) stays in :mod:`repro.sim.network`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.mcast_tree import MulticastTree


class TreeDissem:
    """Static preorder arrays of a :class:`MulticastTree`.

    All arrays are indexed by *preorder position* (root at 0); ``order``
    maps positions back to node ids.  Built once per tree and shared by
    every plan of every run on that tree.
    """

    def __init__(self, tree: MulticastTree):
        self.tree = tree
        topo = tree.topology
        order_nodes, _tin, size_nodes, parent_nodes = tree.structure_arrays()
        order = np.asarray(order_nodes, dtype=np.int64)
        m = int(order.size)
        self.order = order
        self.num_members = m
        pos_of_node = np.full(topo.num_nodes, -1, dtype=np.int64)
        pos_of_node[order] = np.arange(m, dtype=np.int64)
        self.pos_of_node = pos_of_node
        parent_node = parent_nodes[order]  # -1 for the root
        parent_pos = np.where(
            parent_node >= 0, pos_of_node[np.maximum(parent_node, 0)], -1
        )
        self.parent_pos = parent_pos
        self.size_pos = size_nodes[order]
        depth_nodes = tree.depth_vector()
        depth = depth_nodes[order]
        self.depth = depth

        # Incoming-edge delay / loss per position (0 for the root).
        delay = np.zeros(m, dtype=np.float64)
        loss = np.zeros(m, dtype=np.float64)
        for i in range(1, m):
            link = topo.link_between(int(parent_node[i]), int(order[i]))
            delay[i] = link.delay
            loss[i] = link.loss_prob
        self.delay = delay
        self.loss = loss
        lossy = loss > 0.0
        self.lossy = lossy
        lossy_pos = np.flatnonzero(lossy)
        self.lossy_pos = lossy_pos
        self.num_lossy = int(lossy_pos.size)
        lossy_col = np.full(m, -1, dtype=np.int64)
        lossy_col[lossy_pos] = np.arange(lossy_pos.size, dtype=np.int64)
        # Lossy edges among positions [0, p), for O(1) "is this subtree
        # draw-free" answers.
        self.lossy_prefix = np.concatenate(
            ([0], np.cumsum(lossy.astype(np.int64)))
        )

        # Per-depth level slices: (child positions ascending, their
        # parents' positions).  Stable sort keeps positions ascending
        # within a level, which downstream code relies on for
        # searchsorted-based subtree restriction.
        by_depth = np.argsort(depth, kind="stable").astype(np.int64)
        counts = np.bincount(depth)
        levels: list[tuple[np.ndarray, np.ndarray]] = []
        start = int(counts[0])  # skip depth 0 (the root)
        for d in range(1, len(counts)):
            ch = by_depth[start : start + int(counts[d])]
            levels.append((ch, parent_pos[ch]))
            start += int(counts[d])
        self.levels = levels

        # Sibling rank: position of each node among its parent's sorted
        # children.  Preorder visits siblings in sorted order, so within
        # one parent ascending position == sibling order.
        sib = np.zeros(m, dtype=np.int64)
        if m > 1:
            pp = parent_pos[1:]
            by_parent = np.argsort(pp, kind="stable")
            sorted_pp = pp[by_parent]
            idx = np.arange(m - 1, dtype=np.int64)
            new_group = np.concatenate(
                ([True], sorted_pp[1:] != sorted_pp[:-1])
            )
            group_start = np.maximum.accumulate(np.where(new_group, idx, 0))
            sib[1:][by_parent] = idx - group_start
        self.sib_index = sib

        # Deepest lossy edge on the root path of each node (its own
        # incoming edge included), as a lossy-column index; -1 = the
        # node is reachable whenever the cascade root is.  Survival of
        # that single edge encodes the whole chain (a draw only happens
        # under an alive parent, so a surviving anchor implies every
        # lossy ancestor edge survived too).
        anchor = np.full(m, -1, dtype=np.int64)
        for ch, pa in levels:
            anchor[ch] = np.where(lossy[ch], lossy_col[ch], anchor[pa])
        self.anchor_col = anchor

    def subtree_is_lossless(self, p0: int) -> bool:
        """No lossy edge strictly inside the subtree at position ``p0``."""
        size = int(self.size_pos[p0])
        pre = self.lossy_prefix
        return int(pre[p0 + size] - pre[p0 + 1]) == 0


def _arrival_matrix(dissem: TreeDissem, t0s: np.ndarray) -> np.ndarray:
    """Arrival time of each cascade at each position, ``(P, M)``.

    Level by level, each child's time is one ``fl(parent + delay)`` —
    the identical float operation the scalar hop performs, in the same
    association order, so the result is bit-equal to the scalar event
    times.
    """
    a = np.empty((t0s.size, dissem.num_members), dtype=np.float64)
    a[:, 0] = t0s
    for ch, pa in dissem.levels:
        a[:, ch] = a[:, pa] + dissem.delay[ch]
    return a


def _segmented_draws(
    dep: np.ndarray, lp: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Resolve the loss draws of ``dep.size`` slots in merged order.

    ``dep[i]`` is the merged index of the slot whose survival decides
    whether slot ``i``'s parent event fires (-1 = always fires); it is
    always ``< i`` (a parent's anchor event precedes the child's, and
    event times are unique).  Slots whose parent is dead consume **no**
    draw — exactly the scalar behaviour, where a pruned subtree's
    events never exist.  Draws are taken in batches over maximal
    prefixes whose dependencies are already resolved; within a batch
    ``rng.random(k)`` consumes the identical stream the scalar path's
    ``k`` successive ``rng.random()`` calls would.
    """
    n = int(dep.size)
    survived = np.zeros(n, dtype=bool)
    if n == 0:
        return survived
    m = np.maximum.accumulate(dep)
    i = 0
    while i < n:
        # First slot in [i, n) depending on a slot >= i ends the batch;
        # m[i] <= i - 1 guarantees progress.
        j = i + int(np.searchsorted(m[i:], i, side="left"))
        dseg = dep[i:j]
        parent_alive = np.where(
            dseg >= 0, survived[np.maximum(dseg, 0)], True
        )
        k = int(np.count_nonzero(parent_alive))
        if k:
            u = rng.random(k)
            seg = np.zeros(j - i, dtype=bool)
            # Scalar: dropped iff u < p, so survive iff u >= p.
            seg[parent_alive] = u >= lp[i:j][parent_alive]
            survived[i:j] = seg
        i = j
    return survived


def _alive_matrix(
    dissem: TreeDissem, survived_2d: np.ndarray | None, num_cascades: int
) -> np.ndarray:
    """Per-cascade reachability of every position, ``(P, M)`` bool."""
    m = dissem.num_members
    ac = dissem.anchor_col
    if survived_2d is None:
        return np.ones((num_cascades, m), dtype=bool)
    safe = np.maximum(ac, 0)
    return np.where(ac[np.newaxis, :] >= 0, survived_2d[:, safe], True)


@dataclass
class CascadeOutcome:
    """One cascade's resolved dissemination."""

    #: Agent node ids reached, with their arrival times (same order).
    deliver_nodes: np.ndarray
    deliver_times: np.ndarray
    #: Transmit instants of every link traversal attempt (alive-parent
    #: edges) and of every loss drop — the times the scalar path would
    #: have charged the ledger, kept for drain-cutoff reconciliation.
    hop_times: np.ndarray
    drop_times: np.ndarray


@dataclass
class DataPlan:
    """Every DATA cascade of a stream, resolved at the first send."""

    t0s: np.ndarray
    cascades: list[CascadeOutcome]
    next_seq: int = 0


def _finish_cascades(
    dissem: TreeDissem,
    arrivals: np.ndarray,
    survived_2d: np.ndarray | None,
    agent_pos: np.ndarray,
) -> list[CascadeOutcome]:
    num_cascades = arrivals.shape[0]
    alive = _alive_matrix(dissem, survived_2d, num_cascades)
    parent_pos = dissem.parent_pos
    order = dissem.order
    attempted = alive[:, parent_pos[1:]]
    attempt_times = arrivals[:, parent_pos[1:]]
    if survived_2d is not None:
        lossy_parents = parent_pos[dissem.lossy_pos]
        dropped = alive[:, lossy_parents] & ~survived_2d
        lossy_times = arrivals[:, lossy_parents]
    else:
        dropped = None
        lossy_times = None
    empty = np.empty(0, dtype=np.float64)
    out = []
    for k in range(num_cascades):
        mask = alive[k, agent_pos]
        reached = agent_pos[mask]
        out.append(
            CascadeOutcome(
                deliver_nodes=order[reached],
                deliver_times=arrivals[k, reached],
                hop_times=attempt_times[k][attempted[k]],
                drop_times=(
                    lossy_times[k][dropped[k]] if dropped is not None else empty
                ),
            )
        )
    return out


def _merged_slots(
    dissem: TreeDissem, arrivals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Merged draw order of every lossy slot of every cascade.

    Returns ``(perm, dep_merged, lp_merged)`` where ``perm`` maps merged
    rank → flat slot index (``cascade * L + lossy_col``), or ``None``
    when two cascade events share an exact timestamp (the scalar tie
    break is unreproducible from times alone — caller must fall back
    before consuming randomness).
    """
    num_cascades, m = arrivals.shape
    if np.unique(arrivals.ravel()).size != num_cascades * m:
        return None
    lossy_pos = dissem.lossy_pos
    l = lossy_pos.size
    # A slot draws inside its parent's arrival event; equal-time slots
    # only ever share one parent event (times are unique), where the
    # scalar order is sibling order.
    ptime = arrivals[:, dissem.parent_pos[lossy_pos]]  # (P, L)
    sib = np.broadcast_to(dissem.sib_index[lossy_pos], (num_cascades, l))
    perm = np.lexsort((sib.ravel(), ptime.ravel()))
    inv = np.empty(num_cascades * l, dtype=np.int64)
    inv[perm] = np.arange(num_cascades * l, dtype=np.int64)
    # Parent's anchor slot, as a merged rank (-1 = parent always alive).
    anchor_parent = dissem.anchor_col[dissem.parent_pos[lossy_pos]]  # (L,)
    base = (np.arange(num_cascades, dtype=np.int64) * l)[:, np.newaxis]
    flat_anchor = base + np.maximum(anchor_parent, 0)[np.newaxis, :]
    dep_flat = np.where(
        anchor_parent[np.newaxis, :] >= 0, inv[flat_anchor], -1
    ).ravel()
    lp_flat = np.broadcast_to(
        dissem.loss[lossy_pos], (num_cascades, l)
    ).ravel()
    return perm, dep_flat[perm], lp_flat[perm]


def plan_cascades(
    dissem: TreeDissem,
    t0s: np.ndarray,
    rng: np.random.Generator,
    agent_pos: np.ndarray,
    deadline: float | None,
) -> list[CascadeOutcome] | None:
    """Resolve the root cascades sent at ``t0s``, one outcome each.

    A lossy tree's draws come from ``rng`` in merged event order, which
    is stream-identical to the scalar path only while these cascades are
    ``rng``'s sole consumer.  DATA guarantees that with a dedicated lane
    and passes no ``deadline``; SESSION shares the loss lane with the
    next session send, so every cascade must finish strictly before
    ``deadline``, or its tail would interleave with the next one's
    draws.  Returns ``None`` — before any draw — on that overlap or on
    an exact event-time tie; the caller then falls back to the scalar
    path permanently, keeping the draw stream consistent.
    """
    arrivals = _arrival_matrix(dissem, t0s)
    survived_2d = None
    if dissem.num_lossy:
        if deadline is not None and not float(arrivals.max()) < deadline:
            return None
        slots = _merged_slots(dissem, arrivals)
        if slots is None:
            return None
        perm, dep, lp = slots
        survived_merged = _segmented_draws(dep, lp, rng)
        survived_flat = np.empty(survived_merged.size, dtype=bool)
        survived_flat[perm] = survived_merged
        survived_2d = survived_flat.reshape(t0s.size, dissem.num_lossy)
    return _finish_cascades(dissem, arrivals, survived_2d, agent_pos)


def build_data_plan(
    dissem: TreeDissem,
    t0: float,
    num_packets: int,
    data_interval: float,
    rng: np.random.Generator,
    agent_pos: np.ndarray,
) -> DataPlan | None:
    """Resolve the whole DATA stream's dissemination at the first send.

    The network gives DATA its own loss lane, so the stream's cascades
    are that lane's only consumer and need no deadline.  Returns
    ``None`` — before any draw — on exact event-time ties.
    """
    t0s = np.empty(num_packets, dtype=np.float64)
    acc = t0
    for k in range(num_packets):  # fl-accumulate like schedule() does
        t0s[k] = acc
        acc = acc + data_interval
    cascades = plan_cascades(dissem, t0s, rng, agent_pos, None)
    return None if cascades is None else DataPlan(t0s=t0s, cascades=cascades)


def subtree_arrivals(
    dissem: TreeDissem, p0: int, t_root: float, scratch: np.ndarray
) -> None:
    """Fill ``scratch`` with arrival times for positions in the subtree
    at ``p0``, the subtree root arriving/starting at ``t_root``.

    Draw-free multicasts only (the caller checked); per-level
    restriction to the preorder interval keeps the cost proportional to
    the subtree, not the tree.
    """
    scratch[p0] = t_root
    size = int(dissem.size_pos[p0])
    if size == 1:
        return
    end = p0 + size
    delay = dissem.delay
    for d in range(int(dissem.depth[p0]) + 1, len(dissem.levels) + 1):
        ch, pa = dissem.levels[d - 1]
        lo = int(np.searchsorted(ch, p0 + 1))
        hi = int(np.searchsorted(ch, end))
        if lo == hi:
            break  # subtree depths are contiguous
        c = ch[lo:hi]
        scratch[c] = scratch[pa[lo:hi]] + delay[c]


def flood_arrivals(
    dissem: TreeDissem, src_pos: int, t0: float
) -> tuple[np.ndarray, np.ndarray]:
    """Arrival times of a draw-free tree flood from ``src_pos``.

    Returns ``(arrivals, pred)``: per-position arrival time and each
    position's flood predecessor (-1 at the source).  The flood
    re-roots the tree at the source: ancestors are entered bottom-up
    over the same links (same delays, reversed direction), everything
    else through its normal parent.  Accumulation is hop-by-hop in both
    directions, matching the scalar float exactly.
    """
    m = dissem.num_members
    parent_pos = dissem.parent_pos
    delay = dissem.delay
    arrivals = np.empty(m, dtype=np.float64)
    pred = parent_pos.copy()
    # Ancestor chain src -> root, sequential (length <= tree depth).
    chain = [src_pos]
    p = int(parent_pos[src_pos])
    while p != -1:
        chain.append(p)
        p = int(parent_pos[p])
    arrivals[src_pos] = t0
    for i in range(1, len(chain)):
        # The upward hop re-uses chain[i-1]'s incoming link.
        arrivals[chain[i]] = arrivals[chain[i - 1]] + delay[chain[i - 1]]
        pred[chain[i]] = chain[i - 1]
    pred[src_pos] = -1
    chain_values = arrivals[chain].copy()
    src_depth = int(dissem.depth[src_pos])
    # chain[i] sits at depth src_depth - i.
    for d in range(1, len(dissem.levels) + 1):
        ch, pa = dissem.levels[d - 1]
        arrivals[ch] = arrivals[pa] + delay[ch]
        if d <= src_depth:
            # The chain node at this depth was just overwritten with a
            # bogus downward value; restore its upward one before the
            # next level reads it as a parent.
            arrivals[chain[src_depth - d]] = chain_values[src_depth - d]
    return arrivals, pred
