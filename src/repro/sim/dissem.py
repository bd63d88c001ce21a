"""Array-native dissemination plans (the struct-of-arrays fast path).

The scalar simulator moves every multicast copy as one heap event per
link traversal: a cascade over an ``M``-member tree is ``M - 1``
closures, heap pushes and RNG draws.  At 100k+ clients that is the
ceiling the ROADMAP names.  This module computes a whole dissemination
in a handful of numpy passes instead:

* :class:`TreeDissem` — static per-tree arrays in preorder (incoming
  edge delay/loss, per-depth level slices, sibling ranks, deepest lossy
  ancestor columns, lossy prefix sums);
* :class:`CascadeSet` — root cascades resolved epoch by epoch: an
  epoch's per-edge Bernoulli draws, across every cascade in flight, are
  taken in the exact ``(event time, sibling rank)`` order the scalar
  path draws them, survivor reachability via anchor columns, arrival
  times as per-level prefix delay sums.  The DATA stream and the
  SESSION flushes each resolve one epoch per send, up to the next send;
* :func:`subtree_arrivals` / :func:`flood_arrivals` — arrival times for
  the draw-free recovery multicasts (repair subtrees, SRM floods).

**Bit-identity contract.** Every plan reproduces the scalar path
exactly: identical RNG consumption (count, order and comparison
direction of draws), identical arrival times (per-hop left-associated
float accumulation — each level does the same single ``fl(a + d)`` the
scalar hop did), identical delivery sets.  A stream is
*refused* (:func:`sends_tie`) before consuming any randomness whenever
the scalar draw order cannot be reproduced from times alone — i.e. when
two cascade events share an exact float timestamp, because the scalar
tie break is heap insertion order, which the vectorized path does not
model.  On the continuous random-delay topologies the experiment
runner generates, exact ties are measure-zero; deterministic
hand-built topologies simply fall back to the scalar path.  A tie
first met by a later send, after draws were spent, can only come from
float rounding; :meth:`CascadeSet.add` reports it and the network
raises on it.

The module is pure computation over a tree + RNG; all simulation state
(event scheduling and calendar batches, ledgers, eligibility gating,
the stream lanes) stays in :mod:`repro.sim.network`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.net.mcast_tree import MulticastTree


class TreeDissem:
    """Static preorder arrays of a :class:`MulticastTree`.

    All arrays are indexed by *preorder position* (root at 0); ``order``
    maps positions back to node ids and ``pos_of_node`` (the tree's
    ``tin``, -1 at non-members) maps node ids to positions.  Built when
    a network arms its fast path, and shared by every plan of that run.
    """

    def __init__(self, tree: MulticastTree):
        self.tree = tree
        topo = tree.topology
        order, pos_of_node, size_nodes, parent_nodes = tree.structure_arrays()
        m = int(order.size)
        self.order = order
        self.num_members = m
        self.pos_of_node = pos_of_node
        parent_node = parent_nodes[order]  # -1 for the root
        parent_pos = np.where(
            parent_node >= 0, pos_of_node[np.maximum(parent_node, 0)], -1
        )
        self.parent_pos = parent_pos
        self.size_pos = size_nodes[order]
        depth = tree.depth_vector()[order]
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


#: ``_segmented_draws`` dependency of a slot whose parent is known
#: dead: it takes no draw and does not survive.
DEAD = -2


def _segmented_draws(
    dep: np.ndarray, lp: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Resolve the loss draws of ``dep.size`` slots in merged order.

    ``dep[i]`` is the merged index of the slot whose survival decides
    whether slot ``i``'s parent event fires, -1 when it always fires and
    :data:`DEAD` when it never does; an index is always ``< i`` (a
    parent's anchor event precedes the child's, and event times are
    unique).  Slots whose parent is dead consume **no** draw — exactly
    the scalar behaviour, where a pruned subtree's events never exist —
    and count as dead for their own dependents.  Draws are taken in
    batches over maximal prefixes whose dependencies are already
    resolved; within a batch ``rng.random(k)`` reads the identical
    stream the scalar path's ``k`` successive ``rng.random()`` calls
    would.
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
            dseg >= 0, survived[np.maximum(dseg, 0)], dseg == -1
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


def _has_ties(times: np.ndarray) -> bool:
    return np.unique(times).size != times.size


def send_grid(t0: float, interval: float, n: int) -> np.ndarray:
    """The instants of ``n`` sends every ``interval`` from ``t0``,
    fl-accumulated the way the event queue re-arms a periodic timer."""
    t0s = np.empty(n, dtype=np.float64)
    acc = t0
    for k in range(n):
        t0s[k] = acc
        acc = acc + interval
    return t0s


@dataclass
class CascadeOutcome:
    """One cascade's resolved dissemination (over one epoch)."""

    #: The cascade's ordinal among those added to its set.
    cascade: int
    #: Agent node ids reached, with their arrival times (same order).
    deliver_nodes: np.ndarray
    deliver_times: np.ndarray
    #: Transmit instants of every link traversal attempt (alive-parent
    #: edges) and of every loss drop — the times the scalar path would
    #: have charged the ledger, kept for drain-cutoff reconciliation.
    hop_times: np.ndarray
    drop_times: np.ndarray


class CascadeSet:
    """Root cascades on one tree and one loss lane, resolved epoch by
    epoch.

    An epoch ``[lo, hi)`` is resolved by :meth:`resolve`: every
    transmission whose parent event falls in it, across all cascades
    still in flight.  Its loss draws are taken in one merged
    ``(parent time, sibling rank)`` order — the order the scalar path
    draws them — which is stream-identical to the scalar path as long as
    the set is the lane's only consumer and no cascade added later has
    an event before ``hi``.  A slot whose parent's anchor was resolved
    in an earlier epoch reads its stored survival; one whose anchor
    falls in this epoch depends on it through ``_segmented_draws``; a
    dead anchor propagates as :data:`DEAD`.  Cascades retire once every
    event precedes the epoch end; an emptied set starts afresh.  Each
    outcome names its cascade by the ordinal :meth:`add` gave it.
    """

    def __init__(
        self,
        dissem: TreeDissem,
        rng: np.random.Generator,
        agent_pos: np.ndarray,
    ):
        self.dissem = dissem
        self.rng = rng
        self.agent_pos = agent_pos
        self.arrivals = np.empty((0, dissem.num_members), dtype=np.float64)
        self.survived = np.empty((0, dissem.num_lossy), dtype=bool)
        #: Cascades added so far; the next one's ordinal.
        self.added = 0
        self.lo = -np.inf

    def add(self, t0: float) -> bool:
        """Start a cascade at ``t0`` (not before the current epoch).

        Returns ``False``, adding nothing, when on a lossy tree one of
        its events and one of a cascade still in flight share an exact
        timestamp: the scalar tie break is heap insertion order, which
        times alone cannot reproduce.
        """
        row = _arrival_matrix(self.dissem, np.array([t0]))
        if self.dissem.num_lossy:
            old = self.arrivals[self.arrivals >= t0]
            if _has_ties(np.concatenate((row.ravel(), old))):
                return False
        self.arrivals = np.concatenate((self.arrivals, row))
        self.survived = np.concatenate((
            self.survived, np.zeros((1, self.dissem.num_lossy), dtype=bool)
        ))
        self.added += 1
        return True

    def resolve(self, hi: float) -> list[CascadeOutcome]:
        """Resolve the epoch ``[lo, hi)``: one outcome per cascade in
        flight, in the order they were added."""
        dissem = self.dissem
        arrivals = self.arrivals
        lo = self.lo
        parent_pos = dissem.parent_pos
        # Transmit instant of every edge (position 1..M-1) per cascade.
        tx = arrivals[:, parent_pos[1:]]
        in_epoch = (tx >= lo) & (tx < hi)
        if dissem.num_lossy:
            self._draw(tx, in_epoch)
            ac = dissem.anchor_col
            alive = np.where(
                ac >= 0, self.survived[:, np.maximum(ac, 0)], True
            )
        else:
            alive = np.ones(arrivals.shape, dtype=bool)
        attempted = in_epoch & alive[:, parent_pos[1:]]
        lossy_pos = dissem.lossy_pos
        dropped = in_epoch[:, lossy_pos - 1] & ~self.survived
        dropped &= alive[:, parent_pos[lossy_pos]]
        agent_pos = self.agent_pos
        reached = in_epoch[:, agent_pos - 1] & alive[:, agent_pos]
        order = dissem.order
        # Every cascade spans the same tree, so they retire in the order
        # they were added: those in flight are the last ones added.
        first = self.added - arrivals.shape[0]
        out = []
        for k in range(arrivals.shape[0]):
            hit = agent_pos[reached[k]]
            out.append(
                CascadeOutcome(
                    cascade=first + k,
                    deliver_nodes=order[hit],
                    deliver_times=arrivals[k, hit],
                    hop_times=tx[k][attempted[k]],
                    drop_times=tx[k, lossy_pos - 1][dropped[k]],
                )
            )
        keep = arrivals.max(axis=1) >= hi
        self.arrivals = arrivals[keep]
        self.survived = self.survived[keep]
        self.lo = hi if keep.any() else -np.inf
        return out

    def _draw(self, tx: np.ndarray, in_epoch: np.ndarray) -> None:
        """Take the epoch's loss draws and store each slot's survival."""
        slots, dep, lp = self._merged_slots(tx, in_epoch)
        survived = self.survived.reshape(-1)
        survived[slots] = _segmented_draws(dep, lp, self.rng)
        self.survived = survived.reshape(self.survived.shape)

    def _merged_slots(
        self, tx: np.ndarray, in_epoch: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The epoch's lossy slots in merged draw order, as flat
        ``cascade * L + lossy_col`` indices, with each one's
        ``_segmented_draws`` dependency and loss probability."""
        dissem = self.dissem
        lossy_pos = dissem.lossy_pos
        l = lossy_pos.size
        flat = np.flatnonzero(in_epoch[:, lossy_pos - 1])
        ptime = tx[:, lossy_pos - 1].ravel()[flat]
        # A slot draws inside its parent's arrival event; equal-time
        # slots only ever share one parent event (times are unique),
        # where the scalar order is sibling order.
        sib = dissem.sib_index[lossy_pos][flat % l]
        slots = flat[np.lexsort((sib, ptime))]
        col = slots % l
        rank = np.full(tx.shape[0] * l, -1, dtype=np.int64)
        rank[slots] = np.arange(slots.size, dtype=np.int64)
        # The parent's anchor slot: -1 = the parent is always reached.
        anchor = dissem.anchor_col[dissem.parent_pos[lossy_pos]][col]
        anchor_flat = slots - col + np.maximum(anchor, 0)
        # An anchor in this epoch is a dependency; one resolved earlier
        # is a known alive or dead parent.
        dep = rank[anchor_flat]
        earlier = dep < 0
        dep[earlier] = np.where(
            self.survived.reshape(-1)[anchor_flat[earlier]], -1, DEAD
        )
        dep[anchor < 0] = -1
        return slots, dep, dissem.loss[lossy_pos][col]


def sends_tie(
    dissem: TreeDissem, t0: float, interval: float, count: int | None
) -> bool:
    """Whether periodic root cascades from ``t0`` tie.

    Checks all ``count`` sends of a stream of known length; ``None``
    checks sends ``0..W``, ``W = ceil(span / interval)`` with ``span``
    the cascade's delay span: every send that overlaps the first.  With
    exactly representable delays the tie pattern repeats every send, so
    this catches integer-delay topologies before any draw; a tie first
    met later can only come from float rounding.
    """
    if count is None:
        span = float(_arrival_matrix(dissem, np.array([t0])).max()) - t0
        count = math.ceil(span / interval) + 1
    t0s = send_grid(t0, interval, count)
    return _has_ties(_arrival_matrix(dissem, t0s).ravel())


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
