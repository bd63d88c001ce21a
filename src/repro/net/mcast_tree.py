"""Rooted multicast tree over a topology.

The paper assumes multicast is performed over a subtree ``T`` of the
network graph ``G`` with the source at the root and the clients at the
leaves (section 2.1).  It makes no assumption about how ``T`` was built
("T can be the multicast tree generated by CBT or PIM or any other
multicast routing protocol ... its topology is therefore known").

:class:`MulticastTree` stores the rooted structure and answers the
queries the RP planner (section 3/4) is built on:

* ``depth(v)`` — hop count from the source to ``v`` on the tree
  (``DS_u`` for a client ``u``);
* ``first_common_router(u, v)`` — the paper's ``R_j``: the first router
  shared by the tree paths ``S→u`` and ``S→v`` when walking from the
  leaves toward the source, i.e. the lowest common ancestor;
* ``ds(u, v)`` — ``DS_j = depth(first_common_router(u, v))``;
* ``first_common_router(u, v)`` is also the attachment point of ``v``
  on the path ``S→u``, so it defines the *competitive* equivalence
  relation (section 4): peers sharing it are competitive w.r.t. ``u``;
* subtree membership/links, used by the repair-multicast mechanics of
  RMA and the source-subgroup fallback of RP.

The evaluation's tree is "just a spanning subtree generated in the
network topology" with the client count "decided by the randomly
generated spanning subtree" (section 5.1); :func:`random_multicast_tree`
implements that via randomized Prim growth from the source and marks the
resulting leaves as clients.

Query cost: construction (and every prune/graft) runs one DFS that
fills a single index of read-only, node-id-indexed numpy arrays:
preorder entry positions and subtree sizes, depths, the Euler tour
with a sparse table over its depths.  ``first_common_router``/``ds``,
``is_ancestor`` and ``subtree_link_count`` answer in O(1) on plain ints;
:meth:`MulticastTree.lca_vector`, :meth:`MulticastTree.lca_pairs` and
the per-client rows answer many LCAs in one vectorized query.  The
original pointer-walk implementations are kept as ``naive_*`` methods;
the property-based equivalence tests pit the two against each other on
randomized trees.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.net.topology import NodeKind, Topology


class MulticastTree:
    """A rooted spanning subtree of a :class:`Topology`.

    Parameters
    ----------
    topology:
        The underlying graph; every tree edge must exist in it.
    root:
        The source node id.
    parent:
        Mapping ``node -> parent node`` for every tree member except the
        root.  Membership in the tree is defined by presence in this
        mapping (plus the root).
    """

    def __init__(self, topology: Topology, root: int, parent: dict[int, int]):
        if not 0 <= root < topology.num_nodes:
            raise ValueError(f"root {root} is not a node of the topology")
        self._topology = topology
        self._root = root
        self._parent = dict(parent)
        if root in self._parent:
            raise ValueError("root must not have a parent")
        self._children: dict[int, list[int]] = {root: []}
        for node in self._parent:
            self._children.setdefault(node, [])
        for node, par in self._parent.items():
            if par not in self._children:
                raise ValueError(f"parent {par} of {node} is not a tree member")
            self._children[par].append(node)
        for kids in self._children.values():
            kids.sort()
        self._clients: list[int] | None = None
        # Lazy per-node cache for the scalar dissemination walker: flood
        # neighbor tuples (children in sorted order, then the parent).
        # Built on first touch so trees used only for planning pay
        # nothing.
        self._flood_neighbors: dict[int, tuple] = {}
        #: Bumped on every prune/graft; consumers that cache structure
        #: derived from the tree (the plan cache's scenario fingerprint
        #: in particular) key their memos on it so a mutated tree can
        #: never be served stale derived state.
        self.membership_epoch = 0
        self._validate_edges()
        self._build_index()

    # -- construction helpers ---------------------------------------------

    def _build_index(self) -> None:
        """Build the query index in one DFS over the sorted children.

        Every array is read-only.  Node-id-indexed (-1, or NaN for the
        delay, at non-members):

        * ``_tin`` / ``_size`` — preorder entry position and subtree
          member count; a subtree is the slice
          ``_order[tin : tin + size]`` of the preorder ``_order``;
        * ``_parent_arr`` (-1 at the root too), ``_depth``,
          ``_delay_from_root`` and ``_top`` (the child-of-the-source
          ancestor, the root for itself);
        * ``_first`` — first occurrence in the Euler tour ``_euler``,
          whose depths ``_euler_depth`` make LCA a range-minimum query.

        ``_sparse`` is the doubling table of argmin indices over the
        tour depths (row ``k`` answers windows of length ``2^k``, padded
        to tour length; queries never read the padding) and ``_log2``
        the floor-log2 of every window length.
        """
        topo = self._topology
        root = self._root
        children = self._children
        link_between = topo.link_between
        # Per preorder position; `size` is filled when a node is left.
        order = [root]
        parent = [-1]
        depth = [0]
        delay = [0.0]
        top = [root]
        size = [0]
        euler = [root]
        first = [0]
        path_pos = [0]  # preorder positions on the current root path
        pending = [iter(children[root])]
        while pending:
            child = next(pending[-1], None)
            pos = path_pos[-1]
            if child is None:
                pending.pop()
                path_pos.pop()
                size[pos] = len(order) - pos
                if path_pos:
                    euler.append(order[path_pos[-1]])
                continue
            node = order[pos]
            parent.append(node)
            depth.append(len(path_pos))
            delay.append(delay[pos] + link_between(node, child).delay)
            top.append(child if node == root else top[pos])
            size.append(0)
            first.append(len(euler))
            euler.append(child)
            path_pos.append(len(order))
            order.append(child)
            pending.append(iter(children[child]))
        if len(order) != len(children):
            raise ValueError("tree contains a cycle or an unreachable member")

        n = topo.num_nodes
        self._order = _frozen(np.asarray(order, dtype=np.int64))

        def by_node(values, dtype=np.int64, fill=-1):
            arr = np.full(n, fill, dtype=dtype)
            arr[self._order] = values
            return _frozen(arr)

        self._tin = by_node(np.arange(len(order), dtype=np.int64))
        self._size = by_node(size)
        self._parent_arr = by_node(parent)
        self._depth = by_node(depth)
        self._delay_from_root = by_node(delay, np.float64, np.nan)
        self._top = by_node(top)
        self._first = by_node(first)
        self._euler = _frozen(np.asarray(euler, dtype=np.int64))
        self._euler_depth = euler_depth = _frozen(self._depth[self._euler])
        length = len(euler)
        # Ties resolve to the earlier tour position (``<=``).
        sparse = np.zeros((length.bit_length(), length), dtype=np.int64)
        sparse[0] = np.arange(length, dtype=np.int64)
        for k in range(1, len(sparse)):
            span = 1 << (k - 1)
            width = length - 2 * span + 1
            a = sparse[k - 1, :width]
            b = sparse[k - 1, span : span + width]
            sparse[k, :width] = np.where(euler_depth[a] <= euler_depth[b], a, b)
        self._sparse = _frozen(sparse)
        self._log2 = _frozen(floor_log2(length))

    def _validate_edges(self) -> None:
        for node, par in self._parent.items():
            if not self._topology.has_link(node, par):
                raise ValueError(f"tree edge ({par},{node}) missing from topology")

    # -- basic structure -----------------------------------------------------

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def root(self) -> int:
        return self._root

    @property
    def members(self) -> list[int]:
        """All tree nodes (root included), ascending id order."""
        return sorted(self._children)

    @property
    def num_members(self) -> int:
        return len(self._children)

    @property
    def num_tree_links(self) -> int:
        """Number of links in the tree (= members - 1)."""
        return len(self._parent)

    def contains(self, node: int) -> bool:
        return node in self._children

    def parent(self, node: int) -> int | None:
        """Parent of ``node``; ``None`` for the root."""
        if node == self._root:
            return None
        try:
            return self._parent[node]
        except KeyError:
            raise ValueError(f"node {node} is not in the tree") from None

    def children(self, node: int) -> list[int]:
        try:
            return list(self._children[node])
        except KeyError:
            raise ValueError(f"node {node} is not in the tree") from None

    def flood_neighbors(self, node: int) -> tuple:
        """``(neighbor, link)`` pairs for the scalar tree walker, cached:
        the sorted children first, then the parent.  A copy that skips
        the parent is a downward cascade in sorted-child order; the
        walker reads these instead of ``children()`` (which copies) plus
        a ``link_between`` lookup per transmission."""
        cached = self._flood_neighbors.get(node)
        if cached is None:
            try:
                kids = self._children[node]
            except KeyError:
                raise ValueError(f"node {node} is not in the tree") from None
            topo = self._topology
            pairs = [(child, topo.link_between(node, child)) for child in kids]
            if node != self._root:
                par = self._parent[node]
                pairs.append((par, topo.link_between(node, par)))
            cached = tuple(pairs)
            self._flood_neighbors[node] = cached
        return cached

    def is_leaf(self, node: int) -> bool:
        return not self._children[node] and node != self._root

    @property
    def leaves(self) -> list[int]:
        return [n for n in self._children if self.is_leaf(n)]

    @property
    def clients(self) -> list[int]:
        """Tree members marked CLIENT in the topology, ascending order.

        Computed once on first access and cached (the planner reads it
        per client, so recomputing the kind scan + sort is pure waste);
        like :class:`~repro.net.routing.RoutingTable`, queries assume
        node kinds are not mutated afterwards.  Returns a copy.
        """
        if self._clients is None:
            self._clients = sorted(
                n
                for n in self._children
                if self._topology.kind(n) is NodeKind.CLIENT
            )
        return list(self._clients)

    # -- distances ------------------------------------------------------------

    def depth(self, node: int) -> int:
        """Hop count from the source to ``node`` on the tree (``DS``)."""
        if node not in self._children:
            raise ValueError(f"node {node} is not in the tree")
        return self._depth.item(node)

    def delay_from_root(self, node: int) -> float:
        """Sum of expected link delays from the source to ``node`` on the tree."""
        if node not in self._children:
            raise ValueError(f"node {node} is not in the tree")
        return self._delay_from_root.item(node)

    def path_to_root(self, node: int) -> list[int]:
        """Tree path ``[node, parent, ..., root]``."""
        path = [node]
        while path[-1] != self._root:
            path.append(self._parent[path[-1]])
        return path

    def path_from_root(self, node: int) -> list[int]:
        """Tree path ``[root, ..., node]``."""
        path = self.path_to_root(node)
        path.reverse()
        return path

    def tree_path(self, u: int, v: int) -> list[int]:
        """Unique tree path from ``u`` to ``v`` (both inclusive)."""
        lca = self.first_common_router(u, v)
        up = []
        node = u
        while node != lca:
            up.append(node)
            node = self._parent[node]
        down = []
        node = v
        while node != lca:
            down.append(node)
            node = self._parent[node]
        down.reverse()
        return up + [lca] + down

    # -- the paper's ancestor queries ----------------------------------------

    def first_common_router(self, u: int, v: int) -> int:
        """The paper's ``R``: first shared node of the root paths of ``u``
        and ``v`` — the lowest common ancestor.  O(1) via the Euler-tour
        sparse table, on plain ints (``ndarray.item``), since numpy
        arithmetic on scalars costs an order of magnitude more."""
        children = self._children
        if u not in children or v not in children:
            missing = u if u not in children else v
            raise ValueError(f"node {missing} is not in the tree")
        first = self._first
        iu, iv = first.item(u), first.item(v)
        if iu > iv:
            iu, iv = iv, iu
        k = (iv - iu + 1).bit_length() - 1
        sparse = self._sparse
        a = sparse.item(k, iu)
        b = sparse.item(k, iv - (1 << k) + 1)
        depths = self._euler_depth
        return self._euler.item(a if depths.item(a) <= depths.item(b) else b)

    def naive_first_common_router(self, u: int, v: int) -> int:
        """Reference pointer-walk LCA (O(depth)); the equivalence tests
        pit :meth:`first_common_router` against this."""
        du, dv = self.depth(u), self.depth(v)
        a, b = u, v
        while du > dv:
            a = self._parent[a]
            du -= 1
        while dv > du:
            b = self._parent[b]
            dv -= 1
        while a != b:
            a = self._parent[a]
            b = self._parent[b]
        return a

    def ds(self, u: int, v: int) -> int:
        """``DS`` for peer ``v`` relative to client ``u``: hop count from
        the source to their first common router (section 3.2)."""
        return self._depth.item(self.first_common_router(u, v))

    def lca_row(self, client: int) -> dict[int, int]:
        """``first_common_router(client, v)`` for **every** member ``v``,
        in one vectorized query (vs n individual ones).

        This is what the competitive-class builder consumes; iteration
        order of the result is the tree's preorder.
        """
        if client not in self._children:
            raise ValueError(f"client {client} is not a tree member")
        order = self._order
        return dict(zip(order.tolist(), self.lca_vector(client, order).tolist()))

    def ds_row(self, client: int) -> dict[int, int]:
        """``ds(client, v)`` for every member ``v`` in one vectorized
        query (the depth of each :meth:`lca_row` entry)."""
        depth = self._depth
        return {node: depth.item(anc) for node, anc in self.lca_row(client).items()}

    def _first_of(self, nodes: "np.ndarray") -> "np.ndarray":
        """Euler-tour first occurrences of member ids; raises on a
        non-member (an id outside the topology included)."""
        first = self._first
        inside = (nodes >= 0) & (nodes < len(first))
        pos = np.full(len(nodes), -1, dtype=np.int64)
        pos[inside] = first[nodes[inside]]
        if len(pos) and int(pos.min()) < 0:
            missing = int(nodes[pos < 0][0])
            raise ValueError(f"node {missing} is not in the tree")
        return pos

    def _lca_of_positions(self, iu, iv) -> "np.ndarray":
        """Range-minimum over the tour depths between first occurrences
        ``iu`` and ``iv`` (element-wise, broadcasting): the LCA ids."""
        lo = np.minimum(iu, iv)
        hi = np.maximum(iu, iv)
        k = self._log2[hi - lo + 1]
        a = self._sparse[k, lo]
        b = self._sparse[k, hi - (1 << k) + 1]
        depths = self._euler_depth
        return self._euler[np.where(depths[a] <= depths[b], a, b)]

    def lca_vector(self, client: int, nodes: "np.ndarray") -> "np.ndarray":
        """``first_common_router(client, v)`` for an array of member ids
        in one vectorized sparse-table query (no Python-level loop)."""
        if client not in self._children:
            raise ValueError(f"node {client} is not in the tree")
        return self._lca_of_positions(self._first.item(client), self._first_of(nodes))

    def lca_pairs(self, us: "np.ndarray", vs: "np.ndarray") -> "np.ndarray":
        """Element-wise ``first_common_router(us[i], vs[i])`` over two
        member-id arrays in one vectorized sparse-table query.  The
        batched planner uses this to map each near-tier (client, peer)
        pair onto the client's competitive class at their meeting
        ancestor."""
        return self._lca_of_positions(self._first_of(us), self._first_of(vs))

    def depth_vector(self) -> "np.ndarray":
        """Node-id-indexed depth array (-1 for non-members); read-only."""
        return self._depth

    def structure_arrays(self) -> tuple:
        """The rooted structure as read-only arrays: ``(order, tin, size,
        parent)`` — the preorder member sequence, and node-id-indexed
        entry positions, subtree member counts and parents (-1 for the
        root and for non-members).  This is what the array-native
        batched planner and the dissemination fast path walk instead of
        the per-node API."""
        return self._order, self._tin, self._size, self._parent_arr

    # -- subtree queries --------------------------------------------------------

    def subtree_nodes(self, node: int) -> list[int]:
        """All tree members in the subtree rooted at ``node`` (inclusive),
        ascending id order."""
        return sorted(self.iter_subtree(node))

    def iter_subtree(self, node: int):
        """Members of the subtree rooted at ``node`` in preorder — no
        sort; for callers that only need membership or an
        order-insensitive aggregate."""
        if node not in self._children:
            raise ValueError(f"node {node} is not in the tree")
        tin = self._tin.item(node)
        return iter(self._order[tin : tin + self._size.item(node)].tolist())

    def subtree_clients(self, node: int) -> list[int]:
        topo = self._topology
        return sorted(
            n for n in self.iter_subtree(node) if topo.kind(n) is NodeKind.CLIENT
        )

    def subtree_size(self, node: int) -> int:
        """Number of members in the subtree rooted at ``node``; O(1)."""
        if node not in self._children:
            raise ValueError(f"node {node} is not in the tree")
        return self._size.item(node)

    def subtree_link_count(self, node: int) -> int:
        """Number of tree links inside the subtree rooted at ``node``;
        O(1) (subtree member count minus one)."""
        return self.subtree_size(node) - 1

    def is_ancestor(self, ancestor: int, node: int) -> bool:
        """True when ``ancestor`` lies on the tree path root→``node``
        (nodes are their own ancestors).  O(1) via preorder intervals."""
        children = self._children
        if ancestor not in children or node not in children:
            missing = ancestor if ancestor not in children else node
            raise ValueError(f"node {missing} is not in the tree")
        tin = self._tin
        ta = tin.item(ancestor)
        return ta <= tin.item(node) < ta + self._size.item(ancestor)

    def naive_is_ancestor(self, ancestor: int, node: int) -> bool:
        """Reference pointer-walk ancestor test (O(depth))."""
        d = self.depth(ancestor)
        cur = node
        cd = self.depth(node)
        while cd > d:
            cur = self._parent[cur]
            cd -= 1
        return cur == ancestor

    def top_level_subgroup(self, node: int) -> int:
        """Root of the top-level subtree containing ``node``.

        RP's source fallback multicasts the repair "to all members of the
        subgroup from where the recovery request came" (section 2.2); we
        define subgroups as the subtrees hanging off each child of the
        source.  Returns the child of the source that is an ancestor of
        ``node`` (or the root itself when ``node`` is the root); O(1).
        """
        if node not in self._children:
            raise ValueError(f"node {node} is not in the tree")
        return self._top.item(node)

    # -- dynamic membership (prune/graft) ---------------------------------

    def clone(self) -> "MulticastTree":
        """Structural copy sharing the (unmutated) topology.

        Churned runs prune/graft their own copy so the built scenario's
        tree — shared by every protocol run of the seed — stays
        pristine.  Client-ness lives in the topology's node kinds, so
        root + parent map is the whole structural state.
        """
        return MulticastTree(self._topology, self._root, self._parent)

    def _rebuild_structure(self) -> None:
        """Recompute the query index after a prune/graft.

        Epoch-granular rebuild: the index is rebuilt eagerly (the same
        O(n log n) pass as construction), the two lazy caches (client
        list, per-node link tuples) are dropped and refill on first
        touch.  ``membership_epoch`` is bumped so any consumer that
        memoized against the old structure revalidates.
        """
        self.membership_epoch += 1
        self._clients = None
        self._flood_neighbors = {}
        self._build_index()

    def prune_leaf(self, node: int) -> int:
        """Remove leaf ``node`` from the tree; returns its former parent
        (the graft point for a later rejoin).

        Only leaves can be pruned: an interior member is load-bearing
        for everything below it, so a departing interior client stays on
        the tree as a pure forwarder (the membership layer suppresses
        its protocol participation instead).
        """
        if node == self._root:
            raise ValueError("cannot prune the root")
        if node not in self._children:
            raise ValueError(f"node {node} is not in the tree")
        if self._children[node]:
            raise ValueError(
                f"node {node} has children; only leaves can be pruned"
            )
        parent = self._parent.pop(node)
        del self._children[node]
        self._children[parent].remove(node)
        self._rebuild_structure()
        return parent

    def graft_leaf(self, node: int, parent: int) -> None:
        """Attach ``node`` as a new leaf child of ``parent``.

        The topology must hold the edge (tree edges are always real
        links); grafting a current member is an error — prune it first.
        """
        if node in self._children:
            raise ValueError(f"node {node} is already a tree member")
        if parent not in self._children:
            raise ValueError(f"parent {parent} is not a tree member")
        if not self._topology.has_link(node, parent):
            raise ValueError(
                f"tree edge ({parent},{node}) missing from topology"
            )
        self._parent[node] = parent
        self._children[node] = []
        bisect.insort(self._children[parent], node)
        self._rebuild_structure()


def floor_log2(n: int) -> np.ndarray:
    """``floor(log2 i)`` for ``i`` in ``0..n`` (0 at ``i = 0``), the
    level lookup of a sparse range-minimum table."""
    # frexp's exponent of an integer x >= 1 is floor(log2 x) + 1.
    log2 = np.frexp(np.arange(n + 1, dtype=np.float64))[1] - 1
    log2[0] = 0
    return log2.astype(np.int64)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def random_multicast_tree(
    topology: Topology, rng: np.random.Generator
) -> MulticastTree:
    """Grow a random spanning subtree from the source (randomized Prim).

    Starting at the source, repeatedly pick a uniformly random frontier
    edge (an edge from a tree member to a non-member) and attach it, until
    every node reachable from the source is in the tree.  This reproduces
    the paper's "the multicast tree is just a spanning subtree generated
    in the network topology" and re-kinds every tree leaf as CLIENT so
    that "k is decided by the randomly generated spanning subtree"
    (section 5.1).
    """
    root = topology.source
    parent: dict[int, int] = {}
    in_tree = {root}
    frontier: list[tuple[int, int]] = [
        (root, neighbor) for neighbor in topology.neighbors(root)
    ]
    while frontier:
        index = int(rng.integers(0, len(frontier)))
        # Swap-remove keeps the pick O(1).
        frontier[index], frontier[-1] = frontier[-1], frontier[index]
        tree_node, new_node = frontier.pop()
        if new_node in in_tree:
            continue
        parent[new_node] = tree_node
        in_tree.add(new_node)
        for neighbor in topology.neighbors(new_node):
            if neighbor not in in_tree:
                frontier.append((new_node, neighbor))

    tree = MulticastTree(topology, root, parent)
    for leaf in tree.leaves:
        if topology.kind(leaf) is NodeKind.ROUTER:
            topology.node_kinds[leaf] = NodeKind.CLIENT
    return tree
