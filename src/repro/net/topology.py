"""Undirected weighted network topology.

The paper models the network as a graph ``G = (V, E)`` where ``V`` is the
set of nodes (routers, clients, the source) and ``E`` the set of
point-to-point links (section 2.2).  Links carry an *expected delay* — the
paper generates a typical delay ``d(i)`` per link and then uses a uniform
draw in ``[d(i), 2 d(i)]`` as the expected delay (section 5.1); generators
in :mod:`repro.net.generators` perform that draw, so by the time a
:class:`Topology` exists every link has one fixed expected delay that both
the routing substrate and the packet simulator use.

Nodes are dense integer ids (``0 .. num_nodes-1``) so adjacency can be a
plain list-of-lists and per-node state in the simulator can live in flat
arrays, following the HPC guidance of keeping hot structures contiguous.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator


class NodeKind(enum.Enum):
    """Role of a node in the multicast session.

    ``ROUTER``
        Backbone router; forwards packets, keeps no payload state
        (the paper: "routers do not save any data packet after
        forwarding").
    ``CLIENT``
        A member of the multicast group (receiver / recovery peer).
    ``SOURCE``
        The multicast source (root of the tree).
    ``GHOST``
        A synthetic node introduced by the shared-link rewrite
        (:mod:`repro.net.ghost`); behaves like a router.
    """

    ROUTER = "router"
    CLIENT = "client"
    SOURCE = "source"
    GHOST = "ghost"


@dataclass(frozen=True)
class Link:
    """A point-to-point bidirectional link.

    Parameters
    ----------
    u, v:
        Endpoint node ids; stored with ``u < v`` (canonical order).
    delay:
        Expected one-way propagation + queueing delay in milliseconds.
        Fixed for the lifetime of the topology (section 5.1: link delay
        is independent of the number of packets traversing the link).
    loss_prob:
        Per-traversal packet loss probability.  ``0 <= loss_prob < 1``.
    """

    u: int
    v: int
    delay: float
    loss_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError(f"self-loop link on node {self.u}")
        if self.u > self.v:
            raise ValueError("Link endpoints must satisfy u < v; use Topology.add_link")
        if not 0.0 < self.delay < math.inf:
            raise ValueError(
                f"link ({self.u},{self.v}) has delay {self.delay} outside (0, inf)"
            )
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError(
                f"link ({self.u},{self.v}) has loss_prob {self.loss_prob} outside [0, 1)"
            )

    def other(self, node: int) -> int:
        """Return the endpoint opposite to ``node``."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise ValueError(f"node {node} is not an endpoint of link ({self.u},{self.v})")


@dataclass
class Topology:
    """A mutable undirected network graph with typed nodes.

    Node ids must be added contiguously starting at 0.  The class keeps an
    adjacency list of ``(neighbor, link_index)`` pairs for O(degree)
    neighborhood scans, plus an edge dictionary for O(1) link lookup.
    """

    node_kinds: list[NodeKind] = field(default_factory=list)
    links: list[Link] = field(default_factory=list)
    _adjacency: list[list[tuple[int, int]]] = field(default_factory=list)
    _edge_index: dict[tuple[int, int], int] = field(default_factory=dict)

    # -- construction -----------------------------------------------------

    def add_node(self, kind: NodeKind = NodeKind.ROUTER) -> int:
        """Add a node and return its id."""
        node_id = len(self.node_kinds)
        self.node_kinds.append(kind)
        self._adjacency.append([])
        return node_id

    def add_nodes(self, count: int, kind: NodeKind = NodeKind.ROUTER) -> list[int]:
        """Add ``count`` nodes of the same kind, returning their ids."""
        return [self.add_node(kind) for _ in range(count)]

    def add_link(self, u: int, v: int, delay: float, loss_prob: float = 0.0) -> int:
        """Add a bidirectional link; returns its index in :attr:`links`.

        Raises ``ValueError`` on unknown endpoints or duplicate links.
        """
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise ValueError(f"link ({u},{v}) references unknown node")
        a, b = (u, v) if u < v else (v, u)
        if (a, b) in self._edge_index:
            raise ValueError(f"duplicate link ({a},{b})")
        link = Link(a, b, delay, loss_prob)
        index = len(self.links)
        self.links.append(link)
        self._edge_index[(a, b)] = index
        self._adjacency[a].append((b, index))
        self._adjacency[b].append((a, index))
        return index

    def set_loss_prob(self, loss_prob: float) -> None:
        """Set a uniform per-link loss probability on every link."""
        self.links = [
            Link(link.u, link.v, link.delay, loss_prob) for link in self.links
        ]

    # -- queries -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.node_kinds)

    @property
    def num_links(self) -> int:
        return len(self.links)

    def kind(self, node: int) -> NodeKind:
        return self.node_kinds[node]

    def nodes_of_kind(self, kind: NodeKind) -> list[int]:
        return [i for i, k in enumerate(self.node_kinds) if k is kind]

    @property
    def source(self) -> int:
        """Id of the unique SOURCE node; raises if absent or ambiguous."""
        sources = self.nodes_of_kind(NodeKind.SOURCE)
        if len(sources) != 1:
            raise ValueError(f"topology has {len(sources)} source nodes, expected 1")
        return sources[0]

    @property
    def clients(self) -> list[int]:
        return self.nodes_of_kind(NodeKind.CLIENT)

    def neighbors(self, node: int) -> Iterator[int]:
        for neighbor, _ in self._adjacency[node]:
            yield neighbor

    def incident(self, node: int) -> Iterator[tuple[int, int]]:
        """Yield ``(neighbor, link_index)`` pairs for ``node``."""
        return iter(self._adjacency[node])

    def degree(self, node: int) -> int:
        return len(self._adjacency[node])

    def link_between(self, u: int, v: int) -> Link:
        return self.links[self.link_index(u, v)]

    def link_index(self, u: int, v: int) -> int:
        a, b = (u, v) if u < v else (v, u)
        try:
            return self._edge_index[(a, b)]
        except KeyError:
            raise KeyError(f"no link between {u} and {v}") from None

    def has_link(self, u: int, v: int) -> bool:
        a, b = (u, v) if u < v else (v, u)
        return (a, b) in self._edge_index

    def is_connected(self) -> bool:
        """True when every node is reachable from node 0 (or graph empty)."""
        if self.num_nodes == 0:
            return True
        seen = [False] * self.num_nodes
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            node = stack.pop()
            for neighbor in self.neighbors(node):
                if not seen[neighbor]:
                    seen[neighbor] = True
                    count += 1
                    stack.append(neighbor)
        return count == self.num_nodes

    def path_delay(self, path: Iterable[int]) -> float:
        """Total expected delay along a node path (consecutive hops)."""
        total = 0.0
        previous: int | None = None
        for node in path:
            if previous is not None:
                total += self.link_between(previous, node).delay
            previous = node
        return total

    def validate(self) -> None:
        """Raise ``ValueError`` if internal invariants are violated."""
        for index, link in enumerate(self.links):
            if self._edge_index.get((link.u, link.v)) != index:
                raise ValueError(f"edge index out of sync for link {index}")
        for node, adjacency in enumerate(self._adjacency):
            neighbors = [n for n, _ in adjacency]
            if len(set(neighbors)) != len(neighbors):
                raise ValueError(f"duplicate adjacency entries at node {node}")
            for neighbor, link_index in adjacency:
                link = self.links[link_index]
                if node not in (link.u, link.v) or link.other(node) != neighbor:
                    raise ValueError(
                        f"adjacency of node {node} references wrong link {link_index}"
                    )
