"""Competitive equivalence classes and candidate clients (section 4).

Two peers are *competitive with respect to client u* when their nearest
ancestors on the tree path ``S → u`` coincide — equivalently, when their
first common routers with ``u`` are the same node (hence the same
``DS``).  Lemma 4: an optimal strategy contains at most one peer from
each competitive class, and only the class member with the smallest
per-attempt delay can appear.  Those per-class minima are the
**candidate clients**; the optimal strategy is a subset of them sorted
by strictly decreasing ``DS`` (Lemma 5, "meaningful strategies").

The paper breaks per-class ties at random; we break them
deterministically by ``(rtt, node id)`` so planning is reproducible —
the objective value is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.mcast_tree import MulticastTree
from repro.net.routing import RoutingTable


@dataclass(frozen=True)
class Candidate:
    """A candidate recovery peer for a specific client.

    Parameters
    ----------
    node:
        Peer node id.
    ds:
        Hops from the source to the first common router of the peer and
        the client on the multicast tree.
    rtt:
        Expected round-trip time from the client to the peer (routing
        table estimate, shortest paths in the full graph).
    """

    node: int
    ds: int
    rtt: float


def competitive_classes(
    tree: MulticastTree,
    client: int,
    peers: list[int] | None = None,
) -> dict[int, list[int]]:
    """Partition peers into competitive classes with respect to ``client``.

    Returns a mapping ``ancestor node on S→client path -> peer ids``.
    Peers in the client's own subtree (``DS == DS_u``, i.e. ancestor is
    the client itself) and the client/source are excluded: under the
    single-loss model they lost every packet the client lost, so they can
    never help (Lemma 2).

    ``peers`` defaults to every client of the tree.
    """
    if not tree.contains(client):
        raise ValueError(f"client {client} is not a tree member")
    if client == tree.root:
        raise ValueError("the source does not need a recovery strategy")
    if peers is None:
        peers = tree.clients
    # One vectorized query answers every peer's first common router at
    # once (vs one LCA query per peer).
    row = tree.lca_row(client)
    ds_u = tree.depth(client)
    root = tree.root
    # Every ancestor the row can return lies on the S→client path.
    path_depth = {node: tree.depth(node) for node in tree.path_to_root(client)}
    classes: dict[int, list[int]] = {}
    for peer in peers:
        if peer == client or peer == root:
            continue
        ancestor = row.get(peer)
        if ancestor is None:
            raise ValueError(f"peer {peer} is not a tree member")
        if path_depth[ancestor] >= ds_u:
            # Peer hangs below the client on the tree: guaranteed to have
            # lost whatever the client lost.
            continue
        classes.setdefault(ancestor, []).append(peer)
    for members in classes.values():
        members.sort()
    return classes


def candidate_clients(
    tree: MulticastTree,
    routing: RoutingTable,
    client: int,
    peers: list[int] | None = None,
) -> list[Candidate]:
    """Candidate clients for ``client``: one min-RTT peer per competitive
    class, sorted by strictly decreasing ``DS`` (the meaningful-strategy
    order Algorithm 1 expects).

    Ties inside a class are broken by ``(rtt, node id)``.  The returned
    ``DS`` values are pairwise distinct because each class corresponds to
    a distinct node on the single path ``S → client``.

    This is the paper's per-client construction, kept as the reference:
    the planner computes the same candidates for many clients at once in
    :func:`repro.core.planner_batch.row_candidates` (equivalence-tested).
    """
    classes = competitive_classes(tree, client, peers)
    # One Dijkstra row for the client; rtt(client, v) == 2 * dist[v]
    # (symmetric links), so each member costs one list index instead of
    # the per-pair rtt() call chain.
    dist = routing.distances_from(client)
    candidates: list[Candidate] = []
    for ancestor, members in classes.items():
        ds = tree.depth(ancestor)
        # One rtt evaluation per member; min over (rtt, id) pairs keeps
        # the deterministic tie-break and reuses the winner's rtt.
        best_rtt, best = min((2.0 * dist[peer], peer) for peer in members)
        candidates.append(Candidate(node=best, ds=ds, rtt=float(best_rtt)))
    candidates.sort(key=lambda c: (-c.ds, c.node))
    return candidates
