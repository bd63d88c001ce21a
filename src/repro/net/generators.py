"""Seeded topology generators.

The paper's evaluation (section 5.1) uses randomly generated topologies:
``m`` backbone routers connected by randomly generated links, a source
attached to the backbone, and the multicast tree taken as a random spanning
subtree (clients end up at the tree leaves).  :func:`random_backbone`
reproduces that construction.  The typical per-link delay ``d(i)`` is drawn
first and the *expected* delay used everywhere is then uniform in
``[d(i), 2 d(i)]``, exactly as the paper describes.

Deterministic shapes (line, star, grid, dumbbell, binary tree) are provided
for tests, examples and worked micro-benchmarks; they make hand-computation
of ``DS`` distances and expected delays feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.net.topology import NodeKind, Topology


@dataclass(frozen=True)
class TopologyConfig:
    """Parameters for :func:`random_backbone`.

    Parameters
    ----------
    num_routers:
        Number of backbone routers ``m`` (the paper's ``n`` input counts
        backbone nodes; the source is attached additionally).
    extra_link_fraction:
        Fraction of extra random links added on top of the random spanning
        tree that guarantees connectivity.  ``0.3`` means
        ``0.3 * num_routers`` additional links (deduplicated).
    typical_delay_range:
        ``(low, high)`` range the typical link delay ``d(i)`` is drawn
        from, in milliseconds.  The expected delay is then drawn uniformly
        in ``[d(i), 2 d(i)]``.
    loss_prob:
        Per-link loss probability applied uniformly.
    """

    num_routers: int
    extra_link_fraction: float = 0.3
    typical_delay_range: tuple[float, float] = (1.0, 10.0)
    loss_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.num_routers < 1:
            raise ValueError("num_routers must be >= 1")
        # Negated, so NaN fails too: random_backbone turns the fraction
        # into a link count and draws delays from the range.
        if not 0 <= self.extra_link_fraction < math.inf:
            raise ValueError("extra_link_fraction must be finite and >= 0")
        low, high = self.typical_delay_range
        if not 0 < low <= high < math.inf:
            raise ValueError(
                "typical_delay_range must satisfy 0 < low <= high < inf"
            )
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError("loss_prob must be in [0, 1)")


def _draw_delay(config: TopologyConfig, rng: np.random.Generator) -> float:
    """Draw one expected link delay per the paper's two-stage scheme."""
    low, high = config.typical_delay_range
    typical = float(rng.uniform(low, high))
    return float(rng.uniform(typical, 2.0 * typical))


def random_backbone(config: TopologyConfig, rng: np.random.Generator) -> Topology:
    """Generate a connected random backbone with an attached source.

    Construction:

    1. Create ``num_routers`` ROUTER nodes.
    2. Connect them with a uniform random spanning tree (each new router
       links to a uniformly chosen earlier router) — guarantees
       connectivity.
    3. Add ``extra_link_fraction * num_routers`` random extra links
       (rejecting duplicates/self-loops) so unicast routing has path
       diversity, as in a real backbone.
    4. Attach one SOURCE node by a single link to a random router (the
       paper puts the source outside the router backbone at the tree
       root, section 2.1).

    Clients are *not* designated here: the multicast tree construction
    (:func:`repro.net.mcast_tree.random_multicast_tree`) marks its leaves
    as clients, matching "k is decided by the randomly generated spanning
    subtree" (section 5.1).
    """
    topo = Topology()
    routers = topo.add_nodes(config.num_routers, NodeKind.ROUTER)

    # Random spanning tree over the routers.
    for i in range(1, config.num_routers):
        parent = int(rng.integers(0, i))
        topo.add_link(routers[i], routers[parent], _draw_delay(config, rng), config.loss_prob)

    # Extra random links for path diversity.
    extra = int(round(config.extra_link_fraction * config.num_routers))
    attempts = 0
    added = 0
    max_attempts = 50 * (extra + 1)
    max_possible = config.num_routers * (config.num_routers - 1) // 2
    while added < extra and attempts < max_attempts and topo.num_links < max_possible:
        attempts += 1
        u = int(rng.integers(0, config.num_routers))
        v = int(rng.integers(0, config.num_routers))
        if u == v or topo.has_link(u, v):
            continue
        topo.add_link(u, v, _draw_delay(config, rng), config.loss_prob)
        added += 1

    source = topo.add_node(NodeKind.SOURCE)
    attach = int(rng.integers(0, config.num_routers))
    topo.add_link(source, attach, _draw_delay(config, rng), config.loss_prob)
    return topo


def apply_loss_hotspots(
    topology: Topology,
    rng: np.random.Generator,
    count: int,
    multiplier: float = 5.0,
    max_loss: float = 0.5,
) -> list[int]:
    """Raise the loss probability of ``count`` random links (in place).

    Models heterogeneous reliability — a few flaky links in an otherwise
    uniform network — which breaks the paper's implicit premise that the
    lost link is uniform over a path (Lemma 1).  Each chosen link's loss
    becomes ``min(max_loss, multiplier × loss)``.  Returns the affected
    link indices (sorted) so experiments can report where the hotspots
    landed.  Requires the topology's links to already have positive
    loss.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if multiplier < 1.0:
        raise ValueError("multiplier must be >= 1")
    if not 0.0 < max_loss < 1.0:
        raise ValueError("max_loss must be in (0, 1)")
    count = min(count, topology.num_links)
    if count == 0:
        return []
    picks = sorted(
        int(i) for i in rng.choice(topology.num_links, size=count, replace=False)
    )
    from repro.net.topology import Link

    for index in picks:
        link = topology.links[index]
        boosted = min(max_loss, link.loss_prob * multiplier)
        topology.links[index] = Link(link.u, link.v, link.delay, boosted)
    return picks


def waxman_backbone(
    config: TopologyConfig,
    rng: np.random.Generator,
    alpha: float = 0.4,
    beta: float = 0.3,
) -> Topology:
    """Waxman random graph backbone — the classic internet-topology model.

    Routers get uniform positions in the unit square; a link between
    routers at distance ``d`` exists with probability
    ``alpha * exp(-d / (beta * sqrt(2)))``.  Expected link delays scale
    with Euclidean distance (mapped onto ``typical_delay_range``), then
    the paper's two-stage draw applies.  A random spanning tree is added
    first so the result is always connected; ``extra_link_fraction`` is
    ignored (Waxman supplies the redundancy).

    This goes beyond the paper's plain random graph: it gives the
    figure sweeps a geographically plausible alternative substrate.
    """
    if not 0 < alpha <= 1 or beta <= 0:
        raise ValueError("need 0 < alpha <= 1 and beta > 0")
    n = config.num_routers
    topo = Topology()
    routers = topo.add_nodes(n, NodeKind.ROUTER)
    positions = rng.uniform(0.0, 1.0, size=(n, 2))
    low, high = config.typical_delay_range
    max_dist = 2.0**0.5

    def delay_for(i: int, j: int) -> float:
        dist = float(np.linalg.norm(positions[i] - positions[j]))
        typical = low + (high - low) * dist / max_dist
        return float(rng.uniform(typical, 2.0 * typical))

    # Connectivity first: random spanning tree.
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        topo.add_link(routers[i], routers[parent], delay_for(i, parent),
                      config.loss_prob)
    # Waxman links on top.
    for i in range(n):
        for j in range(i + 1, n):
            if topo.has_link(i, j):
                continue
            dist = float(np.linalg.norm(positions[i] - positions[j]))
            if rng.random() < alpha * np.exp(-dist / (beta * max_dist)):
                topo.add_link(i, j, delay_for(i, j), config.loss_prob)

    source = topo.add_node(NodeKind.SOURCE)
    attach = int(rng.integers(0, n))
    topo.add_link(source, attach, _draw_delay(config, rng), config.loss_prob)
    return topo


# ---------------------------------------------------------------------------
# Deterministic shapes (tests / examples / worked benchmarks)
# ---------------------------------------------------------------------------


def line_topology(
    num_routers: int,
    num_clients_at_end: int = 1,
    delay: float = 1.0,
    loss_prob: float = 0.0,
) -> Topology:
    """Source — chain of routers — fan of clients at the far end.

    Layout: ``S - r0 - r1 - ... - r_{m-1} - {c0..}``; every link has the
    same ``delay``.  Useful to verify hop counts and delays by hand.
    """
    if num_routers < 1:
        raise ValueError("need at least one router")
    topo = Topology()
    routers = topo.add_nodes(num_routers, NodeKind.ROUTER)
    source = topo.add_node(NodeKind.SOURCE)
    topo.add_link(source, routers[0], delay, loss_prob)
    for a, b in zip(routers, routers[1:]):
        topo.add_link(a, b, delay, loss_prob)
    for _ in range(num_clients_at_end):
        client = topo.add_node(NodeKind.CLIENT)
        topo.add_link(routers[-1], client, delay, loss_prob)
    return topo


def star_topology(
    num_clients: int, delay: float = 1.0, loss_prob: float = 0.0
) -> Topology:
    """Source — hub router — clients, all direct spokes."""
    if num_clients < 1:
        raise ValueError("need at least one client")
    topo = Topology()
    hub = topo.add_node(NodeKind.ROUTER)
    source = topo.add_node(NodeKind.SOURCE)
    topo.add_link(source, hub, delay, loss_prob)
    for _ in range(num_clients):
        client = topo.add_node(NodeKind.CLIENT)
        topo.add_link(hub, client, delay, loss_prob)
    return topo


def binary_tree_topology(
    depth: int, delay: float = 1.0, loss_prob: float = 0.0
) -> Topology:
    """Complete binary router tree of given depth with clients at leaves.

    The source hangs off the root router.  Routers: ``2^depth - 1``;
    clients: ``2^depth`` (two per deepest router? no — one per leaf
    router's two stub links).  Concretely each deepest-level router gets
    two CLIENT children, so clients = ``2^depth``.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    topo = Topology()
    # Routers laid out heap-style: router i has children 2i+1, 2i+2.
    num_routers = 2**depth - 1
    routers = topo.add_nodes(num_routers, NodeKind.ROUTER)
    for i in range(num_routers):
        for child in (2 * i + 1, 2 * i + 2):
            if child < num_routers:
                topo.add_link(routers[i], routers[child], delay, loss_prob)
    source = topo.add_node(NodeKind.SOURCE)
    topo.add_link(source, routers[0], delay, loss_prob)
    first_leaf = 2 ** (depth - 1) - 1
    for i in range(first_leaf, num_routers):
        for _ in range(2):
            client = topo.add_node(NodeKind.CLIENT)
            topo.add_link(routers[i], client, delay, loss_prob)
    return topo


def grid_topology(
    rows: int, cols: int, delay: float = 1.0, loss_prob: float = 0.0
) -> Topology:
    """Router grid with the source at corner (0,0); no clients designated.

    Used to exercise routing on graphs with many equal-cost paths.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be >= 1")
    topo = Topology()
    ids = [[topo.add_node(NodeKind.ROUTER) for _ in range(cols)] for _ in range(rows)]
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                topo.add_link(ids[r][c], ids[r][c + 1], delay, loss_prob)
            if r + 1 < rows:
                topo.add_link(ids[r][c], ids[r + 1][c], delay, loss_prob)
    source = topo.add_node(NodeKind.SOURCE)
    topo.add_link(source, ids[0][0], delay, loss_prob)
    return topo


def dumbbell_topology(
    clients_per_side: int,
    bottleneck_delay: float = 10.0,
    edge_delay: float = 1.0,
    loss_prob: float = 0.0,
) -> Topology:
    """Two client clusters joined by a long bottleneck link.

    The source sits on the left cluster; the right cluster is reached only
    through the bottleneck, creating the highly correlated-loss situation
    the paper's introduction warns about (nearby peers share the lossy
    bottleneck, far peers do not).
    """
    if clients_per_side < 1:
        raise ValueError("clients_per_side must be >= 1")
    topo = Topology()
    left = topo.add_node(NodeKind.ROUTER)
    right = topo.add_node(NodeKind.ROUTER)
    topo.add_link(left, right, bottleneck_delay, loss_prob)
    source = topo.add_node(NodeKind.SOURCE)
    topo.add_link(source, left, edge_delay, loss_prob)
    for hub in (left, right):
        for _ in range(clients_per_side):
            client = topo.add_node(NodeKind.CLIENT)
            topo.add_link(hub, client, edge_delay, loss_prob)
    return topo
