"""The exact backend's shared row store: backends built by name share
the Dijkstra rows of one delay graph across builds (the points of a
loss sweep), keyed by a digest that leaves loss out; a backend built
directly keeps its own; ``plan_cache.clear()`` drops the shared store."""

import math

import pytest

from repro.core import plan_cache
from repro.experiments import parallel
from repro.experiments.config import ScenarioConfig
from repro.experiments.figures import run_loss_sweep
from repro.experiments.persistence import sweep_to_dict
from repro.experiments.runner import build_scenario
from repro.lru import LRU
from repro.net import routing as routing_module
from repro.net.routing import (
    ExactDistanceBackend,
    RoutingTable,
    delay_graph_digest,
)
from repro.net.topology import Topology

LOSS_PROBS = (0.0, 0.05, 0.1)


@pytest.fixture
def computed(monkeypatch):
    """The sources of every full row computed, in order, from a cold
    shared store and an empty sweep scenario cache."""
    sources = []
    row = routing_module._CoreDijkstra.row

    def spy(self, source):
        sources.append(source)
        return row(self, source)

    monkeypatch.setattr(routing_module._CoreDijkstra, "row", spy)
    monkeypatch.setattr(
        parallel, "_scenario_cache", LRU(parallel.SCENARIO_CACHE_SIZE)
    )
    plan_cache.clear()
    yield sources
    plan_cache.clear()


def build(loss_prob=0.05):
    return build_scenario(ScenarioConfig(
        seed=4, num_routers=30, loss_prob=loss_prob, num_packets=4
    ))


def sweep():
    return run_loss_sweep(
        loss_probs=LOSS_PROBS, num_routers=30, num_packets=4, seeds=(1,),
        jobs=1,
    )


def copy_topology(topology, nudge=None, loss_prob=None):
    """A fresh :class:`Topology` equal to ``topology``, with link
    ``nudge``'s delay one ULP larger and every loss set to ``loss_prob``
    when given."""
    copy = Topology()
    for node in range(topology.num_nodes):
        copy.add_node(topology.kind(node))
    for i, link in enumerate(topology.links):
        delay = link.delay
        if i == nudge:
            delay = math.nextafter(delay, math.inf)
        loss = link.loss_prob if loss_prob is None else loss_prob
        copy.add_link(link.u, link.v, delay, loss)
    return copy


def test_loss_sweep_computes_each_row_once(computed):
    # Routing is loss-independent, so the three builds of a three-point
    # sweep (run in this process) compute each source's row once between
    # them, not once per build.
    sweep()
    assert computed
    assert len(computed) == len(set(computed))


def test_row_sharing_leaves_a_loss_sweep_unchanged(computed, monkeypatch):
    # Every run of a sweep reads the same numbers from a shared store as
    # from a private store per build: the saved sweeps are equal.
    shared = sweep_to_dict(sweep())
    rows_shared = len(computed)
    monkeypatch.setattr(
        parallel, "_scenario_cache", LRU(parallel.SCENARIO_CACHE_SIZE)
    )
    monkeypatch.setattr(
        routing_module, "_shared_store", routing_module._RowStore
    )
    plan_cache.clear()
    private = sweep_to_dict(sweep())
    assert private == shared
    assert len(computed) - rows_shared > rows_shared


def test_shared_rows_equal_a_private_backends(computed):
    # Rows a build serves from another build's store are byte-equal to
    # a fresh private backend's, distances and predecessors alike.
    first, second = build(0.0), build(0.2)
    sources = range(first.topology.num_nodes)
    for source in sources:
        first.routing.backend.shortest_path_tree(source)
    assert len(computed) == len(sources)
    private = ExactDistanceBackend(second.topology)
    for source in sources:
        dist, pred = second.routing.backend.shortest_path_tree(source)
        fresh_dist, fresh_pred = private.shortest_path_tree(source)
        assert dist.tobytes() == fresh_dist.tobytes()
        assert pred.tobytes() == fresh_pred.tobytes()
    # The private backend computed every row; the second build none.
    assert len(computed) == 2 * len(sources)
    assert second.routing.backend.cached_rows == len(sources)


def test_clear_makes_the_next_build_recompute(computed):
    # plan_cache.clear() is the one reset for cross-build memo state:
    # without it a benchmark's later repetitions would start warm.
    build().routing.delay(3, 0)
    build().routing.delay(3, 0)
    assert computed == [3]
    plan_cache.clear()
    build().routing.delay(3, 0)
    assert computed == [3, 3]


def test_one_ulp_in_one_delay_gets_its_own_store(computed):
    # The digest covers every delay bit for bit and no loss: a copy that
    # differs only in loss shares the original's rows; one ULP in one
    # link delay does not.
    topology = build().topology
    same = copy_topology(topology, loss_prob=0.3)
    nudged = copy_topology(topology, nudge=len(topology.links) // 2)
    assert delay_graph_digest(same) == delay_graph_digest(topology)
    assert delay_graph_digest(nudged) != delay_graph_digest(topology)
    RoutingTable(topology).distances_from(5)
    RoutingTable(same).distances_from(5)
    assert computed == [5]
    row = RoutingTable(nudged).distances_from(5)
    assert computed == [5, 5]
    assert row.tobytes() == (
        ExactDistanceBackend(nudged).distances_from(5).tobytes()
    )


def test_explicit_backends_stay_private(computed):
    # A directly constructed backend neither sees the shared store's
    # rows nor lends it its own (the exact-lru benchmark and the work
    # count pins rely on a cold backend).
    topology = build().topology
    shared = RoutingTable(topology)
    shared.distances_from(2)
    private = ExactDistanceBackend(topology)
    assert private.cached_rows == 0
    private.distances_from(2)
    private.distances_from(7)
    assert computed == [2, 2, 7]
    assert private.cached_rows == 2
    RoutingTable(topology).distances_from(7)
    assert computed == [2, 2, 7, 7]
    assert shared.backend.cached_rows == 2


def test_digest_is_memoized_and_follows_mutation():
    # Each topology's links are hashed once for every consumer (row
    # store and plan-cache fingerprint), until the topology grows.
    topology = build().topology
    digest = delay_graph_digest(topology)
    assert delay_graph_digest(topology) is digest
    topology.set_loss_prob(0.2)
    assert delay_graph_digest(topology) is digest
    node = topology.add_node()
    assert delay_graph_digest(topology) != digest
    grown = delay_graph_digest(topology)
    topology.add_link(0, node, 1.0)
    assert delay_graph_digest(topology) not in (digest, grown)
