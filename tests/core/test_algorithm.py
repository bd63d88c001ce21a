"""Tests for Algorithm 1, verified against brute force and networkx."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithm import (
    searching_minimal_delay,
    searching_minimal_delay_bounded,
)
from repro.core.bruteforce import (
    brute_force_best_any_order,
    brute_force_best_strategy,
)
from repro.core.candidates import Candidate
from repro.core.strategy_graph import StrategyGraph, StrategyRestrictions


def graph_from_specs(ds_u, specs, source_rtt, timeout=3.0, restrictions=None):
    """specs: list of (ds, rtt) descending in ds."""
    candidates = [
        Candidate(node=100 + i, ds=ds, rtt=rtt) for i, (ds, rtt) in enumerate(specs)
    ]
    return StrategyGraph(
        ds_u=ds_u,
        candidates=candidates,
        source_rtt=source_rtt,
        timeouts=[timeout] * len(candidates),
        restrictions=restrictions,
    )


# Strategy for random instances: ds_u, descending unique ds list, rtts.
@st.composite
def instances(draw, max_ds_u=12, max_candidates=7):
    ds_u = draw(st.integers(min_value=1, max_value=max_ds_u))
    ds_values = draw(
        st.lists(
            st.integers(min_value=0, max_value=ds_u - 1),
            max_size=min(max_candidates, ds_u),
            unique=True,
        ).map(lambda xs: sorted(xs, reverse=True))
    )
    specs = [
        (ds, draw(st.floats(min_value=0.1, max_value=100.0)))
        for ds in ds_values
    ]
    source_rtt = draw(st.floats(min_value=0.1, max_value=300.0))
    timeout = draw(st.floats(min_value=0.1, max_value=200.0))
    return ds_u, specs, source_rtt, timeout


class TestAlgorithmBasics:
    def test_empty_candidates_goes_to_source(self):
        graph = graph_from_specs(3, [], source_rtt=42.0)
        result = searching_minimal_delay(graph)
        assert result.path == ()
        assert result.delay == pytest.approx(42.0)

    def test_prefers_good_peer_over_distant_source(self):
        # One peer ds=1, cheap; source very far.
        graph = graph_from_specs(4, [(1, 2.0)], source_rtt=1000.0, timeout=5.0)
        result = searching_minimal_delay(graph)
        assert result.path == (1,)
        # 3/4*2 + 1/4*5 + 1/4*1000.
        assert result.delay == pytest.approx(0.75 * 2 + 0.25 * 5 + 250.0)

    def test_skips_dominated_peer(self):
        # A uselessly expensive peer should not appear.
        graph = graph_from_specs(
            4, [(3, 500.0), (1, 2.0)], source_rtt=1000.0, timeout=5.0
        )
        result = searching_minimal_delay(graph)
        assert result.path == (2,)

    def test_unreachable_sink_raises(self):
        graph = graph_from_specs(
            3, [], source_rtt=10.0,
            restrictions=StrategyRestrictions(forbid_direct_source=True),
        )
        with pytest.raises(ValueError):
            searching_minimal_delay(graph)

    def test_forbid_direct_source_forces_peer(self):
        # Direct source would be optimal, but the restriction forbids it.
        graph = graph_from_specs(
            4, [(1, 50.0)], source_rtt=1.0, timeout=60.0,
            restrictions=StrategyRestrictions(forbid_direct_source=True),
        )
        result = searching_minimal_delay(graph)
        assert result.path == (1,)


@pytest.mark.parametrize("n", [8, 32, 128, 512])
def test_weighs_each_edge_once(monkeypatch, n):
    # The paper's O(N²): one pass weighs every edge of the complete DAG
    # over u, v_1 .. v_N, S exactly once, (N+1)(N+2)/2 of them.  On
    # these candidates the paper's skip never fires.
    graph = graph_from_specs(
        n + 1, [(n - i, 5.0 + i % 7) for i in range(n)],
        source_rtt=300.0, timeout=20.0,
    )
    calls = 0
    weight = StrategyGraph.weight

    def counted(self, i, j):
        nonlocal calls
        calls += 1
        return weight(self, i, j)

    monkeypatch.setattr(StrategyGraph, "weight", counted)
    assert searching_minimal_delay(graph).delay > 0
    assert calls == (n + 1) * (n + 2) // 2


class TestAgainstBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(instances())
    def test_matches_meaningful_brute_force(self, instance):
        ds_u, specs, source_rtt, timeout = instance
        graph = graph_from_specs(ds_u, specs, source_rtt, timeout)
        result = searching_minimal_delay(graph)
        timeouts = {100 + i: timeout for i in range(len(specs))}
        candidates = graph.candidates
        best_delay, _ = brute_force_best_strategy(
            ds_u, candidates, source_rtt, timeouts
        )
        assert result.delay == pytest.approx(best_delay)

    @settings(max_examples=60, deadline=None)
    @given(instances(max_ds_u=8, max_candidates=4))
    def test_lemmas_4_5_meaningful_optimum_is_global(self, instance):
        """The unrestricted (any order) optimum never beats the
        meaningful-strategy optimum — the content of Lemmas 4 and 5."""
        ds_u, specs, source_rtt, timeout = instance
        graph = graph_from_specs(ds_u, specs, source_rtt, timeout)
        result = searching_minimal_delay(graph)
        timeouts = {100 + i: timeout for i in range(len(specs))}
        any_delay, _ = brute_force_best_any_order(
            ds_u, graph.candidates, source_rtt, timeouts
        )
        assert result.delay == pytest.approx(any_delay)

    @settings(max_examples=100, deadline=None)
    @given(instances())
    def test_matches_networkx_shortest_path(self, instance):
        ds_u, specs, source_rtt, timeout = instance
        graph = graph_from_specs(ds_u, specs, source_rtt, timeout)
        result = searching_minimal_delay(graph)
        g = nx.DiGraph()
        g.add_nodes_from(range(graph.num_nodes))
        for i, j, w in graph.edge_list():
            g.add_edge(i, j, weight=w)
        nx_delay = nx.dijkstra_path_length(g, 0, graph.sink)
        assert result.delay == pytest.approx(nx_delay)

    @settings(max_examples=60, deadline=None)
    @given(instances())
    def test_reported_path_has_reported_delay(self, instance):
        ds_u, specs, source_rtt, timeout = instance
        graph = graph_from_specs(ds_u, specs, source_rtt, timeout)
        result = searching_minimal_delay(graph)
        assert graph.path_delay(list(result.path)) == pytest.approx(result.delay)


class TestBoundedVariant:
    def test_bound_zero_means_direct_source(self):
        graph = graph_from_specs(4, [(1, 2.0)], source_rtt=1000.0)
        result = searching_minimal_delay_bounded(graph, 0)
        assert result.path == ()
        assert result.delay == pytest.approx(1000.0)

    def test_large_bound_equals_unbounded(self):
        graph = graph_from_specs(
            6, [(4, 9.0), (2, 7.0), (1, 5.0)], source_rtt=100.0, timeout=20.0
        )
        unbounded = searching_minimal_delay(graph)
        bounded = searching_minimal_delay_bounded(graph, 10)
        assert bounded.delay == pytest.approx(unbounded.delay)
        assert bounded.path == unbounded.path

    def test_bound_restricts_choice(self):
        # With a bound of 1, only single-peer strategies compete.
        graph = graph_from_specs(
            6, [(4, 9.0), (2, 7.0), (1, 5.0)], source_rtt=200.0, timeout=10.0
        )
        bounded = searching_minimal_delay_bounded(graph, 1)
        assert len(bounded.path) <= 1
        unbounded = searching_minimal_delay(graph)
        assert bounded.delay >= unbounded.delay - 1e-12

    def test_negative_bound_rejected(self):
        graph = graph_from_specs(3, [], source_rtt=10.0)
        with pytest.raises(ValueError):
            searching_minimal_delay_bounded(graph, -1)

    def test_bound_zero_with_forbidden_source_raises(self):
        graph = graph_from_specs(
            4, [(1, 2.0)], source_rtt=10.0,
            restrictions=StrategyRestrictions(forbid_direct_source=True),
        )
        with pytest.raises(ValueError):
            searching_minimal_delay_bounded(graph, 0)

    @settings(max_examples=60, deadline=None)
    @given(instances(max_ds_u=8, max_candidates=5), st.integers(0, 5))
    def test_bounded_matches_length_limited_brute_force(self, instance, bound):
        ds_u, specs, source_rtt, timeout = instance
        graph = graph_from_specs(ds_u, specs, source_rtt, timeout)
        result = searching_minimal_delay_bounded(graph, bound)
        timeouts = {100 + i: timeout for i in range(len(specs))}
        best, _ = brute_force_best_any_order(
            ds_u, graph.candidates, source_rtt, timeouts, max_length=bound
        )
        assert result.delay == pytest.approx(best)
        assert len(result.path) <= bound
