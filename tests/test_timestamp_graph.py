"""Unit tests for repro.core.timestamp_graph — Definition 5 and the Fig. 5 example."""

from __future__ import annotations

import math

import pytest

from repro.core.loops import iter_loops
from repro.core.share_graph import ShareGraph
from repro.core.timestamp_graph import (
    TimestampGraph,
    build_all_timestamp_graphs,
    metadata_summary,
    timestamp_edges,
)
from repro.sim.topologies import (
    clique_placement,
    figure5_placement,
    pairwise_clique_placement,
    random_partial_placement,
    ring_placement,
    tree_placement,
)


class TestFigure5:
    """The exact timestamp graph of Figure 5(b)."""

    def test_replica1_contains_e43_but_not_e34(self, figure5_graph):
        edges = timestamp_edges(figure5_graph, 1)
        assert (4, 3) in edges
        assert (3, 4) not in edges

    def test_replica1_contains_e32_but_not_e23(self, figure5_graph):
        edges = timestamp_edges(figure5_graph, 1)
        assert (3, 2) in edges
        assert (2, 3) not in edges

    def test_replica1_full_edge_set(self, figure5_graph):
        assert timestamp_edges(figure5_graph, 1) == frozenset(
            {(1, 2), (2, 1), (1, 4), (4, 1), (2, 4), (4, 2), (3, 2), (4, 3)}
        )

    def test_timestamp_edges_not_necessarily_bidirectional(self, figure5_graph):
        # The paper highlights that timestamp edges are not bidirectional.
        edges = timestamp_edges(figure5_graph, 1)
        asymmetric = [(a, b) for (a, b) in edges if (b, a) not in edges]
        assert asymmetric


class TestStructuralInvariants:
    def test_incident_edges_always_tracked(self, any_small_graph):
        graph = any_small_graph
        for rid in graph.replica_ids:
            assert graph.incident_edges(rid) <= timestamp_edges(graph, rid)

    def test_edges_subset_of_share_graph(self, any_small_graph):
        graph = any_small_graph
        for rid in graph.replica_ids:
            assert timestamp_edges(graph, rid) <= graph.edges

    def test_tree_tracks_only_incident_edges(self, tree7_graph):
        for rid in tree7_graph.replica_ids:
            assert timestamp_edges(tree7_graph, rid) == tree7_graph.incident_edges(rid)
            assert len(timestamp_edges(tree7_graph, rid)) == 2 * tree7_graph.degree(rid)

    def test_cycle_tracks_all_edges(self, ring6_graph):
        for rid in ring6_graph.replica_ids:
            assert timestamp_edges(ring6_graph, rid) == ring6_graph.edges
            assert len(timestamp_edges(ring6_graph, rid)) == 2 * 6

    def test_clique_tracks_all_edges(self, clique4_graph):
        for rid in clique4_graph.replica_ids:
            assert timestamp_edges(clique4_graph, rid) == clique4_graph.edges


class TestTimestampGraphObject:
    def test_build_and_queries(self, figure5_graph):
        tg = TimestampGraph.build(figure5_graph, 1)
        assert tg.replica_id == 1
        assert tg.num_counters == 8
        assert tg.tracks((4, 3))
        assert not tg.tracks((3, 4))
        assert tg.incident_edges() == frozenset({(1, 2), (2, 1), (1, 4), (4, 1)})
        assert tg.remote_edges() == frozenset({(2, 4), (4, 2), (3, 2), (4, 3)})
        assert set(tg.vertices) == {1, 2, 3, 4}

    def test_from_edges_constructor(self, figure5_graph):
        tg = TimestampGraph.from_edges(figure5_graph, 1, [(1, 2), (2, 1)])
        assert tg.num_counters == 2
        assert tg.tracks((1, 2))

    def test_outgoing_edges_of(self, figure5_graph):
        tg = TimestampGraph.build(figure5_graph, 1)
        assert tg.outgoing_edges_of(4) == frozenset({(4, 1), (4, 2), (4, 3)})

    def test_shared_edges_with(self, figure5_graph):
        tg1 = TimestampGraph.build(figure5_graph, 1)
        tg2 = TimestampGraph.build(figure5_graph, 2)
        shared = tg1.shared_edges_with(tg2)
        assert shared <= tg1.edges and shared <= tg2.edges
        assert (1, 2) in shared

    def test_size_bits(self, figure5_graph):
        tg = TimestampGraph.build(figure5_graph, 1)
        assert tg.size_bits(15) == pytest.approx(8 * math.log2(16))
        with pytest.raises(ValueError):
            tg.size_bits(0)

    def test_describe_mentions_loop_and_incident(self, figure5_graph):
        text = TimestampGraph.build(figure5_graph, 1).describe()
        assert "(incident)" in text and "(loop)" in text

    def test_max_loop_length_restriction(self, ring6_graph):
        bounded = TimestampGraph.build(ring6_graph, 1, max_loop_length=3)
        exact = TimestampGraph.build(ring6_graph, 1)
        assert bounded.edges < exact.edges
        assert bounded.edges == ring6_graph.incident_edges(1)


class TestHelpers:
    def test_build_all_timestamp_graphs(self, figure5_graph):
        graphs = build_all_timestamp_graphs(figure5_graph)
        assert set(graphs) == {1, 2, 3, 4}
        assert graphs[1].num_counters == 8

    def test_metadata_summary(self, figure5_graph):
        graphs = build_all_timestamp_graphs(figure5_graph)
        summary = metadata_summary(graphs)
        assert summary[1] == 8
        assert list(summary) == sorted(summary)


@pytest.mark.parametrize("placement", [
    pairwise_clique_placement(8),   # clique8_mem, clique8_wal
    tree_placement(8),              # tree8_mem
    random_partial_placement(16, 32, 2, seed=7),   # sim_rand16_chaos
], ids=["clique8", "tree8", "rand16"])
def test_benchmark_placements_match_the_enumerator(placement):
    """``E_i`` on the placements of ``bench/workloads.py`` is exactly what
    listing every ``(i, e_jk)``-loop gives (the enumerator's ~3 s are spent
    once, here)."""
    graph = ShareGraph.from_placement(placement)
    for rid in graph.replica_ids:
        enumerated = {loop.edge for loop in iter_loops(graph, rid)}
        assert timestamp_edges(graph, rid) == graph.incident_edges(rid) | enumerated
