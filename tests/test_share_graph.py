"""Unit tests for repro.core.share_graph."""

from __future__ import annotations

import pickle

import pytest

from repro.core.errors import ConfigurationError, UnknownReplicaError
from repro.core.registers import RegisterPlacement
from repro.core.share_graph import ShareGraph, edge, reverse
from repro.sim.topologies import (
    clique_placement,
    figure3_placement,
    figure5_placement,
    path_placement,
    ring_placement,
    tree_placement,
    triangle_placement,
)


class TestEdgeHelpers:
    def test_edge_is_a_tuple(self):
        assert edge(1, 2) == (1, 2)

    def test_reverse(self):
        assert reverse((1, 2)) == (2, 1)


class TestEdges:
    def test_figure3_edges(self, figure3_graph):
        # The Figure 3 share graph is the path 1 - 2 - 3 - 4.
        expected = {(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)}
        assert figure3_graph.edges == expected

    def test_edges_come_in_pairs(self, any_small_graph):
        for (a, b) in any_small_graph.edges:
            assert (b, a) in any_small_graph.edges

    def test_edge_iff_shared_register(self, any_small_graph):
        graph = any_small_graph
        for a in graph.replica_ids:
            for b in graph.replica_ids:
                if a == b:
                    continue
                assert graph.has_edge(a, b) == bool(graph.shared_registers(a, b))

    def test_no_self_edges(self, any_small_graph):
        assert all(a != b for (a, b) in any_small_graph.edges)

    def test_figure5_edge_registers(self, figure5_graph):
        assert figure5_graph.edge_registers((3, 4)) == frozenset({"z"})
        assert figure5_graph.edge_registers((1, 4)) == frozenset({"y", "w"})
        assert not figure5_graph.has_edge(1, 3)

    def test_undirected_edges_half_the_directed_count(self, any_small_graph):
        assert len(any_small_graph.undirected_edges) * 2 == len(any_small_graph.edges)


class TestNeighbors:
    def test_neighbors_figure3(self, figure3_graph):
        assert figure3_graph.neighbors(1) == (2,)
        assert figure3_graph.neighbors(2) == (1, 3)
        assert figure3_graph.degree(2) == 2

    def test_neighbors_unknown_replica(self, figure3_graph):
        with pytest.raises(UnknownReplicaError):
            figure3_graph.neighbors(42)

    def test_incident_edges(self, figure3_graph):
        assert figure3_graph.incident_edges(1) == frozenset({(1, 2), (2, 1)})
        assert figure3_graph.outgoing_edges(2) == frozenset({(2, 1), (2, 3)})
        assert figure3_graph.incoming_edges(2) == frozenset({(1, 2), (3, 2)})

    def test_incident_is_union_of_in_and_out(self, any_small_graph):
        graph = any_small_graph
        for rid in graph.replica_ids:
            assert graph.incident_edges(rid) == (
                graph.incoming_edges(rid) | graph.outgoing_edges(rid)
            )

    def test_lookup_tables_match_the_placement(self, any_small_graph):
        graph = any_small_graph
        adjacency, edge_registers, holders = graph.index()
        assert {(i, j) for i, js in adjacency.items() for j in js} == graph.edges
        assert set(edge_registers) == graph.edges
        for (i, j), registers in edge_registers.items():
            assert frozenset(registers) == graph.shared_registers(i, j)
        for register, replicas in holders.items():
            assert replicas == graph.replicas_storing(register)

    def test_lookup_tables_stay_out_of_equality_and_pickles(self, figure3_graph):
        # A ShareGraph crosses ``spawn`` to every node process.
        untouched = pickle.dumps(figure3_graph)
        figure3_graph.neighbors(1)
        assert "_index" in figure3_graph.__dict__
        assert pickle.dumps(figure3_graph) == untouched
        clone = pickle.loads(untouched)
        assert clone == figure3_graph and clone.edges == figure3_graph.edges
        assert "_index" not in clone.__dict__
        assert clone.neighbors(2) == (1, 3)


class TestStructure:
    def test_is_connected(self, any_small_graph):
        assert any_small_graph.is_connected()

    def test_disconnected_components(self):
        placement = RegisterPlacement.from_dict({1: {"a"}, 2: {"a"}, 3: {"b"}, 4: {"b"}})
        graph = ShareGraph.from_placement(placement)
        assert not graph.is_connected()
        components = graph.connected_components()
        assert frozenset({1, 2}) in components
        assert frozenset({3, 4}) in components

    def test_is_tree(self):
        assert ShareGraph.from_placement(tree_placement(7)).is_tree()
        assert ShareGraph.from_placement(path_placement(4)).is_tree()
        assert not ShareGraph.from_placement(ring_placement(5)).is_tree()

    def test_is_cycle(self):
        assert ShareGraph.from_placement(ring_placement(5)).is_cycle()
        assert not ShareGraph.from_placement(tree_placement(5)).is_cycle()
        assert ShareGraph.from_placement(triangle_placement()).is_cycle()

    def test_is_clique(self):
        assert ShareGraph.from_placement(clique_placement(4)).is_clique()
        assert not ShareGraph.from_placement(figure3_placement()).is_clique()

    def test_spanning_tree_covers_all_replicas(self, any_small_graph):
        graph = any_small_graph
        root = graph.replica_ids[0]
        parents = graph.spanning_tree(root)
        assert set(parents) == set(graph.replica_ids) - {root}
        # Every parent edge is a share-graph adjacency.
        for child, parent in parents.items():
            assert graph.has_edge(child, parent)

    def test_spanning_tree_requires_connected_graph(self):
        placement = RegisterPlacement.from_dict({1: {"a"}, 2: {"a"}, 3: {"b"}, 4: {"b"}})
        graph = ShareGraph.from_placement(placement)
        with pytest.raises(ConfigurationError):
            graph.spanning_tree(1)

    def test_to_networkx_carries_register_labels(self, figure5_graph):
        nxg = figure5_graph.to_networkx()
        assert nxg.edges[(3, 4)]["registers"] == ["z"]

    def test_contains(self, figure3_graph):
        assert (1, 2) in figure3_graph
        assert (1, 4) not in figure3_graph
        assert 3 in figure3_graph

    def test_describe_lists_adjacencies(self, figure3_graph):
        text = figure3_graph.describe()
        assert "1 <-> 2" in text and "3 <-> 4" in text


class TestCycleEnumeration:
    def test_triangle_has_cycles_through_each_replica(self, triangle_graph):
        for rid in triangle_graph.replica_ids:
            cycles = list(triangle_graph.simple_cycles_through(rid))
            # The triangle is traversed in two directions.
            assert len(cycles) == 2
            for cycle in cycles:
                assert cycle[0] == rid
                assert len(cycle) == 3

    def test_tree_has_no_cycles(self, tree7_graph):
        for rid in tree7_graph.replica_ids:
            assert list(tree7_graph.simple_cycles_through(rid)) == []

    def test_cycles_are_simple(self, figure5_graph):
        for cycle in figure5_graph.simple_cycles_through(1):
            assert len(set(cycle)) == len(cycle)

    def test_max_length_bound_respected(self, ring6_graph):
        short = list(ring6_graph.simple_cycles_through(1, max_length=5))
        assert short == []
        full = list(ring6_graph.simple_cycles_through(1, max_length=6))
        assert full and all(len(c) == 6 for c in full)

    def test_consecutive_cycle_vertices_are_adjacent(self, figure5_graph):
        for cycle in figure5_graph.simple_cycles_through(2):
            closed = list(cycle) + [cycle[0]]
            for a, b in zip(closed[:-1], closed[1:]):
                assert figure5_graph.has_edge(a, b)
