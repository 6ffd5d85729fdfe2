"""Unit tests for repro.core.loops — the (i, e_jk)-loop machinery."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placements import random_share_graph
from repro.core.loops import (
    _loops_from_cycle,
    check_loop_conditions,
    decide_loop_edges,
    find_loop,
    has_loop,
    iter_loops,
    loop_edges,
    loops_by_edge,
)
from repro.core.share_graph import ShareGraph
from repro.core.timestamp_graph import TimestampGraph, build_all_timestamp_graphs
from repro.sim.topologies import (
    counterexample1_placement,
    counterexample2_placement,
    figure3_placement,
    figure5_placement,
    geo_replication_placement,
    grid_placement,
    pairwise_clique_placement,
    random_partial_placement,
    ring_placement,
    triangle_placement,
)


class TestPaperExamples:
    """The worked examples of Section 3 (Figure 5)."""

    def test_1_2_3_4_is_a_1_e43_loop(self, figure5_graph):
        # The paper: (1, 2, 3, 4) is a (1, e_43)-loop.
        assert check_loop_conditions(
            figure5_graph, observer=1, jk=(4, 3), l_side=(2, 3), r_side=(4,)
        )

    def test_1_2_3_4_is_a_1_e32_loop(self, figure5_graph):
        # The paper: (1, 2, 3, 4) is a (1, e_32)-loop.
        assert check_loop_conditions(
            figure5_graph, observer=1, jk=(3, 2), l_side=(2,), r_side=(3, 4)
        )

    def test_1_4_3_2_is_not_a_1_e34_loop(self, figure5_graph):
        # The paper: (1, 4, 3, 2) is not a (1, e_34)-loop (condition iii fails,
        # because X_21 - X_4 is empty).
        assert not check_loop_conditions(
            figure5_graph, observer=1, jk=(3, 4), l_side=(4,), r_side=(3, 2)
        )

    def test_1_4_3_2_is_not_a_1_e23_loop(self, figure5_graph):
        assert not check_loop_conditions(
            figure5_graph, observer=1, jk=(2, 3), l_side=(4, 3), r_side=(2,)
        )

    def test_has_loop_matches_paper_for_replica1(self, figure5_graph):
        assert has_loop(figure5_graph, 1, (4, 3))
        assert has_loop(figure5_graph, 1, (3, 2))
        assert not has_loop(figure5_graph, 1, (3, 4))
        assert not has_loop(figure5_graph, 1, (2, 3))

    def test_loop_edges_for_replica1(self, figure5_graph):
        edges = loop_edges(figure5_graph, 1)
        assert (4, 3) in edges
        assert (3, 2) in edges
        assert (3, 4) not in edges
        assert (2, 3) not in edges


class TestLoopObject:
    def test_loop_properties(self, figure5_graph):
        loop = find_loop(figure5_graph, 1, (4, 3))
        assert loop is not None
        assert loop.observer == 1
        assert loop.j == 4 and loop.k == 3
        assert loop.vertices[0] == 1
        assert loop.length == len(loop.vertices)
        assert "e_43" in str(loop)

    def test_find_loop_returns_none_when_absent(self, figure5_graph):
        assert find_loop(figure5_graph, 1, (3, 4)) is None

    def test_loops_by_edge_groups_consistently(self, figure5_graph):
        grouped = loops_by_edge(figure5_graph, 1)
        for e, loops in grouped.items():
            assert loops
            for loop in loops:
                assert loop.edge == e


class TestEdgeCases:
    def test_no_loops_in_trees(self, tree7_graph):
        for rid in tree7_graph.replica_ids:
            assert loop_edges(tree7_graph, rid) == frozenset()

    def test_triangle_every_remote_edge_has_a_loop(self, triangle_graph):
        # In the triangle each replica witnesses both orientations of the
        # opposite edge.
        assert loop_edges(triangle_graph, 1) == frozenset({(2, 3), (3, 2)})
        assert loop_edges(triangle_graph, 2) == frozenset({(1, 3), (3, 1)})
        assert loop_edges(triangle_graph, 3) == frozenset({(1, 2), (2, 1)})

    def test_ring_every_remote_edge_has_a_loop(self, ring6_graph):
        edges = loop_edges(ring6_graph, 1)
        remote = {e for e in ring6_graph.edges if 1 not in e}
        assert edges == remote

    def test_has_loop_rejects_incident_edges(self, triangle_graph):
        assert not has_loop(triangle_graph, 1, (1, 2))
        assert not has_loop(triangle_graph, 1, (2, 1))

    def test_has_loop_rejects_non_edges(self, figure5_graph):
        assert not has_loop(figure5_graph, 2, (1, 3))

    def test_max_loop_length_filters_long_loops(self):
        graph = ShareGraph.from_placement(ring_placement(6))
        # The only loops in a 6-ring have 6 vertices.
        assert loop_edges(graph, 1, max_loop_length=5) == frozenset()
        assert loop_edges(graph, 1, max_loop_length=6) != frozenset()

    def test_iter_loops_with_target_edge_only_yields_that_edge(self, figure5_graph):
        for loop in iter_loops(figure5_graph, 1, target_edge=(4, 3)):
            assert loop.edge == (4, 3)

    def test_check_loop_conditions_rejects_malformed_sides(self, figure5_graph):
        assert not check_loop_conditions(figure5_graph, 1, (4, 3), (), (4,))
        assert not check_loop_conditions(figure5_graph, 1, (4, 3), (2, 3), ())
        # l_side must end with k and r_side must start with j.
        assert not check_loop_conditions(figure5_graph, 1, (4, 3), (2,), (4,))


# ----------------------------------------------------------------------
# Fast split enumeration vs the Definition 4 reference
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_loops_from_cycle_matches_definition4_reference(data):
    """The O(1)-per-split enumeration inside :func:`_loops_from_cycle` is
    exactly equivalent to evaluating :func:`check_loop_conditions` at every
    split point of every oriented cycle — same loops, same order."""
    graph = random_share_graph(data.draw, max_replicas=7, max_owners=3)
    for observer in graph.replica_ids:
        for cycle in graph.simple_cycles_through(observer):
            fast = [
                (loop.edge, loop.l_side, loop.r_side)
                for loop in _loops_from_cycle(graph, observer, cycle)
            ]
            reference = []
            for m in range(1, len(cycle) - 1):
                jk = (cycle[m + 1], cycle[m])
                if jk not in graph.edges:
                    continue
                l_side = tuple(cycle[1:m + 1])
                r_side = tuple(cycle[m + 1:])
                if check_loop_conditions(graph, observer, jk, l_side, r_side):
                    reference.append((jk, l_side, r_side))
            assert fast == reference


# ----------------------------------------------------------------------
# The decision procedure vs the enumerator
# ----------------------------------------------------------------------

def _enumerated_loop_edges(graph, observer, max_loop_length=None):
    return frozenset(
        loop.edge for loop in iter_loops(graph, observer, max_loop_length=max_loop_length)
    )


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_loop_edges_match_the_enumerator_on_random_placements(data):
    graph = random_share_graph(data.draw, max_replicas=8, max_owners=5)
    observer = data.draw(st.sampled_from(graph.replica_ids))
    bound = data.draw(st.one_of(
        st.none(), st.integers(min_value=3, max_value=graph.num_replicas)))
    expected = _enumerated_loop_edges(graph, observer, bound)
    assert loop_edges(graph, observer, max_loop_length=bound) == expected
    for e in sorted(graph.edges):
        assert has_loop(graph, observer, e, max_loop_length=bound) == (e in expected)


@pytest.mark.parametrize("placement", [
    figure3_placement(),
    figure5_placement(),
    triangle_placement(),
    counterexample1_placement(),
    counterexample2_placement(),
    grid_placement(4, 4),
    geo_replication_placement(),
    ring_placement(12),
], ids=["figure3", "figure5", "triangle", "counterexample1", "counterexample2",
        "grid4x4", "geo", "ring12"])
def test_loop_edges_match_the_enumerator_on_named_placements(placement):
    graph = ShareGraph.from_placement(placement)
    for bound in (None, *range(3, graph.num_replicas + 1)):
        for observer in graph.replica_ids:
            assert loop_edges(graph, observer, max_loop_length=bound) == (
                _enumerated_loop_edges(graph, observer, bound)
            ), (observer, bound)


class TestBlowUpInputs:
    """Inputs on which cycle enumeration explodes, bounded by the number of
    l-sides the decision procedure visits — a count, not a clock."""

    @pytest.mark.parametrize("size", [8, 12])
    def test_clique_visits_one_l_side_per_neighbour(self, size):
        graph = ShareGraph.from_placement(pairwise_clique_placement(size))
        for observer in graph.replica_ids:
            edges, visited = decide_loop_edges(graph, observer)
            assert visited == size - 1
            assert len(edges) == (size - 1) * (size - 2)

    @pytest.mark.parametrize("size", [5, 12, 64])
    def test_ring_visits_each_chordless_path_once(self, size):
        graph = ShareGraph.from_placement(ring_placement(size))
        edges, visited = decide_loop_edges(graph, 1)
        assert visited <= 2 * (size - 2)
        assert len(edges) == 2 * (size - 2)

    def test_dense_random_placement_stays_within_its_chordless_paths(self):
        # The benchmark's dropped 16x40 placement: ~10^5 simple cycles per
        # observer, 155 chordless paths out of the worst one.
        graph = ShareGraph.from_placement(random_partial_placement(16, 40, 2, seed=7))
        for observer in graph.replica_ids:
            assert decide_loop_edges(graph, observer)[1] <= 155

    def test_nine_clique_builds(self):
        graph = ShareGraph.from_placement(pairwise_clique_placement(9))
        graphs = build_all_timestamp_graphs(graph)
        assert all(tg.edges == graph.edges for tg in graphs.values())

    def test_long_ring_does_not_recurse(self):
        # 1,500 replicas is past the interpreter's recursion limit; one
        # observer (not all 1,500) keeps this a sub-second test.
        graph = ShareGraph.from_placement(ring_placement(1500))
        assert TimestampGraph.build(graph, 1).edges == graph.edges
