"""Unit tests for repro.core.timestamps — edge timestamps, advance/merge/J, vector clocks."""

from __future__ import annotations

import pytest

from repro.core.errors import ProtocolError
from repro.core.share_graph import ShareGraph
from repro.core.timestamp_graph import TimestampGraph
from repro.core.timestamps import (
    EdgeTimestamp,
    VectorTimestamp,
    advance,
    delivery_predicate,
    merge,
)
from repro.sim.topologies import figure5_placement, triangle_placement


@pytest.fixture
def tri_graph():
    return ShareGraph.from_placement(triangle_placement())


class TestEdgeTimestamp:
    def test_zero_constructor(self):
        ts = EdgeTimestamp.zero([(1, 2), (2, 1)])
        assert ts[(1, 2)] == 0 and ts[(2, 1)] == 0
        assert len(ts) == 2

    def test_missing_edge_reads_as_zero(self):
        ts = EdgeTimestamp({(1, 2): 3})
        assert ts[(9, 9)] == 0
        assert ts.get((9, 9), default=7) == 7

    def test_negative_counter_rejected(self):
        with pytest.raises(ProtocolError):
            EdgeTimestamp({(1, 2): -1})

    def test_bad_index_rejected(self):
        with pytest.raises(ProtocolError):
            EdgeTimestamp({(1, 2, 3): 0})

    def test_incremented_only_touches_indexed_edges(self):
        ts = EdgeTimestamp.zero([(1, 2)])
        bumped = ts.incremented([(1, 2), (9, 9)])
        assert bumped[(1, 2)] == 1
        assert (9, 9) not in bumped
        # Original unchanged (immutability).
        assert ts[(1, 2)] == 0

    def test_merged_with_takes_elementwise_max(self):
        a = EdgeTimestamp({(1, 2): 3, (2, 1): 1})
        b = EdgeTimestamp({(1, 2): 2, (2, 1): 5, (3, 1): 9})
        merged = a.merged_with(b)
        assert merged[(1, 2)] == 3
        assert merged[(2, 1)] == 5
        assert (3, 1) not in merged  # only edges indexed by `a` are kept

    def test_merged_with_explicit_shared_edges(self):
        a = EdgeTimestamp({(1, 2): 0, (2, 1): 0})
        b = EdgeTimestamp({(1, 2): 4, (2, 1): 4})
        merged = a.merged_with(b, shared_edges=[(1, 2)])
        assert merged[(1, 2)] == 4 and merged[(2, 1)] == 0

    def test_dominates(self):
        small = EdgeTimestamp({(1, 2): 1, (2, 1): 1})
        big = EdgeTimestamp({(1, 2): 2, (2, 1): 1})
        assert big.dominates(small)
        assert not small.dominates(big)

    def test_equality_and_hash(self):
        a = EdgeTimestamp({(1, 2): 1})
        b = EdgeTimestamp({(1, 2): 1})
        c = EdgeTimestamp({(1, 2): 2})
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != "not a timestamp"

    def test_total_and_sizes(self):
        ts = EdgeTimestamp({(1, 2): 3, (2, 1): 4})
        assert ts.total() == 7
        assert ts.size_counters() == 2
        assert ts.size_bits(max_updates=15) == pytest.approx(2 * 4.0)

    def test_items_and_iter(self):
        ts = EdgeTimestamp({(1, 2): 3})
        assert dict(ts.items()) == {(1, 2): 3}
        assert list(iter(ts)) == [(1, 2)]


class TestPositionalStorage:
    def test_index_sets_are_interned_in_canonical_order(self):
        a = EdgeTimestamp({(2, 1): 4, (1, 2): 3})
        b = EdgeTimestamp.zero([(1, 2), (2, 1)])
        assert a.index is b.index
        assert a.index.entries == ((1, 2), (2, 1)) and a.values == [3, 4]
        assert a.incremented([(2, 1)]).index is a.index

    def test_pickle_and_copies_share_the_live_index_set(self):
        import copy
        import pickle

        ts = EdgeTimestamp({(1, 2): 3, (2, 1): 1, (3, 1): 2})
        for clone in (pickle.loads(pickle.dumps(ts)), copy.deepcopy(ts)):
            assert clone == ts and clone.index is ts.index
        vector = VectorTimestamp({1: 2, 3: 0})
        assert pickle.loads(pickle.dumps(vector)) == vector

    def test_gather_maps_shared_entries_by_position(self):
        a = EdgeTimestamp.zero([(1, 2), (2, 1), (3, 1)])
        b = EdgeTimestamp.zero([(2, 1), (3, 1), (3, 2)])
        assert a.index.gather(b.index) == ((1, 0), (2, 1))
        assert a.index.gather(b.index) is a.index.gather(b.index)

    def test_mapping_view_matches_the_counters(self):
        ts = EdgeTimestamp({(1, 2): 3, (2, 1): 1})
        assert ts.counters == {(1, 2): 3, (2, 1): 1}
        assert ts.items() == [((1, 2), 3), ((2, 1), 1)]
        assert (1, 2) in ts and (3, 3) not in ts

    def test_vector_merge_widens_to_the_union(self):
        merged = VectorTimestamp({1: 2}).merged_with(VectorTimestamp({2: 5}))
        assert merged.counters == {1: 2, 2: 5}
        assert VectorTimestamp({1: 1}).incremented(4).counters == {1: 1, 4: 1}


class TestProtocolOperations:
    def test_advance_increments_only_coowner_edges(self, tri_graph):
        tg1 = TimestampGraph.build(tri_graph, 1)
        tau = EdgeTimestamp.zero(tg1.edges)
        # Register "x" is shared by replicas 1 and 2 only.
        after = advance(tri_graph, tg1, tau, "x")
        assert after[(1, 2)] == 1
        assert after[(1, 3)] == 0
        assert after[(2, 3)] == 0

    def test_advance_on_register_shared_with_multiple(self):
        graph = ShareGraph.from_placement(figure5_placement())
        tg4 = TimestampGraph.build(graph, 4)
        tau = EdgeTimestamp.zero(tg4.edges)
        # Register "y" is stored at replicas 1, 2 and 4.
        after = advance(graph, tg4, tau, "y")
        assert after[(4, 1)] == 1
        assert after[(4, 2)] == 1
        assert after[(4, 3)] == 0

    def test_merge_respects_index_intersection(self, tri_graph):
        tg1 = TimestampGraph.build(tri_graph, 1)
        tg2 = TimestampGraph.build(tri_graph, 2)
        tau1 = EdgeTimestamp.zero(tg1.edges)
        tau2 = EdgeTimestamp.zero(tg2.edges).incremented([(2, 1), (2, 3)])
        merged = merge(tg1, tau1, tg2, tau2)
        assert merged[(2, 1)] == 1
        assert merged[(2, 3)] == 1  # the triangle's E_1 includes e_23

    def test_delivery_predicate_next_in_fifo_order(self, tri_graph):
        tg1 = TimestampGraph.build(tri_graph, 1)
        tg2 = TimestampGraph.build(tri_graph, 2)
        tau1 = EdgeTimestamp.zero(tg1.edges)
        # First update from replica 2 to 1: counter e_21 = 1.
        remote = EdgeTimestamp.zero(tg2.edges).incremented([(2, 1)])
        assert delivery_predicate(tg1, tau1, 2, tg2, remote)
        # Second update (e_21 = 2) must wait for the first.
        remote2 = remote.incremented([(2, 1)])
        assert not delivery_predicate(tg1, tau1, 2, tg2, remote2)

    def test_delivery_predicate_waits_for_causal_dependency(self, tri_graph):
        tg1 = TimestampGraph.build(tri_graph, 1)
        tg2 = TimestampGraph.build(tri_graph, 2)
        tau1 = EdgeTimestamp.zero(tg1.edges)
        # Replica 2's update carries knowledge of an update from 3 to 1
        # (counter e_31 = 1) that replica 1 has not applied yet.
        remote = EdgeTimestamp.zero(tg2.edges).incremented([(2, 1), (3, 1)])
        assert not delivery_predicate(tg1, tau1, 2, tg2, remote)
        # Once replica 1 catches up on e_31 the predicate passes.
        tau1_caught_up = tau1.incremented([(3, 1)])
        assert delivery_predicate(tg1, tau1_caught_up, 2, tg2, remote)

    def test_delivery_predicate_rejects_self(self, tri_graph):
        tg1 = TimestampGraph.build(tri_graph, 1)
        tau = EdgeTimestamp.zero(tg1.edges)
        with pytest.raises(ProtocolError):
            delivery_predicate(tg1, tau, 1, tg1, tau)


class TestVectorTimestamp:
    def test_zero_and_get(self):
        v = VectorTimestamp.zero([1, 2, 3])
        assert v[1] == 0 and v.get(9) == 0
        assert len(v) == 3

    def test_negative_rejected(self):
        with pytest.raises(ProtocolError):
            VectorTimestamp({1: -2})

    def test_incremented_and_merge(self):
        v = VectorTimestamp.zero([1, 2]).incremented(1)
        w = VectorTimestamp({1: 0, 2: 5})
        merged = v.merged_with(w)
        assert merged[1] == 1 and merged[2] == 5

    def test_dominates(self):
        a = VectorTimestamp({1: 2, 2: 2})
        b = VectorTimestamp({1: 1, 2: 2})
        assert a.dominates(b) and not b.dominates(a)

    def test_equality_and_hash(self):
        assert VectorTimestamp({1: 1}) == VectorTimestamp({1: 1})
        assert VectorTimestamp({1: 1}) != VectorTimestamp({1: 2})
        assert hash(VectorTimestamp({1: 1})) == hash(VectorTimestamp({1: 1}))
        assert VectorTimestamp({1: 1}) != object()

    def test_size_counters(self):
        assert VectorTimestamp.zero(range(5)).size_counters() == 5
