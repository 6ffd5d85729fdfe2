"""Unit tests for repro.sim.cluster, repro.sim.workloads and repro.sim.metrics."""

from __future__ import annotations

import pytest

from repro.baselines import full_replication_factory
from repro.core.errors import RegisterNotStoredError, UnknownReplicaError
from repro.core.share_graph import ShareGraph
from repro.sim.cluster import Cluster, edge_indexed_factory
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.metrics import (
    all_edges_profile,
    compare_protocols,
    edge_indexed_profile,
    format_table,
    full_replication_profile,
    incident_only_profile,
    measure_false_dependencies,
)
from repro.sim.topologies import figure5_placement, ring_placement, triangle_placement
from repro.sim.workloads import (
    Operation,
    causal_chain_workload,
    hotspot_workload,
    read_heavy_workload,
    run_workload,
    uniform_workload,
)


@pytest.fixture
def tri_cluster():
    graph = ShareGraph.from_placement(triangle_placement())
    return Cluster(graph, delay_model=FixedDelay(1.0), seed=0)


class TestCluster:
    def test_write_then_read_locally(self, tri_cluster):
        tri_cluster.write(1, "x", "hello")
        assert tri_cluster.read(1, "x") == "hello"

    def test_propagation_after_quiescence(self, tri_cluster):
        tri_cluster.write(1, "x", "hello")
        tri_cluster.run_until_quiescent()
        assert tri_cluster.read(2, "x") == "hello"

    def test_values_across_owners(self, tri_cluster):
        tri_cluster.write(1, "x", 5)
        tri_cluster.run_until_quiescent()
        assert tri_cluster.values("x") == {1: 5, 2: 5}

    def test_unknown_replica_raises(self, tri_cluster):
        with pytest.raises(UnknownReplicaError):
            tri_cluster.write(9, "x", 1)

    def test_step_returns_false_when_idle(self, tri_cluster):
        assert tri_cluster.step() is False

    def test_metrics_counters(self, tri_cluster):
        tri_cluster.write(1, "x", 1)
        tri_cluster.read(1, "x")
        tri_cluster.run_until_quiescent()
        assert tri_cluster.metrics.writes == 1
        assert tri_cluster.metrics.reads == 1
        assert tri_cluster.metrics.applies == 1
        assert tri_cluster.metrics.mean_apply_latency > 0

    def test_a_rejected_read_is_not_counted(self):
        cluster = Cluster(ShareGraph.from_placement(figure5_placement()), seed=0)
        with pytest.raises(RegisterNotStoredError):
            cluster.read(1, "x")
        assert (cluster.metrics.reads, list(cluster.metrics.operation_times)) == (0, [])

    def test_metadata_sizes(self, tri_cluster):
        sizes = tri_cluster.metadata_sizes()
        assert sizes == {1: 6, 2: 6, 3: 6}

    def test_check_consistency_on_simple_run(self, tri_cluster):
        tri_cluster.write(1, "x", 1)
        tri_cluster.write(2, "y", 2)
        tri_cluster.run_until_quiescent()
        report = tri_cluster.check_consistency()
        assert report.is_causally_consistent

    def test_pending_updates_zero_after_quiescence(self, tri_cluster):
        tri_cluster.write(1, "x", 1)
        tri_cluster.run_until_quiescent()
        assert tri_cluster.pending_updates() == 0

    def test_total_metadata_counters_sent(self, tri_cluster):
        tri_cluster.write(1, "x", 1)
        assert tri_cluster.total_metadata_counters_sent() == 6


class TestWorkloads:
    def make_graph(self):
        return ShareGraph.from_placement(figure5_placement())

    def test_uniform_workload_counts(self):
        graph = self.make_graph()
        workload = uniform_workload(graph, 100, write_fraction=0.5, seed=1)
        assert len(workload) == 100
        assert workload.write_count + workload.read_count == 100
        assert 20 < workload.write_count < 80

    def test_uniform_workload_targets_stored_registers(self):
        graph = self.make_graph()
        workload = uniform_workload(graph, 200, seed=2)
        for op in workload.operations:
            assert graph.placement.stores_register(op.replica_id, op.register)

    def test_workload_determinism(self):
        graph = self.make_graph()
        assert uniform_workload(graph, 50, seed=3) == uniform_workload(graph, 50, seed=3)
        assert uniform_workload(graph, 50, seed=3) != uniform_workload(graph, 50, seed=4)

    def test_hotspot_workload_skews_registers(self):
        graph = self.make_graph()
        workload = hotspot_workload(graph, 300, hot_fraction=0.9, seed=5)
        # The most common register should dominate.
        from collections import Counter

        counts = Counter(op.register for op in workload.operations)
        assert counts.most_common(1)[0][1] > 300 / len(graph.placement.registers)

    def test_causal_chain_workload_follows_adjacency(self):
        graph = self.make_graph()
        workload = causal_chain_workload(graph, num_chains=5, chain_length=4, seed=6)
        for op in workload.operations:
            assert graph.placement.stores_register(op.replica_id, op.register)

    def test_read_heavy_workload_is_mostly_reads(self):
        graph = self.make_graph()
        workload = read_heavy_workload(graph, 200, seed=7)
        assert workload.read_count > workload.write_count

    def test_run_workload_consistent(self):
        graph = self.make_graph()
        cluster = Cluster(graph, delay_model=UniformDelay(1, 10), seed=1)
        result = run_workload(cluster, uniform_workload(graph, 150, seed=1))
        assert result.consistent
        assert result.safety_violations == 0
        assert result.messages_sent == cluster.network.stats.messages_sent
        assert "consistency OK" in result.summary()

    def test_run_workload_with_no_interleave(self):
        graph = self.make_graph()
        cluster = Cluster(graph, delay_model=UniformDelay(1, 10), seed=2)
        result = run_workload(cluster, uniform_workload(graph, 80, seed=2), interleave_steps=0)
        assert result.consistent


class TestMetadataProfiles:
    def test_edge_indexed_profile(self):
        graph = ShareGraph.from_placement(figure5_placement())
        profile = edge_indexed_profile(graph)
        assert profile.counters_per_replica[1] == 8
        assert profile.max_counters == 10
        assert profile.mean_counters == pytest.approx((8 + 10 + 9 + 10) / 4)
        assert profile.total_storage == graph.placement.total_storage_cost()
        bits = profile.bits_per_replica(max_updates=15)
        assert bits[1] == pytest.approx(32.0)

    def test_full_replication_profile(self):
        graph = ShareGraph.from_placement(figure5_placement())
        profile = full_replication_profile(graph)
        assert all(v == 4 for v in profile.counters_per_replica.values())
        assert all(v == len(graph.placement.registers) for v in profile.storage_per_replica.values())

    def test_all_edges_and_incident_profiles(self):
        graph = ShareGraph.from_placement(ring_placement(5))
        assert all(v == 10 for v in all_edges_profile(graph).counters_per_replica.values())
        assert all(v == 4 for v in incident_only_profile(graph).counters_per_replica.values())

    def test_compare_protocols_and_format_table(self):
        graph = ShareGraph.from_placement(triangle_placement())
        workload = uniform_workload(graph, 40, seed=3)
        rows = compare_protocols(
            graph,
            {"paper": edge_indexed_factory, "full": full_replication_factory},
            workload,
            topology_name="triangle",
            seed=3,
        )
        assert len(rows) == 2
        assert {r.protocol for r in rows} == {"paper", "full"}
        paper_row = next(r for r in rows if r.protocol == "paper")
        assert paper_row.safety_violations == 0
        table = format_table(rows)
        assert "protocol" in table and "triangle" in table

    def test_measure_false_dependencies_runs(self):
        graph = ShareGraph.from_placement(ring_placement(5))
        cluster = Cluster(graph, delay_model=UniformDelay(1, 10), seed=4)
        run_workload(cluster, uniform_workload(graph, 60, seed=4))
        stats = measure_false_dependencies(cluster)
        assert stats.total_applies > 0
        assert 0.0 <= stats.false_dependency_rate <= 1.0
