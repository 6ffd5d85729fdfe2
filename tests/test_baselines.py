"""Unit and integration tests for the baseline protocols."""

from __future__ import annotations

import pytest

from repro.baselines import (
    AllEdgesReplica,
    FullReplicationReplica,
    FullTrackReplica,
    HoopTrackingReplica,
    IncidentOnlyReplica,
    all_edges_factory,
    full_replication_factory,
    full_track_factory,
    hoop_tracking_factory,
    incident_only_factory,
)
from repro.baselines.hoop_tracking import modified_hoop_tracking_factory
from repro.core.share_graph import ShareGraph
from repro.core.timestamp_graph import timestamp_edges
from repro.sim.cluster import Cluster
from repro.sim.delays import UniformDelay
from repro.sim.topologies import (
    figure5_placement,
    ring_placement,
    tree_placement,
    triangle_placement,
)
from repro.sim.workloads import causal_chain_workload, run_workload, uniform_workload


SAFE_FACTORIES = {
    "all_edges": all_edges_factory,
    "full_replication": full_replication_factory,
    "full_track": full_track_factory,
    "hoop_original": hoop_tracking_factory,
}


class TestMetadataSizes:
    def test_full_replication_vector_length_R(self):
        graph = ShareGraph.from_placement(figure5_placement())
        replica = FullReplicationReplica(graph, 1)
        assert replica.metadata_size() == 4
        # Full replication stores every register at every replica.
        assert replica.registers == graph.placement.registers

    def test_all_edges_tracks_every_edge(self):
        graph = ShareGraph.from_placement(figure5_placement())
        replica = AllEdgesReplica(graph, 1)
        assert replica.metadata_size() == len(graph.edges)
        # The paper's edge set is a subset of this.
        assert timestamp_edges(graph, 1) <= replica.timestamp_graph.edges

    def test_incident_only_tracks_incident_edges(self):
        graph = ShareGraph.from_placement(ring_placement(6))
        replica = IncidentOnlyReplica(graph, 1)
        assert replica.metadata_size() == 4
        assert replica.timestamp_graph.edges == graph.incident_edges(1)

    def test_full_track_matrix_size(self):
        graph = ShareGraph.from_placement(tree_placement(5))
        replica = FullTrackReplica(graph, 1)
        assert replica.metadata_size() == 5 * 4

    def test_hoop_tracking_includes_incident_edges(self):
        graph = ShareGraph.from_placement(figure5_placement())
        replica = HoopTrackingReplica(graph, 1)
        assert graph.incident_edges(1) <= replica.timestamp_graph.edges

    def test_metadata_ordering_paper_vs_baselines(self):
        """|E_i| <= |all edges| <= |full-track matrix| on every topology."""
        for placement in (figure5_placement(), ring_placement(6), tree_placement(7)):
            graph = ShareGraph.from_placement(placement)
            for rid in graph.replica_ids:
                paper = len(timestamp_edges(graph, rid))
                all_edges = len(graph.edges)
                full_track = graph.num_replicas * (graph.num_replicas - 1)
                assert paper <= all_edges <= full_track


class TestBehaviour:
    def test_full_replication_applies_everything_everywhere(self):
        graph = ShareGraph.from_placement(figure5_placement())
        cluster = Cluster(graph, replica_factory=full_replication_factory, seed=1)
        cluster.write(3, "c", "only-at-3-originally")
        cluster.run_until_quiescent()
        # Under full replication even replica 1 (which does not store c in the
        # partial placement) now has the value.
        assert cluster.replicas[1].store["c"] == "only-at-3-originally"

    def test_full_replication_fifo_causal_delivery(self):
        graph = ShareGraph.from_placement(triangle_placement())
        replicas = {rid: FullReplicationReplica(graph, rid) for rid in graph.replica_ids}
        m1 = [m for m in replicas[1].write("x", "a") if m.destination == 2][0]
        m2 = [m for m in replicas[1].write("x", "b") if m.destination == 2][0]
        replicas[2].receive(m2)
        assert replicas[2].apply_ready() == []
        replicas[2].receive(m1)
        assert [u.value for u in replicas[2].apply_ready()] == ["a", "b"]

    def test_full_track_waits_for_transitive_dependency(self):
        graph = ShareGraph.from_placement(triangle_placement())
        replicas = {rid: FullTrackReplica(graph, rid) for rid in graph.replica_ids}
        mz = replicas[1].write("z", "z1")[0]           # 1 -> 3
        mx = replicas[1].write("x", "x1")[0]           # 1 -> 2
        replicas[2].receive(mx)
        replicas[2].apply_ready()
        my = replicas[2].write("y", "y1")[0]           # 2 -> 3
        replicas[3].receive(my)
        assert replicas[3].apply_ready() == []
        replicas[3].receive(mz)
        assert len(replicas[3].apply_ready()) == 2

    @pytest.mark.parametrize("name", sorted(SAFE_FACTORIES))
    @pytest.mark.parametrize("placement_builder", [triangle_placement, figure5_placement])
    def test_safe_baselines_are_causally_consistent(self, name, placement_builder):
        graph = ShareGraph.from_placement(placement_builder())
        cluster = Cluster(
            graph,
            replica_factory=SAFE_FACTORIES[name],
            delay_model=UniformDelay(1, 15),
            seed=3,
        )
        workload = uniform_workload(graph, 120, seed=3)
        result = run_workload(cluster, workload)
        assert result.consistent, f"{name} violated consistency"

    @pytest.mark.parametrize("name", sorted(SAFE_FACTORIES))
    def test_safe_baselines_survive_causal_chains(self, name):
        graph = ShareGraph.from_placement(ring_placement(5))
        cluster = Cluster(
            graph,
            replica_factory=SAFE_FACTORIES[name],
            delay_model=UniformDelay(1, 25),
            seed=5,
        )
        workload = causal_chain_workload(graph, num_chains=8, chain_length=5, seed=5)
        result = run_workload(cluster, workload, interleave_steps=2)
        assert result.consistent, f"{name} violated consistency on chains"

    def test_incident_only_consistent_on_trees(self):
        # Without loops the incident edges ARE the timestamp graph, so the
        # oblivious baseline coincides with the paper's algorithm and is safe.
        graph = ShareGraph.from_placement(tree_placement(7))
        cluster = Cluster(
            graph,
            replica_factory=incident_only_factory,
            delay_model=UniformDelay(1, 20),
            seed=6,
        )
        result = run_workload(cluster, uniform_workload(graph, 150, seed=6))
        assert result.consistent

    def test_modified_hoop_tracking_builds(self):
        graph = ShareGraph.from_placement(triangle_placement())
        replica = modified_hoop_tracking_factory(graph, 1)
        assert isinstance(replica, HoopTrackingReplica)
        assert replica.modified
