"""Cross-protocol measurement helpers and the unified metrics pipeline.

The evaluation harness repeatedly answers the same question for different
protocols and topologies: *how much metadata does each replica keep and ship,
and what does the execution cost in messages, latency and (for relaxed
protocols) false dependencies?*  This module centralises those measurements
so benchmarks and examples produce consistent numbers.

The per-run measurement primitives — :class:`~repro.core.host.RunMetrics`
(filled identically by every host of both runtimes),
:class:`~repro.core.host.LatencySummary` percentiles,
:func:`~repro.core.host.throughput_timeline` and per-replica
:class:`~repro.core.host.QueueDepthStats` — live in
:mod:`repro.core.host`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..core.causal import HappenedBefore
from ..core.host import LatencySummary
from ..core.protocol import EventKind
from ..core.registers import ReplicaId
from ..core.share_graph import ShareGraph
from ..core.timestamp_graph import build_all_timestamp_graphs
from .cluster import Cluster, ReplicaFactory
from .delays import DelayModel
from .engine import SimulationHost
from .workloads import Workload, run_workload

__all__ = [
    "ComparisonRow",
    "FalseDependencyStats",
    "MetadataProfile",
    "all_edges_profile",
    "compare_protocols",
    "edge_indexed_profile",
    "full_replication_profile",
    "incident_only_profile",
    "measure_false_dependencies",
    "render_latency_summary",
]


def render_latency_summary(name: str, summary: LatencySummary) -> str:
    """One line of a latency report: ``name: n=…, mean=…, p50/p90/p99/max``."""
    return (
        f"{name}: n={summary.count} mean={summary.mean:.2f} "
        f"p50={summary.p50:.2f} p90={summary.p90:.2f} "
        f"p99={summary.p99:.2f} max={summary.max:.2f}"
    )


@dataclass(frozen=True)
class MetadataProfile:
    """Static (workload-independent) metadata requirements of one protocol."""

    protocol: str
    counters_per_replica: Mapping[ReplicaId, int]
    storage_per_replica: Mapping[ReplicaId, int]

    @property
    def max_counters(self) -> int:
        """Worst-case counters held by any replica."""
        return max(self.counters_per_replica.values(), default=0)

    @property
    def mean_counters(self) -> float:
        """Average counters per replica."""
        if not self.counters_per_replica:
            return 0.0
        return sum(self.counters_per_replica.values()) / len(self.counters_per_replica)

    @property
    def total_storage(self) -> int:
        """Total register copies stored across the system."""
        return sum(self.storage_per_replica.values())

    def bits_per_replica(self, max_updates: int) -> Dict[ReplicaId, float]:
        """Timestamp size in bits per replica when counters are bounded by ``max_updates``."""
        bits = math.log2(max_updates + 1)
        return {rid: n * bits for rid, n in self.counters_per_replica.items()}


def edge_indexed_profile(graph: ShareGraph) -> MetadataProfile:
    """Metadata profile of the paper's algorithm on a share graph."""
    tgraphs = build_all_timestamp_graphs(graph)
    return MetadataProfile(
        protocol="edge-indexed (paper)",
        counters_per_replica={rid: tg.num_counters for rid, tg in tgraphs.items()},
        storage_per_replica={
            rid: graph.placement.storage_cost(rid) for rid in graph.replica_ids
        },
    )


def full_replication_profile(graph: ShareGraph) -> MetadataProfile:
    """Metadata profile of the full-replication vector-clock baseline.

    Every replica stores every register and keeps a vector of length ``R``.
    """
    num_registers = len(graph.placement.registers)
    return MetadataProfile(
        protocol="full replication (vector clock)",
        counters_per_replica={rid: graph.num_replicas for rid in graph.replica_ids},
        storage_per_replica={rid: num_registers for rid in graph.replica_ids},
    )


def all_edges_profile(graph: ShareGraph) -> MetadataProfile:
    """Metadata profile of the conservative track-every-share-graph-edge baseline."""
    num_edges = len(graph.edges)
    return MetadataProfile(
        protocol="all share-graph edges",
        counters_per_replica={rid: num_edges for rid in graph.replica_ids},
        storage_per_replica={
            rid: graph.placement.storage_cost(rid) for rid in graph.replica_ids
        },
    )


def incident_only_profile(graph: ShareGraph) -> MetadataProfile:
    """Metadata profile of the (unsafe) incident-edges-only baseline."""
    return MetadataProfile(
        protocol="incident edges only (unsafe)",
        counters_per_replica={
            rid: len(graph.incident_edges(rid)) for rid in graph.replica_ids
        },
        storage_per_replica={
            rid: graph.placement.storage_cost(rid) for rid in graph.replica_ids
        },
    )


@dataclass
class FalseDependencyStats:
    """Counts of apply-time delays not justified by real causality.

    A *false dependency* (Section 5) is recorded whenever the application of
    an update at a replica was blocked in the pending buffer behind some
    update that is **not** in its causal past.  We approximate the paper's
    notion operationally: for every remote apply we count how many updates
    were applied at that replica after the update's arrival but before its
    application and are not ``↪``-predecessors of it.
    """

    total_applies: int = 0
    delayed_applies: int = 0
    false_blockers: int = 0

    @property
    def false_dependency_rate(self) -> float:
        """Fraction of remote applies that waited behind a non-dependency."""
        if not self.total_applies:
            return 0.0
        return self.delayed_applies / self.total_applies


def measure_false_dependencies(cluster: SimulationHost) -> FalseDependencyStats:
    """Post-hoc false-dependency measurement over a host's traces.

    Uses each replica's receive/apply ordering: any update applied between a
    message's receipt and its application that is not a causal predecessor of
    that message's update counts as a false blocker.  Works on either
    architecture.
    """
    events = cluster.events_by_replica()
    relation = HappenedBefore.from_events(events)
    stats = FalseDependencyStats()
    for replica_id, trace_events in events.items():
        trace = [e for e in trace_events if e.kind is EventKind.APPLY]
        for position, event in enumerate(trace):
            if event.update is None:
                continue
            stats.total_applies += 1
            blockers = 0
            for earlier in trace[:position]:
                if earlier.update is None:
                    continue
                if earlier.sim_time < event.sim_time and not relation.happened_before(
                    earlier.update.uid, event.update.uid
                ):
                    blockers += 1
            if blockers:
                stats.delayed_applies += 1
                stats.false_blockers += blockers
    return stats


def _column(header: str, fmt: Optional[str] = None):
    """A field shown as a column of the comparison table (the metadata
    :func:`repro.analysis.tables.render_rows` reads)."""
    return field(metadata={"column": header, "format": fmt})


@dataclass
class ComparisonRow:
    """One row of a protocol-comparison table."""

    protocol: str = _column("protocol")
    topology: str = _column("topology")
    mean_counters: float = _column("mean ctrs", ".1f")
    max_counters: int = _column("max ctrs")
    total_storage: int = _column("storage")
    messages_sent: int = _column("msgs")
    metadata_counters_sent: int = _column("ctrs sent")
    safety_violations: int = _column("safety viol")
    liveness_violations: int = _column("liveness viol")
    mean_apply_latency: float = _column("apply latency", ".2f")


def compare_protocols(
    graph: ShareGraph,
    factories: Mapping[str, ReplicaFactory],
    workload: Workload,
    topology_name: str = "",
    delay_model: Optional[DelayModel] = None,
    seed: int = 0,
    interleave_steps: int = 1,
) -> List[ComparisonRow]:
    """Replay one workload against several protocols and tabulate the results.

    Every protocol sees the same workload and the same network seed, so the
    delivery schedules are comparable.
    """
    rows: List[ComparisonRow] = []
    for name, factory in factories.items():
        cluster = Cluster(
            graph, replica_factory=factory, delay_model=delay_model, seed=seed
        )
        result = run_workload(
            cluster, workload, interleave_steps=interleave_steps, check=True
        )
        sizes = result.metadata_sizes
        rows.append(
            ComparisonRow(
                protocol=name,
                topology=topology_name,
                mean_counters=sum(sizes.values()) / max(len(sizes), 1),
                max_counters=max(sizes.values(), default=0),
                total_storage=graph.placement.total_storage_cost(),
                messages_sent=result.messages_sent,
                metadata_counters_sent=result.metadata_counters_sent,
                safety_violations=result.safety_violations,
                liveness_violations=result.liveness_violations,
                mean_apply_latency=result.mean_apply_latency,
            )
        )
    return rows

