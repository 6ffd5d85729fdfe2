"""The evaluation harness: one function per experiment in EXPERIMENTS.md.

Every function is pure given its arguments (all randomness is seeded) and
returns a plain data structure.  A sweep with one row per cell returns rows
of a dataclass that declares its table's columns on its fields, rendered by
:func:`~repro.analysis.tables.render_rows`; the other experiments keep a
``render_*`` helper.  Either way the text is the table recorded in
``EXPERIMENTS.md``.  The benchmark modules under
``benchmarks/`` call these functions so that the numbers in the benchmark
output, the experiment log and the tests all come from the same code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..baselines import (
    all_edges_factory,
    full_replication_factory,
    full_track_factory,
    hoop_tracking_factory,
    incident_only_factory,
)
from ..clientserver import (
    AugmentedShareGraph,
    ClientAssignment,
    ClientServerCluster,
    build_all_augmented_timestamp_edges,
)
from ..adapt import AdaptiveController, ControllerConfig
from ..core.consistency import ConsistencyReport
from ..core.hoops import compare_with_theorem8
from ..core.protocol import CausalReplica
from ..core.registers import Register, RegisterPlacement, ReplicaId
from ..core.replica import EdgeIndexedReplica
from ..core.share_graph import Edge, ShareGraph
from ..core.timestamp_graph import TimestampGraph, timestamp_edges
from ..lower_bounds import (
    algorithm_bits,
    algorithm_counters,
    clique_lower_bound_bits,
    cycle_lower_bound_bits,
    lower_bound_bits,
    timestamp_space_lower_bound,
    tree_lower_bound_bits,
)
from ..optimizations import (
    analyze_ring_breaking,
    analyze_star_restriction,
    bounded_factory,
    bounded_metadata_savings,
    compression_report,
    dummy_emulation_report,
    dummy_register_factory,
    full_replication_dummies,
    loop_cover_dummies,
)
from ..placement import (
    PlacementResult,
    PlacementSpec,
    placement_policies,
    score_placement,
)
from ..sim.cluster import Cluster, ReplicaFactory, edge_indexed_factory
from ..sim.delays import FixedDelay, UniformDelay
from ..sim.engine import BatchingConfig, NetworkStats, SimulationHost
from ..sim.faults import (
    FaultInjector,
    FaultSchedule,
    crash,
    random_fault_schedule,
    restart,
)
from ..sim.metrics import ComparisonRow, compare_protocols
from ..sim.reconfig import ReconfigManager, random_churn_schedule
from ..sim.topologies import (
    COUNTEREXAMPLE_IDS,
    clique_placement,
    counterexample1_placement,
    counterexample2_placement,
    figure3_placement,
    figure5_placement,
    geo_replication_placement,
    grid_placement,
    pairwise_clique_placement,
    random_partial_placement,
    ring_placement,
    star_placement,
    tree_placement,
    triangle_placement,
)
from ..sim.workloads import (
    OpenLoopWorkload,
    bursty_workload,
    causal_chain_workload,
    drifting_hotspot_workload,
    poisson_workload,
    poisson_workload_dynamic,
    run_open_loop,
    run_workload,
    uniform_workload,
)
from ..topo import Topology, geant_like, geo_regions
from .tables import column, column_property, edge_label, render_table, verdict, yes_no

#: The two simulated architectures, by the label their table rows carry:
#: each builds a host over ``graph`` from the same transport keywords
#: (``delay_model``, ``seed``, ``batching``, ``wire_accounting``), so one
#: replica-addressed workload drives either.
ARCHITECTURES: Dict[str, Callable[..., SimulationHost]] = {
    "peer-to-peer": Cluster,
    "client-server": ClientServerCluster.with_colocated_clients,
}


# ======================================================================
# E1 — Figure 3 / Figure 5 worked examples
# ======================================================================

@dataclass(frozen=True)
class Figure5Result:
    """Timestamp graphs of the Figure 5 example."""

    edge_sets: Mapping[ReplicaId, FrozenSet[Edge]]

    @property
    def replica1_edges(self) -> FrozenSet[Edge]:
        """``E_1``, the edge set the paper draws in Figure 5(b)."""
        return self.edge_sets[1]


def exp_figure5() -> Figure5Result:
    """Recompute the timestamp graphs of the paper's Figure 5 example (E1)."""
    graph = ShareGraph.from_placement(figure5_placement())
    return Figure5Result(
        edge_sets={rid: timestamp_edges(graph, rid) for rid in graph.replica_ids}
    )


def render_figure5(result: Figure5Result) -> str:
    """Text table of the Figure 5 edge sets."""
    rows = [
        (rid, len(edges), ", ".join(edge_label(e) for e in sorted(edges)))
        for rid, edges in sorted(result.edge_sets.items())
    ]
    return render_table(["replica", "|E_i|", "edges"], rows)


# ======================================================================
# E2 / E3 — Hélary–Milani counterexamples
# ======================================================================

@dataclass(frozen=True)
class HoopComparisonResult:
    """Theorem 8 vs. the (original or modified) minimal-hoop criterion at replica i."""

    name: str
    modified: bool
    theorem8_edges: FrozenSet[Edge]
    hoop_edges: FrozenSet[Edge]
    only_hoop: FrozenSet[Edge]
    only_theorem8: FrozenSet[Edge]


def exp_helary_milani() -> List[HoopComparisonResult]:
    """Recompute both counterexamples of Section 3.2 / Appendix A (E2, E3)."""
    results: List[HoopComparisonResult] = []
    observer = COUNTEREXAMPLE_IDS["i"]

    graph1 = ShareGraph.from_placement(counterexample1_placement())
    original = compare_with_theorem8(graph1, observer, modified=False)
    results.append(
        HoopComparisonResult(
            name="counterexample 1 (Fig. 6/8a), original minimal hoops",
            modified=False,
            theorem8_edges=original.theorem8_edges,
            hoop_edges=original.hoop_edges,
            only_hoop=original.only_hoop,
            only_theorem8=original.only_theorem8,
        )
    )

    graph2 = ShareGraph.from_placement(counterexample2_placement())
    modified = compare_with_theorem8(graph2, observer, modified=True)
    results.append(
        HoopComparisonResult(
            name="counterexample 2 (Fig. 8b), modified minimal hoops",
            modified=True,
            theorem8_edges=modified.theorem8_edges,
            hoop_edges=modified.hoop_edges,
            only_hoop=modified.only_hoop,
            only_theorem8=modified.only_theorem8,
        )
    )
    return results


def render_helary_milani(results: Sequence[HoopComparisonResult]) -> str:
    """Text table of the counterexample comparisons."""
    j, k = COUNTEREXAMPLE_IDS["j"], COUNTEREXAMPLE_IDS["k"]
    rows = []
    for r in results:
        rows.append(
            (
                r.name,
                len(r.theorem8_edges),
                len(r.hoop_edges),
                ", ".join(edge_label(e) for e in sorted(r.only_hoop & {(j, k), (k, j)})),
                ", ".join(edge_label(e) for e in sorted(r.only_theorem8 & {(j, k), (k, j)})),
            )
        )
    return render_table(
        [
            "case",
            "|E_i| (Thm 8)",
            "|hoop edges|",
            "x-edges only hoops demand",
            "x-edges only Thm 8 demands",
        ],
        rows,
    )


# ======================================================================
# E4 — Necessity: an oblivious protocol violates consistency
# ======================================================================

def oblivious_factory(missing: Mapping[ReplicaId, FrozenSet[Edge]]) -> ReplicaFactory:
    """A factory producing the paper's algorithm with selected edges dropped.

    ``missing`` maps replica ids to the timestamp-graph edges they must be
    made oblivious to; all other replicas run the exact algorithm.
    """

    def factory(graph: ShareGraph, replica_id: ReplicaId) -> CausalReplica:
        edges = timestamp_edges(graph, replica_id)
        if replica_id in missing:
            edges = edges - frozenset(missing[replica_id])
        tgraph = TimestampGraph.from_edges(graph, replica_id, edges)
        return EdgeIndexedReplica(graph, replica_id, timestamp_graph=tgraph)

    return factory


@dataclass(frozen=True)
class NecessityResult:
    """Outcome of one adversarial schedule under two protocols."""

    scenario: str
    paper_report: ConsistencyReport
    oblivious_report: ConsistencyReport

    @property
    def paper_ok(self) -> bool:
        """The exact algorithm stayed causally consistent."""
        return self.paper_report.is_causally_consistent

    @property
    def oblivious_violated(self) -> bool:
        """The oblivious protocol violated safety or liveness."""
        return not self.oblivious_report.is_causally_consistent


def _run_triangle_schedule(factory: ReplicaFactory) -> ConsistencyReport:
    """Theorem 8, Case 3 on the triangle: delay the direct dependency."""
    graph = ShareGraph.from_placement(triangle_placement())
    cluster = Cluster(graph, replica_factory=factory, delay_model=FixedDelay(1.0), seed=1)
    # Replica 1 writes z (shared with 3) but the 1 -> 3 channel is held back.
    cluster.network.hold(1, 3)
    cluster.write(1, "z", "z1")
    # Replica 1 then writes x (shared with 2); 2 applies it and writes y.
    cluster.write(1, "x", "x1")
    cluster.run_until_quiescent()
    cluster.write(2, "y", "y1")
    cluster.run_until_quiescent()
    # Now release the delayed direct update and drain.
    cluster.network.release_all()
    cluster.run_until_quiescent()
    return cluster.check_consistency()


def _run_figure5_schedule(factory: ReplicaFactory) -> ConsistencyReport:
    """Theorem 8, Case 3 on the Figure 5 loop ``(1, 2, 3, 4)`` for edge ``e_43``."""
    graph = ShareGraph.from_placement(figure5_placement())
    cluster = Cluster(graph, replica_factory=factory, delay_model=FixedDelay(1.0), seed=1)
    # u0: replica 4 writes z (edge e_43); the 4 -> 3 channel is held back.
    cluster.network.hold(4, 3)
    cluster.write(4, "z", "z0")
    # u1: replica 4 writes w (edge e_41, register not stored at 2 or 3).
    cluster.write(4, "w", "w1")
    cluster.run_until_quiescent()
    # u'0: replica 1 writes y (towards replica 2 along the l-side).
    cluster.write(1, "y", "y1")
    cluster.run_until_quiescent()
    # u'1: replica 2 writes x (towards replica 3 = l_s).
    cluster.write(2, "x", "x1")
    cluster.run_until_quiescent()
    # Finally deliver the held direct update and drain.
    cluster.network.release_all()
    cluster.run_until_quiescent()
    return cluster.check_consistency()


def exp_necessity() -> List[NecessityResult]:
    """Run the Theorem-8 adversarial schedules against exact and oblivious protocols (E4)."""
    results: List[NecessityResult] = []

    results.append(
        NecessityResult(
            scenario="triangle, replica 3 oblivious to e_12 (incident-only baseline)",
            paper_report=_run_triangle_schedule(edge_indexed_factory),
            oblivious_report=_run_triangle_schedule(incident_only_factory),
        )
    )

    fig5_oblivious = oblivious_factory({1: frozenset({(4, 3)})})
    results.append(
        NecessityResult(
            scenario="figure 5, replica 1 oblivious to loop edge e_43",
            paper_report=_run_figure5_schedule(edge_indexed_factory),
            oblivious_report=_run_figure5_schedule(fig5_oblivious),
        )
    )
    return results


def render_necessity(results: Sequence[NecessityResult]) -> str:
    """Text table of the necessity experiment."""
    rows = []
    for r in results:
        rows.append(
            (
                r.scenario,
                "consistent" if r.paper_ok else "VIOLATED",
                len(r.oblivious_report.safety_violations),
                len(r.oblivious_report.liveness_violations),
            )
        )
    return render_table(
        ["scenario", "paper algorithm", "oblivious safety viol.", "oblivious liveness viol."],
        rows,
    )


# ======================================================================
# E5 — Sufficiency: randomized executions over many topologies
# ======================================================================

@dataclass(frozen=True)
class SufficiencyResult:
    """Consistency verdicts of randomized runs of the paper's algorithm."""

    rows: Tuple[Tuple[str, int, int, bool], ...]

    @property
    def all_consistent(self) -> bool:
        """``True`` iff every run was causally consistent."""
        return all(row[3] for row in self.rows)


def standard_topologies() -> Dict[str, RegisterPlacement]:
    """The topology suite used by the sufficiency and overhead experiments."""
    return {
        "figure3": figure3_placement(),
        "figure5": figure5_placement(),
        "triangle": triangle_placement(),
        "ring6": ring_placement(6),
        "tree7": tree_placement(7),
        "star5": star_placement(5),
        "grid3x3": grid_placement(3, 3),
        "clique4": clique_placement(4),
        "pairwise4": pairwise_clique_placement(4),
        "random8": random_partial_placement(8, 12, replication_factor=3, seed=11),
        "geo3": geo_replication_placement(3, shards_per_dc=3, global_registers=2),
    }


def exp_sufficiency(ops_per_topology: int = 150, seeds: Sequence[int] = (1, 2, 3)) -> SufficiencyResult:
    """Randomized + chain workloads on the full topology suite (E5)."""
    rows: List[Tuple[str, int, int, bool]] = []
    for name, placement in standard_topologies().items():
        graph = ShareGraph.from_placement(placement)
        for seed in seeds:
            cluster = Cluster(graph, delay_model=UniformDelay(1, 20), seed=seed)
            workload = uniform_workload(graph, ops_per_topology, seed=seed)
            result = run_workload(cluster, workload, interleave_steps=1)
            rows.append((name, seed, result.messages_sent, result.consistent))
            chain_cluster = Cluster(graph, delay_model=UniformDelay(1, 20), seed=seed + 100)
            chain = causal_chain_workload(graph, num_chains=10, chain_length=4, seed=seed)
            chain_result = run_workload(chain_cluster, chain, interleave_steps=2)
            rows.append((f"{name}/chain", seed, chain_result.messages_sent, chain_result.consistent))
    return SufficiencyResult(rows=tuple(rows))


def render_sufficiency(result: SufficiencyResult) -> str:
    """Text table of the sufficiency experiment."""
    return render_table(
        ["topology", "seed", "messages", "causally consistent"],
        [(n, s, m, "yes" if ok else "NO") for n, s, m, ok in result.rows],
    )


# ======================================================================
# E6 — Lower bounds vs. the algorithm's timestamp sizes
# ======================================================================

@dataclass(frozen=True)
class LowerBoundRow:
    """One topology/replica row of the lower-bound tightness table."""

    topology: str = column("topology")
    replica_id: ReplicaId = column("replica")
    lower_bound_bits: float = column("lower bound (bits)")
    algorithm_bits: float = column("algorithm (bits)")
    algorithm_counters: int = column("algorithm (counters)")


def exp_lower_bounds(max_updates: int = 16) -> List[LowerBoundRow]:
    """Closed-form lower bounds vs. the algorithm's sizes (E6)."""
    rows: List[LowerBoundRow] = []

    tree = ShareGraph.from_placement(tree_placement(7))
    for rid in tree.replica_ids:
        rows.append(
            LowerBoundRow(
                topology="tree7",
                replica_id=rid,
                lower_bound_bits=tree_lower_bound_bits(tree, rid, max_updates),
                algorithm_bits=algorithm_bits(tree, rid, max_updates),
                algorithm_counters=algorithm_counters(tree, rid),
            )
        )

    for n in (4, 6, 8):
        ring = ShareGraph.from_placement(ring_placement(n))
        rid = 1
        rows.append(
            LowerBoundRow(
                topology=f"ring{n}",
                replica_id=rid,
                lower_bound_bits=cycle_lower_bound_bits(n, max_updates),
                algorithm_bits=algorithm_bits(ring, rid, max_updates),
                algorithm_counters=algorithm_counters(ring, rid),
            )
        )

    clique = ShareGraph.from_placement(clique_placement(5))
    rows.append(
        LowerBoundRow(
            topology="clique5 (full replication, after compression)",
            replica_id=1,
            lower_bound_bits=clique_lower_bound_bits(5, max_updates),
            algorithm_bits=compression_report(clique).compressed[1] * math.log2(max_updates),
            algorithm_counters=compression_report(clique).compressed[1],
        )
    )
    return rows



@dataclass(frozen=True)
class ConflictBoundResult:
    """Theorem 15 evaluated explicitly on a small instance."""

    topology: str
    replica_id: ReplicaId
    max_updates: int
    space_size: int
    bits: float
    closed_form_bits: float


def exp_conflict_bound(max_updates: int = 2) -> ConflictBoundResult:
    """Explicit conflict-graph bound on a small ring, vs. the closed form (E6)."""
    n = 3
    graph = ShareGraph.from_placement(ring_placement(n))
    size, bits = timestamp_space_lower_bound(graph, 1, max_updates)
    return ConflictBoundResult(
        topology=f"ring{n}",
        replica_id=1,
        max_updates=max_updates,
        space_size=size,
        bits=bits,
        closed_form_bits=cycle_lower_bound_bits(n, max_updates),
    )


# ======================================================================
# E7 — Metadata overhead comparison across protocols
# ======================================================================

def protocol_suite() -> Dict[str, ReplicaFactory]:
    """The protocols compared in the metadata-overhead experiment."""
    return {
        "edge-indexed (paper)": edge_indexed_factory,
        "all share-graph edges": all_edges_factory,
        "full-track matrix": full_track_factory,
        "full replication (vector)": full_replication_factory,
        "hoop tracking (original)": hoop_tracking_factory,
    }


def exp_metadata_overhead(ops: int = 120, seed: int = 7) -> List[ComparisonRow]:
    """Per-protocol metadata and traffic across the topology suite (E7)."""
    rows: List[ComparisonRow] = []
    for name, placement in standard_topologies().items():
        graph = ShareGraph.from_placement(placement)
        workload = uniform_workload(graph, ops, seed=seed)
        rows.extend(
            compare_protocols(
                graph,
                protocol_suite(),
                workload,
                topology_name=name,
                delay_model=UniformDelay(1, 10),
                seed=seed,
            )
        )
    return rows


# ======================================================================
# E8 — Compression
# ======================================================================

def exp_compression() -> Dict[str, Tuple[int, int]]:
    """Uncompressed vs. compressed system-wide counters per topology (E8)."""
    out: Dict[str, Tuple[int, int]] = {}
    for name, placement in standard_topologies().items():
        graph = ShareGraph.from_placement(placement)
        report = compression_report(graph)
        out[name] = (report.total_uncompressed, report.total_compressed)
    return out


def render_compression(result: Mapping[str, Tuple[int, int]]) -> str:
    """Text table of the compression experiment."""
    rows = [
        (name, before, after, (before - after))
        for name, (before, after) in sorted(result.items())
    ]
    return render_table(["topology", "uncompressed", "compressed", "saved"], rows)


# ======================================================================
# E9 — Dummy registers
# ======================================================================

@dataclass(frozen=True)
class DummyTradeoffRow:
    """One row of the dummy-register trade-off table."""

    topology: str = column("topology")
    scheme: str = column("scheme")
    mean_counters_before: float = column("mean counters before")
    mean_counters_after: float = column("after (uncompressed)")
    mean_compressed_after: float = column("after (compressed)")
    extra_messages_per_round: int = column("extra msgs / write round")
    total_dummies: int = column("dummy copies")


def exp_dummy_registers() -> List[DummyTradeoffRow]:
    """Static trade-off of the two dummy-register schemes (E9)."""
    rows: List[DummyTradeoffRow] = []
    for name in ("ring6", "figure5", "figure3"):
        placement = standard_topologies()[name]
        for scheme, builder in (
            ("full-replication emulation", full_replication_dummies),
            ("loop cover", loop_cover_dummies),
        ):
            assignment = builder(placement)
            report = dummy_emulation_report(assignment)
            rows.append(
                DummyTradeoffRow(
                    topology=name,
                    scheme=scheme,
                    mean_counters_before=report.mean_counters_before,
                    mean_counters_after=report.mean_counters_after,
                    mean_compressed_after=report.mean_compressed_after,
                    extra_messages_per_round=report.total_extra_messages_per_round,
                    total_dummies=report.total_dummies,
                )
            )
    return rows



def exp_dummy_registers_dynamic(ops: int = 100, seed: int = 5) -> Dict[str, Dict[str, float]]:
    """Run the loop-cover dummy scheme on the ring and measure the dynamic costs (E9)."""
    placement = ring_placement(6)
    graph = ShareGraph.from_placement(placement)
    workload = uniform_workload(graph, ops, seed=seed)

    base_cluster = Cluster(graph, delay_model=UniformDelay(1, 10), seed=seed)
    base = run_workload(base_cluster, workload)

    assignment = loop_cover_dummies(placement)
    augmented = ShareGraph.from_placement(assignment.augmented_placement())
    dummy_cluster = Cluster(
        augmented,
        replica_factory=dummy_register_factory(assignment),
        delay_model=UniformDelay(1, 10),
        seed=seed,
    )
    for operation in workload.operations:
        if operation.kind == "write":
            dummy_cluster.write(operation.replica_id, operation.register, operation.value)
        else:
            dummy_cluster.read(operation.replica_id, operation.register)
        dummy_cluster.step()
    dummy_cluster.run_until_quiescent()
    # Check against the ORIGINAL share graph: dummies carry no obligations.
    from ..core.consistency import ConsistencyChecker

    dummy_report = ConsistencyChecker(graph).check(
        dummy_cluster.events_by_replica(), check_liveness=True
    )
    return {
        "baseline": {
            "messages": float(base.messages_sent),
            "counters_shipped": float(base.metadata_counters_sent),
            "consistent": float(base.consistent),
        },
        "loop-cover dummies": {
            "messages": float(dummy_cluster.network.stats.messages_sent),
            "counters_shipped": float(dummy_cluster.network.stats.metadata_counters_sent),
            "consistent": float(dummy_report.is_causally_consistent),
        },
    }


# ======================================================================
# E10 — Ring breaking / restricted communication
# ======================================================================

def exp_ring_breaking(sizes: Sequence[int] = (4, 6, 8, 12)) -> List[Dict[str, Any]]:
    """Metadata vs. hop-count trade-off of breaking rings of several sizes (E10)."""
    rows: List[Dict[str, Any]] = []
    for n in sizes:
        analysis = analyze_ring_breaking(n)
        rows.append(
            {
                "ring size": n,
                "counters before": analysis.total_counters_before,
                "counters after": analysis.total_counters_after,
                "saved": analysis.counters_saved,
                "max hops before": analysis.max_hops_before,
                "max hops after": analysis.max_hops_after,
                "extra relays per update": analysis.extra_relay_messages_per_update,
            }
        )
    star = analyze_star_restriction(8)
    rows.append(
        {
            "ring size": "8 (star hub)",
            "counters before": star.total_counters_before,
            "counters after": star.total_counters_after,
            "saved": star.counters_saved,
            "max hops before": star.max_hops_before,
            "max hops after": star.max_hops_after,
            "extra relays per update": star.extra_relay_messages_per_update,
        }
    )
    return rows


def render_ring_breaking(rows: Sequence[Mapping[str, Any]]) -> str:
    """Text table of the ring-breaking analysis."""
    headers = list(rows[0].keys()) if rows else []
    return render_table(headers, [[r[h] for h in headers] for r in rows])


# ======================================================================
# E11 — Bounded loop length
# ======================================================================

@dataclass(frozen=True)
class BoundedLoopsResult:
    """Metadata savings and consistency verdicts under bounded tracking."""

    topology: str
    max_loop_length: int
    exact_counters: int
    bounded_counters: int
    consistent_under_loose_synchrony: bool
    consistent_under_adversary: bool


def exp_bounded_loops(ring_size: int = 6) -> BoundedLoopsResult:
    """Bounded-loop tracking on a ring: safe with loose synchrony, unsafe without (E11)."""
    placement = ring_placement(ring_size)
    graph = ShareGraph.from_placement(placement)
    bound = 3  # track only triangles: drops all ring-loop counters
    savings = bounded_metadata_savings(graph, bound)
    factory = bounded_factory(bound)

    # Loose synchrony: every hop takes exactly one unit, so a chain of k hops
    # always arrives after the direct one-hop message it depends on.
    def run(delay_model, seed: int) -> bool:
        cluster = Cluster(graph, replica_factory=factory, delay_model=delay_model, seed=seed)
        workload = causal_chain_workload(graph, num_chains=12, chain_length=ring_size, seed=seed)
        result = run_workload(cluster, workload, interleave_steps=3)
        return result.consistent

    loose = run(FixedDelay(1.0), seed=2)

    # Adversarial: the Theorem-8 schedule around the whole ring with the
    # direct edge held back.  Replica `ring_size` is oblivious to the loop
    # edges, so it applies the chain's last update before the held update.
    cluster = Cluster(graph, replica_factory=factory, delay_model=FixedDelay(1.0), seed=3)
    cluster.network.hold(1, ring_size)
    cluster.write(1, f"ring_{ring_size}", "direct")  # shared by 1 and ring_size
    for hop in range(1, ring_size):
        cluster.write(hop, f"ring_{hop}", f"chain{hop}")
        cluster.run_until_quiescent()
    cluster.network.release_all()
    cluster.run_until_quiescent()
    adversarial_consistent = cluster.check_consistency().is_causally_consistent

    return BoundedLoopsResult(
        topology=f"ring{ring_size}",
        max_loop_length=bound,
        exact_counters=savings.total_exact,
        bounded_counters=savings.total_bounded,
        consistent_under_loose_synchrony=loose,
        consistent_under_adversary=adversarial_consistent,
    )


# ======================================================================
# E12 — Client–server architecture
# ======================================================================

@dataclass(frozen=True)
class ClientServerResult:
    """Augmented metadata sizes and a consistency verdict for a client–server run."""

    server_edge_counts: Mapping[ReplicaId, int]
    peer_to_peer_edge_counts: Mapping[ReplicaId, int]
    client_counter_counts: Mapping[str, int]
    consistent: bool


def exp_client_server(seed: int = 4) -> ClientServerResult:
    """Augmented timestamp graphs + a simulated client–server run (E12).

    Uses the Figure 3 path topology with a client spanning the two end
    replicas (which share no register): the client link adds a cycle to the
    augmented share graph, so servers must track loop edges a peer-to-peer
    deployment would not need.
    """
    placement = figure3_placement()
    graph = ShareGraph.from_placement(placement)
    clients = ClientAssignment.from_dict({"c1": {1, 4}, "c2": {2, 3}, "c3": {1, 2}})
    augmented = AugmentedShareGraph(graph, clients)
    augmented_edges = build_all_augmented_timestamp_edges(augmented)
    p2p_edges = {rid: timestamp_edges(graph, rid) for rid in graph.replica_ids}

    cluster = ClientServerCluster(graph, clients, delay_model=UniformDelay(1, 5), seed=seed)
    # c1 alternates between the two end replicas, propagating dependencies
    # across them; c2 and c3 add concurrent traffic.
    for round_index in range(6):
        cluster.client_write("c1", "x", f"x{round_index}", replica_id=1)
        cluster.client_write("c1", "z", f"z{round_index}", replica_id=4)
        cluster.client_write("c2", "y", f"y{round_index}", replica_id=2)
        cluster.client_read("c2", "z", replica_id=3)
        cluster.client_write("c3", "x", f"x'{round_index}", replica_id=2)
        cluster.client_read("c3", "x", replica_id=1)
    cluster.run_until_quiescent()
    report = cluster.check_consistency()

    return ClientServerResult(
        server_edge_counts={rid: len(edges) for rid, edges in augmented_edges.items()},
        peer_to_peer_edge_counts={rid: len(edges) for rid, edges in p2p_edges.items()},
        client_counter_counts=dict(cluster.client_metadata_sizes()),
        consistent=report.is_causally_consistent,
    )


# ======================================================================
# E14 — Open-loop traffic on both architectures
# ======================================================================

@dataclass(frozen=True)
class OpenLoopRow:
    """One architecture × arrival-process row of the open-loop experiment."""

    architecture: str = column("architecture")
    process: str = column("process")
    operations: int = column("ops")
    makespan: float = column("makespan", ".1f")
    apply_p50: float = column("apply p50", ".1f")
    apply_p99: float = column("apply p99", ".1f")
    peak_pending: int = column("peak pending")
    messages: int = column("msgs")
    consistent: bool = column("consistent", verdict)


def exp_open_loop(
    rate: float = 1.5,
    duration: float = 120.0,
    seed: int = 9,
) -> List[OpenLoopRow]:
    """Open-loop (Poisson and bursty) client traffic on both architectures (E14).

    The same arrival schedule drives the Figure 1a peer-to-peer cluster and
    the Figure 1b client–server cluster (one client pinned per replica) on
    the Figure 5 share graph, reporting the unified metrics pipeline:
    makespan, apply-latency percentiles and peak pending-buffer depth.
    """
    graph = ShareGraph.from_placement(figure5_placement())
    workloads: List[OpenLoopWorkload] = [
        poisson_workload(graph, rate=rate, duration=duration, seed=seed),
        bursty_workload(
            graph,
            burst_rate=4 * rate,
            idle_rate=rate / 4,
            burst_length=duration / 6,
            idle_length=duration / 6,
            duration=duration,
            seed=seed,
        ),
    ]
    rows: List[OpenLoopRow] = []
    for workload in workloads:
        for name, build in ARCHITECTURES.items():
            host = build(graph, delay_model=UniformDelay(1, 10), seed=seed)
            result = run_open_loop(
                host, workload, queue_sample_interval=duration / 24
            )
            rows.append(
                OpenLoopRow(
                    architecture=name,
                    process=workload.name,
                    operations=len(workload),
                    makespan=result.makespan,
                    apply_p50=result.apply_latency.p50,
                    apply_p99=result.apply_latency.p99,
                    peak_pending=max(result.max_pending.values(), default=0),
                    messages=result.messages_sent,
                    consistent=result.consistent,
                )
            )
    return rows



# ======================================================================
# E15 — Fault tolerance: crashes, recovery, partitions
# ======================================================================

@dataclass(frozen=True)
class FaultToleranceRow:
    """One architecture × fault-intensity cell of the E15 sweep."""

    architecture: str = column("architecture")
    crashes: int = column("crashes")
    partition_duration: float = column("partition", "g")
    operations: int = column("ops")
    rejected_operations: int = column("rejected")
    availability_min: float = column("min avail", ".3f")
    recovery_mean: float = column("recovery mean", ".1f")
    recovery_max: float = column("recovery max", ".1f")
    staleness_p99: float = column("staleness p99", ".1f")
    staleness_max: float = column("staleness max", ".1f")
    messages_lost_to_crash: int = column("lost")
    retransmissions: int = column("resent")
    consistent: bool = column("consistent", verdict)


def exp_fault_tolerance(
    rate: float = 1.0,
    duration: float = 120.0,
    crash_counts: Sequence[int] = (0, 1, 2),
    partition_durations: Sequence[float] = (0.0, 30.0),
    downtime: float = 20.0,
    seed: int = 15,
) -> List[FaultToleranceRow]:
    """Sweep crash count × partition duration on both architectures (E15).

    For every cell a seeded :func:`~repro.sim.faults.random_fault_schedule`
    (crash/restart pairs plus an optional mid-run partition window) is
    installed over the same Poisson open-loop workload on the Figure 5
    share graph, on both the peer-to-peer and the client–server cluster.
    Reported per cell: minimum per-replica availability, recovery latency
    (restart → caught up via anti-entropy resync), staleness (apply-latency
    p99/max — partition-crossing applies wait out the partition), rejected
    operations, and the consistency-checker verdict — causal consistency
    must hold through every fault schedule.
    """
    graph = ShareGraph.from_placement(figure5_placement())
    workload = poisson_workload(graph, rate=rate, duration=duration, seed=seed)
    rows: List[FaultToleranceRow] = []
    for crashes in crash_counts:
        for partition_duration in partition_durations:
            schedule = random_fault_schedule(
                graph.replica_ids,
                duration,
                crashes=crashes,
                downtime=downtime,
                partition_duration=partition_duration,
                partition_at=0.4 * duration,
                seed=seed + crashes,
                name=f"crashes{crashes}-part{partition_duration:g}",
            )
            for architecture, build in ARCHITECTURES.items():
                host = build(graph, delay_model=UniformDelay(1, 10), seed=seed)
                injector = FaultInjector(host)
                injector.install(schedule)
                result = run_open_loop(host, workload)
                injector.finalize_downtime()
                # Fixed horizon: every cell is normalized over the same
                # workload window, so availabilities compare across cells
                # (a longer drain must not inflate the denominator).
                availability = host.metrics.availability(
                    duration, graph.replica_ids
                )
                recovery = host.metrics.recovery_latency_summary()
                rows.append(
                    FaultToleranceRow(
                        architecture=architecture,
                        crashes=crashes,
                        partition_duration=partition_duration,
                        operations=len(workload),
                        rejected_operations=host.metrics.rejected_operations,
                        availability_min=min(availability.values()),
                        recovery_mean=recovery.mean,
                        recovery_max=recovery.max,
                        staleness_p99=result.apply_latency.p99,
                        staleness_max=result.apply_latency.max,
                        messages_lost_to_crash=(
                            host.network.stats.messages_lost_to_crash
                        ),
                        retransmissions=host.network.stats.retransmissions,
                        consistent=result.consistent,
                    )
                )
    return rows



# ======================================================================
# E16 — Bytes on the wire: codecs, delta encoding and batching windows
# ======================================================================

@dataclass(frozen=True)
class WireOverheadRow:
    """One topology × protocol × batching-window cell of the E16 sweep."""

    topology: str = column("topology")
    protocol: str = column("protocol")
    #: ``"off"`` (wire accounting only) or ``"<max_messages>/<max_delay>"``.
    window: str = column("window")
    messages: int = column("msgs")
    batches: int = column("batches")
    header_bytes: int = column("hdr B")
    timestamp_bytes: int = column("ts B")
    payload_bytes: int = column("payload B")
    #: What the timestamp frames would have cost without delta encoding.
    timestamp_bytes_full: int = column("ts B (no delta)")

    @column_property("delta saved", lambda share: f"{100 * share:.0f}%")
    def delta_savings(self) -> float:
        """Fraction of full-encoding timestamp bytes saved by delta frames."""
        if not self.timestamp_bytes_full:
            return 0.0
        return 1.0 - self.timestamp_bytes / self.timestamp_bytes_full

    #: The counter-based measure E7 reports, for direct comparison.
    counters_sent: int = column("ctrs sent")
    #: Mean measured bytes per shipped counter (ties bytes to E7's measure).
    bytes_per_counter: float = column("B/ctr", ".2f")
    #: Closed-form lower bound (Theorem 15 corollaries) in bytes per
    #: message, averaged over replicas; ``nan`` when no closed form applies.
    bound_bytes_per_message: float = column("bound B/msg", ".1f")

    @column_property("ts B/msg", ".1f")
    def timestamp_bytes_per_message(self) -> float:
        """Mean timestamp bytes shipped per update message."""
        if not self.messages:
            return 0.0
        return self.timestamp_bytes / self.messages

    consistent: bool = column("consistent", verdict)

    @property
    def total_bytes(self) -> int:
        """All bytes on the wire in this cell."""
        return self.header_bytes + self.timestamp_bytes + self.payload_bytes


def wire_protocol_suite() -> Dict[str, ReplicaFactory]:
    """One protocol per wire family: edge / matrix / vector / hoop."""
    return {
        "edge-indexed (paper)": edge_indexed_factory,
        "full-track matrix": full_track_factory,
        "full replication (vector)": full_replication_factory,
        "hoop tracking (original)": hoop_tracking_factory,
    }


def wire_topologies() -> Dict[str, RegisterPlacement]:
    """The E16 topology axis: one tree, one cycle, one clique, one general."""
    return {
        "figure5": figure5_placement(),
        "tree7": tree_placement(7),
        "ring6": ring_placement(6),
        "clique4": clique_placement(4),
    }


def _workload_update_budget(workload) -> int:
    """``m``: the largest per-replica write count of a workload (min 2).

    The closed-form bounds charge each counter ``log2 m`` bits, where ``m``
    is the per-replica update budget; the workload's realised maximum is the
    tightest honest choice.  Accepts closed-loop workloads (``operations``)
    and open-loop ones (``arrivals`` of timed operations) so E16 and E17
    share one budget rule.
    """
    operations = getattr(workload, "operations", None)
    if operations is None:
        operations = [arrival.operation for arrival in workload.arrivals]
    writes: Dict[ReplicaId, int] = {}
    for operation in operations:
        if operation.kind == "write":
            writes[operation.replica_id] = writes.get(operation.replica_id, 0) + 1
    return max(2, max(writes.values(), default=2))


def exp_wire_overhead(
    ops: int = 150,
    seed: int = 11,
    windows: Sequence[Optional[Tuple[int, float]]] = (None, (8, 4.0), (32, 8.0)),
) -> List[WireOverheadRow]:
    """Measure real bytes-on-wire across topology × protocol × batch window (E16).

    Every cell replays the same uniform workload (same network seed) with
    wire accounting on; windowed cells run the batching transport with
    per-channel delta encoding.  Reported per cell: the header/timestamp/
    payload byte split, the no-delta counterfactual, the counter-based E7
    measure for the same traffic, and — where a closed form applies (trees,
    cycles, cliques) — the Theorem-15 lower bound converted to bytes per
    message.  The consistency checker must pass in every cell: batching and
    delta encoding are transport concerns and must not perturb the protocol.
    """
    rows: List[WireOverheadRow] = []
    for topology_name, placement in wire_topologies().items():
        graph = ShareGraph.from_placement(placement)
        workload = uniform_workload(graph, ops, seed=seed)
        budget = _workload_update_budget(workload)
        bounds = [
            bound
            for bound in (
                lower_bound_bits(graph, rid, budget) for rid in graph.replica_ids
            )
            if bound is not None
        ]
        bound_bytes = (sum(bounds) / len(bounds) / 8.0) if bounds else float("nan")
        for protocol_name, factory in wire_protocol_suite().items():
            for window in windows:
                if window is None:
                    cluster = Cluster(
                        graph,
                        replica_factory=factory,
                        delay_model=UniformDelay(1, 10),
                        seed=seed,
                        wire_accounting=True,
                    )
                    window_name = "off"
                else:
                    max_messages, max_delay = window
                    cluster = Cluster(
                        graph,
                        replica_factory=factory,
                        delay_model=UniformDelay(1, 10),
                        seed=seed,
                        batching=BatchingConfig(
                            max_messages=max_messages, max_delay=max_delay
                        ),
                    )
                    window_name = f"{max_messages}/{max_delay:g}"
                result = run_workload(cluster, workload)
                stats = cluster.network.stats
                counters = stats.metadata_counters_sent
                rows.append(
                    WireOverheadRow(
                        topology=topology_name,
                        protocol=protocol_name,
                        window=window_name,
                        messages=stats.messages_sent,
                        batches=stats.batches_sent,
                        header_bytes=stats.header_bytes_sent,
                        timestamp_bytes=stats.timestamp_bytes_sent,
                        payload_bytes=stats.payload_bytes_sent,
                        timestamp_bytes_full=stats.timestamp_bytes_full,
                        counters_sent=counters,
                        bytes_per_counter=(
                            stats.timestamp_bytes_sent / counters if counters else 0.0
                        ),
                        bound_bytes_per_message=bound_bytes,
                        consistent=result.consistent,
                    )
                )
    return rows



def render_wire_channels(stats: NetworkStats) -> str:
    """Per-channel byte breakdown of one run (wire accounting on)."""
    return render_table(
        ["channel", "msgs", "batches", "header B", "timestamp B", "payload B", "total B"],
        [
            (
                f"{sender}->{destination}",
                channel.messages,
                channel.batches,
                channel.header_bytes,
                channel.timestamp_bytes,
                channel.payload_bytes,
                channel.total_bytes,
            )
            for (sender, destination), channel in sorted(stats.per_channel.items())
        ],
    )


def render_client_server(result: ClientServerResult) -> str:
    """Text table of the client–server experiment."""
    rows = [
        (
            rid,
            result.peer_to_peer_edge_counts[rid],
            result.server_edge_counts[rid],
        )
        for rid in sorted(result.server_edge_counts)
    ]
    table = render_table(
        ["replica", "|E_i| peer-to-peer", "|Ê_i| client-server"], rows
    )
    clients = render_table(
        ["client", "counters"], sorted(result.client_counter_counts.items())
    )
    status = "consistent" if result.consistent else "VIOLATED"
    return f"{table}\n\n{clients}\n\nexecution: {status}"


# ======================================================================
# E17 — Dynamic membership: churn rate × topology under open-loop load
# ======================================================================

@dataclass(frozen=True)
class ReconfigurationRow:
    """One epoch segment of one (architecture × topology × churn) run."""

    architecture: str = column("arch")
    topology: str = column("topology")
    #: Churn level label, e.g. ``"j2/l1/e1"`` (joins/leaves/edge changes).
    churn: str = column("churn")
    epoch: int = column("epoch")
    num_replicas: int = column("R")
    #: Messages, timestamp bytes and counters sent while this epoch was active.
    messages: int = column("msgs")
    timestamp_bytes: int = column("ts B")
    counters: int

    @column_property("ts B/msg", ".1f")
    def ts_bytes_per_message(self) -> float:
        """Mean timestamp bytes per message inside this epoch segment."""
        if not self.messages:
            return 0.0
        return self.timestamp_bytes / self.messages

    @column_property("ctr/msg", ".1f")
    def counters_per_message(self) -> float:
        """Mean shipped counters per message inside this epoch segment."""
        if not self.messages:
            return 0.0
        return self.counters / self.messages

    #: Mean ``|E_i|`` of the epoch's share graph (the metadata step E17
    #: expects the measured traffic to follow).
    mean_edges: float = column("mean |E_i|", ".1f")
    #: Closed-form lower bound (Theorem 12/13/15) in bytes per message,
    #: averaged over replicas; ``nan`` when no closed form applies.
    bound_bytes_per_message: float = column("bound B/msg", ".1f")
    # -- run-level facts, repeated on each of the run's rows --------------
    reconfigs: int
    #: Mean migration-window span (window open → commit), simulated time.
    window_mean: float = column("window", ".1f")
    #: Mean state-transfer duration (commit → last bootstrap applied).
    transfer_mean: float = column("transfer", ".1f")
    rejected_operations: int = column("rejected")
    #: Minimum availability over the final members (dips come only from
    #: migration windows and transfers in a fault-free run).
    availability_min: float = column("avail min", ".3f")
    consistent: bool = column("consistent", verdict)


def _reconfig_latency_summary(metrics) -> Tuple[float, float]:
    """Mean window span and mean transfer duration from the run metrics."""
    windows = metrics.migration_windows
    window_mean = (
        sum(end - start for start, end in windows) / len(windows) if windows else 0.0
    )
    transfer_starts: Dict[str, float] = {}
    durations: List[float] = []
    for record in metrics.reconfig_timeline:
        if record.kind == "transfer-start":
            transfer_starts[record.detail.split(":")[0]] = record.time
        elif record.kind == "transfer-complete":
            started = transfer_starts.pop(record.detail, None)
            if started is not None:
                durations.append(record.time - started)
    transfer_mean = sum(durations) / len(durations) if durations else 0.0
    return window_mean, transfer_mean


def reconfig_topologies() -> Dict[str, RegisterPlacement]:
    """The E17 topology axis: a tree (closed-form bounds apply at every
    epoch, since churn joins leaves and removes degree-1 replicas) and the
    Figure 5 general graph (no closed form; edge churn included)."""
    return {
        "tree9": tree_placement(9),
        "figure5": figure5_placement(),
    }


def reconfig_churn_levels(topology: str) -> Dict[str, Tuple[int, int, int]]:
    """The E17 churn axis: (joins, leaves, edge changes) per run.

    The tree topology takes no edge changes — an added chord creates a
    cycle and forfeits the Theorem-12 closed form the tree column exists
    to track at every epoch; the general graph exercises edge churn (and
    the state transfer it triggers) instead.
    """
    if topology == "tree9":
        return {"none": (0, 0, 0), "j2": (2, 0, 0), "j2/l1": (2, 1, 0)}
    return {"none": (0, 0, 0), "j2": (2, 0, 0), "j2/l1/e1": (2, 1, 1)}


def exp_reconfiguration(
    rate: float = 0.4,
    duration: float = 300.0,
    window: float = 5.0,
    seed: int = 13,
) -> List[ReconfigurationRow]:
    """Sweep churn rate × topology on both architectures (E17).

    Every cell replays the same seeded churn schedule and the same
    membership-aware Poisson workload, with wire accounting on (full
    timestamp frames, no batching, so measured bytes compare directly
    against the closed-form bounds).  Reported per epoch segment: the
    traffic sent while that configuration was active and the
    configuration's own metadata measures — mean ``|E_i|`` and the
    Theorem 12/13/15 bound in bytes per message where one applies.  The
    consistency checker must pass across all epochs in every cell, and in
    a fault-free run every availability dip must sit inside a migration
    window or a state transfer.
    """
    rows: List[ReconfigurationRow] = []
    for topology_name, placement in reconfig_topologies().items():
        for churn_name, (joins, leaves, edges) in reconfig_churn_levels(
            topology_name
        ).items():
            # Trees use leaf-attach joins (closed-form bounds keep applying
            # at every epoch); the general graph uses group joins and edge
            # changes that replicate existing registers, exercising state
            # transfer.
            schedule = random_churn_schedule(
                placement,
                duration,
                joins=joins,
                leaves=leaves,
                edge_changes=edges,
                seed=seed,
                join_style="leaf" if topology_name == "tree9" else "group",
            )
            placements = schedule.placements_over(placement, window=window)
            workload = poisson_workload_dynamic(
                placements, rate=rate, duration=duration, seed=seed,
            )
            budget = _workload_update_budget(workload)
            graph = ShareGraph.from_placement(placement)
            for architecture, build in ARCHITECTURES.items():
                host = build(graph, delay_model=UniformDelay(1, 10), seed=seed,
                             wire_accounting=True)
                manager = ReconfigManager(host, window=window)
                manager.install(schedule)
                result = run_open_loop(host, workload)
                window_mean, transfer_mean = _reconfig_latency_summary(host.metrics)
                horizon = host.last_activity_time
                availability = host.metrics.availability(
                    horizon, host.share_graph.replica_ids
                )
                availability_min = min(availability.values()) if availability else 1.0
                for segment in manager.epoch_segments():
                    segment_graph: ShareGraph = segment.share_graph
                    bounds = [
                        bound
                        for bound in (
                            lower_bound_bits(segment_graph, rid, budget)
                            for rid in segment_graph.replica_ids
                        )
                        if bound is not None
                    ]
                    bound_bytes = (
                        sum(bounds) / len(bounds) / 8.0 if bounds else float("nan")
                    )
                    edge_counts = [
                        len(timestamp_edges(segment_graph, rid))
                        for rid in segment_graph.replica_ids
                    ]
                    rows.append(
                        ReconfigurationRow(
                            architecture=architecture,
                            topology=topology_name,
                            churn=churn_name,
                            epoch=segment.epoch,
                            num_replicas=segment_graph.num_replicas,
                            messages=segment.messages,
                            timestamp_bytes=segment.timestamp_bytes,
                            counters=segment.counters,
                            mean_edges=sum(edge_counts) / len(edge_counts),
                            bound_bytes_per_message=bound_bytes,
                            reconfigs=host.metrics.reconfigs,
                            window_mean=window_mean,
                            transfer_mean=transfer_mean,
                            rejected_operations=host.metrics.rejected_operations,
                            availability_min=availability_min,
                            consistent=result.consistent,
                        )
                    )
    return rows



# ======================================================================
# E19 — observability: traced runs, chain coverage, stage breakdown
# ======================================================================

@dataclass(frozen=True)
class ObservabilityRow:
    """One traced cell of the E19 matrix."""

    architecture: str = column("arch")
    topology: str = column("topology")
    events: int = column("events")
    applied: int = column("applied")
    complete: int = column("complete")
    #: Fraction of applied remote copies whose full issue→apply chain
    #: reconstructs from the trace alone (acceptance bar: ≥ 0.99).
    coverage: float = column("coverage", ".4f")
    end_to_end_p50: float = column("e2e p50", ".2f")
    end_to_end_p99: float = column("e2e p99", ".2f")
    #: The dominant stage at p99 (where the latency budget actually goes).
    dominant_stage: str = column("dominant stage")
    consistent: bool = column("consistent", verdict)


def exp_observability(
    replicas: int = 8,
    rate: float = 4.0,
    duration: float = 30.0,
    seed: int = 19,
) -> List[ObservabilityRow]:
    """Traced runs across topology × architecture (E19).

    Every cell runs with the message-lifecycle tracer on and reduces the
    recorded events to the headline observability numbers: chain
    coverage (≥99% of applied remote copies must reconstruct their full
    issue→send→wire→deliver→apply chain), end-to-end p50/p99 in kernel
    time, and the stage that dominates the p99 budget.  The workload and
    batching match the differential harness, so the same traces feed
    ``tools/trace_report.py`` unchanged.

    ``replicas`` stays modest by default: both architectures here build
    the exact Definition 5 edge sets, which is exponential on cliques.
    """
    from ..obs import assemble_spans, complete_chains, coverage, stage_breakdown

    rows: List[ObservabilityRow] = []
    placements = {
        "clique": clique_placement(replicas),
        "tree": tree_placement(replicas),
    }
    for topology_name, placement in placements.items():
        graph = ShareGraph.from_placement(placement)
        workload = poisson_workload(
            graph, rate=rate, duration=duration, write_fraction=0.7, seed=seed
        )
        for architecture, build in ARCHITECTURES.items():
            host = build(graph, seed=seed,
                         batching=BatchingConfig(max_messages=16, max_delay=2.0))
            recorder = host.enable_tracing()
            result = run_open_loop(host, workload)
            spans = assemble_spans(recorder.events)
            complete, applied = coverage(spans)
            chains = complete_chains(spans)
            breakdown = stage_breakdown(chains)
            hop_labels = [label for label in breakdown if label != "end-to-end"]
            dominant = max(hop_labels, key=lambda label: breakdown[label].p99)
            rows.append(ObservabilityRow(
                architecture=architecture,
                topology=topology_name,
                events=len(recorder.events),
                applied=applied,
                complete=complete,
                coverage=complete / applied if applied else 1.0,
                end_to_end_p50=breakdown["end-to-end"].p50,
                end_to_end_p99=breakdown["end-to-end"].p99,
                dominant_stage=dominant,
                consistent=result.consistent,
            ))
    return rows



# ======================================================================
# E21 — Placement policies on measured topologies
# ======================================================================

@dataclass(frozen=True)
class PlacementRow:
    """One topology × policy × protocol/architecture/fault cell of E21."""

    topology: str = column("topology")
    policy: str = column("policy")
    protocol: str = column("protocol")
    architecture: str = column("arch")
    #: ``"none"`` or ``"kill:<region>"`` (crash every replica of the
    #: region mid-run, restart after the outage window).
    fault: str = column("fault")
    share_edges: int = column("edges")
    #: Mean per-replica counter count |E_i| of the emitted share graph.
    counters_mean: float = column("counters", ".1f")
    messages: int = column("msgs")
    #: Measured timestamp bytes per wire message.
    ts_bytes_per_msg: float = column("tsB/msg", ".1f")
    #: Theorem-15 closed-form bound in bytes/replica where one applies
    #: (mean over replicas with a closed form; NaN on general graphs).
    bound_bytes: float = column("boundB", ".1f")
    #: Static prediction: p99 share-edge latency of the placement (ms).
    predicted_edge_p99: float = column("pred p99", ".1f")
    #: Measured apply-latency p99 over the run (ms).
    apply_p99: float = column("apply p99", ".1f")
    availability_min: float = column("min avail", ".3f")
    #: Worst-case fraction of registers surviving any single-region kill.
    region_survival: float = column("survival", ".2f")
    consistent: bool = column("consistent", verdict)


def placement_topologies() -> Dict[str, Topology]:
    """The E21 topology axis: one measured map, one parametric geo map."""
    return {
        "geant-like": geant_like(),
        "geo-3x4": geo_regions(3, 4),
    }


def _placement_victim_region(result: PlacementResult) -> str:
    """The region whose kill hurts most: most replicas, ties by name."""
    regions = sorted({result.region_of(rid) for rid in result.assignment})
    return max(regions, key=lambda r: (len(result.replicas_in_region(r)), r))


def exp_placement(
    rate: float = 4.0,
    duration: float = 40.0,
    num_replicas: int = 10,
    num_registers: int = 16,
    replication_factor: int = 2,
    capacity: int = 6,
    jitter: float = 0.1,
    seed: int = 21,
    topologies: Optional[Mapping[str, Topology]] = None,
    region_kill: bool = True,
) -> List[PlacementRow]:
    """Sweep placement policy × topology × protocol/architecture (E21).

    For every topology and policy the placement layer emits a share graph
    plus a node assignment; the same seeded Poisson workload then runs
    over :class:`~repro.topo.LatencyDelayModel` delays in four cells —
    edge-indexed and full-track peer-to-peer, edge-indexed client–server,
    and (with ``region_kill``) edge-indexed peer-to-peer through a
    region-kill fault (crash every replica of the placement's most-loaded
    region at 40% of the run, restart at 65%).  Reported per cell: the
    emitted share graph's counter cost and measured timestamp bytes per
    message against the closed-form bound, static predicted edge p99
    versus measured apply p99, fixed-horizon availability, and the
    region-survival score.  Consistency must hold in every cell,
    including through the region kill.
    """
    all_rows: List[PlacementRow] = []
    protocols: Dict[str, ReplicaFactory] = {
        "edge-indexed": edge_indexed_factory,
        "full-track": full_track_factory,
    }
    for topology_name, topology in (topologies or placement_topologies()).items():
        spec = PlacementSpec.make(
            topology,
            num_replicas=num_replicas,
            num_registers=num_registers,
            replication_factor=replication_factor,
            capacity=capacity,
        )
        for policy_name, policy in placement_policies().items():
            result = policy.place(spec, seed=seed)
            graph = result.share_graph
            workload = poisson_workload(
                graph, rate=rate, duration=duration,
                write_fraction=0.5, seed=seed,
            )
            score = score_placement(
                result, max_updates=_workload_update_budget(workload)
            )
            bound_bytes = (
                score.bound_bytes_mean
                if score.bound_bytes_mean is not None
                else float("nan")
            )

            def run_cell(protocol: str, architecture: str,
                         fault: str, host: SimulationHost) -> PlacementRow:
                injector = None
                if fault != "none":
                    region = fault.split(":", 1)[1]
                    victims = result.replicas_in_region(region)
                    injector = FaultInjector(host)
                    injector.install(FaultSchedule(
                        name=fault,
                        actions=tuple(
                            [crash(0.4 * duration, rid) for rid in victims]
                            + [restart(0.65 * duration, rid) for rid in victims]
                        ),
                    ))
                run_result = run_open_loop(host, workload)
                if injector is not None:
                    injector.finalize_downtime()
                # Fixed horizon, as in E15: availabilities compare across
                # cells regardless of how long each run drains.
                availability = host.metrics.availability(
                    duration, graph.replica_ids
                )
                stats = host.network.stats
                return PlacementRow(
                    topology=topology_name,
                    policy=policy_name,
                    protocol=protocol,
                    architecture=architecture,
                    fault=fault,
                    share_edges=score.share_edges,
                    counters_mean=score.counters_mean,
                    messages=stats.messages_sent,
                    ts_bytes_per_msg=(
                        stats.timestamp_bytes_sent / stats.messages_sent
                        if stats.messages_sent else 0.0
                    ),
                    bound_bytes=bound_bytes,
                    predicted_edge_p99=score.edge_latency_p99,
                    apply_p99=run_result.apply_latency.p99,
                    availability_min=min(availability.values()),
                    region_survival=score.region_survival_min,
                    consistent=run_result.consistent,
                )

            for protocol_name, factory in protocols.items():
                all_rows.append(run_cell(
                    protocol_name, "peer-to-peer", "none",
                    Cluster(
                        graph,
                        replica_factory=factory,
                        delay_model=result.delay_model(jitter=jitter),
                        seed=seed,
                        wire_accounting=True,
                    ),
                ))
            all_rows.append(run_cell(
                "edge-indexed", "client-server", "none",
                ClientServerCluster.with_colocated_clients(
                    graph,
                    delay_model=result.delay_model(jitter=jitter),
                    seed=seed,
                    wire_accounting=True,
                ),
            ))
            if region_kill:
                fault = f"kill:{_placement_victim_region(result)}"
                all_rows.append(run_cell(
                    "edge-indexed", "peer-to-peer", fault,
                    Cluster(
                        graph,
                        replica_factory=edge_indexed_factory,
                        delay_model=result.delay_model(jitter=jitter),
                        seed=seed,
                        wire_accounting=True,
                    ),
                ))
    return all_rows


@dataclass(frozen=True)
class AdaptiveRow:
    """One policy cell of E22 (the ``adaptive`` row is the controller)."""

    policy: str = column("policy")
    adaptive: bool = column("adaptive", yes_no)
    #: Committed reconfiguration epochs / controller plans installed.
    reconfigs: int = column("reconfigs")
    plans: int = column("plans")
    #: Whether the controller pulled the delta-encoding lever.
    compressed: bool = column("compressed", yes_no)
    messages: int = column("msgs")
    ts_bytes_per_msg: float = column("tsB/msg", ".1f")
    apply_p99: float = column("apply p99", ".2f")
    apply_mean: float = column("apply mean", ".2f")
    consistent: bool = column("consistent", verdict)


def _home_map(result: PlacementResult) -> Dict[ReplicaId, Register]:
    """One distinct *home* register per replica, from its own stored set.

    The drifting-hotspot workload writes only at home registers, so homes
    must be a system of distinct representatives — computed by augmenting
    paths (deterministic: replicas and registers visited in sorted
    order).  Greedy first-fit is not enough: a later replica's whole
    stored set may already be claimed by earlier replicas.
    """
    placement = result.placement
    match: Dict[Register, ReplicaId] = {}

    def try_assign(rid: ReplicaId, visited: set) -> bool:
        for register in sorted(placement.registers_at(rid)):
            if register in visited:
                continue
            visited.add(register)
            if register not in match or try_assign(match[register], visited):
                match[register] = rid
                return True
        return False

    for rid in sorted(placement.replica_ids):
        if not try_assign(rid, set()):
            raise ValueError(
                f"no distinct home register for replica {rid!r}: "
                "placement has no perfect replica->register matching"
            )
    return {rid: register for register, rid in match.items()}


def drifting_writer_groups(result: PlacementResult) -> List[List[ReplicaId]]:
    """The workload's rotating writer groups: one per topology region."""
    regions = sorted({result.region_of(rid) for rid in result.assignment})
    return [sorted(result.replicas_in_region(region)) for region in regions]


def adaptive_controller_config() -> ControllerConfig:
    """The tuned E22 controller: fast sensing, small margin, short windows.

    The loop must react within a small fraction of one hotspot phase
    (``duration / rotations`` simulated time), so it samples every 1.5,
    arms after two hot windows and rate-limits to one plan per 5; the
    compression lever triggers once sustained timestamp bytes/msg exceed
    a level every uncompressed cell comfortably exceeds.
    """
    return ControllerConfig(
        interval=1.5,
        window=2,
        cooldown=5.0,
        margin=0.02,
        max_moves=3,
        min_writes=3,
        arm=2,
        dominance_rise=0.4,
        dominance_fall=0.25,
        compress_bytes_per_msg=18.0,
        reconfig_window=0.15,
    )


def exp_adaptive(
    rate: float = 3.0,
    duration: float = 720.0,
    rotations: int = 12,
    num_replicas: int = 10,
    num_registers: int = 16,
    replication_factor: int = 2,
    capacity: int = 6,
    jitter: float = 0.05,
    seed: int = 22,
    topology: Optional[Topology] = None,
    base_policy: str = "latency-greedy",
    config: Optional[ControllerConfig] = None,
) -> List[AdaptiveRow]:
    """Adaptive reconfiguration vs. every static placement (E22).

    A drifting-hotspot workload (the writer set rotates across topology
    regions every ``duration / rotations``) runs on a GEANT-like map in
    four cells: each static placement policy as-is, plus an *adaptive*
    cell that starts from ``base_policy``'s placement and leaves an
    :class:`~repro.adapt.AdaptiveController` attached.  The controller
    senses the drift, attracts hot registers' copies toward their current
    writers through bounded epoch reconfigurations, and pulls the
    delta-encoding lever once timestamp bytes/msg stay high — so the
    adaptive cell must beat **every** static on both measured timestamp
    bytes per message and apply-latency p99, with consistency holding
    through every controller-issued reconfiguration (the E22 gate,
    enforced by ``benchmarks/bench_adaptive.py``).
    """
    topology = topology or geant_like()
    spec = PlacementSpec.make(
        topology,
        num_replicas=num_replicas,
        num_registers=num_registers,
        replication_factor=replication_factor,
        capacity=capacity,
    )
    policies = placement_policies()
    if base_policy not in policies:
        raise ValueError(f"unknown base policy {base_policy!r}")

    def run_cell(name: str, result: PlacementResult,
                 adaptive: bool) -> AdaptiveRow:
        home = _home_map(result)
        workload = drifting_hotspot_workload(
            home, drifting_writer_groups(result), rate=rate,
            duration=duration, rotations=rotations, seed=seed,
        )
        host = Cluster(
            result.share_graph,
            replica_factory=edge_indexed_factory,
            delay_model=result.delay_model(jitter=jitter),
            seed=seed,
            wire_accounting=True,
        )
        controller = None
        if adaptive:
            pinned = {register: rid for rid, register in home.items()}
            controller = AdaptiveController(
                host, result, pinned=pinned,
                config=config or adaptive_controller_config(),
            ).attach()
        run_result = run_open_loop(host, workload)
        stats = host.network.stats
        return AdaptiveRow(
            policy=name,
            adaptive=adaptive,
            reconfigs=host.metrics.reconfigs,
            plans=controller.plans_installed if controller else 0,
            compressed=bool(controller and controller.compressed),
            messages=stats.messages_sent,
            ts_bytes_per_msg=(
                stats.timestamp_bytes_sent / stats.messages_sent
                if stats.messages_sent else 0.0
            ),
            apply_p99=run_result.apply_latency.p99,
            apply_mean=run_result.apply_latency.mean,
            consistent=run_result.consistent,
        )

    rows = [
        run_cell(name, policy.place(spec, seed=seed), adaptive=False)
        for name, policy in policies.items()
    ]
    rows.append(run_cell(
        "adaptive", policies[base_policy].place(spec, seed=seed),
        adaptive=True,
    ))
    return rows
