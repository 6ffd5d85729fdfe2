"""The simulator-backed E-tables at the CI smoke size (``REPRO_BENCH_TINY=1``).

The one copy of the smoke-size parameters: every ``bench_*.py`` module
takes its ``REPRO_BENCH_TINY=1`` sizes from here, and
``tests/test_etables_golden.py`` renders every table in :data:`TABLES` and
compares it byte for byte with its file under ``tests/golden/``.
``python tools/regen_etables.py`` rewrites those files.

A table here is what a seeded simulator run determines.  Left out: every
line that reads a wall clock — E13's speed ratios, E15's fault-free
open-loop timing, E16's ops/s and ``__slots__`` lines, E19's tracing
on/off overhead — and E20, which is a live run.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from repro.analysis import (
    exp_adaptive,
    exp_bounded_loops,
    exp_client_server,
    exp_compression,
    exp_conflict_bound,
    exp_dummy_registers,
    exp_dummy_registers_dynamic,
    exp_fault_tolerance,
    exp_figure5,
    exp_helary_milani,
    exp_lower_bounds,
    exp_metadata_overhead,
    exp_necessity,
    exp_observability,
    exp_open_loop,
    exp_placement,
    exp_reconfiguration,
    exp_ring_breaking,
    exp_sufficiency,
    render_adaptive,
    render_client_server,
    render_compression,
    render_dummy_registers,
    render_fault_tolerance,
    render_figure5,
    render_helary_milani,
    render_lower_bounds,
    render_necessity,
    render_observability,
    render_open_loop,
    render_placement,
    render_reconfiguration,
    render_ring_breaking,
    render_sufficiency,
)
from repro.analysis.experiments import (
    ARCHITECTURES,
    exp_wire_overhead,
    render_wire_overhead,
)
from repro.baselines.vector_clock_full import full_replication_factory
from repro.core.share_graph import ShareGraph
from repro.core.timestamp_graph import build_all_timestamp_graphs
from repro.sim.cluster import Cluster
from repro.sim.delays import UniformDelay
from repro.sim.engine import BatchingConfig
from repro.sim.metrics import format_table
from repro.sim.reconfig import ReconfigManager, random_churn_schedule
from repro.sim.topologies import (
    clique_placement,
    figure3_placement,
    figure5_placement,
    tree_placement,
)
from repro.sim.workloads import (
    poisson_workload_dynamic,
    run_open_loop,
    run_workload,
    uniform_workload,
)

# ----------------------------------------------------------------------
# The smoke-size parameters (E1–E15 run at one size only)
# ----------------------------------------------------------------------
E5_SUFFICIENCY = dict(ops_per_topology=100, seeds=(1, 2))
E6_MAX_UPDATES = 16
E6_CONFLICT_MAX_UPDATES = 2
E7_METADATA = dict(ops=100, seed=7)
E9_DYNAMIC = dict(ops=100, seed=5)
E10_RING_SIZES = (4, 6, 8, 12)
E11_RING_SIZE = 6
E12_SEED = 4
#: The clique backlog of the batching and delta-bytes gates.
E16_CLIQUE_SIZE = 12
E16_OPS = 120
#: Operations of the batched consistency run and of the sweep table.
E16_CONSISTENCY_OPS = 60
E16_TABLE_OPS = 60
E17_SWEEP_DURATION = 120.0
#: The churn acceptance scenario: tree size, joins, leaves, duration, rate.
E17_ACCEPTANCE = dict(size=16, joins=3, leaves=2, duration=150.0, rate=0.3)
E19_OBSERVABILITY = dict(rate=2.0, duration=15.0)
E21_PLACEMENT = dict(rate=2.0, duration=20.0, num_replicas=8,
                     num_registers=12, capacity=5)
E22_ADAPTIVE = dict(duration=240.0, rotations=8)

#: The batching window of the E16 clique gates.
E16_BATCHING = BatchingConfig(max_messages=32, max_delay=8.0)


# ----------------------------------------------------------------------
# Runs shared by the bench modules and the tables
# ----------------------------------------------------------------------
def clique_backlog_run(batching: Optional[BatchingConfig], size: int, ops: int):
    """One full-replication clique backlog run; returns (cluster, seconds).

    ``interleave_steps=0`` defers every delivery until the drain — the
    maximal-backlog regime of the E13 gate — and ``wire_accounting`` is on
    for both sides so the comparison includes the honest cost of putting
    bytes on the wire in each mode.
    """
    graph = ShareGraph.from_placement(clique_placement(size))
    workload = uniform_workload(graph, ops, write_fraction=1.0, seed=5)
    cluster = Cluster(
        graph,
        replica_factory=full_replication_factory,
        delay_model=UniformDelay(1, 10),
        seed=5,
        batching=batching,
        wire_accounting=batching is None,
    )
    started = time.perf_counter()
    run_workload(cluster, workload, interleave_steps=0, check=False)
    return cluster, time.perf_counter() - started


def delta_bytes_line(stats) -> str:
    return (
        f"[E16] timestamp bytes: delta {stats.timestamp_bytes_sent:,} vs "
        f"full {stats.timestamp_bytes_full:,} "
        f"({100 * stats.timestamp_delta_savings:.1f}% saved, "
        f"{stats.delta_frames_sent} delta / {stats.full_frames_sent} full frames)"
    )


def batched_consistency_runs(ops: int):
    """The figure-5 workload with batching on, on both deployments."""
    graph = ShareGraph.from_placement(figure5_placement())
    workload = uniform_workload(graph, ops, seed=7)
    batching = BatchingConfig(max_messages=8, max_delay=4.0)
    p2p_result, cs_result = (
        run_workload(build(graph, delay_model=UniformDelay(1, 10), seed=7,
                           batching=batching), workload)
        for build in ARCHITECTURES.values()
    )
    return p2p_result, cs_result


def churn_acceptance_run(architecture: str, size: int, joins: int, leaves: int,
                         duration: float, rate: float, seed: int = 23):
    """The acceptance scenario: a big tree, joins and leaves mid-run."""
    placement = tree_placement(size)
    graph = ShareGraph.from_placement(placement)
    host = ARCHITECTURES[architecture](
        graph, delay_model=UniformDelay(1, 10), seed=seed, wire_accounting=True,
    )
    manager = ReconfigManager(host, window=4.0)
    schedule = random_churn_schedule(
        placement, duration, joins=joins, leaves=leaves, seed=seed,
        join_style="leaf",
    )
    manager.install(schedule)
    placements = schedule.placements_over(placement, window=4.0)
    workload = poisson_workload_dynamic(
        placements, rate=rate, duration=duration, seed=seed,
    )
    result = run_open_loop(host, workload)
    return host, manager, result


def churn_acceptance_line(architecture: str, host, result) -> str:
    stats = host.network.stats
    return (
        f"[E17 acceptance] {architecture}: "
        f"{host.metrics.reconfigs} reconfigs to epoch {host.epoch}, "
        f"{result.messages_sent} msgs, "
        f"{host.metrics.rejected_operations} rejected ops, "
        f"{stats.messages_rejected_stale_epoch} stale-epoch rejects, "
        f"consistency {'OK' if result.consistent else 'VIOLATED'}"
    )


# ----------------------------------------------------------------------
# The tables
# ----------------------------------------------------------------------
def _lines(*lines: str) -> str:
    return "\n".join(lines) + "\n"


def _e1() -> str:
    graphs = build_all_timestamp_graphs(
        ShareGraph.from_placement(figure3_placement()))
    return _lines(
        "[E1] Figure 5 timestamp graphs",
        render_figure5(exp_figure5()),
        "[E1] Figure 3 counters per replica: "
        f"{ {rid: tg.num_counters for rid, tg in sorted(graphs.items())} }",
    )


def _e6() -> str:
    bound = exp_conflict_bound(E6_CONFLICT_MAX_UPDATES)
    return _lines(
        "[E6] Closed-form lower bounds vs the algorithm",
        render_lower_bounds(exp_lower_bounds(E6_MAX_UPDATES)),
        f"[E6] Conflict-graph bound on {bound.topology} (m={bound.max_updates}): "
        f"{bound.space_size} timestamps = {bound.bits:.1f} bits; "
        f"closed form = {bound.closed_form_bits:.1f} bits",
    )


def _e9() -> str:
    dynamic = exp_dummy_registers_dynamic(**E9_DYNAMIC)
    return _lines(
        "[E9] Dummy registers: static trade-off",
        render_dummy_registers(exp_dummy_registers()),
        "[E9] Dummy registers: dynamic run on ring6",
        *(f"  {name}: {stats}" for name, stats in dynamic.items()),
    )


def _e11() -> str:
    result = exp_bounded_loops(E11_RING_SIZE)
    return _lines(
        f"[E11] Bounded loop length on {result.topology}",
        f"  exact counters   : {result.exact_counters}",
        f"  bounded counters : {result.bounded_counters}",
        "  loosely synchronous delays -> consistent = "
        f"{result.consistent_under_loose_synchrony}",
        "  adversarial delays         -> consistent = "
        f"{result.consistent_under_adversary}",
    )


def _e16() -> str:
    backlog, _ = clique_backlog_run(E16_BATCHING, E16_CLIQUE_SIZE, E16_OPS)
    p2p, cs = batched_consistency_runs(E16_CONSISTENCY_OPS)
    return _lines(
        delta_bytes_line(backlog.network.stats),
        f"[E16] batched peer-to-peer: {p2p.summary()}",
        f"[E16] batched client-server: {cs.summary()}",
        render_wire_overhead(exp_wire_overhead(ops=E16_TABLE_OPS)),
    )


def _e17() -> str:
    acceptance = [
        churn_acceptance_line(architecture, host, result)
        for architecture in ("peer-to-peer", "client-server")
        for host, _, result in [churn_acceptance_run(architecture, **E17_ACCEPTANCE)]
    ]
    return _lines(
        "[E17] Reconfiguration sweep (churn x topology, both architectures)",
        render_reconfiguration(exp_reconfiguration(duration=E17_SWEEP_DURATION)),
        *acceptance,
    )


def _titled(title: str, render: Callable[[], str]) -> Callable[[], str]:
    return lambda: _lines(title, render())


#: Table name → its rendering at the smoke size; the golden file is
#: ``tests/golden/<name>.txt``.
TABLES: Dict[str, Callable[[], str]] = {
    "e01_timestamp_graphs": _e1,
    "e02_e03_helary_milani": _titled(
        "[E2/E3] Hélary–Milani minimal hoops vs Theorem 8",
        lambda: render_helary_milani(exp_helary_milani())),
    "e04_necessity": _titled(
        "[E4] Necessity: adversarial schedules vs oblivious protocols",
        lambda: render_necessity(exp_necessity())),
    "e05_sufficiency": _titled(
        "[E5] Sufficiency sweep (uniform + causal-chain workloads)",
        lambda: render_sufficiency(exp_sufficiency(**E5_SUFFICIENCY))),
    "e06_lower_bounds": _e6,
    "e07_metadata_overhead": _titled(
        "[E7] Metadata overhead across protocols and topologies",
        lambda: format_table(exp_metadata_overhead(**E7_METADATA))),
    "e08_compression": _titled(
        "[E8] Timestamp compression",
        lambda: render_compression(exp_compression())),
    "e09_dummy_registers": _e9,
    "e10_ring_breaking": _titled(
        "[E10] Ring breaking via virtual registers",
        lambda: render_ring_breaking(exp_ring_breaking(E10_RING_SIZES))),
    "e11_bounded_loops": _e11,
    "e12_client_server": _titled(
        "[E12] Client–server architecture (Figure 3 chain + roaming clients)",
        lambda: render_client_server(exp_client_server(E12_SEED))),
    "e14_open_loop": _titled(
        "[E14] Open-loop workloads (Figure 5 graph, both architectures)",
        lambda: render_open_loop(exp_open_loop())),
    "e15_fault_tolerance": _titled(
        "[E15] Fault-tolerance sweep (Figure 5 graph, both architectures)",
        lambda: render_fault_tolerance(exp_fault_tolerance())),
    "e16_wire": _e16,
    "e17_reconfiguration": _e17,
    "e19_observability": _titled(
        "[E19] Traced runs (topology x architecture)",
        lambda: render_observability(exp_observability(**E19_OBSERVABILITY))),
    "e21_placement": _titled(
        "[E21] Placement policy x topology x protocol",
        lambda: render_placement(exp_placement(**E21_PLACEMENT))),
    "e22_adaptive": _titled(
        "[E22] Adaptive reconfiguration vs static placement",
        lambda: render_adaptive(exp_adaptive(**E22_ADAPTIVE))),
}
