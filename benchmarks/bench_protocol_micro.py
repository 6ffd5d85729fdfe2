"""E13 — Protocol micro-benchmarks: advance / merge / predicate / end-to-end.

Times the hot operations of the edge-indexed algorithm and a full end-to-end
simulated workload, so regressions in the protocol path are visible — plus
the indexed-apply-path comparison on large pending buffers (the 64-replica
clique workload), which must stay ≥2× faster than the seed's fixpoint
rescan.
"""

from __future__ import annotations

import copy
import os
import time

from conftest import write_bench_json

from repro.baselines.vector_clock_full import (
    FullReplicationReplica,
    full_replication_factory,
)
from repro.core.replica import EdgeIndexedReplica
from repro.core.share_graph import ShareGraph
from repro.core.timestamp_graph import TimestampGraph
from repro.core.timestamps import (
    EdgeTimestamp,
    advance,
    delivery_predicate,
    merge,
)
from repro.sim.cluster import Cluster
from repro.sim.delays import UniformDelay
from repro.sim.topologies import (
    clique_placement,
    figure5_placement,
    random_partial_placement,
    ring_placement,
)
from repro.sim.workloads import run_workload, uniform_workload


def test_e13_advance_speed(benchmark):
    """advance() on the Figure 5 system."""
    graph = ShareGraph.from_placement(figure5_placement())
    tgraph = TimestampGraph.build(graph, 4)
    tau = EdgeTimestamp.zero(tgraph.edges)
    benchmark(advance, graph, tgraph, tau, "y")


def test_e13_merge_speed(benchmark):
    """merge() between two ring-replica timestamps."""
    graph = ShareGraph.from_placement(ring_placement(8))
    tg1 = TimestampGraph.build(graph, 1)
    tg2 = TimestampGraph.build(graph, 2)
    tau1 = EdgeTimestamp.zero(tg1.edges)
    tau2 = EdgeTimestamp.zero(tg2.edges).incremented([(2, 1), (2, 3)])
    benchmark(merge, tg1, tau1, tg2, tau2)


def test_e13_delivery_predicate_speed(benchmark):
    """Predicate J on a ring-replica pending update."""
    graph = ShareGraph.from_placement(ring_placement(8))
    tg1 = TimestampGraph.build(graph, 1)
    tg2 = TimestampGraph.build(graph, 2)
    tau1 = EdgeTimestamp.zero(tg1.edges)
    remote = EdgeTimestamp.zero(tg2.edges).incremented([(2, 1)])
    benchmark(delivery_predicate, tg1, tau1, 2, tg2, remote)


def test_e13_local_write_speed(benchmark):
    """A local write (advance + message construction) on a 10-replica system."""
    graph = ShareGraph.from_placement(
        random_partial_placement(10, 20, replication_factor=3, seed=1)
    )
    replica = EdgeIndexedReplica(graph, 1)
    register = sorted(replica.registers)[0]
    benchmark(replica.write, register, "value")


def test_e13_end_to_end_throughput(benchmark):
    """A 300-operation workload on the Figure 5 system, end to end."""
    graph = ShareGraph.from_placement(figure5_placement())

    def run():
        cluster = Cluster(graph, delay_model=UniformDelay(1, 10), seed=3)
        return run_workload(cluster, uniform_workload(graph, 300, seed=3), check=False)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.messages_sent > 0


# ----------------------------------------------------------------------
# The indexed apply path vs the seed's fixpoint rescan (large buffers)
# ----------------------------------------------------------------------

#: ``REPRO_BENCH_TINY=1`` shrinks the backlog and drops the wall-clock
#: floors to "ran and didn't regress catastrophically" — the CI smoke mode
#: in which the gate *code* executes on every push while the meaningful
#: full-size ratios stay a local/nightly concern.
TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
CLIQUE_SIZE = 16 if TINY else 64


def _drain_time(base_receiver, method_name: str, repetitions: int = 3) -> float:
    """Best-of-N wall time to drain a pre-built pending backlog."""
    expected = base_receiver.pending_count()
    best = None
    for _ in range(repetitions):
        receiver = copy.deepcopy(base_receiver)
        started = time.perf_counter()
        applied = getattr(receiver, method_name)()
        elapsed = time.perf_counter() - started
        assert len(applied) == expected
        assert receiver.pending_count() == 0
        best = elapsed if best is None else min(best, elapsed)
    return best


def _clique_vector_backlog(writes_per_writer: int = 32):
    """63 independent writers on the 64-replica clique, delivered fully reversed.

    Full replication over a clique is the configuration under which the
    paper's timestamps compress to the classical length-R vector, so the
    clique workload runs the vector-clock protocol; every message except
    each writer's first is buffered behind the FIFO conjunct, building a
    ~2000-message pending backlog at the receiver.
    """
    graph = ShareGraph.from_placement(clique_placement(CLIQUE_SIZE))
    writers = {
        rid: FullReplicationReplica(graph, rid)
        for rid in graph.replica_ids
        if rid != 1
    }
    receiver = FullReplicationReplica(graph, 1)
    to_receiver = []
    for index in range(writes_per_writer):
        for rid, writer in writers.items():
            messages = writer.write("g", f"{rid}:{index}")
            to_receiver.append(next(m for m in messages if m.destination == 1))
    for message in reversed(to_receiver):
        receiver.receive(message)
    return receiver


def _clique_edge_indexed_chain_backlog(rounds: int = 2):
    """A cross-writer causal chain on the clique, edge-indexed timestamps.

    Writer ``k``'s round-``r`` update causally depends on round ``r`` of
    every writer before it, and the whole backlog is delivered in reverse
    chain order — the worst case for the rescan's repeated predicate
    evaluations.  Timestamps are synthesised directly (building the chain
    through 63 replicas' apply loops would dominate the benchmark).
    """
    from repro.core.protocol import Update, UpdateMessage

    graph = ShareGraph.from_placement(clique_placement(CLIQUE_SIZE))
    zero = EdgeTimestamp.zero(graph.edges)
    writers = sorted(rid for rid in graph.replica_ids if rid != 1)
    to_receiver = []
    for round_index in range(1, rounds + 1):
        for k in writers:
            counters = dict(zero.counters)
            for j in writers:
                known_round = round_index if j <= k else round_index - 1
                if known_round > 0:
                    for dest in graph.replica_ids:
                        if dest != j:
                            counters[(j, dest)] = known_round
            ts = EdgeTimestamp(counters)
            update = Update(issuer=k, seq=round_index, register="g",
                            value=f"{k}:{round_index}")
            to_receiver.append(
                UpdateMessage(update=update, sender=k, destination=1,
                              metadata=ts, metadata_size=ts.size_counters())
            )
    tgraph = TimestampGraph.from_edges(graph, 1, graph.edges)
    receiver = EdgeIndexedReplica(graph, 1, timestamp_graph=tgraph)
    for message in reversed(to_receiver):
        receiver.receive(message)
    return receiver


def test_e13_indexed_apply_vs_rescan_clique64(benchmark):
    """Acceptance: ≥2× over the seed rescan on the 64-replica clique backlog."""
    base = _clique_vector_backlog()

    def compare():
        indexed = _drain_time(base, "apply_ready")
        rescan = _drain_time(base, "apply_ready_rescan")
        return {"indexed_s": indexed, "rescan_s": rescan, "speedup": rescan / indexed}

    result = benchmark.pedantic(compare, rounds=1, iterations=1)
    print()
    print(
        f"[E13] clique{CLIQUE_SIZE} pending backlog ({base.pending_count()} msgs): "
        f"indexed {result['indexed_s'] * 1000:.1f} ms, "
        f"seed rescan {result['rescan_s'] * 1000:.1f} ms, "
        f"speedup {result['speedup']:.2f}x"
    )
    # The 2x floor is the acceptance criterion; measured headroom is ~11x.
    # Shared CI runners get a noise-tolerant floor so a scheduler preemption
    # during the ~100 ms indexed drain cannot fail an unrelated PR, and the
    # tiny smoke instance only proves the gate machinery runs.
    if TINY:
        floor = 1.0
    elif os.environ.get("GITHUB_ACTIONS"):
        floor = 1.2
    else:
        floor = 2.0
    write_bench_json(
        "indexed_apply",
        metric="speedup_vs_seed_rescan",
        value=result["speedup"],
        threshold=floor,
        indexed_ms=result["indexed_s"] * 1000,
        rescan_ms=result["rescan_s"] * 1000,
        backlog=base.pending_count(),
        clique=CLIQUE_SIZE,
    )
    assert result["speedup"] >= floor, (
        f"indexed apply path must be >={floor}x the seed rescan, got "
        f"{result['speedup']:.2f}x"
    )


def test_e13_indexed_apply_edge_chain_clique64(benchmark):
    """The paper's algorithm on the same clique: indexed path never slower."""
    base = _clique_edge_indexed_chain_backlog()

    def compare():
        indexed = _drain_time(base, "apply_ready")
        rescan = _drain_time(base, "apply_ready_rescan")
        return {"indexed_s": indexed, "rescan_s": rescan, "speedup": rescan / indexed}

    result = benchmark.pedantic(compare, rounds=1, iterations=1)
    print()
    print(
        f"[E13] clique{CLIQUE_SIZE} edge-indexed chain ({base.pending_count()} msgs): "
        f"indexed {result['indexed_s'] * 1000:.1f} ms, "
        f"seed rescan {result['rescan_s'] * 1000:.1f} ms, "
        f"speedup {result['speedup']:.2f}x"
    )
    # Here the per-apply merge dominates both paths, so the ratio hovers
    # near 1x; guard only against a catastrophic regression — shared CI
    # runners make tight wall-clock ratios on ~70 ms drains too noisy.
    assert result["speedup"] >= (0.3 if TINY else 0.5)


# ----------------------------------------------------------------------
# E19 — observability overhead: the tracing hooks on the end-to-end path
# ----------------------------------------------------------------------
#
# Every hook is an `if self.tracer is not None` guard on the host
# (`_note_issue` / `_apply_ready`) and the transport
# (`send` / `_flush_channel` / `record_delivery`).  The gate measures
# what turning the tracer on costs on that path.  That the *untraced* path
# does not get slower is the job of the sustained benchmark (`bench/`,
# compared against the parent commit on every PR), not of a copy of old
# code kept here.

def _obs_overhead_cluster(tracing: bool):
    """The E13 profile configuration, traced or not."""
    from repro.sim.engine import BatchingConfig

    graph = ShareGraph.from_placement(clique_placement(CLIQUE_SIZE))
    cluster = Cluster(
        graph,
        replica_factory=full_replication_factory,
        delay_model=UniformDelay(1, 10),
        seed=5,
        batching=BatchingConfig(max_messages=32, max_delay=8.0),
        wire_accounting=True,
    )
    if tracing:
        cluster.enable_tracing()
    return cluster


def _obs_overhead_time(tracing: bool, ops: int, repetitions: int = 5) -> float:
    """Best-of-N wall time of the end-to-end clique workload."""
    best = None
    for _ in range(repetitions):
        cluster = _obs_overhead_cluster(tracing)
        workload = uniform_workload(
            cluster.share_graph, ops, write_fraction=1.0, seed=5)
        started = time.perf_counter()
        run_workload(cluster, workload, interleave_steps=0, check=False)
        elapsed = time.perf_counter() - started
        assert cluster.metrics.applies > 0
        if tracing:
            assert cluster.tracer is not None and cluster.tracer.events
        else:
            assert cluster.tracer is None
        best = elapsed if best is None else min(best, elapsed)
    return best


def test_e19_observability_overhead(benchmark):
    """Acceptance: tracing on costs ≤2x tracing off, on the E13 path."""
    ops = 60 if TINY else 300

    def compare():
        disabled = _obs_overhead_time(False, ops)
        enabled = _obs_overhead_time(True, ops)
        return {
            "disabled_s": disabled,
            "enabled_s": enabled,
            "enabled_ratio": enabled / disabled,
        }

    result = benchmark.pedantic(compare, rounds=1, iterations=1)
    print()
    print(
        f"[E19] clique{CLIQUE_SIZE} end-to-end ({ops} writes): "
        f"tracing off {result['disabled_s'] * 1000:.1f} ms, "
        f"tracing on {result['enabled_s'] * 1000:.1f} ms "
        f"({result['enabled_ratio']:.2f}x of off)"
    )
    # Shared CI runners get slack for scheduler noise, and the tiny smoke
    # instance (fixed costs dominating a small run) only proves the gate
    # executes.
    if TINY:
        enabled_ceiling = 5.0
    elif os.environ.get("GITHUB_ACTIONS"):
        enabled_ceiling = 2.5
    else:
        enabled_ceiling = 2.0
    write_bench_json(
        "observability_overhead",
        metric="tracing_disabled_speed_vs_enabled",
        value=1.0 / result["enabled_ratio"],
        threshold=1.0 / enabled_ceiling,
        disabled_ms=result["disabled_s"] * 1000,
        enabled_ms=result["enabled_s"] * 1000,
        enabled_ratio=result["enabled_ratio"],
        enabled_ceiling=enabled_ceiling,
        ops=ops,
        clique=CLIQUE_SIZE,
    )
    assert result["enabled_ratio"] <= enabled_ceiling, (
        f"tracing-enabled run must stay within {enabled_ceiling}x of "
        f"tracing-disabled, got {result['enabled_ratio']:.2f}x"
    )
