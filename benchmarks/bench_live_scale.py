"""E20 — Scale-out: 512 replicas on 8 multi-tenant nodes.

The acceptance run for the multi-tenant live runtime: the Figure 13 ring
at 512 replicas, co-hosted 64-per-node on 8 OS processes behind one
listener each.  Contiguous placement keeps ring neighbours on the same
node, so almost every channel short-circuits through the in-process
batch-apply path; only the 8 node-boundary edges ride TCP — and those
ride *multiplexed host-pair streams*, so the socket count is bounded by
ordered host pairs, not by the 1,024 directed channels of the share
graph.

Three gates:

* the run **completes and is causally consistent** — the same checker
  that validates the 8-replica clique validates the 512-replica ring;
* the **process count** stays at 8 and the **transport footprint** is
  O(hosts²), strictly below the directed-edge count O(|E|) that the
  connection-per-edge transport would have needed;
* cluster-wide **delivered ops/sec** is recorded (``BENCH_live_scale.json``).

Set ``REPRO_BENCH_TINY=1`` for the CI smoke instance (8 replicas on
2 nodes — the live-smoke matrix cell): the gate code always executes.
"""

from __future__ import annotations

import os

from conftest import run_once, write_bench_json

from repro.core.share_graph import ShareGraph
from repro.net import LiveCluster
from repro.net.client import OpenLoopClient
from repro.sim.topologies import ring_placement
from repro.sim.workloads import single_writer_workload

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
REPLICAS = 8 if TINY else 512
NODES = 2 if TINY else 8
#: Open-loop arrivals ≈ rate × duration; time_scale=0 fires them as fast
#: as the control links accept, so the schedule sets the mix, not the pacing.
RATE = 4.0 if TINY else 20.0
DURATION = 30.0 if TINY else 75.0


def _scale_run():
    graph = ShareGraph.from_placement(ring_placement(REPLICAS))
    workload = single_writer_workload(
        graph, rate=RATE, duration=DURATION, write_fraction=0.6, seed=20
    )
    # Diskless: this bench measures placement + transport;
    # the SIGKILL/restart path owns durability (tests/test_net_live.py).
    with LiveCluster(graph, nodes=NODES) as cluster:
        outcome = OpenLoopClient(cluster).run(workload, time_scale=0.0)
        cluster.drain(timeout=120.0)
        result = cluster.collect(
            operation_latencies=outcome.latencies,
            rejected_operations=outcome.rejected,
        )
        result.wall_duration = max(result.metrics.apply_times, default=0.0) - min(
            result.metrics.operation_times, default=0.0)
    return workload, outcome, result


def test_e20_live_scale_out(benchmark):
    """Acceptance: 512 consistent replicas on 8 processes, O(hosts²) sockets."""
    workload, outcome, result = run_once(benchmark, _scale_run)

    report = result.check_consistency()
    latency = result.operation_latency_summary()
    ops_per_sec = result.delivered_ops_per_sec

    hosts = len(result.node_reports)
    host_pairs = hosts * (hosts - 1)
    directed_edges = len(result.share_graph.edges)
    outbound = sum(
        node["transport"]["open_streams"]
        for node in result.node_reports.values()
    )
    print()
    print(f"E20: live {REPLICAS}-replica ring on {hosts} multi-tenant nodes")
    print(f"  arrivals          {len(workload)} "
          f"({workload.write_count} writes / {workload.read_count} reads)")
    print(f"  completed/rejected {outcome.completed}/{outcome.rejected}")
    print(f"  remote applies    {result.metrics.applies}")
    print(f"  wall duration     {result.wall_duration:.3f}s")
    print(f"  delivered ops/sec {ops_per_sec:,.0f}")
    print(f"  op latency p50    {latency.p50 * 1000:.2f} ms")
    print(f"  op latency p99    {latency.p99 * 1000:.2f} ms")
    print(f"  directed channels {directed_edges}")
    print(f"  outbound streams  {outbound} (host-pair budget {host_pairs})")
    print(f"  open connections  {result.open_connections()}")
    print(f"  consistency       "
          f"{'OK' if report.is_causally_consistent else 'VIOLATED'}")

    # Gate 1: the run completed — every operation answered, none rejected.
    assert outcome.ok and outcome.rejected == 0
    # Gate 2: the 512-replica live execution is causally consistent and
    # converged (single writer ⇒ a unique final value per register).
    assert report.is_causally_consistent, (
        f"safety: {report.safety_violations[:3]}, "
        f"liveness: {report.liveness_violations[:3]}"
    )
    for register, values in result.final_state().items():
        assert len(set(values.values())) == 1, (
            f"register {register} diverged: {values}"
        )
    # Gate 3: scale-out shape.  At most 8 OS processes host the cluster,
    # and the socket count is bounded by ordered host pairs — NOT by the
    # share graph's directed edge count, which is strictly larger.
    assert hosts <= 8 and REPLICAS / hosts >= 4
    assert outbound <= host_pairs, (
        f"{outbound} outbound streams exceed the {host_pairs} ordered "
        f"host pairs — a channel leaked past the multiplexer"
    )
    # Outbound + inbound + one control socket per node: still O(hosts²),
    # and far below what connection-per-edge would open.
    connection_budget = 2 * host_pairs + hosts
    assert result.open_connections() <= connection_budget < directed_edges

    assert result.metrics.applies > 0 and ops_per_sec > 0
    assert latency.count == outcome.completed and latency.p99 > 0
    write_bench_json(
        "live_scale",
        metric="delivered_ops_per_sec",
        value=ops_per_sec,
        threshold=None,
        unit="ops/s",
        replicas=REPLICAS,
        nodes=hosts,
        directed_edges=directed_edges,
        outbound_streams=outbound,
        open_connections=result.open_connections(),
        applies=result.metrics.applies,
        wall_duration_s=result.wall_duration,
        latency_p50_ms=latency.p50 * 1000,
        latency_p99_ms=latency.p99 * 1000,
    )
