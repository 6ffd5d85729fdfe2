"""Running the simulator workload from outside.

``sim_rand16_chaos`` drives the same ``core`` + ``wire`` code as the live
workloads through the *other* runtime — ``sim.engine``'s transport instead
of ``net.node`` — read-mostly and under faults: lossy links behind the
ack + resend layer, three crashes with resync, one partition.  Its counts
(messages, retransmissions, timestamp bytes) repeat exactly for one seed.

What each end-to-end metric means here:

* ``sat_ops_per_s`` / ``sat_cpu_us_per_op`` — workload operations per wall
  (CPU) second through ``run_open_loop(check=False)``: the simulator
  always runs flat out, so its throughput *is* its saturation throughput;
* ``vis_p50_ms`` (and per-layer ``vis_p99_ms``) — write issue → remote
  apply on the simulated clock (1 unit = 1 ms, the repository's
  convention), faults and retransmissions included;
* ``node_rss_mb`` — this process's peak resident set.

Per-layer only: ``op_p50_ms`` / ``op_p99_ms`` — wall time of one
synchronous ``Cluster.submit_operation`` call, the latency a caller of the
simulator API sees, timed on the drained cluster after the run.
"""

from __future__ import annotations

import gc
import resource
import time
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.share_graph import ShareGraph
from repro.sim.cluster import Cluster
from repro.sim.delays import LossyDelay, UniformDelay
from repro.sim.engine import BatchingConfig, ReliabilityConfig
from repro.sim.faults import FaultInjector, FaultSchedule, random_fault_schedule
from repro.sim.workloads import OpenLoopWorkload, TimedOperation, run_open_loop

from . import checks
from .metrics import Pass
from .stats import Reduced, percentile, segment_edges, segment_percentile, split_by_time
from .workloads import VERIFY_OPS, SimWorkload, timed_arrivals

#: ``run_until_quiescent`` stops at a million kernel events; the run is
#: sized to stay under it (about 1.6 events per operation).
MAX_OPS = 500_000
#: Synchronous calls timed for ``op_*`` per second of budget (traced pass).
CALLS_PER_BUDGET_SECOND = 6000
#: Calls between (untimed) drains of the kernel in the timed-call pass.
CALLS_PER_DRAIN = 64
#: Equal slices of *simulated* time the run is clocked over.  Finer than a
#: live phase's: the simulator's heap grows all run long, full collector
#: passes stall it for whole tenths of a second, and only a fine cut keeps
#: most segments free of one.
SEGMENTS = 20
CRASHES = 3
#: Length of each crash's downtime and of the partition, as shares of the
#: schedule.  Together the faults delay under half a percent of remote
#: applies, so ``vis_p99_ms`` sits in the (seed-steady) retransmission
#: tail the 2% link loss makes, not in whichever fault a seed drew.
DOWNTIME_SHARE = 0.01
PARTITION_SHARE = 0.005


def build(workload: SimWorkload, graph: ShareGraph, seed: int,
          tracing: bool = False) -> Tuple[Cluster, float]:
    """Construct the cluster (every replica's timestamp graph) and attach
    the fault machinery.  ``setup_s`` is the ``Cluster(...)`` build."""
    started = time.perf_counter()
    cluster = Cluster(
        graph,
        delay_model=LossyDelay(inner=UniformDelay(1.0, 10.0), drop_probability=0.02),
        seed=seed,
        batching=BatchingConfig(16, 2.0, delta_encoding=True),
        wire_accounting=True,
    )
    setup_s = time.perf_counter() - started
    FaultInjector(cluster, reliability=ReliabilityConfig(resend_timeout=25.0, max_retries=12))
    if tracing:
        cluster.enable_tracing()
    return cluster, setup_s


def chaos(graph: ShareGraph, duration: float, seed: int) -> FaultSchedule:
    """Seeded faults scaled to the schedule: three crashes, one partition."""
    return random_fault_schedule(
        sorted(graph.replica_ids), duration, crashes=CRASHES,
        downtime=DOWNTIME_SHARE * duration, partition_at=0.8 * duration,
        partition_duration=PARTITION_SHARE * duration, seed=seed,
    )


def avoid_downtime(arrivals: Sequence[TimedOperation],
                   schedule: FaultSchedule) -> List[TimedOperation]:
    """Drop arrivals addressed to a replica while it is scheduled down.

    A crashed replica rejects client operations by design; clients that
    know a replica is down do not send to it.  Removing those arrivals up
    front makes every *attempted* operation one that must succeed, so a
    single rejection is a failure, not expected background.
    """
    down: Dict[Any, List[Tuple[float, float]]] = {}
    crashed_at: Dict[Any, float] = {}
    for action in schedule.actions:
        if action.kind == "crash":
            crashed_at[action.replica_id] = action.time
        elif action.kind == "restart":
            down.setdefault(action.replica_id, []).append(
                (crashed_at.pop(action.replica_id), action.time))
    return [
        arrival for arrival in arrivals
        if not any(start <= arrival.time <= end
                   for start, end in down.get(arrival.operation.replica_id, ()))
    ]


def scheduled(workload: SimWorkload, graph: ShareGraph, count: int, seed: int,
              extra: int = 0) -> Tuple[List[TimedOperation], FaultSchedule, List[Any]]:
    """``count`` arrivals with the faults scaled to them, downtime avoided,
    and the ``extra`` operations that follow them in the seeded schedule."""
    pool = timed_arrivals(graph, count + extra, workload.write_fraction, seed,
                          workload.sim_rate)
    schedule = chaos(graph, pool[count - 1].time, seed)
    return (avoid_downtime(pool[:count], schedule), schedule,
            [arrival.operation for arrival in pool[count:]])


def _last_written(operations: Sequence[Any]) -> Dict[Any, Any]:
    out: Dict[Any, Any] = {}
    for operation in operations:
        if operation.kind == "write":
            out[operation.register] = operation.value
    return out


def linear_checks(graph: ShareGraph, cluster: Cluster,
                  operations: Sequence[Any]) -> List[str]:
    violations = []
    if cluster.pending_updates():
        violations.append(f"{cluster.pending_updates()} updates still pending after the drain")
    final_state = {
        register: cluster.values(register)
        for register in graph.placement.registers
    }
    return violations + checks.check_run(
        graph, cluster.events_by_replica(), final_state, _last_written(operations))


def measured_pass(workload: SimWorkload, graph: ShareGraph, seed: int,
                  ops: int, calls: int, tracing: bool = False) -> Pass:
    """Build, run the chaos schedule flat out, time synchronous calls, check."""
    outcome = Pass()
    arrivals, schedule, call_ops = scheduled(
        workload, graph, min(ops, MAX_OPS), seed, extra=calls)
    cluster, outcome.setup_s = build(workload, graph, seed, tracing=tracing)
    cluster.fault_injector.install(schedule)
    # The schedule is input, not the program's garbage: keep the collector
    # from re-walking it on every full pass.
    gc.collect()
    gc.freeze()

    # Wall and CPU clocks read at equal steps of *simulated* time, through
    # the public timer hook: segment throughputs without touching the loop.
    edges = segment_edges(0.0, arrivals[-1].time, SEGMENTS)
    clock: List[Tuple[float, float]] = []

    def mark(_host: Any, _time: float) -> None:
        clock.append((time.perf_counter(), time.process_time()))

    for edge in edges[1:]:
        cluster.schedule_timer(edge, mark, tag="bench-segment")
    clock.append((time.perf_counter(), time.process_time()))
    result = run_open_loop(cluster, OpenLoopWorkload("bench", tuple(arrivals)), check=False)
    finished = time.perf_counter()
    finished_cpu = time.process_time()

    per_segment = [len(bucket) for bucket in split_by_time(
        [(arrival.time, 1.0) for arrival in arrivals[:-1]], edges)]
    per_segment[-1] += 1  # the last arrival sits on the closing edge
    # End to end, the whole call counts: scheduling the arrivals, the run,
    # the drain, every collector pause.  The segment median — the kernel's
    # pace between pauses — is the per-layer figure beside it.
    wall, cpu = finished - clock[0][0], finished_cpu - clock[0][1]
    rates = Reduced.of(
        [per_segment[k] / (clock[k + 1][0] - clock[k][0]) for k in range(SEGMENTS)],
        samples=min(per_segment))
    costs = Reduced.of(
        [(clock[k + 1][1] - clock[k][1]) * 1e6 / per_segment[k] for k in range(SEGMENTS)])
    outcome.metrics["sat_ops_per_s"] = Reduced(
        len(arrivals) / wall, rates.q1, rates.q3, samples=len(arrivals), segments=SEGMENTS)
    outcome.metrics["sat_cpu_us_per_op"] = Reduced(
        cpu * 1e6 / len(arrivals), costs.q1, costs.q3, samples=len(arrivals), segments=SEGMENTS)
    outcome.metrics["sim.engine.steady_ops_per_s"] = rates
    outcome.metrics["sim.engine.us_per_event"] = Reduced.exact(
        wall * 1e6 / result.steps, samples=result.steps)
    outcome.metrics["sim.engine.events_per_op"] = Reduced.exact(
        result.steps / len(arrivals), samples=len(arrivals))

    visibility = cluster.metrics.apply_latencies
    outcome.metrics["vis_p50_ms"] = Reduced.exact(percentile(visibility, 0.50), len(visibility))
    outcome.metrics["vis_p99_ms"] = Reduced.exact(percentile(visibility, 0.99), len(visibility))

    # Synchronous calls on the drained cluster, one perf_counter pair each.
    rejected_before = cluster.metrics.rejected_operations
    stamped = []
    for index, operation in enumerate(call_ops):
        started = time.perf_counter()
        cluster.submit_operation(operation)
        stamped.append((float(index), (time.perf_counter() - started) * 1e3))
        if index % CALLS_PER_DRAIN == CALLS_PER_DRAIN - 1:
            cluster.run_until_quiescent()
    cluster.run_until_quiescent()
    if call_ops:
        buckets = split_by_time(stamped, segment_edges(0.0, float(len(call_ops)), SEGMENTS))
        outcome.metrics["op_p50_ms"] = segment_percentile(buckets, 0.50)
        outcome.metrics["op_p99_ms"] = segment_percentile(buckets, 0.99)

    outcome.attempted = len(arrivals) + len(call_ops)
    outcome.failed = cluster.metrics.rejected_operations
    if rejected_before:
        outcome.violations.append(
            f"{rejected_before} scheduled operations rejected (none may be: "
            "arrivals avoid scheduled downtime)")
    outcome.violations += linear_checks(
        graph, cluster, [a.operation for a in arrivals] + call_ops)
    outcome.metrics.update(counter_metrics(cluster, outcome))
    if tracing:
        outcome.trace_events = list(cluster.tracer.events)
    return outcome


def counter_metrics(cluster: Cluster, outcome: Pass) -> Dict[str, Reduced]:
    """Exact counts out of ``NetworkStats`` (wire accounting on)."""
    stats = cluster.network.stats
    messages = max(sum(book.messages for book in stats.per_channel.values()), 1)
    frames_total = max(stats.delta_frames_sent + stats.full_frames_sent, 1)
    values = {
        "ts_bytes_per_msg": stats.timestamp_bytes_sent / messages,
        "wire.ts_bytes_full_per_msg": stats.timestamp_bytes_full / messages,
        "wire.header_bytes_per_msg": stats.header_bytes_sent / messages,
        "wire.payload_bytes_per_msg": stats.payload_bytes_sent / messages,
        "wire.delta_frame_share": stats.delta_frames_sent / frames_total,
        "sim.engine.retransmissions": stats.retransmissions,
        "sim.engine.messages_sent": stats.messages_sent,
        "sim.engine.batch_fill": stats.batched_messages_sent / max(stats.batches_sent, 1),
        "failed_op_share": outcome.failed / max(outcome.attempted, 1),
        "node_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: Reduced.exact(float(value)) for name, value in values.items()}


def verify_pass(workload: SimWorkload, graph: ShareGraph,
                seed: int) -> Tuple[float, float, List[str]]:
    """The first ``VERIFY_OPS`` arrivals on a fresh cluster under scaled
    faults, judged by the full checker.  Returns ``(setup_s, check_s,
    violations)``."""
    arrivals, schedule, _ = scheduled(workload, graph, VERIFY_OPS, seed)
    cluster, setup_s = build(workload, graph, seed)
    cluster.fault_injector.install(schedule)
    run_open_loop(cluster, OpenLoopWorkload("verify", tuple(arrivals)), check=False)
    started = time.perf_counter()
    report = cluster.check_consistency()
    check_s = time.perf_counter() - started
    violations = []
    if not report.is_causally_consistent:
        violations.append(
            f"verify pass: {len(report.safety_violations)} safety and "
            f"{len(report.liveness_violations)} liveness violations")
    if cluster.metrics.rejected_operations:
        violations.append(
            f"verify pass: {cluster.metrics.rejected_operations} operations rejected")
    violations += linear_checks(graph, cluster, [a.operation for a in arrivals])
    return setup_s, check_s, violations


def bare_build(workload: SimWorkload, graph: ShareGraph, seed: int) -> float:
    return build(workload, graph, seed)[1]
