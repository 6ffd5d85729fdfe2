"""Running a live workload from outside: boot, paced, saturated, recover, check.

Load shape (every live workload): two multi-tenant node processes
(``LiveCluster(graph, nodes=2)``, four replicas each, loopback TCP, **no
injected delay** — latency here is processor time, not a network's) and
the single-threaded :class:`~bench.loadgen.LoadGenerator` holding one
connection per node.  One boot serves two measured phases:

* ``paced`` — open loop at :data:`~bench.workloads.PACED_RATE` ops/s;
  latencies are timed from each operation's due instant;
* ``sat`` — closed loop, 32 operations in flight per connection.

Everything is observed through public surface: ``LiveCluster`` itself,
its ``collect()`` reports, ``/proc`` for the node processes, and (traced
pass only) the existing ``tracing=True`` flag.
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.share_graph import ShareGraph
from repro.net import frames
from repro.net.runtime import LiveCluster, LiveRunResult

from . import checks, procstat
from .loadgen import LoadGenerator, PhaseLog
from .metrics import Pass
from .stats import Reduced, segment_edges, segment_percentile, split_by_time
from .workloads import (
    INFLIGHT_PER_CONNECTION,
    NODES,
    PACED_RATE,
    SEGMENTS,
    VERIFY_OPS,
    LiveWorkload,
    Plan,
)

#: SIGKILL → restart → drain cycles after a durable workload's traffic.
RECOVERY_CYCLES = 3


def replica_nodes(placement: Dict[Any, Sequence[Any]]) -> Dict[Any, Any]:
    """``replica id -> hosting node id``, the inverse of a placement."""
    return {rid: node_id for node_id, rids in placement.items() for rid in rids}


class Boot:
    """One ``LiveCluster`` from constructor to ``stop()``, stderr captured.

    ``setup_s`` is construct → ready to serve: process spawn, every
    tenant's timestamp-graph build, control connections, address map.
    """

    def __init__(self, workload: LiveWorkload, graph: ShareGraph,
                 out_dir: str, tag: str, tracing: bool = False) -> None:
        self.stderr_path = os.path.join(out_dir, "stderr.log")
        self.durable_dir = (
            os.path.join(out_dir, f"wal-{tag}") if workload.durable else None
        )
        started = time.perf_counter()
        self.cluster = LiveCluster(
            graph, nodes=NODES, durable_dir=self.durable_dir, tracing=tracing,
        )
        try:
            with procstat.child_stderr_to(self.stderr_path):
                self.cluster.start()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started
        self.replica_node = replica_nodes(self.cluster.placement)

    def restart(self, node_id: Any) -> None:
        with procstat.child_stderr_to(self.stderr_path):
            self.cluster.restart(node_id)

    def generator(self) -> LoadGenerator:
        return LoadGenerator(self.cluster.addresses, self.replica_node)

    def close(self) -> None:
        self.cluster.stop()
        if self.durable_dir is not None:
            shutil.rmtree(self.durable_dir, ignore_errors=True)

    def __enter__(self) -> "Boot":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------

def _ms(reduced: Optional[Reduced]) -> Optional[Reduced]:
    if reduced is None:
        return None
    return Reduced(reduced.value * 1e3, reduced.q1 * 1e3, reduced.q3 * 1e3,
                   reduced.samples, reduced.segments)


def paced_metrics(log: PhaseLog) -> Dict[str, Optional[Reduced]]:
    """Due-time → reply latency and generator lateness of the paced phase.

    A failed operation misses any latency limit: it enters its segment as
    an infinite latency, so it moves the percentiles it should move.
    """
    edges = segment_edges(*log.window, SEGMENTS)
    latency, lateness = [], []
    for k in log.measured():
        due = log.due[k]
        ok = log.done[k] is not None and log.status[k] == frames.OP_OK
        latency.append((due, log.done[k] - due if ok else float("inf")))
        lateness.append((due, log.sent[k] - due))
    latency_buckets = split_by_time(latency, edges)
    return {
        "op_p50_ms": _ms(segment_percentile(latency_buckets, 0.50)),
        "op_p99_ms": _ms(segment_percentile(latency_buckets, 0.99)),
        "net.client.lateness_p99_ms": _ms(
            segment_percentile(split_by_time(lateness, edges), 0.99)
        ),
    }


def sat_metrics(log: PhaseLog, cpu_marks: Sequence[float]) -> Dict[str, Optional[Reduced]]:
    """Completions per second and node CPU per completion over ``sat``.

    The value is the whole window's — completions over its length, CPU
    over completions — not the median of segments: with a write-ahead
    log about half the segments hold a checkpoint, a median flips between
    the two kinds run to run (or, cut finer, hides the checkpoints
    altogether), and the window's own ratio is both the plain meaning and
    the steadier number.  The segment quartiles are reported beside it.
    ``cpu_marks`` are the node processes' summed CPU seconds sampled at
    the ``SEGMENTS + 1`` segment edges.
    """
    edges = segment_edges(*log.window, SEGMENTS)
    width = edges[1] - edges[0]
    completions = split_by_time(
        [(done, 1.0) for done, status in zip(log.done, log.status)
         if done is not None and status == frames.OP_OK],
        edges,
    )
    counts = [len(bucket) for bucket in completions]
    total = sum(counts)
    if not total:
        return {"sat_ops_per_s": None, "sat_cpu_us_per_op": None}
    rates = Reduced.of([count / width for count in counts])
    out: Dict[str, Optional[Reduced]] = {
        "sat_ops_per_s": Reduced(total / (edges[-1] - edges[0]), rates.q1, rates.q3,
                                 samples=total, segments=SEGMENTS),
    }
    if len(cpu_marks) == SEGMENTS + 1 and all(counts):
        costs = Reduced.of([(cpu_marks[k + 1] - cpu_marks[k]) * 1e6 / counts[k]
                            for k in range(SEGMENTS)])
        out["sat_cpu_us_per_op"] = Reduced(
            (cpu_marks[-1] - cpu_marks[0]) * 1e6 / total, costs.q1, costs.q3,
            samples=total, segments=SEGMENTS)
    else:
        out["sat_cpu_us_per_op"] = None
    return out


def visibility_metrics(result: LiveRunResult, replica_node: Dict[Any, Any],
                       window: Tuple[float, float]) -> Dict[str, Optional[Reduced]]:
    """Write issue → apply at a replica on the *other* node.

    ``window`` is in the cluster's clock (seconds since its origin); only
    writes issued inside it count, bucketed by issue time.
    """
    issue_times: Dict[Any, float] = {}
    for report in result.reports.values():
        issue_times.update(report["issue_times"])
    samples = []
    for replica_id, report in result.reports.items():
        here = replica_node[replica_id]
        for uid, applied_at in report["apply_times"].items():
            if replica_node[uid[0]] == here:
                continue
            issued_at = issue_times.get(uid)
            if issued_at is not None:
                samples.append((issued_at, applied_at - issued_at))
    buckets = split_by_time(samples, segment_edges(*window, SEGMENTS))
    return {
        "vis_p50_ms": _ms(segment_percentile(buckets, 0.50)),
        "vis_p99_ms": _ms(segment_percentile(buckets, 0.99)),
    }


def report_counters(result: LiveRunResult) -> Dict[str, float]:
    """Whole-run counts out of the node and replica reports."""
    totals = {name: 0 for name in (
        "ops_done", "issued", "sent", "duplicates", "retransmissions",
        "delta_frames", "full_frames",
    )}
    for report in result.reports.values():
        for name in totals:
            totals[name] += report["counters"].get(name, 0)
    books = result.channel_wire_stats().values()
    totals["wire_messages"] = sum(book.messages for book in books)
    totals["wire_batches"] = sum(book.batches for book in books)
    totals["header_bytes"] = sum(book.header_bytes for book in books)
    totals["timestamp_bytes"] = sum(book.timestamp_bytes for book in books)
    totals["payload_bytes"] = sum(book.payload_bytes for book in books)
    transports = [r.get("transport", {}) for r in result.node_reports.values()]
    totals["wal_records"] = sum(t.get("wal_records", 0) for t in transports)
    totals["wal_compactions"] = sum(t.get("wal_compactions", 0) for t in transports)
    totals["max_pending"] = max(result.metrics.max_pending.values(), default=0)
    return totals


def counter_metrics(totals: Dict[str, float]) -> Dict[str, Reduced]:
    """The per-layer ratios the counters support (whole run, both phases)."""
    ops = max(totals["ops_done"], 1)
    sent = max(totals["sent"], 1)
    wire_messages = max(totals["wire_messages"], 1)
    frames_total = max(totals["delta_frames"] + totals["full_frames"], 1)
    values = {
        "ts_bytes_per_msg": totals["timestamp_bytes"] / wire_messages,
        "wire.header_bytes_per_msg": totals["header_bytes"] / wire_messages,
        "wire.payload_bytes_per_msg": totals["payload_bytes"] / wire_messages,
        "wire.delta_frame_share": totals["delta_frames"] / frames_total,
        "net.node.msgs_per_op": totals["sent"] / ops,
        "net.node.batch_fill": totals["wire_messages"] / max(totals["wire_batches"], 1),
        "net.node.intra_node_msg_share": 1.0 - totals["wire_messages"] / sent,
        "net.node.max_pending": totals["max_pending"],
        "net.node.retransmissions": totals["retransmissions"],
        "net.node.duplicates": totals["duplicates"],
        "net.wal.records_per_op": totals["wal_records"] / ops,
        "net.wal.compactions": totals["wal_compactions"],
    }
    return {name: Reduced.exact(float(value)) for name, value in values.items()}


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def linear_checks(graph: ShareGraph, result: LiveRunResult,
                  last_written: Dict[Any, Any]) -> List[str]:
    return checks.check_run(
        graph, result.events_by_replica(), result.final_state(),
        last_written, result.channel_streams(),
    )


def settled(cluster: LiveCluster) -> List[str]:
    """No retransmit give-up: after the drain nothing is queued or unacked."""
    violations = []
    for node_id, (stats, _, _) in cluster.poll_stats().items():
        if stats.unacked or stats.send_queue or stats.pending:
            violations.append(
                f"node {node_id!r} ended with {stats.unacked} unacked, "
                f"{stats.send_queue} queued, {stats.pending} pending"
            )
    return violations


def durable_state(result: LiveRunResult) -> Dict[str, Any]:
    """What a recovery must reproduce: stores, applied sets, streams."""
    _, applied = checks.index_events(result.events_by_replica())
    return {
        "final_state": result.final_state(),
        "applied": applied,
        "streams": result.channel_streams(),
    }


def recovery_cycles(boot: Boot, before: LiveRunResult
                    ) -> Tuple[List[float], List[str], LiveRunResult]:
    """SIGKILL → ``restart`` → ``drain`` on alternating nodes.

    Process-crash durability, not power-loss: SIGKILL leaves the OS page
    cache intact and ``ReplicaWAL.append`` flushes without fsync.  Each
    recovery time runs from the ``restart()`` call to the cluster drained.
    The state collected after the last cycle must equal the state before
    the first kill — no acknowledged write missing, none invented.
    """
    cluster = boot.cluster
    node_ids = sorted(cluster.placement, key=str)
    times = []
    for cycle in range(RECOVERY_CYCLES):
        node_id = node_ids[cycle % len(node_ids)]
        cluster.kill(node_id)
        started = time.perf_counter()
        boot.restart(node_id)
        cluster.drain(timeout=60.0)
        times.append(time.perf_counter() - started)
    after = cluster.collect()
    violations = []
    want, got = durable_state(before), durable_state(after)
    for part in want:
        if want[part] != got[part]:
            violations.append(f"{part} differs between pre-kill and post-recovery state")
    return times, violations, after


def durable_bytes(directory: str) -> int:
    """Bytes of checkpoints and logs the cluster holds on disk."""
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
    )


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------

def measured_pass(workload: LiveWorkload, graph: ShareGraph, pool: Sequence[Any],
                  plan: Plan, out_dir: str, tag: str,
                  tracing: bool = False) -> Pass:
    """Boot once; run ``paced`` then ``sat``; drain, collect, recover, check.

    The traced repeat skips the recovery cycles: it exists for the stage
    breakdown and the tracing overhead, and recovery is not traced.
    """
    outcome = Pass()
    with Boot(workload, graph, out_dir, tag, tracing=tracing) as boot:
        outcome.setup_s = boot.setup_s
        cluster = boot.cluster
        pids = procstat.node_pids()
        cpu_marks: List[float] = []
        with boot.generator() as generator:
            # No collector pauses in the generator while it is timing.
            gc.disable()
            try:
                paced, used = generator.run_paced(
                    pool, 0, PACED_RATE, plan.warmup_s, plan.paced_s)
                # Peak memory after a fixed amount of work (boot plus the
                # paced phase's operations): taken after ``sat`` it would
                # grow with throughput and punish every speed-up.
                rss_mb = procstat.peak_rss_mb(pids)
                sat = generator.run_closed(
                    pool, used, INFLIGHT_PER_CONNECTION, plan.warmup_s, plan.sat_s,
                    marks=[plan.sat_s * k / SEGMENTS for k in range(SEGMENTS + 1)],
                    on_mark=lambda _: cpu_marks.append(procstat.cpu_seconds(pids)),
                )
            finally:
                gc.enable()
            last_written = dict(generator.last_written)
        cluster.drain(timeout=120.0)
        outcome.violations += settled(cluster)
        result = cluster.collect()
        totals = outcome.counters = report_counters(result)
        wal_bytes = durable_bytes(boot.durable_dir) if workload.durable else 0
        if workload.durable and not tracing:
            times, violations, result = recovery_cycles(boot, result)
            outcome.violations += violations
            outcome.metrics["recovery_s"] = Reduced.of(times, samples=len(times))
        outcome.violations += linear_checks(graph, result, last_written)
        if tracing:
            outcome.trace_events = result.trace_events()

    measured = paced.measured()
    sat_sent = len(sat.due)
    outcome.attempted = len(measured) + sat_sent
    outcome.failed = paced.failed(measured) + sat.failed(range(sat_sent))
    origin = cluster.clock_origin
    paced_window = (paced.window[0] + paced.wall_offset - origin,
                    paced.window[1] + paced.wall_offset - origin)
    found: Dict[str, Optional[Reduced]] = {}
    found.update(paced_metrics(paced))
    found.update(sat_metrics(sat, cpu_marks))
    found.update(visibility_metrics(result, boot.replica_node, paced_window))
    found.update(counter_metrics(totals))
    found["node_rss_mb"] = Reduced.exact(rss_mb)
    found["failed_op_share"] = Reduced.exact(
        outcome.failed / max(outcome.attempted, 1), samples=outcome.attempted)
    found["net.node.stderr_lines"] = Reduced.exact(
        float(procstat.count_lines(boot.stderr_path)))
    if workload.durable:
        found["net.wal.bytes_per_op"] = Reduced.exact(
            wal_bytes / max(totals["ops_done"], 1))
    for name, value in found.items():
        if value is None:
            outcome.violations.append(f"metric {name} has no samples")
        else:
            outcome.metrics[name] = value
    return outcome


def verify_pass(workload: LiveWorkload, graph: ShareGraph, pool: Sequence[Any],
                out_dir: str) -> Tuple[float, float, List[str]]:
    """The first ``VERIFY_OPS`` arrivals on a fresh cluster, fully checked.

    Returns ``(setup_s, seconds the full checker took, violations)``.
    """
    with Boot(workload, graph, out_dir, "verify") as boot:
        with boot.generator() as generator:
            generator.run_closed(pool[:VERIFY_OPS], 0, INFLIGHT_PER_CONNECTION)
            last_written = dict(generator.last_written)
        boot.cluster.drain(timeout=60.0)
        violations = settled(boot.cluster)
        result = boot.cluster.collect()
    started = time.perf_counter()
    report = result.check_consistency()
    check_s = time.perf_counter() - started
    if not report.is_causally_consistent:
        violations.append(
            f"verify pass: {len(report.safety_violations)} safety and "
            f"{len(report.liveness_violations)} liveness violations, first: "
            f"{(list(report.safety_violations) + list(report.liveness_violations))[:2]}"
        )
    violations += linear_checks(graph, result, last_written)
    return boot.setup_s, check_s, violations


def bare_boot(workload: LiveWorkload, graph: ShareGraph, out_dir: str) -> float:
    """Boot and stop: one more ``setup_s`` sample."""
    with Boot(workload, graph, out_dir, "boot") as boot:
        return boot.setup_s
