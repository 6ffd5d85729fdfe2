"""Every metric the benchmark emits: name, unit, direction, bound.

``BENCHMARK.json`` carries the same tables (a test holds the two equal);
this module is what ``run.py`` reads to label and filter what it prints.
Every workload emits every metric: a per-layer metric with no meaning on
a workload (``net.wal.*`` on a diskless one, ``sim.engine.*`` on a live
one) reads 0 there.  End-to-end metrics have a meaning, stated in
README.md, on all four.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from .stats import Reduced

#: name -> (unit, better, regression bound as a share of the parent's median)
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "sat_ops_per_s": ("1/s", "higher", 0.25),
    "sat_cpu_us_per_op": ("us", "lower", 0.25),
    "vis_p50_ms": ("ms", "lower", 0.15),
    "ts_bytes_per_msg": ("B", "lower", 0.25),
    "node_rss_mb": ("MiB", "lower", 0.10),
}

#: name -> (unit, better)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "core.loops.tsgraph_build_ms": ("ms", "lower"),
    "core.issue_us_per_write": ("us", "lower"),
    "core.apply_us_per_msg": ("us", "lower"),
    "core.consistency.check_s": ("s", "lower"),
    "wire.encode_us_per_msg": ("us", "lower"),
    "wire.decode_us_per_msg": ("us", "lower"),
    "wire.ts_bytes_full_per_msg": ("B", "lower"),
    "wire.header_bytes_per_msg": ("B", "lower"),
    "wire.payload_bytes_per_msg": ("B", "lower"),
    "wire.delta_frame_share": ("ratio", "higher"),
    "net.framing.encode_us_per_frame": ("us", "lower"),
    "net.framing.decode_us_per_frame": ("us", "lower"),
    "net.frames.opcodec_us_per_op": ("us", "lower"),
    "net.wal.append_us_per_record": ("us", "lower"),
    "net.wal.checkpoint_ms": ("ms", "lower"),
    "net.wal.load_ms": ("ms", "lower"),
    "net.wal.records_per_op": ("count", "lower"),
    "net.wal.bytes_per_op": ("B", "lower"),
    "net.wal.compactions": ("count", "lower"),
    "net.node.msgs_per_op": ("count", "lower"),
    "net.node.batch_fill": ("count", "higher"),
    "net.node.intra_node_msg_share": ("ratio", "higher"),
    "net.node.max_pending": ("count", "lower"),
    "net.node.retransmissions": ("count", "lower"),
    "net.node.duplicates": ("count", "lower"),
    "net.node.residual_us_per_op": ("us", "lower"),
    "net.node.stderr_lines": ("count", "lower"),
    "net.client.lateness_p99_ms": ("ms", "lower"),
    "obs.stage.issue_send_p50_ms": ("ms", "lower"),
    "obs.stage.issue_send_p99_ms": ("ms", "lower"),
    "obs.stage.send_wire_p50_ms": ("ms", "lower"),
    "obs.stage.send_wire_p99_ms": ("ms", "lower"),
    "obs.stage.wire_deliver_p50_ms": ("ms", "lower"),
    "obs.stage.wire_deliver_p99_ms": ("ms", "lower"),
    "obs.stage.deliver_apply_p50_ms": ("ms", "lower"),
    "obs.stage.deliver_apply_p99_ms": ("ms", "lower"),
    "obs.chain_coverage": ("ratio", "higher"),
    "obs.trace_overhead": ("ratio", "higher"),
    "sim.engine.us_per_event": ("us", "lower"),
    "sim.engine.events_per_op": ("count", "lower"),
    "sim.engine.messages_sent": ("count", "lower"),
    "sim.engine.retransmissions": ("count", "lower"),
    "sim.engine.steady_ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_p99_ms": ("ms", "lower"),
    "vis_p99_ms": ("ms", "lower"),
    "recovery_s": ("s", "lower"),
    "failed_op_share": ("ratio", "lower"),
}


@dataclass
class Pass:
    """What one pass over a workload found, live or simulated."""

    metrics: Dict[str, Reduced] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Correctness violations; any one fails the run.
    violations: List[str] = field(default_factory=list)
    #: Construct → ready to serve, of this pass's one boot.
    setup_s: float = 0.0
    #: Whole-run counts from the reports (the ladder's weights; live only).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Lifecycle trace (traced pass only).
    trace_events: List[Any] = field(default_factory=list)


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][0]
    return PER_LAYER[name][0]
