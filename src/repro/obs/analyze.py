"""Trace analysis: span chains, stage breakdowns, critical paths, Chrome export.

The library half of ``tools/trace_report.py``: everything here takes the
flat event tuples of :mod:`repro.obs.trace` (or a loaded JSONL dump) and
reduces them to the questions an operator asks:

* *where does an op spend its time?* — :func:`stage_breakdown` summarises
  each lifecycle hop (issue→send, the batching-window wait, the transport
  latency, the pending-buffer wait) as p50/p90/p99 percentiles;
* *which deliveries were slow, and why?* — :func:`critical_paths` ranks
  complete chains by end-to-end latency with their per-stage split;
* *did the trace capture the run?* — :func:`coverage` counts applied
  destination copies whose full issue→apply chain reconstructs;
* *show me* — :func:`chrome_trace` renders the chains as Chrome
  ``trace_event`` JSON (load in ``chrome://tracing`` / Perfetto): one
  row (thread) per source replica inside one process per destination.

A *span* here is one ``(uid, destination)`` pair — one destination copy of
one op — holding the earliest recorded time per stage; retransmitted or
duplicated copies therefore collapse onto the first attempt.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.host import LatencySummary
from ..core.protocol import UpdateId
from ..core.registers import ReplicaId
from .trace import APPLY, DELIVER, ISSUE, SEND, STAGES, WIRE, TraceEvent

SpanKey = Tuple[UpdateId, ReplicaId]

#: The consecutive lifecycle hops a complete remote chain traverses, with
#: the operator-facing meaning of each gap.
HOPS: Tuple[Tuple[str, str, str], ...] = (
    (ISSUE, SEND, "issue→send"),
    (SEND, WIRE, "batch window"),
    (WIRE, DELIVER, "transport"),
    (DELIVER, APPLY, "pending wait"),
)


def assemble_spans(events: Iterable[TraceEvent]) -> Dict[SpanKey, Dict[str, float]]:
    """Group events into per-``(uid, destination)`` spans.

    Each span maps stage → earliest recorded time; the op's single
    ``issue`` event is copied into every destination span so a chain is
    self-contained.  Local applies (destination == issuer) get a span too
    — they simply never have send/wire/deliver stages.
    """
    issues: Dict[UpdateId, float] = {}
    spans: Dict[SpanKey, Dict[str, float]] = {}
    for time, stage, uid, _src, dst in events:
        if stage == ISSUE:
            if uid not in issues or time < issues[uid]:
                issues[uid] = time
            continue
        span = spans.setdefault((uid, dst), {})
        if stage not in span or time < span[stage]:
            span[stage] = time
    for (uid, _dst), span in spans.items():
        issued_at = issues.get(uid)
        if issued_at is not None:
            span[ISSUE] = issued_at
    return spans


def complete_chains(
    spans: Dict[SpanKey, Dict[str, float]]
) -> Dict[SpanKey, Dict[str, float]]:
    """The remote spans holding every lifecycle stage (issue through apply)."""
    return {
        key: span
        for key, span in spans.items()
        if key[0][0] != key[1] and all(stage in span for stage in STAGES)
    }


def coverage(spans: Dict[SpanKey, Dict[str, float]]) -> Tuple[int, int]:
    """``(complete, applied)`` over remote destination copies.

    The denominator is every remote span that reached ``apply`` (the op
    was delivered and applied); the numerator counts those whose whole
    issue→apply chain reconstructs.  The acceptance bar is ≥99%.
    """
    applied = [
        span for (uid, dst), span in spans.items()
        if uid[0] != dst and APPLY in span
    ]
    complete = [
        span for span in applied if all(stage in span for stage in STAGES)
    ]
    return len(complete), len(applied)


def stage_breakdown(
    chains: Dict[SpanKey, Dict[str, float]]
) -> Dict[str, LatencySummary]:
    """Per-hop latency percentiles over complete chains (plus end-to-end)."""
    samples: Dict[str, List[float]] = {label: [] for _, _, label in HOPS}
    samples["end-to-end"] = []
    for span in chains.values():
        for earlier, later, label in HOPS:
            samples[label].append(span[later] - span[earlier])
        samples["end-to-end"].append(span[APPLY] - span[ISSUE])
    return {
        label: LatencySummary.from_samples(values)
        for label, values in samples.items()
    }


def critical_paths(
    chains: Dict[SpanKey, Dict[str, float]], top: int = 5
) -> List[dict]:
    """The ``top`` slowest complete chains with their per-stage split."""
    ranked = sorted(
        chains.items(), key=lambda item: item[1][APPLY] - item[1][ISSUE],
        reverse=True,
    )
    out = []
    for (uid, dst), span in ranked[:top]:
        out.append({
            "uid": uid,
            "issuer": uid[0],
            "destination": dst,
            "total": span[APPLY] - span[ISSUE],
            "stages": {
                label: span[later] - span[earlier]
                for earlier, later, label in HOPS
            },
        })
    return out


def chrome_trace(
    spans: Dict[SpanKey, Dict[str, float]],
    time_scale: float = 1_000_000.0,
) -> dict:
    """Render spans as a Chrome ``trace_event`` document.

    One *process* per destination replica, one *thread* per issuing
    replica; each lifecycle hop becomes a complete (``ph="X"``) event, so
    the flamegraph rows read as "traffic into replica D, by source".
    ``time_scale`` converts host time to microseconds (the trace_event
    unit): the default treats host time as seconds (live runs); for
    simulated-unit traces any positive scale renders proportionally.
    """
    replica_ids = sorted(
        {dst for (_uid, dst) in spans}
        | {uid[0] for (uid, _dst) in spans},
        key=lambda r: (isinstance(r, str), r),
    )
    pid_of = {rid: index + 1 for index, rid in enumerate(replica_ids)}
    events: List[dict] = []
    for rid in replica_ids:
        events.append({
            "name": "process_name", "ph": "M", "pid": pid_of[rid], "tid": 0,
            "args": {"name": f"replica {rid}"},
        })
    for (uid, dst), span in sorted(spans.items(), key=lambda item: repr(item[0])):
        pid = pid_of[dst]
        tid = pid_of[uid[0]]
        name = f"{uid[0]}:{uid[1]}"
        for earlier, later, label in HOPS:
            if earlier in span and later in span:
                events.append({
                    "name": f"{name} {label}",
                    "cat": label,
                    "ph": "X",
                    "ts": span[earlier] * time_scale,
                    "dur": max(0.0, (span[later] - span[earlier]) * time_scale),
                    "pid": pid,
                    "tid": tid,
                    "args": {"uid": list(uid), "stage": label},
                })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# Channel byte books from a metrics dump
# ----------------------------------------------------------------------

def channel_byte_table(metric_records: Sequence[dict]) -> List[dict]:
    """Per-channel timestamp-bytes-vs-bound rows from a metrics JSONL dump.

    Consumes the records :meth:`~repro.obs.registry.MetricsRegistry.write_jsonl`
    produced (``repro_channel_*`` families): one row per channel with the
    shipped timestamp bytes per message and, when the dump carries the
    closed-form bound gauge, the realised bytes-per-bound-counter ratio —
    the per-channel reading of the paper's metadata-vs-bound claim.
    """
    channels: Dict[Tuple[str, str], Dict[str, float]] = {}
    for record in metric_records:
        name = record.get("name", "")
        if not name.startswith("repro_channel_"):
            continue
        labels = record.get("labels", {})
        if "src" not in labels or "dst" not in labels:
            continue
        key = (labels["src"], labels["dst"])
        channels.setdefault(key, {})[name] = record.get("value", 0.0)
    rows = []
    for (src, dst), values in sorted(channels.items()):
        messages = values.get("repro_channel_messages_total", 0.0)
        ts_bytes = values.get("repro_channel_timestamp_bytes_total", 0.0)
        bound = values.get("repro_channel_bound_counters")
        row = {
            "src": src,
            "dst": dst,
            "messages": int(messages),
            "timestamp_bytes": int(ts_bytes),
            "payload_bytes": int(values.get("repro_channel_payload_bytes_total", 0.0)),
            "header_bytes": int(values.get("repro_channel_header_bytes_total", 0.0)),
            "ts_bytes_per_message": ts_bytes / messages if messages else 0.0,
            "bound_counters": bound,
            "bytes_per_bound_counter": (
                ts_bytes / (messages * bound) if messages and bound else None
            ),
        }
        rows.append(row)
    return rows


def epoch_byte_table(metric_records: Sequence[dict]) -> List[dict]:
    """Per-epoch timestamp-bytes-vs-bound rows from a metrics JSONL dump.

    Consumes the ``repro_epoch_*`` families
    :func:`~repro.obs.publish.publish_epoch_segments` emits: one row per
    configuration epoch with the shipped timestamp bytes and metadata
    counters per message and, when the dump carries the closed-form
    bound gauge, the realised counters-per-message against the epoch's
    worst-sender budget — the reconfiguration-time reading of the
    paper's metadata-vs-bound claim (it must hold in every epoch a
    schedule or controller installs, not just the starting one).
    """
    epochs: Dict[int, Dict[str, float]] = {}
    for record in metric_records:
        name = record.get("name", "")
        if not name.startswith("repro_epoch_"):
            continue
        labels = record.get("labels", {})
        if "epoch" not in labels:
            continue
        key = int(labels["epoch"])
        epochs.setdefault(key, {})[name] = record.get("value", 0.0)
    rows = []
    for epoch, values in sorted(epochs.items()):
        messages = values.get("repro_epoch_messages_total", 0.0)
        ts_bytes = values.get("repro_epoch_timestamp_bytes_total", 0.0)
        counters = values.get("repro_epoch_counters_total", 0.0)
        bound = values.get("repro_epoch_bound_counters")
        rows.append(
            {
                "epoch": epoch,
                "start": values.get("repro_epoch_start", 0.0),
                "end": values.get("repro_epoch_end", 0.0),
                "replicas": int(values.get("repro_epoch_replicas", 0.0)),
                "messages": int(messages),
                "timestamp_bytes": int(ts_bytes),
                "counters": int(counters),
                "ts_bytes_per_message": ts_bytes / messages if messages else 0.0,
                "counters_per_message": counters / messages if messages else 0.0,
                "bound_counters": bound,
                "counters_vs_bound": (
                    counters / (messages * bound) if messages and bound else None
                ),
            }
        )
    return rows


#: The node-level transport/durability telemetry families, in table order.
_NODE_TRANSPORT_METRICS = (
    "repro_node_peer_streams",
    "repro_node_open_streams",
    "repro_node_inbound_connections",
    "repro_node_send_queue_depth",
    "repro_node_unacked",
    "repro_node_socket_writes_total",
    "repro_node_ack_frames_total",
    "repro_node_misrouted_batches_total",
    "repro_node_corrupt_streams_total",
    "repro_node_wal_bytes",
    "repro_node_wal_records_total",
    "repro_node_wal_flushes_total",
    "repro_node_wal_compactions_total",
    "repro_node_wal_checkpoint_seconds_total",
    "repro_node_wal_checkpoint_bytes_total",
)


def node_transport_table(metric_records: Sequence[dict]) -> List[dict]:
    """Per-node transport-footprint rows from a metrics JSONL dump.

    Consumes the node-level families a multi-tenant :class:`LiveNode`
    emits (``node`` label, no ``replica``): the host-pair stream counts
    that make the socket footprint O(hosts²), the queue/unacked depths,
    the frame counts (socket writes, ACK frames, misrouted batches,
    corrupt streams) and the WAL counters.  One row per node, sorted by
    node id."""
    nodes: Dict[str, Dict[str, float]] = {}
    for record in metric_records:
        name = record.get("name", "")
        if name not in _NODE_TRANSPORT_METRICS:
            continue
        labels = record.get("labels", {})
        if "node" not in labels:
            continue
        nodes.setdefault(labels["node"], {})[name] = record.get("value", 0.0)
    rows = []
    for node, values in sorted(nodes.items()):
        rows.append({
            "node": node,
            "peer_streams": int(values.get("repro_node_peer_streams", 0.0)),
            "open_streams": int(values.get("repro_node_open_streams", 0.0)),
            "inbound_connections": int(
                values.get("repro_node_inbound_connections", 0.0)
            ),
            "send_queue_depth": int(
                values.get("repro_node_send_queue_depth", 0.0)
            ),
            "unacked": int(values.get("repro_node_unacked", 0.0)),
            "socket_writes": int(
                values.get("repro_node_socket_writes_total", 0.0)
            ),
            "ack_frames": int(values.get("repro_node_ack_frames_total", 0.0)),
            "misrouted_batches": int(
                values.get("repro_node_misrouted_batches_total", 0.0)
            ),
            "corrupt_streams": int(
                values.get("repro_node_corrupt_streams_total", 0.0)
            ),
            "wal_bytes": int(values.get("repro_node_wal_bytes", 0.0)),
            "wal_records": int(
                values.get("repro_node_wal_records_total", 0.0)
            ),
            "wal_flushes": int(
                values.get("repro_node_wal_flushes_total", 0.0)
            ),
            "wal_compactions": int(
                values.get("repro_node_wal_compactions_total", 0.0)
            ),
            "wal_checkpoint_seconds": values.get(
                "repro_node_wal_checkpoint_seconds_total", 0.0
            ),
            "wal_checkpoint_bytes": int(
                values.get("repro_node_wal_checkpoint_bytes_total", 0.0)
            ),
        })
    return rows


def channel_timelines(
    telemetry: Dict[ReplicaId, List[Tuple[float, ReplicaId, list]]],
    metric: str = "repro_node_wire_timestamp_bytes_total",
) -> Dict[Tuple[str, str], List[Tuple[float, float]]]:
    """Per-channel cumulative byte timelines from live TELEMETRY streams.

    Each node's periodic samples carry cumulative per-channel byte
    counters; this pivots them into ``channel → [(time, bytes), …]``
    series — timestamp bytes *over the run*, not only at the end.
    """
    series: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    for samples_by_node in telemetry.values():
        for sampled_at, _replica, samples in samples_by_node:
            for name, labels, value in samples:
                if name != metric:
                    continue
                label_map = dict(labels)
                key = (label_map.get("src", "?"), label_map.get("dst", "?"))
                series.setdefault(key, []).append((sampled_at, value))
    for points in series.values():
        points.sort()
    return series


def analyze_file(path: str, metrics_path: Optional[str] = None) -> dict:
    """One-call analysis of a JSONL trace dump (plus optional metrics dump)."""
    from .registry import load_metrics_jsonl
    from .trace import load_trace_jsonl

    events = load_trace_jsonl(path)
    spans = assemble_spans(events)
    chains = complete_chains(spans)
    complete, applied = coverage(spans)
    result = {
        "events": len(events),
        "spans": len(spans),
        "applied": applied,
        "complete": complete,
        "coverage": complete / applied if applied else 1.0,
        "breakdown": stage_breakdown(chains),
        "critical_paths": critical_paths(chains),
        "channels": [],
    }
    if metrics_path is not None:
        result["channels"] = channel_byte_table(load_metrics_jsonl(metrics_path))
    return result
