"""The layer ladder: every layer's public functions, timed from outside.

The measured run says what an operation costs end to end; the ladder says
where.  In this process, with no sockets and no event loop, it builds the
workload's replicas and pushes the first arrivals of the same schedule
through the path a message takes on the live runtime::

    CausalReplica.write -> encode_batch -> encode_frame -> StreamDecoder.feed
        -> decode_batch -> ReplicaWAL.append -> apply_batch

batching at the fill the measured run observed.  Channels between
replicas the run co-hosted skip the codec and framing steps, as they do
on a node.  Each call is wrapped in a ``perf_counter_ns`` span ``(layer,
start, end, parent)`` kept in memory and written to ``spans.jsonl`` at the
end; a layer's cost is its spans' *self* time (duration minus child
spans) per unit of work.  Spans inside the program are a later issue.

The ladder's costs are single-process, warm-cache, no-contention costs:
their weighted sum is a floor under the run's CPU per operation, and what
the run spends above it — event loop, syscalls, control plane — is
``net.node.residual_us_per_op``.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.core.replica import EdgeIndexedReplica
from repro.core.share_graph import ShareGraph
from repro.core.timestamp_graph import TimestampGraph
from repro.net import frames
from repro.net import wal as wal_records
from repro.net.framing import StreamDecoder, encode_frame
from repro.net.wal import ReplicaWAL, WalCheckpoint
from repro.wire.batch import MessageBatch, decode_batch, encode_batch
from repro.wire.channel import ChannelDeltaDecoder, ChannelDeltaEncoder

from .stats import Reduced

_now = time.perf_counter_ns

# Layer names are module names; the two ``ladder.*`` layers are the
# harness's own grouping spans (one per operation, one per batch flush).
OP, BATCH = "ladder.op", "ladder.batch"
ISSUE, READ, APPLY = "core.issue", "core.read", "core.apply"
ENCODE, DECODE = "wire.encode", "wire.decode"
FRAME_ENCODE, FRAME_DECODE = "net.framing.encode", "net.framing.decode"
WAL_APPEND = "net.wal.append"
OPCODEC_NODE, OPCODEC_CLIENT = "net.frames.opcodec.node", "net.frames.opcodec.client"

Span = Tuple[str, int, int, int]


class Ladder:
    """Replicas, codecs, decoders and logs of one workload, wired in process."""

    def __init__(self, graph: ShareGraph, replica_node: Mapping[Any, Any],
                 batch_size: int, wal_dir: str) -> None:
        self.graph = graph
        self.replica_node = dict(replica_node)
        self.batch_size = max(1, batch_size)
        self.spans: List[Span] = []
        self.work: Dict[str, int] = {
            "writes": 0, "applied_messages": 0, "wire_messages": 0,
            "frames": 0, "records": 0, "ops": 0, "timestamp_bytes_full": 0,
        }
        self.build_ms: List[float] = []
        self.replicas: Dict[Any, EdgeIndexedReplica] = {}
        for replica_id in graph.replica_ids:
            started = _now()
            timestamp_graph = TimestampGraph.build(graph, replica_id)
            self.build_ms.append((_now() - started) / 1e6)
            self.replicas[replica_id] = EdgeIndexedReplica(
                graph, replica_id, timestamp_graph=timestamp_graph)
        os.makedirs(wal_dir, exist_ok=True)
        self.wal_dir = wal_dir
        # No automatic compaction: checkpoints are timed on their own.
        self.wals = {
            replica_id: ReplicaWAL(wal_dir, replica_id, compact_bytes=1 << 62)
            for replica_id in graph.replica_ids
        }
        # One stream per ordered node pair, as on the live runtime.
        self.encoders: Dict[Tuple[Any, Any], ChannelDeltaEncoder] = {}
        self.decoders: Dict[Tuple[Any, Any], Tuple[StreamDecoder, ChannelDeltaDecoder]] = {}
        self.windows: Dict[Tuple[Any, Any], List[Any]] = {}
        self.sequence: Dict[Tuple[Any, Any], int] = {}
        self.streams: Dict[Tuple[Any, Any], List[Any]] = {}
        self.apply_times: Dict[Any, Dict[Any, float]] = {
            replica_id: {} for replica_id in graph.replica_ids
        }

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _open(self) -> int:
        self.spans.append(None)  # type: ignore[arg-type]
        return len(self.spans) - 1

    def _close(self, slot: int, layer: str, started: int, parent: int) -> None:
        self.spans[slot] = (layer, started, _now(), parent)

    def _log(self, replica_id: Any, kind: int, payload_of: Any, parent: int) -> None:
        """One WAL record: payload encoding and append, both ``net.wal``."""
        started = _now()
        self.wals[replica_id].append(kind, payload_of())
        self.spans.append((WAL_APPEND, started, _now(), parent))
        self.work["records"] += 1

    # ------------------------------------------------------------------
    # The path
    # ------------------------------------------------------------------
    def push(self, operation: Any) -> None:
        """One client operation, through to every apply it causes now."""
        slot = self._open()
        op_started = _now()
        replica = self.replicas[operation.replica_id]
        self.work["ops"] += 1
        if operation.kind == "write":
            started = _now()
            messages = replica.write(operation.register, operation.value, sim_time=0.0)
            self.spans.append((ISSUE, started, _now(), slot))
            self.work["writes"] += 1
            self._log(operation.replica_id, wal_records.W_WRITE,
                      lambda: wal_records.encode_write_record(
                          operation.register, operation.value, 0.0), slot)
            here = self.replica_node[operation.replica_id]
            for message in messages:
                channel = (message.sender, message.destination)
                if self.replica_node[message.destination] == here:
                    self._deliver(channel, [message], slot)
                    self._ack(channel, [message.update.uid], slot)
                    continue
                window = self.windows.setdefault(channel, [])
                window.append(message)
                if len(window) >= self.batch_size:
                    self._flush(channel, slot)
        else:
            started = _now()
            replica.read(operation.register, sim_time=0.0)
            self.spans.append((READ, started, _now(), slot))
            self._log(operation.replica_id, wal_records.W_READ,
                      lambda: wal_records.encode_read_record(operation.register, 0.0), slot)
        self._close(slot, OP, op_started, -1)

    def flush_all(self) -> None:
        for channel in sorted(self.windows, key=str):
            if self.windows[channel]:
                self._flush(channel, -1)

    def _flush(self, channel: Tuple[Any, Any], parent: int) -> None:
        slot = self._open()
        flush_started = _now()
        window, self.windows[channel] = self.windows[channel], []
        src, dst = channel
        pair = (self.replica_node[src], self.replica_node[dst])
        encoder = self.encoders.setdefault(pair, ChannelDeltaEncoder())
        if pair not in self.decoders:
            self.decoders[pair] = (StreamDecoder(), ChannelDeltaDecoder())
        stream_decoder, delta_decoder = self.decoders[pair]
        seq = self.sequence.get(channel, 0)
        self.sequence[channel] = seq + 1
        batch = MessageBatch(sender=src, destination=dst, seq=seq, messages=tuple(window))
        codec = self.replicas[src].wire_codec()

        started = _now()
        data, sizes = encode_batch(batch, encoder=encoder, codec=codec)
        self.spans.append((ENCODE, started, _now(), slot))
        started = _now()
        frame = encode_frame(frames.BATCH, data)
        self.spans.append((FRAME_ENCODE, started, _now(), slot))
        started = _now()
        ((_kind, payload),) = stream_decoder.feed(frame)
        self.spans.append((FRAME_DECODE, started, _now(), slot))
        started = _now()
        decoded, _ = decode_batch(payload, decoder=delta_decoder)
        self.spans.append((DECODE, started, _now(), slot))

        self.work["wire_messages"] += len(window)
        self.work["frames"] += 1
        self.work["timestamp_bytes_full"] += sizes.timestamp_bytes_full
        self._deliver(channel, list(decoded.messages), slot)
        self._ack(channel, [message.update.uid for message in window], slot)
        self._close(slot, BATCH, flush_started, parent)

    def _deliver(self, channel: Tuple[Any, Any], messages: List[Any], parent: int) -> None:
        src, dst = channel
        codec = self.replicas[dst].wire_codec()
        record = MessageBatch(sender=src, destination=dst, seq=0, messages=tuple(messages))
        self._log(dst, wal_records.W_DELIVER,
                  lambda: wal_records.encode_deliver_record(0.0, record, codec), parent)
        started = _now()
        applied = self.replicas[dst].apply_batch(messages, sim_time=0.0)
        self.spans.append((APPLY, started, _now(), parent))
        self.work["applied_messages"] += len(messages)
        # The books a node keeps per tenant (and checkpoints): kept here,
        # outside any span, so the timed checkpoint has realistic state.
        self.streams.setdefault(channel, []).extend(m.update.uid for m in messages)
        times = self.apply_times[dst]
        for update in applied:
            times[update.uid] = 0.0

    def _ack(self, channel: Tuple[Any, Any], uids: List[Any], parent: int) -> None:
        src, dst = channel
        self._log(src, wal_records.W_ACK,
                  lambda: wal_records.encode_ack_record(dst, uids), parent)

    def op_codec(self, operations: Sequence[Any]) -> None:
        """The control-plane codecs of one operation, both ends.

        The node decodes the OP frame and encodes the reply; the client
        does the reverse.  Framing of both frames lands on the
        ``net.framing`` layers, as it does for batch frames.
        """
        decoder = StreamDecoder()
        for op_id, operation in enumerate(operations, start=1):
            started = _now()
            payload = frames.encode_op(op_id, operation.replica_id, operation.kind,
                                       operation.register, operation.value)
            self.spans.append((OPCODEC_CLIENT, started, _now(), -1))
            started = _now()
            frame = encode_frame(frames.OP, payload)
            self.spans.append((FRAME_ENCODE, started, _now(), -1))
            started = _now()
            ((_kind, body),) = decoder.feed(frame)
            self.spans.append((FRAME_DECODE, started, _now(), -1))
            started = _now()
            frames.decode_op(body)
            reply = frames.encode_op_reply(op_id, frames.OP_OK, None)
            self.spans.append((OPCODEC_NODE, started, _now(), -1))
            started = _now()
            frame = encode_frame(frames.OP_REPLY, reply)
            self.spans.append((FRAME_ENCODE, started, _now(), -1))
            started = _now()
            ((_kind, body),) = decoder.feed(frame)
            self.spans.append((FRAME_DECODE, started, _now(), -1))
            started = _now()
            frames.decode_op_reply(body)
            self.spans.append((OPCODEC_CLIENT, started, _now(), -1))
            self.work["frames"] += 2

    def wal_load_and_checkpoint(self) -> Tuple[float, float]:
        """Median per-replica ``ReplicaWAL.load`` of the ladder's log, then
        ``checkpoint`` of the state it leads to; both in milliseconds."""
        load_ms, checkpoint_ms = [], []
        for replica_id, log in self.wals.items():
            log.close()
            reopened = ReplicaWAL(self.wal_dir, replica_id, compact_bytes=1 << 62)
            started = _now()
            reopened.load()
            load_ms.append((_now() - started) / 1e6)
            state = WalCheckpoint(
                replica=self.replicas[replica_id].snapshot(),
                sent_log={}, outbox_total={},
                streams={c: s for c, s in self.streams.items() if c[1] == replica_id},
                apply_times=self.apply_times[replica_id],
            )
            started = _now()
            reopened.checkpoint(state)
            checkpoint_ms.append((_now() - started) / 1e6)
            reopened.close()
        return statistics.median(load_ms), statistics.median(checkpoint_ms)

    def close(self) -> None:
        for log in self.wals.values():
            log.close()
        shutil.rmtree(self.wal_dir, ignore_errors=True)


def self_times(spans: Sequence[Span]) -> Dict[str, int]:
    """Nanoseconds of self time per layer: duration minus child spans."""
    covered = [0] * len(spans)
    for _layer, started, ended, parent in spans:
        if parent >= 0:
            covered[parent] += ended - started
    totals: Dict[str, int] = {}
    for index, (layer, started, ended, _parent) in enumerate(spans):
        totals[layer] = totals.get(layer, 0) + (ended - started) - covered[index]
    return totals


def write_spans(spans: Sequence[Span], path: str) -> None:
    with open(path, "w") as handle:
        handle.write(json.dumps({"fields": ["layer", "start_ns", "end_ns", "parent"]}) + "\n")
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def run(graph: ShareGraph, operations: Sequence[Any], replica_node: Mapping[Any, Any],
        batch_size: int, out_dir: str) -> Dict[str, Reduced]:
    """Climb the ladder with ``operations``; returns the per-layer costs."""
    ladder = Ladder(graph, replica_node, batch_size, os.path.join(out_dir, "wal-ladder"))
    try:
        for operation in operations:
            ladder.push(operation)
        ladder.flush_all()
        ladder.op_codec(operations)
        load_ms, checkpoint_ms = ladder.wal_load_and_checkpoint()
    finally:
        ladder.close()
    write_spans(ladder.spans, os.path.join(out_dir, "spans.jsonl"))
    return layer_metrics(ladder, load_ms, checkpoint_ms)


def layer_metrics(ladder: Ladder, load_ms: float, checkpoint_ms: float) -> Dict[str, Reduced]:
    ns = self_times(ladder.spans)
    work = ladder.work

    def per(layer: str, unit: str) -> Reduced:
        count = work[unit]
        return Reduced.exact(ns.get(layer, 0) / 1e3 / max(count, 1), samples=count)

    ops = max(work["ops"], 1)
    return {
        "core.loops.tsgraph_build_ms": Reduced.exact(
            statistics.median(ladder.build_ms), samples=len(ladder.build_ms)),
        "core.issue_us_per_write": per(ISSUE, "writes"),
        "core.apply_us_per_msg": per(APPLY, "applied_messages"),
        "wire.encode_us_per_msg": per(ENCODE, "wire_messages"),
        "wire.decode_us_per_msg": per(DECODE, "wire_messages"),
        "wire.ts_bytes_full_per_msg": Reduced.exact(
            work["timestamp_bytes_full"] / max(work["wire_messages"], 1),
            samples=work["wire_messages"]),
        "net.framing.encode_us_per_frame": per(FRAME_ENCODE, "frames"),
        "net.framing.decode_us_per_frame": per(FRAME_DECODE, "frames"),
        "net.frames.opcodec_us_per_op": Reduced.exact(
            (ns.get(OPCODEC_NODE, 0) + ns.get(OPCODEC_CLIENT, 0)) / 1e3 / ops, samples=ops),
        # Not a registered metric: the node's half, for ``node_floor_us_per_op``.
        "ladder.opcodec_node_us_per_op": Reduced.exact(
            ns.get(OPCODEC_NODE, 0) / 1e3 / ops, samples=ops),
        "net.wal.append_us_per_record": per(WAL_APPEND, "records"),
        "net.wal.load_ms": Reduced.exact(load_ms),
        "net.wal.checkpoint_ms": Reduced.exact(checkpoint_ms),
    }


def node_floor_us_per_op(costs: Mapping[str, Reduced], counters: Mapping[str, float],
                         durable: bool) -> float:
    """The ladder's node-side cost of one operation of the measured run.

    Each layer's unit cost, weighted by how much of that unit the run's
    own reports say an operation caused.  The generator's half of the op
    codec is excluded — it is not node CPU.  Per batch the nodes encode
    and decode two frames (the batch, its ack); per operation two more
    (the OP, its reply).
    """
    ops = max(counters["ops_done"], 1)
    writes = counters["issued"] / ops
    messages = counters["sent"] / ops
    wire_messages = counters["wire_messages"] / ops
    batches = counters["wire_batches"] / ops
    floor = (
        writes * costs["core.issue_us_per_write"].value
        + messages * costs["core.apply_us_per_msg"].value
        + wire_messages * (costs["wire.encode_us_per_msg"].value
                           + costs["wire.decode_us_per_msg"].value)
        + (1 + 2 * batches) * (costs["net.framing.encode_us_per_frame"].value
                               + costs["net.framing.decode_us_per_frame"].value)
        + costs["ladder.opcodec_node_us_per_op"].value
    )
    if durable:
        floor += (counters["wal_records"] / ops) * costs["net.wal.append_us_per_record"].value
        floor += (counters["wal_compactions"] / ops) * costs["net.wal.checkpoint_ms"].value * 1e3
    return floor
