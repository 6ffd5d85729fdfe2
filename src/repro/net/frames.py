"""The live runtime's control vocabulary around the data frames.

Every frame on a live connection is a ``(kind, payload)`` pair under the
length-prefixed framing of :mod:`repro.net.framing`.  Two connection roles
share the vocabulary:

**Peer streams** (one per ordered *node* pair, opened by the sending node;
every channel between replicas hosted on the two nodes is multiplexed onto
this single connection):

* ``HELLO`` — the connecting *node* identifies itself and announces its own
  listening port, so a restarted peer's new address propagates with its
  traffic;
* ``SYNC`` — sent by the *accepting* side immediately after the hello, once
  per hosted replica with traffic from the connecting node: the destination
  replica plus its durable :class:`~repro.core.protocol.Known`: one
  ``(issuer, highest applied seq)`` pair per writer and the pending update
  ids, O(writers + pending) bytes however long the run.  The sender
  re-sends every sent-log entry for that replica it does not cover
  (:meth:`~repro.wire.channel.ChannelSender.missing`).  On a first
  connection the sent-log is empty and the exchange is a no-op;
* ``BATCH`` — an encoded :class:`~repro.wire.batch.MessageBatch`.  The batch
  envelope already names its channel ``(sender, destination)``, so frames
  from many channels interleave on one stream with no extra tag, and the
  receiver demultiplexes by destination replica (byte-identical to what the
  simulator's wire accounting measures);
* ``ACK`` — the destination replica plus the update ids it applied durably;
  the sending node settles those copies: they leave its sent-log
  (:meth:`~repro.wire.channel.ChannelSender.settle`), on the wire or not.

**Control connections** (harness/client → node):

* ``CONTROL_HELLO``, ``ADDR`` (a peer moved), ``OP`` / ``OP_REPLY`` (client
  operations), ``STATS_REQ`` / ``STATS`` (quiescence counters),
  ``REPORT_REQ`` / ``REPORT`` (end-of-run traces), ``SHUTDOWN``;
* ``TELEMETRY`` — a node-initiated metrics sample: flat ``(name, labels,
  value)`` triples pushed periodically over whatever control connections
  are open, so the launcher sees queue depths and wire-byte counters
  *during* the run, not only in the end-of-run report.

Hot-path frames (batches, acks, syncs, ops) are encoded with the
:mod:`repro.wire` primitives — compact, versioned, and shared with the
simulator's byte accounting.  The end-of-run ``REPORT`` payload is a pickle:
it carries rich Python objects (event traces, metric samples) exactly once,
parent-to-child on one machine — the same trust boundary as
:mod:`multiprocessing` itself.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, List, Mapping, Tuple

from ..core.protocol import Known, UpdateId
from ..core.registers import ReplicaId
from ..wire.codecs import decode_value, encode_value
from ..wire.primitives import (
    WireFormatError,
    decode_atom,
    decode_uvarint,
    encode_atom,
    encode_uvarint,
)

# Channel-connection frame kinds.
HELLO = 1
SYNC = 2
BATCH = 3
ACK = 4

# Control-connection frame kinds.
CONTROL_HELLO = 16
ADDR = 17
OP = 18
OP_REPLY = 19
STATS_REQ = 20
STATS = 21
REPORT_REQ = 22
REPORT = 23
SHUTDOWN = 24
TELEMETRY = 25

#: Operation status codes in ``OP_REPLY``.
OP_OK = 0
OP_REJECTED = 1


# ----------------------------------------------------------------------
# Update-id lists (SYNC / ACK payloads)
# ----------------------------------------------------------------------

def encode_uid_list(uids: Iterable[UpdateId]) -> bytes:
    """Encode a list of update ids: count, then (issuer atom, seq uvarint)."""
    uids = list(uids)
    out = bytearray(encode_uvarint(len(uids)))
    for issuer, seq in uids:
        out += encode_atom(issuer)
        out += encode_uvarint(seq)
    return bytes(out)


def decode_uid_list(data: bytes, offset: int = 0) -> Tuple[List[UpdateId], int]:
    """Decode an update-id list; returns ``(uids, new_offset)``."""
    count, offset = decode_uvarint(data, offset)
    uids: List[UpdateId] = []
    for _ in range(count):
        issuer, offset = decode_atom(data, offset)
        seq, offset = decode_uvarint(data, offset)
        uids.append((issuer, seq))
    return uids, offset


# ----------------------------------------------------------------------
# Tagged update-id lists (SYNC / ACK payloads on multiplexed streams)
# ----------------------------------------------------------------------

def encode_tagged_uids(replica: ReplicaId, uids: Iterable[UpdateId]) -> bytes:
    """A destination replica plus an update-id list.

    SYNC and ACK frames ride the shared per-node-pair stream, so they name
    the replica they speak for; the sending node routes the frame to that
    channel's book-keeping.
    """
    return encode_atom(replica) + encode_uid_list(uids)


def decode_tagged_uids(data: bytes) -> Tuple[ReplicaId, List[UpdateId]]:
    replica, offset = decode_atom(data)
    uids, offset = decode_uid_list(data, offset)
    _expect_end(data, offset, "tagged-uid")
    return replica, uids


def encode_sync(replica: ReplicaId, known: Known) -> bytes:
    """The replica, then its frontier and its pending uids as uid lists."""
    return encode_tagged_uids(replica, known.frontier.items()) + encode_uid_list(known.pending)


def decode_sync(data: bytes) -> Tuple[ReplicaId, Known]:
    replica, offset = decode_atom(data)
    frontier, offset = decode_uid_list(data, offset)
    pending, offset = decode_uid_list(data, offset)
    _expect_end(data, offset, "SYNC")
    return replica, Known(dict(frontier), frozenset(pending))


# ----------------------------------------------------------------------
# HELLO — peer-stream identification
# ----------------------------------------------------------------------

def encode_hello(node_id: object, listen_port: int) -> bytes:
    """The connecting node's identity and its own server port."""
    return encode_atom(node_id) + encode_uvarint(listen_port)


def decode_hello(data: bytes) -> Tuple[object, int]:
    node_id, offset = decode_atom(data)
    port, offset = decode_uvarint(data, offset)
    _expect_end(data, offset, "HELLO")
    return node_id, port


# ----------------------------------------------------------------------
# ADDR — a peer node's (possibly new) address, pushed by the launcher
# ----------------------------------------------------------------------

def encode_addr(node_id: object, host: str, port: int) -> bytes:
    return encode_atom(node_id) + encode_atom(host) + encode_uvarint(port)


def decode_addr(data: bytes) -> Tuple[object, str, int]:
    node_id, offset = decode_atom(data)
    host, offset = decode_atom(data, offset)
    port, offset = decode_uvarint(data, offset)
    _expect_end(data, offset, "ADDR")
    return node_id, host, port


# ----------------------------------------------------------------------
# OP / OP_REPLY — client operations
# ----------------------------------------------------------------------

_OP_KINDS = ("write", "read")


def encode_op(op_id: int, replica: ReplicaId, kind: str, register: object,
              value: object) -> bytes:
    """One client operation: id, target replica, kind, register, value.

    The target replica routes the operation to a tenant on a multi-tenant
    node — one control connection serves every replica the node hosts.
    """
    try:
        kind_code = _OP_KINDS.index(kind)
    except ValueError:
        raise WireFormatError(f"unknown operation kind {kind!r}") from None
    return (
        encode_uvarint(op_id)
        + encode_atom(replica)
        + bytes((kind_code,))
        + encode_atom(register)
        + encode_value(value)
    )


def decode_op(data: bytes) -> Tuple[int, ReplicaId, str, object, object]:
    op_id, offset = decode_uvarint(data)
    replica, offset = decode_atom(data, offset)
    if offset >= len(data):
        raise WireFormatError("truncated OP frame")
    kind_code = data[offset]
    offset += 1
    if kind_code >= len(_OP_KINDS):
        raise WireFormatError(f"unknown operation kind code {kind_code}")
    register, offset = decode_atom(data, offset)
    value, offset = decode_value(data, offset)
    _expect_end(data, offset, "OP")
    return op_id, replica, _OP_KINDS[kind_code], register, value


def encode_op_reply(op_id: int, status: int, value: object = None) -> bytes:
    return encode_uvarint(op_id) + bytes((status,)) + encode_value(value)


def decode_op_reply(data: bytes) -> Tuple[int, int, object]:
    op_id, offset = decode_uvarint(data)
    if offset >= len(data):
        raise WireFormatError("truncated OP_REPLY frame")
    status = data[offset]
    value, offset = decode_value(data, offset + 1)
    _expect_end(data, offset, "OP_REPLY")
    return op_id, status, value


# ----------------------------------------------------------------------
# STATS — the quiescence counters
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class NodeStats:
    """One node's progress counters, polled by the launcher.

    The launcher declares the cluster drained when, across two consecutive
    polls, every node reports empty queues (``send_queue``, ``unacked``,
    ``pending`` all zero), every share-graph channel's books agree — the
    outbox total its sender's node logged equals the first receipts its
    destination's node counted (the outbox and inbox books beside the
    stats in the same ``STATS`` payload) — and nothing moved between the
    polls.

    ``applied``, ``pending``, ``send_queue`` and ``unacked`` are the
    node's; the others sum its tenants' counters of the same name
    (:class:`~repro.net.node.TenantCounters`).  Field order is byte order.
    """

    ops_done: int = 0
    issued: int = 0
    enqueued: int = 0
    sent: int = 0
    received: int = 0
    delivered: int = 0
    applied: int = 0
    pending: int = 0
    send_queue: int = 0
    unacked: int = 0
    duplicates: int = 0
    resyncs: int = 0

    @classmethod
    def from_totals(cls, totals: Mapping[str, int]) -> "NodeStats":
        """The frame's fields, picked by name out of a node's totals."""
        return cls(*(totals.get(name, 0) for name in cls._FIELDS))

    def encode(self) -> bytes:
        out = bytearray()
        for name in self._FIELDS:
            out += encode_uvarint(getattr(self, name))
        return bytes(out)

    @classmethod
    def decode_from(cls, data: bytes, offset: int = 0) -> Tuple["NodeStats", int]:
        values = {}
        for name in cls._FIELDS:
            values[name], offset = decode_uvarint(data, offset)
        return cls(**values), offset


NodeStats._FIELDS = tuple(spec.name for spec in fields(NodeStats))


#: Per-channel durable progress books riding the STATS frame, keyed by the
#: directed channel ``(src replica, dst replica)``: ``outbox`` is how many
#: distinct updates this node has ever logged on each outgoing channel,
#: ``inbox`` how many distinct updates it has ever first-received on each
#: incoming one.  Both are derived from crash-surviving state, so the
#: launcher's drain detection (``outbox[(i,j)]`` at ``i``'s node ==
#: ``inbox[(i,j)]`` at ``j``'s node for every channel) stays sound across
#: kill/restart cycles — in-memory counters die with a SIGKILL, these
#: books do not.
ChannelCounts = dict


def _channel_order(channel: tuple) -> tuple:
    # Deterministic order even for mixed int/str replica ids (atoms allow
    # both): ints first, then strings, each sorted.
    src, dst = channel
    return (isinstance(src, str), src, isinstance(dst, str), dst)


def _encode_channel_counts(book: dict) -> bytes:
    out = bytearray(encode_uvarint(len(book)))
    for channel in sorted(book, key=_channel_order):
        src, dst = channel
        out += encode_atom(src)
        out += encode_atom(dst)
        out += encode_uvarint(book[channel])
    return bytes(out)


def _decode_channel_counts(data: bytes, offset: int) -> Tuple[dict, int]:
    count, offset = decode_uvarint(data, offset)
    book = {}
    for _ in range(count):
        src, offset = decode_atom(data, offset)
        dst, offset = decode_atom(data, offset)
        book[(src, dst)], offset = decode_uvarint(data, offset)
    return book, offset


def encode_stats_payload(stats: NodeStats, outbox: dict, inbox: dict) -> bytes:
    """The full ``STATS`` payload: scalar counters + the progress books."""
    return (
        stats.encode()
        + _encode_channel_counts(outbox)
        + _encode_channel_counts(inbox)
    )


def decode_stats_payload(data: bytes) -> Tuple[NodeStats, dict, dict]:
    stats, offset = NodeStats.decode_from(data)
    outbox, offset = _decode_channel_counts(data, offset)
    inbox, offset = _decode_channel_counts(data, offset)
    _expect_end(data, offset, "STATS")
    return stats, outbox, inbox


# ----------------------------------------------------------------------
# TELEMETRY — periodic metrics samples, node → subscribers
# ----------------------------------------------------------------------

#: One telemetry sample: ``(metric name, sorted label items, value)`` —
#: the flat shape :func:`repro.obs.registry.fold_samples` consumes.
TelemetrySample = Tuple[str, Tuple[Tuple[str, str], ...], float]


def encode_telemetry_payload(
    sampled_at: float, replica_id: ReplicaId,
    samples: Iterable[TelemetrySample],
) -> bytes:
    """One TELEMETRY frame: sample time, reporting node, then the samples.

    Values ride :func:`~repro.wire.codecs.encode_value` so both integer
    counters and float gauges survive the trip exactly; names and label
    keys/values are atoms.
    """
    samples = list(samples)
    out = bytearray(encode_value(sampled_at))
    out += encode_atom(replica_id)
    out += encode_uvarint(len(samples))
    for name, labels, value in samples:
        out += encode_atom(name)
        out += encode_uvarint(len(labels))
        for key, label_value in labels:
            out += encode_atom(key)
            out += encode_atom(label_value)
        out += encode_value(value)
    return bytes(out)


def decode_telemetry_payload(
    data: bytes,
) -> Tuple[float, ReplicaId, List[TelemetrySample]]:
    sampled_at, offset = decode_value(data)
    replica_id, offset = decode_atom(data, offset)
    count, offset = decode_uvarint(data, offset)
    samples: List[TelemetrySample] = []
    for _ in range(count):
        name, offset = decode_atom(data, offset)
        nlabels, offset = decode_uvarint(data, offset)
        labels = []
        for _ in range(nlabels):
            key, offset = decode_atom(data, offset)
            label_value, offset = decode_atom(data, offset)
            labels.append((key, label_value))
        value, offset = decode_value(data, offset)
        samples.append((name, tuple(labels), value))
    _expect_end(data, offset, "TELEMETRY")
    return sampled_at, replica_id, samples


def _expect_end(data: bytes, offset: int, kind: str) -> None:
    if offset != len(data):
        raise WireFormatError(
            f"{kind} frame has {len(data) - offset} trailing bytes"
        )
