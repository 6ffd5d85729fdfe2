"""Log-structured durability for live nodes: checkpoint + write-ahead log.

Until PR 8 every persist wrote the node's whole durable state as one pickle
— O(replica state) per operation, the dominant cost of the live hot path
once histories grow.  This module replaces it with the classic
log-structured pair, one per node (:class:`ReplicaWAL` is the file format;
a :class:`~repro.net.node.LiveNode` opens one instance for all of its
tenants):

* a **checkpoint file** (``node-<id>.ckpt``): append-only, one framed
  checkpoint record per compaction.  *History is appended, state is
  replaced*: a record carries the replaceable state whole — every
  tenant's protocol state minus its history, sent-log, outbox totals, the
  inbound connections' delta-decoder bases and the log generation — but
  of the history (each replica's event trace, the first-receipt streams,
  the apply times) only what was appended since the previous record.  A trace's tail is a slice of its
  :class:`~repro.core.protocol.ReplicaTrace` columns, so it pickles as
  three flat columns and recovery extends the columns back together.
  So a compaction costs O(state + what changed), never O(history), and
  nothing is deep-copied: the pickle of the live state is the copy;
* a **write-ahead log** (``node-<id>.wal.<generation>``): one framed,
  tenant-tagged record per state change, O(delta) per operation, in the
  order the node made the changes — so file order is the order across
  tenants.  Records reuse the :mod:`repro.net.framing` envelope and the
  :mod:`repro.wire` codecs, and the bytes in the log are the bytes of the
  wire: a receipt record holds the ``BATCH`` payload exactly as it was
  read, delta frames included, with the number of the inbound connection
  whose chain decodes it.

**Group commit.**  :meth:`ReplicaWAL.append` only buffers;
:meth:`ReplicaWAL.flush` hands every buffered record to the OS in one
write.  The flush is the node's barrier: no frame leaves the node while a
record is unflushed, so an ack, a reply or a copy on the wire always
speaks of durable state, and one write covers a whole wake-up's records.

Recovery folds the checkpoint records — the last record's state plus
every record's history, in order — and replays the log tail.  Replay
is deterministic: a ``WRITE`` record re-executes the original
``replica.write`` at its recorded time, regenerating the *identical*
update id and outgoing copies (the protocol derives both from durable
replica state) and delivering the copies to co-hosted tenants as the live
write did; a ``DELIVER`` record decodes its bytes on its connection's
delta chain and re-applies the batch; an ``ACK`` record re-settles its
copies.  A SIGKILL can truncate the final record mid-write — the replay
parser stops at the torn tail and the reopened log truncates it away,
exactly the prefix-durability a write-ahead log promises.

Compaction runs when the log outgrows ``compact_bytes``: create the empty
next-generation log, append a checkpoint record naming it and fsync the
checkpoint file — the commit point — then delete the old log.  The
generation stored *inside* the last complete record names the log that
extends it, so a crash anywhere in a compaction recovers an unambiguous
pair: the checkpoint file's torn tail is the uncommitted record, cut
away like the log's.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, IO, List, Optional, Tuple

from ..core.counters import counter, gauge
from ..core.protocol import ReplicaSnapshot, UpdateId, UpdateMessage
from ..core.registers import Register, ReplicaId
from ..wire.batch import MessageBatch, decode_batch, encode_batch
from ..wire.codecs import decode_value, encode_value
from ..wire.primitives import (
    WireFormatError,
    decode_atom,
    decode_uvarint,
    encode_atom,
    encode_uvarint,
    encode_uvarint_into,
)
from .framing import MAX_FRAME_SIZE, encode_frame

Channel = Tuple[ReplicaId, ReplicaId]

# Record kinds (disjoint from repro.net.frames kinds only by convention;
# the namespaces never share a stream).
W_WRITE = 1
W_READ = 2
W_DELIVER = 3
W_ACK = 4
#: The checkpoint file's one record kind.
C_CHECKPOINT = 5


@dataclass
class WalCheckpoint:
    """One replica's full durable state at a compaction point.

    ``replica``'s :attr:`~repro.core.protocol.ReplicaSnapshot.history`
    entries, ``streams`` and ``apply_times`` are the history: the
    replica's trace, lists and insertion-ordered dicts that only ever gain
    entries (no key is re-set or removed), so a checkpoint record stores
    their new tails.  The rest is state, stored whole by
    every record.
    """

    replica: ReplicaSnapshot
    sent_log: Dict[ReplicaId, Dict[UpdateId, UpdateMessage]]
    outbox_total: Dict[ReplicaId, int]
    streams: Dict[Channel, List[UpdateId]]
    apply_times: Dict[UpdateId, float]
    #: The log generation this checkpoint is extended by.
    generation: int = 0

    def histories(self) -> Dict[tuple, Any]:
        """Every append-only part, keyed by where it lives."""
        parts: Dict[tuple, Any] = {("apply_times",): self.apply_times}
        for channel, uids in self.streams.items():
            parts[("streams", channel)] = uids
        for name in self.replica.history:
            parts[("replica", name)] = self.replica.state[name]
        return parts

    def without_history(self) -> "WalCheckpoint":
        """The replaceable state: this checkpoint with every history emptied."""
        replica = self.replica
        state = {name: value for name, value in replica.state.items()
                 if name not in replica.history}
        return WalCheckpoint(
            replica=ReplicaSnapshot(replica.replica_id, state, replica.history),
            sent_log=self.sent_log, outbox_total=self.outbox_total,
            streams={}, apply_times={}, generation=self.generation,
        )

    def with_history(self, histories: Dict[tuple, Any]) -> "WalCheckpoint":
        """Inverse of :meth:`without_history`: put ``histories`` back in."""
        for path, entries in histories.items():
            if path[0] == "replica":
                self.replica.state[path[1]] = entries
            elif path[0] == "streams":
                self.streams[path[1]] = entries
            else:
                setattr(self, path[0], entries)
        return self


@dataclass
class NodeCheckpoint:
    """One node's full durable state at a compaction point: every
    tenant's :class:`WalCheckpoint` and the inbound delta chains.

    A history's path is its tenant's path prefixed by the tenant id, so
    :func:`encode_checkpoint_record` and :func:`fold_checkpoint_records`
    treat the node like one replica.
    """

    tenants: Dict[ReplicaId, WalCheckpoint]
    #: Each open inbound connection's delta-decoder bases, by connection
    #: number: the last timestamp decoded per channel, which the next
    #: delta frame on that connection is applied to.
    decoder_bases: Dict[int, Dict[Channel, Any]] = field(default_factory=dict)
    #: The number the node's next inbound connection gets.
    next_connection: int = 0
    #: The log generation this checkpoint is extended by.
    generation: int = 0

    def histories(self) -> Dict[tuple, Any]:
        return {(rid, *path): history
                for rid, state in self.tenants.items()
                for path, history in state.histories().items()}

    def without_history(self) -> "NodeCheckpoint":
        return NodeCheckpoint(
            tenants={rid: state.without_history()
                     for rid, state in self.tenants.items()},
            decoder_bases=self.decoder_bases,
            next_connection=self.next_connection,
            generation=self.generation,
        )

    def with_history(self, histories: Dict[tuple, Any]) -> "NodeCheckpoint":
        by_tenant: Dict[ReplicaId, Dict[tuple, Any]] = {}
        for path, entries in histories.items():
            by_tenant.setdefault(path[0], {})[path[1:]] = entries
        for rid, parts in by_tenant.items():
            self.tenants[rid].with_history(parts)
        return self


# ----------------------------------------------------------------------
# Checkpoint records: history appended, state replaced
# ----------------------------------------------------------------------

def _appended(history: Any, mark: int) -> Any:
    """The entries ``history`` (a replica trace, a list or an
    insertion-ordered dict) gained past its first ``mark``."""
    if len(history) < mark:
        raise ValueError(
            f"a history shrank from {mark} to {len(history)} entries "
            "since the previous checkpoint record"
        )
    if isinstance(history, dict):
        return dict(islice(history.items(), mark, None))
    return history[mark:]


def encode_checkpoint_record(state: WalCheckpoint,
                             marks: Dict[tuple, int]) -> bytes:
    """One checkpoint record: ``state`` whole, minus every history, plus
    each history's entries past its ``marks`` length (0 when unmarked).

    Layout ``[uvarint n][n bytes: pickled history tails][pickled state]``
    lets recovery unpickle every record's history but only the last
    record's state.
    """
    tails = {path: _appended(history, marks.get(path, 0))
             for path, history in state.histories().items()}
    history = pickle.dumps(tails, protocol=pickle.HIGHEST_PROTOCOL)
    return (encode_uvarint(len(history)) + history
            + pickle.dumps(state.without_history(), protocol=pickle.HIGHEST_PROTOCOL))


def decode_checkpoint_history(payload: bytes) -> Tuple[Dict[tuple, Any], int]:
    """A record's history tails, and the offset its state starts at."""
    size, offset = decode_uvarint(payload)
    return pickle.loads(payload[offset:offset + size]), offset + size


def fold_checkpoint_records(payloads: List[bytes]) -> Optional[WalCheckpoint]:
    """The checkpoint a run of records adds up to: the last record's
    state, every record's history tails concatenated in order."""
    if not payloads:
        return None
    histories: Dict[tuple, Any] = {}
    for payload in payloads:
        tails, state_at = decode_checkpoint_history(payload)
        for path, entries in tails.items():
            folded = histories.setdefault(path, entries)
            if folded is entries:
                continue
            if isinstance(folded, dict):
                folded.update(entries)
            else:
                folded.extend(entries)
    last: WalCheckpoint = pickle.loads(payloads[-1][state_at:])
    return last.with_history(histories)


# ----------------------------------------------------------------------
# Record payload codecs (wire primitives, same trust domain as the log)
# ----------------------------------------------------------------------

def encode_write_record(register: Register, value: Any, at: float) -> bytes:
    return encode_atom(register) + encode_value(value) + encode_value(at)


def decode_write_record(payload: bytes, offset: int = 0
                        ) -> Tuple[Register, Any, float]:
    register, offset = decode_atom(payload, offset)
    value, offset = decode_value(payload, offset)
    at, _ = decode_value(payload, offset)
    return register, value, at


def encode_read_record(register: Register, at: float) -> bytes:
    return encode_atom(register) + encode_value(at)


def decode_read_record(payload: bytes, offset: int = 0
                       ) -> Tuple[Register, float]:
    register, offset = decode_atom(payload, offset)
    at, _ = decode_value(payload, offset)
    return register, at


def encode_deliver_record(received_at: float, batch: MessageBatch,
                          codec: Any) -> bytes:
    """A standalone deliver record: ``batch`` re-encoded as full frames,
    which replay with no delta-chain context.  A live node logs the bytes
    it received instead (:func:`encode_receipt_head`)."""
    data, _ = encode_batch(batch, encoder=None, codec=codec)
    return encode_value(received_at) + data


def decode_deliver_record(payload: bytes) -> Tuple[float, MessageBatch]:
    received_at, offset = decode_value(payload)
    batch, _ = decode_batch(payload, offset=offset, decoder=None)
    return received_at, batch


def encode_receipt_head(received_at: float, connection: int) -> bytes:
    """The head of a node's ``DELIVER`` record; the received ``BATCH``
    payload follows it unchanged.  Replay decodes that payload on
    ``connection``'s delta chain, so a chain may cross any record
    boundary, a compaction (the checkpoint keeps the chain's bases) or a
    restart."""
    return encode_value(received_at) + encode_uvarint(connection)


def decode_receipt_head(payload: bytes, offset: int = 0
                        ) -> Tuple[float, int, int]:
    """``(received_at, connection, offset of the batch payload)``."""
    received_at, offset = decode_value(payload, offset)
    connection, offset = decode_uvarint(payload, offset)
    return received_at, connection, offset


def encode_ack_record(destination: ReplicaId, uids: List[UpdateId]) -> bytes:
    from . import frames

    return encode_atom(destination) + frames.encode_uid_list(uids)


def decode_ack_record(payload: bytes, offset: int = 0
                      ) -> Tuple[ReplicaId, List[UpdateId]]:
    from . import frames

    destination, offset = decode_atom(payload, offset)
    uids, _ = frames.decode_uid_list(payload, offset)
    return destination, uids


def _parse_records(data: bytes) -> Tuple[List[Tuple[int, bytes]], int]:
    """Parse framed records; returns ``(records, valid byte length)``.

    Stops — without raising — at a torn tail: a truncated length prefix,
    kind byte or body ends the valid log, which is exactly what a crash
    mid-append leaves behind.
    """
    records: List[Tuple[int, bytes]] = []
    offset = 0
    size = len(data)
    while offset < size:
        try:
            body, after = decode_uvarint(data, offset)
        except WireFormatError:
            break
        if body <= 0 or body > MAX_FRAME_SIZE or after + body > size:
            break
        records.append((data[after], bytes(data[after + 1:after + body])))
        offset = after + body
    return records, offset


@dataclass(eq=False)
class WalCounters:
    """A log's counters over its process's life (a diskless node's are 0)."""

    wal_bytes: int = gauge("bytes appended to the current log generation")
    records_appended: int = counter("log records appended", name="wal_records")
    flushes: int = counter("writes that flushed buffered records to the OS", name="wal_flushes")
    compactions: int = counter("compactions into a checkpoint", name="wal_compactions")
    checkpoint_seconds: float = counter("wall seconds spent compacting",
                                        name="wal_checkpoint_seconds", default=0.0)
    checkpoint_bytes: int = counter("checkpoint bytes appended", name="wal_checkpoint_bytes")


class ReplicaWAL(WalCounters):
    """A durable state: a checkpoint plus an append-only log.

    ``append`` is the per-operation hot path: one framed record into a
    buffer — O(record), never O(state), no system call.  ``flush`` hands
    the buffer to the OS in one write.  ``checkpoint`` is the rare path
    and the only place the state is serialised: whole, but the history
    only from where the previous checkpoint record left it.

    The files are named ``node-<replica_id>``: a live node opens one log
    under its node id.  The log is its own counter book
    (:class:`WalCounters`).
    """

    def __init__(self, directory: str, replica_id: ReplicaId,
                 compact_bytes: int = 1 << 18) -> None:
        super().__init__()
        self.directory = directory
        self.replica_id = replica_id
        self.compact_bytes = compact_bytes
        self._stem = f"node-{replica_id}"
        self.checkpoint_path = os.path.join(directory, f"{self._stem}.ckpt")
        self.generation = 0
        self._log: Optional[IO[bytes]] = None
        #: Framed records appended but not yet flushed to the OS.
        self._pending = bytearray()
        #: Entries of each history the checkpoint file already holds.
        self._marks: Dict[tuple, int] = {}

    def _log_path(self, generation: int) -> str:
        return os.path.join(self.directory, f"{self._stem}.wal.{generation}")

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def load(self) -> Tuple[Optional[WalCheckpoint], List[Tuple[int, bytes]]]:
        """Read the durable pair; opens the log for appending.

        Returns ``(checkpoint or None, log records after it)``; the
        checkpoint is the fold of the checkpoint file's records.  A torn
        final record of either file is truncated away — in the checkpoint
        file it is a compaction that never committed, so the previous
        record and its log remain authoritative; stale log generations
        from interrupted compactions are deleted.
        """
        saved: List[Tuple[int, bytes]] = []
        if os.path.exists(self.checkpoint_path):
            with open(self.checkpoint_path, "r+b") as handle:
                saved, valid = _parse_records(handle.read())
                handle.truncate(valid)
        checkpoint = fold_checkpoint_records(
            [payload for kind, payload in saved if kind == C_CHECKPOINT]
        )
        if checkpoint is not None:
            self.generation = checkpoint.generation
            self._marks = {path: len(history)
                           for path, history in checkpoint.histories().items()}
        records: List[Tuple[int, bytes]] = []
        valid = 0
        path = self._log_path(self.generation)
        if os.path.exists(path):
            with open(path, "rb") as handle:
                records, valid = _parse_records(handle.read())
        self._open_log(truncate_to=valid if os.path.exists(path) else None)
        self._cleanup_stale()
        return checkpoint, records

    def _open_log(self, truncate_to: Optional[int] = None) -> None:
        # Unbuffered: the pending buffer is the only buffer, and a flush
        # is exactly one write.
        path = self._log_path(self.generation)
        if truncate_to is not None:
            self._log = open(path, "r+b", buffering=0)
            self._log.truncate(truncate_to)
            self._log.seek(truncate_to)
            self.wal_bytes = truncate_to
        else:
            self._log = open(path, "wb", buffering=0)
            self.wal_bytes = 0

    def _cleanup_stale(self) -> None:
        prefix = f"{self._stem}.wal."
        for name in os.listdir(self.directory):
            if not name.startswith(prefix):
                continue
            try:
                generation = int(name[len(prefix):])
            except ValueError:
                continue
            if generation != self.generation:
                os.unlink(os.path.join(self.directory, name))

    # ------------------------------------------------------------------
    # The hot path
    # ------------------------------------------------------------------
    def append(self, kind: int, payload: bytes, tail: bytes = b"") -> None:
        """Buffer one record: ``kind`` framed around ``payload + tail``
        (two parts, so a received payload is framed without a copy of
        its own).  Durable only after the next :meth:`flush`."""
        size = 1 + len(payload) + len(tail)
        if size > MAX_FRAME_SIZE:
            raise WireFormatError(
                f"record of {size} bytes exceeds MAX_FRAME_SIZE ({MAX_FRAME_SIZE})"
            )
        pending = self._pending
        start = len(pending)
        encode_uvarint_into(pending, size)
        pending.append(kind)
        pending += payload
        pending += tail
        self.wal_bytes += len(pending) - start
        self.records_appended += 1

    def flush(self) -> None:
        """Hand every buffered record to the OS in one write.

        The write makes the records SIGKILL-durable (the process can die,
        the kernel keeps the page); full power-loss durability would add
        an fsync here, a policy knob the fault model does not require —
        the crash injector kills processes, not the machine.
        """
        if not self._pending:
            return
        if self._log is None:
            self._open_log()
        data, self._pending = self._pending, bytearray()
        written = self._log.write(data)
        while written < len(data):
            written += self._log.write(data[written:])
        self.flushes += 1

    def should_compact(self) -> bool:
        return self.wal_bytes >= self.compact_bytes

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def checkpoint(self, state: WalCheckpoint) -> None:
        """Fold the log into the checkpoint file: append one record.

        History is appended, state is replaced: the record holds ``state``
        minus its histories, plus what each history gained since the
        previous record (:func:`encode_checkpoint_record`) — O(state +
        delta).  ``state`` is pickled as it stands, uncopied, so it may
        be the live state.

        Crash-window analysis, step by step: (1) the next-generation log is
        created empty — a crash now leaves it stale, cleaned up on the next
        load; (2) the record is appended to the checkpoint file and
        **fsynced before anything is deleted** — a crash mid-append leaves
        a torn tail, which the next load cuts away, recovering the
        previous record and the old log; (3) the fsync returning is the
        commit point — from then on recovery sees the new record and the
        empty new log; (4) the old log is deleted — a crash first leaves
        an orphan, cleaned up on the next load.
        """
        started = time.perf_counter()
        # ``state`` holds the buffered records' effects, but until the
        # record below commits the old log is what recovery reads.
        self.flush()
        next_generation = self.generation + 1
        state.generation = next_generation
        frame = encode_frame(C_CHECKPOINT, encode_checkpoint_record(state, self._marks))
        next_log = open(self._log_path(next_generation), "wb", buffering=0)
        with open(self.checkpoint_path, "ab") as handle:
            handle.write(frame)
            handle.flush()
            os.fsync(handle.fileno())
        self._marks = {path: len(history)
                       for path, history in state.histories().items()}
        old_log, old_path = self._log, self._log_path(self.generation)
        self.generation = next_generation
        self._log = next_log
        self.wal_bytes = 0
        if old_log is not None:
            old_log.close()
        if os.path.exists(old_path):
            os.unlink(old_path)
        self.compactions += 1
        self.checkpoint_bytes += len(frame)
        self.checkpoint_seconds += time.perf_counter() - started

    def close(self) -> None:
        self.flush()
        if self._log is not None:
            self._log.close()
            self._log = None
