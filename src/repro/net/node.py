"""One live node: an asyncio process hosting many replicas over TCP.

A :class:`LiveNode` hosts a set of :class:`~repro.core.protocol.CausalReplica`
*tenants* — the paper's algorithm by default — behind a single listener, and
decouples the logical communication graph from the physical one:

* **one peer stream per ordered node pair**: instead of one TCP connection
  per directed share-graph edge, a node opens exactly one connection to
  each peer node it has traffic for and multiplexes every channel between
  replicas on the two nodes onto it.  A :class:`~repro.wire.batch.MessageBatch`
  envelope already names its channel, so frames from many channels
  interleave with no extra tag and the receiver demultiplexes by
  destination replica.  FD count drops from O(|E|) to O(hosts²);
* **per-channel FIFO, batching, delta chains and acks, preserved per
  tag**: a channel's window, sequence numbers, delta chain and
  unacknowledged copies live in the stream's
  :class:`~repro.wire.channel.ChannelSender` — the state machine the
  simulator's transport drives too, here in seconds.  The window is the
  only place a copy waits.  A client write that would add a copy to a
  window already holding ``SEND_QUEUE_LIMIT`` copies is not performed
  yet: the connection parks (backpressure), and the write and the rest of
  its chunk wait until a send pass drains the window.  ACK/SYNC frames ride the
  stream tagged with the replica they speak for.  TCP loses a copy only
  with its connection, so there is no resend timer: a reconnect severs
  all of the stream's channels at once and re-sends every unacknowledged
  copy, and duplicate suppression keeps delivery exactly-once;
* **ack-clocked flushing** (Nagle's rule, RFC 896): a stream with no
  copy on the wire sends every open window at once; while copies are
  outstanding a window waits until the ACK that empties the wire, until
  it holds ``max_messages`` copies, or until its ``max_delay`` deadline —
  the upper bound at saturation and after a reconnect rewinds copies
  into their windows.  A copy on an idle stream pays no batching wait,
  and a loaded stream still batches, clocked by the ACK round trip;
* **intra-node short-circuit**: a channel between two tenants of the same
  node never touches a socket, a codec or a sent-log — the write delivers
  its co-hosted copies itself, at the write's own time, through the
  in-process batch-apply path (:meth:`ReplicaHost.deliver`), and the
  write's one log record stands for them;
* **one socket write per wake-up**: an inbound connection is an
  :class:`asyncio.Protocol`, and its read callback runs every frame of
  the received chunk through the per-frame handlers, synchronously, then
  answers them — ``OP_REPLY``, ``SYNC``, ``STATS``, ``REPORT`` in frame
  order, then one ``ACK`` per destination replica for all of the chunk's
  batches — with one write.  A peer stream's send-loop pass encodes
  every due window into one buffer and writes it once.  The per-frame
  handlers only append to that buffer or to the chunk's acks;
* **one write-ahead log per node** (:mod:`repro.net.wal`): with a
  ``durable_dir`` configured every state change appends one O(delta),
  tenant-tagged record to the node's log — client writes and reads as
  replayable operations (a write's record covers its intra-node copies),
  received batches as the bytes that arrived with their inbound
  connection's number, acks as sent-log settles.  An append only
  buffers: the node flushes the buffer in one write before each socket
  write — the flush barrier, no frame leaves while a record is unflushed
  — and compacts into a checkpoint after a flush.  A SIGKILLed node
  replays checkpoint + log tail in file order and resyncs over the
  ``SYNC`` exchange, exactly like a simulated crash.

The node is the :class:`~repro.core.host.ReplicaHost` of all of its
tenants, as the simulator's host is of all of its replicas: one clock, one
:class:`~repro.core.host.RunMetrics`, one issue book and one tracer.  Event
traces, first-receipt streams and the consistency check stay per-replica,
so the simulator stays the executable spec.

Nodes are normally spawned by :class:`~repro.net.runtime.LiveCluster`; the
module-level :func:`node_main` is the process entry point.
"""

from __future__ import annotations

import asyncio
import pickle
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..core.counters import GAUGE, counter, exported, gauge, samples_of, values_of
from ..core.host import ReplicaHost
from ..core.protocol import CausalReplica, Known, UpdateId, UpdateMessage
from ..core.registers import Register, ReplicaId
from ..core.replica import edge_indexed_factory
from ..core.share_graph import ShareGraph
from ..wire.batch import decode_batch
from ..wire.channel import (
    BatchingConfig,
    ChannelDeltaDecoder,
    ChannelSender,
    ChannelWireStats,
)
from ..wire.primitives import WireFormatError, decode_atom, encode_atom
from . import frames
from . import wal as wal_records
from .framing import Frame, StreamDecoder, encode_frame, encode_frame_into
from .wal import NodeCheckpoint, ReplicaWAL, WalCheckpoint, WalCounters

Channel = Tuple[ReplicaId, ReplicaId]
Address = Tuple[str, int]
#: Node identifiers are atoms (ints or short strings), like replica ids.
NodeId = Any


def _id_order(value: Any) -> Tuple[bool, Any]:
    """Deterministic sort key for mixed int/str atom identifiers."""
    return (isinstance(value, str), value)


#: The live batching window, in seconds: 16 messages / 2 ms.  A live
#: stream flushes on the ack clock; the 2 ms deadline only bounds a
#: window's wait while copies of its stream are unacknowledged.
DEFAULT_BATCHING = BatchingConfig(max_messages=16, max_delay=0.002)
#: Copies a channel's window holds before a client write that would add
#: one parks its connection, and a resync waits (backpressure).
SEND_QUEUE_LIMIT = 4096
#: First and longest wait between connection attempts to a peer, seconds.
RECONNECT_BACKOFF = 0.05
RECONNECT_BACKOFF_MAX = 1.0


@dataclass(frozen=True)
class NodeConfig:
    """Everything one node process needs to boot (picklable for spawn)."""

    node_id: NodeId
    share_graph: ShareGraph
    #: The replicas this node hosts.
    replica_ids: Tuple[ReplicaId, ...]
    #: Cluster-wide placement: replica id → hosting node id.  Replicas
    #: absent from the map are assumed to live on a node named after them
    #: (the single-tenant default).
    replica_nodes: Mapping[ReplicaId, NodeId] = field(default_factory=dict)
    listen_host: str = "127.0.0.1"
    listen_port: int = 0
    #: Initial peer-node address map; updated at runtime by ``ADDR`` frames
    #: and stream hellos (a restarted peer announces its new port).
    peers: Mapping[NodeId, Address] = field(default_factory=dict)
    replica_factory: Callable[[ShareGraph, ReplicaId], CausalReplica] = (
        edge_indexed_factory
    )
    #: The batching window, in seconds (see :mod:`repro.wire.channel`).
    batching: BatchingConfig = DEFAULT_BATCHING
    #: Directory for the node's checkpoint + WAL files; ``None`` runs
    #: diskless (no crash recovery).
    durable_dir: Optional[str] = None
    #: Compact the node's log into a checkpoint once it exceeds this size.
    wal_compact_bytes: int = 1 << 18
    #: Wall-clock epoch all host times are measured from (the launcher's
    #: start time, shared by every node so latencies compose).
    clock_origin: float = 0.0
    #: Record the message-lifecycle trace (issue/send/wire/deliver/apply
    #: stamps, wall time relative to ``clock_origin``); off by default —
    #: the untraced hot path pays one ``is not None`` check per hook.
    tracing: bool = False
    #: Push a ``TELEMETRY`` frame (queue depths, wire-byte counters,
    #: transport footprint, WAL counters) over every open control
    #: connection each interval; ``0`` disables.
    telemetry_interval: float = 0.0


@dataclass(slots=True)
class TenantCounters:
    """One tenant's counters: the REPORT's ``counters``, TELEMETRY's
    ``repro_node_*_total{replica}`` and, summed over a node's tenants, the
    STATS frame's."""

    ops_done: int = counter("client operations completed")
    issued: int = counter("updates issued locally")
    enqueued: int = counter("messages handed to a channel or to the intra-node short-circuit")
    sent: int = counter("messages flushed onto the wire (reconnect re-sends included)")
    received: int = counter("messages read off the wire (duplicates included)")
    delivered: int = counter("first receipts (duplicates suppressed)")
    duplicates: int = counter("duplicate copies suppressed")
    resyncs: int = counter("SYNC anti-entropy exchanges answered")
    delta_frames: int = counter("timestamp frames shipped as deltas")
    full_frames: int = counter("timestamp frames shipped in full (delta fallbacks)")


@dataclass(slots=True)
class NodeCounters:
    """A node's own counters (its tenants keep theirs), exported with its
    gauges and its log's counters as the REPORT's ``transport``."""

    socket_writes: int = counter("socket writes: chunks answered, send-loop passes, hellos, pushes")
    ack_frames: int = counter("ACK frames sent: one per destination replica per chunk of batches")
    misrouted_batches: int = counter("inbound batches dropped unacknowledged: no such tenant here")
    corrupt_streams: int = counter("connections dropped for a corrupt or misaligned stream")
    inbound_resets: int = counter("inbound connections lost to a socket error")
    control_connections: int = gauge("open control connections")


class _Tenant:
    """One hosted replica and its durable books.

    The replica, the outbox totals, the first-receipt streams, the apply
    times and the counters.  Its clock, metrics, issue book and tracer are
    the node's, the host of every tenant.  The sending half of its
    channels — windows, unacked copies, sent-log, byte books — lives in
    the node's per-peer senders, and its log records in the node's log.
    """

    def __init__(self, node: "LiveNode", replica_id: ReplicaId) -> None:
        config = node.config
        self.node = node
        self.replica_id = replica_id
        self.replica = config.replica_factory(config.share_graph, replica_id)
        #: Total updates ever logged per destination (survives pruning and
        #: crashes; the launcher's drain books compare this against the
        #: receiver's first-receipt count).
        self.outbox_total: Dict[ReplicaId, int] = {}
        #: First-receipt uid stream per incoming channel (differential data).
        self.streams: Dict[Channel, List[UpdateId]] = {}
        #: Wall-relative apply time per uid (cross-node latency joins).
        self.apply_times: Dict[UpdateId, float] = {}
        self.counters = TenantCounters()
        #: This tenant's tag, the head of each of its log records.
        self.tag = encode_atom(replica_id)
        self.recovered = False

    def checkpoint_state(self, sent_log: Dict[ReplicaId, Dict[UpdateId, UpdateMessage]]
                         ) -> WalCheckpoint:
        """The live state, uncopied: the checkpoint's pickle is the copy."""
        return WalCheckpoint(
            replica=self.replica.durable_view(),
            sent_log=sent_log,
            outbox_total=self.outbox_total,
            streams=self.streams,
            apply_times=self.apply_times,
        )

    # ------------------------------------------------------------------
    # Client operations (served, or replayed with ``log=False``)
    # ------------------------------------------------------------------
    def write(self, register: Register, value: Any, at: float,
              log: bool = True) -> List[UpdateMessage]:
        """Issue a write at host time ``at`` and deliver its co-hosted
        copies at the same time; the copies bound for other nodes enter
        the sent-log and are returned for the caller to route.  Every copy
        enters the drain books.

        Replay is deterministic: the replica derives the uid and the
        outgoing copies from durable state, so re-executing a ``W_WRITE``
        record at its recorded time regenerates both — and the co-hosted
        deliveries — exactly (``log=False``: the record is already in the
        log).  That one record is all an intra-node copy costs the log.
        """
        node = self.node
        update, messages = node.perform_write(
            self.replica_id, register, value, at=at
        )
        counters = self.counters
        counters.issued += 1
        counters.ops_done += 1
        self.apply_times[update.uid] = at
        if log and node.wal is not None:
            # One O(delta) record instead of a whole-state snapshot.
            node.wal.append(wal_records.W_WRITE, self.tag,
                            wal_records.encode_write_record(register, value, at))
        hosting, outbox, tenants = node.config.replica_nodes, self.outbox_total, node.tenants
        remote = []
        for message in messages:
            destination = message.destination
            outbox[destination] = outbox.get(destination, 0) + 1
            if destination in tenants:
                self._deliver_intra(tenants[destination], message, at)
            else:
                node.senders[hosting.get(destination, destination)].log(message)
                remote.append(message)
        return remote

    def _deliver_intra(self, destination: "_Tenant", message: UpdateMessage,
                       at: float) -> None:
        """The short-circuit: co-hosted delivery with no socket, no codec
        and no sent-log, at the write's own time."""
        counters = self.counters
        counters.enqueued += 1
        counters.sent += 1
        channel = (message.sender, message.destination)
        tracer = self.node.tracer
        if tracer is not None:
            uid = message.update.uid
            tracer.record("send", uid, channel[0], channel[1], at)
            tracer.record("wire", uid, channel[0], channel[1], at)
        self.node._deliver(destination, channel, [message], at)

    def read(self, register: Register, at: float, log: bool = True) -> Any:
        """Serve a read from the local copy at host time ``at``."""
        value = self.node.perform_read(self.replica_id, register, at=at)
        self.counters.ops_done += 1
        if log and self.node.wal is not None:
            # The READ trace event is durable state too.
            self.node.wal.append(wal_records.W_READ, self.tag,
                                 wal_records.encode_read_record(register, at))
        return value

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @exported(GAUGE, "updates waiting in the pending buffer")
    def pending_depth(self) -> int:
        return self.replica.pending_count()

    def telemetry_samples(self) -> List[Tuple[str, tuple, float]]:
        me = (("replica", str(self.replica_id)),)
        return (samples_of(self.counters, "repro_node_", me)
                + samples_of(self, "repro_node_", me))

    def report(self) -> Dict[str, Any]:
        """The per-replica report the launcher folds into the cluster view."""
        events = self.replica.events
        return {
            "replica_id": self.replica_id,
            # The trace's columns: pickled at once, so nothing shares them.
            "events": events,
            "store": dict(self.replica.store),
            "streams": {
                channel: list(uids) for channel, uids in self.streams.items()
            },
            "issue_times": events.issue_times(),
            "apply_times": dict(self.apply_times),
            "metadata_size": self.replica.metadata_size(),
            "counters": values_of(self.counters),
            "recovered": self.recovered,
        }


class _PeerStream:
    """The sending half of one ordered node pair.

    Drives the :class:`~repro.wire.channel.ChannelSender` of every channel
    into ``peer`` and keeps what only a socket needs: the one TCP
    connection, the reconnect loop and the ACK/SYNC reply reader.  A copy
    waits in its channel's window and nowhere else.  Which windows are
    open and what is unacknowledged is the sender's to say, so nothing is
    lost with a connection: a fresh one severs every channel, puts every
    unacknowledged copy back at the head of its window, and the send loop
    picks the windows up again.  One send-loop task drains every channel —
    tasks scale with node pairs, not share-graph edges.
    """

    def __init__(self, node: "LiveNode", peer: NodeId) -> None:
        self.node = node
        self.peer = peer
        self.sender = node.senders[peer]
        #: A window opened or filled up, or an ACK emptied the wire under an
        #: open window: the send loop has work.
        self._wake = asyncio.Event()
        #: The send loop wrote a pass: blocked producers look again.
        self._written = asyncio.Event()
        #: Inbound connections parked on a full window of this stream; the
        #: next written pass resumes them.
        self.waiting: List["_Inbound"] = []
        #: The reply reader hit a corrupt frame: the connection must go.
        self._replies_corrupt = False
        self.connected = False

    async def enqueue(self, message: UpdateMessage) -> None:
        """Join the channel's window; blocks while it holds
        ``SEND_QUEUE_LIMIT`` copies."""
        channel = (message.sender, message.destination)
        windows = self.sender.windows
        while channel in windows and len(windows[channel].messages) >= SEND_QUEUE_LIMIT:
            self._written.clear()
            await self._written.wait()
        self.add(message)

    def add(self, message: UpdateMessage) -> None:
        """Join the channel's window now (the caller checked its room)."""
        self.node.tenants[message.sender].counters.enqueued += 1
        tracer = self.node.tracer
        if tracer is not None:
            tracer.record("send", message.update.uid,
                          message.sender, message.destination, self.node.now)
        full, opened = self.sender.add(message, time.monotonic())
        if full or opened is not None:
            self._wake.set()

    # ------------------------------------------------------------------
    # The stream task
    # ------------------------------------------------------------------
    async def run(self) -> None:
        backoff = RECONNECT_BACKOFF
        while not self.node.stopping.is_set():
            address = self.node.addresses.get(self.peer)
            if address is None:
                await asyncio.sleep(backoff)
                continue
            try:
                reader, writer = await asyncio.open_connection(*address)
            except OSError:
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, RECONNECT_BACKOFF_MAX)
                continue
            backoff = RECONNECT_BACKOFF
            self.connected = True
            # A fresh connection is a fresh byte stream for every channel.
            self.sender.sever()
            self._replies_corrupt = False
            reply_task = asyncio.create_task(self._read_replies(reader))
            try:
                self.node.commit()
                writer.write(encode_frame(
                    frames.HELLO,
                    frames.encode_hello(self.node.node_id, self.node.port),
                ))
                self.node.counters.socket_writes += 1
                await writer.drain()
                # Unacked survivors of the previous connection go first.
                self.sender.rewind(time.monotonic())
                await self._send_loop(writer)
            except (OSError, ConnectionError, asyncio.IncompleteReadError):
                pass
            finally:
                self.connected = False
                reply_task.cancel()
                writer.close()
                try:
                    await writer.wait_closed()
                except (OSError, ConnectionError, asyncio.CancelledError):
                    # Cancelled only by serve()'s teardown, with ``stopping``
                    # set: the loop condition ends the task quietly.
                    pass

    async def _send_loop(self, writer: asyncio.StreamWriter) -> None:
        sender = self.sender
        limit = sender.batching.max_messages
        while True:
            if self._replies_corrupt:
                raise ConnectionResetError("corrupt reply stream")
            stopping = self.node.stopping.is_set()
            # Ack-clocked (Nagle's rule): with nothing of this stream on the
            # wire every open window is due; otherwise a window is due when
            # full, expired or closing, and note_acked wakes the loop once
            # an ACK empties the wire.  Due windows are encoded a batch at a
            # time into one buffer; the rest say how long to sleep.  The
            # sender is asked every pass, so a window opened under an
            # earlier connection is served like any other.
            idle = sender.unacked == 0
            now = time.monotonic()
            soonest = None
            out = bytearray()
            for channel, window in list(sender.windows.items()):
                while channel in sender.windows and (
                        stopping or idle or window.deadline <= now
                        or len(window.messages) >= limit):
                    self._flush(out, channel, now)
                if channel in sender.windows and (
                        soonest is None or window.deadline < soonest):
                    soonest = window.deadline
            if out:
                # One write and one drain for every frame of the pass, after
                # the log flush that makes the copies' writes durable.
                self.node.commit()
                writer.write(out)
                self.node.counters.socket_writes += 1
                await writer.drain()
                self._written.set()
                if self.waiting:
                    # Parked connections look again, in the order they
                    # parked, each in its own callback.
                    loop = asyncio.get_running_loop()
                    for connection in self.waiting:
                        loop.call_soon(connection.resume)
                    self.waiting = []
            if stopping and not sender.windows:
                return  # every window flushed
            # Sleep until new traffic, the ACK that empties the wire, or the
            # earliest window deadline.
            timeout = None
            if soonest is not None:
                timeout = max(0.0, soonest - time.monotonic())
            try:
                await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass
            self._wake.clear()

    def _flush(self, out: bytearray, channel: Channel, now: float) -> None:
        """Append one window's ``BATCH`` frame to the pass's buffer."""
        src, dst = channel
        tenant = self.node.tenants[src]
        # Flushed before the pass's write: on a connection error the copies
        # are already outstanding and the reconnect re-sends them.
        flushed = self.sender.flush(channel, tenant.replica.wire_codec(), now)
        counters = tenant.counters
        counters.sent += len(flushed.batch.messages)
        counters.delta_frames += flushed.sizes.delta_frames
        counters.full_frames += flushed.sizes.full_frames
        tracer = self.node.tracer
        if tracer is not None:
            flushed_at = self.node.now
            for message in flushed.batch.messages:
                tracer.record("wire", message.update.uid, src, dst, flushed_at)
        encode_frame_into(out, frames.BATCH, flushed.data)

    async def _read_replies(self, reader: asyncio.StreamReader) -> None:
        """Consume ACK/SYNC frames flowing back on the stream."""
        decoder = StreamDecoder()
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    return
                for kind, payload in decoder.feed(chunk):
                    if kind == frames.ACK:
                        destination, uids = frames.decode_tagged_uids(payload)
                        self.node.note_acked(destination, uids)
                    elif kind == frames.SYNC:
                        destination, known = frames.decode_sync(payload)
                        await self.node.resync(destination, known, self)
                # The chunk's settles reach the OS now, not at the next
                # socket write, which an idle node may never make.
                self.node.commit()
        except WireFormatError:
            # A corrupt reply stream: count it and drop the connection —
            # the send loop ends its pass, and the reconnect re-sends every
            # unacknowledged copy.
            self.node.counters.corrupt_streams += 1
            self._replies_corrupt = True
            self._wake.set()
        except (OSError, ConnectionError, asyncio.CancelledError):
            return

    def queued(self) -> int:
        return sum(len(window.messages) for window in self.sender.windows.values())

    def unacked(self) -> int:
        return self.sender.unacked


class _Inbound(asyncio.Protocol):
    """One inbound connection: a peer stream's receiving end or a client's.

    asyncio hands :meth:`data_received` each chunk the socket produced; the
    chunk's frames run through the node's per-frame handlers right there,
    synchronously, and everything they answer leaves in one write.  A
    client write that would add a copy to a window already holding
    ``SEND_QUEUE_LIMIT`` copies parks the connection: the write is not
    performed, it and the frames after it wait in :attr:`backlog`, the
    connection stops reading, and the send pass that drains the window
    resumes them in frame order.  A full socket buffer stops reading too,
    until the transport drains it.
    """

    def __init__(self, node: "LiveNode") -> None:
        self.node = node
        self.decoder = StreamDecoder()
        #: The connection's number: its receipt records name it, so replay
        #: decodes them on the right delta chain.
        self.connection = node._next_connection
        node._next_connection += 1
        #: The peer stream's delta chains, from its ``HELLO`` on.
        self.deltas: Optional[ChannelDeltaDecoder] = None
        self.control = False
        self.transport: Any = None
        #: The acks of the chunk being handled: destination → uids.
        self.acks: Dict[ReplicaId, List[UpdateId]] = {}
        #: Frames read and not yet handled: a parked write and what followed it.
        self.backlog: List[Frame] = []
        self.parked = False
        self.writing_paused = False

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        self.node._connections[self.connection] = self

    def data_received(self, data: bytes) -> None:
        try:
            received = self.decoder.feed(data)
        except WireFormatError:
            # A corrupt or misaligned stream: drop the connection (the
            # peer's reconnect + resync path recovers), keep the node up.
            self.node.counters.corrupt_streams += 1
            self.transport.close()
            return
        if self.parked:
            self.backlog.extend(received)
        else:
            self._handle(received)

    def resume(self) -> None:
        """The window this connection parked on drained: handle the backlog."""
        if self.transport.is_closing():
            return
        backlog, self.backlog = self.backlog, []
        self.parked = False
        try:
            self._handle(backlog)
        except Exception:
            # What asyncio does when data_received raises: the connection
            # goes, the loop's exception handler reports the error.
            self.transport.abort()
            raise
        if not (self.parked or self.writing_paused):
            self.transport.resume_reading()

    def _handle(self, received: List[Frame]) -> None:
        """Handle frames in order, then answer them with one write: every
        reply in frame order, then one ACK per destination replica for the
        frames' batches.  The frames handled before a ``SHUTDOWN``, a
        corrupt frame or a parked write are answered too."""
        node = self.node
        out = bytearray()
        acks = self.acks = {}
        close = False
        try:
            for index, (kind, payload) in enumerate(received):
                full = node._handle_frame(kind, payload, out, self)
                if full is not None:
                    self.backlog[:0] = received[index:]
                    self.parked = True
                    full.waiting.append(self)
                    self.transport.pause_reading()
                    break
                if node.stopping.is_set():
                    close = True
                    break
        except WireFormatError:
            node.counters.corrupt_streams += 1
            close = True
        finally:
            for destination, uids in acks.items():
                encode_frame_into(out, frames.ACK,
                                  frames.encode_tagged_uids(destination, uids))
            node.counters.ack_frames += len(acks)
            # The records of the handled frames reach the OS in one write,
            # before the acks and replies that speak of them.
            node.commit()
            if out:
                self.transport.write(out)
                node.counters.socket_writes += 1
            if close:
                self.transport.close()

    def pause_writing(self) -> None:
        # The socket buffer is full: read nothing more until it drains.
        self.writing_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.writing_paused = False
        if not self.parked:
            self.transport.resume_reading()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        node = self.node
        if exc is not None:
            node.counters.inbound_resets += 1
        del node._connections[self.connection]
        if self.control:
            node.counters.control_connections -= 1
        self.backlog = []


class LiveNode(ReplicaHost):
    """One live node process: the host of its tenants, their listener,
    peer streams and durability.

    Host time is wall-clock seconds since the cluster's ``clock_origin``.
    Every operation goes through the shared
    :meth:`~repro.core.host.ReplicaHost.perform_write`,
    :meth:`~repro.core.host.ReplicaHost.perform_read` and
    :meth:`~repro.core.host.ReplicaHost.deliver` at an explicit time — the
    time the node read the op or the batch, which is also the time its
    WAL record stores.  The WAL replay passes the recorded time to the same
    calls, so it regenerates the identical event trace.
    """

    def __init__(self, config: NodeConfig) -> None:
        super().__init__(config.share_graph)
        self.config = config
        self.node_id = config.node_id
        self.clock_origin = config.clock_origin or time.time()
        if config.tracing:
            from ..obs.trace import TraceRecorder
            self.tracer = TraceRecorder()
        self.tenants: Dict[ReplicaId, _Tenant] = {
            rid: _Tenant(self, rid) for rid in config.replica_ids
        }
        self._replicas: Dict[ReplicaId, CausalReplica] = {
            rid: tenant.replica for rid, tenant in self.tenants.items()
        }
        self.addresses: Dict[NodeId, Address] = dict(config.peers)
        self.addresses.pop(self.node_id, None)
        #: The sending half of every outgoing channel to a peer node, one
        #: sender per destination node; a co-hosted copy bypasses them and
        #: is delivered inside its write.
        self.senders: Dict[NodeId, ChannelSender] = defaultdict(self._new_sender)
        self.peer_streams: Dict[NodeId, _PeerStream] = {}
        self.stopping = asyncio.Event()
        self.port: int = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._tasks: List[asyncio.Task] = []
        #: Control connections subscribed to TELEMETRY pushes.
        self._telemetry_subscribers: List[_Inbound] = []
        #: The open inbound connections, by connection number.
        self._connections: Dict[int, _Inbound] = {}
        self.counters = NodeCounters()
        #: The node's one write-ahead log (``None``: diskless).
        self.wal: Optional[ReplicaWAL] = None
        if config.durable_dir:
            self.wal = ReplicaWAL(config.durable_dir, self.node_id,
                                  compact_bytes=config.wal_compact_bytes)
        #: The number the next inbound connection gets; its receipt records
        #: name it, so replay decodes them on the right delta chain.
        self._next_connection = 0
        self._recover()

    @property
    def now(self) -> float:
        """Seconds since the cluster's shared clock origin (wall clock)."""
        return time.time() - self.clock_origin

    def _replica_map(self) -> Mapping[ReplicaId, CausalReplica]:
        return self._replicas

    def _hosting_node(self, replica_id: ReplicaId) -> NodeId:
        return self.config.replica_nodes.get(replica_id, replica_id)

    def _new_sender(self) -> ChannelSender:
        # No resend timer: a stamped copy waits for its ACK, and the
        # reconnect rewinds it (TCP loses a copy only with its connection).
        return ChannelSender(self.config.batching)

    def _new_decoder(self) -> Optional[ChannelDeltaDecoder]:
        """One inbound stream's delta chains (its encoder's mirror)."""
        return ChannelDeltaDecoder() if self.config.batching.delta_encoding else None

    def _settle(self, tenant: _Tenant, destination: ReplicaId,
                uids: List[UpdateId], log: bool = True) -> None:
        """Acked ⇒ durable at the receiver: settle a tenant's copies
        (``log=False``: replaying a settle already in the WAL)."""
        sender = self.senders[self._hosting_node(destination)]
        settled = sender.settle(destination, uids)
        if settled and log and self.wal is not None:
            self.wal.append(wal_records.W_ACK, tenant.tag,
                            wal_records.encode_ack_record(destination, settled))

    def note_acked(self, destination: ReplicaId, uids: List[UpdateId]) -> None:
        """An ACK frame: settle the copies per sending tenant."""
        # An update's issuer is its sender (no forwarding): uid[0] is the tenant.
        by_source: Dict[ReplicaId, List[UpdateId]] = {}
        for uid in uids:
            by_source.setdefault(uid[0], []).append(uid)
        for source, acked in by_source.items():
            if source in self.tenants:
                self._settle(self.tenants[source], destination, acked)
        # The ack clock: the wire just emptied under an open window.
        stream = self.peer_streams.get(self._hosting_node(destination))
        if (stream is not None and stream.sender.unacked == 0
                and stream.sender.windows):
            stream._wake.set()

    # ------------------------------------------------------------------
    # Durability: the flush barrier, checkpoints, recovery
    # ------------------------------------------------------------------
    def commit(self) -> None:
        """The flush barrier: every buffered log record reaches the OS in
        one write.  Called before each socket write, so no frame leaves
        the node while a record is unflushed; the log is compacted here,
        after the flush, once it outgrows ``wal_compact_bytes``."""
        wal = self.wal
        if wal is None:
            return
        wal.flush()
        if wal.should_compact():
            wal.checkpoint(self.checkpoint_state())

    def checkpoint_state(self) -> NodeCheckpoint:
        """Every tenant's live state and the open inbound chains, uncopied:
        the checkpoint's pickle is the copy."""
        sent_logs: Dict[ReplicaId, Dict[ReplicaId, Dict[UpdateId, UpdateMessage]]] = {
            rid: {} for rid in self.tenants
        }
        for sender in self.senders.values():
            for destination, book in sender.sent_log.items():
                for uid, copy in book.items():
                    sent_logs[copy.message.sender].setdefault(
                        destination, {})[uid] = copy.message
        return NodeCheckpoint(
            tenants={rid: tenant.checkpoint_state(sent_logs[rid])
                     for rid, tenant in self.tenants.items()},
            decoder_bases={number: connection.deltas.bases
                           for number, connection in self._connections.items()
                           if connection.deltas is not None},
            next_connection=self._next_connection,
        )

    def _recover(self) -> None:
        """Load the checkpoint, then replay the log tail in file order —
        the order the node made its changes in, across tenants."""
        if self.wal is None:
            return
        checkpoint, records = self.wal.load()
        decoders: Dict[int, Optional[ChannelDeltaDecoder]] = {}
        if checkpoint is not None:
            for rid, state in checkpoint.tenants.items():
                self._restore(self.tenants[rid], state)
            decoders = {connection: ChannelDeltaDecoder(bases)
                        for connection, bases in checkpoint.decoder_bases.items()}
            self._next_connection = checkpoint.next_connection
        if checkpoint is None and not records:
            return
        for tenant in self.tenants.values():
            tenant.recovered = True
        for kind, payload in records:
            rid, offset = decode_atom(payload)
            tenant = self.tenants[rid]
            if kind == wal_records.W_WRITE:
                register, value, at = wal_records.decode_write_record(payload, offset)
                tenant.write(register, value, at, log=False)
            elif kind == wal_records.W_READ:
                register, at = wal_records.decode_read_record(payload, offset)
                tenant.read(register, at, log=False)
            elif kind == wal_records.W_DELIVER:
                received_at, connection, offset = wal_records.decode_receipt_head(
                    payload, offset)
                if connection not in decoders:
                    decoders[connection] = self._new_decoder()
                self._next_connection = max(self._next_connection, connection + 1)
                batch, _ = decode_batch(payload, offset, decoder=decoders[connection])
                self._deliver(tenant, batch.channel, list(batch.messages), received_at)
            elif kind == wal_records.W_ACK:
                destination, uids = wal_records.decode_ack_record(payload, offset)
                self._settle(tenant, destination, uids, log=False)

    def _restore(self, tenant: _Tenant, state: WalCheckpoint) -> None:
        # Freshly unpickled, held by nobody else: adopted, not copied.
        tenant.replica.adopt(state.replica)
        for destination, book in state.sent_log.items():
            sender = self.senders[self._hosting_node(destination)]
            for message in book.values():
                sender.log(message)
        tenant.outbox_total = state.outbox_total
        tenant.streams = state.streams
        tenant.apply_times = state.apply_times

    # ------------------------------------------------------------------
    # Delivery (shared by the wire path, the short-circuit and replay)
    # ------------------------------------------------------------------
    def _deliver(self, tenant: _Tenant, channel: Channel,
                 messages: List[UpdateMessage], received_at: float) -> None:
        """First-receipt bookkeeping and batch apply, at ``received_at``:
        the time the batch was read (or its write issued), which its log
        record stores, so replay passes the same time."""
        counters = tenant.counters
        tracer = self.tracer
        covers = tenant.replica.known().covers
        first_receipts: Dict[UpdateId, UpdateMessage] = {}
        for message in messages:
            uid = message.update.uid
            counters.received += 1
            # A first receipt is a copy the replica neither holds nor is
            # about to be handed by this very batch.
            if covers(message) or uid in first_receipts:
                counters.duplicates += 1
                continue
            first_receipts[uid] = message
            tenant.streams.setdefault(channel, []).append(uid)
            counters.delivered += 1
            if tracer is not None:
                tracer.record("deliver", uid, channel[0], channel[1], received_at)
        if not first_receipts:
            return
        fresh = tuple(first_receipts.values())
        applied = self.deliver(tenant.replica, fresh, at=received_at)
        for update in applied:
            tenant.apply_times[update.uid] = received_at

    # ------------------------------------------------------------------
    # The process main loop
    # ------------------------------------------------------------------
    async def serve(self, on_ready: Optional[Callable[[int], None]] = None) -> None:
        """Run the node until a SHUTDOWN frame (or cancellation)."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Inbound(self),
            host=self.config.listen_host,
            port=self.config.listen_port,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if on_ready is not None:
            on_ready(self.port)
        peers = set()
        graph = self.config.share_graph
        for rid in self.tenants:
            for neighbour in graph.neighbors(rid):
                peer = self._hosting_node(neighbour)
                if peer != self.node_id:
                    peers.add(peer)
        for peer in sorted(peers, key=_id_order):
            self._start_stream(peer)
        if self.config.telemetry_interval > 0:
            self._tasks.append(asyncio.create_task(self._telemetry_loop()))
        try:
            await self.stopping.wait()
        finally:
            self.stopping.set()
            self._server.close()
            # Inbound connections hold no task: closing the transport
            # flushes its replies and ends the connection.
            for connection in list(self._connections.values()):
                connection.transport.close()
            for task in self._tasks:
                task.cancel()
            await asyncio.gather(*self._tasks, return_exceptions=True)
            await self._server.wait_closed()
            if self.wal is not None:
                self.wal.close()

    def _start_stream(self, peer: NodeId) -> _PeerStream:
        stream = _PeerStream(self, peer)
        self.peer_streams[peer] = stream
        self._tasks.append(asyncio.create_task(stream.run()))
        return stream

    def _stream_for(self, replica_id: ReplicaId) -> _PeerStream:
        peer = self._hosting_node(replica_id)
        stream = self.peer_streams.get(peer)
        if stream is None:
            stream = self._start_stream(peer)
        return stream

    # ------------------------------------------------------------------
    # Telemetry (live metrics export)
    # ------------------------------------------------------------------
    def telemetry_samples(self) -> List[Tuple[str, tuple, float]]:
        """One flat metrics sample: per-tenant counters, per-channel byte
        books, and the node's transport footprint and WAL counters.

        The shape :func:`repro.obs.registry.fold_samples` consumes —
        ``(name, sorted label items, value)``; cumulative families carry
        the ``_total`` suffix, instantaneous ones are gauges.
        """
        samples: List[Tuple[str, tuple, float]] = []
        for rid in sorted(self.tenants, key=_id_order):
            samples.extend(self.tenants[rid].telemetry_samples())
        for (src, dst), book in sorted(self.wire_books().items()):
            samples.extend(samples_of(book, "repro_node_wire_",
                                      (("dst", str(dst)), ("src", str(src)))))
        me = (("node", str(self.node_id)),)
        for book in self._transport_books():
            samples.extend(samples_of(book, "repro_node_", me))
        return samples

    async def _telemetry_loop(self) -> None:
        """Push a TELEMETRY frame to every subscribed control connection."""
        interval = self.config.telemetry_interval
        while not self.stopping.is_set():
            await asyncio.sleep(interval)
            self._push_telemetry()

    def _push_telemetry(self) -> None:
        subscribers = [connection for connection in self._telemetry_subscribers
                       if not connection.transport.is_closing()]
        self._telemetry_subscribers = subscribers
        if not subscribers:
            return
        frame = encode_frame(frames.TELEMETRY, frames.encode_telemetry_payload(
            self.now, self.node_id, self.telemetry_samples()
        ))
        self.commit()
        for connection in subscribers:
            connection.transport.write(frame)
            self.counters.socket_writes += 1

    # ------------------------------------------------------------------
    # Resync (the live anti-entropy exchange)
    # ------------------------------------------------------------------
    async def resync(self, destination: ReplicaId, known: Known,
                     stream: _PeerStream) -> None:
        """Re-send every sent-log entry ``destination`` does not hold.

        Triggered by the peer node's ``SYNC`` frame (one per hosted
        replica) on every (re)established stream: its durable
        :class:`~repro.core.protocol.Known` in; the durable outbox it does
        not cover, minus what is already on its way, out through the
        channels' windows.
        """
        missing = stream.sender.missing(destination, known, skip_inflight=True)
        for source in {message.sender for message in missing}:
            self.tenants[source].counters.resyncs += 1
        for message in missing:
            await stream.enqueue(message)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _handle_frame(self, kind: int, payload: bytes, out: bytearray,
                      connection: "_Inbound") -> Optional[_PeerStream]:
        """Handle one inbound frame, appending its replies to ``out`` (the
        connection writes them once the chunk is done).  Returns the
        stream whose full window a client write must wait for, without
        having performed it; otherwise ``None``."""
        if kind == frames.OP:
            return self._handle_op(payload, out)
        if kind == frames.BATCH:
            self._handle_batch(payload, connection)
        elif kind == frames.HELLO:
            peer, port = frames.decode_hello(payload)
            # One decoder per inbound connection: its delta chains are
            # keyed by channel, like the sending stream's encoder.
            connection.deltas = self._new_decoder()
            # The peer listens on the host it dialled from, at the port it
            # announced — so a restarted peer's new address propagates with
            # its first frame.
            peername = connection.transport.get_extra_info("peername")
            peer_host = peername[0] if peername else self.config.listen_host
            self.addresses[peer] = (peer_host, port)
            # Offer the anti-entropy exchange, once per hosted replica
            # with traffic from the connecting node: tell it what each
            # tenant holds durably; it re-sends the rest.
            graph = self.config.share_graph
            for rid in sorted(self.tenants, key=_id_order):
                tenant = self.tenants[rid]
                if any(self._hosting_node(nb) == peer
                       for nb in graph.neighbors(rid)):
                    encode_frame_into(
                        out, frames.SYNC,
                        frames.encode_sync(rid, tenant.replica.known()),
                    )
        elif kind == frames.CONTROL_HELLO:
            connection.control = True
            self.counters.control_connections += 1
            if self.config.telemetry_interval > 0:
                self._telemetry_subscribers.append(connection)
        elif kind == frames.ADDR:
            node_id, host, port = frames.decode_addr(payload)
            if node_id != self.node_id:
                self.addresses[node_id] = (host, port)
        elif kind == frames.STATS_REQ:
            encode_frame_into(out, frames.STATS, self._stats_payload())
        elif kind == frames.REPORT_REQ:
            # Final telemetry sample ahead of the report, on the same
            # stream: FIFO ordering lands it before the REPORT reply the
            # launcher blocks on, so even a run shorter than one sampling
            # interval exports its end-of-run counters.
            if self.config.telemetry_interval > 0:
                encode_frame_into(out, frames.TELEMETRY,
                                  frames.encode_telemetry_payload(
                                      self.now, self.node_id,
                                      self.telemetry_samples(),
                                  ))
            encode_frame_into(out, frames.REPORT, pickle.dumps(
                self.report(), protocol=pickle.HIGHEST_PROTOCOL
            ))
        elif kind == frames.SHUTDOWN:
            self.stopping.set()
        # Unknown kinds are ignored: wire-compatible newer launchers may
        # probe; dropping beats crashing a live node.
        return None

    def _handle_batch(self, payload: bytes, connection: "_Inbound") -> None:
        batch, _ = decode_batch(payload, decoder=connection.deltas)
        tenant = self.tenants.get(batch.destination)
        if tenant is None:
            # Misrouted (stale placement at the sender): drop, unacknowledged.
            self.counters.misrouted_batches += 1
            return
        received_at = self.now
        if self.wal is not None:
            # The receipt is the bytes that arrived, duplicates and all, so
            # no delta chain in the log skips a frame.
            self.wal.append(
                wal_records.W_DELIVER,
                tenant.tag + wal_records.encode_receipt_head(
                    received_at, connection.connection),
                payload,
            )
        self._deliver(tenant, batch.channel, list(batch.messages), received_at)
        # The ack leaves with the chunk's write, after the flush that makes
        # the receipt durable: an ack promises the update survives a crash.
        # Duplicates are re-acked so a sender that re-sent them on a
        # reconnect settles.
        connection.acks.setdefault(batch.destination, []).extend(
            message.update.uid for message in batch.messages)

    def _handle_op(self, payload: bytes, out: bytearray) -> Optional[_PeerStream]:
        op_id, replica_id, kind, register, value = frames.decode_op(payload)
        tenant = self.tenants.get(replica_id)
        status = frames.OP_OK
        reply_value: Any = None
        if tenant is None or register not in tenant.replica.registers:
            # The replica's one validation, made here before anything
            # mutates, so a rejection is always a clean no-op.  Failures
            # after the mutation (WAL I/O, codec bugs) deliberately
            # propagate instead of masquerading as rejections — the
            # connection drops, the client sees an unanswered op, and the
            # durable trace still tells the truth about what was applied.
            status = frames.OP_REJECTED
            if tenant is not None:
                tenant.counters.ops_done += 1
        elif kind == "write":
            full = self._full_stream(tenant, register)
            if full is not None:
                return full
            # Co-hosted copies are delivered inside the write.
            for message in tenant.write(register, value, self.now):
                self._stream_for(message.destination).add(message)
        else:
            reply_value = tenant.read(register, self.now)
        encode_frame_into(
            out, frames.OP_REPLY, frames.encode_op_reply(op_id, status, reply_value)
        )
        return None

    def _full_stream(self, tenant: _Tenant, register: Register) -> Optional[_PeerStream]:
        """The stream of a window that a write of ``register`` at ``tenant``
        would add a copy to while it holds ``SEND_QUEUE_LIMIT`` copies."""
        source = tenant.replica_id
        for destination in tenant.replica.destinations(register):
            if destination in self.tenants:
                continue
            window = self.senders[self._hosting_node(destination)].windows.get(
                (source, destination))
            if window is not None and len(window.messages) >= SEND_QUEUE_LIMIT:
                return self._stream_for(destination)
        return None

    # ------------------------------------------------------------------
    # Harness surface
    # ------------------------------------------------------------------
    def _stats_payload(self) -> bytes:
        totals: Counter = Counter()
        outbox: Dict[Channel, int] = {}
        inbox: Dict[Channel, int] = {}
        for rid, tenant in self.tenants.items():
            totals.update(values_of(tenant.counters))
            # One apply time per issued or applied uid: the event trace's
            # update count, without walking it.
            totals["applied"] += len(tenant.apply_times)
            totals["pending"] += tenant.pending_depth
            for destination, count in tenant.outbox_total.items():
                outbox[(rid, destination)] = count
            for channel, uids in tenant.streams.items():
                inbox[channel] = len(uids)
        totals["send_queue"] = self.send_queue_depth
        totals["unacked"] = self.unacked
        # The progress books are derived from durable state (outbox
        # counters / first-receipt streams), so drain detection survives
        # SIGKILLs and sent-log pruning alike.
        return frames.encode_stats_payload(
            frames.NodeStats.from_totals(totals), outbox, inbox)

    def wire_books(self) -> Dict[Channel, ChannelWireStats]:
        """Byte books of every channel that put bytes on a socket."""
        return {channel: book for sender in self.senders.values()
                for channel, book in sender.book.items()}

    @exported(GAUGE, "copies waiting in the peer streams' windows")
    def send_queue_depth(self) -> int:
        return sum(stream.queued() for stream in self.peer_streams.values())

    @exported(GAUGE, "copies on the wire awaiting their ACK")
    def unacked(self) -> int:
        return sum(stream.unacked() for stream in self.peer_streams.values())

    @exported(GAUGE, "peer-node streams started", name="peer_streams")
    def stream_count(self) -> int:
        return len(self.peer_streams)

    @exported(GAUGE, "peer streams with an open connection")
    def open_streams(self) -> int:
        return sum(1 for stream in self.peer_streams.values() if stream.connected)

    @exported(GAUGE, "open inbound connections")
    def inbound_connections(self) -> int:
        return len(self._connections)

    def _transport_books(self) -> Tuple[Any, ...]:
        """The transport footprint: the node's gauges, counters and log's."""
        wal = self.wal if self.wal is not None else WalCounters()
        return (self, self.counters, wal)

    def report(self) -> Dict[str, Any]:
        """The end-of-run report: per-tenant reports, the node's metrics and
        lifecycle trace, byte books, footprint."""
        return {
            "node_id": self.node_id,
            "tenants": {
                rid: tenant.report() for rid, tenant in self.tenants.items()
            },
            "metrics": self.metrics,
            "trace": list(self.tracer.events) if self.tracer is not None else [],
            "wire_stats": self.wire_books(),
            "transport": {name: value for book in self._transport_books()
                          for name, value in values_of(book).items()},
        }


def node_main(config: NodeConfig, ready_queue: Any) -> None:
    """Process entry point: run one node, reporting its port when bound."""
    node = LiveNode(config)

    def on_ready(port: int) -> None:
        ready_queue.put((config.node_id, port))

    asyncio.run(node.serve(on_ready))
