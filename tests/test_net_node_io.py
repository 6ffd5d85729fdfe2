"""One socket write per wake-up, in process, with no sockets.

A live node answers every frame of a received chunk with a single write,
and a peer stream's send-loop pass puts every due window on the wire in a
single write.  These tests drive the node's inbound connection (its
asyncio protocol, :class:`repro.net.node._Inbound`) over a recording
transport, and :meth:`_PeerStream._send_loop` with a recording writer,
and count the writes and the bytes.  The two inbound drops a node used
to swallow silently — a batch for a replica it does not host, a corrupt
stream — are counted too, and so is a connection lost to a socket error.
So are the ACKs: one per destination replica for all of a chunk's
batches.  The send loop is ack-clocked: a stream with nothing
unacknowledged writes every open window in its next pass, and otherwise
a window waits for the ACK that empties the wire.  A client write that
would join a full window parks its connection until a pass drains it.
"""

import asyncio

from inbound import RecordingTransport, connect, feed, serve
from repro.core.registers import RegisterPlacement
from repro.core.share_graph import ShareGraph
from repro.net import frames, wal
from repro.net import node as net_node
from repro.net.framing import decode_all, encode_frame
from repro.net.node import LiveNode, NodeConfig, _PeerStream
from repro.sim.engine import BatchingConfig
from repro.wire.batch import MessageBatch, encode_batch
from repro.wire.channel import ChannelDeltaEncoder
from repro.wire.primitives import decode_atom

#: Replicas 1 and 2 share nothing; 3 shares ``x`` with 1 and ``y`` with 2.
GRAPH = ShareGraph.from_placement(RegisterPlacement.from_dict(
    {1: {"x"}, 2: {"y"}, 3: {"x", "y"}}))
SPLIT = {1: "a", 2: "a", 3: "b"}


class _Reader:
    """Hands out fixed chunks, then end of stream."""

    def __init__(self, *chunks):
        self._chunks = list(chunks)

    async def read(self, _size):
        return self._chunks.pop(0) if self._chunks else b""


class _Writer:
    """Records every write and drain of a peer stream's connection."""

    def __init__(self):
        self.writes = []
        self.drains = 0

    def write(self, data):
        self.writes.append(bytes(data))

    async def drain(self):
        self.drains += 1


def _one_node():
    return LiveNode(NodeConfig("n", GRAPH, (1, 2, 3), {rid: "n" for rid in SPLIT}))


def _op(op_id, replica, kind, register, value=None):
    return encode_frame(frames.OP, frames.encode_op(op_id, replica, kind,
                                                     register, value))


def _reply(op_id, status, value=None):
    return encode_frame(frames.OP_REPLY,
                        frames.encode_op_reply(op_id, status, value))


def test_a_chunk_of_ops_is_answered_with_one_write():
    node = _one_node()
    ops = [
        (1, 1, "write", "x", "v1"),
        (2, 3, "read", "x", None),       # the copy came through the short-circuit
        (3, 1, "write", "y", "nope"),    # 1 does not hold y: rejected
        (4, 2, "write", "y", "v2"),
        (5, 3, "read", "y", None),
    ]
    writer = serve(node, b"".join(_op(*op) for op in ops))
    assert len(writer.writes) == 1
    assert writer.writes[0] == b"".join([
        _reply(1, frames.OP_OK),
        _reply(2, frames.OP_OK, "v1"),
        _reply(3, frames.OP_REJECTED),
        _reply(4, frames.OP_OK),
        _reply(5, frames.OP_OK, "v2"),
    ])
    assert node.report()["transport"]["socket_writes"] == 1


def test_each_chunk_gets_its_own_write():
    node = _one_node()
    writer = serve(node, _op(1, 1, "write", "x", 0),
                    _op(2, 2, "write", "y", 0) + _op(3, 3, "read", "x"))
    assert [len(decode_all(data)) for data in writer.writes] == [1, 2]
    assert node.counters.socket_writes == 2


def test_frames_before_a_shutdown_are_still_answered():
    node = _one_node()
    writer = serve(node, _op(1, 1, "write", "x", 0)
                    + encode_frame(frames.SHUTDOWN)
                    + _op(2, 1, "write", "x", 1))
    assert writer.writes == [_reply(1, frames.OP_OK)]
    assert node.stopping.is_set() and writer.closed
    assert node.tenants[1].counters.issued == 1


def test_misrouted_batch_and_corrupt_frame_are_counted_and_replies_kept():
    node = LiveNode(NodeConfig("a", GRAPH, (1, 2), SPLIT))
    tenant = node.tenants[1]
    messages = tenant.write("x", "v", 0.0)
    payload, _ = encode_batch(
        MessageBatch(sender=1, destination=3, seq=0, messages=tuple(messages)),
        codec=tenant.replica.wire_codec())
    writer = serve(node, _op(1, 2, "write", "y", "w")
                    + encode_frame(frames.BATCH, payload)       # 3 lives on b
                    + encode_frame(frames.BATCH, b"\xffgarbage")
                    + _op(2, 2, "write", "y", "never"))
    assert writer.writes == [_reply(1, frames.OP_OK)]
    assert writer.closed
    transport = node.report()["transport"]
    assert transport["misrouted_batches"] == 1
    assert transport["corrupt_streams"] == 1
    assert transport["socket_writes"] == 1
    names = {name: value for name, _, value in node.telemetry_samples()}
    assert names["repro_node_misrouted_batches_total"] == 1.0
    assert names["repro_node_corrupt_streams_total"] == 1.0
    assert names["repro_node_socket_writes_total"] == 1.0


#: Windows that never fill and whose deadline is a minute away: only the
#: ack clock (or a stop) sends them.
PATIENT = BatchingConfig(max_messages=16, max_delay=60.0)


async def _spin(predicate, turns=100):
    """Yield to the event loop until ``predicate`` holds or turns run out."""
    for _ in range(turns):
        if predicate():
            break
        await asyncio.sleep(0)
    return predicate()


async def _write(a, stream, rid, register, value):
    """One client write at ``a``; its copies join the stream's windows."""
    messages = a.tenants[rid].write(register, value, a.now)
    for message in messages:
        await stream.enqueue(message)
    return [message.update.uid for message in messages]


async def _stop(a, stream, loop):
    a.stopping.set()
    stream._wake.set()
    await asyncio.wait_for(loop, 5.0)


async def _one_pass():
    # max_messages=1: each window is full, hence due, as soon as it opens.
    a = LiveNode(NodeConfig("a", GRAPH, (1, 2), SPLIT,
                            batching=BatchingConfig(max_messages=1, max_delay=60.0)))
    stream = _PeerStream(a, "b")
    for rid, register in ((1, "x"), (2, "y")):
        await _write(a, stream, rid, register, f"v{rid}")
    writer = _Writer()
    loop = asyncio.create_task(stream._send_loop(writer))
    await _spin(lambda: writer.writes)
    await _stop(a, stream, loop)
    return a, writer


def test_a_send_loop_pass_writes_every_due_window_at_once():
    a, writer = asyncio.run(_one_pass())
    assert len(writer.writes) == 1 and writer.drains == 1
    assert [kind for kind, _ in decode_all(writer.writes[0])] == [frames.BATCH] * 2
    assert a.counters.socket_writes == 1
    assert a.tenants[1].counters.sent == a.tenants[2].counters.sent == 1

    # The receiving node answers the hello and both batches with one write:
    # a SYNC for replica 3, then one ACK carrying both batches' uids.
    b = LiveNode(NodeConfig("b", GRAPH, (3,), SPLIT))
    hello = encode_frame(frames.HELLO, frames.encode_hello("a", 0))
    reply = serve(b, hello + writer.writes[0])
    assert len(reply.writes) == 1 and b.counters.socket_writes == 1
    answered = decode_all(reply.writes[0])
    assert [kind for kind, _ in answered] == [frames.SYNC, frames.ACK]
    assert frames.decode_tagged_uids(answered[1][1]) == (3, [(1, 1), (2, 1)])
    assert b.tenants[3].replica.store == {"x": "v1", "y": "v2"}
    assert b.report()["transport"]["ack_frames"] == 1


async def _idle_stream():
    a = LiveNode(NodeConfig("a", GRAPH, (1, 2), SPLIT, batching=PATIENT))
    stream = a.peer_streams["b"] = _PeerStream(a, "b")
    await _write(a, stream, 1, "x", "v1")
    writer = _Writer()
    loop = asyncio.create_task(stream._send_loop(writer))
    sent = await _spin(lambda: writer.writes)
    writes = list(writer.writes)
    await _stop(a, stream, loop)
    return sent, writes


def test_a_window_opened_on_an_idle_stream_is_written_in_the_first_pass():
    sent, writes = asyncio.run(_idle_stream())
    assert sent, "the window waited for its deadline on an idle stream"
    assert len(writes) == 1
    assert [kind for kind, _ in decode_all(writes[0])] == [frames.BATCH]


async def _ack_clocked():
    a = LiveNode(NodeConfig("a", GRAPH, (1, 2), SPLIT, batching=PATIENT))
    stream = a.peer_streams["b"] = _PeerStream(a, "b")
    writer = _Writer()
    loop = asyncio.create_task(stream._send_loop(writer))
    first = await _write(a, stream, 1, "x", "v1")
    await _spin(lambda: writer.writes)
    outstanding = (len(writer.writes), stream.unacked())
    # A window opens while (1, 3)'s copy is still on the wire …
    await _write(a, stream, 2, "y", "v2")
    await _spin(lambda: len(writer.writes) > 1)
    held = (len(writer.writes), stream.queued())
    # … and goes out in the pass after the ACK that empties the wire.
    a.note_acked(3, first)
    await _spin(lambda: len(writer.writes) > 1)
    released = list(writer.writes)
    after = (stream.unacked(), stream.queued())
    await _stop(a, stream, loop)
    return outstanding, held, released, after


def test_an_outstanding_copy_holds_a_new_window_until_its_ack():
    outstanding, held, released, after = asyncio.run(_ack_clocked())
    assert outstanding == (1, 1)
    assert held == (1, 1), "a window went out while a copy was unacked"
    assert len(released) == 2, "the ACK that emptied the wire sent nothing"
    assert [kind for kind, _ in decode_all(released[1])] == [frames.BATCH]
    assert after == (1, 0)


def _batches_from_a_for(destinations):
    """Hello plus one send-loop pass of ``a`` (hosting 3) to 1 and 2 on b."""
    split = {1: "b", 2: "b", 3: "a"}

    async def run():
        a = LiveNode(NodeConfig("a", GRAPH, (3,), split, batching=PATIENT))
        stream = a.peer_streams["b"] = _PeerStream(a, "b")
        for register in destinations:
            await _write(a, stream, 3, register, register)
        writer = _Writer()
        loop = asyncio.create_task(stream._send_loop(writer))
        await _spin(lambda: writer.writes)
        await _stop(a, stream, loop)
        return writer.writes[0]

    hello = encode_frame(frames.HELLO, frames.encode_hello("a", 0))
    return split, hello, asyncio.run(run())


def test_a_chunk_is_acked_once_per_destination_in_first_seen_order():
    split, hello, batches = _batches_from_a_for(["y", "x", "y"])
    b = LiveNode(NodeConfig("b", GRAPH, (1, 2), split))
    reply = serve(b, hello + batches)
    answered = decode_all(reply.writes[0])
    assert [kind for kind, _ in answered] == [frames.SYNC] * 2 + [frames.ACK] * 2
    assert [frames.decode_tagged_uids(p) for _, p in answered[2:]] == [
        (2, [(3, 1), (3, 3)]), (1, [(3, 2)])]
    assert b.counters.ack_frames == 2
    # A second connection replays the same bytes: every copy is a
    # duplicate now, and every one is acked again.
    again = decode_all(serve(b, hello + batches).writes[0])
    assert [frames.decode_tagged_uids(p) for k, p in again if k == frames.ACK] == [
        (2, [(3, 1), (3, 3)]), (1, [(3, 2)])]
    assert b.tenants[2].counters.duplicates == 2
    names = {name: value for name, _, value in b.telemetry_samples()}
    assert names["repro_node_ack_frames_total"] == 4.0


def test_batches_before_a_corrupt_frame_or_a_shutdown_are_still_acked():
    split, hello, batches = _batches_from_a_for(["x"])
    for tail in (encode_frame(frames.BATCH, b"\xffgarbage"),
                 encode_frame(frames.SHUTDOWN)):
        b = LiveNode(NodeConfig("b", GRAPH, (1, 2), split))
        reply = serve(b, hello + batches + tail + batches)
        answered = decode_all(reply.writes[0])
        assert [frames.decode_tagged_uids(p) for k, p in answered
                if k == frames.ACK] == [(1, [(3, 1)])]
        assert b.report()["transport"]["ack_frames"] == 1


# ----------------------------------------------------------------------
# A corrupt reply stream is counted and drops the connection
# ----------------------------------------------------------------------

def test_a_corrupt_reply_stream_is_counted_and_ends_the_send_loop():
    async def run():
        a = LiveNode(NodeConfig("a", GRAPH, (1, 2), SPLIT, batching=PATIENT))
        stream = a.peer_streams["b"] = _PeerStream(a, "b")
        await stream._read_replies(_Reader(encode_frame(frames.ACK, b"\xffgarbage")))
        try:
            await asyncio.wait_for(stream._send_loop(_Writer()), 5.0)
        except ConnectionResetError:
            return a, True
        return a, False

    a, reset = asyncio.run(run())
    assert reset, "the send loop kept a connection whose replies are corrupt"
    assert a.report()["transport"]["corrupt_streams"] == 1
    names = {name: value for name, _, value in a.telemetry_samples()}
    assert names["repro_node_corrupt_streams_total"] == 1.0


# ----------------------------------------------------------------------
# The node's one log: raw receipts, intra-node copies, group commit
# ----------------------------------------------------------------------

#: Replica 3 lives on ``a``; 1 and 2 on the durable node ``b``.
SPLIT_B = {1: "b", 2: "b", 3: "a"}
HELLO_A = encode_frame(frames.HELLO, frames.encode_hello("a", 0))


def _durable(tmp_path, node_id="b", hosted=(1, 2), split=SPLIT_B, **options):
    return LiveNode(NodeConfig(node_id, GRAPH, hosted, split,
                               durable_dir=str(tmp_path), **options))


def _encoded_batches(groups):
    """``a``'s writes at replica 3, one ``BATCH`` frame per group, each
    delta-encoded on the chain of the encoder the group names.

    ``groups`` is a list of ``(encoder key, [(register, value), ...])``;
    a value of ``None`` re-sends the previous copy for that register.
    Returns the frames and each frame's delta-frame count."""
    a = LiveNode(NodeConfig("a", GRAPH, (3,), SPLIT_B))
    tenant = a.tenants[3]
    codec = tenant.replica.wire_codec()
    encoders, last, out = {}, {}, []
    for key, writes in groups:
        messages = []
        for register, value in writes:
            if value is not None:
                (last[register],) = tenant.write(register, value, 0.0)
            messages.append(last[register])
        payload, sizes = encode_batch(
            MessageBatch(sender=3, destination=messages[0].destination, seq=0,
                         messages=tuple(messages)),
            encoder=encoders.setdefault(key, ChannelDeltaEncoder()), codec=codec)
        out.append((encode_frame(frames.BATCH, payload), sizes.delta_frames))
    return out


def _log_records(node):
    node.wal.flush()
    with open(node.wal._log_path(node.wal.generation), "rb") as handle:
        records, _ = wal._parse_records(handle.read())
    return records


def _recording_deliveries(monkeypatch):
    """Every ``_deliver`` call: tenant, channel, time and each message's
    uid and timestamp — what replay must regenerate exactly."""
    calls = []
    real = LiveNode._deliver

    def recording(self, tenant, channel, messages, received_at):
        calls.append((tenant.replica_id, channel, received_at,
                      [(m.update.uid, m.metadata) for m in messages]))
        return real(self, tenant, channel, messages, received_at)

    monkeypatch.setattr(LiveNode, "_deliver", recording)
    return calls


def _histories(node):
    return {rid: (list(tenant.replica.events), dict(tenant.streams),
                  tenant.replica.timestamp)
            for rid, tenant in node.tenants.items()}


def test_a_deliver_record_holds_the_received_batch_payload_byte_for_byte(
        tmp_path, monkeypatch):
    def no_reencode(*args, **kwargs):
        raise AssertionError("a receipt must not be re-encoded for the log")

    monkeypatch.setattr(wal, "encode_batch", no_reencode)
    batches = _encoded_batches([(0, [("x", "1")]), (0, [("y", "2")]),
                                (0, [("x", "3"), ("x", "4")])])
    assert [delta for _, delta in batches] == [0, 0, 2]
    b = _durable(tmp_path)
    serve(b, HELLO_A + b"".join(frame for frame, _ in batches))
    records = _log_records(b)
    assert [kind for kind, _ in records] == [wal.W_DELIVER] * 3
    for (_, record), (frame, _), destination in zip(records, batches, (1, 2, 1)):
        ((_, sent),) = decode_all(frame)
        tenant, offset = decode_atom(record)
        _, connection, offset = wal.decode_receipt_head(record, offset)
        assert (tenant, connection) == (destination, 0)
        assert record[offset:] == bytes(sent)


def test_a_compaction_between_two_delta_frames_replays_identical_timestamps(
        tmp_path, monkeypatch):
    live = _recording_deliveries(monkeypatch)
    (first, _), (second, delta) = _encoded_batches([(0, [("x", "1")]),
                                                    (0, [("x", "2")])])
    assert delta == 1
    b = _durable(tmp_path)
    compact = lambda: b.wal.checkpoint(b.checkpoint_state())  # noqa: E731
    serve(b, HELLO_A + first, compact, second)
    assert b.wal.compactions == 1
    assert [kind for kind, _ in _log_records(b)] == [wal.W_DELIVER]
    before = _histories(b)
    b.wal.close()

    replayed = len(live)
    reloaded = _durable(tmp_path)
    # Only the delta frame is replayed, on the base the checkpoint kept.
    assert live[replayed:] == live[1:2]
    assert _histories(reloaded) == before
    reloaded.wal.close()


def test_a_duplicate_only_batch_is_logged_and_the_chain_after_it_replays(
        tmp_path, monkeypatch):
    live = _recording_deliveries(monkeypatch)
    batches = _encoded_batches([(0, [("x", "1")]), (0, [("x", None)]),
                                (0, [("x", "2")])])
    assert [delta for _, delta in batches] == [0, 1, 1]
    b = _durable(tmp_path)
    serve(b, HELLO_A + b"".join(frame for frame, _ in batches))
    assert b.tenants[1].counters.duplicates == 1
    assert [kind for kind, _ in _log_records(b)] == [wal.W_DELIVER] * 3
    before = _histories(b)
    b.wal.close()

    done = len(live)
    reloaded = _durable(tmp_path)
    assert live[done:] == live[:done]
    assert _histories(reloaded) == before
    reloaded.wal.close()


def test_interleaved_batches_of_an_old_and_a_new_connection_replay(
        tmp_path, monkeypatch):
    """``a`` re-sends on a new connection while a frame of the old one is
    still arriving: each connection's delta chain decodes its own frames,
    on the live node and in replay."""
    live = _recording_deliveries(monkeypatch)
    (f1, _), (g1, g_delta), (f2, f_delta) = _encoded_batches([
        ("old", [("x", "1")]),
        ("new", [("x", "2"), ("x", "3")]),
        ("old", [("x", None)]),
    ])
    assert (g_delta, f_delta) == (1, 1)
    b = _durable(tmp_path)
    old, new = connect(b), connect(b)
    feed(old, HELLO_A + f1)
    feed(new, HELLO_A + g1)
    feed(old, f2)
    receipts = [wal.decode_receipt_head(record, decode_atom(record)[1])[1]
                for _, record in _log_records(b)]
    assert receipts == [0, 1, 0]
    before = _histories(b)
    b.wal.close()

    done = len(live)
    reloaded = _durable(tmp_path)
    assert live[done:] == live[:done]
    assert _histories(reloaded) == before
    assert reloaded._next_connection == 2
    reloaded.wal.close()


def test_a_write_whose_copies_are_all_co_hosted_appends_one_record(tmp_path):
    node = _durable(tmp_path, node_id="n", hosted=(1, 2, 3),
                    split={rid: "n" for rid in SPLIT})
    messages = node.tenants[1].write("x", "v", node.now)
    assert messages == []
    assert node.wal.records_appended == 1
    assert node.tenants[3].replica.store["x"] == "v"
    assert [kind for kind, _ in _log_records(node)] == [wal.W_WRITE]
    assert all(not book for sender in node.senders.values()
               for book in sender.sent_log.values())


def _barrier(node, sink):
    """Make ``sink.write`` fail while a log record is unflushed."""
    write = sink.write

    def checked(data):
        assert not node.wal._pending, "a frame left before its records"
        write(data)

    sink.write = checked
    return sink


def test_a_chunk_of_ops_costs_one_log_flush_before_its_one_write(tmp_path):
    node = _durable(tmp_path, node_id="n", hosted=(1, 2, 3),
                    split={rid: "n" for rid in SPLIT})
    ops = [(1, 1, "write", "x", "v1"), (2, 3, "read", "x"),
           (3, 2, "write", "y", "v2"), (4, 3, "write", "x", "v3"),
           (5, 1, "read", "x")]
    writer = serve(node, b"".join(_op(*op) for op in ops),
                   transport=_barrier(node, RecordingTransport()))
    assert len(writer.writes) == 1
    transport = node.report()["transport"]
    assert (transport["wal_records"], transport["wal_flushes"]) == (5, 1)
    names = {name: value for name, _, value in node.telemetry_samples()}
    assert names["repro_node_wal_flushes_total"] == 1.0


def test_a_send_loop_pass_flushes_the_log_before_its_write(tmp_path):
    async def run():
        a = _durable(tmp_path, node_id="a", hosted=(1, 2), split=SPLIT,
                     batching=PATIENT)
        stream = a.peer_streams["b"] = _PeerStream(a, "b")
        # The write's record is buffered; the pass must flush it first.
        await _write(a, stream, 1, "x", "v1")
        writer = _barrier(a, _Writer())
        loop = asyncio.create_task(stream._send_loop(writer))
        await _spin(lambda: writer.writes)
        await _stop(a, stream, loop)
        return a, writer

    a, writer = asyncio.run(run())
    assert len(writer.writes) == 1
    assert (a.wal.records_appended, a.wal.flushes) == (1, 1)


def test_a_batch_before_any_hello_is_logged_under_its_connection(tmp_path):
    (frame, _), = _encoded_batches([(0, [("x", "1")])])
    b = _durable(tmp_path)
    serve(b, frame)
    (_, record), = _log_records(b)
    _, connection, _ = wal.decode_receipt_head(record, decode_atom(record)[1])
    assert connection == 0 and b.tenants[1].replica.store["x"] == "1"
    before = _histories(b)
    b.wal.close()
    reloaded = _durable(tmp_path)
    assert _histories(reloaded) == before
    reloaded.wal.close()


# ----------------------------------------------------------------------
# Flow control: a parked write, a full socket buffer, a lost connection
# ----------------------------------------------------------------------

def test_a_write_into_a_full_window_parks_its_chunk_until_a_pass_drains_it(
        tmp_path, monkeypatch):
    monkeypatch.setattr(net_node, "SEND_QUEUE_LIMIT", 2)

    async def run():
        a = _durable(tmp_path, node_id="a", hosted=(1, 2), split=SPLIT,
                     batching=PATIENT)
        stream = a.peer_streams["b"] = _PeerStream(a, "b")
        for value in ("f1", "f2"):
            await _write(a, stream, 1, "x", value)   # (1, 3) holds the limit
        connection = connect(a)
        transport = connection.transport
        feed(connection, _op(1, 1, "write", "x", "v1") + _op(2, 2, "read", "y")
             + _op(3, 2, "write", "y", "v2"))
        parked = (list(transport.writes), a.wal.records_appended, transport.reading)
        writer = _Writer()
        loop = asyncio.create_task(stream._send_loop(writer))
        await _spin(lambda: transport.writes)
        resumed = (list(transport.writes), transport.reading)
        await _stop(a, stream, loop)
        return a, parked, resumed

    a, parked, resumed = asyncio.run(run())
    assert parked == ([], 2, False), "the write was performed into a full window"
    writes, reading = resumed
    assert writes == [_reply(1, frames.OP_OK) + _reply(2, frames.OP_OK)
                      + _reply(3, frames.OP_OK)]
    assert reading
    records = [(kind, decode_atom(record)[0]) for kind, record in _log_records(a)]
    assert records == [(wal.W_WRITE, 1)] * 3 + [(wal.W_READ, 2), (wal.W_WRITE, 2)]
    assert a.tenants[1].replica.store["x"] == "v1"


def test_a_full_socket_buffer_stops_reading_until_it_drains():
    connection = connect(_one_node())
    transport = connection.transport
    connection.pause_writing()
    assert not transport.reading
    connection.resume_writing()
    assert transport.reading


def test_an_inbound_connection_lost_to_a_socket_error_is_counted():
    node = _one_node()
    connect(node).connection_lost(ConnectionResetError())
    connect(node).connection_lost(None)    # a clean end of stream
    assert node.report()["transport"]["inbound_resets"] == 1
    assert node.inbound_connections == 0
    names = {name: value for name, _, value in node.telemetry_samples()}
    assert names["repro_node_inbound_resets_total"] == 1.0
