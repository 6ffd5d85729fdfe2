"""One peer stream across a connection reset, in process, on real sockets.

Two nodes share one event loop: node ``a`` hosts replicas 1 and 2, node
``b`` hosts replica 3, so channels ``(1, 3)`` and ``(2, 3)`` ride the one
``a → b`` stream.  The connection is made to die at a chosen write by
wrapping what :func:`asyncio.open_connection` hands the stream, and kept
down by refusing ``a``'s reconnection attempts.
"""

import asyncio
import contextlib
import math
import time

from repro.core.registers import RegisterPlacement
from repro.core.share_graph import ShareGraph
from repro.net import frames
from repro.net import node as net_node
from repro.net.framing import StreamDecoder, encode_frame
from repro.net.node import LiveNode, NodeConfig
from repro.sim.engine import BatchingConfig

MAX_DELAY = 0.3
#: Event-loop scheduling slack allowed on top of a deadline (loaded CI boxes).
SLACK = 1.0


class _FlakyWriter:
    """A stream writer whose next ``write`` can be made to fail once."""

    def __init__(self, writer):
        self._writer = writer
        self.fail_next_write = False

    def write(self, data):
        if self.fail_next_write:
            self.fail_next_write = False
            self._writer.transport.abort()
            raise ConnectionResetError("injected reset")
        self._writer.write(data)

    def __getattr__(self, name):
        return getattr(self._writer, name)


async def _until(predicate, timeout):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        await asyncio.sleep(0.01)
    return True


class _Pair:
    """Nodes ``a`` and ``b``, a client connection to ``a``, and the knobs
    of the ``a → b`` stream: its writers so far, and whether ``a``'s next
    connection attempts to ``b`` are refused."""

    def __init__(self):
        self.stream_writers = []
        self.refuse = False
        self._op_id = 0

    async def write(self, replica, register, value):
        """One client write through ``a``, answered ``OP_OK``."""
        self._op_id += 1
        reader, writer = self.client
        writer.write(encode_frame(frames.OP, frames.encode_op(
            self._op_id, replica, "write", register, value)))
        await writer.drain()
        while True:
            for kind, payload in self.decoder.feed(await reader.read(65536)):
                if kind == frames.OP_REPLY:
                    assert frames.decode_op_reply(payload)[:2] == (
                        self._op_id, frames.OP_OK)
                    return

    def received(self, channel):
        """First receipts at ``b`` on one channel, in arrival order."""
        return self.b.tenants[3].streams.get(channel, [])

    async def cut(self, replica, register):
        """Take the stream down: the batch of this write dies on the wire
        and every reconnection attempt is refused until :meth:`heal`."""
        self.refuse = True
        self.stream_writers[-1].fail_next_write = True
        await self.write(replica, register, "cut")
        assert await _until(lambda: not self.stream.connected, MAX_DELAY + SLACK)

    async def heal(self):
        connections = len(self.stream_writers)
        self.refuse = False
        assert await _until(lambda: len(self.stream_writers) > connections, 5.0)

    def settled(self):
        return self.stream.unacked() == 0 and self.stream.queued() == 0


@contextlib.asynccontextmanager
async def _pair(monkeypatch, batching):
    graph = ShareGraph.from_placement(RegisterPlacement.from_dict(
        {1: {"x"}, 2: {"y"}, 3: {"x", "y"}}))
    hosting = {1: "a", 2: "a", 3: "b"}
    pair = _Pair()
    ports = {}
    pair.b = b = LiveNode(NodeConfig("b", graph, (3,), hosting, batching=batching))
    b_task = asyncio.create_task(b.serve(lambda port: ports.update(b=port)))
    assert await _until(lambda: "b" in ports, 5.0)

    open_connection = asyncio.open_connection

    async def flaky_open_connection(host, port, **kwargs):
        if port == ports["b"] and pair.refuse:
            raise ConnectionRefusedError("injected refusal")
        reader, writer = await open_connection(host, port, **kwargs)
        if port == ports["b"]:
            writer = _FlakyWriter(writer)
            pair.stream_writers.append(writer)
        return reader, writer

    monkeypatch.setattr(asyncio, "open_connection", flaky_open_connection)
    pair.a = a = LiveNode(NodeConfig("a", graph, (1, 2), hosting, batching=batching,
                                     peers={"b": ("127.0.0.1", ports["b"])}))
    a_task = asyncio.create_task(a.serve(lambda port: ports.update(a=port)))
    assert await _until(lambda: len(pair.stream_writers) == 1, 5.0)
    pair.stream = a.peer_streams["b"]
    assert await _until(lambda: pair.stream.connected, 5.0)
    pair.client = await open_connection("127.0.0.1", ports["a"])
    pair.decoder = StreamDecoder()
    try:
        yield pair
    finally:
        pair.client[1].close()
        a.stopping.set()
        b.stopping.set()
        await asyncio.wait_for(asyncio.gather(a_task, b_task), 10.0)


async def _window_survives_reset(monkeypatch):
    # max_messages is out of reach: while a copy is outstanding only a
    # deadline can flush these windows.
    batching = BatchingConfig(max_messages=64, max_delay=MAX_DELAY)
    async with _pair(monkeypatch, batching) as pair:
        stream = pair.stream
        frontier = pair.b.tenants[3].replica.frontier
        # b's ACK of the first copy is lost: that copy stays on the wire,
        # so the stream is never idle and windows wait for their deadlines.
        note_acked, lost = pair.a.note_acked, []

        def lose_first_ack(destination, uids):
            if lost:
                note_acked(destination, uids)
            else:
                lost.append(uids)

        pair.a.note_acked = lose_first_ack
        await pair.write(2, "y", "outstanding")
        assert await _until(lambda: lost, MAX_DELAY + SLACK)
        # Channel (2, 3) flushes its next window on a connection that dies
        # under it …
        await pair.write(2, "y", "b-side")
        await asyncio.sleep(MAX_DELAY / 2)
        # … while channel (1, 3) has a window open, half-way to its deadline.
        await pair.write(1, "x", "a-side")
        assert (1, 3) in stream.sender.windows
        pair.stream_writers[0].fail_next_write = True
        assert await _until(lambda: len(pair.stream_writers) == 2, 5.0)
        reconnected = time.monotonic()
        # No further traffic on (1, 3): its window must still go out, within
        # one max_delay of the reconnect (plus scheduling slack).
        arrived = await _until(lambda: frontier == {1: 1, 2: 2}, MAX_DELAY + SLACK)
        elapsed = time.monotonic() - reconnected
        settled = await _until(
            lambda: stream.unacked() == 0 and stream.queued() == 0, 2.0)
    return arrived, elapsed, settled


def test_window_open_on_another_channel_survives_a_connection_reset(monkeypatch):
    arrived, elapsed, settled = asyncio.run(_window_survives_reset(monkeypatch))
    assert arrived, (
        "the (1, 3) window opened under the dead connection was never flushed"
    )
    assert elapsed <= MAX_DELAY + SLACK
    assert settled, "unacked / send_queue did not return to 0"


#: A deadline no test waits for: only the ack clock can send in time.
LONG_DELAY = 5.0


async def _idle_write(monkeypatch):
    batching = BatchingConfig(max_messages=64, max_delay=LONG_DELAY)
    async with _pair(monkeypatch, batching) as pair:
        frontier = pair.b.tenants[3].replica.frontier
        started = time.monotonic()
        await pair.write(1, "x", "now")
        arrived = await _until(lambda: frontier == {1: 1}, LONG_DELAY / 2)
        elapsed = time.monotonic() - started
        settled = await _until(pair.settled, 2.0)
    return arrived, elapsed, settled


def test_a_write_on_an_idle_stream_does_not_wait_for_the_deadline(monkeypatch):
    arrived, elapsed, settled = asyncio.run(_idle_write(monkeypatch))
    assert arrived and elapsed < LONG_DELAY / 2, (
        "the copy waited for the batching deadline on an idle stream"
    )
    assert settled, "unacked / send_queue did not return to 0"


MAX_MESSAGES = 4
PILE = 3 * MAX_MESSAGES + 1


async def _pile_up(monkeypatch):
    batching = BatchingConfig(max_messages=MAX_MESSAGES, max_delay=MAX_DELAY)
    async with _pair(monkeypatch, batching) as pair:
        # The stream dies under (1, 3)'s own first batch of the run …
        await pair.cut(1, "x")
        # … and more than max_messages copies pile up behind it while it is
        # down; every write is still answered.
        for n in range(PILE - 1):
            await pair.write(1, "x", n)
        piled = pair.stream.queued()
        assert pair.received((1, 3)) == []
        await pair.heal()
        arrived = await _until(lambda: len(pair.received((1, 3))) == PILE, 5.0)
        settled = await _until(pair.settled, 2.0)
        return (piled, arrived, settled, list(pair.received((1, 3))),
                pair.b.tenants[3].counters.duplicates,
                pair.a.senders["b"].book[(1, 3)].batches)


def test_copies_piled_up_while_the_stream_is_down_go_out_in_order(monkeypatch):
    piled, arrived, settled, stream, duplicates, batches = asyncio.run(
        _pile_up(monkeypatch))
    assert piled > MAX_MESSAGES
    assert arrived and stream == [(1, seq) for seq in range(1, PILE + 1)]
    assert duplicates == 0
    assert batches >= math.ceil(PILE / MAX_MESSAGES)
    assert settled, "unacked / send_queue did not return to 0"


async def _backpressure(monkeypatch):
    monkeypatch.setattr(net_node, "SEND_QUEUE_LIMIT", 4)
    batching = BatchingConfig(max_messages=64, max_delay=MAX_DELAY)
    async with _pair(monkeypatch, batching) as pair:
        await pair.cut(2, "y")
        for n in range(4):
            await pair.write(1, "x", n)
        fifth = asyncio.ensure_future(pair.write(1, "x", 4))
        done, _ = await asyncio.wait({fifth}, timeout=MAX_DELAY + 0.2)
        blocked = not done
        await pair.heal()
        await asyncio.wait_for(fifth, 5.0)
        arrived = await _until(lambda: len(pair.received((1, 3))) == 5, 5.0)
        settled = await _until(pair.settled, 2.0)
        return blocked, arrived, settled, list(pair.received((1, 3)))


def test_a_channel_holding_send_queue_limit_copies_blocks_its_writer(monkeypatch):
    blocked, arrived, settled, stream = asyncio.run(_backpressure(monkeypatch))
    assert blocked, "the fifth write was answered while the stream was down"
    assert arrived and stream == [(1, seq) for seq in range(1, 6)]
    assert settled, "unacked / send_queue did not return to 0"


# ----------------------------------------------------------------------
# serve()'s teardown with inbound connections still open
# ----------------------------------------------------------------------

async def _stop_with_open_connections():
    graph = ShareGraph.from_placement(RegisterPlacement.from_dict(
        {1: {"x"}, 2: {"y"}, 3: {"x", "y"}}))
    ports = {}
    # b's stream to a never connects (no address): a task serve() must end.
    b = LiveNode(NodeConfig("b", graph, (3,), {1: "a", 2: "a", 3: "b"}))
    serving = asyncio.create_task(b.serve(lambda port: ports.update(b=port)))
    assert await _until(lambda: "b" in ports, 5.0)
    idle = await asyncio.open_connection("127.0.0.1", ports["b"])
    client = await asyncio.open_connection("127.0.0.1", ports["b"])
    client[1].write(encode_frame(frames.OP, frames.encode_op(1, 3, "write", "x", "v")))
    reply = StreamDecoder().feed(await client[0].read(65536))
    assert await _until(lambda: b.inbound_connections == 2, 5.0)
    client[1].write(encode_frame(frames.SHUTDOWN))
    await asyncio.wait_for(serving, 5.0)
    ends = [await asyncio.wait_for(reader.read(65536), 5.0)
            for reader, _ in (idle, client)]
    for _, writer in (idle, client):
        writer.close()
    pending = [task for task in asyncio.all_tasks()
               if task is not asyncio.current_task()]
    return reply, ends, pending, b.inbound_connections


def test_serve_returns_with_inbound_connections_open_and_leaves_nothing(capfd):
    reply, ends, pending, inbound = asyncio.run(_stop_with_open_connections())
    assert [kind for kind, _ in reply] == [frames.OP_REPLY]
    assert ends == [b"", b""], "an inbound connection outlived serve()"
    assert pending == [] and inbound == 0
    assert capfd.readouterr().err == ""
