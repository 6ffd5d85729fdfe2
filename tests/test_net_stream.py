"""One peer stream across a connection reset, in process, on real sockets.

Two nodes share one event loop: node ``a`` hosts replicas 1 and 2, node
``b`` hosts replica 3, so channels ``(1, 3)`` and ``(2, 3)`` ride the one
``a → b`` stream.  The connection is made to die at a chosen write by
wrapping what :func:`asyncio.open_connection` hands the stream.
"""

import asyncio
import time

from repro.core.registers import RegisterPlacement
from repro.core.share_graph import ShareGraph
from repro.net import frames
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


async def _write(client, decoder, op_id, replica, register, value):
    reader, writer = client
    writer.write(encode_frame(
        frames.OP, frames.encode_op(op_id, replica, "write", register, value)))
    await writer.drain()
    while True:
        for kind, payload in decoder.feed(await reader.read(65536)):
            if kind == frames.OP_REPLY:
                assert frames.decode_op_reply(payload)[:2] == (op_id, frames.OP_OK)
                return


async def _until(predicate, timeout):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        await asyncio.sleep(0.01)
    return True


async def _scenario(monkeypatch):
    graph = ShareGraph.from_placement(RegisterPlacement.from_dict(
        {1: {"x"}, 2: {"y"}, 3: {"x", "y"}}))
    hosting = {1: "a", 2: "a", 3: "b"}
    # max_messages is out of reach: only a deadline can flush these windows.
    batching = BatchingConfig(max_messages=64, max_delay=MAX_DELAY)

    ports = {}
    b = LiveNode(NodeConfig("b", graph, (3,), hosting, batching=batching))
    b_task = asyncio.create_task(b.serve(lambda port: ports.update(b=port)))
    assert await _until(lambda: "b" in ports, 5.0)

    stream_writers = []
    open_connection = asyncio.open_connection

    async def flaky_open_connection(host, port, **kwargs):
        reader, writer = await open_connection(host, port, **kwargs)
        if port == ports["b"]:
            writer = _FlakyWriter(writer)
            stream_writers.append(writer)
        return reader, writer

    monkeypatch.setattr(asyncio, "open_connection", flaky_open_connection)
    a = LiveNode(NodeConfig("a", graph, (1, 2), hosting, batching=batching,
                            peers={"b": ("127.0.0.1", ports["b"])}))
    a_task = asyncio.create_task(a.serve(lambda port: ports.update(a=port)))
    assert await _until(lambda: len(stream_writers) == 1, 5.0)
    stream = a.peer_streams["b"]
    assert await _until(lambda: stream.connected, 5.0)

    client = await open_connection("127.0.0.1", ports["a"])
    decoder = StreamDecoder()
    received = b.tenants[3].replica.known_update_ids
    try:
        # Channel (2, 3) flushes first, on a connection that dies under it …
        await _write(client, decoder, 1, 2, "y", "b-side")
        await asyncio.sleep(MAX_DELAY / 2)
        # … while channel (1, 3) has a window open, half-way to its deadline.
        await _write(client, decoder, 2, 1, "x", "a-side")
        stream_writers[0].fail_next_write = True
        assert await _until(lambda: len(stream_writers) == 2, 5.0)
        reconnected = time.monotonic()
        # No further traffic on (1, 3): its window must still go out, within
        # one max_delay of the reconnect (plus scheduling slack).
        arrived = await _until(lambda: len(received()) == 2, MAX_DELAY + SLACK)
        elapsed = time.monotonic() - reconnected
        settled = await _until(
            lambda: stream.unacked() == 0 and stream.queued() == 0, 2.0)
    finally:
        client[1].close()
        a.stopping.set()
        b.stopping.set()
        await asyncio.wait_for(asyncio.gather(a_task, b_task), 10.0)
    return arrived, elapsed, settled


def test_window_open_on_another_channel_survives_a_connection_reset(monkeypatch):
    arrived, elapsed, settled = asyncio.run(_scenario(monkeypatch))
    assert arrived, (
        "the (1, 3) window opened under the dead connection was never flushed"
    )
    assert elapsed <= MAX_DELAY + SLACK
    assert settled, "unacked / send_queue did not return to 0"
