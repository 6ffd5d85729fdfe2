"""A live node's inbound connection, driven in process with no socket.

Importable by name (``from inbound import serve``), like ``placements``.
:class:`RecordingTransport` stands in for the asyncio transport under
:class:`repro.net.node._Inbound`: it records every write, whether the
node closed it and whether the node is reading from it.
"""

from __future__ import annotations

import asyncio

from repro.net.node import _Inbound


class RecordingTransport:
    """Records every write; ``reading`` follows pause/resume_reading."""

    def __init__(self):
        self.writes = []
        self.closed = False
        self.reading = True

    def write(self, data):
        self.writes.append(bytes(data))

    def get_extra_info(self, _name):
        return None

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True

    abort = close

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True


def connect(node, transport=None):
    """Open one inbound connection to ``node`` over ``transport``."""
    connection = _Inbound(node)
    connection.connection_made(transport if transport is not None
                               else RecordingTransport())
    return connection


def feed(connection, *chunks):
    """Hand ``connection`` each chunk as one read; a callable among them
    runs between the chunks around it.  Chunks after the node closed the
    connection are never read."""
    for chunk in chunks:
        if callable(chunk):
            chunk()
        elif not connection.transport.closed:
            connection.data_received(chunk)


def serve(node, *chunks, transport=None):
    """One inbound connection over ``chunks``, then end of stream; returns
    its transport.  It runs on an event loop, as on a node, so a write
    can start the peer stream its copies need."""
    async def run():
        connection = connect(node, transport)
        feed(connection, *chunks)
        connection.connection_lost(None)
        return connection.transport

    return asyncio.run(run())
