"""The load generator: one thread, one selector, one connection per node.

The benchmark drives the live runtime from outside, over the same control
protocol :class:`repro.net.runtime.ControlLink` speaks — ``encode_frame``
/ ``frames.encode_op`` out, ``StreamDecoder`` / ``frames.decode_op_reply``
in — but without reader threads: on a 2-core box two node processes plus
a threaded client would fight the interpreter lock *and* the cores, and
the client's own scheduling noise would land in every latency.

Two drives:

* :meth:`LoadGenerator.run_paced` — **open loop**: operation ``k`` is due
  at ``start + k / rate`` whatever the system does; latency is timed from
  that due instant, so a stall is charged to every operation it delays,
  and how late the generator itself ran is recorded per operation.
* :meth:`LoadGenerator.run_closed` — **closed loop**: a fixed number of
  operations in flight per connection; a reply releases the next.  DSM
  clients wait for their read or write to return, so this is the faithful
  saturation model.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.net import frames
from repro.net.framing import StreamDecoder, encode_frame

#: How long a phase waits for the replies still outstanding at its end;
#: an operation unanswered by then counts as failed.
REPLY_TIMEOUT_S = 10.0


@dataclass
class PhaseLog:
    """Per-operation stamps of one drive, in send order.

    All times are ``time.perf_counter()`` seconds.  ``done`` is ``None``
    for an operation that was never answered.
    """

    #: When the operation was due (open loop) / released (closed loop).
    due: List[float] = field(default_factory=list)
    #: When its frame was handed to the socket layer.
    sent: List[float] = field(default_factory=list)
    done: List[Optional[float]] = field(default_factory=list)
    status: List[Optional[int]] = field(default_factory=list)
    #: The measured window (after the discarded warm-up).
    window: Tuple[float, float] = (0.0, 0.0)
    #: ``time.time() - time.perf_counter()`` at the start of the phase,
    #: for mapping the window onto the cluster's wall clock.
    wall_offset: float = 0.0

    def measured(self) -> List[int]:
        """Positions of the operations due inside the measured window."""
        start, end = self.window
        return [k for k, due in enumerate(self.due) if start <= due < end]

    def failed(self, positions: Sequence[int]) -> int:
        """Operations rejected or unanswered among ``positions``."""
        return sum(
            1 for k in positions
            if self.done[k] is None or self.status[k] != frames.OP_OK
        )


class _Connection:
    __slots__ = ("node_id", "sock", "decoder", "outbuf", "inflight",
                 "queue", "cursor", "writing")

    def __init__(self, node_id: Any, sock: socket.socket) -> None:
        self.node_id = node_id
        self.sock = sock
        self.decoder = StreamDecoder()
        self.outbuf = bytearray()
        self.inflight = 0
        #: Closed loop only: this connection's operations (pool indices)
        #: and the position of the next one to send (wraps around).
        self.queue: List[int] = []
        self.cursor = 0
        self.writing = False


class LoadGenerator:
    """Drives operations at a live cluster's nodes over control connections."""

    def __init__(self, addresses: Mapping[Any, Tuple[str, int]],
                 replica_node: Mapping[Any, Any]) -> None:
        # select(2), not epoll: the epoll selector rounds timeouts up to a
        # whole millisecond, which at 2,500 ops/s (one every 400 us) would
        # make the generator itself late by more than the system's latency.
        self._selector = selectors.SelectSelector()
        self._connections: Dict[Any, _Connection] = {}
        self._replica_node = dict(replica_node)
        self._next_op_id = 1
        #: Last value written per register, in send order.  Every register
        #: has one writer and each writer one connection, so send order is
        #: the order the cluster must converge to.
        self.last_written: Dict[Any, Any] = {}
        for node_id, address in sorted(addresses.items(), key=lambda kv: str(kv[0])):
            sock = socket.create_connection(address, timeout=5.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(encode_frame(frames.CONTROL_HELLO))
            sock.setblocking(False)
            connection = _Connection(node_id, sock)
            self._connections[node_id] = connection
            self._selector.register(sock, selectors.EVENT_READ, connection)

    def close(self) -> None:
        for connection in self._connections.values():
            try:
                self._selector.unregister(connection.sock)
            except (KeyError, ValueError):
                pass
            connection.sock.close()
        self._connections.clear()
        self._selector.close()

    def __enter__(self) -> "LoadGenerator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Socket plumbing
    # ------------------------------------------------------------------
    def _connection_for(self, operation: Any) -> _Connection:
        return self._connections[self._replica_node[operation.replica_id]]

    def _submit(self, connection: _Connection, op_id: int, operation: Any) -> None:
        connection.outbuf += encode_frame(frames.OP, frames.encode_op(
            op_id, operation.replica_id, operation.kind,
            operation.register, operation.value,
        ))
        connection.inflight += 1
        if operation.kind == "write":
            self.last_written[operation.register] = operation.value

    def _flush(self, connection: _Connection) -> None:
        if connection.outbuf:
            try:
                sent = connection.sock.send(connection.outbuf)
            except BlockingIOError:
                sent = 0
            del connection.outbuf[:sent]
        writing = bool(connection.outbuf)
        if writing != connection.writing:
            connection.writing = writing
            events = selectors.EVENT_READ | (selectors.EVENT_WRITE if writing else 0)
            self._selector.modify(connection.sock, events, connection)

    def _read(self, connection: _Connection) -> List[Tuple[int, int]]:
        """Drain the socket; returns ``(op id, status)`` of each reply."""
        try:
            chunk = connection.sock.recv(1 << 16)
        except BlockingIOError:
            return []
        if not chunk:
            raise ConnectionError(f"node {connection.node_id!r} closed its control connection")
        replies = []
        for kind, payload in connection.decoder.feed(chunk):
            if kind == frames.OP_REPLY:
                op_id, status, _value = frames.decode_op_reply(payload)
                replies.append((op_id, status))
        return replies

    # ------------------------------------------------------------------
    # Open loop
    # ------------------------------------------------------------------
    def run_paced(self, pool: Sequence[Any], first: int, rate: float,
                  warmup: float, measure: float) -> Tuple[PhaseLog, int]:
        """Send ``pool[first:]`` at ``rate`` ops/s for ``warmup + measure`` s.

        Returns the log and the number of pool entries consumed.
        """
        count = int(round((warmup + measure) * rate))
        if first + count > len(pool):
            raise ValueError("operation pool too small for the paced phase")
        log = PhaseLog()
        base = self._next_op_id
        self._next_op_id += count
        interval = 1.0 / rate
        start = time.perf_counter() + 0.005
        log.wall_offset = time.time() - time.perf_counter()
        log.window = (start + warmup, start + warmup + measure)
        log.done = [None] * count
        log.status = [None] * count
        deadline = log.window[1] + REPLY_TIMEOUT_S
        issued = 0
        outstanding = 0
        while issued < count or outstanding:
            now = time.perf_counter()
            if now > deadline:
                break
            touched = set()
            while issued < count and start + issued * interval <= now:
                operation = pool[first + issued]
                connection = self._connection_for(operation)
                self._submit(connection, base + issued, operation)
                log.due.append(start + issued * interval)
                log.sent.append(time.perf_counter())
                touched.add(connection)
                issued += 1
                outstanding += 1
            for connection in touched:
                self._flush(connection)
            if issued < count:
                timeout = max(0.0, start + issued * interval - time.perf_counter())
            else:
                timeout = max(0.0, deadline - now)
            for key, mask in self._selector.select(timeout):
                connection = key.data
                if mask & selectors.EVENT_READ:
                    replies = self._read(connection)
                    stamp = time.perf_counter()
                    for op_id, status in replies:
                        position = op_id - base
                        log.done[position] = stamp
                        log.status[position] = status
                        connection.inflight -= 1
                        outstanding -= 1
                if mask & selectors.EVENT_WRITE:
                    self._flush(connection)
        return log, count

    # ------------------------------------------------------------------
    # Closed loop
    # ------------------------------------------------------------------
    def run_closed(self, pool: Sequence[Any], first: int, inflight: int,
                   warmup: float = 0.0, measure: Optional[float] = None,
                   marks: Sequence[float] = (),
                   on_mark: Optional[Callable[[int], None]] = None) -> PhaseLog:
        """Keep ``inflight`` operations outstanding per connection.

        ``pool[first:]`` is split per connection in order.  With a
        ``measure`` length the phase runs ``warmup + measure`` seconds and
        a connection that exhausts its share wraps around to its beginning
        (a single-writer schedule stays single-writer under repetition);
        with ``measure=None`` every operation is sent exactly once and the
        call returns when all are answered.  ``marks`` are offsets into
        the measured window; ``on_mark(k)`` fires when the loop first
        passes ``marks[k]`` — the hook the runner samples node CPU from.
        """
        log = PhaseLog()
        for connection in self._connections.values():
            connection.queue = []
            connection.cursor = 0
        for index in range(first, len(pool)):
            self._connection_for(pool[index]).queue.append(index)
        active = [c for c in self._connections.values() if c.queue]
        if not active:
            raise ValueError("operation pool too small for the closed phase")
        once = measure is None
        base = self._next_op_id
        start = time.perf_counter()
        log.wall_offset = time.time() - start
        window_start = start + warmup
        window_end = float("inf") if once else window_start + measure
        log.window = (window_start, window_end)
        next_mark = 0

        def release(connection: _Connection, now: float) -> None:
            if connection.cursor >= len(connection.queue):
                if once:
                    return
                connection.cursor = 0
            index = connection.queue[connection.cursor]
            connection.cursor += 1
            self._submit(connection, base + len(log.due), pool[index])
            log.due.append(now)
            log.sent.append(now)
            log.done.append(None)
            log.status.append(None)

        now = time.perf_counter()
        for connection in active:
            for _ in range(inflight):
                release(connection, now)
            self._flush(connection)
        last_progress = now
        while any(c.inflight for c in active):
            now = time.perf_counter()
            while next_mark < len(marks) and now >= window_start + marks[next_mark]:
                if on_mark is not None:
                    on_mark(next_mark)
                next_mark += 1
            if now - last_progress > REPLY_TIMEOUT_S:
                break
            timeout = 0.05
            if next_mark < len(marks):
                timeout = min(timeout, max(0.0, window_start + marks[next_mark] - now))
            for key, mask in self._selector.select(timeout):
                connection = key.data
                if mask & selectors.EVENT_READ:
                    replies = self._read(connection)
                    stamp = last_progress = time.perf_counter()
                    for op_id, status in replies:
                        position = op_id - base
                        log.done[position] = stamp
                        log.status[position] = status
                        connection.inflight -= 1
                        if stamp < window_end:
                            release(connection, stamp)
                    self._flush(connection)
                elif mask & selectors.EVENT_WRITE:
                    self._flush(connection)
        # The closing mark can coincide with the last replies: fire what
        # the loop did not get to.
        while on_mark is not None and next_mark < len(marks):
            on_mark(next_mark)
            next_mark += 1
        self._next_op_id = base + len(log.due)
        return log
