"""A directed channel's sending half, and the delta state of both halves.

The paper assumes reliable point-to-point channels that hand every update,
with its timestamp, to the destination exactly once (Section 2).  This
module is the one implementation of the *sending* side of that contract:
:class:`ChannelSender`, a clock-free, socket-free state machine, with its
one option (:class:`BatchingConfig`) and its byte book
(:class:`ChannelWireStats`).  Two drivers feed it messages, settled uids
and the current time and carry out what it hands back — an encoded batch,
a deadline to arm, a copy to re-send: the simulator's
:class:`~repro.sim.engine.Transport` (kernel timers, resend timers, sampled
delays) and the live node's peer streams (:mod:`repro.net.node`: sockets).
Everything a copy waits in before the wire is the sender's: its channel's
window.  Everything the sender remembers about a copy is one :class:`Copy`
in its sent-log, from :meth:`ChannelSender.log` until
:meth:`ChannelSender.settle`.  ``docs/ARCHITECTURE.md`` ("Channels") has
the division of labour.

Delta timestamp frames (:mod:`repro.wire.codecs`) are defined against *the
previous timestamp shipped on the same channel* — the state a real
deployment keeps per TCP connection (:class:`ChannelDeltaEncoder` /
:class:`ChannelDeltaDecoder`).  The pairing contract is a FIFO byte
stream's: every frame encoded for a channel must be decoded in that order.
A channel with no prior traffic, or one whose stream was severed, falls
back to full frames automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from ..core.counters import counter
from ..core.errors import ConfigurationError
from ..core.protocol import Known, UpdateId, UpdateMessage
from ..core.registers import ReplicaId
from .batch import MessageBatch, encode_batch
from .codecs import TimestampCodec
from .frames import WireSizes, decode_message_frame, encode_message_frame_into

Channel = Tuple[ReplicaId, ReplicaId]
#: One copy of an update: ``(update id, destination)``.
CopyKey = Tuple[UpdateId, ReplicaId]


@dataclass(frozen=True)
class BatchingConfig:
    """Parameters of a channel's batching window.

    Every message sent on a channel joins that channel's open window; the
    window is flushed as one :class:`~repro.wire.batch.MessageBatch` when
    it reaches ``max_messages`` or when its ``max_delay`` deadline (armed
    by the first message) passes.  ``max_delay`` is in the driver's time
    unit: kernel time in the simulator, seconds on a live node.  A live
    node flushes earlier, on the ack clock (a stream with nothing
    unacknowledged sends its windows at once), so there ``max_delay`` is
    an upper bound on a window's wait, not the wait itself.  Batches
    on a channel never overtake each other — one FIFO byte stream — which
    is what makes cross-batch delta frames (``delta_encoding``) sound.
    """

    max_messages: int = 16
    max_delay: float = 1.0
    delta_encoding: bool = True

    def __post_init__(self) -> None:
        if self.max_messages < 1:
            raise ConfigurationError("batching max_messages must be at least 1")
        if self.max_delay < 0:
            raise ConfigurationError("batching max_delay must be non-negative")


@dataclass
class ChannelWireStats:
    """Byte-accurate accounting of one channel's outgoing traffic."""

    messages: int = counter("messages on this channel")
    batches: int = counter("batches flushed on this channel")
    header_bytes: int = counter("envelope/identity bytes")
    timestamp_bytes: int = counter("timestamp-frame bytes")
    payload_bytes: int = counter("payload-value bytes")
    timestamp_bytes_full: int = counter(
        "what the timestamp frames would have cost without delta encoding")
    delta_frames: int = counter("timestamp frames shipped as per-channel deltas")
    full_frames: int = counter("timestamp frames shipped in full")

    @property
    def total_bytes(self) -> int:
        """All bytes put on this channel."""
        return self.header_bytes + self.timestamp_bytes + self.payload_bytes


class ChannelDeltaEncoder:
    """Sender-side per-channel state for timestamp delta frames."""

    def __init__(self) -> None:
        self._last: Dict[Channel, Any] = {}

    def encode_message_into(
        self,
        out: bytearray,
        message: UpdateMessage,
        codec: Optional[TimestampCodec] = None,
    ) -> WireSizes:
        """Append one message frame to ``out``, delta-encoding against
        channel state (which the call advances)."""
        channel = (message.sender, message.destination)
        prev = self._last.get(channel)
        sizes = encode_message_frame_into(out, message, codec=codec, prev=prev)
        self._last[channel] = message.metadata
        return sizes

    def encode_message(
        self, message: UpdateMessage, codec: Optional[TimestampCodec] = None
    ) -> Tuple[bytes, WireSizes]:
        """Encode one message frame, delta-encoding against channel state."""
        out = bytearray()
        sizes = self.encode_message_into(out, message, codec=codec)
        return bytes(out), sizes

    def reset(self, channel: Optional[Channel] = None) -> None:
        """Forget channel state (one channel, or all): next frame goes full."""
        if channel is None:
            self._last.clear()
        else:
            self._last.pop(channel, None)


class ChannelDeltaDecoder:
    """Receiver-side mirror of :class:`ChannelDeltaEncoder`.

    Must consume every frame of a channel in encode order (the FIFO-stream
    contract above); the decoded timestamp becomes the state the next delta
    frame on that channel is applied to.  ``bases`` resumes a chain from a
    saved :attr:`bases` map.
    """

    def __init__(self, bases: Optional[Dict[Channel, Any]] = None) -> None:
        self._last: Dict[Channel, Any] = dict(bases) if bases else {}

    @property
    def bases(self) -> Dict[Channel, Any]:
        """The last timestamp decoded per channel (the live map)."""
        return self._last

    def decode_message(
        self,
        data: bytes,
        offset: int,
        sender: ReplicaId,
        destination: ReplicaId,
    ) -> Tuple[UpdateMessage, int]:
        """Decode one message frame, updating the channel state."""
        channel = (sender, destination)
        message, offset = decode_message_frame(
            data, offset, sender, destination, prev=self._last.get(channel)
        )
        self._last[channel] = message.metadata
        return message, offset

    def reset(self, channel: Optional[Channel] = None) -> None:
        """Forget channel state (one channel, or all)."""
        if channel is None:
            self._last.clear()
        else:
            self._last.pop(channel, None)


class Window:
    """One channel's open batching window: the messages, when each joined
    (driver time), and when the driver must flush at the latest."""

    __slots__ = ("messages", "times", "deadline")

    def __init__(self, deadline: float) -> None:
        self.messages: List[UpdateMessage] = []
        self.times: List[float] = []
        self.deadline = deadline


class Copy:
    """One logged copy: its message and, in ``stamped``, when it last went
    on the wire (``None`` while off it; a stamped copy is *outstanding*).
    Going back on the wire unstamped restarts ``sent_at`` and ``retries``."""

    __slots__ = ("message", "sent_at", "stamped", "retries")

    def __init__(self, message: UpdateMessage) -> None:
        self.message = message
        self.sent_at = 0.0  # when it joined the window it last went out from
        self.stamped: Optional[float] = None
        self.retries = 0


class Flushed(NamedTuple):
    """What :meth:`ChannelSender.flush` hands the driver to put on the wire."""

    batch: MessageBatch
    data: bytes
    sizes: WireSizes
    times: Tuple[float, ...]  # when each message joined the window
    epoch: int  # the channel's stream epoch the batch was encoded in
    #: Copies that became outstanding with this flush (resend timers to arm).
    tracked: Tuple[CopyKey, ...]


class ChannelSender:
    """The sending half of a set of directed channels, as a pure state machine.

    A driver owns one sender per group of channels that share a fate: the
    simulator's transport one for all of them, a live node one per peer
    node (one TCP stream).  All state is keyed by channel or by copy; no
    method reads a clock or draws a random number.
    """

    def __init__(self, batching: Optional[BatchingConfig] = None) -> None:
        self.batching: Optional[BatchingConfig] = None
        self.encoder: Optional[ChannelDeltaEncoder] = None
        #: Open batching windows, oldest first.
        self.windows: Dict[Channel, Window] = {}
        self._seq: Dict[Channel, int] = {}
        self._epoch: Dict[Channel, int] = {}
        #: Every copy per destination, in send order, from :meth:`log`
        #: until :meth:`settle`: the sender's one record of a copy.
        self.sent_log: Dict[ReplicaId, Dict[UpdateId, Copy]] = {}
        #: How many logged copies are stamped (outstanding).
        self.unacked = 0
        self.book: Dict[Channel, ChannelWireStats] = {}
        if batching is not None:
            self.enable_batching(batching)

    def enable_batching(self, config: BatchingConfig) -> None:
        """Open batching windows from now on (delta chains if configured)."""
        self.batching = config
        if config.delta_encoding and self.encoder is None:
            self.encoder = ChannelDeltaEncoder()

    # -- windows -------------------------------------------------------
    def add(self, message: UpdateMessage, now: float) -> Tuple[bool, Optional[Window]]:
        """Join the channel's window; returns ``(full, opened)``.

        ``full``: the window reached ``max_messages``, flush it now.
        ``opened``: the window itself if this message opened it (its
        ``deadline`` is the one the driver arms), else ``None``.
        """
        channel = (message.sender, message.destination)
        opened = None
        window = self.windows.get(channel)
        if window is None:
            window = opened = Window(now + self.batching.max_delay)
            self.windows[channel] = window
        window.messages.append(message)
        window.times.append(now)
        return len(window.messages) >= self.batching.max_messages, opened

    def flush(self, channel: Channel, codec: Optional[TimestampCodec],
              now: float) -> Optional[Flushed]:
        """Close the channel's window into one sequenced, encoded batch.

        Encoding happens exactly once, here, in send order — the FIFO
        stream the delta frames assume.  The batch is booked and its
        logged copies are stamped.  A window holding more than
        ``max_messages`` (one that grew while its stream was down) gives
        up its oldest ``max_messages``; the rest stay in the same window,
        with the same deadline.
        """
        window = self.windows.get(channel)
        if window is None:
            return None
        limit = self.batching.max_messages
        if len(window.messages) <= limit:
            del self.windows[channel]
            messages, times = window.messages, window.times
        else:
            messages, times = window.messages[:limit], window.times[:limit]
            del window.messages[:limit], window.times[:limit]
        seq = self._seq.get(channel, 0)
        self._seq[channel] = seq + 1
        batch = MessageBatch(sender=channel[0], destination=channel[1],
                             seq=seq, messages=tuple(messages))
        data, sizes = encode_batch(batch, encoder=self.encoder, codec=codec)
        self.account(channel, sizes, messages=len(batch.messages), batches=1)
        tracked = tuple(
            (message.update.uid, channel[1])
            for message, sent_at in zip(messages, times)
            if self.stamp(message, sent_at, now)
        )
        return Flushed(batch, data, sizes, tuple(times),
                       self._epoch.get(channel, 0), tracked)

    def account(self, channel: Channel, sizes: WireSizes,
                messages: int, batches: int = 0) -> None:
        """Book one encoded envelope into the channel's byte book."""
        book = self.book.get(channel)
        if book is None:
            book = self.book[channel] = ChannelWireStats()
        book.messages += messages
        book.batches += batches
        book.header_bytes += sizes.header_bytes
        book.timestamp_bytes += sizes.timestamp_bytes
        book.payload_bytes += sizes.payload_bytes
        book.timestamp_bytes_full += sizes.timestamp_bytes_full
        book.delta_frames += sizes.delta_frames
        book.full_frames += sizes.full_frames

    # -- streams: sequence numbers, epochs, delta chains ----------------
    def channels(self) -> Set[Channel]:
        """Channels with stream state: a flushed batch or an open window."""
        return set(self._seq) | set(self.windows)

    def epoch(self, channel: Channel) -> int:
        """The channel's stream epoch (bumped by every :meth:`sever`)."""
        return self._epoch.get(channel, 0)

    def sever(self, channel: Optional[Channel] = None) -> None:
        """The channel's byte stream died (one channel, or all).

        What was in flight is gone, and the receiver's decoder state with
        it: the epoch moves on (old-epoch batches are stale), sequence
        numbers restart and the next frame goes full.  An open window (not
        encoded yet) and the outstanding copies survive.
        """
        for severed in (self.channels() if channel is None else (channel,)):
            self._epoch[severed] = self._epoch.get(severed, 0) + 1
            self._seq[severed] = 0
        self.restart_chain(channel)

    def restart_chain(self, channel: Optional[Channel] = None) -> None:
        """Make the next frame on the channel (or on all) a full one."""
        if self.encoder is not None:
            self.encoder.reset(channel)

    def forget(self, replica_id: ReplicaId) -> None:
        """Drop all state of channels touching a replica that left."""
        book = self.sent_log.pop(replica_id, {})
        self.unacked -= sum(copy.stamped is not None for copy in book.values())
        for channel in [c for c in self.channels() if replica_id in c]:
            self._seq.pop(channel, None)
            self._epoch.pop(channel, None)
            self.restart_chain(channel)

    # -- the sent-log: one Copy per copy, from log to settle -------------
    def log(self, message: UpdateMessage) -> None:
        """Retain a copy for its destination until it is settled.  Logging
        it again (a state transfer re-sending a lost uid under a new epoch)
        replaces its message, not its place in the log or its wire state."""
        book = self.sent_log.setdefault(message.destination, {})
        book.setdefault(message.update.uid, Copy(message)).message = message

    def settle(self, destination: ReplicaId,
               uids: Iterable[UpdateId]) -> List[UpdateId]:
        """The destination holds these updates (the live node learns it
        from an ACK, the simulator from a delivery): their copies leave the
        sent-log, on the wire or not.  Returns the uids that were logged."""
        book = self.sent_log.get(destination)
        if not book:
            return []
        settled = []
        for uid in uids:
            copy = book.pop(uid, None)
            if copy is not None:
                settled.append(uid)
                if copy.stamped is not None:
                    self.unacked -= 1
        return settled

    def stamp(self, message: UpdateMessage, sent_at: float, now: float) -> bool:
        """A copy went on the wire; ``True`` when it was not on it before.
        A copy no longer logged is settled already and stays settled."""
        book = self.sent_log.get(message.destination)
        copy = book.get(message.update.uid) if book else None
        if copy is None:
            return False
        fresh = copy.stamped is None
        if fresh:
            copy.sent_at = sent_at
            copy.retries = 0
            self.unacked += 1
        copy.stamped = now
        return fresh

    def on_wire(self, key: CopyKey) -> Optional[Copy]:
        """The copy if it is outstanding, else ``None``."""
        uid, destination = key
        book = self.sent_log.get(destination)
        copy = book.get(uid) if book else None
        return copy if copy is not None and copy.stamped is not None else None

    def stamped(self) -> Dict[CopyKey, Copy]:
        """Every outstanding copy by key, in sent-log order."""
        return {(uid, destination): copy
                for destination, book in self.sent_log.items()
                for uid, copy in book.items() if copy.stamped is not None}

    def retry(self, key: CopyKey, now: float) -> int:
        """Re-stamp an outstanding copy the driver is re-sending; returns
        the retries it has spent (the driver decides which is the last)."""
        copy = self.on_wire(key)
        copy.retries += 1
        copy.stamped = now
        return copy.retries

    def abandon(self, key: CopyKey) -> None:
        """Stop waiting for a copy: it leaves the wire but stays logged,
        so a resync can still recover it."""
        copy = self.on_wire(key)
        if copy is not None:
            copy.stamped = None
            self.unacked -= 1

    def rewind(self, now: float) -> None:
        """A fresh stream: every outstanding copy rejoins the head of its
        channel's window, in sent-log (issue) order — ahead of the copies
        already waiting there.  A copy still waiting from an earlier rewind
        stays where it is."""
        heads: Dict[Channel, List[Copy]] = {}
        for copy in self.stamped().values():
            message = copy.message
            heads.setdefault((message.sender, message.destination), []).append(copy)
        for channel, copies in heads.items():
            window = self.windows.setdefault(channel, Window(now + self.batching.max_delay))
            waiting = {message.update.uid for message in window.messages}
            copies = [copy for copy in copies if copy.message.update.uid not in waiting]
            window.messages[:0] = [copy.message for copy in copies]
            window.times[:0] = [copy.sent_at for copy in copies]

    # -- anti-entropy ------------------------------------------------------
    def inflight(self) -> Set[CopyKey]:
        """Copies on their way: in an open window, or outstanding."""
        copies = set(self.stamped())
        for (_, destination), window in self.windows.items():
            copies.update((m.update.uid, destination) for m in window.messages)
        return copies

    def missing(self, destination: ReplicaId, known: Known,
                skip_inflight: bool = False) -> List[UpdateMessage]:
        """Logged messages to ``destination`` that ``known`` does not cover,
        in send order; ``skip_inflight`` leaves out copies already on their
        way (a peer whose known predates them must not get them twice)."""
        skip: Set[UpdateId] = set()
        if skip_inflight:
            skip = {uid for uid, to in self.inflight() if to == destination}
        return [copy.message
                for uid, copy in self.sent_log.get(destination, {}).items()
                if uid not in skip and not known.covers(copy.message)]
