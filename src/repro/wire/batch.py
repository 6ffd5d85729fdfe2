"""The ``MessageBatch`` envelope: many messages, one wire frame.

A batch collects every message sent on one (sender, destination) channel
during a batching window and ships them as a single envelope::

    [version: 1 byte][atom sender][atom destination]
    [uvarint batch seq][uvarint message count]
    [message frame] * count

Messages inside a batch appear in send order, so a batch is a contiguous
slice of the channel's FIFO stream: the per-channel delta encoder threads
straight through batch boundaries (the first frame of a batch may delta
against the last frame of the previous batch on that channel).

The transport (:mod:`repro.sim.engine`) delivers a batch as a *single*
kernel event — the throughput win — and the envelope's per-message sharing
of sender/destination is the header-byte win.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from ..core.protocol import UpdateMessage
from ..core.registers import ReplicaId
from .codecs import TimestampCodec
from .frames import (
    WIRE_VERSION,
    WireSizes,
    decode_message_frame,
    encode_message_frame_into,
)
from .primitives import (
    WireFormatError,
    decode_atom,
    decode_uvarint,
    encode_atom_into,
    encode_uvarint_into,
)

if TYPE_CHECKING:  # channel.py builds batches, so it imports this module
    from .channel import ChannelDeltaDecoder, ChannelDeltaEncoder


@dataclass(frozen=True, slots=True)
class MessageBatch:
    """One channel's batching window, flushed: an ordered run of messages."""

    sender: ReplicaId
    destination: ReplicaId
    #: Per-channel flush sequence number (0-based), for observability.
    seq: int
    messages: Tuple[UpdateMessage, ...]

    @property
    def channel(self) -> Tuple[ReplicaId, ReplicaId]:
        """The (sender, destination) channel this batch travelled on."""
        return (self.sender, self.destination)

    def __len__(self) -> int:
        return len(self.messages)


def encode_batch(
    batch: MessageBatch,
    encoder: Optional[ChannelDeltaEncoder] = None,
    codec: Optional[TimestampCodec] = None,
) -> Tuple[bytes, WireSizes]:
    """Encode a batch envelope; returns the bytes and the size breakdown.

    With an ``encoder`` given, each message's timestamp frame delta-encodes
    against the channel's running state (which the call advances); without
    one, every frame is full.
    """
    out = bytearray((WIRE_VERSION,))
    encode_atom_into(out, batch.sender)
    encode_atom_into(out, batch.destination)
    encode_uvarint_into(out, batch.seq)
    encode_uvarint_into(out, len(batch.messages))
    sizes = WireSizes(header_bytes=len(out))
    channel = batch.channel
    for message in batch.messages:
        if (message.sender, message.destination) != channel:
            raise WireFormatError(
                f"message on channel {(message.sender, message.destination)} "
                f"cannot ride a {channel} batch"
            )
        if encoder is not None:
            frame_sizes = encoder.encode_message_into(out, message, codec=codec)
        else:
            frame_sizes = encode_message_frame_into(out, message, codec=codec)
        sizes = sizes + frame_sizes
    return bytes(out), sizes


def decode_batch(
    data: bytes,
    offset: int = 0,
    decoder: Optional[ChannelDeltaDecoder] = None,
) -> Tuple[MessageBatch, int]:
    """Decode a batch envelope; ``decoder`` supplies cross-batch delta state."""
    if offset >= len(data) or data[offset] != WIRE_VERSION:
        raise WireFormatError("bad or missing wire version byte")
    offset += 1
    sender, offset = decode_atom(data, offset)
    destination, offset = decode_atom(data, offset)
    seq, offset = decode_uvarint(data, offset)
    count, offset = decode_uvarint(data, offset)
    messages = []
    for _ in range(count):
        if decoder is not None:
            message, offset = decoder.decode_message(data, offset, sender, destination)
        else:
            message, offset = decode_message_frame(data, offset, sender, destination)
        messages.append(message)
    return (
        MessageBatch(
            sender=sender, destination=destination, seq=seq, messages=tuple(messages)
        ),
        offset,
    )
