"""Property tests for the live runtime's stream framing and control codecs.

The framing contract is the foundation the whole live runtime stands on:
**any** fragmentation or coalescing of an encoded frame sequence must
decode to the identical frame list.  Hypothesis drives the incremental
:class:`~repro.net.framing.StreamDecoder` with arbitrary chunk boundaries —
byte-at-a-time, coalesced, and randomly partitioned — against
``decode ∘ encode = id``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import frames
from repro.net.framing import (
    MAX_FRAME_SIZE,
    StreamDecoder,
    decode_all,
    encode_frame,
)
from repro.wire.primitives import WireFormatError

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

frame_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=255),
        st.binary(max_size=300),
    ),
    max_size=20,
)


def chunkings(data: bytes):
    """Strategy: cut points partitioning ``data`` into arbitrary chunks."""
    return st.lists(
        st.integers(min_value=0, max_value=len(data)), max_size=30
    ).map(lambda cuts: sorted(set(cuts)))


# ----------------------------------------------------------------------
# decode ∘ encode = id under arbitrary chunking
# ----------------------------------------------------------------------

@given(frame_lists, st.data())
@settings(max_examples=200)
def test_arbitrary_fragmentation_roundtrips(items, data):
    encoded = b"".join(encode_frame(kind, payload) for kind, payload in items)
    cuts = data.draw(chunkings(encoded))
    bounds = [0] + cuts + [len(encoded)]
    decoder = StreamDecoder()
    out = []
    for start, end in zip(bounds, bounds[1:]):
        out.extend(decoder.feed(encoded[start:end]))
    assert out == items
    assert decoder.at_boundary()


@given(frame_lists)
def test_byte_at_a_time_roundtrips(items):
    encoded = b"".join(encode_frame(kind, payload) for kind, payload in items)
    decoder = StreamDecoder()
    out = []
    for index in range(len(encoded)):
        out.extend(decoder.feed(encoded[index:index + 1]))
    assert out == items
    assert decoder.at_boundary()


@given(frame_lists)
def test_fully_coalesced_roundtrips(items):
    encoded = b"".join(encode_frame(kind, payload) for kind, payload in items)
    assert decode_all(encoded) == items


@given(frame_lists, frame_lists)
def test_streams_concatenate(first, second):
    """Two encoded streams back to back decode to the concatenated lists."""
    encoded = b"".join(
        encode_frame(kind, payload) for kind, payload in first + second
    )
    assert decode_all(encoded) == first + second


# ----------------------------------------------------------------------
# Error handling
# ----------------------------------------------------------------------

def test_truncated_stream_is_not_a_boundary():
    data = encode_frame(7, b"abcdef")
    decoder = StreamDecoder()
    assert decoder.feed(data[:-2]) == []
    assert not decoder.at_boundary()
    assert decoder.feed(data[-2:]) == [(7, b"abcdef")]
    assert decoder.at_boundary()


def test_decode_all_rejects_trailing_partial_frame():
    data = encode_frame(7, b"abcdef")
    with pytest.raises(WireFormatError):
        decode_all(data + data[:3])


def test_zero_length_frame_rejected():
    # A length prefix of zero can never hold the mandatory kind byte.
    with pytest.raises(WireFormatError):
        StreamDecoder().feed(b"\x00")


def test_oversized_frame_rejected_at_encode_and_decode():
    with pytest.raises(WireFormatError):
        encode_frame(1, b"x" * MAX_FRAME_SIZE)
    # A length prefix beyond the cap is rejected before buffering.
    from repro.wire.primitives import encode_uvarint

    with pytest.raises(WireFormatError):
        StreamDecoder().feed(encode_uvarint(MAX_FRAME_SIZE + 1))


def test_unterminated_length_prefix_rejected():
    with pytest.raises(WireFormatError):
        StreamDecoder().feed(b"\xff\xff\xff\xff\xff")


def test_frame_kind_must_fit_one_byte():
    with pytest.raises(WireFormatError):
        encode_frame(256, b"")


# ----------------------------------------------------------------------
# Control-frame codecs ride the same primitives
# ----------------------------------------------------------------------

uid_lists = st.lists(
    st.tuples(
        st.one_of(st.integers(min_value=0, max_value=10_000), st.text(max_size=8)),
        st.integers(min_value=0, max_value=1 << 40),
    ),
    max_size=50,
)


@given(uid_lists)
def test_uid_list_roundtrip(uids):
    data = frames.encode_uid_list(uids)
    decoded, offset = frames.decode_uid_list(data)
    assert decoded == uids
    assert offset == len(data)


@given(
    st.integers(min_value=0, max_value=1 << 32),
    st.one_of(st.integers(min_value=0, max_value=500), st.text(max_size=8)),
    st.sampled_from(["write", "read"]),
    st.one_of(st.integers(min_value=0, max_value=1000), st.text(max_size=16)),
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
              st.text(max_size=64), st.binary(max_size=64)),
)
def test_op_roundtrip(op_id, replica, kind, register, value):
    decoded = frames.decode_op(
        frames.encode_op(op_id, replica, kind, register, value)
    )
    assert decoded == (op_id, replica, kind, register, value)


def test_hello_addr_and_stats_roundtrip():
    assert frames.decode_hello(frames.encode_hello("n3", 61234)) == ("n3", 61234)
    assert frames.decode_addr(frames.encode_addr("n9", "127.0.0.1", 8080)) == (
        "n9", "127.0.0.1", 8080
    )
    stats = frames.NodeStats(ops_done=5, issued=2, enqueued=6, sent=6,
                             received=4, delivered=4, applied=6, pending=0,
                             send_queue=0, unacked=2, duplicates=1, resyncs=1)
    outbox, inbox = {(1, 2): 3, (1, "r9"): 1}, {(4, 1): 2}
    payload = frames.encode_stats_payload(stats, outbox, inbox)
    decoded_stats, decoded_outbox, decoded_inbox = frames.decode_stats_payload(
        payload
    )
    assert decoded_stats == stats
    assert decoded_outbox == outbox
    assert decoded_inbox == inbox


def test_tagged_uid_roundtrip():
    uids = [(1, 3), (2, 1), ("w", 9)]
    replica, decoded = frames.decode_tagged_uids(
        frames.encode_tagged_uids("r7", uids)
    )
    assert replica == "r7"
    assert decoded == uids


def test_op_reply_roundtrip():
    payload = frames.encode_op_reply(17, frames.OP_OK, "value")
    assert frames.decode_op_reply(payload) == (17, frames.OP_OK, "value")


# ----------------------------------------------------------------------
# Multiplexed channel streams: many channels, one byte stream
# ----------------------------------------------------------------------

#: Replicas 1..3 on one side, "a"/"b" on the other: every ordered pair is
#: a distinct channel that may share the host-pair stream.
_MUX_CHANNELS = [
    (src, dst)
    for src in (1, 2, 3)
    for dst in ("a", "b")
] + [("a", 1), ("b", 2)]


def _mux_message(channel, seq):
    from repro.core.protocol import Update, UpdateMessage
    from repro.core.timestamps import EdgeTimestamp

    src, dst = channel
    ts = EdgeTimestamp({(src, dst): seq})
    return UpdateMessage(
        update=Update(issuer=src, seq=seq, register="x", value=f"{src}:{seq}"),
        sender=src,
        destination=dst,
        metadata=ts,
        metadata_size=ts.size_counters(),
        payload=True,
    )


@given(
    picks=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=len(_MUX_CHANNELS) - 1),
            st.integers(min_value=1, max_value=4),
        ),
        max_size=25,
    ),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_multiplexed_channels_survive_arbitrary_fragmentation(picks, data):
    """The host-pair stream contract (PR 8): BATCH frames from many
    channels interleave on one byte stream — one shared delta
    encoder/decoder pair, channel-keyed chains — and under *arbitrary*
    fragmentation/coalescing the receiver recovers exactly each channel's
    message sequence, in order, with contiguous per-channel batch seqs."""
    from repro.wire.batch import MessageBatch, decode_batch, encode_batch
    from repro.wire.channel import ChannelDeltaDecoder, ChannelDeltaEncoder

    # Sender side: one encoder for the whole stream, per-channel counters.
    encoder = ChannelDeltaEncoder()
    sent = {}          # channel -> [messages in send order]
    batch_seq = {}     # channel -> next batch seq
    stream = bytearray()
    for index, size in picks:
        channel = _MUX_CHANNELS[index]
        window = []
        for _ in range(size):
            seq = len(sent.get(channel, ())) + 1
            message = _mux_message(channel, seq)
            sent.setdefault(channel, []).append(message)
            window.append(message)
        batch = MessageBatch(
            sender=channel[0], destination=channel[1],
            seq=batch_seq.get(channel, 0), messages=tuple(window),
        )
        batch_seq[channel] = batch.seq + 1
        payload, _ = encode_batch(batch, encoder=encoder)
        stream += encode_frame(frames.BATCH, payload)

    # Receiver side: arbitrary chunk boundaries, one decoder for the
    # stream, frames demultiplexed by the batch's self-described channel.
    cuts = data.draw(chunkings(bytes(stream)))
    bounds = [0] + cuts + [len(stream)]
    stream_decoder = StreamDecoder()
    delta_decoder = ChannelDeltaDecoder()
    received = {}
    seqs_seen = {}
    for start, end in zip(bounds, bounds[1:]):
        for kind, payload in stream_decoder.feed(bytes(stream[start:end])):
            assert kind == frames.BATCH
            batch, consumed = decode_batch(bytes(payload), decoder=delta_decoder)
            assert consumed == len(payload)
            seqs_seen.setdefault(batch.channel, []).append(batch.seq)
            received.setdefault(batch.channel, []).extend(batch.messages)

    assert stream_decoder.at_boundary()
    assert received == {channel: msgs for channel, msgs in sent.items()}
    for channel, seqs in seqs_seen.items():
        assert seqs == list(range(len(seqs)))
