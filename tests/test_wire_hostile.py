"""Hostile bytes: a corrupt timestamp or message frame fails typed.

Every decoder of a timestamp frame — full frames of each family, delta
frames against a real previous timestamp — and a channel's message decoder
(:meth:`ChannelDeltaDecoder.decode_message`) must turn truncated, mutated
or extended input into a :class:`WireFormatError` or a clean decode, never
another exception and never work beyond the frame: a count is checked
against the bytes that could hold it before anything is built.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import WireFormatError
from repro.core.protocol import BootstrapMetadata, Update, UpdateMessage
from repro.core.timestamps import EdgeTimestamp, VectorTimestamp
from repro.wire.channel import ChannelDeltaDecoder, ChannelDeltaEncoder
from repro.wire.codecs import (
    EDGE_CODEC,
    HOOP_CODEC,
    MATRIX_CODEC,
    MODE_DELTA,
    RECONFIG_CODEC,
    VECTOR_CODEC,
    decode_timestamp_frame,
    encode_timestamp_frame,
)

IDS = (1, 2, 3, 4)
PAIRS = [(a, b) for a in IDS for b in IDS if a != b]


def _family_cases():
    """``(codec, prev, ts)`` per family: ``ts`` raises some of ``prev``'s
    counters, by small and by varint-growing steps."""
    edge = EdgeTimestamp({(1, 2): 5, (2, 1): 0, (3, 1): 129, (1, 3): 7})
    edge_next = edge.incremented([(1, 2), (3, 1)]).incremented([(3, 1)] * 200)
    matrix = EdgeTimestamp({pair: a + b for pair, (a, b) in zip(PAIRS, PAIRS)})
    matrix_next = matrix.incremented(PAIRS[::3])
    vector = VectorTimestamp({1: 3, 2: 0, 9: 1000})
    vector_next = vector.incremented(2).incremented(9)
    return [
        (EDGE_CODEC, edge, edge_next),
        (HOOP_CODEC, edge, edge_next),
        (MATRIX_CODEC, matrix, matrix_next),
        (VECTOR_CODEC, vector, vector_next),
        (RECONFIG_CODEC, None, BootstrapMetadata(index=3, total=9, epoch=2)),
    ]


def _frames():
    """``(frame bytes, prev)``: every family's full frame (decoded without
    channel state) and delta frame (decoded against its real ``prev``)."""
    frames = []
    for codec, prev, ts in _family_cases():
        frames.append((encode_timestamp_frame(ts, codec=codec).data, None))
        if prev is not None:
            delta = encode_timestamp_frame(ts, codec=codec, prev=prev)
            assert delta.used_delta
            frames.append((delta.data, prev))
    return frames


FRAMES = _frames()


def _mutations(draw_data, data):
    """Truncate, overwrite one byte, insert bytes or extend ``data``."""
    kind = draw_data.draw(st.sampled_from(["truncate", "flip", "insert", "extend"]))
    at = draw_data.draw(st.integers(0, len(data)))
    if kind == "truncate":
        return data[:at]
    if kind == "flip" and at < len(data):
        byte = draw_data.draw(st.integers(0, 255))
        return data[:at] + bytes((byte,)) + data[at + 1:]
    extra = draw_data.draw(st.binary(min_size=1, max_size=12))
    if kind == "insert":
        return data[:at] + extra + data[at:]
    return data + extra


def _decodes_or_fails_typed(decode):
    try:
        decode()
    except WireFormatError:
        pass


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(FRAMES), data=st.data())
def test_mutated_timestamp_frames_fail_typed(case, data):
    frame, prev = case
    hostile = _mutations(data, frame)
    # Against the real previous timestamp, against none, and against one
    # of another family: only a WireFormatError may escape.
    for base in (prev, None, FRAMES[-2][1]):
        _decodes_or_fails_typed(lambda: decode_timestamp_frame(hostile, 0, prev=base))
        _decodes_or_fails_typed(
            lambda: decode_timestamp_frame(memoryview(hostile), 0, prev=base)
        )


@settings(max_examples=200, deadline=None)
@given(body=st.binary(max_size=24), family=st.sampled_from(_family_cases()),
       delta=st.booleans())
def test_random_timestamp_bodies_fail_typed(body, family, delta):
    codec, prev, _ = family
    header = bytes((codec.tag, MODE_DELTA if delta else 0))
    _decodes_or_fails_typed(lambda: decode_timestamp_frame(header + body, 0, prev=prev))


def _message(seq, ts, value):
    return UpdateMessage(
        update=Update(issuer=1, seq=seq, register="reg", value=value),
        sender=1, destination=2, metadata=ts, metadata_size=ts.size_counters(),
    )


def _channel_frames():
    """A full then a delta message frame on one channel, with the base the
    decoder holds before the delta one."""
    encoder = ChannelDeltaEncoder()
    first = EdgeTimestamp({(1, 2): 1, (2, 1): 0, (3, 1): 2})
    second = first.incremented([(1, 2), (3, 1)])
    full, _ = encoder.encode_message(_message(1, first, "héllo"), codec=EDGE_CODEC)
    delta, sizes = encoder.encode_message(_message(2, second, 3.5), codec=EDGE_CODEC)
    assert sizes.delta_frames == 1
    return [(full, None), (delta, first)]


CHANNEL_FRAMES = _channel_frames()


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(CHANNEL_FRAMES), data=st.data())
def test_mutated_message_frames_fail_typed(case, data):
    frame, base = case
    hostile = _mutations(data, frame)
    decoder = ChannelDeltaDecoder({(1, 2): base} if base is not None else None)
    _decodes_or_fails_typed(lambda: decoder.decode_message(hostile, 0, 1, 2))


def test_channel_frames_decode_clean():
    decoder = ChannelDeltaDecoder()
    for frame, _ in CHANNEL_FRAMES:
        message, offset = decoder.decode_message(frame, 0, 1, 2)
        assert offset == len(frame)
    assert message.metadata == EdgeTimestamp({(1, 2): 2, (2, 1): 0, (3, 1): 3})


# ----------------------------------------------------------------------
# The named cases
# ----------------------------------------------------------------------

PREV = EdgeTimestamp({(1, 2): 5, (2, 1): 0, (3, 1): 129})


def _delta(body: bytes) -> bytes:
    return bytes((EDGE_CODEC.tag, MODE_DELTA)) + body


def test_delta_gap_past_the_index_fails_typed():
    # One raised counter, three entries skipped: position 3 of 3.
    with pytest.raises(WireFormatError, match="past the previous timestamp"):
        decode_timestamp_frame(_delta(b"\x01\x03\x01"), prev=PREV)


@pytest.mark.parametrize("count", [4, 2, 2**40], ids=["beyond-the-index", "beyond-the-body", "huge"])
def test_delta_count_larger_than_the_body_fails_before_decoding(count):
    from repro.wire.primitives import encode_uvarint

    with pytest.raises(WireFormatError, match="raises"):
        decode_timestamp_frame(_delta(encode_uvarint(count) + b"\x00\x01"), prev=PREV)


@pytest.mark.parametrize("codec", [EDGE_CODEC, VECTOR_CODEC, MATRIX_CODEC], ids=lambda c: c.name)
def test_full_count_larger_than_the_body_fails_before_decoding(codec):
    from repro.wire.primitives import encode_uvarint

    frame = bytes((codec.tag, 0)) + encode_uvarint(2**40) + b"\x02\x04\x01"
    with pytest.raises(WireFormatError, match="cannot hold"):
        decode_timestamp_frame(frame)


def test_empty_delta_reproduces_the_previous_timestamp():
    decoded, offset = decode_timestamp_frame(_delta(b"\x00"), prev=PREV)
    assert decoded == PREV and decoded.index is PREV.index
    assert decoded.values is not PREV.values and offset == 3
