"""Work counts of the timestamp codecs on the dense graph, without timing.

On the pairwise 8-clique every timestamp indexes 56 edges.  Once a channel
has carried its first frames, encoding a message must cost per-message work
only for the raised counters: the timestamp inherits its predecessor's
layout (sorted index, pre-encoded atoms) and its full frame size.  The same
holds for a ``W_DELIVER`` record of a delta-decoded message, which
re-encodes a full frame through the inherited layout, and for the record
of a co-hosted copy, whose timestamp is the writer's ``τ_i`` and inherits
its layout along the replica's ``advance``/``merge`` chain.  The codec module's
atom encoders, varint sizer, ``sorted`` and the layout builder are wrapped
in counters, so a change that brings ``O(|E_i|)`` atom or sizing work back
fails here instead of only showing up as a slower benchmark.
"""

from __future__ import annotations

import builtins
from collections import Counter

import pytest

from repro.core.replica import EdgeIndexedReplica
from repro.core.share_graph import ShareGraph
from repro.core.timestamps import EdgeTimestamp
from repro.net import wal
from repro.sim.topologies import pairwise_clique_placement
from repro.wire import codecs
from repro.wire.batch import MessageBatch
from repro.wire.channel import ChannelDeltaDecoder, ChannelDeltaEncoder

COUNTED = ("encode_atom", "encode_atom_into", "uvarint_size")


@pytest.fixture
def calls(monkeypatch):
    """Counts of every atom-level, sorting or layout-building codec call."""
    counts: Counter = Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for name in COUNTED:
        if hasattr(codecs, name):
            monkeypatch.setattr(codecs, name, counting(name, getattr(codecs, name)))
    # A module global shadows the builtin for every lookup in the module.
    monkeypatch.setattr(codecs, "sorted", counting("sorted", builtins.sorted), raising=False)
    build = codecs.EdgeTimestampCodec._build_layout
    monkeypatch.setattr(
        codecs.EdgeTimestampCodec, "_build_layout", counting("_build_layout", build)
    )
    return counts


def _clique_channel():
    """Replicas of the pairwise 8-clique and a run of writes from 1 to 2,
    each after an apply from every other replica (so counters move)."""
    graph = ShareGraph.from_placement(pairwise_clique_placement(8))
    replicas = {rid: EdgeIndexedReplica(graph, rid) for rid in graph.replica_ids}
    sender, destination = replicas[1], replicas[2]
    assert sender.timestamp.size_counters() == 56
    shared = sorted(graph.shared_registers(1, 2))[0]

    def next_message(step):
        for other in sorted(graph.replica_ids)[2:]:
            register = sorted(graph.shared_registers(other, 1))[0]
            for message in replicas[other].write(register, step):
                replicas[message.destination].receive(message)
                replicas[message.destination].apply_ready()
        (message,) = sender.write(shared, step)
        return message

    return destination, next_message


def test_steady_state_codec_work_follows_the_raised_counters(calls):
    destination, next_message = _clique_channel()
    encoder, decoder = ChannelDeltaEncoder(), ChannelDeltaDecoder()
    codec = codecs.EDGE_CODEC

    def ship(step):
        message = next_message(step)
        data, sizes = encoder.encode_message(message, codec=codec)
        decoded, _ = decoder.decode_message(data, 0, message.sender, message.destination)
        destination.receive(decoded)
        destination.apply_ready()
        return message, decoded, sizes

    # The first frame goes full and builds the sender's layout; the second
    # builds the receiver's, from the full-decoded timestamp.
    ship(0)
    ship(1)
    assert calls["_build_layout"] == 2
    calls.clear()

    for step in range(2, 6):
        message, decoded, sizes = ship(step)
        assert sizes.delta_frames == 1
        # The receiver's record of the decoded copy, and the sender's
        # record of its own copy (what a co-hosted delivery writes).
        for copy in (decoded, message):
            record = wal.encode_deliver_record(
                0.0, MessageBatch(1, 2, step, (copy,)), codec
            )
            assert wal.decode_deliver_record(record)[1].messages[0].metadata == copy.metadata
    assert calls == Counter(), dict(calls)


def test_intra_node_deliver_records_reuse_the_writers_layout(calls):
    """A co-hosted copy never passes a channel encoder, so its ``W_DELIVER``
    record is the only encode its timestamp sees.  The writer's ``τ_i``
    inherits its layout across every ``advance`` and ``merge``: the first
    record builds it, no later one does."""
    _, next_message = _clique_channel()
    codec = codecs.EDGE_CODEC
    records = []
    for step in range(6):
        message = next_message(step)
        if step == 1:
            calls.clear()
        records.append(wal.encode_deliver_record(
            0.0, MessageBatch(1, 2, 0, (message,)), codec
        ))
    assert calls == Counter(), dict(calls)
    # Byte-identical to a from-scratch encode of an uncached copy.
    for record in records:
        (message,) = wal.decode_deliver_record(record)[1].messages
        fresh = MessageBatch(1, 2, 0, (message,))
        assert wal.encode_deliver_record(0.0, fresh, codec) == record


def test_index_set_caches_name_every_codec_layout():
    """The timestamp's inherited caches must cover each codec's layout
    attribute, or a successor silently rebuilds it."""
    for codec in (codecs.EDGE_CODEC, codecs.MatrixTimestampCodec()):
        assert codec._LAYOUT_ATTR in EdgeTimestamp._INDEX_SET_CACHES
