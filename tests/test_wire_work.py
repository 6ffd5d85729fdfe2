"""Work counts of the timestamp kernels and codecs on the dense graph, without timing.

On the pairwise 8-clique every timestamp indexes 56 edges.  A timestamp is
a counter list over an interned index set (:mod:`repro.core.timestamps`),
and the index set carries each codec family's layout (sorted entries,
pre-encoded atoms), so once a channel has carried its first frame:

* encoding a message costs per-message work only for the raised counters —
  no atom encoding, sizing, sorting or layout building.  The same holds
  for a ``W_DELIVER`` record of a delta-decoded message (it shares the
  sender's index set) and for the record of a co-hosted copy (the writer's
  ``τ_i`` keeps its index set across every ``advance`` and ``merge``);
* ``advance``, ``merge``, the predicate ``J`` (``blocking_key``) and the
  delta encoder and decoder work at precomputed positions: none of them
  builds the ``Mapping`` view of a timestamp or hashes an edge tuple.

The codec module's atom encoders, sizers, ``sorted`` and the layout
builder are wrapped in counters, as are the timestamp's ``Mapping`` read
API and — through replica ids whose ``__hash__`` counts — every hash of an
edge, so a change that brings ``O(|E_i|)`` dict work back fails here
instead of only showing up as a slower benchmark.
"""

from __future__ import annotations

import builtins
from collections import Counter

import pytest

from repro.core.registers import RegisterPlacement
from repro.core.replica import EdgeIndexedReplica
from repro.core.share_graph import ShareGraph
from repro.core.timestamps import EdgeTimestamp, _PositionalTimestamp
from repro.net import wal
from repro.sim.topologies import pairwise_clique_placement
from repro.wire import codecs
from repro.wire.batch import MessageBatch
from repro.wire.channel import ChannelDeltaDecoder, ChannelDeltaEncoder
from repro.wire.primitives import decode_uvarint

COUNTED = ("encode_atom", "encode_atom_into", "uvarint_size", "counter_bytes")


@pytest.fixture
def calls(monkeypatch):
    """Counts of every atom-level, sizing, sorting or layout-building codec call."""
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
    for cls in (codecs.EdgeTimestampCodec, codecs.MatrixTimestampCodec):
        build = cls._build_layout
        monkeypatch.setattr(cls, "_build_layout", counting("_build_layout", build))
    return counts


def _clique_channel(placement=None):
    """Replicas of the pairwise 8-clique and a run of writes from 1 to 2,
    each after an apply from every other replica (so counters move)."""
    graph = ShareGraph.from_placement(placement or pairwise_clique_placement(8))
    replicas = {rid: EdgeIndexedReplica(graph, rid) for rid in graph.replica_ids}
    one, two = sorted(graph.replica_ids)[:2]
    sender, destination = replicas[one], replicas[two]
    assert sender.timestamp.size_counters() == 56
    shared = sorted(graph.shared_registers(one, two))[0]

    def next_message(step):
        for other in sorted(graph.replica_ids)[2:]:
            register = sorted(graph.shared_registers(other, one))[0]
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

    # The first frame goes full and builds the layout of the sender's index
    # set (unless a live one over the same edges has it already); the
    # receiver's decoded timestamp shares that index set.
    ship(0)
    ship(1)
    assert calls["_build_layout"] <= 1
    calls.clear()

    for step in range(2, 6):
        message, decoded, sizes = ship(step)
        assert sizes.delta_frames == 1
        assert decoded.metadata.index is message.metadata.index
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
    keeps its index set across every ``advance`` and ``merge``: the first
    record builds the layout, no later one does."""
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


def test_every_family_keeps_its_layout_on_the_index_set(calls):
    """One layout per index set and family: a successor over the same set
    reuses it, and the edge and hoop families share theirs."""
    # Ids no other test uses: index sets are interned process-wide, and
    # this one must start with no layout built.
    ids = range(101, 105)
    ts = EdgeTimestamp.zero([(a, b) for a in ids for b in ids if a != b])
    later = ts.incremented([(101, 102)]).merged_with(ts.incremented([(103, 101)]))
    assert later.index is ts.index
    for codec in (codecs.EDGE_CODEC, codecs.HOOP_CODEC, codecs.MATRIX_CODEC):
        assert codec.layout_of(later) is codec.layout_of(ts)
        assert ts.index.layouts[codec.shape] is codec.layout_of(ts)
    assert codecs.HOOP_CODEC.layout_of(ts) is codecs.EDGE_CODEC.layout_of(ts)
    assert calls["_build_layout"] == 2


# ----------------------------------------------------------------------
# Zero calls: no Mapping view, no edge hashed on the steady-state path
# ----------------------------------------------------------------------

class CountingId(int):
    """A replica id whose hash is counted while :data:`WATCH` is on.

    Hashing an edge ``(tail, head)`` hashes both ids, so any dict or set
    lookup of an edge shows up here."""

    def __hash__(self) -> int:
        if WATCH["on"]:
            WATCH["hashes"][WATCH["on"]] += 1
        return int.__hash__(self)


WATCH = {"on": None, "hashes": Counter(), "views": Counter(), "calls": Counter()}

VIEW = ("counters", "get", "__getitem__", "items", "__iter__", "__contains__")
HOOKS = (
    ("advance", EdgeIndexedReplica, "make_metadata"),
    ("merge", EdgeIndexedReplica, "absorb_metadata"),
    ("blocking_key", EdgeIndexedReplica, "blocking_key"),
    ("delta_encode", codecs.EdgeTimestampCodec, "encode_delta_into"),
    ("delta_decode", codecs.EdgeTimestampCodec, "decode_delta"),
)


@pytest.fixture
def watched(monkeypatch):
    """Counts, per hook, the id hashes and ``Mapping``-view reads made
    while that hook runs."""
    WATCH["hashes"].clear()
    WATCH["views"].clear()
    WATCH["calls"].clear()

    def hook(name, function):
        def wrapper(*args, **kwargs):
            WATCH["calls"][name] += 1
            outer, WATCH["on"] = WATCH["on"], name
            try:
                return function(*args, **kwargs)
            finally:
                WATCH["on"] = outer

        return wrapper

    def view(name, function):
        def wrapper(*args, **kwargs):
            if WATCH["on"]:
                WATCH["views"][WATCH["on"], name] += 1
            return function(*args, **kwargs)

        return wrapper

    for name, cls, attribute in HOOKS:
        monkeypatch.setattr(cls, attribute, hook(name, getattr(cls, attribute)))
    for name in VIEW:
        attribute = _PositionalTimestamp.__dict__[name]
        if isinstance(attribute, property):
            wrapped = property(view(name, attribute.fget))
        else:
            wrapped = view(name, attribute)
        monkeypatch.setattr(_PositionalTimestamp, name, wrapped)
    monkeypatch.setattr(
        EdgeTimestamp, "edges", property(view("edges", EdgeTimestamp.edges.fget))
    )
    yield WATCH
    WATCH["on"] = None


def _delta_positions(data):
    """The counter positions a delta timestamp frame raises."""
    assert data[1] == codecs.MODE_DELTA
    count, offset = decode_uvarint(data, 2)
    positions, position = [], -1
    for _ in range(count):
        gap, offset = decode_uvarint(data, offset)
        _, offset = decode_uvarint(data, offset)
        position += gap + 1
        positions.append(position)
    return positions


def test_steady_state_kernels_build_no_view_and_hash_no_edge(watched):
    # Ids no other test uses, so the index sets are built from these ids
    # (index sets are interned by value, process-wide).
    stores = pairwise_clique_placement(8).stores
    placement = RegisterPlacement.from_dict(
        {CountingId(1000 + rid): registers for rid, registers in stores.items()}
    )
    destination, next_message = _clique_channel(placement)
    codec = codecs.EDGE_CODEC
    prev = prev_decoded = None
    for step in range(8):
        if step == 2:
            # Past the first full frame and the first message per index set.
            watched["hashes"].clear()
            watched["views"].clear()
            watched["calls"].clear()
        message = next_message(step)
        ts = message.metadata
        frame = codecs.encode_timestamp_frame(ts, codec=codec, prev=prev)
        decoded, _ = codecs.decode_timestamp_frame(frame.data, prev=prev_decoded)
        if prev is not None:
            assert frame.used_delta
            assert _delta_positions(frame.data) == [
                p for p, (new, old) in enumerate(zip(ts.values, prev.values))
                if new != old
            ]
        destination.receive(type(message)(
            message.update, message.sender, message.destination,
            decoded, message.metadata_size,
        ))
        destination.apply_ready()
        prev, prev_decoded = ts, decoded
    # The edges are made of counting ids, every hook ran (the destination
    # merged from all eight writers), and none built a view or hashed an edge.
    assert all(type(e[0]) is CountingId for e in destination.timestamp.index.entries)
    assert set(watched["calls"]) == {name for name, _, _ in HOOKS}, watched["calls"]
    assert watched["views"] == Counter(), dict(watched["views"])
    assert watched["hashes"] == Counter(), dict(watched["hashes"])
