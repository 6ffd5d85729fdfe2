"""Property-based tests (hypothesis) for the wire codecs.

Random share graphs drive random write/apply sequences through all four
replica families, and every timestamp the protocols actually produce must:

* round-trip exactly through its family codec (``decode ∘ encode = id``),
  in full mode and through a per-channel delta stream;
* have an encoded size that is monotone against the paper's counter
  measure: at least one byte per counter, non-decreasing under pointwise
  counter growth, and strictly increasing when the index set grows;
* encode to exactly the bytes of a from-scratch reference encoder, with
  the incrementally derived full frame size and the layouts timestamps
  inherit along a channel (sender and receiver side) never drifting from
  what a fresh timestamp would give.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.full_track import FullTrackReplica
from repro.baselines.hoop_tracking import HoopTrackingReplica
from repro.baselines.vector_clock_full import FullReplicationReplica
from repro.core.registers import RegisterPlacement
from repro.core.replica import EdgeIndexedReplica
from repro.core.share_graph import ShareGraph
from repro.core.timestamps import EdgeTimestamp, VectorTimestamp
from repro.wire import (
    ChannelDeltaDecoder,
    ChannelDeltaEncoder,
    decode_timestamp_frame,
    encode_timestamp_frame,
)
from repro.wire.codecs import MODE_DELTA, MODE_FULL
from repro.wire.primitives import encode_atom, encode_uvarint

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

edges_strategy = st.dictionaries(
    keys=st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(lambda e: e[0] != e[1]),
    values=st.integers(0, 2**40),
    min_size=1,
    max_size=16,
)

vector_strategy = st.dictionaries(
    keys=st.integers(1, 12), values=st.integers(0, 2**40), min_size=1, max_size=12
)


@st.composite
def placements(draw, max_replicas: int = 5, max_registers: int = 6):
    """Random register placements in which every register has ≥ 1 owner."""
    num_replicas = draw(st.integers(2, max_replicas))
    num_registers = draw(st.integers(1, max_registers))
    stores = {rid: set() for rid in range(1, num_replicas + 1)}
    for reg_index in range(num_registers):
        owners = draw(
            st.sets(st.integers(1, num_replicas), min_size=1, max_size=num_replicas)
        )
        for owner in owners:
            stores[owner].add(f"r{reg_index}")
    for rid in stores:
        stores[rid].add(f"local_{rid}")
    return RegisterPlacement.from_dict(stores)


FAMILIES = {
    "edge": EdgeIndexedReplica,
    "matrix": FullTrackReplica,
    "vector": FullReplicationReplica,
    "hoop": HoopTrackingReplica,
}


def _replica_timestamp_sequence(graph, factory, seed, length=12):
    """Drive one replica with random local writes and cross-replica applies,
    yielding the (message, codec) pairs its protocol actually emits."""
    rng = random.Random(seed)
    replicas = {rid: factory(graph, rid) for rid in graph.replica_ids}
    produced = []
    for _ in range(length):
        rid = rng.choice(list(graph.replica_ids))
        replica = replicas[rid]
        registers = sorted(replica.registers & set(graph.registers_at(rid)))
        if not registers:
            registers = sorted(replica.registers)
        register = rng.choice(registers)
        messages = replica.write(register, rng.random())
        for message in messages:
            produced.append((message, replica.wire_codec()))
        # Deliver a random prefix so merges advance other replicas' clocks.
        for message in messages:
            if rng.random() < 0.7:
                replicas[message.destination].receive(message)
                replicas[message.destination].apply_ready()
    return produced


# ----------------------------------------------------------------------
# Round-trip identity for protocol-produced timestamps, all four families
# ----------------------------------------------------------------------

class TestProtocolRoundTrips:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(placements(), st.integers(0, 10_000))
    def test_all_families_round_trip_real_timestamp_sequences(self, placement, seed):
        graph = ShareGraph.from_placement(placement)
        for family, cls in FAMILIES.items():
            factory = lambda g, rid: cls(g, rid)  # noqa: E731
            for message, codec in _replica_timestamp_sequence(graph, factory, seed):
                frame = encode_timestamp_frame(message.metadata, codec=codec)
                decoded, offset = decode_timestamp_frame(frame.data)
                assert decoded == message.metadata, family
                assert offset == len(frame.data)
                # The byte measure lower-bounds to the counter measure.
                assert len(frame.data) >= message.metadata.size_counters()

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(placements(), st.integers(0, 10_000))
    def test_channel_delta_streams_round_trip(self, placement, seed):
        graph = ShareGraph.from_placement(placement)
        for family, cls in FAMILIES.items():
            factory = lambda g, rid: cls(g, rid)  # noqa: E731
            encoder, decoder = ChannelDeltaEncoder(), ChannelDeltaDecoder()
            for message, codec in _replica_timestamp_sequence(graph, factory, seed):
                data, sizes = encoder.encode_message(message, codec=codec)
                decoded, offset = decoder.decode_message(
                    data, 0, message.sender, message.destination
                )
                assert decoded == message, family
                assert offset == len(data)
                # A delta frame never exceeds its full counterfactual.
                assert sizes.timestamp_bytes <= sizes.timestamp_bytes_full


# ----------------------------------------------------------------------
# Monotonicity of encoded size vs. the counter measure
# ----------------------------------------------------------------------

class TestSizeMonotonicity:
    @settings(max_examples=100, deadline=None)
    @given(edges_strategy)
    def test_edge_bytes_lower_bounded_by_counters(self, counters):
        ts = EdgeTimestamp(counters)
        frame = encode_timestamp_frame(ts)
        assert len(frame.data) >= ts.size_counters()

    @settings(max_examples=100, deadline=None)
    @given(edges_strategy, st.integers(0, 2**20))
    def test_edge_pointwise_growth_never_shrinks_encoding(self, counters, bump):
        ts = EdgeTimestamp(counters)
        grown = EdgeTimestamp({e: v + bump for e, v in counters.items()})
        assert len(encode_timestamp_frame(grown).data) >= len(
            encode_timestamp_frame(ts).data
        )

    @settings(max_examples=100, deadline=None)
    @given(edges_strategy)
    def test_edge_index_growth_strictly_grows_encoding(self, counters):
        ts = EdgeTimestamp(counters)
        extra_edge = (99, 100)
        assert extra_edge not in counters
        grown = EdgeTimestamp({**counters, extra_edge: 0})
        assert len(encode_timestamp_frame(grown).data) > len(
            encode_timestamp_frame(ts).data
        )

    @settings(max_examples=100, deadline=None)
    @given(vector_strategy, st.integers(0, 2**20))
    def test_vector_pointwise_growth_never_shrinks_encoding(self, counters, bump):
        ts = VectorTimestamp(counters)
        grown = VectorTimestamp({r: v + bump for r, v in counters.items()})
        assert len(encode_timestamp_frame(grown).data) >= len(
            encode_timestamp_frame(ts).data
        )
        assert len(encode_timestamp_frame(ts).data) >= ts.size_counters()

    @settings(max_examples=100, deadline=None)
    @given(edges_strategy)
    def test_full_round_trip_arbitrary_edge_timestamps(self, counters):
        ts = EdgeTimestamp(counters)
        frame = encode_timestamp_frame(ts)
        assert decode_timestamp_frame(frame.data)[0] == ts

    @settings(max_examples=100, deadline=None)
    @given(vector_strategy)
    def test_full_round_trip_arbitrary_vector_timestamps(self, counters):
        ts = VectorTimestamp(counters)
        frame = encode_timestamp_frame(ts)
        assert decode_timestamp_frame(frame.data)[0] == ts

    @settings(max_examples=60, deadline=None)
    @given(edges_strategy, edges_strategy)
    def test_delta_round_trip_monotone_pairs(self, base, growth):
        """For any prev ≤ ts on the same index, the delta frame reproduces ts."""
        prev = EdgeTimestamp(base)
        ts = EdgeTimestamp(
            {e: v + growth.get(e, 0) for e, v in base.items()}
        )
        frame = encode_timestamp_frame(ts, prev=prev)
        assert len(frame.data) <= frame.full_size
        decoded, _ = decode_timestamp_frame(frame.data, prev=prev)
        assert decoded == ts


# ----------------------------------------------------------------------
# Exactness of the inherited layout and the incremental full size
# ----------------------------------------------------------------------

def _reference_order(family, counters):
    """The canonical entry order, derived from the format definition."""
    if family == "matrix":
        ids = sorted({rid for edge in counters for rid in edge})
        return [(a, b) for a in ids for b in ids if a != b]
    return sorted(counters)


def _reference_body(family, counters):
    """The full body, built from scratch with nothing cached."""
    order = _reference_order(family, counters)
    if family == "matrix":
        ids = sorted({rid for edge in counters for rid in edge})
        out = encode_uvarint(len(ids)) + b"".join(encode_atom(rid) for rid in ids)
        return out + b"".join(encode_uvarint(counters[pair]) for pair in order)
    out = encode_uvarint(len(order))
    for entry in order:
        atoms = (entry,) if family == "vector" else entry
        out += b"".join(encode_atom(atom) for atom in atoms)
        out += encode_uvarint(counters[entry])
    return out


def _reference_frame(family, codec, ts, prev):
    """``(frame bytes, full frame size)`` of the smaller valid encoding."""
    full = bytes((codec.tag, MODE_FULL)) + _reference_body(family, ts.counters)
    if prev is None or set(prev.counters) != set(ts.counters):
        return full, len(full)
    changed = []
    for position, entry in enumerate(_reference_order(family, prev.counters)):
        step = ts.counters[entry] - prev.counters[entry]
        if step < 0:
            return full, len(full)
        if step:
            changed.append((position, step))
    delta = bytes((codec.tag, MODE_DELTA)) + encode_uvarint(len(changed))
    last = -1
    for position, step in changed:
        delta += encode_uvarint(position - last - 1) + encode_uvarint(step)
        last = position
    return (delta if len(delta) < len(full) else full), len(full)


def _reindexed(family, ts, extra):
    """``ts`` over its index set widened by ``extra`` new replica ids
    (zero-initialised, the way an epoch migration widens ``E_i``)."""
    if not extra:
        return ts
    if family == "vector":
        return VectorTimestamp({**ts.counters, **{rid: 0 for rid in extra}})
    if family == "matrix":
        ids = sorted({rid for edge in ts.counters for rid in edge} | set(extra))
        return ts.migrated([(a, b) for a in ids for b in ids if a != b])
    anchor = min(tail for tail, _ in ts.counters)
    return ts.migrated(list(ts.counters) + [(rid, anchor) for rid in extra])


def _bumped(ts, offsets):
    """``ts`` with ``offsets`` added (big jumps change varint lengths)."""
    counters = {entry: value + offsets.get(entry, 0) for entry, value in ts.counters.items()}
    return type(ts)._from_validated(counters)


def _channel_chains(graph, factory, seed):
    """Every channel's timestamp sequence, perturbed by migrations, large
    counter jumps and channel resets (``None``), still monotone between
    resets on an unchanged index set."""
    by_channel = {}
    for message, codec in _replica_timestamp_sequence(graph, factory, seed, length=24):
        by_channel.setdefault((message.sender, message.destination), []).append(
            (message.metadata, codec)
        )
    rng = random.Random(seed)
    for sequence in by_channel.values():
        chain, extra, offsets = [], (), {}
        for ts, codec in sequence:
            roll = rng.random()
            if roll < 0.15:
                chain.append((None, codec))
            elif roll < 0.3:
                extra = rng.choice([(), (90,), (90, 91)])
            elif roll < 0.5:
                entry = rng.choice(sorted(ts.counters))
                offsets[entry] = offsets.get(entry, 0) + rng.choice([100, 20_000, 2**30])
            chain.append((_bumped(_reindexed(FAMILY_OF[codec.name], ts, extra), offsets), codec))
        yield chain


FAMILY_OF = {"edge": "edge", "hoop": "edge", "vector": "vector", "matrix": "matrix"}


class TestLayoutExactness:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(placements(), st.integers(0, 10_000))
    def test_frames_match_a_from_scratch_reference(self, placement, seed):
        graph = ShareGraph.from_placement(placement)
        for cls in FAMILIES.values():
            factory = lambda g, rid: cls(g, rid)  # noqa: E731
            for chain in _channel_chains(graph, factory, seed):
                prev = prev_decoded = None
                for ts, codec in chain:
                    if ts is None:
                        prev = prev_decoded = None
                        continue
                    family = FAMILY_OF[codec.name]
                    frame = encode_timestamp_frame(ts, codec=codec, prev=prev)
                    expected, full_size = _reference_frame(family, codec, ts, prev)
                    # Full and delta bytes equal the reference encoder's.
                    assert frame.data == expected
                    # The full size derived from ``prev`` equals the size
                    # of a from-scratch full encoding of a fresh copy.
                    fresh = type(ts)._from_validated(dict(ts.counters))
                    assert codec.full_frame_size(ts) == frame.full_size == full_size
                    assert 2 + len(codec.encode_full(fresh)) == full_size
                    # A decoded timestamp re-encodes to the same bytes; a
                    # delta-decoded one does so through its inherited layout.
                    decoded, _ = decode_timestamp_frame(frame.data, prev=prev_decoded)
                    assert decoded == ts
                    if frame.used_delta:
                        assert codec.layout_of(decoded) is codec.layout_of(prev_decoded)
                    assert codec.encode_full(decoded) == codec.encode_full(fresh)
                    assert codec.encode_full(ts) == codec.encode_full(fresh)
                    prev, prev_decoded = ts, decoded
