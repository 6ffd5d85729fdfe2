"""Control-payload codecs: SYNC, STATS, TELEMETRY, and their degenerate shapes.

``tests/test_net_framing.py`` covers the framing layer and the basic
frame round-trips; this module drills into the structured control
payloads the launcher's drain/observability machinery depends on —
including the empty and degenerate progress books a freshly booted or
fully idle node reports.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.protocol import Known
from repro.core.registers import RegisterPlacement
from repro.core.share_graph import ShareGraph
from repro.net import frames
from repro.sim.cluster import Cluster
from repro.sim.delays import FixedDelay
from repro.wire.primitives import WireFormatError, encode_uvarint

# ----------------------------------------------------------------------
# SYNC: a replica's known frontier plus its pending uids
# ----------------------------------------------------------------------


def _sync_after(rounds: int):
    """Replica 1's frontier and SYNC payload after ``rounds`` writes of the
    shared register at each of three replicas, fully delivered."""
    graph = ShareGraph.from_placement(
        RegisterPlacement.from_dict({1: {"x"}, 2: {"x"}, 3: {"x"}}))
    cluster = Cluster(graph, delay_model=FixedDelay(1.0), seed=0)
    for n in range(rounds):
        for rid in (1, 2, 3):
            cluster.write(rid, "x", n)
    cluster.run_until_quiescent()
    replica = cluster.replica(1)
    return dict(replica.frontier), frames.encode_sync(1, replica.known())


def test_sync_payload_grows_only_by_varint_growth_when_the_run_doubles():
    frontier, payload = _sync_after(100)
    doubled, doubled_payload = _sync_after(200)
    assert frontier == {1: 100, 2: 100, 3: 100}
    assert doubled == {1: 200, 2: 200, 3: 200}
    growth = sum(len(encode_uvarint(doubled[k])) - len(encode_uvarint(frontier[k]))
                 for k in frontier)
    assert len(doubled_payload) - len(payload) == growth == 3
    assert frames.decode_sync(doubled_payload) == (1, Known(doubled, frozenset()))


def test_sync_payload_roundtrips_pending_keys_and_string_ids():
    known = Known({"a": 7, 2: 1}, frozenset({(2, 3), ("a", 9)}))
    replica, decoded = frames.decode_sync(frames.encode_sync("r", known))
    assert replica == "r" and decoded == known
    # A replica's own view: the keys of its uid-keyed pending map.
    live = Known({"a": 7, 2: 1}, {("a", 9): None, (2, 3): None}.keys())
    assert frames.decode_sync(frames.encode_sync("r", live)) == ("r", known)
    with pytest.raises(WireFormatError):
        frames.decode_sync(frames.encode_sync("r", known) + b"\x00")

# ----------------------------------------------------------------------
# STATS: scalar counters + progress books
# ----------------------------------------------------------------------

counters = st.integers(min_value=0, max_value=2**40)
replica_ids = st.one_of(
    st.integers(min_value=0, max_value=10_000),
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
        min_size=1, max_size=12,
    ),
)
channels = st.tuples(replica_ids, replica_ids)
books = st.dictionaries(channels, counters, max_size=8)


@given(
    stats=st.builds(
        frames.NodeStats,
        **{name: counters for name in frames.NodeStats._FIELDS},
    ),
    outbox=books,
    inbox=books,
)
def test_stats_payload_roundtrip(stats, outbox, inbox):
    payload = frames.encode_stats_payload(stats, outbox, inbox)
    decoded_stats, decoded_outbox, decoded_inbox = frames.decode_stats_payload(
        payload
    )
    assert decoded_stats == stats
    assert decoded_outbox == outbox
    assert decoded_inbox == inbox


def test_stats_payload_empty_books():
    """A freshly booted node: all counters zero, both books empty."""
    stats = frames.NodeStats()
    payload = frames.encode_stats_payload(stats, {}, {})
    decoded_stats, outbox, inbox = frames.decode_stats_payload(payload)
    assert decoded_stats == frames.NodeStats()
    assert outbox == {} and inbox == {}


def test_stats_payload_zero_valued_books_survive():
    """A channel with 0 logged updates is still an entry, not an omission."""
    stats = frames.NodeStats(ops_done=1)
    payload = frames.encode_stats_payload(
        stats, {(1, 2): 0, (1, 3): 7}, {("w", 1): 0}
    )
    _, outbox, inbox = frames.decode_stats_payload(payload)
    assert outbox == {(1, 2): 0, (1, 3): 7}
    assert inbox == {("w", 1): 0}


def test_stats_payload_mixed_id_types_order_deterministic():
    """Int and str replica ids coexist; encoding order is deterministic."""
    stats = frames.NodeStats()
    book = {("b", 1): 1, (2, "b"): 2, ("a", "a"): 3, (1, 2): 4}
    first = frames.encode_stats_payload(stats, book, {})
    second = frames.encode_stats_payload(stats, dict(reversed(book.items())), {})
    assert first == second
    _, decoded, _ = frames.decode_stats_payload(first)
    assert decoded == book


def test_stats_payload_trailing_bytes_rejected():
    payload = frames.encode_stats_payload(frames.NodeStats(), {}, {})
    with pytest.raises(WireFormatError):
        frames.decode_stats_payload(payload + b"\x00")


def test_stats_payload_truncated_rejected():
    payload = frames.encode_stats_payload(
        frames.NodeStats(issued=300), {(1, 2): 9}, {}
    )
    with pytest.raises(WireFormatError):
        frames.decode_stats_payload(payload[:-1])


# ----------------------------------------------------------------------
# TELEMETRY: periodic metrics samples
# ----------------------------------------------------------------------

label_atoms = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1, max_size=16,
)
samples_strategy = st.lists(
    st.tuples(
        label_atoms,  # metric name
        st.lists(st.tuples(label_atoms, label_atoms), max_size=3).map(tuple),
        st.one_of(
            st.integers(min_value=0, max_value=2**50).map(float),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
        ),
    ),
    max_size=12,
)


@given(
    sampled_at=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    replica_id=replica_ids,
    samples=samples_strategy,
)
def test_telemetry_payload_roundtrip(sampled_at, replica_id, samples):
    payload = frames.encode_telemetry_payload(sampled_at, replica_id, samples)
    decoded_at, decoded_replica, decoded = frames.decode_telemetry_payload(
        payload
    )
    assert decoded_at == sampled_at
    assert decoded_replica == replica_id
    assert decoded == samples


def test_telemetry_payload_empty_samples():
    """An idle node's sample list can legitimately be empty."""
    payload = frames.encode_telemetry_payload(1.5, 3, [])
    sampled_at, replica_id, samples = frames.decode_telemetry_payload(payload)
    assert (sampled_at, replica_id, samples) == (1.5, 3, [])


def test_telemetry_payload_unlabelled_and_labelled_mix():
    samples = [
        ("repro_node_sent_total", (), 42.0),
        ("repro_node_wire_timestamp_bytes_total",
         (("dst", "2"), ("src", "1")), 1234.0),
        ("repro_node_send_queue_depth", (("replica", "1"),), 0.0),
    ]
    payload = frames.encode_telemetry_payload(0.25, "node-a", samples)
    _, _, decoded = frames.decode_telemetry_payload(payload)
    assert decoded == samples


def test_telemetry_payload_trailing_bytes_rejected():
    payload = frames.encode_telemetry_payload(1.0, 1, [])
    with pytest.raises(WireFormatError):
        frames.decode_telemetry_payload(payload + b"\x01")


def test_telemetry_frame_kind_is_distinct():
    """TELEMETRY must not collide with any existing control frame kind."""
    kinds = {
        frames.HELLO, frames.SYNC, frames.BATCH, frames.ACK,
        frames.CONTROL_HELLO, frames.ADDR, frames.OP, frames.OP_REPLY,
        frames.STATS_REQ, frames.STATS, frames.REPORT_REQ, frames.REPORT,
        frames.SHUTDOWN, frames.TELEMETRY,
    }
    assert len(kinds) == 14
