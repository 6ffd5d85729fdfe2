"""The wire-format layer: primitives, codecs, delta frames, batching transport."""

from __future__ import annotations

import pytest

from repro.baselines.full_track import FullTrackReplica, full_track_factory
from repro.baselines.hoop_tracking import HoopTrackingReplica
from repro.baselines.vector_clock_full import (
    FullReplicationReplica,
    full_replication_factory,
)
from repro.clientserver import ClientServerCluster
from repro.core.protocol import Update, UpdateMessage
from repro.core.replica import EdgeIndexedReplica
from repro.core.share_graph import ShareGraph
from repro.core.timestamps import EdgeTimestamp, VectorTimestamp
from repro.sim.cluster import Cluster
from repro.sim.delays import FixedDelay, LossyDelay, UniformDelay
from repro.sim.engine import BatchingConfig, DeliveryEvent, ReliabilityConfig
from repro.sim.topologies import clique_placement, figure5_placement, triangle_placement
from repro.sim.workloads import run_workload, uniform_workload
from repro.wire import (
    EDGE_CODEC,
    HOOP_CODEC,
    MATRIX_CODEC,
    VECTOR_CODEC,
    ChannelDeltaDecoder,
    ChannelDeltaEncoder,
    MessageBatch,
    WireFormatError,
    decode_atom,
    decode_batch,
    decode_message,
    decode_svarint,
    decode_timestamp_frame,
    decode_uvarint,
    decode_value,
    encode_atom,
    encode_batch,
    encode_svarint,
    encode_timestamp_frame,
    encode_uvarint,
    encode_value,
    uvarint_size,
)
from repro.wire.codecs import MODE_DELTA, RECONFIG_CODEC


# ======================================================================
# Primitives
# ======================================================================

class TestPrimitives:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 16383, 16384, 2**40])
    def test_uvarint_round_trip_and_size(self, value):
        data = encode_uvarint(value)
        assert decode_uvarint(data) == (value, len(data))
        assert uvarint_size(value) == len(data)

    def test_uvarint_is_monotone_in_value(self):
        previous = 0
        for value in (0, 1, 127, 128, 20000, 2**32):
            assert uvarint_size(value) >= previous
            previous = uvarint_size(value)

    def test_uvarint_rejects_negative(self):
        with pytest.raises(WireFormatError):
            encode_uvarint(-1)

    @pytest.mark.parametrize("value", [0, -1, 1, -64, 64, -(2**33), 2**33])
    def test_svarint_round_trip(self, value):
        data = encode_svarint(value)
        assert decode_svarint(data) == (value, len(data))

    @pytest.mark.parametrize("value", [0, 7, -3, 2**20, "x", "ring_12", "héllo", ""])
    def test_atom_round_trip(self, value):
        data = encode_atom(value)
        assert decode_atom(data) == (value, len(data))

    def test_truncated_input_raises(self):
        data = encode_uvarint(300)
        with pytest.raises(WireFormatError):
            decode_uvarint(data[:1])

    @pytest.mark.parametrize(
        "value",
        [None, True, False, 42, -7, 3.25, "hello", b"\x00\xff", ("tuple", 1), 2**80],
    )
    def test_value_round_trip(self, value):
        data = encode_value(value)
        assert decode_value(data) == (value, len(data))

    def test_huge_uvarint_round_trips(self):
        # Python ints are unbounded; the decoder must accept every varint
        # the encoder can produce (no arbitrary length cap).
        for value in (2**70, 2**80, 2**200):
            data = encode_uvarint(value)
            assert decode_uvarint(data) == (value, len(data))

    def test_bool_is_not_confused_with_int(self):
        assert decode_value(encode_value(True))[0] is True
        assert decode_value(encode_value(1))[0] == 1
        assert decode_value(encode_value(1))[0] is not True


# ======================================================================
# Timestamp codecs
# ======================================================================

class TestTimestampCodecs:
    def test_edge_full_round_trip(self):
        ts = EdgeTimestamp({(1, 2): 5, (2, 1): 0, (3, 1): 129, (1, 3): 7})
        frame = encode_timestamp_frame(ts)
        decoded, offset = decode_timestamp_frame(frame.data)
        assert decoded == ts and offset == len(frame.data)

    def test_vector_full_round_trip(self):
        ts = VectorTimestamp({1: 3, 2: 0, 9: 1000})
        frame = encode_timestamp_frame(ts)
        assert decode_timestamp_frame(frame.data)[0] == ts

    def test_matrix_dense_round_trip_and_beats_sparse(self):
        ids = [1, 2, 3, 4]
        ts = EdgeTimestamp({(a, b): a + b for a in ids for b in ids if a != b})
        dense = encode_timestamp_frame(ts, codec=MATRIX_CODEC)
        sparse = encode_timestamp_frame(ts, codec=EDGE_CODEC)
        assert decode_timestamp_frame(dense.data)[0] == ts
        assert len(dense.data) < len(sparse.data)

    def test_matrix_codec_rejects_incomplete_index(self):
        ts = EdgeTimestamp({(1, 2): 1, (2, 1): 2, (1, 3): 3})  # (3,1) etc. missing
        with pytest.raises(WireFormatError):
            MATRIX_CODEC.encode_full(ts)

    def test_hoop_tag_differs_from_edge(self):
        ts = EdgeTimestamp({(1, 2): 4})
        edge_frame = encode_timestamp_frame(ts, codec=EDGE_CODEC)
        hoop_frame = encode_timestamp_frame(ts, codec=HOOP_CODEC)
        assert edge_frame.data[0] != hoop_frame.data[0]
        assert decode_timestamp_frame(hoop_frame.data)[0] == ts

    def test_family_registration_per_replica_family(self):
        figure5 = ShareGraph.from_placement(figure5_placement())
        clique = ShareGraph.from_placement(clique_placement(4))
        assert EdgeIndexedReplica(figure5, 1).wire_codec() is EDGE_CODEC
        assert FullTrackReplica(figure5, 1).wire_codec() is MATRIX_CODEC
        assert FullReplicationReplica(clique, 1).wire_codec() is VECTOR_CODEC
        assert HoopTrackingReplica(figure5, 1).wire_codec() is HOOP_CODEC

    def test_delta_round_trip(self):
        ts = EdgeTimestamp({(1, 2): 5, (3, 1): 129, (2, 1): 0})
        ts2 = EdgeTimestamp({(1, 2): 6, (3, 1): 129, (2, 1): 4})
        frame = encode_timestamp_frame(ts2, prev=ts)
        assert frame.used_delta
        assert len(frame.data) < frame.full_size
        assert decode_timestamp_frame(frame.data, prev=ts)[0] == ts2

    def test_delta_never_loses_to_full(self):
        # Every counter changed: the codec must fall back to whichever
        # encoding is smaller, so the frame never exceeds the full size.
        ts = EdgeTimestamp({(i, j): 1 for i in range(4) for j in range(4) if i != j})
        ts2 = EdgeTimestamp(
            {(i, j): 2**40 for i in range(4) for j in range(4) if i != j}
        )
        frame = encode_timestamp_frame(ts2, prev=ts)
        assert len(frame.data) <= frame.full_size

    def test_delta_falls_back_on_index_change(self):
        ts = EdgeTimestamp({(1, 2): 5})
        ts2 = EdgeTimestamp({(1, 2): 6, (2, 1): 1})
        frame = encode_timestamp_frame(ts2, prev=ts)
        assert not frame.used_delta
        assert decode_timestamp_frame(frame.data)[0] == ts2

    def test_delta_falls_back_on_counter_decrease(self):
        ts = EdgeTimestamp({(1, 2): 5})
        ts2 = EdgeTimestamp({(1, 2): 4})
        frame = encode_timestamp_frame(ts2, prev=ts)
        assert not frame.used_delta

    def test_delta_without_state_raises_on_decode(self):
        ts = EdgeTimestamp({(1, 2): 5})
        ts2 = EdgeTimestamp({(1, 2): 6})
        frame = encode_timestamp_frame(ts2, prev=ts)
        assert frame.used_delta
        with pytest.raises(WireFormatError):
            decode_timestamp_frame(frame.data)
        # The reconfig family has no delta mode, channel state or not.
        with pytest.raises(WireFormatError):
            decode_timestamp_frame(bytes((RECONFIG_CODEC.tag, MODE_DELTA, 0)), prev=ts)


# ======================================================================
# Message envelopes and the per-channel delta stream
# ======================================================================

def _message(seq: int, ts, sender=1, destination=2, payload=True) -> UpdateMessage:
    return UpdateMessage(
        update=Update(issuer=sender, seq=seq, register="x", value=f"v{seq}"),
        sender=sender,
        destination=destination,
        metadata=ts,
        metadata_size=ts.size_counters(),
        payload=payload,
    )


class TestMessageEnvelopes:
    def test_standalone_round_trip_and_size_split(self):
        ts = EdgeTimestamp({(1, 2): 5, (2, 1): 3})
        message = _message(1, ts)
        data = message.to_wire()
        assert UpdateMessage.from_wire(data) == message
        sizes = message.encoded_size()
        assert sizes.total_bytes == len(data)
        assert sizes.header_bytes > 0
        assert sizes.timestamp_bytes > 0
        assert sizes.payload_bytes > 0

    def test_every_truncation_raises_wire_format_error(self):
        # The decode contract: malformed/truncated input raises
        # WireFormatError (never IndexError or a raw UnicodeDecodeError).
        ts = EdgeTimestamp({(1, 2): 5, (2, 1): 300})
        data = _message(1, ts).to_wire()
        for cut in range(len(data)):
            with pytest.raises(WireFormatError):
                decode_message(data[:cut])

    def test_metadata_only_message_ships_no_value(self):
        ts = EdgeTimestamp({(1, 2): 5})
        message = _message(1, ts, payload=False)
        sizes = message.encoded_size()
        assert sizes.payload_bytes == 0
        decoded = UpdateMessage.from_wire(message.to_wire())
        assert decoded.update.value is None
        assert decoded.update.uid == message.update.uid
        assert decoded.metadata == ts and not decoded.payload

    def test_channel_delta_stream_round_trip(self):
        encoder, decoder = ChannelDeltaEncoder(), ChannelDeltaDecoder()
        ts_a = EdgeTimestamp({(1, 2): 0, (3, 2): 0})
        ts_b = VectorTimestamp({1: 0, 2: 0})
        stream = []
        for seq in range(1, 6):
            ts_a = ts_a.incremented([(1, 2)])
            ts_b = ts_b.incremented(1)
            stream.append(_message(seq, ts_a, sender=1, destination=2))
            stream.append(_message(seq, ts_b, sender=1, destination=3))
        encoded = [
            (m, encoder.encode_message(m)[0]) for m in stream
        ]
        # First frame per channel is full, the rest delta.
        for original, data in encoded:
            decoded, offset = decoder.decode_message(
                data, 0, original.sender, original.destination
            )
            assert decoded == original and offset == len(data)

    def test_encoder_reset_forces_full_frame(self):
        encoder = ChannelDeltaEncoder()
        ts = EdgeTimestamp({(1, 2): 1})
        encoder.encode_message(_message(1, ts))
        encoder.reset((1, 2))
        _, sizes = encoder.encode_message(_message(2, ts.incremented([(1, 2)])))
        assert sizes.full_frames == 1 and sizes.delta_frames == 0

    def test_batch_envelope_round_trip(self):
        ts = VectorTimestamp({1: 1, 2: 0})
        messages = tuple(
            _message(seq, ts.incremented(1), sender=1, destination=2)
            for seq in range(1, 4)
        )
        batch = MessageBatch(sender=1, destination=2, seq=0, messages=messages)
        data, sizes = encode_batch(batch)
        decoded, offset = decode_batch(data)
        assert decoded == batch and offset == len(data)
        assert sizes.total_bytes == len(data)

    def test_batch_rejects_foreign_channel_message(self):
        ts = VectorTimestamp({1: 1})
        stray = _message(1, ts, sender=3, destination=2)
        batch = MessageBatch(sender=1, destination=2, seq=0, messages=(stray,))
        with pytest.raises(WireFormatError):
            encode_batch(batch)


# ======================================================================
# The batching transport
# ======================================================================

def _clique_cluster(batching, seed=3, delay=None, factory=full_replication_factory,
                    size=6):
    graph = ShareGraph.from_placement(clique_placement(size))
    return graph, Cluster(
        graph,
        replica_factory=factory,
        delay_model=delay or UniformDelay(1, 10),
        seed=seed,
        batching=batching,
    )


class TestBatchingTransport:
    def test_flush_by_count(self):
        graph, cluster = _clique_cluster(BatchingConfig(max_messages=5, max_delay=100.0))
        for index in range(5):
            cluster.write(1, "g", f"v{index}")
        # 5 writes x 5 destinations: every channel window has exactly 5
        # messages, so all flushed by count despite the far deadline.
        assert cluster.network.open_batch_messages == 0
        assert cluster.network.stats.batches_sent == 5
        cluster.run_until_quiescent()
        assert cluster.check_consistency().is_causally_consistent

    def test_flush_by_kernel_deadline(self):
        graph, cluster = _clique_cluster(
            BatchingConfig(max_messages=100, max_delay=2.5), delay=FixedDelay(1.0)
        )
        cluster.write(1, "g", "v0")
        assert cluster.network.stats.batches_sent == 0
        assert cluster.network.open_batch_messages == 5
        cluster.run_until_quiescent()
        assert cluster.network.stats.batches_sent == 5
        # Window wait (2.5) + wire delay (1.0) shows up in delivery latency.
        assert cluster.network.stats.mean_latency == pytest.approx(3.5)
        for rid in range(2, 7):
            assert cluster.replica(rid).store["g"] == "v0"

    def test_per_channel_fifo_across_batches(self):
        # Wide random delays would reorder unbatched messages; batches on a
        # channel must still arrive in flush order (the TCP-stream model).
        graph, cluster = _clique_cluster(
            BatchingConfig(max_messages=2, max_delay=0.0),
            delay=UniformDelay(1, 50),
        )
        for index in range(20):
            cluster.write(1, "g", index)
            cluster.kernel.schedule_after(0.01, _noop_timer())
            cluster.step()
        cluster.run_until_quiescent()
        replica = cluster.replica(2)
        applied_values = [u.value for u in replica.applied if u.issuer == 1]
        assert applied_values == sorted(applied_values)
        assert cluster.check_consistency().is_causally_consistent

    def test_batching_composes_with_hold_and_release(self):
        graph, cluster = _clique_cluster(BatchingConfig(max_messages=2, max_delay=1.0))
        cluster.network.hold(1, 2)
        cluster.write(1, "g", "a")
        cluster.write(1, "g", "b")
        cluster.run_until_quiescent()
        # The 1->2 batch flushed but is parked; everyone else caught up.
        assert cluster.network.held_count == 2
        assert cluster.replica(2).store["g"] is None
        assert cluster.replica(3).store["g"] == "b"
        cluster.network.release(1, 2)
        cluster.run_until_quiescent()
        assert cluster.replica(2).store["g"] == "b"
        assert cluster.check_consistency().is_causally_consistent

    def test_batching_composes_with_partition_and_heal(self):
        graph, cluster = _clique_cluster(BatchingConfig(max_messages=2, max_delay=1.0))
        cluster.network.partition({1, 2, 3}, {4, 5, 6})
        cluster.write(1, "g", "inside")
        cluster.run_until_quiescent()
        assert cluster.replica(3).store["g"] == "inside"
        assert cluster.replica(4).store["g"] is None
        assert cluster.network.held_count == 3  # one per far-side replica
        cluster.network.heal()
        cluster.run_until_quiescent()
        assert cluster.replica(4).store["g"] == "inside"
        assert cluster.check_consistency().is_causally_consistent

    def test_batching_composes_with_loss_and_reliability(self):
        graph = ShareGraph.from_placement(clique_placement(4))
        cluster = Cluster(
            graph,
            replica_factory=full_replication_factory,
            delay_model=LossyDelay(inner=UniformDelay(1, 5), drop_probability=0.3),
            seed=11,
            batching=BatchingConfig(max_messages=3, max_delay=2.0),
        )
        cluster.network.enable_reliability(
            ReliabilityConfig(resend_timeout=20.0, max_retries=6)
        )
        workload = uniform_workload(graph, 60, seed=11)
        result = run_workload(cluster, workload)
        stats = cluster.network.stats
        assert stats.batches_dropped > 0
        assert stats.retransmissions > 0
        assert result.consistent, "lossy batched channels must stay consistent"
        # Retransmitted copies are booked too: the per-channel message
        # counts cover every copy put on the wire, batched or re-sent.
        assert (
            sum(c.messages for c in stats.per_channel.values())
            == stats.messages_sent + stats.retransmissions
        )

    def test_dropped_batch_resets_the_delta_stream(self):
        # Every frame on the wire must be decodable by a receiver that got
        # every *delivered* envelope: after a dropped batch, the channel's
        # next frame goes full instead of delta-chaining through the loss.
        graph = ShareGraph.from_placement(clique_placement(4))
        cluster = Cluster(
            graph,
            replica_factory=full_replication_factory,
            delay_model=LossyDelay(
                inner=FixedDelay(1.0),
                drop_probability=1.0,
                channels=frozenset({(1, 2)}),
            ),
            seed=2,
            batching=BatchingConfig(max_messages=1, max_delay=1.0),
        )
        cluster.write(1, "g", "a")
        cluster.write(1, "g", "b")
        cluster.run_until_quiescent()
        stats = cluster.network.stats
        assert stats.batches_dropped == 2
        # Channels 1->3 and 1->4 delta their second frame; 1->2 was reset
        # after each drop, so both of its frames shipped full.
        assert stats.delta_frames_sent == 2
        assert stats.full_frames_sent == 4

    def test_batch_lost_to_crashed_destination_is_counted(self):
        graph, cluster = _clique_cluster(
            BatchingConfig(max_messages=2, max_delay=0.5), delay=FixedDelay(5.0)
        )

        class _DownOracle:
            def is_down(self, rid):
                return rid == 2

            def note_applies(self, *args):  # pragma: no cover - protocol hook
                pass

        cluster.fault_injector = _DownOracle()
        cluster.write(1, "g", "a")
        cluster.write(1, "g", "b")
        cluster.run_until_quiescent()
        assert cluster.network.stats.messages_lost_to_crash == 2
        assert cluster.replica(3).store["g"] == "b"

    def test_in_flight_batch_across_crash_window_goes_stale(self):
        # B1 (1->2) is lost while the destination is down; B2, flushed
        # while B1 was still in flight, delta-chains through B1 and must
        # die on arrival even though the destination is back up — a real
        # receiver could never decode it (its predecessor never arrived).
        graph, cluster = _clique_cluster(
            BatchingConfig(max_messages=1, max_delay=0.1), delay=FixedDelay(5.0),
            size=3,
        )

        class _WindowOracle:
            def is_down(self, rid):
                return rid == 2 and 4.0 <= cluster.now <= 5.5

            def note_applies(self, *args):  # pragma: no cover - protocol hook
                pass

        cluster.fault_injector = _WindowOracle()
        cluster.write(1, "g", "a")  # flushed ~t0, arrives t5 (down -> lost)
        cluster.kernel.schedule_after(1.0, _noop_timer())
        cluster.step()  # advance to t1
        cluster.write(1, "g", "b")  # flushed t1, arrives t6 (up, but stale)
        cluster.run_until_quiescent()
        stats = cluster.network.stats
        # Both 1->2 batches are casualties of the crash cut; replica 3's
        # stream was untouched and delivered both of its batches.
        assert stats.messages_lost_to_crash == 2
        assert cluster.replica(2).store["g"] is None
        assert cluster.replica(3).store["g"] == "b"

    def test_sender_crash_does_not_stale_in_flight_batches_to_live_peers(self):
        # A crash of the *sender* only kills its encoder state; batches
        # already in flight to live receivers stay decodable (their state
        # is intact, FIFO holds) and must be delivered — without any
        # reliability layer to fall back on.
        from repro.sim.faults import FaultInjector, FaultSchedule, crash, restart

        graph, cluster = _clique_cluster(
            BatchingConfig(max_messages=1, max_delay=0.1), delay=FixedDelay(5.0),
            size=3,
        )
        injector = FaultInjector(cluster)
        injector.install(
            FaultSchedule(name="sender-crash", actions=(crash(2.0, 1), restart(10.0, 1)))
        )
        cluster.write(1, "g", "a")  # in flight until t=5; sender crashes at t=2
        cluster.run_until_quiescent()
        assert cluster.replica(2).store["g"] == "a"
        assert cluster.replica(3).store["g"] == "a"
        assert cluster.network.stats.messages_lost_to_crash == 0
        assert cluster.check_consistency().is_causally_consistent

    def test_fault_injector_crash_restart_with_batching_stays_consistent(self):
        # The end-to-end composition the epoch mechanism exists for:
        # crashes sever batched streams, resync re-sends the contents as
        # full-frame singles, and the checker must stay green throughout.
        from repro.sim.faults import FaultInjector, random_fault_schedule
        from repro.sim.workloads import poisson_workload, run_open_loop

        graph = ShareGraph.from_placement(figure5_placement())
        cluster = Cluster(
            graph,
            delay_model=UniformDelay(1, 10),
            seed=15,
            batching=BatchingConfig(max_messages=4, max_delay=3.0),
        )
        injector = FaultInjector(cluster)
        injector.install(
            random_fault_schedule(
                graph.replica_ids,
                120.0,
                crashes=2,
                downtime=20.0,
                partition_duration=30.0,
                partition_at=48.0,
                seed=16,
                name="batched-faults",
            )
        )
        result = run_open_loop(
            cluster, poisson_workload(graph, rate=1.0, duration=120.0, seed=15)
        )
        assert result.consistent, "batching must survive crash/restart/partition"
        assert cluster.network.stats.batches_sent > 0
        assert cluster.metrics.crashes == 2 and cluster.metrics.restarts == 2

    def test_adversarial_scripted_delay_bypasses_batching(self):
        graph = ShareGraph.from_placement(triangle_placement())
        cluster = Cluster(
            graph, seed=1, batching=BatchingConfig(max_messages=8, max_delay=5.0)
        )
        replica = cluster.replica(1)
        messages = replica.write("x", "direct")
        cluster.network.send(messages[0], delay=0.5)
        assert cluster.network.stats.batches_sent == 0
        (event,) = cluster.kernel.events_of(DeliveryEvent)
        assert event.epoch is None  # a standalone envelope, not a stream batch
        cluster.run_until_quiescent()
        assert cluster.replica(2).store["x"] == "direct"

    def test_same_seed_batched_runs_are_deterministic(self):
        graph = ShareGraph.from_placement(figure5_placement())
        workload = uniform_workload(graph, 120, seed=9)

        def run():
            cluster = Cluster(
                graph,
                delay_model=UniformDelay(1, 10),
                seed=9,
                batching=BatchingConfig(max_messages=4, max_delay=3.0),
            )
            run_workload(cluster, workload, check=False)
            stats = cluster.network.stats
            return (
                stats.batches_sent,
                stats.bytes_sent,
                stats.delta_frames_sent,
                [
                    (rid, tuple(u.uid for u in replica.applied))
                    for rid, replica in sorted(cluster.replicas.items())
                ],
            )

        assert run() == run()

    def test_byte_accounting_consistency(self):
        graph = ShareGraph.from_placement(figure5_placement())
        workload = uniform_workload(graph, 150, seed=4)
        cluster = Cluster(
            graph,
            delay_model=UniformDelay(1, 10),
            seed=4,
            batching=BatchingConfig(max_messages=8, max_delay=4.0),
        )
        result = run_workload(cluster, workload)
        stats = cluster.network.stats
        assert result.consistent
        assert stats.batched_messages_sent == stats.messages_sent
        assert stats.delta_frames_sent + stats.full_frames_sent == stats.messages_sent
        assert stats.timestamp_bytes_sent < stats.timestamp_bytes_full
        assert stats.bytes_sent == (
            stats.header_bytes_sent
            + stats.timestamp_bytes_sent
            + stats.payload_bytes_sent
        )
        per_channel = stats.per_channel.values()
        assert sum(c.messages for c in per_channel) == stats.messages_sent
        assert sum(c.batches for c in per_channel) == stats.batches_sent
        assert sum(c.header_bytes for c in per_channel) == stats.header_bytes_sent
        assert sum(c.timestamp_bytes for c in per_channel) == stats.timestamp_bytes_sent
        assert sum(c.payload_bytes for c in per_channel) == stats.payload_bytes_sent

    def test_batched_equals_unbatched_applied_sets(self):
        graph = ShareGraph.from_placement(figure5_placement())
        workload = uniform_workload(graph, 150, seed=6)

        def applied_sets(batching):
            cluster = Cluster(
                graph, delay_model=UniformDelay(1, 10), seed=6, batching=batching
            )
            result = run_workload(cluster, workload)
            assert result.consistent
            return {
                rid: frozenset(u.uid for u in replica.applied)
                for rid, replica in cluster.replicas.items()
            }

        assert applied_sets(None) == applied_sets(
            BatchingConfig(max_messages=8, max_delay=4.0)
        )


class TestBatchingBothArchitectures:
    @pytest.mark.parametrize("factory", [None, full_track_factory])
    def test_peer_to_peer_consistency(self, factory):
        graph = ShareGraph.from_placement(figure5_placement())
        kwargs = {"replica_factory": factory} if factory else {}
        cluster = Cluster(
            graph,
            delay_model=UniformDelay(1, 10),
            seed=5,
            batching=BatchingConfig(max_messages=4, max_delay=3.0),
            **kwargs,
        )
        result = run_workload(cluster, uniform_workload(graph, 150, seed=5))
        assert result.consistent
        assert cluster.network.stats.batches_sent > 0

    def test_client_server_consistency(self):
        graph = ShareGraph.from_placement(figure5_placement())
        cluster = ClientServerCluster.with_colocated_clients(
            graph,
            delay_model=UniformDelay(1, 10),
            seed=5,
            batching=BatchingConfig(max_messages=4, max_delay=3.0),
        )
        result = run_workload(cluster, uniform_workload(graph, 150, seed=5))
        assert result.consistent
        assert cluster.network.stats.batches_sent > 0
        assert cluster.network.stats.delta_frames_sent > 0


def _noop_timer():
    from repro.sim.engine import TimerEvent

    return TimerEvent(callback=lambda host, time: None, tag="noop")


# ======================================================================
# E16 harness smoke
# ======================================================================

class TestWireOverheadExperiment:
    def test_e16_rows_well_formed_and_delta_wins(self):
        from repro.analysis import render_rows
        from repro.analysis.experiments import (
            WireOverheadRow,
            exp_wire_overhead,
            render_wire_channels,
        )

        rows = exp_wire_overhead(ops=60, windows=(None, (8, 4.0)))
        assert rows and all(row.consistent for row in rows)
        families = {row.protocol for row in rows}
        assert len(families) == 4  # all four codec families covered
        for row in rows:
            assert row.total_bytes == (
                row.header_bytes + row.timestamp_bytes + row.payload_bytes
            )
            if row.window == "off":
                assert row.batches == 0
                assert row.timestamp_bytes == row.timestamp_bytes_full
            else:
                assert row.batches > 0
                assert row.timestamp_bytes <= row.timestamp_bytes_full
        # Steady-state delta encoding beats full encoding in every windowed
        # cell of the sweep.
        windowed = [row for row in rows if row.window != "off"]
        assert all(row.delta_savings > 0 for row in windowed)
        table = render_rows(WireOverheadRow, rows)
        assert "bound B/msg" in table

        graph = ShareGraph.from_placement(figure5_placement())
        cluster = Cluster(
            graph, seed=1, batching=BatchingConfig(max_messages=4, max_delay=2.0)
        )
        run_workload(cluster, uniform_workload(graph, 40, seed=1), check=False)
        channels = render_wire_channels(cluster.network.stats)
        assert "->" in channels and "timestamp B" in channels
