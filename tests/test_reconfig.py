"""Tests for dynamic membership (repro.sim.reconfig).

Covers the acceptance scenarios: a 64-replica open-loop run adding 8
replicas and removing 4 mid-run stays causally consistent on both
architectures; availability dips only inside migration windows; epoch
migration edge cases (reconfig during an open partition, joiner crash
mid-state-transfer, back-to-back reconfigs); same-seed determinism of a
run containing a full reconfiguration schedule; and the wire-level epoch
machinery (epoch tags, stale-frame rejection, the membership codec, the
bootstrap stream gate).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clientserver import ClientServerCluster
from repro.core.errors import ReconfigurationError, RegisterNotStoredError
from repro.core.protocol import BootstrapMetadata, Update, UpdateMessage
from repro.core.registers import RegisterPlacement
from repro.core.replica import EdgeIndexedReplica
from repro.core.share_graph import ShareGraph
from repro.core.timestamps import EdgeTimestamp
from repro.sim.cluster import Cluster
from repro.sim.delays import FixedDelay, LossyDelay, UniformDelay
from repro.sim.engine import ReliabilityConfig
from repro.sim.faults import (
    FaultInjector,
    FaultSchedule,
    crash,
    heal,
    partition,
    random_fault_schedule,
    restart,
)
from repro.sim.reconfig import (
    ReconfigManager,
    ReconfigSchedule,
    add_edge,
    apply_action,
    join,
    leave,
    membership_change_of,
    random_churn_schedule,
    remove_edge,
)
from repro.sim.topologies import figure5_placement, ring_placement, tree_placement
from repro.sim.workloads import Operation, poisson_workload_dynamic, run_open_loop
from repro.topo import LatencyDelayModel, TopologyError, geo_regions
from repro.wire.membership import decode_membership_change, encode_membership_change


def path_placement_small() -> RegisterPlacement:
    """The Figure 3 path: 1-{x}-2-{y}-3-{z}-4."""
    return RegisterPlacement.from_dict(
        {1: {"x"}, 2: {"x", "y"}, 3: {"y", "z"}, 4: {"z"}}
    )


def churned_run(architecture: str, placement, schedule, *, window=3.0,
                rate=0.4, duration=150.0, seed=7, delay=None):
    """Build a host, attach a manager, install a schedule, run open-loop."""
    graph = ShareGraph.from_placement(placement)
    delay = delay or UniformDelay(1, 10)
    if architecture == "peer-to-peer":
        host = Cluster(graph, delay_model=delay, seed=seed)
    else:
        host = ClientServerCluster.with_colocated_clients(
            graph, delay_model=delay, seed=seed
        )
    manager = ReconfigManager(host, window=window)
    manager.install(schedule)
    placements = schedule.placements_over(placement, window=window)
    workload = poisson_workload_dynamic(
        placements, rate=rate, duration=duration, seed=seed
    )
    result = run_open_loop(host, workload)
    return host, manager, result


# ======================================================================
# Action algebra and placement derivation
# ======================================================================

class TestActions:
    def test_join_adds_replica_with_grants(self):
        placement = path_placement_small()
        action = join(10.0, 5, {"link"}, grants={4: {"link"}})
        new = apply_action(placement, action)
        assert new.registers_at(5) == {"link"}
        assert "link" in new.registers_at(4)
        graph = ShareGraph.from_placement(new)
        assert graph.has_edge(4, 5)

    def test_join_existing_id_rejected(self):
        with pytest.raises(Exception):
            apply_action(path_placement_small(), join(1.0, 2, {"q"}))

    def test_leave_removes_replica(self):
        new = apply_action(path_placement_small(), leave(1.0, 4))
        assert 4 not in new.replica_ids
        # z survives at replica 3 (single-owner local state).
        assert new.stores_register(3, "z")

    def test_remove_edge_drops_shared_registers_from_second_endpoint(self):
        new = apply_action(path_placement_small(), remove_edge(1.0, 2, 3))
        assert not new.shared_registers(2, 3)
        assert new.stores_register(2, "y")
        assert not new.stores_register(3, "y")

    def test_remove_missing_edge_rejected(self):
        with pytest.raises(ReconfigurationError):
            apply_action(path_placement_small(), remove_edge(1.0, 1, 4))

    def test_add_edge_places_register_at_both(self):
        new = apply_action(path_placement_small(), add_edge(1.0, 1, 4))
        assert ShareGraph.from_placement(new).has_edge(1, 4)

    def test_membership_change_roundtrips_on_the_wire(self):
        old = path_placement_small()
        new = apply_action(old, join(1.0, 5, {"x", "w"}))
        change = membership_change_of(old, new, epoch=3)
        decoded, _ = decode_membership_change(encode_membership_change(change))
        assert decoded == change
        assert decoded.joins == {5: frozenset({"x", "w"})}

    def test_placements_over_timeline(self):
        placement = path_placement_small()
        schedule = ReconfigSchedule(
            "t", (leave(20.0, 4), join(10.0, 5, {"x"}))
        )
        timeline = schedule.placements_over(placement, window=2.0)
        # Actions are sorted by time; effective times include the window.
        assert [t for t, _ in timeline] == [0.0, 12.0, 22.0]
        assert 5 in timeline[1][1].replica_ids
        assert 4 not in timeline[2][1].replica_ids


# ======================================================================
# Timestamp projection and the bootstrap gate
# ======================================================================

class TestMigrationPrimitives:
    def test_edge_timestamp_migrated_projects_and_widens(self):
        ts = EdgeTimestamp({(1, 2): 4, (2, 1): 7, (2, 3): 1})
        migrated = ts.migrated([(1, 2), (2, 1), (9, 1)])
        assert migrated[(1, 2)] == 4
        assert migrated[(2, 1)] == 7
        assert migrated[(9, 1)] == 0
        assert (2, 3) not in migrated

    def test_replica_migrate_preserves_surviving_counters(self):
        placement = path_placement_small()
        graph = ShareGraph.from_placement(placement)
        replica = EdgeIndexedReplica(graph, 2)
        replica.write("x", 1)
        replica.write("y", 2)
        old = dict(replica.timestamp.counters)
        new_placement = apply_action(placement, join(0.0, 5, {"y"}))
        new_graph = ShareGraph.from_placement(new_placement)
        replica.migrate(new_graph, epoch=1)
        assert replica.epoch == 1
        for edge, value in replica.timestamp.items():
            if edge in old:
                assert value == old[edge]
            else:
                assert value == 0

    def test_unsupported_family_refuses_migration(self):
        from repro.baselines.full_track import FullTrackReplica

        graph = ShareGraph.from_placement(path_placement_small())
        replica = FullTrackReplica(graph, 1)
        with pytest.raises(ReconfigurationError):
            replica.migrate(graph, epoch=1)

    def test_bootstrap_stream_applies_in_order_and_gates_normal_traffic(self):
        graph = ShareGraph.from_placement(path_placement_small())
        replica = EdgeIndexedReplica(graph, 2)
        peer = EdgeIndexedReplica(graph, 1)
        normal = peer.write("x", "live")[0]
        replica.begin_bootstrap(2)
        assert replica.bootstrapping
        boot = [
            UpdateMessage(
                update=Update(3, i + 1, "y", f"old{i}"),
                sender=3, destination=2,
                metadata=BootstrapMetadata(index=i, total=2),
                metadata_size=0,
            )
            for i in range(2)
        ]
        # Normal traffic and the out-of-order tail arrive first: all parked.
        replica.receive(normal)
        replica.receive(boot[1])
        assert replica.apply_ready() == []
        # The stream head unblocks everything in order, then lifts the gate.
        replica.receive(boot[0])
        applied = replica.apply_ready()
        assert [u.value for u in applied] == ["old0", "old1", "live"]
        assert not replica.bootstrapping
        assert replica.store["y"] == "old1"

    def test_begin_bootstrap_rejects_nested_streams(self):
        graph = ShareGraph.from_placement(path_placement_small())
        replica = EdgeIndexedReplica(graph, 2)
        replica.begin_bootstrap(1)
        with pytest.raises(Exception):
            replica.begin_bootstrap(1)


# ======================================================================
# Wire-level epoch machinery
# ======================================================================

class TestEpochWire:
    def test_frame_header_carries_epoch(self):
        message = UpdateMessage(
            update=Update(1, 1, "x", "v"), sender=1, destination=2,
            metadata=EdgeTimestamp({(1, 2): 1}), metadata_size=1, epoch=5,
        )
        decoded = UpdateMessage.from_wire(message.to_wire())
        assert decoded.epoch == 5
        assert decoded.update == message.update

    def test_bootstrap_metadata_roundtrips(self):
        message = UpdateMessage(
            update=Update(1, 1, "x", "v"), sender=1, destination=2,
            metadata=BootstrapMetadata(index=3, total=9, epoch=2),
            metadata_size=0, epoch=2,
        )
        decoded = UpdateMessage.from_wire(message.to_wire())
        assert decoded.metadata == BootstrapMetadata(index=3, total=9, epoch=2)

    def test_stale_epoch_frame_rejected_cleanly(self):
        graph = ShareGraph.from_placement(path_placement_small())
        cluster = Cluster(graph, delay_model=FixedDelay(1.0), seed=0)
        ReconfigManager(cluster, window=1.0)
        stale = UpdateMessage(
            update=Update(1, 1, "x", "v"), sender=1, destination=2,
            metadata=EdgeTimestamp({(1, 2): 1}), metadata_size=1, epoch=7,
        )
        cluster.network.send(stale)
        cluster.run_until_quiescent()
        assert cluster.network.stats.messages_rejected_stale_epoch == 1
        assert not cluster.replica(2).has_applied((1, 1))


# ======================================================================
# End-to-end reconfiguration on both architectures
# ======================================================================

ARCHITECTURES = ("peer-to-peer", "client-server")


class TestReconfigurationRuns:
    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_join_leave_edge_change_stays_consistent(self, architecture):
        placement = figure5_placement()
        schedule = ReconfigSchedule(
            "mixed",
            (
                join(40.0, 5, {"y", "extra5"}),     # joins y's group: transfer
                leave(80.0, 5),
                add_edge(110.0, 1, 3, register="y"),  # 3 gains y: transfer
                remove_edge(140.0, 1, 3),
            ),
        )
        host, manager, result = churned_run(
            architecture, placement, schedule, duration=200.0
        )
        assert result.consistent
        assert host.metrics.reconfigs == 4
        assert host.epoch == 4
        assert not manager.warming_replicas()
        # The joiner received y's pre-join history before it left again,
        # and replica 3 received it when the edge appeared.
        assert any(
            record.kind == "transfer-complete"
            for record in host.metrics.reconfig_timeline
        )
        assert host.network.stats.messages_rejected_stale_epoch == 0

    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_metadata_steps_to_new_configuration(self, architecture):
        placement = tree_placement(6)
        schedule = ReconfigSchedule(
            "grow", (join(50.0, 7, {"tree_2_5"}),)
        )
        host, manager, result = churned_run(
            architecture, placement, schedule, duration=120.0
        )
        assert result.consistent
        # Every member's counter count equals |E_i| of the *new* graph.
        from repro.clientserver.augmented import augmented_timestamp_edges
        from repro.core.timestamp_graph import timestamp_edges

        for rid, size in host.metadata_sizes().items():
            if architecture == "peer-to-peer":
                expected = len(timestamp_edges(host.share_graph, rid))
            else:
                expected = len(augmented_timestamp_edges(host.augmented, rid))
            assert size == expected

    def test_availability_dips_only_in_migration_windows(self):
        placement = tree_placement(8)
        schedule = ReconfigSchedule(
            "churn",
            (
                leave(50.0, 8),
                add_edge(90.0, 2, 5, register="tree_1_2"),
            ),
        )
        host, manager, result = churned_run(
            "peer-to-peer", placement, schedule, duration=160.0
        )
        assert result.consistent
        windows = list(host.metrics.migration_windows)
        transfers = [
            record.time
            for record in host.metrics.reconfig_timeline
            if record.kind == "transfer-start"
        ]
        for replica_id, intervals in host.metrics.downtime.items():
            for down_at, up_at in intervals:
                in_window = any(s <= down_at and up_at <= e for s, e in windows)
                in_transfer = any(abs(down_at - t) < 1e-9 for t in transfers)
                assert in_window or in_transfer
        # Rejections happened only because of the reconfiguration.
        assert host.metrics.crashes == 0

    def test_session_handoff_when_server_leaves(self):
        placement = tree_placement(5)
        schedule = ReconfigSchedule("handoff", (leave(40.0, 5),))
        host, manager, result = churned_run(
            "client-server", placement, schedule, duration=100.0
        )
        assert result.consistent
        client = host.clients["c5"]
        # The leaver's pinned client was re-homed to a surviving replica.
        assert client.replica_set == frozenset({min(host.servers)})

    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_acceptance_64_replicas_8_joins_4_leaves(self, architecture):
        placement = tree_placement(64)
        schedule = random_churn_schedule(
            placement, 300.0, joins=8, leaves=4, seed=23, join_style="leaf"
        )
        host, manager, result = churned_run(
            architecture, placement, schedule,
            window=4.0, rate=0.8, duration=300.0, seed=23,
        )
        assert result.consistent
        assert host.metrics.reconfigs == 12
        assert host.epoch == 12
        assert host.share_graph.num_replicas == 64 + 8 - 4
        assert host.network.stats.messages_rejected_stale_epoch == 0


# ======================================================================
# Epoch migration edge cases
# ======================================================================

class TestEdgeCases:
    def test_reconfig_during_open_partition_defers_until_heal(self):
        placement = tree_placement(6)
        graph = ShareGraph.from_placement(placement)
        cluster = Cluster(graph, delay_model=FixedDelay(2.0), seed=3)
        injector = FaultInjector(cluster)
        injector.install(
            FaultSchedule(
                "split", (partition(30.0, [1, 2, 3], [4, 5, 6]), heal(90.0))
            )
        )
        manager = ReconfigManager(cluster, window=5.0)
        schedule = ReconfigSchedule("during-partition", (leave(40.0, 6),))
        manager.install(schedule)
        placements = schedule.placements_over(placement, window=5.0)
        workload = poisson_workload_dynamic(
            placements, rate=0.4, duration=120.0, seed=3
        )
        result = run_open_loop(cluster, workload)
        assert result.consistent
        assert cluster.metrics.reconfigs == 1
        # The commit waited for the heal: the epoch changed at (not before)
        # the heal time, and the deferral is on the timeline.
        assert cluster.epoch_history[-1][0] >= 90.0
        assert any(
            record.kind == "reconfig-deferred" and "partition" in record.detail
            for record in cluster.metrics.reconfig_timeline
        )

    def test_a_delivery_settles_its_copies_before_a_commit_inside_it(self):
        """A commit deferred behind a state transfer runs inside the
        delivery that completes the transfer.  That delivery's copies are
        settled before the replica handles them, so the commit's flush does
        not take them as outstanding and deliver them a second time."""
        cluster = Cluster(ShareGraph.from_placement(figure5_placement()),
                          delay_model=FixedDelay(1.0), seed=0)
        FaultInjector(cluster, reliability=ReliabilityConfig(resend_timeout=1000.0))
        manager = ReconfigManager(cluster, window=0.1)
        for n in range(5):
            cluster.write(1, "y", f"y{n}")
            cluster.run_until_quiescent()
        t = cluster.now
        manager.install(ReconfigSchedule("gain-then-drop", (
            add_edge(t + 10, 1, 3, register="y"),
            remove_edge(t + 10.2, 1, 3),
        )))
        cluster.run_until_quiescent()
        kinds = [record.kind for record in cluster.metrics.reconfig_timeline]
        deferred = kinds.index("reconfig-deferred")
        complete = kinds.index("transfer-complete", deferred)
        assert "reconfig-commit" in kinds[complete:]
        stats = cluster.network.stats
        assert stats.messages_delivered == stats.messages_sent == 15

    def test_a_regrant_behind_a_lost_copy_waits_for_the_resync(self):
        """Replica 3 misses a write of ``x`` while down, drops ``x`` and
        gains it back.  Both commits wait until 3 is up, and its restart
        resync delivers the lost copy first: the regrant transfers nothing,
        so no state-transfer copy is logged over an undelivered live one."""
        cluster = Cluster(ShareGraph.from_placement(figure5_placement()),
                          delay_model=FixedDelay(1.0), seed=0)
        injector = FaultInjector(cluster)
        manager = ReconfigManager(cluster, window=0.1)
        cluster.schedule_arrival_at(2.0, Operation("write", 2, "x", "x0"))
        manager.install(ReconfigSchedule("drop-regain", (
            remove_edge(10.0, 2, 3),
            add_edge(20.0, 2, 3, register="x"),
        )))
        injector.install(FaultSchedule("miss", (crash(1.0, 3), restart(30.0, 3))))
        cluster.run_until_quiescent()
        kinds = [record.kind for record in cluster.metrics.reconfig_timeline]
        assert "reconfig-deferred" in kinds and "transfer-start" not in kinds
        assert kinds.count("reconfig-commit") == 2
        assert cluster.replica(3).store["x"] == "x0"
        stats = cluster.network.stats
        assert (stats.messages_lost_to_crash, stats.messages_rejected_stale_epoch) == (1, 0)
        assert not cluster.network.sender.sent_log.get(3)
        assert cluster.check_consistency().is_causally_consistent

    def test_joiner_crash_mid_state_transfer_recovers_via_resync(self):
        placement = figure5_placement()
        graph = ShareGraph.from_placement(placement)
        cluster = Cluster(graph, delay_model=FixedDelay(5.0), seed=4)
        injector = FaultInjector(cluster)
        manager = ReconfigManager(cluster, window=2.0)
        # Seed y with history so the joiner has a real stream to receive.
        for round_index in range(4):
            cluster.schedule_arrival_at(
                1.0 + round_index, Operation("write", 1, "y", f"y{round_index}")
            )
        # Join at 20 (commit at 22); the stream is in flight (FixedDelay 5)
        # when the joiner crashes at 24; restart at 40 resyncs it.
        schedule = ReconfigSchedule("join", (join(20.0, 5, {"y"}),))
        manager.install(schedule)
        injector.install(
            FaultSchedule("crash-joiner", (crash(24.0, 5), restart(40.0, 5)))
        )
        cluster.run_until_quiescent()
        assert not manager.warming_replicas()
        report = cluster.check_consistency()
        assert report.is_causally_consistent
        joiner = cluster.replica(5)
        assert not joiner.bootstrapping
        # The joiner holds y's full history despite the mid-transfer crash.
        assert joiner.store["y"] == "y3"
        assert cluster.metrics.crashes == 1
        assert cluster.network.stats.messages_lost_to_crash > 0

    def test_back_to_back_reconfigs_serialize(self):
        placement = tree_placement(6)
        schedule = ReconfigSchedule(
            "burst",
            (
                join(50.0, 7, {"tree_1_2"}),
                join(50.0, 8, {"tree_1_3"}),
                leave(51.0, 6),
            ),
        )
        host, manager, result = churned_run(
            "peer-to-peer", placement, schedule, duration=130.0, window=4.0
        )
        assert result.consistent
        assert host.metrics.reconfigs == 3
        assert host.epoch == 3
        # Windows are serialized: each opens no earlier than the previous
        # commit.
        windows = host.metrics.migration_windows
        for (_, prev_end), (next_start, _) in zip(windows, windows[1:]):
            assert next_start >= prev_end

    def test_same_seed_determinism_with_full_schedule(self):
        placement = tree_placement(8)
        schedule = random_churn_schedule(
            placement, 150.0, joins=2, leaves=1, edge_changes=1,
            seed=11, join_style="group",
        )

        def one_run():
            host, manager, result = churned_run(
                "peer-to-peer", placement, schedule,
                duration=150.0, seed=11,
            )
            traces = {
                rid: [
                    (event.kind.value, event.update.uid if event.update else None)
                    for event in events
                ]
                for rid, events in host.events_by_replica().items()
            }
            return (
                result.consistent,
                host.epoch,
                host.metrics.applies,
                host.metrics.rejected_operations,
                host.network.stats.messages_sent,
                [(r.time, r.kind, r.detail) for r in host.metrics.reconfig_timeline],
                traces,
                host.metadata_sizes(),
            )

        assert one_run() == one_run()

    def test_flush_claims_messages_sent_onto_held_channels_mid_flush(self):
        """A serve unblocked *by* the commit flush can multicast old-epoch
        messages onto an explicitly held channel; the flush must claim
        those too, or they would surface after the epoch bump as stale
        frames and be lost for good."""
        from repro.clientserver import ClientAssignment

        placement = RegisterPlacement.from_dict(
            {1: {"x"}, 2: {"x", "y"}, 3: {"y"}, 4: {"q", "y"}}
        )
        graph = ShareGraph.from_placement(placement)
        clients = ClientAssignment.from_dict({"c": {2, 3}})
        cluster = ClientServerCluster(
            graph, clients, delay_model=FixedDelay(10.0), seed=0
        )
        manager = ReconfigManager(cluster, window=3.0)
        manager.install(ReconfigSchedule("leave4", (leave(5.0, 4),)))
        cluster.network.hold(3, 2)
        cluster.network.hold(2, 1)
        # The roaming client writes y at 3, making µ_c run ahead of server
        # 2; its next write of x at 2 buffers behind J1 until 3's update
        # reaches 2 — which only the commit flush's *held-channel claim*
        # provides (the (3, 2) channel is held, so the update is parked,
        # not scheduled).  Serving it then multicasts an old-epoch
        # x-update onto the still-held (2, 1) channel — after this flush
        # iteration already claimed the parked traffic.
        assert cluster.client_write("c", "y", "v1", replica_id=3) is not None
        issued = cluster.client_write("c", "x", "v2", replica_id=2)
        assert issued is not None
        cluster.run_until_quiescent()
        assert cluster.network.stats.messages_rejected_stale_epoch == 0
        assert cluster.servers[1].has_applied(issued.uid)
        assert cluster.check_consistency().is_causally_consistent

    def test_flush_apply_at_gaining_replica_is_not_a_false_violation(self):
        """An old-epoch message flushed at the commit instant must be judged
        against the old configuration's register set: a register gained in
        the same commit imposes no obligation on the flushed apply (its
        history is still in the bootstrap stream)."""
        placement = RegisterPlacement.from_dict(
            {1: {"x", "y"}, 2: {"y"}, 3: {"x"}}
        )
        graph = ShareGraph.from_placement(placement)
        cluster = Cluster(graph, delay_model=FixedDelay(15.0), seed=0)
        manager = ReconfigManager(cluster, window=2.0)
        manager.install(
            ReconfigSchedule("gain", (add_edge(10.0, 3, 2, register="x"),))
        )
        # u1(x) ↪ u2(y); u2 is still in flight to replica 2 at the commit
        # (t=12 < delivery t=17), so the flush applies it exactly at the
        # epoch boundary — while x's history reaches 2 only via transfer.
        cluster.schedule_arrival_at(1.0, Operation("write", 1, "x", "x1"))
        cluster.schedule_arrival_at(2.0, Operation("write", 1, "y", "y1"))
        cluster.run_until_quiescent()
        report = cluster.check_consistency()
        assert report.is_causally_consistent, report.summary()
        assert cluster.replica(2).store["x"] == "x1"

    def test_churn_schedule_rejects_leave_on_tiny_placement(self):
        placement = RegisterPlacement.from_dict({1: {"x"}, 2: {"x"}})
        with pytest.raises(ReconfigurationError):
            random_churn_schedule(placement, 100.0, joins=0, leaves=1, seed=0)

    def test_rejoining_a_retired_id_is_refused(self):
        placement = tree_placement(4)
        schedule = ReconfigSchedule(
            "rejoin", (leave(20.0, 4), join(60.0, 4, {"tree_1_2"}))
        )
        graph = ShareGraph.from_placement(placement)
        cluster = Cluster(graph, delay_model=FixedDelay(2.0), seed=0)
        manager = ReconfigManager(cluster, window=2.0)
        manager.install(schedule)
        with pytest.raises(ReconfigurationError):
            cluster.run_until_quiescent()


# ======================================================================
# State-transfer regressions (found by the adaptive controller)
# ======================================================================

class TestStateTransferRegressions:
    def test_regrant_after_drop_completes_and_stays_live(self):
        """A replica re-gaining a register it once stored must catch up.

        Regression: the bootstrap stream used to replay the register's
        *full* history; the re-gainer's duplicate suppression silently
        dropped the prefix it had already applied, the stream's position
        counter never advanced past it, and the replica was left gated
        behind an eternally-open state transfer — every later update to
        the register became a liveness violation.
        """
        placement = figure5_placement()
        schedule = ReconfigSchedule(
            "regrant",
            (
                add_edge(40.0, 1, 3, register="y"),   # 3 gains y: transfer
                remove_edge(80.0, 1, 3),              # 3 drops y again
                add_edge(120.0, 1, 3, register="y"),  # 3 RE-gains y
            ),
        )
        host, manager, result = churned_run(
            "peer-to-peer", placement, schedule, duration=200.0
        )
        assert result.consistent
        assert host.metrics.reconfigs == 3
        assert not manager.warming_replicas()

    def test_regrant_restores_the_value_applied_before_the_drop(self):
        """A re-gainer's stream leaves out what its trace already holds, so
        the value it applied before the drop must survive the drop.

        Regression: migration popped the dropped register's value and the
        stream (rightly) skipped the write replica 3 had applied, so 3 kept
        ``None`` for ever — while the checker, which judges traces, still
        called the run consistent.
        """
        graph = ShareGraph.from_placement(figure5_placement())
        host = Cluster(graph, delay_model=UniformDelay(1, 10), seed=7)
        ReconfigManager(host, window=3.0).install(ReconfigSchedule(
            "regrant",
            (
                add_edge(40.0, 1, 3, register="y"),
                remove_edge(80.0, 1, 3),
                add_edge(120.0, 1, 3, register="y"),
            ),
        ))
        host.schedule_timer(60.0, lambda h, t: h.write(1, "y", "LAST"))
        host.run_until_quiescent()
        assert host.metrics.reconfigs == 3
        assert host.values("y") == {1: "LAST", 2: "LAST", 3: "LAST", 4: "LAST"}
        assert host.check_consistency().is_causally_consistent

    def test_history_replay_is_not_an_apply_latency_sample(self):
        """State transfer replays old updates; their issue→apply deltas
        measure the history's age, not propagation, and must not pollute
        the apply-latency distribution."""
        placement = figure5_placement()
        schedule = ReconfigSchedule(
            "late-grant", (add_edge(150.0, 1, 3, register="y"),)
        )
        host, manager, result = churned_run(
            "peer-to-peer", placement, schedule, duration=160.0
        )
        assert result.consistent
        assert host.metrics.reconfigs == 1
        transferred = [
            record for record in host.metrics.reconfig_timeline
            if record.kind == "transfer-start"
        ]
        assert transferred, "the late grant should have moved history"
        assert host.metrics.apply_latencies, "run produced no applies"
        assert max(host.metrics.apply_latencies) < 100.0, (
            "a replayed t~0 update issued long before the t=150 grant "
            "leaked into the apply-latency samples"
        )


class TestDeferredCommitWorkloads:
    """A dynamic workload assumes every change commits at the end of its
    window.  When a commit is queued or deferred, its operations reach a
    replica that does not store their register yet: the host rejects and
    counts them, under either architecture."""

    @pytest.mark.parametrize("architecture", ["peer-to-peer", "client-server"])
    def test_ops_on_registers_not_granted_yet_are_rejected(self, architecture):
        placement = tree_placement(6)
        # Seed 126: the join granting 'churn_7_4' to replica 4 commits
        # after the workload starts writing it there.
        schedule = random_churn_schedule(placement, 120.0, joins=1, edge_changes=2,
                                         seed=126, join_style="group")
        delay = LossyDelay(inner=UniformDelay(1, 10), drop_probability=0.1)
        graph = ShareGraph.from_placement(placement)
        if architecture == "peer-to-peer":
            host = Cluster(graph, delay_model=delay, seed=126)
        else:
            host = ClientServerCluster.with_colocated_clients(
                graph, delay_model=delay, seed=126)
        FaultInjector(host, reliability=ReliabilityConfig())
        ReconfigManager(host).install(schedule)
        workload = poisson_workload_dynamic(
            schedule.placements_over(placement), rate=1.0, duration=120.0, seed=126
        )
        assert any(arrival.operation.register == "churn_7_4"
                   for arrival in workload.arrivals)
        result = run_open_loop(host, workload)
        assert result.consistent
        assert host.metrics.reconfigs == 3
        assert host.metrics.rejected_operations > 0

    @pytest.mark.parametrize("architecture", ["peer-to-peer", "client-server"])
    def test_unstored_register_stays_a_caller_error_without_a_manager(
        self, architecture
    ):
        graph = ShareGraph.from_placement(path_placement_small())
        if architecture == "peer-to-peer":
            host = Cluster(graph, seed=0)
        else:
            host = ClientServerCluster.with_colocated_clients(graph, seed=0)
        with pytest.raises(RegisterNotStoredError):
            host.submit_operation(Operation("write", 1, "z", "nope"))
        assert host.metrics.rejected_operations == 0


class TestChurnSoak:
    """Random churn under random faults: every run stays causally
    consistent and commits every scheduled change, in both architectures.

    Crashes hit only replicas that never leave (a departed replica cannot
    restart); the partition splits the initial replicas in half, so
    joiners form a third island while it lasts.
    """

    DURATION = 120.0

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        architecture=st.sampled_from(["peer-to-peer", "client-server"]),
        shape=st.sampled_from([tree_placement, ring_placement]),
        size=st.integers(5, 6),
        joins=st.integers(0, 2),
        join_style=st.sampled_from(["leaf", "group"]),
        leaves=st.integers(0, 1),
        edge_changes=st.integers(0, 2),
        loss=st.sampled_from([0.0, 0.1, 0.25]),
        crashes=st.integers(0, 2),
        partitioned=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_churn_under_faults_stays_consistent(
        self, architecture, shape, size, joins, join_style, leaves,
        edge_changes, loss, crashes, partitioned, seed,
    ):
        placement = shape(size)
        schedule = random_churn_schedule(
            placement, self.DURATION, joins=joins, leaves=leaves,
            edge_changes=edge_changes, seed=seed, join_style=join_style,
        )
        leaving = {a.replica_id for a in schedule.actions if a.kind == "leave"}
        initial = sorted(placement.replica_ids)
        faults = random_fault_schedule(
            [rid for rid in initial if rid not in leaving], self.DURATION,
            crashes=crashes,
            partition_groups=[initial[: size // 2], initial[size // 2:]],
            partition_at=0.4 * self.DURATION,
            partition_duration=0.15 * self.DURATION if partitioned else 0.0,
            seed=seed,
        )
        delay = UniformDelay(1, 10)
        if loss:
            delay = LossyDelay(inner=delay, drop_probability=loss)
        graph = ShareGraph.from_placement(placement)
        if architecture == "peer-to-peer":
            host = Cluster(graph, delay_model=delay, seed=seed)
        else:
            host = ClientServerCluster.with_colocated_clients(
                graph, delay_model=delay, seed=seed)
        FaultInjector(host, reliability=ReliabilityConfig()).install(faults)
        ReconfigManager(host).install(schedule)
        workload = poisson_workload_dynamic(
            schedule.placements_over(placement), rate=3.0,
            duration=self.DURATION, seed=seed,
        )
        result = run_open_loop(host, workload)
        assert result.consistent
        assert host.metrics.reconfigs == len(schedule.actions)


# ======================================================================
# Reconfiguration on measured topologies (LatencyDelayModel)
# ======================================================================

class TestLatencyDelayModelReconfig:
    """Joins must extend a measured delay model's channel table.

    ``LatencyDelayModel`` precomputed its per-channel base latencies over
    the construction-time assignment only, so a replica joined through
    ``sim/reconfig.py`` hit ``TopologyError`` from ``channel_base`` on its
    first message — reconfiguration was impossible on measured topologies.
    """

    def _measured_cluster(self, seed=11, jitter=0.0):
        topology = geo_regions(2, 3)
        placement = path_placement_small()
        nodes = sorted(topology.nodes)
        assignment = {rid: nodes[rid - 1] for rid in placement.replica_ids}
        model = LatencyDelayModel(topology, assignment, jitter=jitter)
        graph = ShareGraph.from_placement(placement)
        cluster = Cluster(graph, delay_model=model, seed=seed)
        return topology, placement, assignment, model, cluster

    def test_assign_extends_channel_table_with_shortest_paths(self):
        topology, _, assignment, model, _ = self._measured_cluster()
        joiner_node = sorted(topology.nodes)[-1]
        model.assign(5, joiner_node)
        assert model.node_of(5) == joiner_node
        for rid, node in assignment.items():
            expected = (
                model.local_latency_ms if node == joiner_node
                else topology.path_latency(node, joiner_node)
            )
            assert model.channel_base((rid, 5)) == expected
            assert model.channel_base((5, rid)) == expected

    def test_assign_rejects_unknown_node(self):
        _, _, _, model, _ = self._measured_cluster()
        with pytest.raises(TopologyError):
            model.assign(5, "nowhere")

    def test_join_mid_run_under_latency_model_stays_consistent(self):
        """The bugfix scenario: a mid-run join on a measured topology.

        Before the fix this run died with ``TopologyError: channel (5, 4)
        has an unassigned endpoint`` the moment the joiner first spoke.
        """
        topology, placement, _, model, cluster = self._measured_cluster()
        manager = ReconfigManager(cluster, window=3.0)
        joiner_node = sorted(topology.nodes)[-1]
        schedule = ReconfigSchedule(
            "measured-join",
            (join(40.0, 5, {"z", "link_5_4"}, grants={4: {"link_5_4"}},
                  node=joiner_node),),
        )
        manager.install(schedule)
        placements = schedule.placements_over(placement, window=3.0)
        workload = poisson_workload_dynamic(
            placements, rate=0.4, duration=120.0, seed=11
        )
        result = run_open_loop(cluster, workload)
        assert result.consistent
        assert cluster.metrics.reconfigs == 1
        assert cluster.is_member(5)
        assert model.node_of(5) == joiner_node
        node_of_4 = model.node_of(4)
        assert model.channel_base((5, 4)) == topology.path_latency(
            joiner_node, node_of_4
        )

    def test_join_without_node_co_hosts_with_a_neighbor(self):
        """Schedules that predate the ``node=`` knob (e.g. random churn)
        still work: the joiner is co-hosted with its first share-graph
        neighbor, paying loopback latency on that channel."""
        topology, placement, _, model, cluster = self._measured_cluster()
        manager = ReconfigManager(cluster, window=3.0)
        schedule = ReconfigSchedule(
            "implicit-join",
            (join(40.0, 5, {"link_5_2"}, grants={2: {"link_5_2"}}),),
        )
        manager.install(schedule)
        placements = schedule.placements_over(placement, window=3.0)
        workload = poisson_workload_dynamic(
            placements, rate=0.4, duration=120.0, seed=12
        )
        result = run_open_loop(cluster, workload)
        assert result.consistent
        assert model.node_of(5) == model.node_of(2)
        assert model.channel_base((5, 2)) == model.local_latency_ms

    def test_join_reaches_assign_through_fate_wrappers(self):
        """The commit path unwraps ``ChannelFateWrapper`` chains to find
        the measured model underneath (lossy links over a topology)."""
        topology, placement, _, model, _ = self._measured_cluster()
        graph = ShareGraph.from_placement(placement)
        wrapped = LossyDelay(inner=model, drop_probability=0.0)
        cluster = Cluster(graph, delay_model=wrapped, seed=13)
        manager = ReconfigManager(cluster, window=3.0)
        joiner_node = sorted(topology.nodes)[2]
        schedule = ReconfigSchedule(
            "wrapped-join",
            (join(40.0, 5, {"z"}, node=joiner_node),),
        )
        manager.install(schedule)
        placements = schedule.placements_over(placement, window=3.0)
        workload = poisson_workload_dynamic(
            placements, rate=0.4, duration=120.0, seed=13
        )
        result = run_open_loop(cluster, workload)
        assert result.consistent
        assert model.node_of(5) == joiner_node
