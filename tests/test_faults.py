"""Tests for the fault-injection subsystem (repro.sim.faults).

Covers the acceptance scenarios: crash-restart-recover and partition-heal on
both architectures pass the trace-based consistency checker, a full fault
schedule replays deterministically under one seed, and lossy/duplicating
channels stay exactly-once at the protocol layer through the transport's
ack/resend reliability layer.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import protocol_suite
from repro.clientserver import ClientServerCluster
from repro.core.errors import ConfigurationError, ProtocolError, SimulationError
from repro.core.registers import RegisterPlacement
from repro.core.share_graph import ShareGraph
from repro.sim.cluster import Cluster
from repro.sim.delays import DuplicatingDelay, FixedDelay, LossyDelay, UniformDelay
from repro.sim.engine import ReliabilityConfig
from repro.sim.faults import (
    FaultInjector,
    FaultSchedule,
    crash,
    heal,
    latency_spike,
    partition,
    random_fault_schedule,
    restart,
)
from repro.sim.workloads import (
    Operation,
    poisson_workload,
    run_open_loop,
    run_workload,
    uniform_workload,
)


def path_graph() -> ShareGraph:
    """The Figure 3 path: 1-{x}-2-{y}-3-{z}-4."""
    return ShareGraph.from_placement(
        RegisterPlacement.from_dict({1: {"x"}, 2: {"x", "y"}, 3: {"y", "z"}, 4: {"z"}})
    )


def drive_operations(cluster, operations, start=1.0, gap=1.0):
    """Schedule replica-addressed operations open-loop at fixed times."""
    for index, operation in enumerate(operations):
        cluster.schedule_arrival_at(start + index * gap, operation)


# ----------------------------------------------------------------------
# Fault schedules (declarative layer)
# ----------------------------------------------------------------------

class TestFaultSchedule:
    def test_actions_sorted_by_time(self):
        schedule = FaultSchedule("s", (restart(30.0, 1), crash(10.0, 1)))
        assert [a.kind for a in schedule.actions] == ["crash", "restart"]
        assert schedule.duration == 30.0

    def test_latency_spike_pair_accepted_inline(self):
        schedule = FaultSchedule("s", (latency_spike(5.0, 10.0, 4.0),))
        assert [a.kind for a in schedule.actions] == ["slowdown", "slowdown"]
        assert schedule.actions[0].factor == 4.0
        assert schedule.actions[1].factor == 1.0
        assert schedule.actions[1].time == 15.0

    def test_partition_requires_two_groups(self):
        with pytest.raises(ConfigurationError):
            partition(1.0, {1, 2})

    def test_random_schedule_deterministic(self):
        a = random_fault_schedule([1, 2, 3, 4], 100.0, crashes=2,
                                  partition_duration=20.0, seed=5)
        b = random_fault_schedule([1, 2, 3, 4], 100.0, crashes=2,
                                  partition_duration=20.0, seed=5)
        assert a == b
        assert sum(1 for act in a.actions if act.kind == "crash") == 2
        assert sum(1 for act in a.actions if act.kind == "restart") == 2

    def test_random_schedule_rejects_too_many_crashes(self):
        with pytest.raises(ConfigurationError):
            random_fault_schedule([1, 2], 100.0, crashes=3)


# ----------------------------------------------------------------------
# Durable state across a crash: the replica object survives, untouched
# ----------------------------------------------------------------------

#: Attributes a replica family keeps its clock in.
CLOCKS = ("timestamp", "vector", "matrix")


def value_state(state):
    """A durable state's values: clock counters, store, pending uids (in
    arrival order), frontier, event trace, sequence counter and bootstrap
    position."""
    return (
        {name: dict(state[name].items()) for name in CLOCKS if name in state},
        dict(state["store"]),
        list(state["pending"]),
        dict(state["frontier"]),
        list(state["events"]),
        state["issued_count"],
        (state["_bootstrap_epoch"], state["_bootstrap_next"],
         state["_bootstrap_total"]),
    )


class SnapshotAtCrash(FaultInjector):
    """Takes a deep-copied snapshot at each crash and, at the restart,
    asserts that the down replica's value state still equals it."""

    def __init__(self, host, reliability=None):
        super().__init__(host, reliability)
        self.at_crash = {}
        self.restarts_checked = 0

    def crash_now(self, replica_id):
        super().crash_now(replica_id)
        self.at_crash[replica_id] = self.host._replica(replica_id).snapshot()

    def restart_now(self, replica_id):
        live = self.host._replica(replica_id).durable_view()
        assert value_state(live.state) == value_state(
            self.at_crash.pop(replica_id).state
        ), f"replica {replica_id} changed while down"
        self.restarts_checked += 1
        super().restart_now(replica_id)


def _lossy_host(family, graph, seed):
    delay = LossyDelay(inner=UniformDelay(1.0, 10.0), drop_probability=0.2)
    if family == "client-server":
        return ClientServerCluster.with_colocated_clients(
            graph, delay_model=delay, seed=seed)
    return Cluster(graph, replica_factory=protocol_suite()[family],
                   delay_model=delay, seed=seed)


class TestSnapshotRestore:
    def test_roundtrip_restores_exact_state(self):
        graph = path_graph()
        cluster = Cluster(graph, delay_model=FixedDelay(1.0), seed=0)
        injector = FaultInjector(cluster)
        cluster.write(2, "x", "x1")
        cluster.run_until_quiescent()
        replica = cluster.replica(2)
        injector.crash_now(2)
        # Nothing reaches a down replica…
        assert cluster.write(2, "y", "y1") is None
        # …and the restart brings the same object back, state intact.
        injector.restart_now(2)
        assert cluster.replica(2) is replica
        assert replica.store["y"] is None
        assert replica.store["x"] == "x1"
        assert replica.issued_count == 1
        assert len(replica.events) == 1

    def test_snapshot_shares_no_structure(self):
        graph = path_graph()
        cluster = Cluster(graph, delay_model=FixedDelay(1.0), seed=0)
        replica = cluster.replica(2)
        snapshot = replica.snapshot()
        replica.store["x"] = "mutated"
        assert snapshot.state["store"]["x"] is None

    def test_restore_wrong_replica_rejected(self):
        graph = path_graph()
        cluster = Cluster(graph, delay_model=FixedDelay(1.0), seed=0)
        snapshot = cluster.replica(2).snapshot()
        with pytest.raises(ProtocolError):
            cluster.replica(3).adopt(snapshot)

    def test_client_server_volatile_requests_not_persisted(self):
        graph = path_graph()
        cluster = ClientServerCluster.with_colocated_clients(
            graph, delay_model=FixedDelay(1.0), seed=0
        )
        injector = FaultInjector(cluster)
        server = cluster.servers[2]
        snapshot = server.snapshot()
        assert "waiting_requests" not in snapshot.state
        server.waiting_requests.append("buffered")
        injector.crash_now(2)
        assert server.waiting_requests == []
        injector.restart_now(2)
        assert server.waiting_requests == []


class TestDownReplicaUntouched:
    """A crash keeps the replica object: every path that could change it
    while it is down must skip it."""

    @pytest.mark.parametrize("family", sorted(protocol_suite()) + ["client-server"])
    def test_value_state_at_restart_equals_the_crash_snapshot(self, family):
        graph = path_graph()
        host = _lossy_host(family, graph, seed=3)
        injector = SnapshotAtCrash(
            host, ReliabilityConfig(resend_timeout=15.0, max_retries=6)
        )
        injector.install(FaultSchedule("two crashes", (
            crash(8.0, 3), restart(40.0, 3), crash(50.0, 2), restart(75.0, 2),
        )))
        workload = poisson_workload(graph, rate=1.5, duration=90.0, seed=3)
        result = run_open_loop(host, workload)
        assert result.consistent
        assert injector.restarts_checked == 2
        # Traffic was in flight to the down replicas, and was lost there.
        assert host.network.stats.messages_lost_to_crash > 0
        assert host.metrics.rejected_operations > 0

    def test_request_buffered_at_crashed_server_is_dropped_and_rejected(self):
        from repro.clientserver import ClientAssignment

        graph = path_graph()
        cluster = ClientServerCluster(
            graph,
            ClientAssignment.from_dict({"c1": {3, 4}, "c2": {3}}),
            delay_model=FixedDelay(1.0),
            seed=0,
        )
        injector = FaultInjector(cluster)
        server = cluster.servers[4]
        cluster.network.hold(3, 4)
        cluster.client_write("c2", "z", "z1", replica_id=3)
        assert cluster.client_read("c1", "z", replica_id=3) == "z1"
        buffered = []

        def crash_four(host, time):
            buffered.extend(server.waiting_requests)
            injector.crash_now(4)

        cluster.schedule_fault_at(5.0, crash_four, kind="crash")
        assert cluster.client_write("c1", "z", "z2", replica_id=4) is None
        assert [request.value for request in buffered] == ["z2"]
        assert server.waiting_requests == []
        assert cluster.metrics.rejected_operations == 1
        injector.restart_now(4)
        cluster.network.release_all()
        cluster.run_until_quiescent()
        # The dropped write never happens: 4 ends with the value of 3's write.
        assert server.store["z"] == "z1"
        assert all(update.value != "z2" for update in server.applied)
        assert cluster.check_consistency().is_causally_consistent


# ----------------------------------------------------------------------
# Crash → restart → recover (acceptance scenario, both architectures)
# ----------------------------------------------------------------------

class TestCrashRecovery:
    def test_crash_restart_recover_peer_to_peer(self):
        graph = path_graph()
        cluster = Cluster(graph, delay_model=FixedDelay(2.0), seed=1)
        injector = FaultInjector(cluster)
        injector.install(
            FaultSchedule("crash3", (crash(5.0, 3), restart(30.0, 3)))
        )
        # Replica 3 misses the y-writes issued while it is down…
        drive_operations(cluster, [
            Operation("write", 2, "y", "y-before"),   # t=1, lands at 3
            Operation("write", 2, "y", "y-during"),   # t=2, lost at t=4? no: t=4 < 5
            Operation("write", 2, "y", "y-down-1"),   # t=3 … delivered t=5 -> lost
            Operation("write", 2, "y", "y-down-2"),   # t=4 … delivered t=6 -> lost
            Operation("write", 3, "z", "z-after"),    # t=40, after recovery
        ], start=1.0, gap=1.0)
        cluster.schedule_arrival_at(40.0, Operation("write", 3, "z", "z-final"))
        cluster.run_until_quiescent()

        assert cluster.network.stats.messages_lost_to_crash > 0
        report = cluster.check_consistency()
        assert report.is_causally_consistent
        # The restarted replica caught up via the anti-entropy resync.
        assert cluster.replica(3).store["y"] == "y-down-2"
        assert cluster.metrics.crashes == 1
        assert cluster.metrics.restarts == 1
        assert len(cluster.metrics.recovery_latencies) == 1
        assert cluster.metrics.downtime[3] == [(5.0, 30.0)]

    def test_crash_rejects_operations_while_down(self):
        graph = path_graph()
        cluster = Cluster(graph, delay_model=FixedDelay(1.0), seed=1)
        injector = FaultInjector(cluster)
        injector.crash_now(3)
        assert cluster.write(3, "y", "nope") is None
        assert cluster.read(3, "z") is None
        assert cluster.metrics.rejected_operations == 2
        injector.restart_now(3)
        assert cluster.write(3, "y", "yes") is not None

    def test_crash_restart_recover_client_server(self):
        graph = path_graph()
        cluster = ClientServerCluster.with_colocated_clients(
            graph, delay_model=FixedDelay(2.0), seed=1
        )
        injector = FaultInjector(cluster)
        injector.install(
            FaultSchedule("crash3", (crash(5.0, 3), restart(30.0, 3)))
        )
        drive_operations(cluster, [
            Operation("write", 2, "y", "y1"),
            Operation("write", 2, "y", "y2"),
            Operation("write", 2, "y", "y3"),
            Operation("write", 2, "y", "y4"),
        ], start=1.0, gap=1.0)
        cluster.schedule_arrival_at(45.0, Operation("read", 3, "y"))
        cluster.run_until_quiescent()

        report = cluster.check_consistency()
        assert report.is_causally_consistent
        assert cluster.servers[3].store["y"] == "y4"
        assert cluster.metrics.crashes == 1
        assert cluster.metrics.restarts == 1

    def test_client_server_rejects_operations_on_down_server(self):
        graph = path_graph()
        cluster = ClientServerCluster.with_colocated_clients(
            graph, delay_model=FixedDelay(1.0), seed=1
        )
        injector = FaultInjector(cluster)
        injector.crash_now(2)
        assert cluster.client_write("c2", "y", "nope", replica_id=2) is None
        assert cluster.client_read("c2", "y", replica_id=2) is None
        assert cluster.metrics.rejected_operations == 2
        injector.restart_now(2)
        issued = cluster.client_write("c2", "y", "yes", replica_id=2)
        assert issued is not None and issued.register == "y"

    def test_client_server_crash_during_blocked_request_rejects(self):
        # A roaming client whose request is buffered behind J1/J2 when the
        # server crashes sees the operation rejected (None), not a
        # SimulationError — the buffered request is volatile server state.
        from repro.clientserver import ClientAssignment

        graph = path_graph()
        cluster = ClientServerCluster(
            graph,
            ClientAssignment.from_dict({"c1": {3, 4}, "c2": {3}}),
            delay_model=FixedDelay(1.0),
            seed=0,
        )
        injector = FaultInjector(cluster)
        cluster.network.hold(3, 4)
        # c2's write at 3 bumps the 3->4 edge; the update to 4 is parked.
        cluster.client_write("c2", "z", "z1", replica_id=3)
        # c1 observes it at 3, so its next request at 4 blocks on J1/J2.
        assert cluster.client_read("c1", "z", replica_id=3) == "z1"
        cluster.schedule_fault_at(
            5.0, lambda host, time: injector.crash_now(4), kind="crash"
        )
        assert cluster.client_write("c1", "z", "z2", replica_id=4) is None
        assert cluster.metrics.rejected_operations == 1
        assert injector.is_down(4)

    def test_injector_misuse_raises(self):
        graph = path_graph()
        cluster = Cluster(graph, seed=0)
        injector = FaultInjector(cluster)
        with pytest.raises(ConfigurationError):
            FaultInjector(cluster)  # double attach
        with pytest.raises(SimulationError):
            injector.restart_now(1)  # not down
        injector.crash_now(1)
        with pytest.raises(SimulationError):
            injector.crash_now(1)  # already down

    def test_finalize_downtime_and_availability(self):
        graph = path_graph()
        cluster = Cluster(graph, delay_model=FixedDelay(1.0), seed=0)
        injector = FaultInjector(cluster)
        injector.install(FaultSchedule("down", (crash(10.0, 4),)))
        cluster.schedule_arrival_at(50.0, Operation("write", 1, "x", "x1"))
        cluster.run_until_quiescent(max_steps=10_000)
        injector.finalize_downtime()
        # Replica 4 went down at t=10 and never came back: within the
        # 50-unit horizon it was up for the first 10 units only.
        availability = cluster.metrics.availability(50.0, graph.replica_ids)
        assert availability[4] == pytest.approx(0.2)
        assert availability[1] == 1.0


# ----------------------------------------------------------------------
# Partition → heal (acceptance scenario, both architectures)
# ----------------------------------------------------------------------

class TestPartitionHeal:
    def test_partition_heal_peer_to_peer(self):
        graph = path_graph()
        cluster = Cluster(graph, delay_model=FixedDelay(2.0), seed=1)
        injector = FaultInjector(cluster)
        injector.install(
            FaultSchedule("split", (partition(0.5, {1, 2}, {3, 4}), heal(40.0)))
        )
        drive_operations(cluster, [
            Operation("write", 2, "y", "y-split"),   # y crosses the cut to 3
            Operation("write", 3, "z", "z-split"),   # z crosses the cut to 4? no: 3,4 same side
            Operation("write", 2, "x", "x-split"),   # x stays inside {1,2}
        ], start=1.0, gap=1.0)
        cluster.run_until_quiescent()

        report = cluster.check_consistency()
        assert report.is_causally_consistent
        assert cluster.replica(3).store["y"] == "y-split"
        # The cross-cut apply waited out the partition: staleness ≥ heal - issue.
        assert max(cluster.metrics.apply_latencies) >= 39.0
        kinds = [record.kind for record in cluster.metrics.fault_timeline]
        assert kinds == ["partition", "heal"]

    def test_partition_heal_client_server(self):
        graph = path_graph()
        cluster = ClientServerCluster.with_colocated_clients(
            graph, delay_model=FixedDelay(2.0), seed=1
        )
        injector = FaultInjector(cluster)
        injector.install(
            FaultSchedule("split", (partition(0.5, {1, 2}, {3, 4}), heal(40.0)))
        )
        drive_operations(cluster, [
            Operation("write", 2, "y", "y-split"),
            Operation("write", 3, "z", "z-split"),
            Operation("write", 2, "x", "x-split"),
        ], start=1.0, gap=1.0)
        cluster.run_until_quiescent()

        report = cluster.check_consistency()
        assert report.is_causally_consistent
        assert cluster.servers[3].store["y"] == "y-split"
        assert max(cluster.metrics.apply_latencies) >= 39.0

    def test_unlisted_replicas_form_rest_island(self):
        graph = path_graph()
        cluster = Cluster(graph, delay_model=FixedDelay(1.0), seed=1)
        # Isolate {2} from everyone; 1, 3, 4 stay mutually connected.
        cluster.network.partition({2}, {1})
        cluster.write(3, "z", "z1")          # 3 -> 4 unaffected
        cluster.write(2, "y", "y1")          # 2 -> 3 parked
        cluster.run_until_quiescent()
        assert cluster.replica(4).store["z"] == "z1"
        assert cluster.replica(3).store["y"] is None
        assert cluster.network.held_count == 1
        cluster.network.heal()
        cluster.run_until_quiescent()
        assert cluster.replica(3).store["y"] == "y1"


# ----------------------------------------------------------------------
# Lossy / duplicating channels + the reliability layer (exactly-once)
# ----------------------------------------------------------------------

class TestLossyChannels:
    def make_cluster(self, seed=7):
        graph = path_graph()
        model = DuplicatingDelay(
            inner=LossyDelay(inner=UniformDelay(1, 10), drop_probability=0.3),
            duplicate_probability=0.25,
        )
        cluster = Cluster(graph, delay_model=model, seed=seed)
        FaultInjector(
            cluster,
            reliability=ReliabilityConfig(resend_timeout=20.0, max_retries=5),
        )
        return cluster

    def test_exactly_once_through_loss_and_duplication(self):
        cluster = self.make_cluster()
        graph = cluster.share_graph
        workload = uniform_workload(graph, 120, seed=3)
        result = run_workload(cluster, workload, interleave_steps=1)
        assert result.consistent
        stats = cluster.network.stats
        assert stats.messages_dropped > 0
        assert stats.messages_duplicated > 0
        assert stats.retransmissions > 0
        # The protocol layer suppressed every duplicate delivery…
        assert sum(r.duplicates_ignored for r in cluster.replicas.values()) > 0
        # …so no replica applied any update twice.
        for replica in cluster.replicas.values():
            uids = [u.uid for u in replica.applied]
            assert len(uids) == len(set(uids))

    def test_loss_without_reliability_breaks_liveness(self):
        graph = path_graph()
        model = LossyDelay(inner=FixedDelay(1.0), drop_probability=1.0)
        cluster = Cluster(graph, delay_model=model, seed=0)
        cluster.write(2, "y", "y1")
        cluster.run_until_quiescent()
        report = cluster.check_consistency()
        assert not report.is_live  # documents why the reliability layer exists

    def test_retransmission_covers_downtime_without_resync(self):
        # A message dropped on a crashed destination is re-sent by the
        # resend timer after the restart — the ack/resend layer alone
        # recovers it even though the resync also would.
        graph = path_graph()
        cluster = Cluster(graph, delay_model=FixedDelay(1.0), seed=0)
        injector = FaultInjector(
            cluster, reliability=ReliabilityConfig(resend_timeout=5.0, max_retries=10)
        )
        injector.install(FaultSchedule("blip", (crash(1.5, 3), restart(3.0, 3))))
        cluster.schedule_arrival_at(1.0, Operation("write", 2, "y", "y1"))
        cluster.run_until_quiescent()
        assert cluster.replica(3).store["y"] == "y1"
        assert cluster.check_consistency().is_causally_consistent


# ----------------------------------------------------------------------
# Latency spikes
# ----------------------------------------------------------------------

class TestLatencySpike:
    def test_spike_scales_delays_then_recovers(self):
        graph = path_graph()
        cluster = Cluster(graph, delay_model=FixedDelay(2.0), seed=0)
        injector = FaultInjector(cluster)
        injector.install(FaultSchedule("spike", (latency_spike(5.0, 10.0, 10.0),)))
        cluster.schedule_arrival_at(6.0, Operation("write", 2, "y", "slow"))
        cluster.schedule_arrival_at(30.0, Operation("write", 2, "y", "fast"))
        cluster.run_until_quiescent()
        latencies = cluster.metrics.apply_latencies
        assert max(latencies) == pytest.approx(20.0)   # 2.0 × 10
        assert min(latencies) == pytest.approx(2.0)    # back to normal


# ----------------------------------------------------------------------
# Same-seed determinism of a full fault schedule (acceptance criterion)
# ----------------------------------------------------------------------

class TestDeterminism:
    @staticmethod
    def fingerprint(host):
        metrics = host.metrics
        return (
            metrics.applies,
            tuple(metrics.apply_times),
            tuple(metrics.apply_latencies),
            metrics.rejected_operations,
            tuple(metrics.recovery_latencies),
            tuple((r.time, r.kind, r.detail) for r in metrics.fault_timeline),
            {rid: dict(sorted(metrics.downtime.items())).get(rid)
             for rid in metrics.downtime},
            host.network.stats.messages_dropped,
            host.network.stats.messages_duplicated,
            host.network.stats.retransmissions,
            host.network.stats.messages_lost_to_crash,
            {rid: tuple((e.kind, e.update.uid if e.update else None, e.sim_time)
                        for e in events)
             for rid, events in host.events_by_replica().items()},
        )

    def run_full_schedule(self, architecture: str, seed: int):
        graph = path_graph()
        model = DuplicatingDelay(
            inner=LossyDelay(inner=UniformDelay(1, 8), drop_probability=0.15),
            duplicate_probability=0.15,
        )
        if architecture == "peer-to-peer":
            host = Cluster(graph, delay_model=model, seed=seed)
        else:
            host = ClientServerCluster.with_colocated_clients(
                graph, delay_model=model, seed=seed
            )
        injector = FaultInjector(
            host, reliability=ReliabilityConfig(resend_timeout=15.0, max_retries=6)
        )
        schedule = FaultSchedule("full", (
            crash(20.0, 3),
            restart(45.0, 3),
            partition(60.0, {1, 2}, {3, 4}),
            heal(85.0),
            latency_spike(95.0, 10.0, 5.0),
        ))
        injector.install(schedule)
        workload = poisson_workload(graph, rate=1.0, duration=110.0, seed=seed)
        result = run_open_loop(host, workload)
        assert result.consistent
        return self.fingerprint(host)

    @pytest.mark.parametrize("architecture", ["peer-to-peer", "client-server"])
    def test_same_seed_same_execution(self, architecture):
        first = self.run_full_schedule(architecture, seed=11)
        second = self.run_full_schedule(architecture, seed=11)
        assert first == second

    def test_different_seed_differs(self):
        assert (self.run_full_schedule("peer-to-peer", seed=11)
                != self.run_full_schedule("peer-to-peer", seed=12))
