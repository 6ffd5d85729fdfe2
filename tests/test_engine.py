"""Tests for the unified simulation kernel (repro.sim.engine).

Covers the typed event queue (ordering, determinism), the shared host
operation path (on a simulated and a live host), the open-loop workload
generators, peer-to-peer vs client–server parity on one workload, the
indexed apply path against the reference rescan, and the cross-replica
apply fixpoint at quiescence.
"""

from __future__ import annotations

import pytest

from repro.clientserver import ClientServerCluster
from repro.core.host import LatencySummary, throughput_timeline
from repro.core.protocol import CausalReplica, EventKind, Update, UpdateMessage
from repro.core.replica import EdgeIndexedReplica
from repro.core.share_graph import ShareGraph
from repro.net.node import LiveNode, NodeConfig
from repro.sim.cluster import Cluster
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.engine import ArrivalEvent, DeliveryEvent, EventKernel, TimerEvent
from repro.sim.faults import FaultInjector
from repro.sim.topologies import figure5_placement, ring_placement, triangle_placement
from repro.sim.workloads import (
    Operation,
    bursty_workload,
    poisson_workload,
    run_open_loop,
    run_workload,
    uniform_workload,
)


def _msg(sender=1, dest=2, seq=1):
    update = Update(issuer=sender, seq=seq, register="x", value=seq)
    return UpdateMessage(
        update=update, sender=sender, destination=dest, metadata=None, metadata_size=0
    )


class TestEventKernel:
    def test_events_fire_in_time_order(self):
        kernel = EventKernel()
        kernel.schedule_at(5.0, TimerEvent(callback=lambda h, t: None, tag="late"))
        kernel.schedule_at(1.0, TimerEvent(callback=lambda h, t: None, tag="early"))
        assert kernel.next_event().event.tag == "early"
        assert kernel.now == pytest.approx(1.0)
        assert kernel.next_event().event.tag == "late"
        assert kernel.next_event() is None

    def test_same_time_priority_delivery_then_arrival_then_timer(self):
        kernel = EventKernel()
        kernel.schedule_at(2.0, TimerEvent(callback=lambda h, t: None))
        kernel.schedule_at(2.0, ArrivalEvent(operation=None))
        kernel.schedule_at(2.0, DeliveryEvent((_msg(),), (0.0,)))
        kinds = [type(kernel.next_event().event) for _ in range(3)]
        assert kinds == [DeliveryEvent, ArrivalEvent, TimerEvent]

    def test_same_time_same_kind_fifo(self):
        kernel = EventKernel()
        for tag in ("a", "b", "c"):
            kernel.schedule_at(1.0, TimerEvent(callback=lambda h, t: None, tag=tag))
        assert [kernel.next_event().event.tag for _ in range(3)] == ["a", "b", "c"]

    def test_cannot_schedule_in_the_past(self):
        from repro.core.errors import SimulationError

        kernel = EventKernel()
        kernel.schedule_at(3.0, TimerEvent(callback=lambda h, t: None))
        kernel.next_event()
        with pytest.raises(SimulationError):
            kernel.schedule_at(1.0, TimerEvent(callback=lambda h, t: None))

    def test_pending_counts_by_type(self):
        kernel = EventKernel()
        kernel.schedule_at(1.0, DeliveryEvent((_msg(),), (0.0,)))
        kernel.schedule_at(2.0, ArrivalEvent(operation=None))
        assert kernel.pending_events() == 2
        assert kernel.pending_of(DeliveryEvent) == 1
        assert kernel.pending_of(ArrivalEvent) == 1
        assert kernel.peek_time() == pytest.approx(1.0)


class TestTimers:
    def test_timers_interleave_with_deliveries(self):
        graph = ShareGraph.from_placement(triangle_placement())
        cluster = Cluster(graph, delay_model=FixedDelay(2.0), seed=0)
        fired = []
        cluster.schedule_timer(1.0, lambda host, t: fired.append(("t1", t)))
        cluster.schedule_timer(3.0, lambda host, t: fired.append(("t3", t)))
        cluster.write(1, "x", "v")  # delivery at t=2
        cluster.run_until_quiescent()
        assert fired == [("t1", 1.0), ("t3", 3.0)]
        assert cluster.read(2, "x") == "v"

    def test_queue_depth_sampling(self):
        graph = ShareGraph.from_placement(triangle_placement())
        cluster = Cluster(graph, delay_model=FixedDelay(5.0), seed=0)
        cluster.write(1, "x", "v")
        cluster.schedule_timer(1.0, lambda host, t: host.sample_queue_depths())
        cluster.run_until_quiescent()
        assert len(cluster.metrics.queue_samples) == len(graph.replica_ids)
        assert all(s.time == pytest.approx(1.0) for s in cluster.metrics.queue_samples)


class TestMetricsPipeline:
    def test_latency_summary_percentiles(self):
        summary = LatencySummary.from_samples(list(range(1, 101)))
        assert summary.count == 100
        assert summary.p50 == 50
        assert summary.p90 == 90
        assert summary.p99 == 99
        assert summary.max == 100
        assert summary.mean == pytest.approx(50.5)

    def test_latency_summary_empty(self):
        summary = LatencySummary.from_samples([])
        assert summary.count == 0
        assert summary.p99 == 0.0

    def test_throughput_timeline_includes_empty_buckets(self):
        timeline = throughput_timeline([0.5, 0.7, 25.0], bucket_width=10.0)
        assert timeline == [(0.0, 2), (10.0, 0), (20.0, 1)]

    def test_run_metrics_shared_by_both_architectures(self):
        graph = ShareGraph.from_placement(triangle_placement())
        p2p = Cluster(graph, delay_model=FixedDelay(1.0), seed=1)
        cs = ClientServerCluster.with_colocated_clients(
            graph, delay_model=FixedDelay(1.0), seed=1
        )
        for host in (p2p, cs):
            host.submit_operation(Operation("write", 1, "x", value="v"))
            host.submit_operation(Operation("read", 2, "x"))
            host.run_until_quiescent()
            assert host.metrics.writes == 1
            assert host.metrics.reads == 1
            assert host.metrics.applies == 1
            assert host.metrics.apply_latency_summary().count == 1
            assert host.metrics.mean_apply_latency > 0


def _cluster_hosts(graph):
    cluster = Cluster(graph, seed=0)
    return cluster, cluster


def _live_hosts(graph):
    """One live node hosting every replica, in process (no sockets)."""
    node = LiveNode(NodeConfig(
        node_id="n", share_graph=graph, replica_ids=tuple(graph.replica_ids),
        replica_nodes={rid: "n" for rid in graph.replica_ids},
    ))
    return node, node


def _stamps(host, replica_id):
    return [(event.kind, event.sim_time)
            for event in host.events_by_replica()[replica_id]]


class TestHostOperationPath:
    """Both runtimes perform writes, reads and deliveries through one
    implementation on :class:`~repro.core.host.ReplicaHost`."""

    @pytest.mark.parametrize("hosts", [_cluster_hosts, _live_hosts],
                             ids=["cluster", "live"])
    def test_explicit_time_lands_in_every_book(self, hosts):
        graph = ShareGraph.from_placement(triangle_placement())
        writer, reader = hosts(graph)
        update, messages = writer.perform_write(1, "x", "v", at=5.0)
        assert reader.perform_read(2, "x", at=6.0) is None
        (to_reader,) = [m for m in messages if m.destination == 2]
        assert reader.deliver(reader._replica(2), [to_reader], at=7.0) == [update]
        assert _stamps(writer, 1) == [(EventKind.ISSUE, 5.0)]
        assert _stamps(reader, 2) == [(EventKind.READ, 6.0), (EventKind.APPLY, 7.0)]
        assert writer._issue_times == {update.uid: 5.0}
        assert (writer.metrics.writes, writer.metrics.operation_times[0]) == (1, 5.0)
        assert (reader.metrics.reads, reader.metrics.operation_times[-1]) == (1, 6.0)
        assert list(reader.metrics.apply_times) == [7.0]

    def test_op_at_a_crashed_replica_is_rejected_once_and_traces_nothing(self):
        graph = ShareGraph.from_placement(triangle_placement())
        cluster = Cluster(graph, seed=0)
        FaultInjector(cluster).crash_now(1)
        assert cluster.write(1, "x", "v") is None
        assert cluster.read(1, "z") is None
        metrics = cluster.metrics
        assert metrics.rejected_operations == 2
        assert (metrics.writes, metrics.reads, list(metrics.operation_times)) == (0, 0, [])
        assert cluster.events_by_replica()[1] == []
        assert cluster.network.stats.messages_sent == 0


class TestOpenLoopGenerators:
    def make_graph(self):
        return ShareGraph.from_placement(figure5_placement())

    def test_poisson_arrival_times_sorted_and_bounded(self):
        graph = self.make_graph()
        workload = poisson_workload(graph, rate=2.0, duration=100.0, seed=1)
        times = [a.time for a in workload.arrivals]
        assert times == sorted(times)
        assert all(0 < t <= 100.0 for t in times)
        # Mean count is rate * duration = 200; allow wide slack.
        assert 120 < len(workload) < 300

    def test_poisson_targets_stored_registers(self):
        graph = self.make_graph()
        workload = poisson_workload(graph, rate=1.0, duration=50.0, seed=2)
        for arrival in workload.arrivals:
            op = arrival.operation
            assert graph.placement.stores_register(op.replica_id, op.register)

    def test_poisson_determinism(self):
        graph = self.make_graph()
        assert poisson_workload(graph, 1.5, 40.0, seed=3) == poisson_workload(
            graph, 1.5, 40.0, seed=3
        )
        assert poisson_workload(graph, 1.5, 40.0, seed=3) != poisson_workload(
            graph, 1.5, 40.0, seed=4
        )

    def test_bursty_silent_gaps(self):
        graph = self.make_graph()
        workload = bursty_workload(
            graph,
            burst_rate=5.0,
            idle_rate=0.0,
            burst_length=10.0,
            idle_length=10.0,
            duration=60.0,
            seed=5,
        )
        assert len(workload) > 0
        # With idle_rate=0 every arrival falls inside a burst window
        # ([0,10), [20,30), [40,50)...).
        for arrival in workload.arrivals:
            phase = int(arrival.time // 10.0)
            assert phase % 2 == 0, f"arrival at {arrival.time} inside an idle gap"

    def test_invalid_parameters_rejected(self):
        from repro.core.errors import ConfigurationError

        graph = self.make_graph()
        with pytest.raises(ConfigurationError):
            poisson_workload(graph, rate=0.0, duration=10.0)
        with pytest.raises(ConfigurationError):
            bursty_workload(graph, 1.0, -1.0, 1.0, 1.0, 10.0)


class TestOpenLoopRuns:
    def test_open_loop_on_peer_to_peer(self):
        graph = ShareGraph.from_placement(figure5_placement())
        cluster = Cluster(graph, delay_model=UniformDelay(1, 10), seed=7)
        workload = poisson_workload(graph, rate=1.0, duration=80.0, seed=7)
        result = run_open_loop(cluster, workload, queue_sample_interval=5.0)
        assert result.consistent
        assert result.makespan >= workload.duration
        assert result.apply_latency.count == cluster.metrics.applies > 0
        assert result.throughput, "throughput timeline should not be empty"
        assert sum(c for _, c in result.throughput) == cluster.metrics.applies
        assert result.queue_depths, "queue depths should have been sampled"
        assert cluster.pending_updates() == 0

    def test_open_loop_same_seed_determinism(self):
        graph = ShareGraph.from_placement(figure5_placement())

        def run():
            cluster = Cluster(graph, delay_model=UniformDelay(1, 10), seed=11)
            workload = poisson_workload(graph, rate=1.5, duration=60.0, seed=11)
            result = run_open_loop(cluster, workload)
            return cluster.events_by_replica(), result.makespan, result.messages_sent

        events_a, makespan_a, msgs_a = run()
        events_b, makespan_b, msgs_b = run()
        assert events_a == events_b
        assert makespan_a == pytest.approx(makespan_b)
        assert msgs_a == msgs_b

    def test_open_loop_on_warmed_up_host(self):
        """Arrival spacing and makespan are relative to the run's start."""
        graph = ShareGraph.from_placement(triangle_placement())
        cluster = Cluster(graph, delay_model=FixedDelay(1.0), seed=5)
        workload = poisson_workload(graph, rate=1.0, duration=30.0, seed=5)
        first = run_open_loop(cluster, workload)
        assert cluster.now > 0
        second = run_open_loop(cluster, workload)
        # The same schedule replays with its spacing intact: the makespan is
        # measured from the start of the call, not the cumulative clock.
        assert second.makespan == pytest.approx(first.makespan)
        assert second.consistent

    def test_makespan_not_inflated_by_trailing_sampler(self):
        graph = ShareGraph.from_placement(triangle_placement())
        baseline = Cluster(graph, delay_model=FixedDelay(1.0), seed=6)
        workload = poisson_workload(graph, rate=0.5, duration=40.0, seed=6)
        no_sampler = run_open_loop(baseline, workload)
        sampled_cluster = Cluster(graph, delay_model=FixedDelay(1.0), seed=6)
        sampled = run_open_loop(sampled_cluster, workload, queue_sample_interval=7.0)
        assert sampled.makespan == pytest.approx(no_sampler.makespan)

    def test_blocking_arrivals_do_not_recurse(self):
        """An arrival whose submit steps the kernel defers later arrivals
        instead of nesting one Python frame-set per queued arrival."""
        graph = ShareGraph.from_placement(triangle_placement())

        class SteppingCluster(Cluster):
            """Simulates a blocking client op: every submit drives the kernel."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.order = []

            def submit_operation(self, operation):
                self.order.append(operation.value)
                self.step()  # may pop the next ArrivalEvent
                return super().submit_operation(operation)

        cluster = SteppingCluster(graph, delay_model=FixedDelay(1.0), seed=0)
        count = 2000  # would exceed the default recursion limit if nested
        for index in range(count):
            cluster.schedule_arrival(
                0.001 * (index + 1), Operation("write", 1, "x", value=f"v{index}")
            )
        cluster.run_until_quiescent()
        assert cluster.metrics.writes == count
        assert cluster.order == [f"v{i}" for i in range(count)]

    def test_open_loop_on_client_server(self):
        graph = ShareGraph.from_placement(triangle_placement())
        cluster = ClientServerCluster.with_colocated_clients(
            graph, delay_model=UniformDelay(1, 5), seed=3
        )
        workload = poisson_workload(graph, rate=1.0, duration=40.0, seed=3)
        result = run_open_loop(cluster, workload)
        assert result.consistent
        assert result.operation_latency.count == len(workload)


class TestArchitectureParity:
    """The same replica-addressed workload on Figure 1a vs Figure 1b."""

    def _run_both(self, seed: int):
        graph = ShareGraph.from_placement(figure5_placement())
        workload = uniform_workload(graph, 80, seed=seed)
        p2p = Cluster(graph, delay_model=FixedDelay(2.0), seed=seed)
        cs = ClientServerCluster.with_colocated_clients(
            graph, delay_model=FixedDelay(2.0), seed=seed
        )
        r1 = run_workload(p2p, workload)
        r2 = run_workload(cs, workload)
        return graph, p2p, cs, r1, r2

    def test_same_applied_updates_and_values(self):
        graph, p2p, cs, r1, r2 = self._run_both(seed=13)
        assert r1.consistent and r2.consistent
        for rid in graph.replica_ids:
            p2p_applied = {u.uid for u in p2p.replicas[rid].applied}
            cs_applied = {u.uid for u in cs.servers[rid].applied}
            assert p2p_applied == cs_applied, f"replica {rid} applied sets differ"
        for register in graph.placement.registers:
            assert p2p.values(register) == cs.values(register)

    def test_same_traffic_and_metrics_shape(self):
        _, p2p, cs, r1, r2 = self._run_both(seed=17)
        assert r1.messages_sent == r2.messages_sent
        assert p2p.metrics.writes == cs.metrics.writes
        assert p2p.metrics.reads == cs.metrics.reads
        assert p2p.metrics.applies == cs.metrics.applies


class TestIndexedApplyPath:
    """The pending-index fast path against the reference rescan."""

    def _rescan_factory(self, graph, replica_id):
        replica = EdgeIndexedReplica(graph, replica_id)

        def rescan(sim_time: float = 0.0, force: bool = False):
            return replica.apply_ready_rescan(sim_time)

        replica.apply_ready = rescan  # type: ignore[method-assign]
        return replica

    @pytest.mark.parametrize("placement_seed", [1, 2, 3])
    def test_differential_against_rescan(self, placement_seed):
        graph = ShareGraph.from_placement(
            ring_placement(6) if placement_seed == 1 else figure5_placement()
        )
        workload = uniform_workload(graph, 120, seed=placement_seed)
        indexed = Cluster(graph, delay_model=UniformDelay(1, 20), seed=placement_seed)
        rescan = Cluster(
            graph,
            replica_factory=self._rescan_factory,
            delay_model=UniformDelay(1, 20),
            seed=placement_seed,
        )
        r_indexed = run_workload(indexed, workload, interleave_steps=2)
        r_rescan = run_workload(rescan, workload, interleave_steps=2)
        assert r_indexed.consistent and r_rescan.consistent
        for rid in graph.replica_ids:
            assert {u.uid for u in indexed.replicas[rid].applied} == {
                u.uid for u in rescan.replicas[rid].applied
            }
        assert indexed.pending_updates() == rescan.pending_updates() == 0

    def test_blocked_message_applies_once_notified(self, triangle_graph):
        """Out-of-order delivery: the index re-checks exactly when unblocked."""
        writer = EdgeIndexedReplica(triangle_graph, 1)
        receiver = EdgeIndexedReplica(triangle_graph, 2)
        first = [m for m in writer.write("x", "a") if m.destination == 2][0]
        second = [m for m in writer.write("x", "b") if m.destination == 2][0]
        receiver.receive(second)
        assert receiver.apply_ready() == []  # FIFO gap: parked on edge (1, 2)
        assert receiver.pending_count() == 1
        receiver.receive(first)
        assert [u.value for u in receiver.apply_ready()] == ["a", "b"]
        assert receiver.pending_count() == 0


class OracleReplica(CausalReplica):
    """A test protocol whose delivery predicate reads *cross-replica* state.

    A message carries the uid of one dependency in its metadata; it may be
    applied only once some replica anywhere in the system has applied that
    dependency.  This makes a single final apply pass insufficient: replica
    A's apply during the pass can unblock replica B's buffered update, which
    only a cross-replica fixpoint picks up.
    """

    def __init__(self, share_graph, replica_id, oracle):
        super().__init__(replica_id, share_graph.registers_at(replica_id))
        self.share_graph = share_graph
        self.oracle = oracle

    def destinations(self, register):
        return tuple(
            rid
            for rid in self.share_graph.replicas_storing(register)
            if rid != self.replica_id
        )

    def make_metadata(self, register):
        self.oracle.add((self.replica_id, self.issued_count))
        return None, 0

    def can_apply(self, message):
        dependency = message.metadata
        return dependency is None or dependency in self.oracle

    def absorb_metadata(self, message):
        self.oracle.add(message.update.uid)

    def metadata_size(self):
        return 0


class TestQuiescenceFixpoint:
    """Satellite regression: the final apply pass is a cross-replica fixpoint."""

    def test_chain_across_replicas_resolves_at_quiescence(self):
        graph = ShareGraph.from_placement(triangle_placement())
        oracle = set()
        cluster = Cluster(
            graph,
            replica_factory=lambda g, rid: OracleReplica(g, rid, oracle),
            delay_model=FixedDelay(1.0),
            seed=0,
        )
        # A dependency chain that unblocks strictly *against* the replica
        # iteration order (1, 2, 3) of the final pass:
        #   u_c at replica 1 depends on u_b,
        #   u_b at replica 3 depends on u_a,
        #   u_a arrives (and is applied) at replica 2 *last*,
        # so when the network drains both u_b and u_c are still buffered.
        # Pass 1 over (1, 2, 3) leaves u_c parked at replica 1 — replica 3
        # only applies u_b (unblocking u_c) later in that same pass.  Only
        # the cross-replica fixpoint's second round applies u_c.
        u_a = Update(issuer=1, seq=1, register="x", value="a")  # x shared by 1, 2
        u_b = Update(issuer=2, seq=1, register="y", value="b")  # y shared by 2, 3
        u_c = Update(issuer=3, seq=1, register="z", value="c")  # z shared by 3, 1
        cluster.network.send(
            UpdateMessage(update=u_c, sender=3, destination=1,
                          metadata=u_b.uid, metadata_size=0),
            delay=1.0,
        )
        cluster.network.send(
            UpdateMessage(update=u_b, sender=2, destination=3,
                          metadata=u_a.uid, metadata_size=0),
            delay=2.0,
        )
        cluster.network.send(
            UpdateMessage(update=u_a, sender=1, destination=2,
                          metadata=None, metadata_size=0),
            delay=3.0,
        )
        cluster.run_until_quiescent()
        assert cluster.pending_updates() == 0
        assert cluster.replicas[2].has_applied(u_a.uid)
        assert cluster.replicas[3].has_applied(u_b.uid)
        assert cluster.replicas[1].has_applied(u_c.uid)
