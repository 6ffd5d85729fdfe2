"""Unit tests for repro.core.protocol and repro.core.replica."""

from __future__ import annotations

from collections import deque

import pytest

from repro.analysis.experiments import protocol_suite
from repro.clientserver import ClientServerCluster
from repro.core.errors import ProtocolError, RegisterNotStoredError
from repro.core.protocol import EventKind, ReplicaTrace, Update, UpdateMessage
from repro.core.replica import EdgeIndexedReplica
from repro.core.share_graph import ShareGraph
from repro.sim.cluster import Cluster
from repro.sim.delays import UniformDelay
from repro.sim.topologies import figure5_placement, triangle_placement
from repro.sim.workloads import Workload, run_workload, uniform_workload


@pytest.fixture
def tri_graph():
    return ShareGraph.from_placement(triangle_placement())


def make_replicas(graph):
    return {rid: EdgeIndexedReplica(graph, rid) for rid in graph.replica_ids}


class TestUpdateAndMessage:
    def test_update_uid(self):
        u = Update(issuer=3, seq=7, register="x", value=1)
        assert u.uid == (3, 7)
        assert "x" in str(u)

    def test_update_message_str(self):
        u = Update(1, 1, "x", "v")
        msg = UpdateMessage(u, sender=1, destination=2, metadata=None, metadata_size=4)
        assert "1->2" in str(msg)
        meta_only = UpdateMessage(u, 1, 2, None, 4, payload=False)
        assert str(meta_only).startswith("meta")


class TestLocalOperations:
    def test_read_initially_none(self, tri_graph):
        replica = EdgeIndexedReplica(tri_graph, 1)
        assert replica.read("x") is None

    def test_read_unknown_register_raises(self, tri_graph):
        replica = EdgeIndexedReplica(tri_graph, 1)
        with pytest.raises(RegisterNotStoredError):
            replica.read("y")  # y is not stored at replica 1

    def test_write_unknown_register_raises(self, tri_graph):
        replica = EdgeIndexedReplica(tri_graph, 1)
        with pytest.raises(RegisterNotStoredError):
            replica.write("y", 1)

    def test_write_updates_store_and_returns_messages(self, tri_graph):
        replica = EdgeIndexedReplica(tri_graph, 1)
        messages = replica.write("x", 42)
        assert replica.read("x") == 42
        # x is shared with replica 2 only.
        assert [m.destination for m in messages] == [2]
        assert messages[0].sender == 1
        assert messages[0].update.register == "x"
        assert messages[0].payload

    def test_write_records_issue_event(self, tri_graph):
        replica = EdgeIndexedReplica(tri_graph, 1)
        replica.write("x", 1)
        kinds = [e.kind for e in replica.events]
        assert kinds == [EventKind.ISSUE]
        assert replica.events[0].local_index == 0

    def test_sequence_numbers_increase(self, tri_graph):
        replica = EdgeIndexedReplica(tri_graph, 1)
        u1 = replica.write("x", 1)[0].update
        u2 = replica.write("z", 2)[0].update
        assert u1.seq == 1 and u2.seq == 2

    def test_advance_increments_only_sharers(self, tri_graph):
        replica = EdgeIndexedReplica(tri_graph, 1)
        replica.write("x", 1)  # shared with 2
        assert replica.timestamp[(1, 2)] == 1
        assert replica.timestamp[(1, 3)] == 0
        replica.write("z", 1)  # shared with 3
        assert replica.timestamp[(1, 3)] == 1


class TestRemoteApplication:
    def test_fifo_updates_apply_in_order(self, tri_graph):
        replicas = make_replicas(tri_graph)
        m1 = replicas[1].write("x", "first")[0]
        m2 = replicas[1].write("x", "second")[0]
        # Deliver out of order: the second write arrives first.
        replicas[2].receive(m2)
        assert replicas[2].apply_ready() == []
        assert replicas[2].pending_count() == 1
        replicas[2].receive(m1)
        applied = replicas[2].apply_ready()
        assert [u.value for u in applied] == ["first", "second"]
        assert replicas[2].read("x") == "second"

    def test_causal_chain_across_three_replicas(self, tri_graph):
        replicas = make_replicas(tri_graph)
        # 1 writes z (shared with 3), then x (shared with 2).
        mz = replicas[1].write("z", "z1")[0]
        mx = replicas[1].write("x", "x1")[0]
        replicas[2].receive(mx)
        replicas[2].apply_ready()
        # 2 writes y (shared with 3); causally after both of 1's writes.
        my = replicas[2].write("y", "y1")[0]
        # Replica 3 receives y before z: it must wait.
        replicas[3].receive(my)
        assert replicas[3].apply_ready() == []
        replicas[3].receive(mz)
        applied = replicas[3].apply_ready()
        assert [u.register for u in applied] == ["z", "y"]

    def test_has_applied_tracking(self, tri_graph):
        replicas = make_replicas(tri_graph)
        msg = replicas[1].write("x", 1)[0]
        assert replicas[1].has_applied(msg.update.uid)
        assert not replicas[2].has_applied(msg.update.uid)
        replicas[2].receive(msg)
        replicas[2].apply_ready()
        assert replicas[2].has_applied(msg.update.uid)

    def test_apply_records_event_with_register(self, tri_graph):
        replicas = make_replicas(tri_graph)
        msg = replicas[1].write("x", 1)[0]
        replicas[2].receive(msg)
        replicas[2].apply_ready()
        apply_events = [e for e in replicas[2].events if e.kind is EventKind.APPLY]
        assert len(apply_events) == 1
        assert apply_events[0].register == "x"

    def test_metadata_size_constant_for_edge_indexed(self, tri_graph):
        replica = EdgeIndexedReplica(tri_graph, 1)
        before = replica.metadata_size()
        replica.write("x", 1)
        assert replica.metadata_size() == before == 6

    def test_concurrent_updates_from_different_senders_apply(self, tri_graph):
        replicas = make_replicas(tri_graph)
        m_from_1 = replicas[1].write("z", "a")[0]   # 1 -> 3
        m_from_2 = replicas[2].write("y", "b")[0]   # 2 -> 3
        replicas[3].receive(m_from_2)
        replicas[3].receive(m_from_1)
        applied = replicas[3].apply_ready()
        assert len(applied) == 2
        assert replicas[3].read("z") == "a" and replicas[3].read("y") == "b"

    def test_figure5_loop_dependency_respected(self):
        graph = ShareGraph.from_placement(figure5_placement())
        replicas = make_replicas(graph)
        # u0: 4 writes z (to 3); u1: 4 writes w (to 1).
        u0_msgs = {m.destination: m for m in replicas[4].write("z", "z0")}
        u1_msgs = {m.destination: m for m in replicas[4].write("w", "w1")}
        replicas[1].receive(u1_msgs[1])
        replicas[1].apply_ready()
        # u'0: 1 writes y (to 2 and 4).
        y_msgs = {m.destination: m for m in replicas[1].write("y", "y1")}
        replicas[2].receive(y_msgs[2])
        replicas[2].apply_ready()
        # u'1: 2 writes x (to 3).
        x_msgs = {m.destination: m for m in replicas[2].write("x", "x1")}
        # Replica 3 must not apply x before z (z happened-before x via the chain).
        replicas[3].receive(x_msgs[3])
        assert replicas[3].apply_ready() == []
        replicas[3].receive(u0_msgs[3])
        applied = replicas[3].apply_ready()
        assert [u.register for u in applied] == ["z", "x"]


class TestForceApply:
    """The reconfiguration flush's override for a message the predicate can
    no longer certify: one record leaves the pending map and the index."""

    def _blocked_copy(self, tri_graph):
        replicas = make_replicas(tri_graph)
        replicas[1].write("x", "first")  # never delivered: a FIFO gap
        second = replicas[1].write("x", "second")[0]
        receiver = replicas[2]
        receiver.receive(second)
        assert receiver.apply_ready() == []
        assert list(receiver.pending) == [second.update.uid]
        return receiver, second

    @staticmethod
    def _applies(replica):
        return [e.update.uid for e in replica.events if e.kind is EventKind.APPLY]

    def test_blocked_message_leaves_map_and_index_and_applies_once(self, tri_graph):
        receiver, second = self._blocked_copy(tri_graph)
        receiver.force_apply(second)
        assert receiver.pending == {}
        assert not receiver._recheck and not receiver._blocked
        assert receiver.read("x") == "second"
        receiver.receive(second)  # a late copy is covered, not re-buffered
        assert receiver.apply_ready(force=True) == []
        assert self._applies(receiver) == [second.update.uid]

    def test_force_apply_of_an_applied_uid_is_a_no_op(self, tri_graph):
        receiver, second = self._blocked_copy(tri_graph)
        receiver.force_apply(second)
        events = list(receiver.events)
        receiver.force_apply(second)
        assert receiver.events == events
        assert self._applies(receiver) == [second.update.uid]

    def test_force_apply_of_a_never_buffered_uid_raises(self, tri_graph):
        replicas = make_replicas(tri_graph)
        message = replicas[1].write("x", "unsent")[0]
        with pytest.raises(ProtocolError):
            replicas[2].force_apply(message)
        assert replicas[2].pending == {} and self._applies(replicas[2]) == []


class TestOneGrowingStructure:
    """The event trace is a replica's only per-update record: after a run
    twice as long — the same operations, twice over — every other
    container on the replica is as large."""

    @staticmethod
    def _container_sizes(family, repeats):
        graph = ShareGraph.from_placement(figure5_placement())
        if family == "client-server":
            host = ClientServerCluster.with_colocated_clients(
                graph, delay_model=UniformDelay(1, 10), seed=5)
        else:
            host = Cluster(graph, replica_factory=protocol_suite()[family],
                           delay_model=UniformDelay(1, 10), seed=5)
        workload = uniform_workload(graph, 80, seed=5)
        run_workload(host, Workload(workload.name, workload.operations * repeats))
        host.run_until_quiescent()
        return {
            (rid, name): len(value)
            for rid, replica in host._replica_map().items()
            for name, value in vars(replica).items()
            if isinstance(value, (list, tuple, dict, set, frozenset, deque, ReplicaTrace))
        }

    @pytest.mark.parametrize("family", sorted(protocol_suite()) + ["client-server"])
    def test_only_events_grow_with_history(self, family):
        short = self._container_sizes(family, 1)
        long = self._container_sizes(family, 2)
        assert set(short) == set(long)
        grew = sorted({name for key, name in short if short[key, name] != long[key, name]})
        assert grew == ["events"]
