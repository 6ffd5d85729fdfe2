"""The columnar replica trace reads exactly like the event list it replaced.

A replica records its issue/apply/read trace as three columns
(:class:`~repro.core.protocol.ReplicaTrace`).  Over random runs of
writes, reads and (reordered) deliveries on the triangle, every replica's
trace must equal the :class:`~repro.core.protocol.ReplicaEvent` list that
one constructor call per event builds — the reference kept here — and
must slice, extend, compare and pickle like it.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.protocol import EventKind, ReplicaEvent, ReplicaTrace
from repro.core.replica import EdgeIndexedReplica
from repro.core.share_graph import ShareGraph
from repro.sim.topologies import triangle_placement

GRAPH = ShareGraph.from_placement(triangle_placement())

STEPS = st.lists(
    st.tuples(
        st.sampled_from(["write", "read", "deliver"]),
        st.sampled_from(sorted(GRAPH.replica_ids)),
        st.integers(0, 1),
        st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
    ),
    max_size=60,
)


def run_with_reference(steps):
    """Drive the triangle's replicas through ``steps``; return them and,
    per replica, the event list built one ``ReplicaEvent`` per event."""
    replicas = {rid: EdgeIndexedReplica(GRAPH, rid) for rid in GRAPH.replica_ids}
    expected = {rid: [] for rid in replicas}
    in_flight = []
    for index, (op, rid, pick, time) in enumerate(steps):
        replica, events = replicas[rid], expected[rid]
        register = sorted(replica.registers)[pick]
        if op == "write":
            messages = replica.write(register, index, sim_time=time)
            update = messages[0].update
            events.append(ReplicaEvent(rid, EventKind.ISSUE, update, register,
                                       len(events), time))
            in_flight.extend(messages)
        elif op == "read":
            replica.read(register, sim_time=time)
            events.append(ReplicaEvent(rid, EventKind.READ, None, register,
                                       len(events), time))
        elif in_flight:
            # Oldest or newest copy in flight: out-of-order arrivals buffer.
            message = in_flight.pop(0 if pick == 0 else -1)
            receiver = replicas[message.destination]
            receiver.receive(message)
            applied_events = expected[message.destination]
            for update in receiver.apply_ready(sim_time=time):
                applied_events.append(ReplicaEvent(
                    message.destination, EventKind.APPLY, update,
                    update.register, len(applied_events), time))
    return replicas, expected


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(STEPS)
def test_the_trace_reads_as_the_event_list(steps):
    replicas, expected = run_with_reference(steps)
    for rid, replica in replicas.items():
        trace, events = replica.events, expected[rid]
        assert isinstance(trace, ReplicaTrace)
        assert list(trace) == events
        assert trace == events and events == trace and trace == list(trace)
        assert len(trace) == len(events)
        assert [trace[i] for i in range(-len(events), len(events))] == events + events
        assert replica.applied == [e.update for e in events if e.update is not None]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(STEPS)
def test_slices_extend_and_pickle_round_trip(steps):
    replicas, expected = run_with_reference(steps)
    for rid, replica in replicas.items():
        trace, events = replica.events, expected[rid]
        for cut in range(len(events) + 1):
            head, tail = trace[:cut], trace[cut:]
            assert isinstance(tail, ReplicaTrace)
            # A slice's positions count from 0 again.
            assert list(tail) == [
                dataclasses.replace(event, local_index=event.local_index - cut)
                for event in events[cut:]
            ]
            head.extend(tail)
            assert head == trace
        rebuilt = ReplicaTrace(rid)
        rebuilt.extend(events)
        assert rebuilt == trace
        assert pickle.loads(pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL)) == trace
        assert copy.deepcopy(trace) == trace


def test_a_trace_differs_from_unequal_sequences():
    replicas, expected = run_with_reference(
        [("write", 1, 0, 1.0), ("read", 1, 1, 2.0)])
    trace = replicas[1].events
    assert trace != expected[1][:1]
    assert trace != [expected[1][1], expected[1][0]]
    assert trace != "not a trace"
    moved = dataclasses.replace(expected[1][1], sim_time=3.0)
    assert trace != [expected[1][0], moved]
