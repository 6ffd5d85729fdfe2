"""What a simulated run keeps per operation, measured deterministically.

A long open-loop run records something for every operation: an arrival
on the kernel, an entry in each replica trace it touches, a sample in
each metric series.  These guards pin each of those at machine width —
``tracemalloc`` for the trace, exact container sizes for the series —
and pin the arrival feed to one scheduled arrival at a time, firing in
exactly the order that scheduling every arrival up front gives.
"""

from __future__ import annotations

import pickle
import sys
import tracemalloc
from array import array

from repro.core.replica import EdgeIndexedReplica
from repro.core.share_graph import ShareGraph
from repro.sim.cluster import Cluster
from repro.sim.delays import UniformDelay
from repro.sim.engine import ArrivalEvent
from repro.sim.topologies import figure5_placement, triangle_placement
from repro.sim.workloads import (
    OpenLoopWorkload,
    Operation,
    TimedOperation,
    poisson_workload,
    run_open_loop,
)

EVENTS = 10_000


def _allocated_by(action) -> int:
    """Bytes ``action()`` leaves allocated, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        action()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_a_recorded_event_costs_at_most_24_bytes():
    replica = EdgeIndexedReplica(ShareGraph.from_placement(triangle_placement()), 1)
    times = [float(index) for index in range(EVENTS)]  # held by the caller

    def record():
        for time in times:
            replica.read("x", sim_time=time)

    per_event = _allocated_by(record) / EVENTS
    assert len(replica.events) == EVENTS
    # A kind byte, an item pointer and a time double, with growth slack.
    assert per_event <= 24, per_event


def _series_bytes(series) -> int:
    """What a series keeps: its buffer, plus every sample it boxes (an
    ``array('d')`` boxes none)."""
    size = sys.getsizeof(series)
    if not isinstance(series, array):
        size += sum(sys.getsizeof(sample) for sample in series)
    return size


def test_the_run_metric_series_cost_8_bytes_a_sample():
    graph = ShareGraph.from_placement(figure5_placement())
    cluster = Cluster(graph, delay_model=UniformDelay(1.0, 10.0), seed=4)
    run_open_loop(cluster, poisson_workload(graph, rate=5.0, duration=400.0, seed=4),
                  check=False)
    metrics = cluster.metrics
    series = [metrics.apply_latencies, metrics.apply_times,
              metrics.operation_times, metrics.operation_latencies]
    samples = sum(len(one) for one in series)
    assert all(len(one) > 1000 for one in series)
    held = sum(_series_bytes(one) for one in series)
    # 8 bytes a sample, plus what an array reserves as it grows (at most
    # 1/16 of its length) and its header.
    assert held <= 8 * samples * 17 / 16 + len(series) * sys.getsizeof(array("d")), (
        held / samples)


def test_operations_are_slotted_and_pickle():
    operation = Operation("write", 2, "x", "v")
    arrival = TimedOperation(1.5, operation)
    for value in (operation, arrival):
        assert not hasattr(value, "__dict__")
        assert pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)) == value


def test_an_open_loop_run_keeps_one_arrival_on_the_kernel():
    graph = ShareGraph.from_placement(figure5_placement())
    cluster = Cluster(graph, delay_model=UniformDelay(1.0, 10.0), seed=2)
    workload = poisson_workload(graph, rate=2.0, duration=200.0, seed=2)
    scheduled = []

    def sample(host, _time):
        scheduled.append(host.kernel.pending_of(ArrivalEvent))
        if host.busy():
            host.schedule_timer(0.5, sample)

    cluster.schedule_timer(0.0, sample)
    result = run_open_loop(cluster, workload)
    assert result.consistent
    assert len(scheduled) > 100 and max(scheduled) == 1


def test_the_feed_fires_arrivals_in_the_up_front_order():
    """Arrivals out of time order and sharing times (ties keep workload
    order): the fed run and a run with every arrival scheduled up front
    produce identical traces and metrics."""
    graph = ShareGraph.from_placement(figure5_placement())
    drawn = poisson_workload(graph, rate=3.0, duration=150.0, seed=9).arrivals
    arrivals = tuple(TimedOperation(float(int(a.time) // 3), a.operation)
                     for a in reversed(drawn))
    assert len({a.time for a in arrivals}) < len(arrivals)

    def cluster():
        return Cluster(graph, delay_model=UniformDelay(1.0, 10.0), seed=6)

    fed = cluster()
    run_open_loop(fed, OpenLoopWorkload("ties", arrivals), check=False)
    up_front = cluster()
    for arrival in arrivals:
        up_front.schedule_arrival_at(arrival.time, arrival.operation)
    up_front.run_until_quiescent()

    assert fed.events_by_replica() == up_front.events_by_replica()
    assert fed.metrics.operation_times == up_front.metrics.operation_times
    assert fed.metrics.apply_latencies == up_front.metrics.apply_latencies
    assert fed.network.stats.messages_sent == up_front.network.stats.messages_sent
