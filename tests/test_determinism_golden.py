"""A pinned fixed-seed chaos run: the simulator's delivery path, bit for bit.

One sub-second run crosses every fate a delivery can meet — lossy links
behind the transport's resend timers, batching windows, a crash with restart
resync, a partition with heal — timed so that standalone re-sends and
stream batches are parked behind the same partition and lost at the same
crashed replica.  The pinned numbers are what the commit *before* the
single-delivery-path refactor produced; any change to the order in which
the transport draws from its RNG, releases parked traffic or books a
delivery moves at least one of them.
"""

from __future__ import annotations

import hashlib

from repro.core.share_graph import ShareGraph
from repro.sim.cluster import Cluster
from repro.sim.delays import LossyDelay, UniformDelay
from repro.sim.engine import BatchingConfig, ReliabilityConfig
from repro.sim.faults import (
    FaultInjector,
    FaultSchedule,
    crash,
    heal,
    partition,
    restart,
)
from repro.sim.topologies import figure5_placement
from repro.sim.workloads import poisson_workload, run_open_loop

GOLDEN = {
    "messages_sent": 254,
    "messages_delivered": 288,
    "retransmissions": 56,
    "messages_lost_to_crash": 16,
    "batches_sent": 199,
    "timestamp_bytes_sent": 5161,
    "last_activity_time": 233.29521980405045,
    "applied_order_sha256":
        "14484bfc037eddfcfa8b00514eed1b132929c05d629433e8b861e4847ad6df62",
}


def _applied_order_digest(cluster: Cluster) -> str:
    order = [
        (rid, [update.uid for update in cluster.replica(rid).applied])
        for rid in sorted(cluster.replicas)
    ]
    return hashlib.sha256(repr(order).encode()).hexdigest()


def run_chaos() -> Cluster:
    graph = ShareGraph.from_placement(figure5_placement())
    cluster = Cluster(
        graph,
        delay_model=LossyDelay(inner=UniformDelay(1.0, 10.0), drop_probability=0.1),
        seed=7,
        batching=BatchingConfig(max_messages=4, max_delay=2.0),
    )
    injector = FaultInjector(
        cluster, reliability=ReliabilityConfig(resend_timeout=15.0, max_retries=6)
    )
    injector.install(FaultSchedule("golden", (
        crash(40.0, 2),
        restart(70.0, 2),
        partition(100.0, {1, 2}, {3, 4}),
        heal(130.0),
        # Shorter than a link delay: batches in flight at the crash arrive
        # after the restart, on a stream the crash has severed.
        crash(150.0, 3),
        restart(151.0, 3),
    )))
    workload = poisson_workload(graph, rate=2.0, duration=200.0, seed=7)
    result = run_open_loop(cluster, workload)
    assert result.consistent
    return cluster


def test_fixed_seed_chaos_run_matches_the_pinned_numbers():
    cluster = run_chaos()
    stats = cluster.network.stats
    observed = {name: getattr(stats, name) for name in GOLDEN
                if name not in ("last_activity_time", "applied_order_sha256")}
    observed["last_activity_time"] = cluster.last_activity_time
    observed["applied_order_sha256"] = _applied_order_digest(cluster)
    assert observed == GOLDEN
    # The run is only a guard if it really met every fate.
    assert stats.messages_lost_to_crash and stats.batches_dropped
    assert stats.retransmissions and stats.messages_dropped
