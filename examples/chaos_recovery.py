"""Chaos engineering on the simulator: crashes, partitions, lossy channels.

Demonstrates the fault-injection subsystem (``repro.sim.faults``) end to
end on the Figure 5 system:

1. a **crash/restart** — replica 3 goes down mid-run, loses every delivery
   addressed to it, then comes back with its durable state and catches up via
   the transport's anti-entropy resync;
2. a **partition/heal** — the replicas split into two islands; cross-island
   updates wait out the partition (staleness) and fly on heal;
3. a **lossy, duplicating network** — every channel drops and duplicates
   messages, and the transport's resend timers plus the
   replicas' duplicate suppression keep delivery exactly-once at the
   protocol layer.

Causal consistency (checked from the traces, independent of the protocol
metadata) holds through all of it.

Run with::

    PYTHONPATH=src python examples/chaos_recovery.py
"""

from __future__ import annotations

from repro import Cluster, ShareGraph, figure5_placement
from repro.sim import (
    DuplicatingDelay,
    FaultInjector,
    FaultSchedule,
    LossyDelay,
    ReliabilityConfig,
    UniformDelay,
    crash,
    heal,
    latency_spike,
    partition,
    poisson_workload,
    restart,
    run_open_loop,
)


def timeline(host) -> None:
    print("fault timeline:")
    for record in host.metrics.fault_timeline:
        print(f"  t={record.time:6.1f}  {record.kind:<9} {record.detail}")


def crash_and_recover(graph) -> bool:
    print("--- Crash and recovery (replica 3 down from t=30 to t=70) ---")
    cluster = Cluster(graph, delay_model=UniformDelay(1, 10), seed=42)
    injector = FaultInjector(cluster)
    injector.install(FaultSchedule("crash-3", (crash(30.0, 3), restart(70.0, 3))))

    workload = poisson_workload(graph, rate=1.5, duration=120.0, seed=42)
    result = run_open_loop(cluster, workload)
    timeline(cluster)

    metrics = cluster.metrics
    stats = cluster.network.stats
    availability = metrics.availability(result.makespan, graph.replica_ids)
    print(f"operations rejected while down: {metrics.rejected_operations}")
    print(f"deliveries lost to the crash:   {stats.messages_lost_to_crash}")
    print(f"updates re-sent by the resync:  {stats.retransmissions}")
    print(f"recovery latency (restart -> caught up): "
          f"{metrics.recovery_latencies[0]:.1f} time units")
    print("availability: " + ", ".join(
        f"r{rid}={availability[rid]:.2f}" for rid in sorted(availability)))
    print(f"consistency after recovery: "
          f"{'OK' if result.consistent else 'VIOLATED'}")
    print()
    return result.consistent


def partition_and_heal(graph) -> bool:
    print("--- Partition and heal ({1,2} | {3,4} from t=40 to t=90) ---")
    cluster = Cluster(graph, delay_model=UniformDelay(1, 10), seed=7)
    injector = FaultInjector(cluster)
    injector.install(FaultSchedule("split", (
        partition(40.0, {1, 2}, {3, 4}),
        heal(90.0),
        latency_spike(100.0, 15.0, 5.0),   # an aftershock: 5x latency
    )))

    workload = poisson_workload(graph, rate=1.5, duration=120.0, seed=7)
    result = run_open_loop(cluster, workload)
    timeline(cluster)

    print(f"peak staleness (apply latency max): {result.apply_latency.max:.1f} "
          f"(cross-island updates waited out the 50-unit partition)")
    print(f"apply latency p50/p99: {result.apply_latency.p50:.1f} / "
          f"{result.apply_latency.p99:.1f}")
    print(f"consistency through the partition: "
          f"{'OK' if result.consistent else 'VIOLATED'}")
    print()
    return result.consistent


def lossy_network(graph) -> bool:
    print("--- Lossy + duplicating channels (30% drop, 20% duplicate) ---")
    model = DuplicatingDelay(
        inner=LossyDelay(inner=UniformDelay(1, 10), drop_probability=0.3),
        duplicate_probability=0.2,
    )
    cluster = Cluster(graph, delay_model=model, seed=11)
    FaultInjector(
        cluster, reliability=ReliabilityConfig(resend_timeout=20.0, max_retries=6)
    )

    workload = poisson_workload(graph, rate=1.5, duration=120.0, seed=11)
    result = run_open_loop(cluster, workload)

    stats = cluster.network.stats
    suppressed = sum(r.duplicates_ignored for r in cluster.replicas.values())
    double_applied = sum(
        len(r.applied) - len({u.uid for u in r.applied})
        for r in cluster.replicas.values()
    )
    print(f"messages sent {stats.messages_sent}, dropped {stats.messages_dropped}, "
          f"duplicated {stats.messages_duplicated}, "
          f"retransmitted {stats.retransmissions}")
    print(f"duplicate deliveries suppressed at the protocol layer: {suppressed}")
    print(f"updates applied twice anywhere: {double_applied} (exactly-once holds)")
    print(f"consistency over the lossy network: "
          f"{'OK' if result.consistent else 'VIOLATED'}")
    print()
    return result.consistent and double_applied == 0


def main() -> None:
    graph = ShareGraph.from_placement(figure5_placement())
    print("Chaos recovery on the Figure 5 share graph")
    print()
    ok = crash_and_recover(graph)
    ok &= partition_and_heal(graph)
    ok &= lossy_network(graph)
    print("All three chaos scenarios passed the consistency checker."
          if ok else "CONSISTENCY VIOLATION — see above")


if __name__ == "__main__":
    main()
