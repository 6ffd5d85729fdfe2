"""Open-loop traffic: Poisson vs bursty arrivals on both architectures.

Drives the Figure 5 system with open-loop client traffic — arrivals at
simulated timestamps drawn from an arrival process, independent of the
system's progress — and prints the unified metrics pipeline: throughput
over time, apply-latency percentiles and per-replica queue depths.

Run with::

    PYTHONPATH=src python examples/open_loop_throughput.py
"""

from __future__ import annotations

from repro import Cluster, ShareGraph, figure5_placement
from repro.clientserver import ClientServerCluster
from repro.sim import (
    UniformDelay,
    bursty_workload,
    poisson_workload,
    render_latency_summary,
    run_open_loop,
)


def describe(title: str, result) -> None:
    print(f"--- {title} ---")
    print(result.summary())
    print(render_latency_summary("apply latency", result.apply_latency))
    print("throughput (applies per 20 time units):")
    for bucket_start, count in result.throughput:
        print(f"  t={bucket_start:6.1f}  {'#' * count}{'' if count else '.'} {count}")
    peak = max(result.max_pending.values(), default=0)
    print(f"peak pending-buffer depth across replicas: {peak}")
    print()


def main() -> None:
    graph = ShareGraph.from_placement(figure5_placement())
    print("Open-loop workloads on the Figure 5 share graph")
    print()

    poisson = poisson_workload(graph, rate=1.5, duration=120.0, seed=21)
    bursty = bursty_workload(
        graph,
        burst_rate=6.0,
        idle_rate=0.3,
        burst_length=20.0,
        idle_length=20.0,
        duration=120.0,
        seed=21,
    )

    all_consistent = True
    for workload in (poisson, bursty):
        cluster = Cluster(graph, delay_model=UniformDelay(1, 10), seed=21)
        result = run_open_loop(
            cluster, workload, queue_sample_interval=5.0, throughput_bucket=20.0
        )
        describe(f"peer-to-peer, {workload.name} arrivals", result)
        all_consistent &= result.consistent

    # The same bursty schedule through the client-server architecture.
    cs_cluster = ClientServerCluster.with_colocated_clients(
        graph, delay_model=UniformDelay(1, 10), seed=21
    )
    result = run_open_loop(
        cs_cluster, bursty, queue_sample_interval=5.0, throughput_bucket=20.0
    )
    describe("client-server, bursty arrivals", result)
    all_consistent &= result.consistent

    print("All three runs drained and passed the consistency checker."
          if all_consistent else "CONSISTENCY VIOLATION — see above")


if __name__ == "__main__":
    main()
