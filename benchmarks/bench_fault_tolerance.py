"""E15 — Fault tolerance: crashes, recovery, partitions, lossy channels.

Drives the fault-injection subsystem (``repro.sim.faults``) through the
crash-rate × partition-duration sweep on both architectures, and gates the
fault-free fast path: with the fault hooks compiled into the kernel but no
injector attached, an open-loop run must not be measurably slower than the
same run was without the subsystem (the hooks are a single
``fault_injector is None`` check per event).
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.analysis import exp_fault_tolerance, render_fault_tolerance
from repro.core.share_graph import ShareGraph
from repro.sim.cluster import Cluster
from repro.sim.delays import UniformDelay
from repro.sim.faults import FaultInjector
from repro.sim.topologies import figure5_placement
from repro.sim.workloads import poisson_workload, run_open_loop


def test_e15_fault_tolerance_sweep(benchmark):
    """Crash rate × partition duration → availability / recovery / staleness.

    Expected shape: availability and rejected operations degrade with the
    crash count, staleness (apply-latency tail) grows with the partition
    duration, recovery latency stretches when the partition overlaps the
    catch-up — and every cell stays causally consistent.
    """
    rows = run_once(benchmark, exp_fault_tolerance)
    print()
    print("[E15] Fault-tolerance sweep (Figure 5 graph, both architectures)")
    print(render_fault_tolerance(rows))
    assert all(row.consistent for row in rows)
    assert {row.architecture for row in rows} == {"peer-to-peer", "client-server"}
    fault_free = [r for r in rows if r.crashes == 0 and r.partition_duration == 0]
    faulty = [r for r in rows if r.crashes > 0]
    assert all(r.availability_min == 1.0 and r.rejected_operations == 0
               for r in fault_free)
    assert all(r.availability_min < 1.0 for r in faulty)
    assert all(r.recovery_max > 0 for r in faulty)
    # Staleness grows with the partition window (compare within architecture).
    for architecture in ("peer-to-peer", "client-server"):
        cells = {
            (r.crashes, r.partition_duration): r
            for r in rows
            if r.architecture == architecture
        }
        assert cells[(0, 30.0)].staleness_max > cells[(0, 0.0)].staleness_max


def _timed_open_loop(with_injector: bool, repetitions: int = 3) -> float:
    """Best-of-N wall time for one open-loop run, with/without fault hooks."""
    graph = ShareGraph.from_placement(figure5_placement())
    workload = poisson_workload(graph, rate=2.0, duration=200.0, seed=21)
    best = None
    for _ in range(repetitions):
        cluster = Cluster(graph, delay_model=UniformDelay(1, 10), seed=21)
        if with_injector:
            # Attached but idle: no faults scheduled — the worst
            # fault-free configuration a user can run.
            FaultInjector(cluster)
        started = time.perf_counter()
        result = run_open_loop(cluster, workload, check=False)
        elapsed = time.perf_counter() - started
        assert result.messages_sent > 0
        best = elapsed if best is None else min(best, elapsed)
    return best


def test_e15_fault_free_hot_path_unregressed(benchmark):
    """Acceptance gate: the fault hooks must not slow the fault-free path.

    Compares the same open-loop run with no injector against one with an
    idle injector attached.  The no-injector path exercises exactly the
    hooks added to the kernel (``fault_injector is None`` checks), so a
    large ratio here would mean the subsystem leaked cost into every
    simulation.  Generous floor: wall-clock ratios on ~100 ms runs are
    noisy on shared runners.
    """
    def compare():
        plain = _timed_open_loop(with_injector=False)
        idle_injector = _timed_open_loop(with_injector=True)
        return {"plain_s": plain, "idle_s": idle_injector,
                "ratio": idle_injector / plain}

    result = benchmark.pedantic(compare, rounds=1, iterations=1)
    print()
    print(
        f"[E15] fault-free open loop: plain {result['plain_s'] * 1000:.1f} ms, "
        f"idle injector {result['idle_s'] * 1000:.1f} ms, "
        f"ratio {result['ratio']:.2f}x"
    )
    assert result["ratio"] < 2.0, (
        f"idle fault hooks must not slow the fault-free path, got "
        f"{result['ratio']:.2f}x"
    )
