"""The four workloads and the load shape every run of them shares.

Workload names are final: later issues cite them.  Each ``why`` is the
one-line reason ``BENCHMARK.json`` records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Tuple

from repro.core.registers import RegisterPlacement
from repro.core.share_graph import ShareGraph
from repro.sim.topologies import (
    pairwise_clique_placement,
    random_partial_placement,
    tree_placement,
)
from repro.sim.workloads import single_writer_workload

#: Node processes per live cluster.  Two nodes plus the generator already
#: oversubscribe the sandbox's two cores; more would measure the scheduler.
NODES = 2
#: Open-loop offered load of the ``paced`` phase, operations per second.
PACED_RATE = 2500.0
#: Closed-loop operations in flight per connection in the ``sat`` phase
#: (two connections: 64 in flight in all).
INFLIGHT_PER_CONNECTION = 32
#: Equal slices each phase is cut into; metrics are medians over them.
SEGMENTS = 10
#: Arrivals of the same schedule replayed on a fresh cluster under the
#: full (super-quadratic) consistency checker.
VERIFY_OPS = 2000


@dataclass(frozen=True)
class Plan:
    """Phase lengths, all derived from the ``--seconds`` budget.

    A measured pass spends half its budget paced and half saturated; each
    phase is preceded by a discarded warm-up a fifth of its length.
    """

    paced_s: float
    sat_s: float
    warmup_s: float

    @classmethod
    def for_budget(cls, seconds: float) -> "Plan":
        return cls(paced_s=seconds / 2, sat_s=seconds / 2, warmup_s=seconds / 10)

    @property
    def paced_ops(self) -> int:
        return int(round((self.warmup_s + self.paced_s) * PACED_RATE))


@dataclass(frozen=True)
class LiveWorkload:
    name: str
    why: str
    placement: Callable[[], RegisterPlacement]
    durable: bool
    write_fraction: float
    #: Operations per second of saturated phase the pool is sized for; a
    #: faster system wraps around its share of the pool.
    pool_rate: float

    def graph(self) -> ShareGraph:
        return ShareGraph.from_placement(self.placement())

    def pool(self, graph: ShareGraph, plan: Plan, seed: int) -> List[Any]:
        """The seeded operation schedule: paced ops first, then the sat pool."""
        sat = int(self.pool_rate * (plan.warmup_s + plan.sat_s))
        return arrivals(graph, max(plan.paced_ops + sat, VERIFY_OPS),
                        self.write_fraction, seed)


@dataclass(frozen=True)
class SimWorkload:
    name: str
    why: str
    placement: Callable[[], RegisterPlacement]
    write_fraction: float
    #: Workload operations per second of ``--seconds`` budget.  A count,
    #: not a duration, sizes the run: that is what lets its message and
    #: byte counts repeat exactly for one seed.
    ops_per_budget_second: int
    #: Simulated arrival rate (operations per simulated millisecond).
    sim_rate: float

    def graph(self) -> ShareGraph:
        return ShareGraph.from_placement(self.placement())


def arrivals(graph: ShareGraph, count: int, write_fraction: float,
             seed: int) -> List[Any]:
    """The first ``count`` operations of the seeded single-writer schedule.

    Only the operations are kept: the benchmark paces them itself (evenly,
    at a fixed rate, or closed-loop), so the generator's Poisson gaps
    would only add run-to-run variance to every latency.
    """
    # Unit rate: the duration is the expected count; 2% + 200 of slack
    # makes a short draw a >5-sigma event, and a short draw raises.
    workload = single_writer_workload(
        graph, rate=1.0, duration=count * 1.02 + 200,
        write_fraction=write_fraction, seed=seed,
    )
    if len(workload.arrivals) < count:
        raise RuntimeError(
            f"schedule generator produced {len(workload.arrivals)} < {count} arrivals"
        )
    return [arrival.operation for arrival in workload.arrivals[:count]]


def timed_arrivals(graph: ShareGraph, count: int, write_fraction: float,
                   seed: int, rate: float) -> Tuple[Any, ...]:
    """The first ``count`` *timed* arrivals (the simulator keeps the gaps)."""
    workload = single_writer_workload(
        graph, rate=rate, duration=(count * 1.02 + 200) / rate,
        write_fraction=write_fraction, seed=seed,
    )
    if len(workload.arrivals) < count:
        raise RuntimeError(
            f"schedule generator produced {len(workload.arrivals)} < {count} arrivals"
        )
    return workload.arrivals[:count]


CLIQUE8_MEM = LiveWorkload(
    name="clique8_mem",
    why="Dense share graph (56 counters per timestamp), diskless: core timestamp "
        "kernels and wire codecs do most of the per-message work; the WAL is bypassed.",
    placement=lambda: pairwise_clique_placement(8),
    durable=False, write_fraction=0.6, pool_rate=12000.0,
)
CLIQUE8_WAL = LiveWorkload(
    name="clique8_wal",
    why="clique8_mem's traffic with the write-ahead log on, then three SIGKILL-restart-"
        "drain cycles: the difference to clique8_mem is net.wal; checkpoint stalls show in the tail.",
    placement=lambda: pairwise_clique_placement(8),
    durable=True, write_fraction=0.6, pool_rate=6000.0,
)
TREE8_MEM = LiveWorkload(
    name="tree8_mem",
    why="Sparse share graph (2-6 counters), diskless: framing, batching window, event loop and "
        "syscalls dominate; a timestamp-kernel or codec change must show no change here.",
    placement=lambda: tree_placement(8),
    durable=False, write_fraction=0.6, pool_rate=36000.0,
)
SIM_RAND16_CHAOS = SimWorkload(
    name="sim_rand16_chaos",
    why="The simulator on a random 16-replica placement, read-mostly, lossy links, crashes and a "
        "partition: the same core and wire code under the other runtime; its counts repeat exactly.",
    placement=lambda: random_partial_placement(16, 32, 2, seed=7),
    write_fraction=0.3, ops_per_budget_second=18000, sim_rate=20.0,
)

LIVE = (CLIQUE8_MEM, CLIQUE8_WAL, TREE8_MEM)
WORKLOADS = {w.name: w for w in LIVE + (SIM_RAND16_CHAOS,)}
