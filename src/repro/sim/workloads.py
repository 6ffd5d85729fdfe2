"""Workload generation and execution: closed-loop replay and open-loop arrivals.

A *workload* is a finite sequence of client operations (writes and reads)
addressed to specific replicas.  Workloads are plain data, so the same
workload can be replayed against different protocols (the paper's algorithm
and every baseline) **and against either architecture** (the peer-to-peer
:class:`~repro.sim.cluster.Cluster` or the client–server
:class:`~repro.clientserver.cluster.ClientServerCluster` with co-located
clients) under the same network seed — the comparison mode used by the
metadata-overhead and optimization experiments.

Closed-loop generators (the caller decides when each operation happens):

* :func:`uniform_workload` — every replica writes its own registers at random;
* :func:`hotspot_workload` — a skewed register popularity distribution;
* :func:`causal_chain_workload` — deliberate cross-replica dependency chains
  (write at one replica, read/acknowledge at a sharer, write there, …), the
  access pattern that exercises causality tracking hardest;
* :func:`read_heavy_workload` — mostly reads with occasional writes.

Open-loop generators (operations arrive at simulated timestamps drawn from
an arrival process, independent of the system's progress — the load model of
production client traffic):

* :func:`poisson_workload` — memoryless arrivals at a fixed mean rate;
* :func:`bursty_workload` — alternating high-rate bursts and quiet gaps.

Run closed-loop workloads with :func:`run_workload` and open-loop workloads
with :func:`run_open_loop`; both drive any
:class:`~repro.sim.engine.SimulationHost` and report through the unified
metrics pipeline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError
from ..core.registers import Register, ReplicaId
from ..core.share_graph import ShareGraph
from ..core.host import LatencySummary, QueueDepthStats, throughput_timeline
from .engine import SimulationHost


@dataclass(frozen=True, slots=True)
class Operation:
    """One client operation addressed to a replica.

    Slotted: an open-loop run holds one per arrival.

    Attributes
    ----------
    kind:
        ``"write"`` or ``"read"``.
    replica_id:
        The replica whose co-located client issues the operation.
    register:
        The target register (always stored at the replica).
    value:
        The value written (``None`` for reads).
    """

    kind: str
    replica_id: ReplicaId
    register: Register
    value: Any = None

    def __reduce__(self) -> Tuple[Any, tuple]:
        # One constructor call, like Update's: a frozen slotted dataclass
        # does not unpickle through the default path on Python 3.10.
        return (type(self), (self.kind, self.replica_id, self.register, self.value))


@dataclass(frozen=True)
class Workload:
    """A named, replayable sequence of operations."""

    name: str
    operations: Tuple[Operation, ...]

    def __len__(self) -> int:
        return len(self.operations)

    @property
    def write_count(self) -> int:
        """Number of write operations."""
        return sum(1 for op in self.operations if op.kind == "write")

    @property
    def read_count(self) -> int:
        """Number of read operations."""
        return sum(1 for op in self.operations if op.kind == "read")


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------

def _writable_registers(graph: ShareGraph, replica_id: ReplicaId) -> List[Register]:
    return sorted(graph.registers_at(replica_id))


def uniform_workload(
    graph: ShareGraph,
    num_operations: int,
    write_fraction: float = 0.7,
    seed: int = 0,
) -> Workload:
    """Operations spread uniformly over replicas and their local registers."""
    if not 0.0 <= write_fraction <= 1.0:
        raise ConfigurationError("write_fraction must be in [0, 1]")
    rng = random.Random(seed)
    replica_ids = list(graph.replica_ids)
    operations: List[Operation] = []
    for index in range(num_operations):
        replica_id = rng.choice(replica_ids)
        registers = _writable_registers(graph, replica_id)
        register = rng.choice(registers)
        if rng.random() < write_fraction:
            operations.append(
                Operation("write", replica_id, register, value=f"v{index}")
            )
        else:
            operations.append(Operation("read", replica_id, register))
    return Workload("uniform", tuple(operations))


def hotspot_workload(
    graph: ShareGraph,
    num_operations: int,
    hot_fraction: float = 0.8,
    write_fraction: float = 0.7,
    seed: int = 0,
) -> Workload:
    """A skewed workload: ``hot_fraction`` of operations hit one popular register per replica."""
    rng = random.Random(seed)
    replica_ids = list(graph.replica_ids)
    hot_register = {
        rid: sorted(graph.registers_at(rid))[0] for rid in replica_ids
    }
    operations: List[Operation] = []
    for index in range(num_operations):
        replica_id = rng.choice(replica_ids)
        registers = _writable_registers(graph, replica_id)
        if rng.random() < hot_fraction:
            register = hot_register[replica_id]
        else:
            register = rng.choice(registers)
        if rng.random() < write_fraction:
            operations.append(
                Operation("write", replica_id, register, value=f"h{index}")
            )
        else:
            operations.append(Operation("read", replica_id, register))
    return Workload("hotspot", tuple(operations))


def causal_chain_workload(
    graph: ShareGraph,
    num_chains: int,
    chain_length: int = 4,
    seed: int = 0,
) -> Workload:
    """Chains of writes that hop across share-graph neighbours.

    Each chain starts at a random replica and repeatedly: writes a register
    shared with a random neighbour, then continues from that neighbour.  The
    resulting updates form long ``↪`` chains spanning many replicas — the
    pattern that makes causality tracking under partial replication hard.
    """
    rng = random.Random(seed)
    replica_ids = list(graph.replica_ids)
    operations: List[Operation] = []
    value = 0
    for _ in range(num_chains):
        current = rng.choice(replica_ids)
        for _ in range(chain_length):
            neighbours = list(graph.neighbors(current))
            if not neighbours:
                break
            nxt = rng.choice(neighbours)
            shared = sorted(graph.shared_registers(current, nxt))
            register = rng.choice(shared)
            operations.append(Operation("write", current, register, value=f"c{value}"))
            value += 1
            operations.append(Operation("read", nxt, register))
            current = nxt
    return Workload("causal_chain", tuple(operations))


def read_heavy_workload(
    graph: ShareGraph,
    num_operations: int,
    seed: int = 0,
) -> Workload:
    """A 90%-read workload (the common case for geo-replicated stores)."""
    return uniform_workload(graph, num_operations, write_fraction=0.1, seed=seed)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

@dataclass
class WorkloadResult:
    """Everything measured while replaying a workload on a cluster."""

    workload: Workload
    steps: int
    consistent: bool
    safety_violations: int
    liveness_violations: int
    messages_sent: int
    metadata_counters_sent: int
    mean_apply_latency: float
    metadata_sizes: Dict[ReplicaId, int]

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "OK" if self.consistent else "VIOLATED"
        return (
            f"{self.workload.name}: {len(self.workload)} ops, {self.steps} deliveries, "
            f"{self.messages_sent} msgs, {self.metadata_counters_sent} counters shipped, "
            f"consistency {status}"
        )


def run_workload(
    cluster: SimulationHost,
    workload: Workload,
    interleave_steps: int = 1,
    check: bool = True,
) -> WorkloadResult:
    """Replay a workload on a cluster and validate the execution.

    ``cluster`` is any :class:`~repro.sim.engine.SimulationHost` — the
    peer-to-peer cluster, or a client–server cluster with co-located
    clients; operations route through
    :meth:`~repro.sim.engine.SimulationHost.submit_operation`.

    Parameters
    ----------
    interleave_steps:
        After each operation, up to this many network deliveries are
        performed, interleaving propagation with new operations (0 delays all
        propagation until the end — the most adversarial buffering pattern).
    check:
        When ``True`` the consistency checker runs at the end and its verdict
        is included in the result.
    """
    steps = 0
    for operation in workload.operations:
        cluster.submit_operation(operation)
        for _ in range(interleave_steps):
            if cluster.step():
                steps += 1
    steps += cluster.run_until_quiescent()

    if check:
        report = cluster.check_consistency()
        consistent = report.is_causally_consistent
        safety = len(report.safety_violations)
        liveness = len(report.liveness_violations)
    else:
        consistent, safety, liveness = True, 0, 0

    return WorkloadResult(
        workload=workload,
        steps=steps,
        consistent=consistent,
        safety_violations=safety,
        liveness_violations=liveness,
        messages_sent=cluster.network.stats.messages_sent,
        metadata_counters_sent=cluster.network.stats.metadata_counters_sent,
        mean_apply_latency=cluster.metrics.mean_apply_latency,
        metadata_sizes=cluster.metadata_sizes(),
    )


# ----------------------------------------------------------------------
# Open-loop workloads (Poisson / bursty client arrivals)
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TimedOperation:
    """One operation arriving at a fixed simulated time."""

    time: float
    operation: Operation

    def __reduce__(self) -> Tuple[Any, tuple]:
        return (type(self), (self.time, self.operation))


@dataclass(frozen=True)
class OpenLoopWorkload:
    """A named sequence of timed client arrivals.

    Unlike the closed-loop :class:`Workload` — where the driver submits the
    next operation only after deciding how far to advance the network — an
    open-loop workload fixes every arrival time up front, independent of the
    system's progress.  Queues can therefore actually build up, which is
    what makes open-loop runs the right model for measuring throughput and
    latency under production-style client traffic.
    """

    name: str
    arrivals: Tuple[TimedOperation, ...]

    def __len__(self) -> int:
        return len(self.arrivals)

    @property
    def duration(self) -> float:
        """The last scheduled arrival time (0.0 when empty)."""
        return self.arrivals[-1].time if self.arrivals else 0.0

    @property
    def write_count(self) -> int:
        """Number of write arrivals."""
        return sum(1 for a in self.arrivals if a.operation.kind == "write")

    @property
    def read_count(self) -> int:
        """Number of read arrivals."""
        return sum(1 for a in self.arrivals if a.operation.kind == "read")


def _random_operation(
    graph: ShareGraph,
    rng: random.Random,
    replica_ids: Sequence[ReplicaId],
    write_fraction: float,
    index: int,
    prefix: str,
) -> Operation:
    replica_id = rng.choice(replica_ids)
    register = rng.choice(_writable_registers(graph, replica_id))
    if rng.random() < write_fraction:
        return Operation("write", replica_id, register, value=f"{prefix}{index}")
    return Operation("read", replica_id, register)


def poisson_workload(
    graph: ShareGraph,
    rate: float,
    duration: float,
    write_fraction: float = 0.7,
    seed: int = 0,
) -> OpenLoopWorkload:
    """Memoryless open-loop arrivals at ``rate`` operations per time unit.

    Inter-arrival gaps are exponential with mean ``1/rate``; targets and
    kinds are drawn like :func:`uniform_workload`.
    """
    if rate <= 0:
        raise ConfigurationError("rate must be positive")
    if duration <= 0:
        raise ConfigurationError("duration must be positive")
    if not 0.0 <= write_fraction <= 1.0:
        raise ConfigurationError("write_fraction must be in [0, 1]")
    rng = random.Random(seed)
    replica_ids = list(graph.replica_ids)
    arrivals: List[TimedOperation] = []
    t = rng.expovariate(rate)
    index = 0
    while t <= duration:
        operation = _random_operation(graph, rng, replica_ids, write_fraction, index, "p")
        arrivals.append(TimedOperation(time=t, operation=operation))
        t += rng.expovariate(rate)
        index += 1
    return OpenLoopWorkload("poisson", tuple(arrivals))


def poisson_workload_dynamic(
    placements: Sequence[Tuple[float, "Any"]],
    rate: float,
    duration: float,
    write_fraction: float = 0.7,
    seed: int = 0,
) -> OpenLoopWorkload:
    """Memoryless open-loop arrivals that target a *changing* replica set.

    ``placements`` is the configuration timeline
    ``[(effective time, RegisterPlacement), …]`` (normally produced by
    :meth:`repro.sim.reconfig.ReconfigSchedule.placements_over`): each
    arrival at time ``t`` picks its target replica and register from the
    placement in effect at ``t``, so joiners start receiving traffic once
    they are scheduled to be members and leavers stop.  Arrivals landing in
    a migration window — or before a deferred commit actually installs the
    configuration — are rejected by the host and counted, which is exactly
    the availability cost the reconfiguration experiments measure.
    """
    if rate <= 0:
        raise ConfigurationError("rate must be positive")
    if duration <= 0:
        raise ConfigurationError("duration must be positive")
    if not 0.0 <= write_fraction <= 1.0:
        raise ConfigurationError("write_fraction must be in [0, 1]")
    if not placements:
        raise ConfigurationError("placements timeline must be non-empty")
    timeline = sorted(placements, key=lambda entry: entry[0])
    rng = random.Random(seed)
    arrivals: List[TimedOperation] = []
    t = rng.expovariate(rate)
    index = 0
    while t <= duration:
        placement = timeline[0][1]
        for start, candidate in timeline:
            if start <= t:
                placement = candidate
            else:
                break
        # Draw a replica that stores at least one register (a joiner with a
        # fresh empty register set cannot serve operations yet).
        replica_ids = [
            rid for rid in placement.replica_ids if placement.registers_at(rid)
        ]
        replica_id = rng.choice(replica_ids)
        register = rng.choice(sorted(placement.registers_at(replica_id)))
        if rng.random() < write_fraction:
            operation = Operation("write", replica_id, register, value=f"d{index}")
        else:
            operation = Operation("read", replica_id, register)
        arrivals.append(TimedOperation(time=t, operation=operation))
        t += rng.expovariate(rate)
        index += 1
    return OpenLoopWorkload("poisson-dynamic", tuple(arrivals))


def drifting_hotspot_workload(
    home: Mapping[ReplicaId, Register],
    groups: Sequence[Sequence[ReplicaId]],
    rate: float,
    duration: float,
    write_fraction: float = 0.8,
    rotations: int = 4,
    seed: int = 0,
) -> OpenLoopWorkload:
    """Poisson arrivals whose *writer set* rotates between replica groups.

    The load model behind experiment E22: clients issue writes at a
    rotating hot group of replicas (one group per ``duration /
    rotations`` phase, cycling through ``groups`` — normally the replicas
    of each topology region), and every write targets the writing
    replica's fixed *home* register.  Reads are uniform over all
    replicas, each reading its own home register.

    Homes never move with the hotspot, so the workload stays valid under
    an adaptive controller that relocates only non-home copies: what
    drifts is *which* registers are hot and therefore where their update
    traffic flows — exactly the shift a static placement cannot follow
    and an online reconfiguration loop can.
    """
    if rate <= 0:
        raise ConfigurationError("rate must be positive")
    if duration <= 0:
        raise ConfigurationError("duration must be positive")
    if not 0.0 <= write_fraction <= 1.0:
        raise ConfigurationError("write_fraction must be in [0, 1]")
    if rotations < 1:
        raise ConfigurationError("rotations must be >= 1")
    groups = [sorted(group) for group in groups if group]
    if not groups:
        raise ConfigurationError("need at least one non-empty writer group")
    replica_ids = sorted(home)
    for group in groups:
        for rid in group:
            if rid not in home:
                raise ConfigurationError(
                    f"writer group member {rid!r} has no home register"
                )
    rng = random.Random(seed)
    phase = duration / rotations
    arrivals: List[TimedOperation] = []
    t = rng.expovariate(rate)
    index = 0
    while t <= duration:
        rotation = min(int(t / phase), rotations - 1)
        group = groups[rotation % len(groups)]
        if rng.random() < write_fraction:
            writer = rng.choice(group)
            operation = Operation(
                "write", writer, home[writer], value=f"h{index}"
            )
        else:
            reader = rng.choice(replica_ids)
            operation = Operation("read", reader, home[reader])
        arrivals.append(TimedOperation(time=t, operation=operation))
        t += rng.expovariate(rate)
        index += 1
    return OpenLoopWorkload("drifting-hotspot", tuple(arrivals))


def single_writer_workload(
    graph: ShareGraph,
    rate: float,
    duration: float,
    write_fraction: float = 0.7,
    seed: int = 0,
) -> OpenLoopWorkload:
    """Poisson arrivals in which every register has exactly one writer.

    Each register's *designated writer* is the smallest replica id storing
    it; writes to a register are issued only by its writer, reads happen
    anywhere the register is stored.  All writes to one register are then
    totally ordered by the writer's session (``↪``), so any causally
    consistent execution applies them in that order at every storing
    replica — the final value of every register is a function of the
    schedule alone, independent of message timing.

    That timing-independence is what the sim-vs-live differential harness
    (``tests/differential``) needs: the simulator and the live runtime
    deliver with completely different clocks, yet on a single-writer
    workload both must converge to the identical final state.
    """
    if rate <= 0:
        raise ConfigurationError("rate must be positive")
    if duration <= 0:
        raise ConfigurationError("duration must be positive")
    if not 0.0 <= write_fraction <= 1.0:
        raise ConfigurationError("write_fraction must be in [0, 1]")
    rng = random.Random(seed)
    replica_ids = list(graph.replica_ids)
    owned: Dict[ReplicaId, List[Register]] = {
        rid: sorted(
            register
            for register in graph.registers_at(rid)
            if min(graph.replicas_storing(register)) == rid
        )
        for rid in replica_ids
    }
    arrivals: List[TimedOperation] = []
    t = rng.expovariate(rate)
    index = 0
    while t <= duration:
        replica_id = rng.choice(replica_ids)
        if rng.random() < write_fraction and owned[replica_id]:
            register = rng.choice(owned[replica_id])
            operation = Operation("write", replica_id, register, value=f"s{index}")
        else:
            register = rng.choice(_writable_registers(graph, replica_id))
            operation = Operation("read", replica_id, register)
        arrivals.append(TimedOperation(time=t, operation=operation))
        t += rng.expovariate(rate)
        index += 1
    return OpenLoopWorkload("single-writer", tuple(arrivals))


def bursty_workload(
    graph: ShareGraph,
    burst_rate: float,
    idle_rate: float,
    burst_length: float,
    idle_length: float,
    duration: float,
    write_fraction: float = 0.7,
    seed: int = 0,
) -> OpenLoopWorkload:
    """An on/off arrival process: Poisson bursts separated by quiet gaps.

    The process alternates a burst phase of ``burst_length`` time units with
    arrivals at ``burst_rate``, and an idle phase of ``idle_length`` with
    arrivals at ``idle_rate`` (which may be 0 for complete silence).  This
    is the classic stress pattern for pending-buffer growth: bursts overrun
    the propagation capacity, gaps let the system drain.
    """
    for name, value in (("burst_rate", burst_rate),
                        ("burst_length", burst_length),
                        ("duration", duration)):
        if value <= 0:
            raise ConfigurationError(f"{name} must be positive")
    if idle_rate < 0 or idle_length < 0:
        raise ConfigurationError("idle_rate and idle_length must be non-negative")
    rng = random.Random(seed)
    replica_ids = list(graph.replica_ids)
    arrivals: List[TimedOperation] = []
    index = 0
    phase_start = 0.0
    in_burst = True
    while phase_start < duration:
        rate = burst_rate if in_burst else idle_rate
        length = burst_length if in_burst else idle_length
        phase_end = min(phase_start + length, duration)
        if rate > 0:
            t = phase_start + rng.expovariate(rate)
            while t <= phase_end:
                operation = _random_operation(
                    graph, rng, replica_ids, write_fraction, index, "b"
                )
                arrivals.append(TimedOperation(time=t, operation=operation))
                t += rng.expovariate(rate)
                index += 1
        phase_start = phase_end
        in_burst = not in_burst
    return OpenLoopWorkload("bursty", tuple(arrivals))


@dataclass
class OpenLoopResult:
    """Everything measured while running an open-loop workload on a host."""

    workload: OpenLoopWorkload
    steps: int
    consistent: bool
    safety_violations: int
    liveness_violations: int
    #: Simulated time at which the system fully drained (the makespan).
    makespan: float
    messages_sent: int
    metadata_counters_sent: int
    #: Remote-apply (propagation) latency percentiles.
    apply_latency: LatencySummary
    #: Client-observed operation blocking-time percentiles.
    operation_latency: LatencySummary
    #: Remote applies per time bucket.
    throughput: Tuple[Tuple[float, int], ...]
    #: Sampled pending-buffer depth statistics per replica.
    queue_depths: Dict[ReplicaId, QueueDepthStats]
    #: Peak pending-buffer occupancy per replica (exact, not sampled).
    max_pending: Dict[ReplicaId, int]

    @property
    def effective_throughput(self) -> float:
        """Remote applies per simulated time unit over the whole run."""
        if self.makespan <= 0:
            return 0.0
        return sum(count for _, count in self.throughput) / self.makespan

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "OK" if self.consistent else "VIOLATED"
        return (
            f"{self.workload.name}: {len(self.workload)} arrivals over "
            f"{self.workload.duration:.1f}, drained at {self.makespan:.1f}, "
            f"{self.messages_sent} msgs, apply p99 {self.apply_latency.p99:.1f}, "
            f"consistency {status}"
        )


def run_open_loop(
    cluster: SimulationHost,
    workload: OpenLoopWorkload,
    check: bool = True,
    queue_sample_interval: Optional[float] = None,
    throughput_bucket: float = 10.0,
) -> OpenLoopResult:
    """Run an open-loop workload on a host and validate the execution.

    The arrivals are fed to the host's event kernel in time order, one at
    a time (:meth:`~repro.sim.engine.SimulationHost.schedule_arrivals`):
    each arrival schedules the next when it fires, so the kernel holds one
    arrival, not the whole workload, yet fires them exactly as if all had
    been scheduled up front.  The kernel interleaves client arrivals with
    message deliveries in global time order until the system drains.
    Works on any :class:`~repro.sim.engine.SimulationHost`.

    Arrival times are offsets from the host's clock at the start of this
    call, so a warmed-up cluster replays the schedule with its spacing
    intact.  (The cumulative metrics — throughput timeline, latency
    samples — still cover the host's whole history; use a fresh cluster
    for per-run numbers.)

    Parameters
    ----------
    queue_sample_interval:
        When set, pending-buffer depths are sampled every that many time
        units while the run is in progress (feeding ``queue_depths``).
    throughput_bucket:
        Bucket width of the reported apply-throughput timeline.
    """
    started_at = cluster.now
    # A stable sort: arrivals at equal times keep their workload order.
    cluster.schedule_arrivals(
        (started_at + arrival.time, arrival.operation)
        for arrival in sorted(workload.arrivals, key=attrgetter("time")))

    if queue_sample_interval is not None:
        if queue_sample_interval <= 0:
            raise ConfigurationError("queue_sample_interval must be positive")

        def sample(host: SimulationHost, time: float) -> None:
            host.sample_queue_depths()
            if host.busy():
                host.schedule_timer(queue_sample_interval, sample, tag="queue-sampler")

        cluster.schedule_timer(queue_sample_interval, sample, tag="queue-sampler")

    steps = cluster.run_until_quiescent()

    if check:
        report = cluster.check_consistency()
        consistent = report.is_causally_consistent
        safety = len(report.safety_violations)
        liveness = len(report.liveness_violations)
    else:
        consistent, safety, liveness = True, 0, 0

    metrics = cluster.metrics
    return OpenLoopResult(
        workload=workload,
        steps=steps,
        consistent=consistent,
        safety_violations=safety,
        liveness_violations=liveness,
        # Time from the start of this run to the last delivery/arrival:
        # trailing sampler timers do not count towards the makespan.
        makespan=max(cluster.last_activity_time, started_at) - started_at,
        messages_sent=cluster.network.stats.messages_sent,
        metadata_counters_sent=cluster.network.stats.metadata_counters_sent,
        apply_latency=metrics.apply_latency_summary(),
        operation_latency=metrics.operation_latency_summary(),
        throughput=tuple(metrics.apply_throughput(throughput_bucket)),
        queue_depths=metrics.queue_depth_summary(),
        max_pending=dict(metrics.max_pending),
    )
