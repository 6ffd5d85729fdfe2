"""The host-agnostic replica-host surface shared by the simulator and the
live runtime.

Historically everything in this module lived inside :mod:`repro.sim.engine`,
welded to the discrete-event kernel.  The live asyncio runtime
(:mod:`repro.net`) runs the *same* protocol instances
(:class:`~repro.core.protocol.CausalReplica`) against real TCP streams and a
wall clock, so the parts of the old ``SimulationHost`` that never actually
depended on simulated time were extracted here:

* :class:`ReplicaHost` — the protocol surface a deployment exposes: who owns
  which replica, the algorithm prototype's steps with their metric
  recording — :meth:`~ReplicaHost.perform_read`,
  :meth:`~ReplicaHost.perform_write` and the receive rule
  :meth:`~ReplicaHost.deliver` with its apply loop, each at the host
  clock or at an explicit host time; every client operation and delivered
  message of either runtime, and of a WAL replay, goes through them — the
  event-trace collection and the
  :meth:`~ReplicaHost.check_consistency` entry point.  The simulator's
  :class:`~repro.sim.engine.SimulationHost` and the live runtime's
  :class:`~repro.net.node.LiveNode` are both subclasses, which is what lets the differential harness
  (``tests/differential``) replay one workload through both and compare the
  verdicts — the simulator as the executable spec for the live system.
* :class:`RunMetrics` and its helpers (:class:`LatencySummary`,
  :func:`throughput_timeline`, :class:`QueueDepthSample` /
  :class:`QueueDepthStats`, :class:`FaultRecord`) — one metrics structure
  filled by simulated and live runs alike.  Timestamps are *host time*:
  simulated time units in the simulator, wall-clock seconds in the live
  runtime; the bucketing helpers accept both (see
  :func:`throughput_timeline`'s ``origin`` parameter for wall-clock epochs).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .consistency import ConsistencyChecker, ConsistencyReport
from .errors import SimulationError, UnknownReplicaError
from .protocol import CausalReplica, ReplicaEvent, Update, UpdateId, UpdateMessage
from .registers import Register, ReplicaId
from .share_graph import ShareGraph


# ======================================================================
# Latency / throughput helpers
# ======================================================================

@dataclass(frozen=True)
class LatencySummary:
    """Percentile summary of a latency sample set."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    max: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencySummary":
        """Summarise samples with nearest-rank percentiles (empty → zeros)."""
        if not samples:
            return cls(count=0, mean=0.0, p50=0.0, p90=0.0, p99=0.0, max=0.0)
        ordered = sorted(samples)
        n = len(ordered)

        def rank(q: float) -> float:
            return ordered[min(n - 1, max(0, int(q * n + 0.5) - 1))]

        return cls(
            count=n,
            mean=sum(ordered) / n,
            p50=rank(0.50),
            p90=rank(0.90),
            p99=rank(0.99),
            max=ordered[-1],
        )


#: Hard ceiling on the number of buckets one timeline may materialise.  A
#: caller bucketing raw wall-clock epoch seconds against the default origin
#: of 0 would otherwise allocate ~1.7 billion buckets; failing with a
#: diagnostic beats an out-of-memory kill.
_MAX_TIMELINE_BUCKETS = 10_000_000


def throughput_timeline(
    times: Sequence[float],
    bucket_width: float,
    origin: Optional[float] = 0.0,
) -> List[Tuple[float, int]]:
    """Bucket event times into ``(bucket start, count)`` pairs.

    Buckets run from ``origin`` to the latest event; empty intermediate
    buckets are included so the timeline plots directly.

    ``origin`` defaults to 0 — the simulator's convention, where every run
    starts at simulated time 0.  Live runs feed *wall-clock* timestamps
    whose epoch is arbitrary (and whose first event is nowhere near 0):
    pass ``origin=None`` to anchor the timeline at the earliest event,
    rounded down to a bucket boundary, or pass the run's start time
    explicitly.  Events before ``origin`` (clock adjustments, samples taken
    during setup) are clamped into the first bucket rather than silently
    dropped.  A span that would materialise an absurd number of buckets —
    the classic symptom of bucketing wall-clock epochs against origin 0 —
    raises :class:`~repro.core.errors.SimulationError` instead of
    exhausting memory.
    """
    if bucket_width <= 0:
        raise SimulationError("bucket_width must be positive")
    if not times:
        return []
    if origin is None:
        origin = math.floor(min(times) / bucket_width) * bucket_width
    buckets: Dict[int, int] = {}
    for t in times:
        index = max(0, int((t - origin) // bucket_width))
        buckets[index] = buckets.get(index, 0) + 1
    last = max(buckets)
    if last + 1 > _MAX_TIMELINE_BUCKETS:
        raise SimulationError(
            f"timeline would span {last + 1} buckets of width {bucket_width} "
            f"from origin {origin}; for wall-clock timestamps pass "
            "origin=None (or the run's start time) instead of bucketing "
            "against 0"
        )
    return [(origin + index * bucket_width, buckets.get(index, 0))
            for index in range(last + 1)]


@dataclass(frozen=True)
class QueueDepthSample:
    """One sampled pending-buffer depth at one replica."""

    time: float
    replica_id: ReplicaId
    depth: int


@dataclass(frozen=True)
class QueueDepthStats:
    """Mean/peak pending-buffer occupancy of one replica."""

    samples: int
    mean: float
    peak: int


@dataclass(frozen=True)
class FaultRecord:
    """One fault-subsystem event on the availability timeline."""

    time: float
    kind: str  # "crash" | "restart" | "partition" | "heal" | "slowdown" | …
    detail: str = ""


@dataclass
class RunMetrics:
    """Everything a host records while driving a run.

    One structure is filled by the peer-to-peer host, the client–server
    host *and* the live runtime, and consumed by :mod:`repro.sim.metrics`,
    the evaluation harness and the benchmarks.  Times are host time:
    simulated units in the simulator, seconds (relative to the run start)
    in the live runtime.  The per-operation series are ``array('d')``: a
    long run appends one sample per operation or apply, 8 bytes each.
    """

    writes: int = 0
    reads: int = 0
    applies: int = 0
    #: Host time from issue to remote apply, one sample per apply.
    apply_latencies: "array[float]" = field(default_factory=lambda: array("d"))
    #: Maximum pending-buffer occupancy observed per replica.
    max_pending: Dict[ReplicaId, int] = field(default_factory=dict)
    #: Host time of every remote apply (throughput over time).
    apply_times: "array[float]" = field(default_factory=lambda: array("d"))
    #: Host time of every performed client operation (:attr:`writes` and
    #: :attr:`reads` count them by kind).
    operation_times: "array[float]" = field(default_factory=lambda: array("d"))
    #: Client-observed blocking time per operation (nonzero only when an
    #: operation had to wait, e.g. behind the client–server predicate J1/J2).
    operation_latencies: "array[float]" = field(default_factory=lambda: array("d"))
    #: Periodic pending-buffer depth samples (open-loop runs).
    queue_samples: List[QueueDepthSample] = field(default_factory=list)
    # -- fault subsystem -------------------------------------------------
    #: Replica crashes / restarts injected during the run.
    crashes: int = 0
    restarts: int = 0
    #: Client operations rejected because their target replica was down.
    rejected_operations: int = 0
    #: Every fault event, in firing order (the availability timeline).
    fault_timeline: List[FaultRecord] = field(default_factory=list)
    #: Completed downtime intervals per replica: ``[(down_at, up_at), …]``.
    downtime: Dict[ReplicaId, List[Tuple[float, float]]] = field(default_factory=dict)
    #: Host time from each restart until the replica had re-applied every
    #: update it missed while down (one sample per recovery).
    recovery_latencies: List[float] = field(default_factory=list)
    # -- reconfiguration subsystem ---------------------------------------
    #: Configuration changes committed during the run.
    reconfigs: int = 0
    #: Every reconfiguration step (window open / commit / transfer done),
    #: in firing order.
    reconfig_timeline: List[FaultRecord] = field(default_factory=list)
    #: Completed migration windows ``(opened_at, committed_at)``; client
    #: operations at the replicas a change affects are rejected inside its
    #: window, which is where any reconfiguration availability dip lives.
    migration_windows: List[Tuple[float, float]] = field(default_factory=list)
    #: Pending messages the commit flush had to apply by coordinator order
    #: (normally zero: the flush plus the apply fixpoint drain everything).
    reconfig_forced_applies: int = 0

    @property
    def mean_apply_latency(self) -> float:
        """Mean remote-apply latency in host time units."""
        if not self.apply_latencies:
            return 0.0
        return sum(self.apply_latencies) / len(self.apply_latencies)

    def apply_latency_summary(self) -> LatencySummary:
        """Percentiles of the remote-apply latency distribution."""
        return LatencySummary.from_samples(self.apply_latencies)

    def operation_latency_summary(self) -> LatencySummary:
        """Percentiles of the client-observed operation latency."""
        return LatencySummary.from_samples(self.operation_latencies)

    def apply_throughput(
        self, bucket_width: float, origin: Optional[float] = 0.0
    ) -> List[Tuple[float, int]]:
        """Remote applies per time bucket (propagation throughput).

        ``origin`` as in :func:`throughput_timeline`: leave at 0 for
        simulated runs, pass ``None`` (or the run start) for wall-clock
        apply times.
        """
        return throughput_timeline(self.apply_times, bucket_width, origin=origin)

    def operation_throughput(
        self, bucket_width: float, origin: Optional[float] = 0.0
    ) -> List[Tuple[float, int]]:
        """Submitted operations per time bucket (offered load)."""
        return throughput_timeline(self.operation_times, bucket_width, origin=origin)

    def recovery_latency_summary(self) -> LatencySummary:
        """Percentiles of the crash-recovery (restart → caught-up) latency."""
        return LatencySummary.from_samples(self.recovery_latencies)

    def availability(
        self, horizon: float, replica_ids: Iterable[ReplicaId]
    ) -> Dict[ReplicaId, float]:
        """Fraction of ``[0, horizon]`` each replica was up.

        Computed from the completed intervals in :attr:`downtime`; a replica
        still down has its open interval closed by
        :meth:`~repro.sim.faults.FaultInjector.finalize_downtime`.  A
        non-positive horizon (an empty run that never advanced the clock)
        is well-defined: no time was observed, so every replica reports
        full availability instead of raising.
        """
        if horizon <= 0:
            return {rid: 1.0 for rid in replica_ids}
        out: Dict[ReplicaId, float] = {}
        for rid in replica_ids:
            down = sum(
                min(up_at, horizon) - min(down_at, horizon)
                for down_at, up_at in self.downtime.get(rid, [])
            )
            out[rid] = max(0.0, 1.0 - down / horizon)
        return out

    def queue_depth_summary(self) -> Dict[ReplicaId, QueueDepthStats]:
        """Mean/peak sampled queue depth per replica."""
        grouped: Dict[ReplicaId, List[int]] = {}
        for sample in self.queue_samples:
            grouped.setdefault(sample.replica_id, []).append(sample.depth)
        return {
            rid: QueueDepthStats(
                samples=len(depths),
                mean=sum(depths) / len(depths),
                peak=max(depths),
            )
            for rid, depths in grouped.items()
        }


# ======================================================================
# The host surface
# ======================================================================

class ReplicaHost:
    """Base class for every deployment of :class:`CausalReplica` instances.

    A *host* owns a set of protocol replicas and executes client operations
    against them; everything else — how messages travel, what the clock is —
    is the concrete runtime's business.  Two runtimes exist:

    * :class:`~repro.sim.engine.SimulationHost` drives the replicas over the
      discrete-event kernel (simulated clock, :class:`Transport` channels);
    * :class:`~repro.net.node.LiveNode` drives every replica a live asyncio
      process hosts (wall clock, TCP channels), one host per process.

    The shared surface is what makes the simulator the executable spec for
    the live system: both record the same :class:`RunMetrics`, trace the
    same :class:`~repro.core.protocol.ReplicaEvent` streams, and validate
    through the same :meth:`check_consistency` entry point.

    Subclasses must implement :meth:`_replica_map` (who owns which replica
    id) and the :attr:`now` clock; hosts that take workload operations
    implement :meth:`submit_operation` too (how a client operation
    addressed to a replica is executed, and what happens to its messages).
    The optional hooks default to no-ops.
    """

    def __init__(self, share_graph: ShareGraph) -> None:
        self.share_graph = share_graph
        self.metrics = RunMetrics()
        self._issue_times: Dict[UpdateId, float] = {}
        #: The attached fault injector, if any (set by
        #: :class:`~repro.sim.faults.FaultInjector`); ``None`` on the
        #: fault-free fast path, which every hook below checks first.
        self.fault_injector: Optional["Any"] = None
        #: The attached reconfiguration coordinator, if any (set by
        #: :class:`~repro.sim.reconfig.ReconfigManager`); ``None`` on the
        #: static-membership fast path.
        self.reconfig_manager: Optional["Any"] = None
        #: The current configuration epoch (bumped at every commit).
        self.epoch: int = 0
        #: ``(start time, share graph)`` per epoch, in order; drives the
        #: epoch-aware consistency check and the E17 analyses.
        self.epoch_history: List[Tuple[float, ShareGraph]] = [(0.0, share_graph)]
        #: Event traces of replicas that have left the configuration —
        #: their history stays part of the checked execution.
        self._retired_events: Dict[ReplicaId, Sequence[ReplicaEvent]] = {}
        #: The attached :class:`~repro.obs.trace.TraceRecorder`, if any;
        #: ``None`` on the untraced fast path (one ``is not None`` check
        #: per hook — the overhead contract the E19 benchmark gates).
        self.tracer: Optional["Any"] = None

    @property
    def now(self) -> float:
        """Current host time (simulated units, or wall-clock seconds)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Hooks for concrete deployments
    # ------------------------------------------------------------------
    def _replica_map(self) -> Mapping[ReplicaId, CausalReplica]:
        """Replica id → protocol instance (servers, in the client–server case)."""
        raise NotImplementedError

    def submit_operation(self, operation: "Any") -> Any:
        """Execute one client operation (a :class:`~repro.sim.workloads.Operation`).

        Both simulated architectures implement this, which is what lets
        one workload — closed-loop replay or open-loop arrivals — drive
        either deployment.
        """
        raise NotImplementedError

    def _after_delivery(self, replica: CausalReplica) -> None:
        """Architecture-specific work after a delivery (e.g. serving clients)."""

    def _note_stale_epoch(self, rejected: int) -> None:
        """Book frames rejected by epoch admission where the runtime keeps
        its traffic statistics (only the simulator changes epochs so far)."""

    def _quiescent_hook(self, replica: CausalReplica) -> bool:
        """Extra per-replica pass at quiescence; returns ``True`` on progress."""
        return False

    def _extra_happened_before(self) -> Optional[Sequence[Tuple[UpdateId, UpdateId]]]:
        """Additional ``↪`` edges for the checker (client sessions)."""
        return None

    # ------------------------------------------------------------------
    # Membership hooks (dynamic reconfiguration)
    # ------------------------------------------------------------------
    def _add_member(self, replica_id: ReplicaId, new_graph: ShareGraph,
                    epoch: int) -> CausalReplica:
        """Create the protocol instance for a joining replica (at commit)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support dynamic membership"
        )

    def _remove_member(self, replica_id: ReplicaId) -> None:
        """Retire a leaving replica, keeping its trace for the checker."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support dynamic membership"
        )

    def _migrate_members(self, new_graph: ShareGraph, epoch: int) -> None:
        """Migrate every surviving replica to the new configuration."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support dynamic membership"
        )

    def _retire_trace(self, replica_id: ReplicaId) -> None:
        """Keep a leaver's event trace (the trace itself: nothing appends
        to it once the replica is dropped)."""
        self._retired_events[replica_id] = self._replica(replica_id).events

    def is_member(self, replica_id: ReplicaId) -> bool:
        """``True`` while ``replica_id`` is part of the current configuration."""
        return replica_id in self._replica_map()

    def replica_down(self, replica_id: ReplicaId) -> bool:
        """``True`` while the fault injector holds ``replica_id`` crashed."""
        injector = self.fault_injector
        return injector is not None and injector.is_down(replica_id)

    def operation_rejected(self, replica_id: ReplicaId, register: Register) -> bool:
        """Whether a client operation on ``register`` at ``replica_id`` is rejected.

        Operations are rejected at crashed replicas and, under dynamic
        membership, at non-members, inside a migration window, during a
        state transfer, and on a register the replica does not store yet
        (its grant's commit is queued or deferred) or any more: the
        availability cost of faults and reconfiguration.  Under static
        membership an unknown replica or register stays a caller error.
        """
        replica = self._replica_map().get(replica_id)
        if replica is None:
            return self.reconfig_manager is not None
        if self.replica_down(replica_id):
            return True
        manager = self.reconfig_manager
        return manager is not None and (
            manager.rejecting(replica_id) or register not in replica.registers
        )

    # ------------------------------------------------------------------
    # Bookkeeping helpers for subclasses
    # ------------------------------------------------------------------
    def _replica(self, replica_id: ReplicaId) -> CausalReplica:
        try:
            return self._replica_map()[replica_id]
        except KeyError:
            raise UnknownReplicaError(replica_id) from None

    def _record_operation(self, kind: str, at: float) -> None:
        """Count one client operation, performed at host time ``at``."""
        if kind == "write":
            self.metrics.writes += 1
        elif kind == "read":
            self.metrics.reads += 1
        self.metrics.operation_times.append(at)

    def _note_issue(self, update: Update, at: float) -> None:
        self._issue_times[update.uid] = at
        if self.tracer is not None:
            self.tracer.record("issue", update.uid, update.uid[0],
                               update.uid[0], at)

    # ------------------------------------------------------------------
    # The algorithm prototype (Section 2.1), for both runtimes
    # ------------------------------------------------------------------
    # Each operation reads the host clock once, or takes ``at``: the
    # simulator passes nothing (the kernel clock), the live node the time
    # it read the op or the batch, and WAL replay the time its record
    # stores — which is what makes a replay regenerate the live trace.

    def perform_write(self, replica_id: ReplicaId, register: Register,
                      value: Any, at: Optional[float] = None
                      ) -> Optional[Tuple[Update, List[UpdateMessage]]]:
        """Step 2 at ``replica_id``: apply a client write locally.

        Returns ``(update, outgoing messages)`` — transporting the
        messages is the caller's business — or ``None``, counting the
        rejection, when :meth:`operation_rejected` refuses the operation.
        """
        if self.operation_rejected(replica_id, register):
            self.metrics.rejected_operations += 1
            return None
        replica = self._replica(replica_id)
        t = self.now if at is None else at
        messages = replica.write(register, value, sim_time=t)
        self._record_operation("write", at=t)
        update = replica.events.items[-1]  # the ISSUE just recorded
        self._note_issue(update, t)
        return update, messages

    def perform_read(self, replica_id: ReplicaId, register: Register,
                     at: Optional[float] = None) -> Any:
        """Step 1 at ``replica_id``: answer a client read from the local
        copy; ``None``, counting the rejection, when it is refused."""
        if self.operation_rejected(replica_id, register):
            self.metrics.rejected_operations += 1
            return None
        t = self.now if at is None else at
        value = self._replica(replica_id).read(register, sim_time=t)
        self._record_operation("read", at=t)
        return value

    def deliver(self, replica: CausalReplica,
                messages: Sequence[UpdateMessage],
                at: Optional[float] = None) -> List[Update]:
        """The receive rule (Section 2.1, steps 3–4), for both runtimes.

        Epoch admission, then one
        :meth:`~repro.core.protocol.CausalReplica.receive_many` pass
        buffering every message, then one drain of the pending index with
        the unified metrics — whether ``messages`` is a standalone envelope
        or a whole batch, popped from the simulator's kernel, flushed at an
        epoch boundary, read off a live socket or replayed from a WAL.

        Frames from a retired configuration are rejected: their metadata
        indexes edges that no longer exist and must not reach the
        predicate.  The commit flush completes the old epoch before the
        new one installs, so in supported schedules no live frame ever
        arrives stale — this is the wire contract's safety net.
        Rejections are counted (:meth:`_note_stale_epoch`); content
        recovery is the retransmission/resync layers' responsibility.
        """
        epoch = self.epoch
        accepted = [message for message in messages if message.epoch == epoch]
        if len(accepted) != len(messages):
            self._note_stale_epoch(len(messages) - len(accepted))
        if not accepted:
            return []
        replica.receive_many(accepted)
        applied = self._apply_ready(replica, at=at)
        self._after_delivery(replica)
        return applied

    def _apply_ready(self, replica: CausalReplica, force: bool = False,
                     at: Optional[float] = None) -> List[Update]:
        """Run a replica's apply loop and record the unified metrics."""
        t = self.now if at is None else at
        applied = replica.apply_ready(sim_time=t, force=force)
        self._note_applies(replica, applied, t)
        return applied

    def _note_applies(self, replica: CausalReplica, applied: Sequence[Update],
                      t: float) -> None:
        """Book ``applied``, just applied at ``replica`` at time ``t``: the
        apply counts and times, latency samples, the tracer's ``apply``
        records, the fault and reconfiguration hooks and ``max_pending``."""
        replayed = replica.replayed
        for update in applied:
            self.metrics.applies += 1
            self.metrics.apply_times.append(t)
            uid = update.uid
            issued_at = self._issue_times.get(uid)
            # State-transfer replays measure the history's age, not
            # propagation: they are applies but not latency samples.
            if issued_at is not None and uid not in replayed:
                self.metrics.apply_latencies.append(t - issued_at)
        if self.tracer is not None:
            for update in applied:
                self.tracer.record("apply", update.uid, update.uid[0],
                                   replica.replica_id, t)
        if applied and self.fault_injector is not None:
            self.fault_injector.note_applies(replica.replica_id, applied, t)
        if applied and self.reconfig_manager is not None:
            self.reconfig_manager.note_applies(replica.replica_id, applied, t)
        pending = replica.pending_count()
        previous = self.metrics.max_pending.get(replica.replica_id, 0)
        self.metrics.max_pending[replica.replica_id] = max(previous, pending)

    def sample_queue_depths(self) -> None:
        """Record one pending-buffer depth sample per replica."""
        for rid, replica in self._replica_map().items():
            self.metrics.queue_samples.append(
                QueueDepthSample(time=self.now, replica_id=rid,
                                 depth=replica.pending_count())
            )

    # ------------------------------------------------------------------
    # Shared introspection, checking and metrics
    # ------------------------------------------------------------------
    def events_by_replica(self) -> Dict[ReplicaId, Sequence[ReplicaEvent]]:
        """Each replica's local issue/apply/read trace — the live
        :class:`~repro.core.protocol.ReplicaTrace` s, uncopied: read them,
        do not keep or change them.

        Replicas that left the configuration contribute the trace they had
        accumulated up to their removal: a leave does not erase history
        from the checked execution.
        """
        out = {rid: r.events for rid, r in self._replica_map().items()}
        for rid, events in self._retired_events.items():
            out.setdefault(rid, events)
        return out

    def check_consistency(self, check_liveness: bool = True) -> ConsistencyReport:
        """Validate the execution so far against the paper's Definition 2/26.

        Under dynamic membership the checker receives the whole epoch
        history, so safety is judged against the configuration active when
        each event happened and liveness against the final configuration.
        """
        history = self.epoch_history if len(self.epoch_history) > 1 else None
        checker = ConsistencyChecker(self.share_graph, epoch_history=history)
        return checker.check(
            self.events_by_replica(),
            check_liveness=check_liveness,
            extra_happened_before=self._extra_happened_before(),
        )

    def pending_updates(self) -> int:
        """Updates buffered but not yet applied, summed over replicas."""
        return sum(r.pending_count() for r in self._replica_map().values())

    def metadata_sizes(self) -> Dict[ReplicaId, int]:
        """Current per-replica metadata size in counters."""
        return {rid: r.metadata_size() for rid, r in sorted(self._replica_map().items())}

    def values(self, register: Register) -> Dict[ReplicaId, Any]:
        """The current value of ``register`` at every replica storing it."""
        replicas = self._replica_map()
        return {
            rid: replicas[rid].store[register]
            for rid in self.share_graph.replicas_storing(register)
        }
