"""Fault injection: crashes, recovery, partitions and lossy channels.

The paper's system model assumes reliable channels and non-failing
replicas.  This module deliberately breaks those assumptions — in a
controlled, seeded, replayable way — so the reproduction can measure how
edge-timestamp causal consistency behaves under infrastructure faults:

* a declarative :class:`FaultSchedule` (built from :func:`crash`,
  :func:`restart`, :func:`partition`, :func:`heal`, :func:`latency_spike`
  actions, or generated by :func:`random_fault_schedule`) that a
  :class:`FaultInjector` installs as first-class kernel events (timers of
  rank 0, :class:`~repro.sim.engine.TimerEvent`), so a fault schedule
  replays deterministically against the rest of the event stream;
* a crash/restart protocol that keeps the replica object: a crash drops
  only its volatile state (a server's buffered client requests), and
  every path that could change it — deliveries, the apply fixpoint,
  client operations, reconfiguration commits — skips it while down; an
  anti-entropy resync (:meth:`~repro.sim.engine.Transport.resync`) then
  re-sends every update it missed — causal consistency holds end to end
  through the fault;
* partitions and latency spikes driven through the transport, and lossy /
  duplicating channels (:class:`~repro.sim.delays.LossyDelay`,
  :class:`~repro.sim.delays.DuplicatingDelay`) kept exactly-once at the
  protocol layer by the transport's resend timers plus the
  replicas' duplicate suppression;
* availability, recovery-latency and staleness metrics recorded into the
  host's unified :class:`~repro.core.host.RunMetrics`.

Everything is inert until a :class:`FaultInjector` is attached to a host:
the fault-free fast path stays a ``fault_injector is None`` check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.errors import ConfigurationError, SimulationError
from ..core.protocol import Update, UpdateId
from ..core.registers import ReplicaId
from ..core.host import FaultRecord
from .engine import ReliabilityConfig, SimulationHost

__all__ = [
    "FaultAction",
    "FaultInjector",
    "FaultSchedule",
    "ReliabilityConfig",
    "crash",
    "heal",
    "latency_spike",
    "partition",
    "random_fault_schedule",
    "restart",
]


# ======================================================================
# Declarative fault actions and schedules
# ======================================================================

@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault: what happens, to whom, at which simulated time.

    Build these with the module-level constructors (:func:`crash`,
    :func:`restart`, :func:`partition`, :func:`heal`,
    :func:`latency_spike`) rather than by hand.
    """

    time: float
    kind: str  # "crash" | "restart" | "partition" | "heal" | "slowdown"
    replica_id: Optional[ReplicaId] = None
    groups: Tuple[FrozenSet[ReplicaId], ...] = ()
    factor: float = 1.0

    def describe(self) -> str:
        """Human-readable one-liner for timelines and tables."""
        if self.kind in ("crash", "restart"):
            return f"{self.kind} replica {self.replica_id}"
        if self.kind == "partition":
            islands = " | ".join(
                "{" + ",".join(str(r) for r in sorted(g)) + "}" for g in self.groups
            )
            return f"partition {islands}"
        if self.kind == "slowdown":
            return f"latency x{self.factor:g}"
        return self.kind


def crash(time: float, replica_id: ReplicaId) -> FaultAction:
    """Crash ``replica_id`` at ``time``: it stops receiving, applying and serving."""
    return FaultAction(time=time, kind="crash", replica_id=replica_id)


def restart(time: float, replica_id: ReplicaId) -> FaultAction:
    """Restart ``replica_id`` at ``time``: bring it back up and resync what it missed."""
    return FaultAction(time=time, kind="restart", replica_id=replica_id)


def partition(time: float, *groups: Iterable[ReplicaId]) -> FaultAction:
    """Split the replicas into isolated islands at ``time``."""
    cleaned = tuple(frozenset(g) for g in groups if g)
    if len(cleaned) < 2:
        raise ConfigurationError("a partition needs at least two non-empty groups")
    return FaultAction(time=time, kind="partition", groups=cleaned)


def heal(time: float) -> FaultAction:
    """Dissolve the active partition at ``time``; parked traffic flies."""
    return FaultAction(time=time, kind="heal")


def latency_spike(time: float, duration: float, factor: float) -> Tuple[FaultAction, FaultAction]:
    """Multiply every sampled message delay by ``factor`` for ``duration``.

    Returns the (onset, recovery) action pair; pass both to the schedule.
    """
    if duration <= 0 or factor <= 0:
        raise ConfigurationError("latency_spike needs positive duration and factor")
    return (
        FaultAction(time=time, kind="slowdown", factor=factor),
        FaultAction(time=time + duration, kind="slowdown", factor=1.0),
    )


@dataclass(frozen=True)
class FaultSchedule:
    """A named, replayable sequence of fault actions.

    Schedules are plain data — like workloads — so the same schedule can be
    installed on different architectures and protocols under the same
    network seed, and two same-seed runs observe identical fault streams.
    """

    name: str
    actions: Tuple[FaultAction, ...]

    def __post_init__(self) -> None:
        flattened: List[FaultAction] = []
        for action in self.actions:
            # latency_spike() returns a pair; accept it inline for ergonomics.
            if isinstance(action, tuple):
                flattened.extend(action)
            else:
                flattened.append(action)
        ordered = tuple(sorted(flattened, key=lambda a: a.time))
        object.__setattr__(self, "actions", ordered)

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def duration(self) -> float:
        """The time of the last scheduled action (0.0 when empty)."""
        return self.actions[-1].time if self.actions else 0.0


def random_fault_schedule(
    replica_ids: Sequence[ReplicaId],
    duration: float,
    crashes: int = 1,
    downtime: float = 20.0,
    partition_groups: Optional[Sequence[Iterable[ReplicaId]]] = None,
    partition_at: float = 0.0,
    partition_duration: float = 0.0,
    seed: int = 0,
    name: str = "random-faults",
) -> FaultSchedule:
    """A seeded crash/restart (+ optional partition window) schedule.

    Each crash picks a distinct replica (so no replica is crashed twice) and
    a crash time uniform in ``[0.1, 0.7] × duration``; the restart follows
    ``downtime`` later.  When ``partition_duration`` is positive the given
    ``partition_groups`` (default: split the replica list in half) are
    isolated from ``partition_at`` for that long.  Deterministic in
    ``seed``.
    """
    if crashes > len(replica_ids):
        raise ConfigurationError(
            f"cannot schedule {crashes} crashes over {len(replica_ids)} replicas"
        )
    rng = random.Random(seed)
    actions: List[FaultAction] = []
    victims = rng.sample(list(replica_ids), crashes)
    for victim in victims:
        crash_at = rng.uniform(0.1 * duration, 0.7 * duration)
        actions.append(crash(crash_at, victim))
        actions.append(restart(crash_at + downtime, victim))
    if partition_duration > 0:
        if partition_groups is None:
            ordered = sorted(replica_ids)
            half = max(1, len(ordered) // 2)
            partition_groups = [ordered[:half], ordered[half:]]
        actions.append(partition(partition_at, *partition_groups))
        actions.append(heal(partition_at + partition_duration))
    return FaultSchedule(name=name, actions=tuple(actions))


# ======================================================================
# The injector
# ======================================================================

class FaultInjector:
    """Drives a fault schedule against a simulated deployment.

    Attaching an injector switches the host onto the faulty path: the
    transport optionally runs resend timers, which a delivery settles
    (mandatory when the delay model drops messages), and the host consults
    :meth:`is_down` before deliveries, applies and client operations.
    Crash resync re-sends from the transport's sent-log of undelivered
    copies.

    Parameters
    ----------
    host:
        Any :class:`~repro.sim.engine.SimulationHost` (either architecture).
    reliability:
        ``None`` to leave retransmission off (pure crash/partition runs), or
        a :class:`~repro.sim.engine.ReliabilityConfig` to enable the
        resend timers (required for :class:`~repro.sim.delays.LossyDelay` /
        :class:`~repro.sim.delays.DuplicatingDelay` channels).
    """

    def __init__(
        self,
        host: SimulationHost,
        reliability: Optional[ReliabilityConfig] = None,
    ) -> None:
        if host.fault_injector is not None:
            raise ConfigurationError("host already has a fault injector attached")
        self.host = host
        host.fault_injector = self
        if reliability is not None:
            host.network.enable_reliability(reliability)
        self._down_since: Dict[ReplicaId, float] = {}
        #: Replicas catching up after a restart: restart time + missing uids.
        self._recovering: Dict[ReplicaId, Tuple[float, Set[UpdateId]]] = {}

    # ------------------------------------------------------------------
    # Declarative installation
    # ------------------------------------------------------------------
    def install(self, schedule: FaultSchedule) -> None:
        """Schedule every action of ``schedule`` as a kernel fault event."""
        for action in schedule.actions:
            self.host.schedule_fault_at(
                action.time, self._performer(action), kind=action.kind
            )

    def _performer(self, action: FaultAction):
        def perform(host: SimulationHost, time: float) -> None:
            if action.kind == "crash":
                self.crash_now(action.replica_id)
            elif action.kind == "restart":
                self.restart_now(action.replica_id)
            elif action.kind == "partition":
                self.partition_now(*action.groups)
            elif action.kind == "heal":
                self.heal_now()
            elif action.kind == "slowdown":
                self.set_latency_factor(action.factor)
            else:  # pragma: no cover - schedule constructors prevent this
                raise SimulationError(f"unknown fault kind {action.kind!r}")

        return perform

    # ------------------------------------------------------------------
    # Imperative fault API (what the scheduled events call)
    # ------------------------------------------------------------------
    def is_down(self, replica_id: ReplicaId) -> bool:
        """``True`` while ``replica_id`` is crashed."""
        return replica_id in self._down_since

    @property
    def down_replicas(self) -> FrozenSet[ReplicaId]:
        """The currently crashed replicas."""
        return frozenset(self._down_since)

    def crash_now(self, replica_id: ReplicaId) -> None:
        """Crash a replica: drop its volatile state and take it offline;
        its durable state stays in the object, untouched while down."""
        if replica_id in self._down_since:
            raise SimulationError(f"replica {replica_id!r} is already down")
        self.host._replica(replica_id)._reset_volatile()
        self._down_since[replica_id] = self.host.now
        # A crash while still catching up abandons that recovery attempt.
        self._recovering.pop(replica_id, None)
        # The replica's in-memory stream state dies with it: batched
        # channels touching it are severed (in-flight batches go stale,
        # post-crash flushes restart their delta chains).
        self.host.network.sever_streams(replica_id)
        metrics = self.host.metrics
        metrics.crashes += 1
        metrics.fault_timeline.append(
            FaultRecord(self.host.now, "crash", f"replica {replica_id}")
        )

    def restart_now(self, replica_id: ReplicaId) -> None:
        """Restart a replica: bring it back up and resync from what it knows."""
        if replica_id not in self._down_since:
            raise SimulationError(f"replica {replica_id!r} is not down")
        replica = self.host._replica(replica_id)
        down_at = self._down_since.pop(replica_id)
        now = self.host.now
        metrics = self.host.metrics
        metrics.restarts += 1
        metrics.downtime.setdefault(replica_id, []).append((down_at, now))
        metrics.fault_timeline.append(
            FaultRecord(now, "restart", f"replica {replica_id}")
        )
        missing = self.host.network.resync(replica_id, replica.known())
        if missing:
            self._recovering[replica_id] = (now, set(missing))
        else:
            metrics.recovery_latencies.append(0.0)
        # A reconfiguration commit deferred on this member can now proceed;
        # the resync re-sends are in flight, so the commit flush completes
        # them into the old epoch first.
        if self.host.reconfig_manager is not None:
            self.host.reconfig_manager.notify_fault_cleared()

    def partition_now(self, *groups: Iterable[ReplicaId]) -> None:
        """Isolate replica groups at the transport."""
        self.host.network.partition(*groups)
        action = FaultAction(
            time=self.host.now, kind="partition",
            groups=tuple(frozenset(g) for g in groups),
        )
        self.host.metrics.fault_timeline.append(
            FaultRecord(self.host.now, "partition", action.describe())
        )

    def heal_now(self) -> None:
        """Dissolve the partition; parked cross-island traffic flies."""
        self.host.network.heal()
        self.host.metrics.fault_timeline.append(
            FaultRecord(self.host.now, "heal", "")
        )
        # A reconfiguration commit deferred on the open partition resumes.
        if self.host.reconfig_manager is not None:
            self.host.reconfig_manager.notify_fault_cleared()

    def set_latency_factor(self, factor: float) -> None:
        """Scale every sampled message delay (latency-spike faults)."""
        if factor <= 0:
            raise ConfigurationError("latency factor must be positive")
        self.host.network.delay_factor = factor
        self.host.metrics.fault_timeline.append(
            FaultRecord(self.host.now, "slowdown", f"x{factor:g}")
        )

    # ------------------------------------------------------------------
    # Host callbacks and reporting
    # ------------------------------------------------------------------
    def note_applies(
        self, replica_id: ReplicaId, applied: Sequence[Update], now: float
    ) -> None:
        """Called by the host after applies; closes recovery windows.

        A replica finishes recovering the moment it has applied every update
        the restart resync re-sent; the elapsed time since its restart is
        one recovery-latency sample.
        """
        entry = self._recovering.get(replica_id)
        if entry is None:
            return
        started, missing = entry
        for update in applied:
            missing.discard(update.uid)
        if not missing:
            del self._recovering[replica_id]
            self.host.metrics.recovery_latencies.append(now - started)

    def finalize_downtime(self) -> None:
        """Close still-open downtime intervals at the current time.

        For end-of-run availability reporting when a schedule crashes a
        replica without restarting it; the replica stays down.
        """
        now = self.host.now
        for replica_id, down_at in self._down_since.items():
            self.host.metrics.downtime.setdefault(replica_id, []).append(
                (down_at, now)
            )
        self._down_since = {rid: now for rid in self._down_since}
