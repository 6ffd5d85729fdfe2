"""Replica-centric causal consistency checking (Definition 2 of the paper).

The checker validates an execution *after the fact*, purely from the
replicas' issue/apply traces:

* **Safety** — whenever a replica ``i`` applied an update ``u1`` on a
  register it stores, every update ``u2 ↪ u1`` on a register stored at ``i``
  had already been applied at ``i`` at that moment.
* **Liveness** — at quiescence (all messages delivered, all pending buffers
  drained), every update issued on register ``x`` has been applied at every
  replica that stores ``x``.

The happened-before relation is recomputed independently of the protocol
under test (:mod:`repro.core.causal`), so the checker catches protocols whose
metadata is too weak — which is exactly what the necessity experiments (E4)
rely on.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .causal import HappenedBefore
from .errors import (
    ConsistencyViolationError,
    LivenessViolationError,
    UnknownRegisterError,
)
from .protocol import EventKind, ReplicaEvent, Update, UpdateId
from .registers import ReplicaId
from .share_graph import ShareGraph

# (Optional/Tuple are used in the checker's signature below.)


@dataclass(frozen=True)
class SafetyViolation:
    """One detected violation of the safety property.

    Replica ``replica_id`` applied ``applied`` while its causal predecessor
    ``missing`` (also on a register stored at the replica) had not been
    applied yet.
    """

    replica_id: ReplicaId
    applied: Update
    missing: Update
    position: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"replica {self.replica_id} applied {self.applied} at local position "
            f"{self.position} before its causal dependency {self.missing}"
        )


@dataclass(frozen=True)
class LivenessViolation:
    """One update that was never applied at a replica that stores its register."""

    replica_id: ReplicaId
    update: Update

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"update {self.update} was never applied at replica {self.replica_id} "
            f"although the replica stores register {self.update.register!r}"
        )


@dataclass
class ConsistencyReport:
    """The full verdict of the checker over one execution."""

    safety_violations: List[SafetyViolation] = field(default_factory=list)
    liveness_violations: List[LivenessViolation] = field(default_factory=list)
    checked_applications: int = 0
    checked_updates: int = 0

    @property
    def is_safe(self) -> bool:
        """``True`` iff no safety violation was found."""
        return not self.safety_violations

    @property
    def is_live(self) -> bool:
        """``True`` iff no liveness violation was found."""
        return not self.liveness_violations

    @property
    def is_causally_consistent(self) -> bool:
        """``True`` iff the execution satisfies Definition 2 end to end."""
        return self.is_safe and self.is_live

    def raise_on_violation(self) -> None:
        """Raise a descriptive exception if any violation was recorded."""
        if self.safety_violations:
            raise ConsistencyViolationError(
                f"{len(self.safety_violations)} safety violation(s); first: "
                f"{self.safety_violations[0]}",
                self.safety_violations,
            )
        if self.liveness_violations:
            raise LivenessViolationError(
                f"{len(self.liveness_violations)} liveness violation(s); first: "
                f"{self.liveness_violations[0]}",
                self.liveness_violations,
            )

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"checked {self.checked_applications} applications of "
            f"{self.checked_updates} updates: "
            f"{len(self.safety_violations)} safety violation(s), "
            f"{len(self.liveness_violations)} liveness violation(s)"
        )


class ConsistencyChecker:
    """Validates executions against replica-centric causal consistency.

    Parameters
    ----------
    share_graph:
        The share graph of the system under test; used to know which
        registers each replica stores (safety is only required for registers
        in ``X_i``) and which replicas must eventually apply each update
        (liveness).
    epoch_history:
        Under dynamic membership (:mod:`repro.sim.reconfig`), the ordered
        ``(start time, share graph)`` sequence of configurations the run
        went through.  Safety is then judged per event against the
        configuration active at the event's ``sim_time`` (a replica's
        ``X_i`` may grow and shrink across epochs, and replicas may exist
        in only some epochs); liveness is judged against the *final*
        configuration — every update on register ``x`` must eventually be
        applied at every replica that stores ``x`` when the run ends, which
        is exactly what obliges joiners to receive pre-join history via
        state transfer and releases leavers from post-leave obligations.
        ``None`` (the default) means a single static configuration:
        ``share_graph`` governs everything, as in the paper.
    """

    def __init__(
        self,
        share_graph: ShareGraph,
        epoch_history: Optional[Sequence[Tuple[float, ShareGraph]]] = None,
    ) -> None:
        self.share_graph = share_graph
        self.epoch_history: Tuple[Tuple[float, ShareGraph], ...] = (
            tuple(epoch_history) if epoch_history else ((0.0, share_graph),)
        )
        self._epoch_starts = [start for start, _ in self.epoch_history]
        self._stored_cache: Dict[Tuple[ReplicaId, int], Optional[frozenset]] = {}

    def _stored_in_epoch(self, replica_id: ReplicaId,
                         index: int) -> Optional[frozenset]:
        cached = self._stored_cache.get((replica_id, index))
        if cached is None and (replica_id, index) not in self._stored_cache:
            graph = self.epoch_history[index][1]
            cached = (
                graph.registers_at(replica_id)
                if replica_id in graph.placement
                else None
            )
            self._stored_cache[(replica_id, index)] = cached
        return cached

    def _stored_at(self, replica_id: ReplicaId, time: float) -> Optional[frozenset]:
        """``X_i`` in the configuration governing an event at ``time``.

        An event stamped *exactly* at an epoch boundary belongs ambiguously
        to both sides — the commit flush applies the old epoch's tail at
        the commit instant.  For a replica present in both configurations,
        such events are judged against the intersection of the two ``X_i``
        sets: a register gained at the boundary imposes no obligation on
        old-epoch applies (its history is still in the bootstrap stream),
        and a register dropped imposes none either.  Away from boundaries
        the scan walks from the latest epoch whose start is ≤ ``time``
        backwards to the first configuration that contains the replica (a
        leaver's trace events predate its removal).  Returns ``None`` when
        no governing configuration knows the replica at all.
        """
        index = bisect_right(self._epoch_starts, time) - 1
        if 0 < index < len(self.epoch_history) and self._epoch_starts[index] == time:
            newer = self._stored_in_epoch(replica_id, index)
            older = None
            j = index - 1
            while j >= 0 and older is None:
                older = self._stored_in_epoch(replica_id, j)
                j -= 1
            if newer is not None and older is not None:
                return newer & older
            return newer if newer is not None else older
        while index >= 0:
            stored = self._stored_in_epoch(replica_id, index)
            if stored is not None:
                return stored
            index -= 1
        return None

    @property
    def _final_graph(self) -> ShareGraph:
        return self.epoch_history[-1][1]

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def check(
        self,
        events_by_replica: Mapping[ReplicaId, Sequence[ReplicaEvent]],
        check_liveness: bool = True,
        extra_happened_before: Optional[Sequence[Tuple[UpdateId, UpdateId]]] = None,
    ) -> ConsistencyReport:
        """Check a complete execution given each replica's local event trace.

        ``extra_happened_before`` adds direct ``↪`` edges beyond those implied
        by the replica traces.  The client–server architecture uses this to
        inject the dependencies a client propagates by accessing several
        replicas (condition (ii) of Definition 25's ``↪'``).
        """
        relation = HappenedBefore.from_events(events_by_replica)
        if extra_happened_before:
            for u1, u2 in extra_happened_before:
                if u1 != u2:
                    relation.direct_edges.add((u1, u2))
            relation._closure = None
        report = ConsistencyReport()
        report.checked_updates = len(relation.updates)

        for replica_id, events in events_by_replica.items():
            self._check_replica_safety(replica_id, events, relation, report)

        if check_liveness:
            self._check_liveness(events_by_replica, relation, report)
        return report

    # ------------------------------------------------------------------
    # Safety
    # ------------------------------------------------------------------
    def _check_replica_safety(
        self,
        replica_id: ReplicaId,
        events: Sequence[ReplicaEvent],
        relation: HappenedBefore,
        report: ConsistencyReport,
    ) -> None:
        static = len(self.epoch_history) == 1
        stored = self.share_graph.registers_at(replica_id) if static else frozenset()
        applied_so_far: set = set()
        for position, event in enumerate(events):
            if event.kind not in (EventKind.ISSUE, EventKind.APPLY):
                continue
            update = event.update
            if update is None:
                continue
            report.checked_applications += 1
            if not static:
                stored = self._stored_at(replica_id, event.sim_time) or frozenset()
            # Safety only constrains applications of updates to registers the
            # replica stores; metadata-only applications (dummy registers) are
            # exempt from the "u1 for register x in X_i" premise but still
            # extend the applied set used for later checks.
            if update.register in stored:
                for missing_uid in relation.predecessors(update.uid):
                    missing = relation.updates[missing_uid]
                    if missing.register not in stored:
                        continue
                    if missing_uid not in applied_so_far:
                        report.safety_violations.append(
                            SafetyViolation(
                                replica_id=replica_id,
                                applied=update,
                                missing=missing,
                                position=position,
                            )
                        )
            applied_so_far.add(update.uid)

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def _check_liveness(
        self,
        events_by_replica: Mapping[ReplicaId, Sequence[ReplicaEvent]],
        relation: HappenedBefore,
        report: ConsistencyReport,
    ) -> None:
        applied_at: Dict[ReplicaId, set] = {}
        for replica_id, events in events_by_replica.items():
            applied_at[replica_id] = {
                e.update.uid
                for e in events
                if e.kind in (EventKind.ISSUE, EventKind.APPLY) and e.update is not None
            }
        for update in relation.all_updates():
            try:
                owners = self._final_graph.replicas_storing(update.register)
            except UnknownRegisterError:
                # Registers unknown to the (final) share graph — virtual
                # registers introduced by optimizations, or registers that
                # left the system with their last replica — impose no
                # liveness obligation.
                continue
            for replica_id in owners:
                if replica_id not in events_by_replica:
                    continue
                if update.uid not in applied_at.get(replica_id, set()):
                    report.liveness_violations.append(
                        LivenessViolation(replica_id=replica_id, update=update)
                    )


def check_execution(
    share_graph: ShareGraph,
    events_by_replica: Mapping[ReplicaId, Sequence[ReplicaEvent]],
    check_liveness: bool = True,
) -> ConsistencyReport:
    """Convenience wrapper: build a checker and validate one execution."""
    return ConsistencyChecker(share_graph).check(
        events_by_replica, check_liveness=check_liveness
    )
