"""Bounded reconfiguration planning against the placement objective.

The planner turns one window of sensed signals into a *bounded diff*
against the current register placement: at most ``max_moves`` register
moves, each compiled into the existing reconfiguration action algebra
(one ``add_edge`` placing the register at its new holder, one
``remove_edge`` dropping the old copy).  Two move families implement the
paper's objective from opposite ends:

* **attract** — a hot register's non-pinned copy migrates to the replica
  closest to its current writer, cutting the writer→copy propagation
  latency every one of its updates pays;
* **shed** — a cold register stored at a hot *writer* migrates to an
  idle replica, thinning the writer's share-graph neighborhood: fewer
  incident edges mean fewer ``|E_i|`` counters in every timestamp the
  writer ships (Theorem 15's cost model).

A diff is only returned when it is *feasible* — every intermediate
placement validates (:func:`~repro.sim.reconfig.apply_action` raises
otherwise), every intermediate share graph stays connected, capacity and
pinned copies are respected, and the final placement re-validates as a
:class:`~repro.placement.base.PlacementResult` of the original spec —
and *worth it*: the traffic-weighted predicted cost (propagation
latency + shipped timestamp counters, the same quantities
:mod:`repro.placement.score` scores statically) must beat the current
placement's by the configured margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.registers import Register, RegisterPlacement, ReplicaId
from ..core.share_graph import ShareGraph
from ..lower_bounds import algorithm_counters
from ..placement.base import PlacementResult
from ..sim.reconfig import ReconfigAction, ReconfigSchedule, add_edge, apply_action, remove_edge

__all__ = ["PlanDiff", "Planner", "RegisterMove"]


@dataclass(frozen=True)
class RegisterMove:
    """Move one register copy ``source -> target``, anchored at a peer.

    ``anchor`` is a surviving holder of the register; the move compiles to
    ``add_edge(anchor, target, register)`` followed by
    ``remove_edge(anchor, source)``.  ``remove_edge`` drops *every*
    register the anchor–source pair shares, so any others — the
    ``collateral`` — are re-granted to ``source`` right away with one
    ``add_edge`` each.  A re-grant's state transfer is empty (the source
    already holds the history), so collateral costs one cheap epoch, not
    a warming window; the moved register's replication factor never drops
    below its starting value at any intermediate epoch.
    """

    register: Register
    anchor: ReplicaId
    source: ReplicaId
    target: ReplicaId
    #: Registers anchor and source also share, dropped by the
    #: ``remove_edge`` and re-granted to ``source`` immediately after.
    collateral: Tuple[Register, ...] = ()
    #: Why the planner chose it — ``"attract"`` or ``"shed"``.
    reason: str = "attract"

    def describe(self) -> str:
        return (
            f"{self.reason} {self.register!r}: {self.source} -> {self.target} "
            f"(anchor {self.anchor})"
        )

    def actions(self, start: float, spacing: float) -> Tuple[ReconfigAction, ...]:
        """The reconfiguration actions realising this move."""
        steps = [
            add_edge(start, self.anchor, self.target, register=self.register),
            remove_edge(start + spacing, self.anchor, self.source),
        ]
        for offset, register in enumerate(self.collateral, start=2):
            steps.append(
                add_edge(
                    start + offset * spacing, self.anchor, self.source,
                    register=register,
                )
            )
        return tuple(steps)


@dataclass(frozen=True)
class PlanDiff:
    """A validated, bounded placement diff with its predicted payoff."""

    moves: Tuple[RegisterMove, ...]
    #: The placement the moves produce (validated against the spec).
    placement: RegisterPlacement
    #: Traffic-weighted predicted cost before / after (lower is better).
    predicted_before: float
    predicted_after: float
    validated: Optional[PlacementResult] = field(default=None, compare=False)

    def schedule(self, start: float, spacing: float = 0.001,
                 name: str = "adaptive") -> ReconfigSchedule:
        """The moves as an installable :class:`ReconfigSchedule`."""
        actions: List[ReconfigAction] = []
        at = start
        for move in self.moves:
            steps = move.actions(at, spacing)
            actions.extend(steps)
            at += len(steps) * spacing
        return ReconfigSchedule(name=name, actions=tuple(actions))

    def describe(self) -> str:
        moves = "; ".join(move.describe() for move in self.moves)
        return (
            f"{len(self.moves)} moves ({moves}), predicted cost "
            f"{self.predicted_before:.1f} -> {self.predicted_after:.1f}"
        )


class Planner:
    """Propose bounded diffs from sensed traffic against a placement.

    Parameters
    ----------
    result:
        The :class:`PlacementResult` the run started from — supplies the
        spec (capacity, registers), the replica→node assignment and the
        topology latencies.  The *placement* evolves with the run; the
        assignment is fixed (the controller moves registers, not
        replicas).
    pinned:
        Register → replica copies that may never move (each register's
        home copy, which the workload addresses directly).  Defaults to
        pinning every register at its lowest-id initial holder.
    max_moves:
        Diff budget per proposal.
    margin:
        Required relative predicted improvement (``after`` must be below
        ``before * (1 - margin)``).
    min_writes:
        Window writes below which a register is not considered hot.
    latency_weight / counter_weight:
        Objective mix: milliseconds of traffic-weighted propagation
        latency vs. shipped timestamp counters per window.
    """

    def __init__(
        self,
        result: PlacementResult,
        pinned: Optional[Mapping[Register, ReplicaId]] = None,
        max_moves: int = 2,
        margin: float = 0.05,
        min_writes: int = 4,
        latency_weight: float = 1.0,
        counter_weight: float = 1.0,
    ) -> None:
        self.result = result
        self.spec = result.spec
        self.assignment = dict(result.assignment)
        self._latency = result.topology.all_pairs_latency()
        if pinned is None:
            pinned = {
                register: min(result.placement.replicas_storing(register))
                for register in sorted(result.placement.registers)
            }
        self.pinned = dict(pinned)
        self.max_moves = max_moves
        self.margin = margin
        self.min_writes = min_writes
        self.latency_weight = latency_weight
        self.counter_weight = counter_weight
        #: Where this planner last attracted each register to.  Shed never
        #: displaces a deliberately-attracted copy: when the workload
        #: cycles back, the copy is already in place and the hot phase
        #: starts with zero relocation lag instead of a re-attract.
        self._attracted: Dict[Register, ReplicaId] = {}

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def latency_ms(self, a: ReplicaId, b: ReplicaId) -> float:
        """Base latency between two replicas' assigned nodes."""
        u, v = self.assignment[a], self.assignment[b]
        if u == v:
            return 0.1
        return self._latency[u][v]

    def _has_capacity(self, placement: RegisterPlacement,
                      replica_id: ReplicaId) -> bool:
        capacity = self.spec.capacity
        if capacity is None:
            return True
        return placement.storage_cost(replica_id) < capacity

    # ------------------------------------------------------------------
    # Move feasibility
    # ------------------------------------------------------------------
    def _anchor_for(
        self, placement: RegisterPlacement, register: Register,
        source: ReplicaId,
    ) -> Optional[Tuple[ReplicaId, Tuple[Register, ...]]]:
        """A surviving holder to anchor the move, with its collateral.

        Prefers an anchor sharing *only* this register with ``source`` (no
        collateral to re-grant), the pinned holder first; falls back to
        the pinned or lowest-id holder, whose other shared registers
        become the move's collateral.
        """
        pinned = self.pinned.get(register)
        candidates = [
            rid for rid in placement.replicas_storing(register)
            if rid != source
        ]
        if not candidates:
            return None
        sole = [
            rid for rid in candidates
            if placement.shared_registers(rid, source) == {register}
        ]
        pool = sole or candidates
        anchor = pinned if pinned in pool else min(pool)
        collateral = tuple(sorted(
            placement.shared_registers(anchor, source) - {register}
        ))
        return anchor, collateral

    def _feasible_move(self, placement: RegisterPlacement, register: Register,
                       source: ReplicaId, target: ReplicaId,
                       reason: str) -> Optional[Tuple[RegisterMove, RegisterPlacement]]:
        """Validate one move end to end; returns it with the new placement."""
        if source == target:
            return None
        if self.pinned.get(register) == source:
            return None
        if not placement.stores_register(source, register):
            return None
        if placement.stores_register(target, register):
            return None
        if len(placement.registers_at(source)) <= 1:
            return None
        if not self._has_capacity(placement, target):
            return None
        anchored = self._anchor_for(placement, register, source)
        if anchored is None or anchored[0] == target:
            return None
        anchor, collateral = anchored
        move = RegisterMove(register=register, anchor=anchor, source=source,
                            target=target, collateral=collateral,
                            reason=reason)
        working = placement
        try:
            for action in move.actions(0.0, 1.0):
                working = apply_action(working, action)
                if not ShareGraph.from_placement(working).is_connected():
                    return None
        except Exception:
            return None
        return move, working

    # ------------------------------------------------------------------
    # The predicted objective
    # ------------------------------------------------------------------
    def predicted_cost(self, placement: RegisterPlacement,
                       writes_by_register: Mapping[Register, int],
                       writer_of: Mapping[Register, ReplicaId]) -> float:
        """Traffic-weighted cost of serving the window on ``placement``.

        Every write to register ``x`` at writer ``w`` ships one update to
        each other copy: the latency term charges the writer→copy base
        latencies, the counter term charges ``|E_w|`` timestamp counters
        per shipped message — the measured quantities
        :func:`~repro.placement.score.score_placement` predicts
        statically, weighted by the window's actual write mix.
        """
        graph = ShareGraph.from_placement(placement)
        counters: Dict[ReplicaId, float] = {}
        cost = 0.0
        for register in sorted(writes_by_register):
            writes = writes_by_register[register]
            if writes <= 0:
                continue
            writer = writer_of.get(register, self.pinned.get(register))
            if writer is None or not placement.stores_register(writer, register):
                continue
            copies = [
                rid for rid in placement.replicas_storing(register)
                if rid != writer
            ]
            if writer not in counters:
                counters[writer] = float(algorithm_counters(graph, writer))
            for copy in copies:
                cost += writes * (
                    self.latency_weight * self.latency_ms(writer, copy)
                    + self.counter_weight * counters[writer]
                )
        return cost

    # ------------------------------------------------------------------
    # Proposal
    # ------------------------------------------------------------------
    def propose(self, placement: RegisterPlacement,
                writes_by_register: Mapping[Register, int],
                writes_by_replica: Mapping[ReplicaId, int],
                writer_of: Mapping[Register, ReplicaId]) -> Optional[PlanDiff]:
        """One bounded, validated, margin-beating diff — or ``None``.

        Deterministic in its inputs: candidate enumeration is fully
        sorted, so identical sensed windows propose identical diffs.
        """
        moves: List[RegisterMove] = []
        working = placement

        hot_registers = sorted(
            (r for r, n in writes_by_register.items() if n >= self.min_writes),
            key=lambda r: (-writes_by_register[r], r),
        )

        # Attract: bring each hot register's movable copy next to its
        # window writer.
        for register in hot_registers:
            if len(moves) >= self.max_moves:
                break
            writer = writer_of.get(register)
            if writer is None or not working.stores_register(writer, register):
                continue
            copies = sorted(
                rid for rid in working.replicas_storing(register)
                if rid != writer and self.pinned.get(register) != rid
            )
            targets = sorted(
                (rid for rid in working.replica_ids
                 if rid != writer
                 and not working.stores_register(rid, register)),
                key=lambda rid: (self.latency_ms(writer, rid), rid),
            )
            best: Optional[Tuple[RegisterMove, RegisterPlacement]] = None
            for source in copies:
                current_ms = self.latency_ms(writer, source)
                for target in targets:
                    if self.latency_ms(writer, target) >= current_ms:
                        break
                    candidate = self._feasible_move(
                        working, register, source, target, "attract"
                    )
                    if candidate is not None:
                        best = candidate
                        break
                if best is not None:
                    break
            if best is not None:
                moves.append(best[0])
                working = best[1]
                self._attracted[register] = best[0].target

        # Shed: thin hot writers' neighborhoods by moving their cold
        # registers to idle replicas, cutting shipped counters.  Skipped
        # entirely when counters carry no objective weight — a shed can
        # only pay for its migration window through the counter term.
        hot_writers = sorted(
            (rid for rid, n in writes_by_replica.items() if n >= self.min_writes),
            key=lambda rid: (-writes_by_replica[rid], rid),
        ) if self.counter_weight > 0 else []
        idle_replicas = [
            rid for rid in sorted(working.replica_ids)
            if writes_by_replica.get(rid, 0) < self.min_writes
        ]
        for writer in hot_writers:
            if len(moves) >= self.max_moves:
                break
            graph = ShareGraph.from_placement(working)
            cold = sorted(
                register for register in working.registers_at(writer)
                if writes_by_register.get(register, 0) == 0
                and self.pinned.get(register) != writer
                and self._attracted.get(register) != writer
            )
            for register in cold:
                # Only worth a migration window if it actually removes a
                # share edge (and with it the writer's counters for it).
                sole_link = any(
                    working.shared_registers(writer, peer) == {register}
                    for peer in graph.neighbors(writer)
                )
                if not sole_link:
                    continue
                # Park the copy near the register's home: in a shifting
                # workload the home replica is the likely next writer, so
                # a good shed is also a pre-emptive attract.
                home = self.pinned.get(register, writer)
                candidate = None
                for target in sorted(
                    idle_replicas,
                    key=lambda rid: (self.latency_ms(home, rid), rid),
                ):
                    candidate = self._feasible_move(
                        working, register, writer, target, "shed"
                    )
                    if candidate is not None:
                        break
                if candidate is not None:
                    moves.append(candidate[0])
                    working = candidate[1]
                    break

        if not moves:
            return None

        before = self.predicted_cost(placement, writes_by_register, writer_of)
        after = self.predicted_cost(working, writes_by_register, writer_of)
        if before <= 0 or after >= before * (1.0 - self.margin):
            return None

        try:
            validated = PlacementResult(
                spec=self.spec,
                policy="adaptive",
                seed=self.result.seed,
                assignment=self.assignment,
                placement=working,
            )
        except Exception:
            return None
        if not validated.share_graph.is_connected():
            return None

        return PlanDiff(
            moves=tuple(moves),
            placement=working,
            predicted_before=before,
            predicted_after=after,
            validated=validated,
        )
