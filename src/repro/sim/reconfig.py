"""Dynamic membership: epoch-based share-graph reconfiguration.

The paper fixes the replica set and share graph up front; every hoop,
timestamp graph and lower bound is computed once and frozen.  This module
lets all of that change *mid-run* — replicas join and leave, share-graph
edges appear and disappear — while causal consistency keeps holding across
the transition:

* a declarative :class:`ReconfigSchedule` (built from :func:`join`,
  :func:`leave`, :func:`add_edge`, :func:`remove_edge` actions) that a
  :class:`ReconfigManager` installs as first-class kernel events (timers of
  rank 1, :class:`~repro.sim.engine.TimerEvent`);
* an **epoch protocol**: the coordinator stamps each configuration with an
  epoch.  A change opens a *migration window* (client operations at the
  affected replicas are rejected — the availability cost), and commits by
  first **completing the old epoch** — a virtual-synchrony-style flush that
  delivers every in-flight, parked and unacknowledged old-epoch message and
  runs the apply fixpoint, so no old-epoch frame survives into the new
  configuration (stale frames would carry timestamps indexed by edges that
  no longer exist; the wire layer rejects them cleanly);
* **migration**: every surviving replica recomputes its timestamp graph for
  the new share graph and projects its timestamp onto the new edge set —
  surviving counters are preserved (keeping per-edge FIFO chains intact),
  removed edges are garbage-collected, new edges start at zero
  (:meth:`~repro.core.timestamps.EdgeTimestamp.migrated`);
* **state transfer**: joiners — and survivors that gained registers through
  an edge change — receive the gained registers' update history as a
  bootstrap stream: ordinary messages through the transport (so the
  sent-log, delays, batching and the crash-recovery resync all apply — a
  joiner that crashes mid-transfer recovers through exactly the same
  anti-entropy path as any other crashed replica), topologically sorted
  along ``↪`` by the coordinator and applied strictly in order behind a
  gate that holds back all normal traffic until the stream completes;
* **safety under faults**: a commit is deferred while a partition is open,
  a member is down, or a previous transfer is still running — the
  coordinator commits only when it can reach a stable membership, and
  resumes automatically when the fault clears.

Attach a :class:`ReconfigManager` to either architecture's host; everything
is inert (one ``reconfig_manager is None`` check) without one.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass
from typing import (
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.causal import HappenedBefore
from ..core.errors import ReconfigurationError, UnknownRegisterError
from ..core.host import FaultRecord
from ..core.protocol import BootstrapMetadata, ReplicaEvent, Update, UpdateId, UpdateMessage
from ..core.registers import Register, RegisterPlacement, ReplicaId
from ..core.share_graph import ShareGraph
from ..wire.membership import MembershipChange, encode_membership_change
from .engine import DeliveryEvent, SimulationHost

__all__ = [
    "EpochMark",
    "ReconfigAction",
    "ReconfigManager",
    "ReconfigSchedule",
    "add_edge",
    "apply_action",
    "join",
    "leave",
    "membership_change_of",
    "random_churn_schedule",
    "remove_edge",
    "topological_update_order",
]


# ======================================================================
# Declarative reconfiguration actions and schedules
# ======================================================================

@dataclass(frozen=True)
class ReconfigAction:
    """One scheduled configuration change.

    Build these with the module-level constructors (:func:`join`,
    :func:`leave`, :func:`add_edge`, :func:`remove_edge`) rather than by
    hand.  ``time`` is the *earliest* instant the change's migration window
    may open; the coordinator serialises overlapping changes.
    """

    time: float
    kind: str  # "join" | "leave" | "add_edge" | "remove_edge"
    replica_id: Optional[ReplicaId] = None
    registers: FrozenSet[Register] = frozenset()
    edge: Optional[Tuple[ReplicaId, ReplicaId]] = None
    register: Optional[Register] = None
    #: For joins: registers simultaneously granted to existing replicas
    #: (``{anchor: registers}``), so a joiner can attach through a fresh
    #: register without a second action.
    grants: Tuple[Tuple[ReplicaId, FrozenSet[Register]], ...] = ()
    #: For joins on measured topologies: the topology node hosting the
    #: joiner.  ``None`` co-hosts it with its first share-graph neighbor.
    node: Optional[str] = None

    def describe(self) -> str:
        """Human-readable one-liner for timelines and tables."""
        if self.kind == "join":
            regs = ",".join(sorted(self.registers))
            return f"join replica {self.replica_id} storing {{{regs}}}"
        if self.kind == "leave":
            return f"leave replica {self.replica_id}"
        if self.kind == "add_edge":
            i, j = self.edge
            return f"add edge {i}<->{j} via register {self.register!r}"
        if self.kind == "remove_edge":
            i, j = self.edge
            return f"remove edge {i}<->{j}"
        return self.kind


def join(time: float, replica_id: ReplicaId,
         registers: Iterable[Register],
         grants: Optional[Mapping[ReplicaId, Iterable[Register]]] = None,
         node: Optional[str] = None,
         ) -> ReconfigAction:
    """A replica joins, storing ``registers``.

    Existing register names join their replication groups — which triggers
    state transfer of their history to the joiner; fresh names start
    empty.  ``grants`` optionally places registers at existing replicas in
    the same change (the usual way to attach a joiner through a *fresh*
    shared register: grant it to the anchor too).  ``node`` places the
    joiner on a topology node when the run uses a measured
    :class:`~repro.topo.delays.LatencyDelayModel`; without one the joiner
    is co-hosted with its first share-graph neighbor.
    """
    return ReconfigAction(
        time=time, kind="join", replica_id=replica_id,
        registers=frozenset(str(r) for r in registers),
        grants=tuple(
            (rid, frozenset(str(r) for r in regs))
            for rid, regs in sorted((grants or {}).items())
        ),
        node=str(node) if node is not None else None,
    )


def leave(time: float, replica_id: ReplicaId) -> ReconfigAction:
    """A replica leaves; registers it alone stored leave the system with it."""
    return ReconfigAction(time=time, kind="leave", replica_id=replica_id)


def add_edge(time: float, i: ReplicaId, j: ReplicaId,
             register: Optional[Register] = None) -> ReconfigAction:
    """Create (or thicken) the share-graph edge ``i <-> j``.

    ``register`` defaults to a fresh ``link_i_j`` name stored at both
    endpoints; naming an *existing* register instead places it at whichever
    endpoints lack it, which triggers state transfer of its history.
    """
    return ReconfigAction(
        time=time, kind="add_edge", edge=(i, j),
        register=str(register) if register is not None else f"link_{i}_{j}",
    )


def remove_edge(time: float, i: ReplicaId, j: ReplicaId) -> ReconfigAction:
    """Remove the share-graph edge ``i <-> j``.

    Replica ``j`` drops every register it shares with ``i`` (``X_ij``); the
    copies at ``i`` — and at any third replica — survive, so no register is
    orphaned by the change.
    """
    return ReconfigAction(time=time, kind="remove_edge", edge=(i, j))


def apply_action(placement: RegisterPlacement,
                 action: ReconfigAction) -> RegisterPlacement:
    """The new placement produced by one action (pure; raises on invalid)."""
    if action.kind == "join":
        placement = placement.with_replica(action.replica_id, action.registers)
        if action.grants:
            placement = placement.with_additional_registers(
                {rid: regs for rid, regs in action.grants}
            )
        return placement
    if action.kind == "leave":
        if placement.num_replicas <= 1:
            raise ReconfigurationError("cannot remove the last replica")
        return placement.without_replica(action.replica_id)
    if action.kind == "add_edge":
        i, j = action.edge
        extra: Dict[ReplicaId, Set[Register]] = {}
        for rid in (i, j):
            if not placement.stores_register(rid, action.register):
                extra.setdefault(rid, set()).add(action.register)
        if not extra:
            raise ReconfigurationError(
                f"register {action.register!r} is already stored at both "
                f"endpoints of edge {action.edge}"
            )
        return placement.with_additional_registers(extra)
    if action.kind == "remove_edge":
        i, j = action.edge
        shared = placement.shared_registers(i, j)
        if not shared:
            raise ReconfigurationError(f"no share-graph edge between {i} and {j}")
        return placement.without_registers_at(j, shared)
    raise ReconfigurationError(f"unknown reconfiguration kind {action.kind!r}")


def membership_change_of(old: RegisterPlacement, new: RegisterPlacement,
                         epoch: int) -> MembershipChange:
    """The wire-level announcement describing ``old -> new`` (epoch commit)."""
    old_ids = set(old.replica_ids)
    new_ids = set(new.replica_ids)
    joins = {rid: new.registers_at(rid) for rid in sorted(new_ids - old_ids)}
    leaves = tuple(sorted(old_ids - new_ids))
    grants: Dict[ReplicaId, FrozenSet[Register]] = {}
    revokes: Dict[ReplicaId, FrozenSet[Register]] = {}
    for rid in sorted(old_ids & new_ids):
        gained = new.registers_at(rid) - old.registers_at(rid)
        lost = old.registers_at(rid) - new.registers_at(rid)
        if gained:
            grants[rid] = gained
        if lost:
            revokes[rid] = lost
    return MembershipChange(
        epoch=epoch, joins=joins, leaves=leaves, grants=grants, revokes=revokes,
    )


@dataclass(frozen=True)
class ReconfigSchedule:
    """A named, replayable sequence of configuration changes.

    Schedules are plain data — like workloads and fault schedules — so the
    same churn replays identically on both architectures under the same
    network seed.
    """

    name: str
    actions: Tuple[ReconfigAction, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.actions, key=lambda a: a.time))
        object.__setattr__(self, "actions", ordered)

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def duration(self) -> float:
        """The time of the last scheduled action (0.0 when empty)."""
        return self.actions[-1].time if self.actions else 0.0

    def placements_over(
        self, initial: RegisterPlacement, window: float = 0.0
    ) -> List[Tuple[float, RegisterPlacement]]:
        """The configuration timeline ``[(effective time, placement), …]``.

        Each action takes effect ``window`` after its scheduled time (the
        commit instant under an uncontended :class:`ReconfigManager` with
        that window).  Used to generate workloads that target the changing
        replica set (:func:`repro.sim.workloads.poisson_workload_dynamic`).
        """
        timeline = [(0.0, initial)]
        placement = initial
        for action in self.actions:
            placement = apply_action(placement, action)
            timeline.append((action.time + window, placement))
        return timeline


def random_churn_schedule(
    placement: RegisterPlacement,
    duration: float,
    joins: int = 1,
    leaves: int = 0,
    edge_changes: int = 0,
    seed: int = 0,
    join_style: str = "leaf",
    name: str = "random-churn",
) -> ReconfigSchedule:
    """A seeded churn schedule over an existing placement.

    Two join styles:

    * ``"leaf"`` — the joiner attaches to a random member through one
      *fresh* shared register (granted to the anchor in the same change).
      A tree stays a tree, so the Section-4 closed-form bounds keep
      applying at every epoch; no state transfer is needed (the fresh
      register has no history).
    * ``"group"`` — the joiner additionally joins the replication group of
      one *existing* register of its anchor, which triggers state transfer
      of that register's history.

    Leaves remove replicas of share-degree ≤ 1 where possible; edge
    changes place an existing register of one endpoint at a random
    non-adjacent other (the gainer receives its history via state
    transfer).  Actions are spread uniformly over ``[0.2, 0.8] ×
    duration`` and the whole schedule is deterministic in ``seed``.
    """
    if join_style not in ("leaf", "group"):
        raise ReconfigurationError(f"unknown join_style {join_style!r}")
    rng = random.Random(seed)
    actions: List[ReconfigAction] = []
    current = placement
    next_id = max(placement.replica_ids) + 1
    total = joins + leaves + edge_changes
    if total == 0:
        return ReconfigSchedule(name=name, actions=())
    times = sorted(rng.uniform(0.2 * duration, 0.8 * duration) for _ in range(total))
    kinds = ["join"] * joins + ["leave"] * leaves + ["edge"] * edge_changes
    rng.shuffle(kinds)
    for at, kind in zip(times, kinds):
        graph = ShareGraph.from_placement(current)
        if kind == "join":
            anchor = rng.choice(list(current.replica_ids))
            link = f"churn_{next_id}_{anchor}"
            registers = {link}
            if join_style == "group":
                anchored = sorted(current.registers_at(anchor))
                if anchored:
                    registers.add(rng.choice(anchored))
            action = join(at, next_id, registers, grants={anchor: {link}})
            next_id += 1
        elif kind == "leave":
            if current.num_replicas <= 2:
                raise ReconfigurationError(
                    "cannot schedule a leave on a placement of "
                    f"{current.num_replicas} replicas"
                )
            candidates = [
                rid for rid in current.replica_ids if graph.degree(rid) <= 1
            ] or list(current.replica_ids)
            victim = rng.choice(candidates)
            action = leave(at, victim)
        else:
            pairs = [
                (a, b)
                for a in current.replica_ids
                for b in current.replica_ids
                if a < b and not graph.has_edge(a, b)
                and current.registers_at(a)
            ]
            if not pairs:
                continue
            a, b = rng.choice(pairs)
            register = sorted(current.registers_at(a))[0]
            action = add_edge(at, a, b, register=register)
        current = apply_action(current, action)
        actions.append(action)
    return ReconfigSchedule(name=name, actions=tuple(actions))


# ======================================================================
# Coordinator-side causal ordering
# ======================================================================

def topological_update_order(
    events_by_replica: Mapping[ReplicaId, Sequence[ReplicaEvent]],
) -> Tuple[List[UpdateId], Dict[UpdateId, Update]]:
    """A deterministic linearisation of all issued updates along ``↪``.

    Kahn's algorithm over the direct happened-before edges with a
    uid-ordered heap as the tie-break, so two same-seed runs compute the
    identical order.  Returns the ordered uids and the uid → update map.
    """
    relation = HappenedBefore.from_events(events_by_replica)
    indegree: Dict[UpdateId, int] = {uid: 0 for uid in relation.updates}
    successors: Dict[UpdateId, List[UpdateId]] = {}
    for a, b in relation.direct_edges:
        if a in indegree and b in indegree:
            successors.setdefault(a, []).append(b)
            indegree[b] += 1
    ready = [uid for uid, degree in sorted(indegree.items()) if degree == 0]
    heapq.heapify(ready)
    order: List[UpdateId] = []
    while ready:
        uid = heapq.heappop(ready)
        order.append(uid)
        for nxt in sorted(successors.get(uid, ())):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, nxt)
    return order, relation.updates


# ======================================================================
# The coordinator
# ======================================================================

@dataclass(frozen=True)
class EpochMark:
    """Traffic-counter snapshot at one epoch boundary (feeds E17)."""

    epoch: int
    time: float
    share_graph: ShareGraph
    messages_sent: int
    timestamp_bytes_sent: int
    metadata_counters_sent: int


class ReconfigManager:
    """Drives a reconfiguration schedule against a simulated deployment.

    Attaching a manager switches the host onto the dynamic-membership path:
    client operations consult :meth:`rejecting` (state transfer rides the
    transport's sent-log/resync machinery, like crash recovery), and scheduled
    reconfiguration steps replay deterministically
    against the rest of the event stream.

    Parameters
    ----------
    host:
        Any :class:`~repro.sim.engine.SimulationHost` whose architecture
        implements the membership hooks (both shipped architectures do).
    window:
        Simulated time between a change's window opening and its commit —
        the modelled coordination cost of the change.  During the window
        the affected replicas reject client operations; the commit may be
        further deferred by open partitions, crashed members or a running
        state transfer.
    """

    def __init__(self, host: SimulationHost, window: float = 5.0) -> None:
        if host.reconfig_manager is not None:
            raise ReconfigurationError("host already has a reconfiguration manager")
        if window < 0:
            raise ReconfigurationError("migration window must be non-negative")
        self.host = host
        host.reconfig_manager = self
        self.window = window
        self._queue: Deque[ReconfigAction] = deque()
        self._active: Optional[ReconfigAction] = None
        self._window_opened_at: Optional[float] = None
        self._affected: FrozenSet[ReplicaId] = frozenset()
        self._deferred = False
        #: Replicas still applying a state-transfer stream: rid -> commit time.
        self._warming: Dict[ReplicaId, float] = {}
        #: Ids that left the configuration; they may not rejoin (their trace
        #: is frozen, and a fresh id keeps every trace unambiguous).
        self._retired: Set[ReplicaId] = set()
        self.epoch_marks: List[EpochMark] = [self._mark()]

    # ------------------------------------------------------------------
    # Declarative installation
    # ------------------------------------------------------------------
    def install(self, schedule: ReconfigSchedule) -> None:
        """Schedule every action as a kernel reconfiguration event."""
        for action in schedule.actions:
            def begin(host: SimulationHost, time: float, action=action) -> None:
                self._begin(action)

            self.host.schedule_reconfig_at(action.time, begin, kind=action.kind)

    # ------------------------------------------------------------------
    # Queries used by the host
    # ------------------------------------------------------------------
    def rejecting(self, replica_id: ReplicaId) -> bool:
        """Client operations at ``replica_id`` are rejected right now.

        True inside a migration window for the replicas the active change
        affects, and at any replica still applying a state-transfer stream.
        """
        if self._active is not None and replica_id in self._affected:
            return True
        return replica_id in self._warming

    @property
    def migrating(self) -> bool:
        """``True`` while a change is between window-open and commit."""
        return self._active is not None

    def warming_replicas(self) -> FrozenSet[ReplicaId]:
        """Replicas whose state-transfer stream has not completed yet."""
        return frozenset(self._warming)

    # ------------------------------------------------------------------
    # Host callbacks
    # ------------------------------------------------------------------
    def note_applies(self, replica_id: ReplicaId, applied: Sequence[Update],
                     now: float) -> None:
        """Close a warming window once its transfer stream has fully applied."""
        started = self._warming.get(replica_id)
        if started is None:
            return
        replica = self.host._replica(replica_id)
        if replica.bootstrapping:
            return
        del self._warming[replica_id]
        metrics = self.host.metrics
        metrics.downtime.setdefault(replica_id, []).append((started, now))
        metrics.reconfig_timeline.append(
            FaultRecord(now, "transfer-complete", f"replica {replica_id}")
        )
        self._maybe_resume()

    def notify_fault_cleared(self) -> None:
        """Called by the fault injector after a heal or restart."""
        self._maybe_resume()

    # ------------------------------------------------------------------
    # The epoch protocol
    # ------------------------------------------------------------------
    def _begin(self, action: ReconfigAction) -> None:
        self._queue.append(action)
        self._pump()

    def _pump(self) -> None:
        """Open the next queued change's window, if none is active."""
        if self._active is not None or not self._queue:
            return
        action = self._queue.popleft()
        self._validate(action)
        host = self.host
        self._active = action
        self._window_opened_at = host.now
        self._affected = frozenset(
            rid for rid in self._named_replicas(action) if host.is_member(rid)
        )
        host.metrics.reconfig_timeline.append(
            FaultRecord(host.now, "reconfig-window", action.describe())
        )

        def commit(h: SimulationHost, time: float) -> None:
            self._attempt_commit()

        host.schedule_reconfig_at(host.now + self.window, commit, kind="commit")

    @staticmethod
    def _named_replicas(action: ReconfigAction) -> Tuple[ReplicaId, ...]:
        if action.kind in ("join", "leave"):
            return (action.replica_id,)
        return action.edge

    def _validate(self, action: ReconfigAction) -> None:
        # Structural validation happens in apply_action at commit time,
        # against the placement the change actually applies to; only the
        # retired-id rule needs coordinator state.
        if action.kind == "join" and action.replica_id in self._retired:
            raise ReconfigurationError(
                f"replica id {action.replica_id!r} left the configuration "
                "and may not rejoin; use a fresh id"
            )

    def _blocked(self) -> Optional[str]:
        """Why the active change cannot commit right now (``None`` = go)."""
        host = self.host
        if host.network.partitioned:
            return "partition open"
        injector = host.fault_injector
        if injector is not None and injector.down_replicas:
            down = ",".join(str(r) for r in sorted(injector.down_replicas))
            return f"members down: {down}"
        if self._warming:
            warming = ",".join(str(r) for r in sorted(self._warming))
            return f"state transfer running: {warming}"
        return None

    def _maybe_resume(self) -> None:
        if self._active is not None:
            if self._deferred:
                self._attempt_commit()
        else:
            self._pump()

    def _attempt_commit(self) -> None:
        if self._active is None:
            return
        reason = self._blocked()
        if reason is not None:
            if not self._deferred:
                self._deferred = True
                self.host.metrics.reconfig_timeline.append(
                    FaultRecord(self.host.now, "reconfig-deferred", reason)
                )
            return
        self._deferred = False
        self._commit(self._active)

    def _commit(self, action: ReconfigAction) -> None:
        host = self.host
        now = host.now
        old_placement = host.share_graph.placement
        new_placement = apply_action(old_placement, action)
        epoch = host.epoch + 1
        change = membership_change_of(old_placement, new_placement, epoch)

        # 1. Complete the old epoch: no old-epoch frame survives the commit.
        self._flush_old_epoch()

        new_graph = ShareGraph.from_placement(new_placement)
        old_ids = set(old_placement.replica_ids)
        new_ids = set(new_placement.replica_ids)
        joiners = sorted(new_ids - old_ids)
        leavers = sorted(old_ids - new_ids)
        gained: Dict[ReplicaId, FrozenSet[Register]] = {
            rid: new_placement.registers_at(rid) - old_placement.registers_at(rid)
            for rid in sorted(new_ids & old_ids)
        }
        transfer: Dict[ReplicaId, FrozenSet[Register]] = {
            rid: new_placement.registers_at(rid) for rid in joiners
        }
        for rid, registers in gained.items():
            if registers:
                transfer[rid] = registers

        # The coordinator's global ↪ order is only built when something
        # needs it: residual pending messages (rare — the flush normally
        # drains everything), or gained registers with actual history (a
        # fresh register's empty stream needs no order).  The common leaf
        # join and plain leave therefore skip the O(total updates) pass.
        traces = host.events_by_replica()
        residual = any(
            host._replica(rid).pending_count() for rid in host._replica_map()
        )
        gained_all = frozenset().union(*transfer.values()) if transfer else frozenset()
        has_history = gained_all and any(
            event.update is not None and event.update.register in gained_all
            for events in traces.values()
            for event in events
        )
        order: Sequence[UpdateId] = ()
        updates: Mapping[UpdateId, Update] = {}
        if residual or has_history:
            order, updates = topological_update_order(traces)
        if residual:
            self._drain_residual(order)

        # 2. Install the new configuration.
        for rid in leavers:
            host._retire_trace(rid)
            host._remove_member(rid)
            host.network.forget_replica(rid)
            self._retired.add(rid)
        host._migrate_members(new_graph, epoch)
        for rid in joiners:
            self._assign_topology_node(rid, action, new_graph)
            host._add_member(rid, new_graph, epoch)
        host.epoch = epoch
        host.share_graph = new_graph
        host.epoch_history.append((now, new_graph))
        host.network.restart_delta_streams()

        # 3. Book-keeping: metrics, availability, announcement bytes.
        metrics = host.metrics
        metrics.reconfigs += 1
        metrics.migration_windows.append((self._window_opened_at, now))
        for rid in sorted(self._affected & new_ids):
            metrics.downtime.setdefault(rid, []).append(
                (self._window_opened_at, now)
            )
        frame = encode_membership_change(change)
        host.network.stats.reconfig_bytes_sent += len(frame) * len(new_ids)
        metrics.reconfig_timeline.append(
            FaultRecord(now, "reconfig-commit", change.describe())
        )

        # 4. State transfer to joiners and register-gainers.
        for rid in sorted(transfer):
            self._send_bootstrap(
                rid, transfer[rid], order, updates, old_placement, epoch
            )

        self.epoch_marks.append(self._mark())
        self._active = None
        self._window_opened_at = None
        self._affected = frozenset()
        self._pump()

    def _assign_topology_node(self, replica_id: ReplicaId,
                              action: ReconfigAction,
                              new_graph: ShareGraph) -> None:
        """Extend a measured delay model's channel table for a joiner.

        Unwraps fate-wrapper chains (``.inner``) to reach the underlying
        model; inert unless that model has an ``assign`` hook (i.e. a
        :class:`~repro.topo.delays.LatencyDelayModel`).  An explicit
        ``action.node`` wins; otherwise the joiner is co-hosted with its
        first already-assigned share-graph neighbor, so schedules that
        predate the knob (``random_churn_schedule``) keep working.
        """
        model = self.host.network.delay_model
        while not hasattr(model, "assign") and hasattr(model, "inner"):
            model = model.inner
        if not hasattr(model, "assign"):
            return
        node = action.node
        if node is None:
            for peer in sorted(new_graph.neighbors(replica_id)):
                peer_node = model.node_of(peer)
                if peer_node is not None:
                    node = peer_node
                    break
        if node is None:
            raise ReconfigurationError(
                f"cannot place joiner {replica_id!r} on topology "
                f"{model.topology.name!r}: no node given and no assigned "
                "share-graph neighbor to co-host with"
            )
        model.assign(replica_id, node)

    # ------------------------------------------------------------------
    # Commit phases
    # ------------------------------------------------------------------
    def _flush_old_epoch(self) -> None:
        """Deliver every undelivered old-epoch message at the boundary.

        The virtual-synchrony flush: open batching windows are closed,
        scheduled deliveries are extracted from the kernel in firing order,
        parked (held) traffic is released, and the copies the resend timers
        wait on are delivered directly.  Deliveries can produce new traffic
        (a served client write multicasts), so the loop repeats — with the
        apply/serve fixpoint folded in — until the old epoch is quiescent.
        """
        host = self.host
        network = host.network
        progress = True
        while progress:
            progress = False
            network.flush_open_batches()
            # Each source is claimed only once the previous one's
            # deliveries are done: a delivery settles its copy, which
            # is then no longer outstanding, and a serve it unblocks can
            # multicast new old-epoch messages onto a still-held channel —
            # left parked, they would be stranded as stale frames after the
            # epoch bump, so parked traffic is claimed on *every* iteration.
            for claim in (
                lambda: host.kernel.extract(lambda e: isinstance(e, DeliveryEvent)),
                network.take_held,
                network.take_outstanding,
            ):
                for event in claim():
                    progress = True
                    host._fire_delivery(event, host.now)
            if host._apply_fixpoint():
                progress = True

    def _drain_residual(self, order: Sequence[UpdateId]) -> None:
        """Apply messages still pending after the flush, in coordinator order.

        Normally a no-op: the flush plus the fixpoint drain every buffer.
        A message can stay blocked only when the edges that certify its
        dependencies are about to disappear with the change; the
        coordinator — which knows the global ``↪`` order — applies those in
        a causally valid sequence instead of leaving them stranded.
        """
        host = self.host
        position = {uid: index for index, uid in enumerate(order)}
        for rid in sorted(host._replica_map()):
            replica = host._replica(rid)
            if not replica.pending_count():
                continue
            buffered = dict(replica.pending)
            forced = sorted(buffered, key=lambda u: position.get(u, len(position)))
            for uid in forced:
                replica.force_apply(buffered[uid], host.now)
            host.metrics.reconfig_forced_applies += len(forced)
            host._note_applies(replica, [buffered[uid].update for uid in forced],
                               host.now)
        host._apply_fixpoint()

    def _send_bootstrap(
        self,
        replica_id: ReplicaId,
        registers: FrozenSet[Register],
        order: Sequence[UpdateId],
        updates: Mapping[UpdateId, Update],
        old_placement: RegisterPlacement,
        epoch: int,
    ) -> None:
        """Replay the gained registers' history as a gated transfer stream.

        A replica that *re-gains* a register it once stored already holds a
        prefix of that history, and the register's last value from it:
        the updates in its trace are left out of the stream.  Its frontier
        cannot say which those are — history the replica never received
        sits below it too.
        """
        host = self.host
        replica = host._replica(replica_id)
        held = {update.uid for update in replica.events.updates()}
        stream = [
            updates[uid] for uid in order
            if updates[uid].register in registers and uid not in held
        ]
        if not stream:
            return
        replica.begin_bootstrap(len(stream))
        self._warming[replica_id] = host.now
        host.metrics.reconfig_timeline.append(
            FaultRecord(
                host.now, "transfer-start",
                f"replica {replica_id}: {len(stream)} updates",
            )
        )
        members = [rid for rid in sorted(host._replica_map()) if rid != replica_id]
        for index, update in enumerate(stream):
            sponsor = self._sponsor(update, replica_id, old_placement, members)
            host.network.send(
                UpdateMessage(
                    update=update,
                    sender=sponsor,
                    destination=replica_id,
                    metadata=BootstrapMetadata(
                        index=index, total=len(stream), epoch=epoch
                    ),
                    metadata_size=0,
                    payload=True,
                    epoch=epoch,
                )
            )

    @staticmethod
    def _sponsor(update: Update, destination: ReplicaId,
                 old_placement: RegisterPlacement,
                 members: Sequence[ReplicaId]) -> ReplicaId:
        """The member that replays one history update to a gainer.

        Prefers the lowest-id surviving member that stored the register in
        the old configuration (it durably holds the update); falls back to
        the lowest-id member, standing in for the coordinator's own log.
        """
        try:
            owners = old_placement.replicas_storing(update.register)
        except UnknownRegisterError:
            owners = ()
        for rid in owners:
            if rid != destination and rid in members:
                return rid
        return members[0]

    # ------------------------------------------------------------------
    # Epoch traffic marks (E17)
    # ------------------------------------------------------------------
    def _mark(self) -> EpochMark:
        host = self.host
        stats = host.network.stats
        return EpochMark(
            epoch=host.epoch,
            time=host.now,
            share_graph=host.share_graph,
            messages_sent=stats.messages_sent,
            timestamp_bytes_sent=stats.timestamp_bytes_sent,
            metadata_counters_sent=stats.metadata_counters_sent,
        )

    def epoch_segments(self) -> List[Dict[str, object]]:
        """Per-epoch traffic deltas between consecutive boundary marks.

        The last segment runs from the final commit to *now*.  Each entry
        reports the epoch, its share graph, and the messages / timestamp
        bytes / metadata counters sent while it was active — the data E17
        compares against each configuration's closed-form bound.
        """
        marks = self.epoch_marks + [self._mark()]
        segments: List[Dict[str, object]] = []
        for previous, current in zip(marks[:-1], marks[1:]):
            segments.append(
                {
                    "epoch": previous.epoch,
                    "share_graph": previous.share_graph,
                    "start": previous.time,
                    "end": current.time,
                    "messages": current.messages_sent - previous.messages_sent,
                    "timestamp_bytes": (
                        current.timestamp_bytes_sent - previous.timestamp_bytes_sent
                    ),
                    "counters": (
                        current.metadata_counters_sent
                        - previous.metadata_counters_sent
                    ),
                }
            )
        return segments
