"""The paper's algorithm: a replica with an edge-indexed vector timestamp.

:class:`EdgeIndexedReplica` instantiates the algorithm prototype of
Section 2.1 with the timestamp structure, ``advance``, ``merge`` and
delivery predicate ``J`` of Section 3.3:

* the timestamp ``τ_i`` is a vector indexed by the edges ``E_i`` of replica
  ``i``'s timestamp graph (:mod:`repro.core.timestamp_graph`);
* a local write of register ``x`` increments ``τ_i[e_ik]`` for every tracked
  edge towards a replica ``k`` that also stores ``x`` and attaches the
  resulting vector to the outgoing ``update`` messages;
* a pending update from ``k`` with timestamp ``T`` is applied once
  ``τ_i[e_ki] = T[e_ki] − 1`` and ``τ_i[e_ji] ≥ T[e_ji]`` for every other
  commonly indexed incoming edge;
* applying it merges ``T`` into ``τ_i`` by element-wise maximum over the
  commonly indexed edges.

Because an update message carries the *issuer's* timestamp (indexed by
``E_k``), the intersection ``E_i ∩ E_k`` needed by the predicate and the
merge is recovered directly from the two index sets — no replica needs any
global knowledge beyond its own timestamp graph.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .._speedups import tsops
from ..wire.codecs import EDGE_CODEC
from .protocol import CausalReplica, UpdateMessage
from .registers import Register, ReplicaId
from .share_graph import Edge, ShareGraph
from .timestamp_graph import TimestampGraph
from .timestamps import EdgeTimestamp, IndexSet, PlanEntry, incoming_mask, predicate_plan


class EdgeIndexedReplica(CausalReplica):
    """A replica running the paper's edge-indexed timestamp algorithm.

    Parameters
    ----------
    share_graph:
        The system's share graph; determines the registers stored locally,
        the destinations of update messages and the timestamp graph.
    replica_id:
        This replica's id.
    timestamp_graph:
        Optionally a pre-computed timestamp graph (or one with a restricted
        edge set, as used by the bounded-loop-length optimization).  By
        default the exact timestamp graph of Definition 5 is built.
    """

    def __init__(
        self,
        share_graph: ShareGraph,
        replica_id: ReplicaId,
        timestamp_graph: Optional[TimestampGraph] = None,
    ) -> None:
        super().__init__(replica_id, share_graph.registers_at(replica_id))
        self.share_graph = share_graph
        self.timestamp_graph = timestamp_graph or TimestampGraph.build(
            share_graph, replica_id
        )
        #: The current edge-indexed timestamp ``τ_i``.
        self.timestamp: EdgeTimestamp = EdgeTimestamp.zero(self.timestamp_graph.edges)
        self._reset_index_caches()

    def _reset_index_caches(self) -> None:
        """Forget what was derived from ``E_i`` (at construction and on
        every epoch migration)."""
        #: Per position of ``τ_i``: is the entry an incoming edge ``e_ji``?
        self._incoming: List[bool] = incoming_mask(self.timestamp.index, self.replica_id)
        #: ``(edge, new value)`` of the incoming entries raised by the most
        #: recent merge; feeds :meth:`applied_keys`.
        self._changed_incoming: List[Tuple[Edge, int]] = []
        #: ``register -> positions of the outgoing edges advance bumps``.
        self._bumped: Dict[Register, Tuple[int, ...]] = {}
        #: ``register -> C(x)`` minus this replica: the write's destinations.
        self._destinations: Dict[Register, Tuple[ReplicaId, ...]] = {}
        #: ``remote index set -> predicate plan`` (:func:`predicate_plan`).
        self._plans: Dict[IndexSet, Tuple[Tuple[PlanEntry, ...], Tuple[PlanEntry, ...]]] = {}

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------
    def destinations(self, register: Register) -> Sequence[ReplicaId]:
        """Every other replica that stores ``register`` (step 2(iii))."""
        destinations = self._destinations.get(register)
        if destinations is None:
            destinations = self._destinations[register] = tuple(
                rid
                for rid in self.share_graph.replicas_storing(register)
                if rid != self.replica_id
            )
        return destinations

    def make_metadata(self, register: Register) -> Tuple[EdgeTimestamp, int]:
        """``advance``: bump the counters of edges towards co-owners of ``register``."""
        bumped = self._bumped.get(register)
        if bumped is None:
            i = self.replica_id
            position = self.timestamp.index.position
            bumped = self._bumped[register] = tuple(
                position[(i, k)]
                for (j, k) in self.timestamp_graph.edges
                if j == i and register in self.share_graph.shared_registers(i, k)
            )
        self.timestamp = timestamp = self.timestamp.advanced(bumped)
        return timestamp, len(timestamp.values)

    def can_apply(self, message: UpdateMessage) -> bool:
        """Predicate ``J(i, τ_i, k, T)`` of Section 3.3.

        Defined as "nothing blocks the message", so the predicate is
        encoded exactly once — in :meth:`blocking_key` — and the indexed
        apply path cannot drift from the rescan reference.
        """
        return self.blocking_key(message) is None

    def absorb_metadata(self, message: UpdateMessage) -> None:
        """``merge``: element-wise maximum over the commonly indexed edges.

        Also records which incoming entries the merge raised, which is what
        the pending index uses to wake just the plausibly unblocked
        messages (:meth:`applied_keys`).
        """
        tau = self.timestamp
        remote: EdgeTimestamp = message.metadata
        merged, raised = tsops.merge_pairs(
            tau.values, remote.values, tau.index.gather(remote.index)
        )
        if raised:
            self.timestamp = EdgeTimestamp._of(tau.index, merged)
            entries, incoming = tau.index.entries, self._incoming
            self._changed_incoming = [
                (entries[p], merged[p]) for p in raised if incoming[p]
            ]
        else:
            self._changed_incoming = []

    # ------------------------------------------------------------------
    # Pending-index hooks
    # ------------------------------------------------------------------
    def blocking_key(self, message: UpdateMessage) -> Optional[Hashable]:
        """One-pass evaluation of predicate ``J``: ``None``, or a wake key.

        Only the incoming edges matter, at positions the replica's
        predicate plan for the sender's index set holds (built on the first
        message over that set).  Two kinds of key mirror the two kinds of
        conjunct:

        * ``("seq", e_ki, n)`` — the FIFO equality ``τ_i[e_ki] = T[e_ki] − 1``
          failed; the message wakes exactly when ``τ_i[e_ki]`` reaches
          ``n − 1`` (an *exact-value* bucket, so a long run of out-of-order
          messages from one sender costs one recheck per apply, not a
          rescan);
        * ``("ge", e_ji)`` — a monotone conjunct ``τ_i[e_ji] ≥ T[e_ji]``
          failed; the message wakes whenever that entry grows.
        """
        remote = message.metadata
        plan = self._plans.get(remote.index)
        if plan is None:
            plan = self._plans[remote.index] = predicate_plan(
                self.timestamp.index, remote.index, self.replica_id
            )
        return tsops.edge_blocking_key(
            self.timestamp.values, remote.values, message.sender,
            self.replica_id, plan[0], plan[1],
        )

    def applied_keys(self, message: UpdateMessage) -> Iterable[Hashable]:
        """Wake keys for the incoming entries the merge just raised."""
        return self.wake_keys(self._changed_incoming)

    def metadata_size(self) -> int:
        """Number of counters in ``τ_i`` (``|E_i|``)."""
        return self.timestamp.size_counters()

    def wire_codec(self):
        """The sparse edge-indexed timestamp codec (family ``edge``)."""
        return EDGE_CODEC

    # ------------------------------------------------------------------
    # Epoch migration
    # ------------------------------------------------------------------
    def _rebuild_timestamp_graph(self, new_graph: ShareGraph) -> TimestampGraph:
        """Recompute the timestamp graph for a new share graph.

        The bounded-loop restriction (if any) is carried across the epoch;
        the client–server subclass overrides this to use the augmented
        edge set instead.
        """
        return TimestampGraph.build(
            new_graph, self.replica_id,
            max_loop_length=self.timestamp_graph.max_loop_length,
        )

    def migrate(self, new_graph: ShareGraph, epoch: int) -> None:
        """Adopt a new share graph: recompute ``E_i`` and project ``τ_i``.

        Counters of edges present in both epochs are preserved — that is
        what keeps the per-edge FIFO chains (the ``τ_i[e_ki] = T[e_ki]−1``
        conjuncts) intact across the transition.  Removed edges are
        garbage-collected; new edges start at zero, which is their true
        count since no update was ever stamped on them.  The base-class
        half re-keys the pending buffer and adjusts the register store.
        """
        self.share_graph = new_graph
        self.timestamp_graph = self._rebuild_timestamp_graph(new_graph)
        self.timestamp = self.timestamp.migrated(self.timestamp_graph.edges)
        self._reset_index_caches()
        self._migrate_common(new_graph.registers_at(self.replica_id), epoch)


def edge_indexed_factory(graph: ShareGraph, replica_id: ReplicaId) -> CausalReplica:
    """The default replica factory of both runtimes: the paper's algorithm.

    A module-level callable, so a live cluster can pickle it into its
    spawned node processes.
    """
    return EdgeIndexedReplica(graph, replica_id)
