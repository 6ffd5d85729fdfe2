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
from .timestamps import EdgeTimestamp


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
        #: The incoming edges ``e_ji ∈ E_i`` — the only entries the delivery
        #: predicate reads — in deterministic order, so the hot path never
        #: materialises the full edge-set intersection.
        self._incoming_edges: Tuple[Tuple[ReplicaId, ReplicaId], ...] = tuple(
            sorted(e for e in self.timestamp_graph.edges if e[1] == replica_id)
        )
        #: ``(edge, new value)`` of the incoming entries raised by the most
        #: recent merge; feeds :meth:`applied_keys`.
        self._changed_incoming: List[Tuple[Tuple[ReplicaId, ReplicaId], int]] = []
        #: ``register -> the outgoing edges advance bumps on a write of it``,
        #: filled on first write and cleared when ``E_i`` changes.
        self._bumped: Dict[Register, Tuple[Edge, ...]] = {}

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------
    def destinations(self, register: Register) -> Sequence[ReplicaId]:
        """Every other replica that stores ``register`` (step 2(iii))."""
        return tuple(
            rid
            for rid in self.share_graph.replicas_storing(register)
            if rid != self.replica_id
        )

    def make_metadata(self, register: Register) -> Tuple[EdgeTimestamp, int]:
        """``advance``: bump the counters of edges towards co-owners of ``register``."""
        bumped = self._bumped.get(register)
        if bumped is None:
            i = self.replica_id
            bumped = self._bumped[register] = tuple(
                (i, k)
                for (j, k) in self.timestamp_graph.edges
                if j == i and register in self.share_graph.shared_registers(i, k)
            )
        self.timestamp = self.timestamp.incremented(bumped)
        return self.timestamp, self.timestamp.size_counters()

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
        remote: EdgeTimestamp = message.metadata
        merged, changed = tsops.merge_intersection(
            self.timestamp.counters, remote.counters, self.replica_id
        )
        self.timestamp = self.timestamp.successor(merged)
        self._changed_incoming = changed

    # ------------------------------------------------------------------
    # Pending-index hooks
    # ------------------------------------------------------------------
    def blocking_key(self, message: UpdateMessage) -> Optional[Hashable]:
        """One-pass evaluation of predicate ``J``: ``None``, or a wake key.

        Only the incoming edges of ``E_i`` that are also indexed by the
        sender matter, so the scan walks the precomputed incoming-edge
        list instead of materialising ``E_i ∩ E_k``.  Two kinds of key
        mirror the two kinds of conjunct:

        * ``("seq", e_ki, n)`` — the FIFO equality ``τ_i[e_ki] = T[e_ki] − 1``
          failed; the message wakes exactly when ``τ_i[e_ki]`` reaches
          ``n − 1`` (an *exact-value* bucket, so a long run of out-of-order
          messages from one sender costs one recheck per apply, not a
          rescan);
        * ``("ge", e_ji)`` — a monotone conjunct ``τ_i[e_ji] ≥ T[e_ji]``
          failed; the message wakes whenever that entry grows.
        """
        return tsops.edge_blocking_key(
            self.timestamp.counters,
            message.metadata.counters,
            message.sender,
            self.replica_id,
            self._incoming_edges,
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
        self._incoming_edges = tuple(
            sorted(e for e in self.timestamp_graph.edges if e[1] == self.replica_id)
        )
        self._changed_incoming = []
        self._bumped = {}
        self._migrate_common(new_graph.registers_at(self.replica_id), epoch)


def edge_indexed_factory(graph: ShareGraph, replica_id: ReplicaId) -> CausalReplica:
    """The default replica factory of both runtimes: the paper's algorithm.

    A module-level callable, so a live cluster can pickle it into its
    spawned node processes.
    """
    return EdgeIndexedReplica(graph, replica_id)
