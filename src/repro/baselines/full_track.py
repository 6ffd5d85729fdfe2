"""A Full-Track-style matrix clock (after Shen, Kshemkalyani & Hsu, 2015).

Full-Track achieves causal consistency under partial replication by having
every replica maintain, for every ordered pair of replicas ``(j, k)``, a
count of the updates issued by ``j`` that are destined to ``k`` — an
``R × (R−1)`` matrix regardless of how sparse the share graph is.  It is the
natural "track everything about everybody" point in the design space and
therefore a useful upper baseline for metadata comparisons: the paper's
edge-indexed timestamps never index more pairs than Full-Track, and on sparse
share graphs they index far fewer.

The adaptation to the replica-centric model is direct: the matrix entries
for pairs that share no register simply stay at zero, but they are still
carried (that is the point of the baseline — it does not exploit the share
graph's structure).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Sequence, Tuple

from .._speedups import tsops
from ..core.protocol import CausalReplica, UpdateMessage
from ..core.registers import Register, ReplicaId
from ..core.share_graph import ShareGraph
from ..core.timestamps import EdgeTimestamp, incoming_mask, predicate_plan
from ..wire.codecs import MATRIX_CODEC


class FullTrackReplica(CausalReplica):
    """Partial replication with a complete ``R × (R−1)`` matrix clock.

    Internally the matrix is represented as an
    :class:`~repro.core.timestamps.EdgeTimestamp` indexed by *all* ordered
    replica pairs, which makes the delivery predicate and merge identical in
    form to the paper's algorithm — only the index set differs.
    """

    def __init__(self, share_graph: ShareGraph, replica_id: ReplicaId) -> None:
        super().__init__(replica_id, share_graph.registers_at(replica_id))
        self.share_graph = share_graph
        all_pairs = [
            (a, b)
            for a in share_graph.replica_ids
            for b in share_graph.replica_ids
            if a != b
        ]
        self.matrix = EdgeTimestamp.zero(all_pairs)
        #: Per position of the matrix: is the entry an incoming pair ``(j, i)``?
        self._incoming = incoming_mask(self.matrix.index, replica_id)
        #: The predicate plan for a matrix over this one's index set (every
        #: replica's, on one share graph).
        self._plan = predicate_plan(self.matrix.index, self.matrix.index, replica_id)
        #: ``register -> positions of the (self, co-owner) pairs a write bumps``.
        self._bumped: Dict[Register, Tuple[int, ...]] = {}
        #: ``(pair, new value)`` incoming entries raised by the latest merge.
        self._changed_incoming: list = []

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------
    def destinations(self, register: Register) -> Sequence[ReplicaId]:
        """Every other replica storing ``register`` (as in the prototype)."""
        return tuple(
            rid
            for rid in self.share_graph.replicas_storing(register)
            if rid != self.replica_id
        )

    def make_metadata(self, register: Register) -> Tuple[EdgeTimestamp, int]:
        """Increment the (self, destination) entries for co-owners of ``register``."""
        bumped = self._bumped.get(register)
        if bumped is None:
            position = self.matrix.index.position
            bumped = self._bumped[register] = tuple(
                position[(self.replica_id, dest)] for dest in self.destinations(register)
            )
        self.matrix = self.matrix.advanced(bumped)
        return self.matrix, self.matrix.size_counters()

    def can_apply(self, message: UpdateMessage) -> bool:
        """Matrix-clock delivery condition (same shape as the paper's ``J``).

        Encoded once, in :meth:`blocking_key` ("nothing blocks").
        """
        return self.blocking_key(message) is None

    def absorb_metadata(self, message: UpdateMessage) -> None:
        """Element-wise maximum over the full matrix.

        Records the incoming entries the merge raised, for the pending index.
        """
        matrix, remote = self.matrix, message.metadata
        merged, raised = tsops.merge_pairs(
            matrix.values, remote.values, matrix.index.gather(remote.index)
        )
        entries, incoming = matrix.index.entries, self._incoming
        self.matrix = EdgeTimestamp._of(matrix.index, merged) if raised else matrix
        self._changed_incoming = [(entries[p], merged[p]) for p in raised if incoming[p]]

    # ------------------------------------------------------------------
    # Pending-index hooks
    # ------------------------------------------------------------------
    def blocking_key(self, message: UpdateMessage) -> Optional[Hashable]:
        """One-pass matrix-condition evaluation: ``None``, or a wake key.

        Same key scheme as the paper's replica: ``("seq", (k, i), n)`` for
        the FIFO equality, ``("ge", (j, i))`` for the monotone conjuncts.
        """
        matrix, remote = self.matrix, message.metadata
        plan = self._plan
        if remote.index is not matrix.index:
            plan = predicate_plan(matrix.index, remote.index, self.replica_id)
        return tsops.edge_blocking_key(
            matrix.values, remote.values, message.sender, self.replica_id, *plan
        )

    def applied_keys(self, message: UpdateMessage) -> Iterable[Hashable]:
        """Wake keys for the incoming matrix entries the merge just raised."""
        return self.wake_keys(self._changed_incoming)

    def metadata_size(self) -> int:
        """``R × (R−1)`` counters."""
        return self.matrix.size_counters()

    def wire_codec(self):
        """The dense matrix codec: the complete index set ships no edge ids."""
        return MATRIX_CODEC


def full_track_factory(graph: ShareGraph, replica_id: ReplicaId) -> CausalReplica:
    """Replica factory for :class:`~repro.sim.cluster.Cluster`."""
    return FullTrackReplica(graph, replica_id)
