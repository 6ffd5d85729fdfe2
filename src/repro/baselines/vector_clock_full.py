"""Full replication with classical vector clocks (Lazy Replication style).

The standard pre-partial-replication design: every replica stores a copy of
*every* register and maintains a vector timestamp with one entry per replica
(``R`` counters).  A write increments the writer's own entry and is broadcast
to all other replicas; a remote update from ``k`` with vector ``T`` is applied
once ``T[k] = τ[k] + 1`` and ``T[j] ≤ τ[j]`` for every other ``j`` — the
classical causal-broadcast delivery condition [Birman et al.; Lazy
Replication].

This baseline trades storage (every register everywhere) for the smallest
possible metadata, which is exactly the trade-off the paper's introduction
frames partial replication against (experiment E7).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Sequence, Tuple

from .._speedups import tsops
from ..core.protocol import CausalReplica, UpdateMessage
from ..core.registers import Register, ReplicaId
from ..core.share_graph import ShareGraph
from ..core.timestamps import VectorTimestamp
from ..wire.codecs import VECTOR_CODEC


class FullReplicationReplica(CausalReplica):
    """A fully replicated causally consistent replica with a length-``R`` vector.

    The replica stores *all* registers of the placement (not just its ``X_i``)
    — that is what "full replication" means — and therefore applies every
    update in the system.
    """

    def __init__(self, share_graph: ShareGraph, replica_id: ReplicaId) -> None:
        super().__init__(replica_id, share_graph.placement.registers)
        self.share_graph = share_graph
        self.vector = VectorTimestamp.zero(share_graph.replica_ids)
        #: ``(replica id, new value)`` entries raised by the latest merge.
        self._changed_entries: list = []
        #: Merge outcome produced by the fused check in :meth:`blocking_key`:
        #: ``(update, base vector, merged vector, changed)``.  Valid only for the
        #: exact same update object while the base vector is still current
        #: — :meth:`absorb_metadata` checks both (by identity) before
        #: consuming it.
        self._fused_merge: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------
    def destinations(self, register: Register) -> Sequence[ReplicaId]:
        """Broadcast: every other replica stores every register."""
        return tuple(
            rid for rid in self.share_graph.replica_ids if rid != self.replica_id
        )

    def make_metadata(self, register: Register) -> Tuple[VectorTimestamp, int]:
        """Increment the local entry of the vector clock."""
        self.vector = self.vector.incremented(self.replica_id)
        return self.vector, self.vector.size_counters()

    def can_apply(self, message: UpdateMessage) -> bool:
        """Classical causal-broadcast delivery condition.

        Encoded once, in :meth:`blocking_key` ("nothing blocks").
        """
        return self.blocking_key(message) is None

    def absorb_metadata(self, message: UpdateMessage) -> None:
        """Element-wise maximum of the two vectors.

        Records the entries the merge raised, for the pending index.
        """
        fused = self._fused_merge
        if (
            fused is not None
            and fused[0] is message.update
            and fused[1] is self.vector
        ):
            # The fused check in :meth:`blocking_key` already produced the
            # merge for exactly this message against exactly this vector.
            self._fused_merge = None
            self.vector, self._changed_entries = fused[2], fused[3]
            return
        local, remote = self.vector.aligned(message.metadata)
        merged, raised = tsops.merge_pairs(
            local.values, remote.values, local.index.gather(local.index)
        )
        self.vector = VectorTimestamp._of(local.index, merged) if raised else local
        entries = local.index.entries
        self._changed_entries = [(entries[p], merged[p]) for p in raised]

    # ------------------------------------------------------------------
    # Pending-index hooks
    # ------------------------------------------------------------------
    def blocking_key(self, message: UpdateMessage) -> Optional[Hashable]:
        """One-pass delivery-condition evaluation: ``None``, or a wake key.

        ``("seq", k, n)`` is the exact-value bucket for the FIFO conjunct
        ``T[k] = τ[k] + 1`` (woken when ``τ[k]`` reaches ``n − 1``);
        ``("ge", j)`` wakes whenever entry ``j`` grows.
        """
        local, remote = self.vector.aligned(message.metadata)
        sender = local.index.position.get(message.sender)
        if sender is None:
            # Neither vector indexes the sender: its entry reads 0 in both.
            return ("seq", message.sender, 0)
        key, merged, changed = tsops.vector_try_apply(
            local.values, remote.values, local.index.entries, sender, remote.total()
        )
        if key is None:
            self._fused_merge = (
                message.update, self.vector,
                VectorTimestamp._of(local.index, merged), changed,
            )
        return key

    def applied_keys(self, message: UpdateMessage) -> Iterable[Hashable]:
        """Wake keys for the vector entries the merge just raised.

        Inlined :meth:`~repro.core.protocol.CausalReplica.wake_keys` (same
        key scheme): the common merge raises exactly one entry, and this
        runs once per apply.
        """
        keys: list = []
        for key, value in self._changed_entries:
            keys.append(("seq", key, value + 1))
            keys.append(("ge", key))
        return keys

    def metadata_size(self) -> int:
        """``R`` counters."""
        return self.vector.size_counters()

    def wire_codec(self):
        """The classical replica-indexed vector codec (family ``vector``)."""
        return VECTOR_CODEC


def full_replication_factory(graph: ShareGraph, replica_id: ReplicaId) -> CausalReplica:
    """Replica factory for :class:`~repro.sim.cluster.Cluster`."""
    return FullReplicationReplica(graph, replica_id)
