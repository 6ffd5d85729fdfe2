"""The client side of the client–server algorithm (Appendix E.1/E.5).

Each client ``c`` maintains a timestamp ``µ_c`` indexed by the union of the
augmented timestamp graphs of the replicas it may access
(``∪_{i ∈ R_c} Ê_i``).  Every request carries ``µ_c``; every response carries
the serving replica's timestamp ``τ_i``, which the client folds into ``µ_c``
by element-wise maximum over the commonly indexed edges (``merge1 = merge2``).
The client timestamp is what propagates causal dependencies between replicas
that share no registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, FrozenSet, List, Optional, Tuple

from ..core.errors import RegisterNotStoredError
from ..core.registers import Register, ReplicaId
from ..core.share_graph import Edge
from ..core.timestamps import EdgeTimestamp
from .augmented import AugmentedShareGraph, ClientId, client_index_edges


@dataclass
class ClientSessionRecord:
    """One completed client operation, kept for session analyses."""

    kind: str
    replica_id: ReplicaId
    register: Register
    value: Any
    sim_time: float


class ClientAgent:
    """A client of the client–server architecture.

    Parameters
    ----------
    augmented:
        The augmented share graph (supplies ``R_c`` and the index sets).
    client_id:
        This client's identifier.
    """

    def __init__(self, augmented: AugmentedShareGraph, client_id: ClientId,
                 timestamp_edges_by_replica=None) -> None:
        self.augmented = augmented
        self.client_id = client_id
        self.replica_set: FrozenSet[ReplicaId] = augmented.clients.replicas_of(client_id)
        self.index_edges: FrozenSet[Edge] = client_index_edges(
            augmented, client_id,
            timestamp_edges_by_replica=timestamp_edges_by_replica,
        )
        #: The client timestamp ``µ_c``.
        self.timestamp: EdgeTimestamp = EdgeTimestamp.zero(self.index_edges)
        #: Completed operations, in session order.
        self.history: List[ClientSessionRecord] = []

    # ------------------------------------------------------------------
    # Replica selection
    # ------------------------------------------------------------------
    def accessible_registers(self) -> FrozenSet[Register]:
        """``X_{R_c}``: every register stored at some replica the client can reach."""
        registers = set()
        for rid in self.replica_set:
            registers |= self.augmented.share_graph.registers_at(rid)
        return frozenset(registers)

    def choose_replica(self, register: Register,
                       preferred: Optional[ReplicaId] = None) -> ReplicaId:
        """Pick a replica of ``R_c`` storing ``register`` (lowest id by
        default); ``RegisterNotStoredError`` when none does."""
        candidates = sorted(
            rid
            for rid in self.replica_set
            if self.augmented.share_graph.placement.stores_register(rid, register)
        )
        if preferred is not None and preferred in candidates:
            return preferred
        if not candidates:
            raise RegisterNotStoredError(register, tuple(sorted(self.replica_set)))
        return candidates[0]

    # ------------------------------------------------------------------
    # Timestamp maintenance (merge1 = merge2)
    # ------------------------------------------------------------------
    def absorb_response(self, server_timestamp: EdgeTimestamp) -> None:
        """Fold a server's reply timestamp into ``µ_c``."""
        self.timestamp = self.timestamp.merged_with(server_timestamp)

    def record(self, kind: str, replica_id: ReplicaId, register: Register,
               value: Any, sim_time: float) -> None:
        """Append a completed operation to the session history."""
        self.history.append(
            ClientSessionRecord(
                kind=kind,
                replica_id=replica_id,
                register=register,
                value=value,
                sim_time=sim_time,
            )
        )

    def metadata_size(self) -> int:
        """Number of counters in ``µ_c``."""
        return self.timestamp.size_counters()

    # ------------------------------------------------------------------
    # Epoch migration (session handoff)
    # ------------------------------------------------------------------
    def migrate(
        self,
        new_augmented: AugmentedShareGraph,
        timestamp_edges_by_replica=None,
    ) -> None:
        """Adopt a new configuration (client side).

        The client's replica set ``R_c`` may have changed — a server it was
        pinned to can leave, in which case the cluster re-homes the session
        to a surviving replica — so the index set ``∪_{i ∈ R_c} Ê_i`` is
        recomputed and ``µ_c`` projected onto it.  Surviving entries keep
        their counters: the dependencies the client has observed remain
        expressible exactly as far as the new configuration tracks them.
        """
        self.augmented = new_augmented
        self.replica_set = new_augmented.clients.replicas_of(self.client_id)
        self.index_edges = client_index_edges(
            new_augmented, self.client_id,
            timestamp_edges_by_replica=timestamp_edges_by_replica,
        )
        self.timestamp = self.timestamp.migrated(self.index_edges)
