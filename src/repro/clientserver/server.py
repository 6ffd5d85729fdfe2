"""The replica (server) side of the client–server algorithm (Appendix E.5).

A server replica maintains an edge-indexed timestamp over its *augmented*
timestamp graph ``Ê_i``; client requests arrive with the client's timestamp
``µ``.  This class is the protocol half of a server only:

* predicate ``J1 = J2`` (:meth:`~ClientServerReplica.request_ready`):
  ``τ_i[e_ji] ≥ µ[e_ji]`` for every incoming edge ``e_ji ∈ Ê_i`` — the
  server has caught up with everything the client has already observed
  elsewhere; a request it fails waits in the volatile
  :attr:`~ClientServerReplica.waiting_requests` buffer;
* the first half of ``advance(i, τ, c, µ, x, v)``
  (:meth:`~ClientServerReplica.absorb_client`): every commonly indexed
  entry absorbs ``max(τ, µ)`` (the client may carry dependencies the
  server has not seen as updates yet); the peer-to-peer write then
  increments the counters towards co-owners of ``x``;
* inter-replica update messages use predicate ``J3`` and ``merge3``, which
  are exactly the peer-to-peer predicate ``J`` and ``merge``.

Serving a request — the read or write itself, its metrics and its
messages — is the host's one operation path
(:meth:`~repro.core.host.ReplicaHost.perform_write` /
:meth:`~repro.core.host.ReplicaHost.perform_read`), driven by
:class:`~repro.clientserver.cluster.ClientServerCluster`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from ..core.protocol import Update
from ..core.registers import Register, ReplicaId
from ..core.replica import EdgeIndexedReplica
from ..core.share_graph import ShareGraph
from ..core.timestamp_graph import TimestampGraph
from ..core.timestamps import EdgeTimestamp
from .augmented import AugmentedShareGraph, ClientId, augmented_timestamp_edges


@dataclass
class ClientRequest:
    """A client read or write request, and — once answered — its outcome."""

    kind: str
    client_id: ClientId
    register: Register
    #: The value a write writes; once a read is served, the value it read.
    value: Any
    client_timestamp: EdgeTimestamp
    #: The update a served write issued.
    issued: Optional[Update] = None
    #: ``τ_i`` after the serve, which the client absorbs into ``µ``.
    server_timestamp: Optional[EdgeTimestamp] = None
    #: The operation was rejected: refused at its serve, or dropped from
    #: the buffer by a crash or a reconfiguration.
    rejected: bool = False

    @property
    def answered(self) -> bool:
        """Served or rejected: the client has its outcome."""
        return self.rejected or self.server_timestamp is not None


class ClientServerReplica(EdgeIndexedReplica):
    """A server replica of the client–server architecture."""

    def __init__(
        self,
        augmented: AugmentedShareGraph,
        replica_id: ReplicaId,
    ) -> None:
        share_graph = augmented.share_graph
        edges = augmented_timestamp_edges(augmented, replica_id)
        tgraph = TimestampGraph.from_edges(share_graph, replica_id, edges)
        super().__init__(share_graph, replica_id, timestamp_graph=tgraph)
        self.augmented = augmented
        #: Client requests buffered behind predicate J1/J2.
        self.waiting_requests: List[ClientRequest] = []

    #: Buffered client requests live in server memory only: a crash drops
    #: them (clients see the operation rejected), so they are excluded
    #: from durable snapshots.
    _VOLATILE_STATE = ("waiting_requests",)

    def _reset_volatile(self) -> None:
        self.waiting_requests = []

    # ------------------------------------------------------------------
    # Client request handling
    # ------------------------------------------------------------------
    def request_ready(self, request: ClientRequest) -> bool:
        """Predicate ``J1 = J2``: the server has seen everything the client has."""
        tau, mu = self.timestamp, request.client_timestamp
        local, remote, incoming = tau.values, mu.values, self._incoming
        return all(
            local[p] >= remote[q]
            for p, q in tau.index.gather(mu.index)
            if incoming[p]
        )

    def take_ready(self) -> List[ClientRequest]:
        """Take the buffered requests whose predicate now holds out of the
        buffer, in arrival order.

        Serving one cannot make another ready: a serve raises no incoming
        edge's counter (J1/J2 held, so ``µ`` is already below ``τ_i``
        there), so one pass finds them all.
        """
        ready: List[ClientRequest] = []
        waiting: List[ClientRequest] = []
        for request in self.waiting_requests:
            (ready if self.request_ready(request) else waiting).append(request)
        if ready:
            self.waiting_requests = waiting
        return ready

    def absorb_client(self, client_timestamp: EdgeTimestamp) -> None:
        """Fold the client's ``µ`` into ``τ_i`` ahead of a served write.

        The first half of ``advance(i, τ, c, µ, x, v)``: the client's
        knowledge lands on every commonly indexed edge, and the
        peer-to-peer write then increments the edges towards co-owners of
        the register.  No pending-index notification is needed: the serve
        is gated by predicate J1/J2 (``τ_i ≥ µ`` on every incoming edge),
        so this merge can only raise entries no buffered inter-replica
        update waits on.
        """
        self.timestamp = self.timestamp.merged_with(client_timestamp)

    # ------------------------------------------------------------------
    # Epoch migration
    # ------------------------------------------------------------------
    def _rebuild_timestamp_graph(self, new_graph: ShareGraph) -> TimestampGraph:
        """``Ê_i`` over the new augmented graph (set by :meth:`migrate_augmented`)."""
        edges = augmented_timestamp_edges(self.augmented, self.replica_id)
        return TimestampGraph.from_edges(new_graph, self.replica_id, edges)

    def migrate_augmented(self, new_augmented: AugmentedShareGraph,
                          epoch: int) -> None:
        """Adopt a new configuration (server side).

        Recomputes the augmented timestamp graph against the new share
        graph *and* the new client assignment (a leave can change both),
        projects the timestamp, and drops buffered client requests whose
        register this server no longer stores — their clients see the
        operation rejected, exactly like a crash would reject it.
        """
        self.augmented = new_augmented
        self.migrate(new_augmented.share_graph, epoch)
        self.waiting_requests = [
            request
            for request in self.waiting_requests
            if request.register in self.registers
        ]
