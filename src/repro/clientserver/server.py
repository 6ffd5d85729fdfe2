"""The replica (server) side of the client–server algorithm (Appendix E.5).

A server replica maintains an edge-indexed timestamp over its *augmented*
timestamp graph ``Ê_i`` and serves client requests that arrive with the
client's timestamp ``µ``:

* a read or write request is buffered until predicate
  ``J1 = J2``: ``τ_i[e_ji] ≥ µ[e_ji]`` for every incoming edge ``e_ji ∈ Ê_i``
  — i.e. the server has caught up with everything the client has already
  observed elsewhere;
* a served write runs ``advance(i, τ, c, µ, x, v)``: the counters towards
  co-owners of ``x`` are incremented and every other commonly indexed entry
  absorbs ``max(τ, µ)`` (the client may carry dependencies the server has not
  seen as updates yet);
* inter-replica update messages use predicate ``J3`` and ``merge3``, which
  are exactly the peer-to-peer predicate ``J`` and ``merge``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..core.protocol import Update, UpdateMessage
from ..core.registers import Register, ReplicaId
from ..core.replica import EdgeIndexedReplica
from ..core.share_graph import ShareGraph
from ..core.timestamp_graph import TimestampGraph
from ..core.timestamps import EdgeTimestamp
from .augmented import AugmentedShareGraph, ClientId, augmented_timestamp_edges


@dataclass
class ClientRequest:
    """A buffered client read or write request."""

    kind: str
    client_id: ClientId
    register: Register
    value: Any
    client_timestamp: EdgeTimestamp
    sim_time: float = 0.0


@dataclass
class ClientResponse:
    """The server's reply to a served client request."""

    kind: str
    client_id: ClientId
    register: Register
    value: Any
    server_timestamp: EdgeTimestamp
    update_messages: Tuple[UpdateMessage, ...] = ()
    #: The update a served *write* issued (``None`` for reads).  Carried
    #: explicitly so the cluster never has to infer it from the server's
    #: apply log, which concurrent serves/applies may have extended since.
    issued: Optional[Update] = None


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
        #: Responses produced by :meth:`serve_waiting`, awaiting pickup by the caller.
        self.completed_responses: List[ClientResponse] = []

    #: Buffered client requests/responses live in server memory only: a
    #: crash drops them (clients see the operation rejected/timed out), so
    #: they are excluded from durable snapshots.
    _VOLATILE_STATE = ("waiting_requests", "completed_responses")

    def _reset_volatile(self) -> None:
        self.waiting_requests = []
        self.completed_responses = []

    # ------------------------------------------------------------------
    # Client request handling
    # ------------------------------------------------------------------
    def request_ready(self, request: ClientRequest) -> bool:
        """Predicate ``J1 = J2``: the server has seen everything the client has."""
        i = self.replica_id
        for e in self.timestamp.edges:
            if e[1] != i:
                continue
            if self.timestamp.get(e) < request.client_timestamp.get(e):
                return False
        return True

    def submit(self, request: ClientRequest) -> Optional[ClientResponse]:
        """Submit a client request; serve it now if possible, else buffer it."""
        if self.request_ready(request):
            return self._serve(request)
        self.waiting_requests.append(request)
        return None

    def serve_waiting(self, sim_time: float = 0.0) -> List[ClientResponse]:
        """Serve every buffered request whose predicate now holds.

        Served responses are both returned and queued on
        :attr:`completed_responses` so a caller that was not the one driving
        the simulation step can still collect them with
        :meth:`take_response`.
        """
        served: List[ClientResponse] = []
        progress = True
        while progress:
            progress = False
            for request in list(self.waiting_requests):
                if self.request_ready(request):
                    self.waiting_requests.remove(request)
                    request.sim_time = sim_time
                    response = self._serve(request)
                    served.append(response)
                    self.completed_responses.append(response)
                    progress = True
        return served

    def take_response(self, client_id: ClientId, kind: str,
                      register: Register) -> Optional[ClientResponse]:
        """Pop the first completed response matching a client's outstanding request."""
        for response in self.completed_responses:
            if (
                response.client_id == client_id
                and response.kind == kind
                and response.register == register
            ):
                self.completed_responses.remove(response)
                return response
        return None

    def _serve(self, request: ClientRequest) -> ClientResponse:
        if request.kind == "read":
            value = self.read(request.register, sim_time=request.sim_time)
            return ClientResponse(
                kind="read",
                client_id=request.client_id,
                register=request.register,
                value=value,
                server_timestamp=self.timestamp,
            )
        messages = self.write_for_client(
            request.register,
            request.value,
            request.client_timestamp,
            sim_time=request.sim_time,
        )
        return ClientResponse(
            kind="write",
            client_id=request.client_id,
            register=request.register,
            value=request.value,
            server_timestamp=self.timestamp,
            update_messages=tuple(messages),
            issued=self.events.items[-1],
        )

    # ------------------------------------------------------------------
    # The client–server advance
    # ------------------------------------------------------------------
    def write_for_client(
        self,
        register: Register,
        value: Any,
        client_timestamp: EdgeTimestamp,
        sim_time: float = 0.0,
    ) -> List[UpdateMessage]:
        """Apply a served client write: ``advance(i, τ, c, µ, x, v)`` + multicast.

        Differs from the peer-to-peer write in that the non-incremented
        entries of the new timestamp absorb ``max(τ, µ)``.
        """
        # Absorb the client's knowledge on every commonly indexed edge first;
        # the peer-to-peer issue path then increments the edges towards
        # co-owners of the register.  No pending-index notification is
        # needed: the serve is gated by predicate J1/J2 (τ_i ≥ µ on every
        # incoming edge), so this merge can only raise entries no buffered
        # inter-replica update waits on.
        self.timestamp = self.timestamp.merged_with(client_timestamp)
        return self.write(register, value, sim_time=sim_time)

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
