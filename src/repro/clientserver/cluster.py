"""A simulated client–server deployment (Figure 1b), on the shared kernel.

Wires :class:`~repro.clientserver.server.ClientServerReplica` servers,
:class:`~repro.clientserver.client.ClientAgent` clients and the shared
simulation kernel (:mod:`repro.sim.engine`) together.  Client operations
are synchronous from the client's perspective (the client waits for the
outcome), but a request buffered behind predicate ``J1/J2`` is unblocked by
delivering inter-replica update messages, so issuing an operation may advance
the simulation.

A request is served — whenever its predicate holds: at submission, after a
delivery, or in the quiescence fixpoint — by one method, through the host's
one operation path: a write absorbs the client's ``µ`` and then runs
:meth:`~repro.core.host.ReplicaHost.perform_write`, a read runs
:meth:`~repro.core.host.ReplicaHost.perform_read`, exactly as the
peer-to-peer :class:`~repro.sim.cluster.Cluster` and the live node do.  The
outcome goes on the :class:`~repro.clientserver.server.ClientRequest`
itself, where the waiting client reads it.  The drive loop and the unified
:class:`~repro.core.host.RunMetrics` are inherited from
:class:`~repro.sim.engine.SimulationHost`.

The cluster records, alongside the servers' issue/apply traces, the
happened-before edges that clients propagate by touching several replicas
(condition (ii) of the ``↪'`` relation, Definition 25); consistency checking
injects those into the checker.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.errors import ConfigurationError, SimulationError
from ..core.protocol import CausalReplica, ReplicaTrace, Update, UpdateId
from ..core.registers import Register, ReplicaId
from ..core.share_graph import ShareGraph
from ..sim.delays import DelayModel
from ..sim.engine import BatchingConfig, SimulationHost
from .augmented import (
    AugmentedShareGraph,
    ClientAssignment,
    ClientId,
    build_all_augmented_timestamp_edges,
)
from .client import ClientAgent
from .server import ClientRequest, ClientServerReplica


class ClientServerCluster(SimulationHost):
    """Servers + clients + network for the client–server architecture."""

    def __init__(
        self,
        share_graph: ShareGraph,
        clients: ClientAssignment,
        delay_model: Optional[DelayModel] = None,
        seed: int = 0,
        batching: Optional[BatchingConfig] = None,
        wire_accounting: bool = False,
    ) -> None:
        super().__init__(share_graph, delay_model=delay_model, seed=seed,
                         batching=batching, wire_accounting=wire_accounting)
        self.augmented = AugmentedShareGraph(share_graph, clients)
        self.servers: Dict[ReplicaId, ClientServerReplica] = {
            rid: ClientServerReplica(self.augmented, rid)
            for rid in share_graph.replica_ids
        }
        # One shared Ê_i computation for every client's index set (each
        # ClientAgent would otherwise recompute all replicas' edge sets).
        edges_map = build_all_augmented_timestamp_edges(self.augmented)
        self.clients: Dict[ClientId, ClientAgent] = {
            cid: ClientAgent(
                self.augmented, cid, timestamp_edges_by_replica=edges_map
            )
            for cid in clients.client_ids
        }
        #: Per client, the updates it observed since its previous write,
        #: that write included: its next write's direct ↪' predecessors.
        self._client_frontier: Dict[ClientId, Set[UpdateId]] = defaultdict(set)
        #: (client, server) → (the server's trace, how far the client has
        #: observed it).
        self._observed_upto: Dict[Tuple[ClientId, ReplicaId],
                                  Tuple[ReplicaTrace, int]] = {}
        #: Extra ↪' edges induced by client sessions: (observed update, issued update).
        self._client_edges: List[Tuple[UpdateId, UpdateId]] = []
        self._pin_colocated(clients)
        #: Whether the cluster follows the one-client-per-replica parity
        #: convention (set by :meth:`with_colocated_clients`); joiners then
        #: automatically get a pinned client.
        self._auto_colocated = False

    @classmethod
    def with_colocated_clients(
        cls,
        share_graph: ShareGraph,
        delay_model: Optional[DelayModel] = None,
        seed: int = 0,
        batching: Optional[BatchingConfig] = None,
        wire_accounting: bool = False,
    ) -> "ClientServerCluster":
        """A cluster with one client pinned to each replica (Figure 1a's
        access pattern run through the Figure 1b architecture).

        This is the configuration under which the two architectures are
        directly comparable on the same replica-addressed workload: client
        ``c<i>`` issues exactly the operations the peer-to-peer co-located
        client of replica ``i`` would.
        """
        clients = ClientAssignment.from_dict(
            {f"c{rid}": {rid} for rid in share_graph.replica_ids}
        )
        cluster = cls(share_graph, clients, delay_model=delay_model, seed=seed,
                      batching=batching, wire_accounting=wire_accounting)
        cluster._auto_colocated = True
        return cluster

    def _replica_map(self) -> Dict[ReplicaId, CausalReplica]:
        return self.servers

    # ------------------------------------------------------------------
    # Membership hooks (dynamic reconfiguration)
    # ------------------------------------------------------------------
    def _remove_member(self, replica_id: ReplicaId) -> None:
        del self.servers[replica_id]

    def _migrate_members(self, new_graph: ShareGraph, epoch: int) -> None:
        """Migrate servers *and* client sessions to the new configuration.

        Rebuilds the client assignment first: leavers disappear from every
        ``R_c``, a session left with no reachable server is handed off to
        the lowest surviving replica, and — under the colocated-parity
        convention — each joiner gets a fresh pinned client ``c<rid>``.
        The new augmented share graph then drives both the servers'
        ``Ê_i`` recomputation and the clients' ``µ_c`` re-indexing.
        """
        members = set(new_graph.replica_ids)
        survivors = sorted(set(self.servers) & members)
        joiners = sorted(members - set(self.servers))
        replica_sets: Dict[ClientId, Any] = {}
        for cid in self.augmented.clients.client_ids:
            kept = frozenset(
                rid
                for rid in self.augmented.clients.replicas_of(cid)
                if rid in members
            )
            if not kept:
                # Session handoff: the only server(s) this client could
                # reach have left; re-home it to the lowest survivor.
                kept = frozenset({min(survivors)})
            replica_sets[cid] = kept
        if self._auto_colocated:
            for rid in joiners:
                cid = f"c{rid}"
                if cid not in replica_sets:
                    replica_sets[cid] = frozenset({rid})
        assignment = ClientAssignment(replica_sets)
        self.augmented = AugmentedShareGraph(new_graph, assignment)
        for rid in survivors:
            self.servers[rid].migrate_augmented(self.augmented, epoch)
        edges_map = build_all_augmented_timestamp_edges(self.augmented)
        for cid in sorted(assignment.client_ids):
            if cid in self.clients:
                self.clients[cid].migrate(
                    self.augmented, timestamp_edges_by_replica=edges_map
                )
            else:
                self.clients[cid] = ClientAgent(
                    self.augmented, cid, timestamp_edges_by_replica=edges_map
                )
        self._pin_colocated(assignment)

    def _pin_colocated(self, assignment: ClientAssignment) -> None:
        #: Replica id → a client pinned to exactly that replica (if any),
        #: used to run replica-addressed workload operations (parity mode).
        self._colocated: Dict[ReplicaId, ClientId] = {}
        for cid in assignment.client_ids:
            replica_set = assignment.replicas_of(cid)
            if len(replica_set) == 1:
                self._colocated.setdefault(next(iter(replica_set)), cid)

    def _add_member(self, replica_id: ReplicaId, new_graph: ShareGraph,
                    epoch: int) -> CausalReplica:
        server = ClientServerReplica(self.augmented, replica_id)
        server.epoch = epoch
        self.servers[replica_id] = server
        return server

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------
    def client_read(
        self,
        client_id: ClientId,
        register: Register,
        replica_id: Optional[ReplicaId] = None,
        max_steps: int = 100_000,
    ) -> Any:
        """Perform a client read; blocks (simulating) until the server can serve it.

        Returns ``None`` when the operation is rejected (see
        :meth:`client_write`).
        """
        return self._client_operation("read", client_id, register, None,
                                      replica_id, max_steps)

    def client_write(
        self,
        client_id: ClientId,
        register: Register,
        value: Any,
        replica_id: Optional[ReplicaId] = None,
        max_steps: int = 100_000,
    ) -> Optional[Update]:
        """Perform a client write; blocks (simulating) until the server can serve it.

        Returns the issued :class:`~repro.core.protocol.Update`, or ``None``
        when the operation is rejected: the chosen server is crashed or (under
        dynamic membership) not accepting it — before the request, or while
        it was buffered.
        """
        return self._client_operation("write", client_id, register, value,
                                      replica_id, max_steps)

    def submit_operation(self, operation: Any) -> Any:
        """Execute a replica-addressed workload operation via its co-located client.

        Requires a client pinned to exactly ``operation.replica_id`` (see
        :meth:`with_colocated_clients`); this is what lets one workload
        drive both the peer-to-peer and the client–server architecture.
        """
        if operation.kind not in ("read", "write"):
            raise ConfigurationError(f"unknown operation kind {operation.kind!r}")
        return self._client_operation(operation.kind, None, operation.register,
                                      operation.value, operation.replica_id)

    def _client_operation(self, kind: str, client_id: Optional[ClientId],
                          register: Register, value: Any,
                          replica_id: Optional[ReplicaId],
                          max_steps: int = 100_000) -> Any:
        """One client operation: the read value or the issued update, or
        ``None`` when it is rejected (counted once, wherever it happens).

        ``client_id=None`` addresses ``replica_id`` itself, through the
        client co-located with it; otherwise ``replica_id`` is the
        client's preferred server among those storing ``register``.
        """
        if client_id is None:
            target = replica_id
        else:
            target = self.clients[client_id].choose_replica(
                register, preferred=replica_id)
        if self.operation_rejected(target, register):
            # Rejected exactly as the peer-to-peer architecture rejects it.
            self.metrics.rejected_operations += 1
            return None
        if client_id is None:
            client_id = self._colocated.get(target)
            if client_id is None:
                raise ConfigurationError(
                    f"no client is co-located with replica {target!r}; build "
                    "the cluster with ClientServerCluster.with_colocated_clients"
                )
        client = self.clients[client_id]
        request = ClientRequest(kind, client_id, register, value, client.timestamp)
        server = self.servers[target]
        if server.request_ready(request):
            self._serve(target, request)
        else:
            server.waiting_requests.append(request)
            self._wait(target, request, max_steps)
        if request.rejected:
            return None
        client.absorb_response(request.server_timestamp)
        client.record(kind, target, register, request.value, self.now)
        self._note_session(client_id, target, request.issued)
        return request.issued if kind == "write" else request.value

    def _serve(self, target: ReplicaId, request: ClientRequest) -> None:
        """Serve one request whose J1/J2 holds, through the host's one
        operation path at the current time; the outcome goes on ``request``.

        The host refuses an operation at a server that is not accepting
        it (a migration window), and counts the rejection.
        """
        server = self.servers[target]
        rejections = self.metrics.rejected_operations
        if request.kind == "write":
            server.absorb_client(request.client_timestamp)
            issued = self.perform_write(target, request.register, request.value)
            if issued is not None:
                request.issued, messages = issued
                self.network.send_all(messages)
        else:
            request.value = self.perform_read(target, request.register)
        request.rejected = self.metrics.rejected_operations != rejections
        if not request.rejected:
            request.server_timestamp = server.timestamp

    def _wait(self, target: ReplicaId, request: ClientRequest,
              max_steps: int) -> None:
        """Step the simulation until the buffered ``request`` is answered."""
        steps = 0
        while True:
            made_progress = self.step()
            if request.answered:
                return
            server = self.servers.get(target)
            if (self.replica_down(target) or server is None
                    or request.register not in server.registers):
                # A crash dropped the volatile buffer, or a reconfiguration
                # removed the server — or took the register away from it;
                # the session sees the operation rejected.
                self.metrics.rejected_operations += 1
                request.rejected = True
                return
            self._serve_ready(server)
            if request.answered:
                return
            if not made_progress:
                raise SimulationError(
                    f"client request at replica {target} cannot be served: the "
                    "network is quiescent but predicate J1/J2 still fails"
                )
            steps += 1
            if steps > max_steps:
                raise SimulationError("client request exceeded the step budget")

    def _serve_ready(self, server: ClientServerReplica) -> bool:
        """Serve every buffered request of ``server`` whose J1/J2 now holds."""
        ready = server.take_ready()
        for request in ready:
            self._serve(server.replica_id, request)
        return bool(ready)

    def _note_session(self, client_id: ClientId, target: ReplicaId,
                      issued: Optional[Update]) -> None:
        """Book condition (ii) of ``↪'`` for one answered operation.

        A write gets a direct edge from each update the client observed
        since its previous write, and from that write: everything earlier
        already happened before it, so the closure is that of an edge from
        every update the client ever observed, from O(operations +
        observations) edges.  The client then observes what ``target``
        has issued or applied since it last looked — one position per
        (client, server) into the server's trace, kept with the trace
        itself, so a server that left and rejoined is read from 0 again.
        """
        frontier = self._client_frontier[client_id]
        if issued is not None:
            self._client_edges.extend((seen, issued.uid) for seen in frontier)
            frontier.clear()
            frontier.add(issued.uid)
        trace = self.servers[target].events
        key = (client_id, target)
        observed, upto = self._observed_upto.get(key, (trace, 0))
        if observed is not trace:
            upto = 0
        frontier.update(update.uid for update in trace[upto:].updates())
        self._observed_upto[key] = (trace, len(trace))

    # ------------------------------------------------------------------
    # Architecture-specific host hooks
    # ------------------------------------------------------------------
    def _after_delivery(self, replica: CausalReplica) -> None:
        """A delivered update can unblock buffered client requests."""
        self._serve_ready(replica)  # type: ignore[arg-type]

    def _quiescent_hook(self, replica: CausalReplica) -> bool:
        return self._serve_ready(replica)  # type: ignore[arg-type]

    def _extra_happened_before(self) -> Sequence[Tuple[UpdateId, UpdateId]]:
        return self._client_edges

    # ------------------------------------------------------------------
    # Checking and metrics
    # ------------------------------------------------------------------
    def server_metadata_sizes(self) -> Dict[ReplicaId, int]:
        """Counters per server (``|Ê_i|``)."""
        return self.metadata_sizes()

    def client_metadata_sizes(self) -> Dict[ClientId, int]:
        """Counters per client (``|∪_{i∈R_c} Ê_i|``)."""
        return {cid: c.metadata_size() for cid, c in sorted(self.clients.items())}
