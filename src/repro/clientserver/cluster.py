"""A simulated client–server deployment (Figure 1b), on the shared kernel.

Wires :class:`~repro.clientserver.server.ClientServerReplica` servers,
:class:`~repro.clientserver.client.ClientAgent` clients and the shared
simulation kernel (:mod:`repro.sim.engine`) together.  Client operations
are synchronous from the client's perspective (the client waits for the
response), but a request buffered behind predicate ``J1/J2`` is unblocked by
delivering inter-replica update messages, so issuing an operation may advance
the simulation.

The drive loop — :meth:`~repro.sim.engine.SimulationHost.step`,
:meth:`~repro.sim.engine.SimulationHost.run_until_quiescent` with its
cross-replica apply/serve fixpoint, and the unified
:class:`~repro.core.host.RunMetrics` — is inherited from
:class:`~repro.sim.engine.SimulationHost`, the same base the peer-to-peer
:class:`~repro.sim.cluster.Cluster` runs on.

The cluster records, alongside the servers' issue/apply traces, the
happened-before edges that clients propagate by touching several replicas
(condition (ii) of the ``↪'`` relation, Definition 25); consistency checking
injects those into the checker.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.errors import ConfigurationError, SimulationError
from ..core.protocol import CausalReplica, Update, UpdateId
from ..core.registers import Register, ReplicaId
from ..core.share_graph import ShareGraph
from ..sim.delays import DelayModel
from ..sim.engine import BatchingConfig, EventKernel, SimulationHost, Transport
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
        network = Transport(EventKernel(), delay_model=delay_model, seed=seed)
        if batching is not None:
            network.enable_batching(batching)
        elif wire_accounting:
            network.enable_wire_accounting()
        super().__init__(share_graph, network)
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
        #: Updates each client has (transitively) observed, for ↪' bookkeeping.
        self._client_seen: Dict[ClientId, Set[UpdateId]] = {
            cid: set() for cid in clients.client_ids
        }
        #: Extra ↪' edges induced by client sessions: (observed update, issued update).
        self._client_edges: List[Tuple[UpdateId, UpdateId]] = []
        #: Replica id → a client pinned to exactly that replica (if any),
        #: used to run replica-addressed workload operations (parity mode).
        self._colocated: Dict[ReplicaId, ClientId] = {}
        for cid in clients.client_ids:
            replica_set = clients.replicas_of(cid)
            if len(replica_set) == 1:
                self._colocated.setdefault(next(iter(replica_set)), cid)
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
        cluster = cls(
            share_graph,
            clients,
            delay_model=delay_model,
            seed=seed,
            batching=batching,
            wire_accounting=wire_accounting,
        )
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
                self._client_seen[cid] = set()
        self._colocated = {}
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

        Returns ``None`` (rejecting the operation) while the chosen server
        is crashed by the fault injector.
        """
        client = self.clients[client_id]
        target = client.choose_replica(register, preferred=replica_id)
        if self.operation_rejected(target, register):
            self.metrics.rejected_operations += 1
            return None
        request = ClientRequest(
            kind="read",
            client_id=client_id,
            register=register,
            value=None,
            client_timestamp=client.timestamp,
            sim_time=self.now,
        )
        submitted_at = self.now
        response = self._submit_and_wait(target, request, max_steps)
        if response is None:
            # The server crashed while the request was buffered; its
            # volatile request state is gone, so the operation is lost.
            return None
        self._record_operation("read", at=submitted_at)
        client.absorb_response(response.server_timestamp)
        client.record("read", target, register, response.value, self.now)
        self._note_client_observation(client_id, target)
        return response.value

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
        (rejecting the operation) when the chosen server is crashed by the
        fault injector — before the request, or while it was buffered.
        """
        client = self.clients[client_id]
        target = client.choose_replica(register, preferred=replica_id)
        if self.operation_rejected(target, register):
            self.metrics.rejected_operations += 1
            return None
        request = ClientRequest(
            kind="write",
            client_id=client_id,
            register=register,
            value=value,
            client_timestamp=client.timestamp,
            sim_time=self.now,
        )
        submitted_at = self.now
        response = self._submit_and_wait(target, request, max_steps)
        if response is None:
            # The server crashed before serving the buffered write; the
            # client sees it rejected (the write never happened).
            return None
        self._record_operation("write", at=submitted_at)
        issued = response.issued
        self._note_issue(issued, self.now)
        # Everything the client had observed before this write happens-before it.
        for seen in self._client_seen[client_id]:
            if seen != issued.uid:
                self._client_edges.append((seen, issued.uid))
        client.absorb_response(response.server_timestamp)
        client.record("write", target, register, value, self.now)
        self._note_client_observation(client_id, target)
        self._client_seen[client_id].add(issued.uid)
        return issued

    def submit_operation(self, operation: Any) -> Any:
        """Execute a replica-addressed workload operation via its co-located client.

        Requires a client pinned to exactly ``operation.replica_id`` (see
        :meth:`with_colocated_clients`); this is what lets one workload
        drive both the peer-to-peer and the client–server architecture.
        """
        if self.operation_rejected(operation.replica_id, operation.register):
            # Rejected exactly as the peer-to-peer architecture rejects it.
            self.metrics.rejected_operations += 1
            return None
        client_id = self._colocated.get(operation.replica_id)
        if client_id is None:
            raise ConfigurationError(
                f"no client is co-located with replica {operation.replica_id!r}; "
                "build the cluster with ClientServerCluster.with_colocated_clients"
            )
        if operation.kind == "write":
            return self.client_write(
                client_id, operation.register, operation.value,
                replica_id=operation.replica_id,
            )
        if operation.kind == "read":
            return self.client_read(
                client_id, operation.register, replica_id=operation.replica_id
            )
        raise ConfigurationError(f"unknown operation kind {operation.kind!r}")

    def _dispatch(self, responses) -> bool:
        """Multicast the update messages of freshly served write responses.

        Dispatch happens at *serve* time — whichever loop served the request
        — so a write unblocked by the quiescence fixpoint still propagates
        (and the drain loop resumes), even when no client is waiting on it.
        Returns ``True`` when any message was sent.
        """
        sent = False
        for response in responses:
            if response.update_messages:
                self.network.send_all(response.update_messages)
                sent = True
        return sent

    def _submit_and_wait(self, target: ReplicaId, request: ClientRequest,
                         max_steps: int):
        server = self.servers[target]
        response = server.submit(request)
        if response is not None:
            self._dispatch([response])
            return response
        steps = 0
        while True:
            made_progress = self.step()
            if self.replica_down(target):
                # A fault event crashed the server while the request was
                # waiting; the buffered request is volatile, so the
                # operation is rejected rather than served after restart.
                self.metrics.rejected_operations += 1
                return None
            if target not in self.servers or request.register not in server.registers:
                # A reconfiguration removed the server — or took the
                # register away from it — while the request was buffered;
                # the session sees the operation rejected.
                self.metrics.rejected_operations += 1
                return None
            self._dispatch(server.serve_waiting(sim_time=self.now))
            response = server.take_response(
                request.client_id, request.kind, request.register
            )
            if response is not None:
                return response
            if not made_progress:
                raise SimulationError(
                    f"client request at replica {target} cannot be served: the "
                    "network is quiescent but predicate J1/J2 still fails"
                )
            steps += 1
            if steps > max_steps:
                raise SimulationError("client request exceeded the step budget")

    def _note_client_observation(self, client_id: ClientId, replica_id: ReplicaId) -> None:
        """After touching a replica, the client has observed its applied updates."""
        trace = self.servers[replica_id].events
        self._client_seen[client_id] |= {update.uid for update in trace.updates()}

    # ------------------------------------------------------------------
    # Architecture-specific host hooks
    # ------------------------------------------------------------------
    def _after_delivery(self, replica: CausalReplica) -> None:
        """A delivered update can unblock buffered client requests."""
        self._dispatch(replica.serve_waiting(sim_time=self.now))  # type: ignore[attr-defined]

    def _quiescent_hook(self, replica: CausalReplica) -> bool:
        served = replica.serve_waiting(sim_time=self.now)  # type: ignore[attr-defined]
        self._dispatch(served)
        return bool(served)

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
