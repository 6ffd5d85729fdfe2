"""The peer-to-peer cluster of Figure 1a, rebased on the event kernel.

:class:`Cluster` wires a set of :class:`~repro.core.protocol.CausalReplica`
instances (the paper's algorithm by default, or any baseline) to the shared
simulation kernel (:mod:`repro.sim.engine`) and exposes the peer-to-peer
client operations of Figure 1a: a client co-located with replica ``i``
issues ``read``/``write`` against that replica.

All drive-loop machinery — :meth:`~repro.sim.engine.SimulationHost.step`,
:meth:`~repro.sim.engine.SimulationHost.run_until_quiescent` with its
cross-replica apply fixpoint, timers, open-loop arrivals and the unified
:class:`~repro.core.host.RunMetrics` — comes from the
:class:`~repro.sim.engine.SimulationHost` base class and is shared verbatim
with the client–server deployment.  Every issue/apply is traced, so after a
run :meth:`~repro.sim.engine.SimulationHost.check_consistency` can validate
the whole execution against Definition 2 independently of the protocol's
own metadata.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..core.errors import ConfigurationError
from ..core.protocol import CausalReplica, Update
from ..core.registers import Register, ReplicaId
from ..core.replica import edge_indexed_factory
from ..core.share_graph import ShareGraph
from .delays import DelayModel
from .engine import BatchingConfig, SimulationHost

#: Signature of a factory building one replica of a protocol for a cluster.
ReplicaFactory = Callable[[ShareGraph, ReplicaId], CausalReplica]


class Cluster(SimulationHost):
    """A simulated peer-to-peer deployment over one share graph.

    Parameters
    ----------
    share_graph:
        The register placement / share graph of the system.
    replica_factory:
        Builds the protocol instance per replica; defaults to the paper's
        edge-indexed algorithm.
    delay_model, seed, batching, wire_accounting:
        The transport's, as for :class:`~repro.sim.engine.SimulationHost`.
    """

    def __init__(
        self,
        share_graph: ShareGraph,
        replica_factory: ReplicaFactory = edge_indexed_factory,
        delay_model: Optional[DelayModel] = None,
        seed: int = 0,
        batching: Optional[BatchingConfig] = None,
        wire_accounting: bool = False,
    ) -> None:
        super().__init__(share_graph, delay_model=delay_model, seed=seed,
                         batching=batching, wire_accounting=wire_accounting)
        self.replica_factory = replica_factory
        self.replicas: Dict[ReplicaId, CausalReplica] = {
            rid: replica_factory(share_graph, rid) for rid in share_graph.replica_ids
        }

    def _replica_map(self) -> Dict[ReplicaId, CausalReplica]:
        return self.replicas

    # ------------------------------------------------------------------
    # Membership hooks (dynamic reconfiguration)
    # ------------------------------------------------------------------
    def _add_member(self, replica_id: ReplicaId, new_graph: ShareGraph,
                    epoch: int) -> CausalReplica:
        replica = self.replica_factory(new_graph, replica_id)
        replica.epoch = epoch
        self.replicas[replica_id] = replica
        return replica

    def _remove_member(self, replica_id: ReplicaId) -> None:
        del self.replicas[replica_id]

    def _migrate_members(self, new_graph: ShareGraph, epoch: int) -> None:
        for replica_id in sorted(self.replicas):
            self.replicas[replica_id].migrate(new_graph, epoch)

    # ------------------------------------------------------------------
    # Client operations (peer-to-peer architecture, Figure 1a)
    # ------------------------------------------------------------------
    def replica(self, replica_id: ReplicaId) -> CausalReplica:
        """The replica object for ``replica_id``."""
        return self._replica(replica_id)

    def write(self, replica_id: ReplicaId, register: Register,
              value: Any) -> Optional[Update]:
        """Issue a write at the client co-located with ``replica_id`` and
        multicast its update messages.

        Returns ``None`` (rejecting the operation) while the replica is
        crashed by the fault injector, outside the current membership,
        migrating, or (under dynamic membership) not storing the register
        — the availability cost of faults and reconfiguration.
        """
        issued = self.perform_write(replica_id, register, value)
        if issued is None:
            return None
        update, messages = issued
        self.network.send_all(messages)
        return update

    def read(self, replica_id: ReplicaId, register: Register) -> Any:
        """Issue a read at the client co-located with ``replica_id``
        (``None`` when rejected, as for :meth:`write`)."""
        return self.perform_read(replica_id, register)

    def submit_operation(self, operation: Any) -> Any:
        """Execute one workload :class:`~repro.sim.workloads.Operation`."""
        if operation.kind == "write":
            return self.write(operation.replica_id, operation.register, operation.value)
        if operation.kind == "read":
            return self.read(operation.replica_id, operation.register)
        raise ConfigurationError(f"unknown operation kind {operation.kind!r}")

