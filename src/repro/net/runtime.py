"""The multi-process launcher: a live cluster of multi-tenant nodes.

:class:`LiveCluster` deploys a share graph onto OS processes under a
**placement** — a map from node id to the replicas it hosts.  The default
placement is one replica per node (node id == replica id), the shape every
pre-existing test drives; ``nodes=k`` splits the sorted replica ids
contiguously across ``k`` nodes, so a 512-replica graph runs in 8
processes instead of 512.  Each process is one
:class:`~repro.net.node.LiveNode` (:func:`repro.net.node.node_main` under
the ``spawn`` start method, so each node owns a clean interpreter and
asyncio loop); the launcher wires the node address map, drives client
operations over per-node control connections, and collects the
end-of-run reports the consistency checker consumes.

The launcher is deliberately synchronous — plain sockets plus one reader
thread per control link — so tests and benchmarks drive it like any other
fixture.  The interesting concurrency all lives in the nodes.

Lifecycle::

    with LiveCluster(graph, nodes=8, durable_dir=tmp) as cluster:
        result = cluster.run_open_loop(workload)           # client + drain
        report = result.check_consistency()

Fault injection is first-class: :meth:`LiveCluster.kill` SIGKILLs a node
mid-run (taking all its tenants down at once) and
:meth:`LiveCluster.restart` boots a fresh process that replays each
node's checkpoint + WAL tail (:mod:`repro.net.wal`); the stream
reconnect + ``SYNC`` resync protocol (:mod:`repro.net.node`) brings it
back in sync, exactly like the simulator's crash/restart path.

**Quiescence detection.**  The launcher polls every node's ``STATS`` frame
and declares the cluster drained when (a) every per-channel durable
progress book matches — for each directed share-graph edge ``(i, j)``,
``i``'s hosting node has logged exactly as many updates on channel
``(i, j)`` as ``j``'s hosting node has ever first-received on it — and
(b) every node reports empty send queues, no unacked messages and an
empty pending buffer, and (c) the whole snapshot is stable across
consecutive polls.  The books are keyed by *channel*, not peer, so they
are placement-independent: co-hosting replicas moves a channel off the
wire without changing what the books say.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import queue
import socket
import threading
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.consistency import ConsistencyChecker, ConsistencyReport
from ..core.errors import ConfigurationError, SimulationError
from ..core.host import LatencySummary, RunMetrics
from ..core.protocol import ReplicaEvent, UpdateId
from ..core.registers import Register, ReplicaId
from ..core.share_graph import ShareGraph
from ..wire.channel import BatchingConfig
from ..wire.primitives import WireFormatError
from . import frames
from .framing import StreamDecoder, encode_frame
from .node import (
    DEFAULT_BATCHING,
    Address,
    Channel,
    NodeConfig,
    NodeId,
    _id_order,
    edge_indexed_factory,
    node_main,
)


class LiveRuntimeError(SimulationError):
    """A live-cluster orchestration failure (boot, drain, or collection)."""


# ======================================================================
# Control links (launcher → node)
# ======================================================================

class ControlLink:
    """One synchronous control connection to a node.

    Writes happen on the caller's thread (serialised by a lock); a daemon
    reader thread decodes incoming frames and dispatches operation replies,
    stats and reports to their waiters.  :meth:`close` joins the reader, so
    every frame the node flushed before exiting — including a REPORT racing
    the shutdown — is dispatched, never dropped on the floor.
    """

    def __init__(self, address: Address, timeout: float = 5.0) -> None:
        self.address = address
        self.sock = socket.create_connection(address, timeout=timeout)
        self.sock.settimeout(None)
        self.alive = True
        self._send_lock = threading.Lock()
        self._stats: "queue.Queue[bytes]" = queue.Queue()
        self._reports: "queue.Queue[bytes]" = queue.Queue()
        #: op_id -> (submit wall time, reply slot); filled by the reader.
        self._pending_ops: Dict[int, List[Any]] = {}
        self._ops_lock = threading.Lock()
        self.op_replies: Dict[int, Tuple[float, int, Any]] = {}
        #: TELEMETRY pushes collected by the reader thread, in arrival
        #: order: ``(sample time, node id, samples)`` triples.
        self.telemetry: List[Tuple[float, Any, list]] = []
        #: Frames of unknown kind, surfaced for the harness to inspect
        #: instead of silently discarded (a version-skewed node speaking a
        #: newer vocabulary should be a visible condition, not a mystery).
        self.unclaimed: List[Tuple[int, bytes]] = []
        self.send(frames.CONTROL_HELLO)
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def send(self, kind: int, payload: bytes = b"") -> None:
        data = encode_frame(kind, payload)
        with self._send_lock:
            self.sock.sendall(data)

    def submit_op(self, op_id: int, replica: ReplicaId, kind: str,
                  register: Any, value: Any) -> None:
        """Fire one operation at a hosted replica (open-loop: the reply
        arrives asynchronously)."""
        with self._ops_lock:
            self._pending_ops[op_id] = [time.perf_counter()]
        self.send(
            frames.OP, frames.encode_op(op_id, replica, kind, register, value)
        )

    def request_stats(
        self, timeout: float = 5.0
    ) -> Tuple[frames.NodeStats, dict, dict]:
        self.send(frames.STATS_REQ)
        try:
            payload = self._stats.get(timeout=timeout)
        except queue.Empty:
            raise LiveRuntimeError(
                f"node at {self.address} did not answer STATS within {timeout}s"
            ) from None
        return frames.decode_stats_payload(payload)

    def request_report(self, timeout: float = 10.0) -> Dict[str, Any]:
        self.send(frames.REPORT_REQ)
        try:
            payload = self._reports.get(timeout=timeout)
        except queue.Empty:
            raise LiveRuntimeError(
                f"node at {self.address} did not answer REPORT within {timeout}s"
            ) from None
        return pickle.loads(payload)

    def close(self, timeout: float = 2.0) -> None:
        """Shut the link down without losing frames already in flight.

        Half-close the socket (we will send no more), then join the reader
        thread with a timeout: the reader keeps dispatching until the node
        closes its end, so a REPORT or TELEMETRY frame racing the close
        still lands in its queue.  Only if the node never hangs up within
        the timeout is the socket forced closed — a bounded wait, so
        :meth:`LiveCluster.stop` cannot hang on a wedged node.
        """
        try:
            self.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        self._reader.join(timeout=timeout)
        if self._reader.is_alive():
            # The node side never closed: force EOF under the reader (a
            # full shutdown wakes a blocked recv, which a bare close does
            # not) and give it one more bounded chance to finish.
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self.sock.close()
            except OSError:
                pass
            self._reader.join(timeout=timeout)
        self.alive = False
        try:
            self.sock.close()
        except OSError:
            pass

    def _read_loop(self) -> None:
        decoder = StreamDecoder()
        try:
            while True:
                chunk = self.sock.recv(65536)
                if not chunk:
                    break
                for kind, payload in decoder.feed(chunk):
                    self._dispatch(kind, payload)
        except (OSError, WireFormatError):
            pass
        finally:
            self.alive = False

    def _dispatch(self, kind: int, payload: bytes) -> None:
        if kind == frames.OP_REPLY:
            op_id, status, value = frames.decode_op_reply(payload)
            with self._ops_lock:
                entry = self._pending_ops.pop(op_id, None)
            if entry is not None:
                self.op_replies[op_id] = (
                    time.perf_counter() - entry[0], status, value
                )
        elif kind == frames.STATS:
            self._stats.put(payload)
        elif kind == frames.REPORT:
            self._reports.put(payload)
        elif kind == frames.TELEMETRY:
            self.telemetry.append(frames.decode_telemetry_payload(payload))
        else:
            self.unclaimed.append((kind, payload))


# ======================================================================
# The run result
# ======================================================================

@dataclass
class LiveRunResult:
    """Everything a finished (drained) live run reports.

    The cluster-wide view stitched from the per-node reports: the same
    event traces, metrics and verdicts the simulator produces, fed from
    wall-clock processes — which is exactly what the differential harness
    compares.  ``reports`` stays keyed by *replica* id regardless of
    placement (the consistency checker thinks in replicas); each node's
    metrics, lifecycle trace and transport footprint live in
    ``node_reports``.
    """

    share_graph: ShareGraph
    reports: Dict[ReplicaId, Dict[str, Any]]
    #: Merged cluster metrics; times are seconds relative to the cluster's
    #: clock origin.
    metrics: RunMetrics
    #: Wall-clock seconds the workload + drain took (the live makespan).
    wall_duration: float = 0.0
    #: Per-node TELEMETRY streams collected during the run: node id →
    #: ``[(sample time, node id, samples), …]`` in arrival order.
    telemetry: Dict[Any, List[Tuple[float, Any, list]]] = field(
        default_factory=dict
    )
    #: Node-level reports (metrics, lifecycle trace, transport footprint,
    #: WAL counters), keyed by node id; the tenant payloads are flattened
    #: into ``reports``.
    node_reports: Dict[Any, Dict[str, Any]] = field(default_factory=dict)

    def events_by_replica(self) -> Dict[ReplicaId, Sequence[ReplicaEvent]]:
        """Each replica's local issue/apply/read trace."""
        return {rid: report["events"] for rid, report in self.reports.items()}

    def check_consistency(self, check_liveness: bool = True) -> ConsistencyReport:
        """Validate the live execution against the paper's Definition 2.

        Same checker, same inputs as
        :meth:`repro.core.host.ReplicaHost.check_consistency` — the oracle
        does not care whether the trace came from simulated or real time.
        """
        checker = ConsistencyChecker(self.share_graph)
        return checker.check(
            self.events_by_replica(), check_liveness=check_liveness
        )

    def channel_streams(self) -> Dict[Channel, Tuple[UpdateId, ...]]:
        """First-receipt update-id stream per directed channel."""
        out: Dict[Channel, Tuple[UpdateId, ...]] = {}
        for report in self.reports.values():
            for channel, uids in report["streams"].items():
                out[channel] = tuple(uids)
        return out

    def final_state(self) -> Dict[Register, Dict[ReplicaId, Any]]:
        """Final value of every register at every replica storing it."""
        out: Dict[Register, Dict[ReplicaId, Any]] = {}
        for rid, report in self.reports.items():
            for register, value in report["store"].items():
                out.setdefault(register, {})[rid] = value
        return out

    def values(self, register: Register) -> Dict[ReplicaId, Any]:
        """The final value of ``register`` at every replica storing it."""
        return dict(self.final_state().get(register, {}))

    def trace_events(self) -> List[Tuple[float, str, UpdateId, ReplicaId, ReplicaId]]:
        """The merged cluster-wide lifecycle trace, sorted by time.

        Every node records into its own process-local
        :class:`~repro.obs.trace.TraceRecorder` against the shared
        ``clock_origin``, so concatenating the per-node event lists
        yields one coherent wall-relative trace — the same cross-process
        join the apply-latency merge performs, keyed by update id.
        """
        events: List[Any] = []
        for report in self.node_reports.values():
            events.extend(report.get("trace", ()))
        events.sort()
        return events

    def channel_wire_stats(self) -> Dict[Channel, Any]:
        """Per-channel outgoing wire books, merged across nodes.

        Each directed channel is owned by exactly one sending node, so the
        merge is a plain union — the same
        :class:`~repro.wire.channel.ChannelWireStats` books the simulator
        exposes as ``NetworkStats.per_channel``.  Channels between
        co-hosted replicas short-circuit in process and never appear: no
        bytes, no book.
        """
        out: Dict[Channel, Any] = {}
        for report in self.node_reports.values():
            out.update(report.get("wire_stats", {}))
        return out

    def open_connections(self) -> int:
        """Cluster-wide transport footprint: outbound streams + inbound
        sockets (control links included), summed across nodes."""
        total = 0
        for report in self.node_reports.values():
            transport = report.get("transport", {})
            total += transport.get("open_streams", 0)
            total += transport.get("inbound_connections", 0)
        return total

    @property
    def delivered_ops_per_sec(self) -> float:
        """Remote applies per wall-clock second over the whole run."""
        if self.wall_duration <= 0:
            return 0.0
        return self.metrics.applies / self.wall_duration

    def operation_latency_summary(self) -> LatencySummary:
        return self.metrics.operation_latency_summary()

    def apply_latency_summary(self) -> LatencySummary:
        return self.metrics.apply_latency_summary()


def merge_reports(
    share_graph: ShareGraph,
    reports: Dict[ReplicaId, Dict[str, Any]],
    operation_latencies: Optional[List[float]] = None,
    rejected_operations: int = 0,
    wall_duration: float = 0.0,
    crashes: int = 0,
    restarts: int = 0,
    downtime: Optional[Dict[ReplicaId, List[Tuple[float, float]]]] = None,
    telemetry: Optional[Dict[Any, List[Tuple[float, Any, list]]]] = None,
    node_reports: Optional[Dict[Any, Dict[str, Any]]] = None,
) -> LiveRunResult:
    """Fold per-replica and per-node reports into one cluster-wide
    :class:`LiveRunResult`.

    The counts and time series are the nodes' metrics summed.  Remote-apply
    latencies are joined across replicas: each replica reports when it
    applied each update (wall-relative), the issuer reports when it was
    issued; the difference is the live analogue of the simulator's
    issue→apply latency samples.
    """
    metrics = RunMetrics()
    node_reports = dict(node_reports or {})
    for node_report in node_reports.values():
        node_metrics: RunMetrics = node_report["metrics"]
        metrics.writes += node_metrics.writes
        metrics.reads += node_metrics.reads
        metrics.applies += node_metrics.applies
        metrics.apply_times.extend(node_metrics.apply_times)
        metrics.operation_times.extend(node_metrics.operation_times)
        for rid, depth in node_metrics.max_pending.items():
            metrics.max_pending[rid] = max(metrics.max_pending.get(rid, 0), depth)
    issue_times: Dict[UpdateId, float] = {}
    for report in reports.values():
        issue_times.update(report["issue_times"])
    for rid, report in reports.items():
        for uid, applied_at in report["apply_times"].items():
            if uid[0] == rid:
                continue  # the issuer's own apply is not a remote apply
            issued_at = issue_times.get(uid)
            if issued_at is not None:
                metrics.apply_latencies.append(applied_at - issued_at)
    # ``array`` has no in-place sort: re-sort into fresh arrays.
    metrics.apply_times = array("d", sorted(metrics.apply_times))
    metrics.operation_times = array("d", sorted(metrics.operation_times))
    metrics.operation_latencies = array("d", operation_latencies or ())
    metrics.rejected_operations = rejected_operations
    # Fault accounting comes from the launcher — it injected the kills, so
    # it owns the timeline (a SIGKILLed process cannot count its own death,
    # and a restarted node's in-memory counters start from zero).
    metrics.crashes = crashes
    metrics.restarts = restarts
    metrics.downtime = {
        rid: list(intervals) for rid, intervals in (downtime or {}).items()
    }
    return LiveRunResult(
        share_graph=share_graph,
        reports=reports,
        metrics=metrics,
        wall_duration=wall_duration,
        telemetry=dict(telemetry or {}),
        node_reports=node_reports,
    )


# ======================================================================
# The launcher
# ======================================================================

def contiguous_placement(
    share_graph: ShareGraph, nodes: int
) -> Dict[NodeId, Tuple[ReplicaId, ...]]:
    """Split the sorted replica ids contiguously across ``nodes`` nodes.

    Contiguity keeps ring/torus neighbours co-hosted, so the short-circuit
    path absorbs most traffic on locality-friendly topologies.  Node ids
    are ``"n0" … "n{k-1}"``; empty groups (more nodes than replicas) are
    dropped.
    """
    if nodes < 1:
        raise ConfigurationError("a live cluster needs at least one node")
    rids = sorted(share_graph.replica_ids, key=_id_order)
    count = min(nodes, len(rids))
    base, extra = divmod(len(rids), count)
    placement: Dict[NodeId, Tuple[ReplicaId, ...]] = {}
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        placement[f"n{index}"] = tuple(rids[start:start + size])
        start += size
    return placement


@dataclass
class _Member:
    """One node process's launcher-side bookkeeping."""

    config: NodeConfig
    process: Any = None
    link: Optional[ControlLink] = None


class LiveCluster:
    """A live deployment of one share graph across multi-tenant nodes.

    Parameters
    ----------
    share_graph:
        The register placement / share graph to deploy.
    replica_factory:
        Protocol family per replica (default: the paper's edge-indexed
        algorithm).  Must be a picklable module-level callable (the spawn
        start method ships it to the child).
    batching:
        The batching window forwarded to every node, in seconds
        (:class:`~repro.wire.channel.BatchingConfig`, default 16 messages
        / 2 ms).
    durable_dir:
        Directory for the nodes' checkpoint + WAL files (one pair per
        node); required for :meth:`kill`/:meth:`restart` recovery.
        ``None`` runs diskless.
    nodes:
        Host the replicas on this many OS processes (contiguous split of
        the sorted replica ids).  Default: one node per replica, node id
        == replica id — the shape single-tenant tests expect.
    placement:
        Explicit node id → hosted replica ids map (overrides ``nodes``).
        Must partition the share graph's replicas exactly.
    wal_compact_bytes:
        Per-node WAL size that triggers compaction into a checkpoint.
    tracing:
        Record the message-lifecycle trace at every replica (wall-relative
        stamps against the shared clock origin); the merged trace comes
        back via :meth:`LiveRunResult.trace_events`.
    telemetry_interval:
        Seconds between ``TELEMETRY`` pushes from each node over the
        control link (``0`` disables); samples land on
        :attr:`LiveRunResult.telemetry`.
    """

    def __init__(
        self,
        share_graph: ShareGraph,
        replica_factory: Callable = edge_indexed_factory,
        batching: Optional[BatchingConfig] = None,
        durable_dir: Optional[str] = None,
        listen_host: str = "127.0.0.1",
        tracing: bool = False,
        telemetry_interval: float = 0.0,
        nodes: Optional[int] = None,
        placement: Optional[Mapping[NodeId, Sequence[ReplicaId]]] = None,
        wal_compact_bytes: int = 1 << 18,
    ) -> None:
        self.share_graph = share_graph
        self.listen_host = listen_host
        self.clock_origin = time.time()
        self._ctx = multiprocessing.get_context("spawn")
        self._ready: Any = self._ctx.Queue()
        self._members: Dict[NodeId, _Member] = {}
        self.addresses: Dict[NodeId, Address] = {}
        self._op_counter = 0
        self._started = False
        #: Launcher-side fault accounting (the launcher injects the faults,
        #: so it owns the timeline — node processes cannot count their own
        #: SIGKILLs).  Times are seconds relative to clock_origin.
        self._crashes = 0
        self._restarts = 0
        self._down_since: Dict[ReplicaId, float] = {}
        self._downtime: Dict[ReplicaId, List[Tuple[float, float]]] = {}
        if durable_dir is not None:
            os.makedirs(durable_dir, exist_ok=True)
        self.placement = self._resolve_placement(nodes, placement)
        #: replica id → hosting node id, the inverse of ``placement``.
        self._replica_node: Dict[ReplicaId, NodeId] = {
            rid: node_id
            for node_id, rids in self.placement.items()
            for rid in rids
        }
        for node_id, rids in self.placement.items():
            self._members[node_id] = _Member(config=NodeConfig(
                node_id=node_id,
                share_graph=share_graph,
                replica_ids=tuple(rids),
                replica_nodes=dict(self._replica_node),
                listen_host=listen_host,
                replica_factory=replica_factory,
                batching=batching or DEFAULT_BATCHING,
                durable_dir=durable_dir,
                wal_compact_bytes=wal_compact_bytes,
                clock_origin=self.clock_origin,
                tracing=tracing,
                telemetry_interval=telemetry_interval,
            ))

    def _resolve_placement(
        self,
        nodes: Optional[int],
        placement: Optional[Mapping[NodeId, Sequence[ReplicaId]]],
    ) -> Dict[NodeId, Tuple[ReplicaId, ...]]:
        if placement is not None:
            resolved = {
                node_id: tuple(rids) for node_id, rids in placement.items()
            }
            hosted = [rid for rids in resolved.values() for rid in rids]
            if sorted(hosted, key=_id_order) != sorted(
                self.share_graph.replica_ids, key=_id_order
            ) or len(hosted) != len(set(hosted)):
                raise ConfigurationError(
                    "placement must partition the share graph's replicas "
                    "exactly (every replica on exactly one node)"
                )
            return resolved
        if nodes is not None:
            return contiguous_placement(self.share_graph, nodes)
        # The single-tenant default: node id == replica id, so fault
        # injection and link lookup by replica id keep working verbatim.
        return {
            rid: (rid,)
            for rid in sorted(self.share_graph.replica_ids, key=_id_order)
        }

    def _resolve_node(self, member_id: Any) -> NodeId:
        """Accept either a node id or a hosted replica id."""
        if member_id in self._members:
            return member_id
        node_id = self._replica_node.get(member_id)
        if node_id is None:
            raise LiveRuntimeError(f"unknown node or replica {member_id!r}")
        return node_id

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "LiveCluster":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def start(self, timeout: Optional[float] = None) -> None:
        """Boot every node process and wire the address map.

        The default ready deadline scales with cluster size: every tenant
        builds its Definition 5 timestamp graph during boot, so a 512-way
        multi-tenant cluster legitimately takes far longer to come up than
        an 8-process single-tenant one — especially on a single core,
        where the node processes serialise.
        """
        if timeout is None:
            timeout = 30.0 + 0.2 * len(self._replica_node)
        if self._started:
            return
        self._started = True
        for member in self._members.values():
            self._spawn(member)
        deadline = time.monotonic() + timeout
        while len(self.addresses) < len(self._members):
            self._collect_ready(deadline)
        for node_id in sorted(self._members, key=_id_order):
            self._connect_control(node_id)
        self._broadcast_addresses()

    def _spawn(self, member: _Member) -> None:
        member.process = self._ctx.Process(
            target=node_main,
            args=(member.config, self._ready),
            daemon=True,
            name=f"repro-node-{member.config.node_id}",
        )
        member.process.start()

    def _collect_ready(self, deadline: float) -> None:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            missing = sorted(
                set(self._members) - set(self.addresses), key=_id_order
            )
            raise LiveRuntimeError(f"nodes {missing} never reported ready")
        try:
            node_id, port = self._ready.get(timeout=min(remaining, 0.5))
        except queue.Empty:
            return
        self.addresses[node_id] = (self.listen_host, port)

    def _connect_control(self, node_id: NodeId) -> None:
        member = self._members[node_id]
        member.link = ControlLink(self.addresses[node_id])

    def _broadcast_addresses(self) -> None:
        for node_id, address in sorted(self.addresses.items(), key=lambda kv: _id_order(kv[0])):
            payload = frames.encode_addr(node_id, *address)
            for other, member in self._members.items():
                if other != node_id and member.link is not None and member.link.alive:
                    member.link.send(frames.ADDR, payload)

    def stop(self, timeout: float = 5.0) -> None:
        """Shut every node down (graceful SHUTDOWN, then terminate)."""
        for member in self._members.values():
            link = member.link
            if link is not None and link.alive:
                try:
                    link.send(frames.SHUTDOWN)
                except OSError:
                    pass
        for member in self._members.values():
            process = member.process
            if process is not None and process.is_alive():
                process.join(timeout=timeout)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=timeout)
            if member.link is not None:
                member.link.close()
        self._started = False

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def kill(self, member_id: Any) -> None:
        """SIGKILL a node mid-run: no warning, no flush, no goodbye.

        Accepts a node id or any replica id it hosts; every tenant goes
        down with the process.  What survives is the node's durable
        checkpoint + WAL tail; peers' streams break and enter their
        reconnect loops.
        """
        node_id = self._resolve_node(member_id)
        member = self._members[node_id]
        if member.process is None or not member.process.is_alive():
            raise LiveRuntimeError(f"node {node_id!r} is not running")
        member.process.kill()
        member.process.join()
        if member.link is not None:
            member.link.close()
            member.link = None
        self.addresses.pop(node_id, None)
        self._crashes += 1
        down_at = time.time() - self.clock_origin
        for rid in member.config.replica_ids:
            self._down_since[rid] = down_at

    def restart(self, member_id: Any, timeout: float = 30.0) -> None:
        """Boot a fresh process for the node from its durable state.

        The new node replays its checkpoint + WAL tail, binds a
        fresh port, reconnects its peer streams (learning addresses from
        the map in its config) and answers every peer's ``SYNC`` with the
        updates they missed — the live crash-recovery path.
        """
        node_id = self._resolve_node(member_id)
        member = self._members[node_id]
        if member.process is not None and member.process.is_alive():
            raise LiveRuntimeError(f"node {node_id!r} is still running")
        if member.config.durable_dir is None:
            raise LiveRuntimeError(
                "restart requires durable state (a diskless node would "
                "reissue already-used update ids); construct the cluster "
                "with durable_dir"
            )
        member.config = dataclasses.replace(
            member.config, peers=dict(self.addresses), listen_port=0
        )
        self._spawn(member)
        deadline = time.monotonic() + timeout
        while node_id not in self.addresses:
            self._collect_ready(deadline)
        self._connect_control(node_id)
        self._broadcast_addresses()
        self._restarts += 1
        up_at = time.time() - self.clock_origin
        for rid in member.config.replica_ids:
            down_at = self._down_since.pop(rid, None)
            if down_at is not None:
                self._downtime.setdefault(rid, []).append((down_at, up_at))

    def alive(self, member_id: Any) -> bool:
        """``True`` while the node's process runs and its link is open."""
        node_id = self._resolve_node(member_id)
        member = self._members[node_id]
        return (
            member.process is not None
            and member.process.is_alive()
            and member.link is not None
            and member.link.alive
        )

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------
    def link(self, member_id: Any) -> Optional[ControlLink]:
        """The hosting node's control link, or ``None`` while it is down.

        Accepts a node id or a replica id — clients address replicas; the
        placement decides which process answers.
        """
        try:
            node_id = self._resolve_node(member_id)
        except LiveRuntimeError:
            return None
        member = self._members.get(node_id)
        if member is None or member.link is None or not member.link.alive:
            return None
        return member.link

    def next_op_id(self) -> int:
        self._op_counter += 1
        return self._op_counter

    def run_open_loop(self, workload: Any, time_scale: float = 0.001,
                      drain_timeout: float = 60.0) -> LiveRunResult:
        """Drive an open-loop workload, drain, and collect the result.

        Convenience wrapper around :class:`~repro.net.client.OpenLoopClient`
        + :meth:`drain` + :meth:`collect`.
        """
        from .client import OpenLoopClient

        started = time.perf_counter()
        client = OpenLoopClient(self)
        outcome = client.run(workload, time_scale=time_scale)
        self.drain(timeout=drain_timeout)
        wall = time.perf_counter() - started
        return self.collect(
            operation_latencies=outcome.latencies,
            rejected_operations=outcome.rejected,
            wall_duration=wall,
        )

    # ------------------------------------------------------------------
    # Quiescence and collection
    # ------------------------------------------------------------------
    def poll_stats(self) -> Dict[NodeId, Tuple[frames.NodeStats, dict, dict]]:
        """One STATS round-trip per live node."""
        out = {}
        for node_id in sorted(self._members, key=_id_order):
            link = self.link(node_id)
            if link is not None:
                out[node_id] = link.request_stats()
        return out

    def _quiescent(
        self, snapshot: Dict[NodeId, Tuple[frames.NodeStats, dict, dict]]
    ) -> bool:
        if set(snapshot) != set(self._members):
            return False
        for stats, _, _ in snapshot.values():
            if stats.pending or stats.send_queue or stats.unacked:
                return False
        # Channel-keyed progress books: compare what i's hosting node has
        # logged on channel (i, j) against what j's hosting node has
        # first-received on it.  Placement-independent — an intra-node
        # channel's books live on the same node, but the comparison is
        # identical.
        for i, j in self.share_graph.edges:
            sent = snapshot[self._replica_node[i]][1].get((i, j), 0)
            got = snapshot[self._replica_node[j]][2].get((i, j), 0)
            if sent != got:
                return False
        return True

    def drain(self, timeout: float = 60.0, poll_interval: float = 0.05,
              stable_polls: int = 2) -> None:
        """Block until the cluster has fully propagated and applied.

        Raises :class:`LiveRuntimeError` with the last stats snapshot when
        the deadline passes — the live analogue of the simulator's
        ``run_until_quiescent`` step budget.
        """
        deadline = time.monotonic() + timeout
        stable = 0
        previous = None
        while time.monotonic() < deadline:
            snapshot = self.poll_stats()
            if self._quiescent(snapshot):
                stable = stable + 1 if snapshot == previous else 1
                if stable >= stable_polls:
                    return
            else:
                stable = 0
            previous = snapshot
            time.sleep(poll_interval)
        raise LiveRuntimeError(
            f"cluster did not quiesce within {timeout}s; last stats: "
            f"{ {node_id: entry[0] for node_id, entry in self.poll_stats().items()} }"
        )

    def collect(self, operation_latencies: Optional[List[float]] = None,
                rejected_operations: int = 0,
                wall_duration: float = 0.0) -> LiveRunResult:
        """Fetch every node's report and merge the cluster-wide result."""
        reports: Dict[ReplicaId, Dict[str, Any]] = {}
        node_reports: Dict[NodeId, Dict[str, Any]] = {}
        for node_id in sorted(self._members, key=_id_order):
            link = self.link(node_id)
            if link is None:
                raise LiveRuntimeError(
                    f"cannot collect from down node {node_id!r}; restart it first"
                )
            node_report = link.request_report()
            node_reports[node_id] = {
                key: value
                for key, value in node_report.items()
                if key != "tenants"
            }
            reports.update(node_report["tenants"])
        telemetry = {
            node_id: list(member.link.telemetry)
            for node_id, member in sorted(
                self._members.items(), key=lambda kv: _id_order(kv[0])
            )
            if member.link is not None and member.link.telemetry
        }
        return merge_reports(
            self.share_graph,
            reports,
            operation_latencies=operation_latencies,
            rejected_operations=rejected_operations,
            wall_duration=wall_duration,
            crashes=self._crashes,
            restarts=self._restarts,
            downtime=self._downtime,
            telemetry=telemetry,
            node_reports=node_reports,
        )
