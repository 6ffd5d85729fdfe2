"""The live asyncio runtime: the wire layer on real TCP streams.

Everything below :mod:`repro.wire` was, until this package, exercised only
inside the discrete-event simulator.  :mod:`repro.net` runs the *same*
protocol instances (:class:`~repro.core.protocol.CausalReplica`) as live
OS processes talking length-prefixed :class:`~repro.wire.batch.MessageBatch`
frames over localhost TCP:

* :mod:`repro.net.framing` — length-prefixed stream framing with an
  incremental decoder (bytes arrive in arbitrary chunks; frames come out
  whole);
* :mod:`repro.net.frames` — the small control vocabulary around the data
  frames: node hellos, replica-tagged acks and resync offers, client
  operations and the stats/report harness protocol;
* :mod:`repro.net.node` — one live node: an asyncio TCP server that is
  the :class:`~repro.core.host.ReplicaHost` of many replica *tenants*, one outbound stream per peer **node** (not per
  share-graph edge) multiplexing every channel between the two nodes, the
  channels' sending half (batching windows, the only place a copy waits;
  delta chains; acks, and re-sends on reconnect) in the shared
  :class:`~repro.wire.channel.ChannelSender`, intra-node short-circuit
  delivery inside the write, and one write-ahead log per node
  (:mod:`repro.net.wal`) so a SIGKILLed process replays checkpoint + log
  tail exactly like a simulated crash;
* :mod:`repro.net.wal` — the checkpoint + write-ahead-log pair behind
  that durability: O(delta) tenant-tagged appends, group-committed by a
  flush before every socket write, fsync-before-delete compaction;
* :mod:`repro.net.runtime` — the multi-process launcher
  (:class:`~repro.net.runtime.LiveCluster`): spawns node processes under
  a replica→node placement, drives workloads, detects quiescence,
  kills/restarts members, and collects the event traces the consistency
  checker consumes;
* :mod:`repro.net.client` — open-loop client load against a live cluster.

The simulator is the test oracle for all of it: the differential harness
(``tests/differential``) replays the same seeded workload through
:class:`~repro.sim.cluster.Cluster` and :class:`~repro.net.runtime.LiveCluster`
and asserts identical consistency verdicts, final register states and
per-channel delivery streams.
"""

from .client import OpenLoopClient
from .framing import StreamDecoder, encode_frame
from .node import LiveNode, NodeConfig
from .runtime import LiveCluster, LiveRunResult
from .wal import ReplicaWAL, WalCheckpoint

__all__ = [
    "LiveCluster",
    "LiveNode",
    "LiveRunResult",
    "NodeConfig",
    "OpenLoopClient",
    "ReplicaWAL",
    "StreamDecoder",
    "WalCheckpoint",
    "encode_frame",
]
