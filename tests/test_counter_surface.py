"""The exported counter surface: nothing a consumer reads may disappear.

A simulated figure-5 run is published through ``registry_for_sim``; an
in-process live node pair (built as in ``tests/test_net_node_io.py``)
exports TELEMETRY samples, a REPORT and a STATS frame.  Every metric
family (name and label keys), every report key and every ``NodeStats``
field listed below was exported before the counters were declared on
their books; each must still be.  New exports may join; none may leave.
"""

import asyncio
import dataclasses

from inbound import serve
from repro.core.registers import RegisterPlacement
from repro.core.share_graph import ShareGraph
from repro.net import frames
from repro.net.framing import encode_frame
from repro.net.node import LiveNode, NodeConfig, _PeerStream
from repro.obs import registry_for_sim
from repro.sim.cluster import Cluster
from repro.sim.delays import LossyDelay, UniformDelay
from repro.sim.engine import BatchingConfig, ReliabilityConfig
from repro.sim.faults import FaultInjector, FaultSchedule, crash, restart
from repro.sim.topologies import figure5_placement
from repro.sim.workloads import poisson_workload, run_open_loop, single_writer_workload

#: ``registry_for_sim`` families: (name, sorted label keys).
SIM_FAMILIES = {
    ("repro_applies_total", ()),
    ("repro_apply_latency", ()),
    ("repro_batches_sent_total", ()),
    ("repro_channel_batches_total", ("dst", "src")),
    ("repro_channel_bound_counters", ("dst", "src")),
    ("repro_channel_header_bytes_total", ("dst", "src")),
    ("repro_channel_messages_total", ("dst", "src")),
    ("repro_channel_payload_bytes_total", ("dst", "src")),
    ("repro_channel_timestamp_bytes_total", ("dst", "src")),
    ("repro_crashes_total", ()),
    ("repro_delta_frames_sent_total", ()),
    ("repro_full_frames_sent_total", ()),
    ("repro_header_bytes_sent_total", ()),
    ("repro_max_pending", ("replica",)),
    ("repro_messages_delivered_total", ()),
    ("repro_messages_dropped_total", ()),
    ("repro_messages_duplicated_total", ()),
    ("repro_messages_sent_total", ()),
    ("repro_metadata_counters_sent_total", ()),
    ("repro_operation_latency", ()),
    ("repro_payload_bytes_sent_total", ()),
    ("repro_reads_total", ()),
    ("repro_rejected_operations_total", ()),
    ("repro_restarts_total", ()),
    ("repro_retransmissions_total", ()),
    ("repro_timestamp_bytes_full_total", ()),
    ("repro_timestamp_bytes_sent_total", ()),
    ("repro_writes_total", ()),
}

#: A live node's TELEMETRY samples: (name, label keys in sample order).
TELEMETRY_SERIES = {
    ("repro_node_ack_frames_total", ("node",)),
    ("repro_node_corrupt_streams_total", ("node",)),
    ("repro_node_delivered_total", ("replica",)),
    ("repro_node_delta_frames_total", ("replica",)),
    ("repro_node_duplicates_total", ("replica",)),
    ("repro_node_enqueued_total", ("replica",)),
    ("repro_node_full_frames_total", ("replica",)),
    ("repro_node_inbound_connections", ("node",)),
    ("repro_node_inbound_resets_total", ("node",)),
    ("repro_node_issued_total", ("replica",)),
    ("repro_node_misrouted_batches_total", ("node",)),
    ("repro_node_open_streams", ("node",)),
    ("repro_node_ops_done_total", ("replica",)),
    ("repro_node_peer_streams", ("node",)),
    ("repro_node_pending_depth", ("replica",)),
    ("repro_node_received_total", ("replica",)),
    ("repro_node_resyncs_total", ("replica",)),
    ("repro_node_send_queue_depth", ("node",)),
    ("repro_node_sent_total", ("replica",)),
    ("repro_node_socket_writes_total", ("node",)),
    ("repro_node_unacked", ("node",)),
    ("repro_node_wal_bytes", ("node",)),
    ("repro_node_wal_checkpoint_bytes_total", ("node",)),
    ("repro_node_wal_checkpoint_seconds_total", ("node",)),
    ("repro_node_wal_compactions_total", ("node",)),
    ("repro_node_wal_flushes_total", ("node",)),
    ("repro_node_wal_records_total", ("node",)),
    ("repro_node_wire_batches_total", ("dst", "src")),
    ("repro_node_wire_messages_total", ("dst", "src")),
    ("repro_node_wire_payload_bytes_total", ("dst", "src")),
    ("repro_node_wire_timestamp_bytes_total", ("dst", "src")),
}

REPORT_KEYS = {"metrics", "node_id", "tenants", "trace", "transport", "wire_stats"}
TRANSPORT_KEYS = {
    "ack_frames", "control_connections", "corrupt_streams",
    "inbound_connections", "inbound_resets", "misrouted_batches", "open_streams",
    "peer_streams", "socket_writes", "wal_bytes", "wal_checkpoint_bytes",
    "wal_checkpoint_seconds", "wal_compactions", "wal_flushes", "wal_records",
}
#: ``duplicates_ignored`` left the tenant report on purpose: a live node
#: filters every duplicate before the replica sees it, so it read 0 — the
#: ``duplicates`` counter is the one count.
TENANT_KEYS = {
    "apply_times", "counters", "events", "issue_times", "metadata_size",
    "recovered", "replica_id", "store", "streams",
}
COUNTER_KEYS = {
    "delivered", "delta_frames", "duplicates", "enqueued", "full_frames",
    "issued", "ops_done", "received", "resyncs", "sent",
}
NODE_STATS_FIELDS = {
    "applied", "delivered", "duplicates", "enqueued", "issued", "ops_done",
    "pending", "received", "resyncs", "send_queue", "sent", "unacked",
}


def test_sim_registry_keeps_every_family():
    graph = ShareGraph.from_placement(figure5_placement())
    cluster = Cluster(graph, delay_model=UniformDelay(1, 5), seed=3,
                      wire_accounting=True)
    run_open_loop(cluster, single_writer_workload(graph, rate=2.0,
                                                  duration=20.0, seed=3))
    families = {
        (record["name"], tuple(sorted(record["labels"])))
        for record in registry_for_sim(cluster).snapshot()
    }
    assert SIM_FAMILIES <= families, sorted(SIM_FAMILIES - families)


#: Counted on the simulator's books and, since their declarations, exported:
#: (family, book attribute holding it, field).
DECLARED_SIM_COUNTERS = [
    ("repro_messages_lost_to_crash_total", "stats", "messages_lost_to_crash"),
    ("repro_messages_rejected_stale_epoch_total", "stats",
     "messages_rejected_stale_epoch"),
    ("repro_reconfig_bytes_sent_total", "stats", "reconfig_bytes_sent"),
    ("repro_batches_dropped_total", "stats", "batches_dropped"),
    ("repro_reconfigs_total", "metrics", "reconfigs"),
    ("repro_reconfig_forced_applies_total", "metrics", "reconfig_forced_applies"),
]


def test_sim_registry_exports_each_declared_counter_at_its_field():
    graph = ShareGraph.from_placement(figure5_placement())
    cluster = Cluster(graph, seed=7,
                      delay_model=LossyDelay(inner=UniformDelay(1.0, 10.0),
                                             drop_probability=0.1),
                      batching=BatchingConfig(max_messages=4, max_delay=2.0))
    FaultInjector(cluster, reliability=ReliabilityConfig(
        resend_timeout=15.0, max_retries=6)).install(FaultSchedule("lossy", (
            crash(40.0, 2), restart(70.0, 2))))
    assert run_open_loop(cluster, poisson_workload(graph, rate=2.0, duration=100.0,
                                                   seed=7)).consistent
    books = {"stats": cluster.network.stats, "metrics": cluster.metrics}
    values = {record["name"]: record["value"]
              for record in registry_for_sim(cluster).snapshot()
              if record["kind"] == "counter" and not record["labels"]}
    for family, book, attr in DECLARED_SIM_COUNTERS:
        assert values[family] == getattr(books[book], attr), family
    # The crash and the lossy link made two of them count.
    assert values["repro_messages_lost_to_crash_total"] > 0
    assert values["repro_batches_dropped_total"] > 0


#: Replicas 1 and 2 on node ``a``, 3 on node ``b``; 3 shares ``x`` with 1
#: and ``y`` with 2.
GRAPH = ShareGraph.from_placement(RegisterPlacement.from_dict(
    {1: {"x"}, 2: {"y"}, 3: {"x", "y"}}))
SPLIT = {1: "a", 2: "a", 3: "b"}


class _Writer:
    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))

    async def drain(self):
        pass


async def _traffic(tmp_path):
    """Node ``a`` writes on both tenants and flushes one pass to ``b``."""
    a = LiveNode(NodeConfig("a", GRAPH, (1, 2), SPLIT,
                            batching=BatchingConfig(max_messages=1, max_delay=60.0),
                            durable_dir=str(tmp_path)))
    stream = a.peer_streams["b"] = _PeerStream(a, "b")
    for rid, register in ((1, "x"), (2, "y")):
        for message in a.tenants[rid].write(register, f"v{rid}", a.now):
            await stream.enqueue(message)
    writer = _Writer()
    loop = asyncio.create_task(stream._send_loop(writer))
    for _ in range(100):
        if writer.writes:
            break
        await asyncio.sleep(0)
    a.stopping.set()
    stream._wake.set()
    await asyncio.wait_for(loop, 5.0)
    return a, writer


def test_live_node_keeps_every_export(tmp_path):
    a, writer = asyncio.run(_traffic(tmp_path))
    b = LiveNode(NodeConfig("b", GRAPH, (3,), SPLIT))
    hello = encode_frame(frames.HELLO, frames.encode_hello("a", 0))
    serve(b, hello + writer.writes[0])

    for node in (a, b):
        series = {(name, tuple(key for key, _ in labels))
                  for name, labels, _ in node.telemetry_samples()}
        expected = {pair for pair in TELEMETRY_SERIES
                    if node is a or not pair[0].startswith("repro_node_wire_")}
        assert expected <= series, sorted(expected - series)

        report = node.report()
        assert REPORT_KEYS <= set(report)
        assert TRANSPORT_KEYS <= set(report["transport"])
        for tenant in report["tenants"].values():
            assert TENANT_KEYS <= set(tenant), sorted(TENANT_KEYS - set(tenant))
            assert COUNTER_KEYS <= set(tenant["counters"])

        stats, _, _ = frames.decode_stats_payload(node._stats_payload())
        assert NODE_STATS_FIELDS <= {f.name for f in dataclasses.fields(stats)}
