"""Crash-point sweep over a node's one write-ahead log.

A durable node hosts replicas 2, 3 and 4 of figure 5; replica 1 lives on
a diskless peer node.  The run mixes every record kind the node's log
holds: client writes whose copies stay on the node (2↔3 on ``x``, 2↔4 on
``y``, 3↔4 on ``z``) and so ride their write's record, writes with copies for the
peer, reads, the peer's batches received as delta frames, and the
settles of the peer's ACKs.  The log is then cut at every record
boundary and one byte inside every record — each cut is a state a
SIGKILL can leave — and a fresh node recovers from each cut.  Every
recovery must give

* a trace per tenant that is a prefix of the uncut run's trace;
* every recovered write's co-hosted copies received at their
  destinations, and no intra-node copy in any sent-log;
* traces the batch checker accepts (safety; a cut run is not quiescent).
"""

from __future__ import annotations

import os
import shutil

from inbound import serve
from repro.core.consistency import ConsistencyChecker
from repro.core.protocol import EventKind
from repro.core.share_graph import ShareGraph
from repro.net import frames
from repro.net.framing import encode_frame
from repro.net.node import LiveNode, NodeConfig, _PeerStream
from repro.sim.topologies import figure5_placement
from repro.wire.batch import MessageBatch, encode_batch
from repro.wire.channel import ChannelDeltaEncoder
from repro.wire.primitives import decode_uvarint

GRAPH = ShareGraph.from_placement(figure5_placement())
PLACEMENT = {1: "p", 2: "n", 3: "n", 4: "n"}
#: Records the swept run appends (pinned: a change here changes the sweep).
RECORDS = 40


def _config(directory):
    return NodeConfig(
        node_id="n", share_graph=GRAPH, replica_ids=(2, 3, 4),
        replica_nodes=PLACEMENT, durable_dir=directory,
        wal_compact_bytes=1 << 40,
    )


def _op(op_id, replica, kind, register, value=None):
    return encode_frame(frames.OP, frames.encode_op(op_id, replica, kind,
                                                     register, value))


def _peer_batches(peer, rounds):
    """The peer's writes at replica 1 (``y`` to 2 and 4, ``w`` to 4), one
    delta-encoded ``BATCH`` frame per destination per round."""
    tenant = peer.tenants[1]
    encoder = ChannelDeltaEncoder()
    codec = tenant.replica.wire_codec()
    chunks = []
    delta_frames = 0
    for step in range(rounds):
        by_destination = {}
        for register in ("y", "w", "y"):
            for message in tenant.write(register, f"p.{step}.{register}", 0.01 * step):
                by_destination.setdefault(message.destination, []).append(message)
        chunk = b""
        for destination, messages in sorted(by_destination.items()):
            payload, sizes = encode_batch(
                MessageBatch(sender=1, destination=destination, seq=step,
                             messages=tuple(messages)),
                encoder=encoder, codec=codec)
            delta_frames += sizes.delta_frames
            chunk += encode_frame(frames.BATCH, payload)
        chunks.append(chunk)
    # Only each channel's first frame is full.
    assert delta_frames == 5 * rounds - 2
    return chunks


def _run(directory):
    """The swept run; returns the node, the peer and the log's bytes."""
    os.makedirs(directory)
    node = LiveNode(_config(directory))
    peer = LiveNode(NodeConfig("p", GRAPH, (1,), PLACEMENT))
    node.peer_streams["p"] = _PeerStream(node, "p")
    batches = _peer_batches(peer, 4)

    def ack_everything():
        for destination, book in list(node.senders["p"].sent_log.items()):
            node.note_acked(destination, list(book))

    steps = [encode_frame(frames.HELLO, frames.encode_hello("p", 0))]
    op_id = 0
    for step in range(4):
        ops = b""
        for rid, register in ((2, "x"), (3, "z"), (4, "w"), (2, "y"), (3, "x")):
            op_id += 1
            ops += _op(op_id, rid, "write", register, f"{rid}.{step}.{register}")
        for rid, register in ((4, "z"), (2, "x")):
            op_id += 1
            ops += _op(op_id, rid, "read", register)
        steps += [ops, batches[step]]
        if step % 2:
            steps.append(ack_everything)
    # The peer's ACKs (the callables) arrive between the chunks.
    serve(node, *steps)
    node.wal.close()
    with open(node.wal._log_path(0), "rb") as handle:
        data = handle.read()
    return node, peer, data


def _boundaries(data):
    """Offsets of every record boundary of a log, 0 and the end included."""
    offsets = [0]
    while offsets[-1] < len(data):
        size, after = decode_uvarint(data, offsets[-1])
        offsets.append(after + size)
    return offsets


def _cuts(data):
    boundaries = _boundaries(data)
    # At each boundary, and one byte into each record: a torn tail.
    return sorted(boundaries + [at + 1 for at in boundaries[:-1]])


def test_every_cut_of_the_node_log_recovers_a_consistent_prefix(tmp_path):
    node, peer, data = _run(str(tmp_path / "run"))
    boundaries = _boundaries(data)
    assert len(boundaries) - 1 == node.wal.records_appended == RECORDS
    uncut = {rid: list(tenant.replica.events) for rid, tenant in node.tenants.items()}
    peer_events = list(peer.tenants[1].replica.events)
    cuts = _cuts(data)
    assert len(cuts) == 2 * RECORDS + 1
    checker = ConsistencyChecker(GRAPH)
    lengths = set()
    for index, cut in enumerate(cuts):
        directory = str(tmp_path / f"cut{index}")
        os.makedirs(directory)
        with open(os.path.join(directory, "node-n.wal.0"), "wb") as handle:
            handle.write(data[:cut])
        recovered = LiveNode(_config(directory))
        traces = {rid: list(tenant.replica.events)
                  for rid, tenant in recovered.tenants.items()}
        for rid, trace in traces.items():
            assert trace == uncut[rid][:len(trace)], (cut, rid)
        _assert_intra_copies_delivered(recovered)
        report = checker.check({1: peer_events, **traces}, check_liveness=False)
        assert report.is_causally_consistent, (cut, report.safety_violations[:3])
        lengths.add(tuple(len(trace) for trace in traces.values()))
        recovered.wal.close()
        shutil.rmtree(directory)
    # Each boundary recovers a different state; a torn byte, its boundary's.
    assert len(lengths) > RECORDS // 2
    assert max(lengths) == tuple(len(trace) for trace in uncut.values())


def _assert_intra_copies_delivered(node):
    tenants = node.tenants
    for rid, tenant in tenants.items():
        for event in tenant.replica.events:
            update = event.update
            if event.kind is not EventKind.ISSUE:
                continue
            for destination in GRAPH.replicas_storing(update.register):
                if destination != rid and destination in tenants:
                    assert update.uid in tenants[destination].streams[(rid, destination)]
    for sender in node.senders.values():
        for destination, book in sender.sent_log.items():
            assert destination not in tenants or not book
