"""Log-structured durability unit tests: record codecs, torn tails,
compaction crash windows, the fsync-before-delete discipline, and the
append-only checkpoint file (history appended, state replaced).

These drive :mod:`repro.net.wal` directly — no processes, no sockets —
simulating every crash point a SIGKILL can hit: mid-append to the log
(torn final record), mid-append to the checkpoint file (torn checkpoint
record: the compaction never committed), and between the commit and the
old log's cleanup (stale generation).  The last tests drive an
in-process :class:`~repro.net.node.LiveNode` through several compactions
and count what each checkpoint record holds.
"""

from __future__ import annotations

import copy
import dataclasses
import os

import pytest

from inbound import serve
from repro.core.protocol import EventKind, ReplicaSnapshot, Update, UpdateMessage
from repro.core.share_graph import ShareGraph
from repro.core.timestamps import EdgeTimestamp
from repro.net import frames, wal
from repro.net.framing import encode_frame
from repro.net.node import LiveNode, NodeConfig
from repro.sim.topologies import figure5_placement
from repro.wire.batch import MessageBatch


def _message(seq, sender=1, destination=2):
    ts = EdgeTimestamp({(sender, destination): seq})
    return UpdateMessage(
        update=Update(issuer=sender, seq=seq, register="x", value=f"v{seq}"),
        sender=sender,
        destination=destination,
        metadata=ts,
        metadata_size=ts.size_counters(),
        payload=True,
    )


# ----------------------------------------------------------------------
# Record codecs
# ----------------------------------------------------------------------

def test_write_and_read_record_roundtrip():
    register, value, at = "x", {"k": [1, 2]}, 3.25
    assert wal.decode_write_record(
        wal.encode_write_record(register, value, at)
    ) == (register, value, at)
    assert wal.decode_read_record(
        wal.encode_read_record(register, at)
    ) == (register, at)


def test_deliver_record_roundtrip_is_standalone():
    """DELIVER records replay without any delta-chain context."""
    batch = MessageBatch(
        sender=1, destination=2, seq=0,
        messages=(_message(1), _message(2)),
    )
    payload = wal.encode_deliver_record(0.75, batch, codec=None)
    received_at, decoded = wal.decode_deliver_record(payload)
    assert received_at == 0.75
    assert decoded == batch


def test_ack_record_roundtrip():
    uids = [(1, 3), (1, 4), ("w", 1)]
    assert wal.decode_ack_record(wal.encode_ack_record("r2", uids)) == (
        "r2", uids
    )


# ----------------------------------------------------------------------
# Append / load / torn tails
# ----------------------------------------------------------------------

def test_append_then_load_replays_records_in_order(tmp_path):
    log = wal.ReplicaWAL(str(tmp_path), 1)
    assert log.load() == (None, [])
    payloads = [
        (wal.W_WRITE, wal.encode_write_record("x", 1, 0.1)),
        (wal.W_READ, wal.encode_read_record("x", 0.2)),
        (wal.W_ACK, wal.encode_ack_record(2, [(1, 1)])),
    ]
    for kind, payload in payloads:
        log.append(kind, payload)
    log.close()

    reopened = wal.ReplicaWAL(str(tmp_path), 1)
    checkpoint, records = reopened.load()
    assert checkpoint is None
    assert records == payloads
    reopened.close()


def test_torn_tail_is_truncated_and_log_stays_appendable(tmp_path):
    log = wal.ReplicaWAL(str(tmp_path), 1)
    log.load()
    log.append(wal.W_WRITE, wal.encode_write_record("x", 1, 0.1))
    log.append(wal.W_WRITE, wal.encode_write_record("x", 2, 0.2))
    log.close()
    # A SIGKILL mid-append leaves a prefix of the final frame.
    path = log._log_path(0)
    torn = encode_frame(wal.W_WRITE, wal.encode_write_record("x", 3, 0.3))
    with open(path, "ab") as handle:
        handle.write(torn[:len(torn) - 2])

    reopened = wal.ReplicaWAL(str(tmp_path), 1)
    _, records = reopened.load()
    assert [wal.decode_write_record(p)[1] for _, p in records] == [1, 2]
    # The torn bytes are gone from disk and appends continue cleanly.
    reopened.append(wal.W_WRITE, wal.encode_write_record("x", 4, 0.4))
    reopened.close()
    final = wal.ReplicaWAL(str(tmp_path), 1)
    _, records = final.load()
    assert [wal.decode_write_record(p)[1] for _, p in records] == [1, 2, 4]
    final.close()


def test_append_is_o_delta_not_o_state(tmp_path):
    """The hot path never rewrites the log: each append (flushed) grows the
    file by exactly one frame, independent of how much history precedes
    it."""
    log = wal.ReplicaWAL(str(tmp_path), 1)
    log.load()
    payload = wal.encode_write_record("x", "v", 1.0)
    frame_size = len(encode_frame(wal.W_WRITE, payload))
    sizes = []
    for _ in range(50):
        log.append(wal.W_WRITE, payload)
        log.flush()
        sizes.append(os.path.getsize(log._log_path(0)))
    log.close()
    deltas = [b - a for a, b in zip(sizes, sizes[1:])]
    assert deltas == [frame_size] * len(deltas)


# ----------------------------------------------------------------------
# Compaction and its crash windows
# ----------------------------------------------------------------------

def _checkpoint_state(marker):
    return wal.WalCheckpoint(
        replica=ReplicaSnapshot(1, {"marker": marker}),
        sent_log={}, outbox_total={}, streams={}, apply_times={},
    )


def _checkpoint_records(directory, stem="node-1"):
    with open(os.path.join(directory, f"{stem}.ckpt"), "rb") as handle:
        records, _ = wal._parse_records(handle.read())
    assert all(kind == wal.C_CHECKPOINT for kind, _ in records)
    return [payload for _, payload in records]


def test_compaction_rolls_generation_and_drops_old_log(tmp_path):
    log = wal.ReplicaWAL(str(tmp_path), 1, compact_bytes=1)
    log.load()
    log.append(wal.W_WRITE, wal.encode_write_record("x", 1, 0.1))
    assert log.should_compact()
    log.checkpoint(_checkpoint_state("A"))
    assert log.generation == 1 and log.wal_bytes == 0
    log.append(wal.W_WRITE, wal.encode_write_record("x", 2, 0.2))
    log.close()

    reopened = wal.ReplicaWAL(str(tmp_path), 1)
    checkpoint, records = reopened.load()
    assert checkpoint.replica.state == {"marker": "A"}
    assert checkpoint.generation == 1
    assert [wal.decode_write_record(p)[1] for _, p in records] == [2]
    assert not os.path.exists(log._log_path(0))
    reopened.close()


def test_checkpoint_file_is_appended_and_the_last_state_wins(tmp_path):
    """Each compaction appends one record; the state of the last one is
    the checkpoint, whatever the earlier ones held."""
    log = wal.ReplicaWAL(str(tmp_path), 1)
    log.load()
    sizes = []
    for marker in ("A", "B", "C"):
        log.checkpoint(_checkpoint_state(marker))
        sizes.append(os.path.getsize(log.checkpoint_path))
    log.close()
    assert sizes[0] < sizes[1] < sizes[2]
    assert log.checkpoint_bytes == sizes[-1] and log.compactions == 3

    reopened = wal.ReplicaWAL(str(tmp_path), 1)
    checkpoint, records = reopened.load()
    assert checkpoint.replica.state == {"marker": "C"}
    assert checkpoint.generation == reopened.generation == 3
    assert records == []
    reopened.close()


def test_torn_checkpoint_record_recovers_the_previous_record_and_its_log(tmp_path):
    """A crash mid-append of a checkpoint record — the compaction never
    committed — recovers the previous record and the log it names: the
    torn tail is cut from the checkpoint file and the stale
    next-generation log is discarded."""
    log = wal.ReplicaWAL(str(tmp_path), 1)
    log.load()
    log.checkpoint(_checkpoint_state("committed"))   # generation -> 1
    log.append(wal.W_WRITE, wal.encode_write_record("x", 7, 0.7))
    log.close()
    committed_size = os.path.getsize(log.checkpoint_path)
    # Simulate the interrupted second compaction: the next-gen log exists,
    # a prefix of the record naming it reached the checkpoint file.
    open(os.path.join(tmp_path, "node-1.wal.2"), "wb").close()
    torn = _checkpoint_state("torn")
    torn.generation = 2
    frame = encode_frame(wal.C_CHECKPOINT, wal.encode_checkpoint_record(torn, {}))
    with open(log.checkpoint_path, "ab") as handle:
        handle.write(frame[:len(frame) - 5])

    reopened = wal.ReplicaWAL(str(tmp_path), 1)
    checkpoint, records = reopened.load()
    assert checkpoint.replica.state == {"marker": "committed"}
    assert checkpoint.generation == 1
    assert [wal.decode_write_record(p)[1] for _, p in records] == [7]
    assert os.path.getsize(log.checkpoint_path) == committed_size
    assert not os.path.exists(os.path.join(tmp_path, "node-1.wal.2"))
    # The file stays appendable: the next compaction commits cleanly.
    reopened.checkpoint(_checkpoint_state("next"))
    reopened.close()
    final = wal.ReplicaWAL(str(tmp_path), 1)
    checkpoint, records = final.load()
    assert checkpoint.replica.state == {"marker": "next"} and records == []
    assert len(_checkpoint_records(tmp_path)) == 2
    final.close()


def test_kill_between_commit_and_log_cleanup_recovers_new(tmp_path):
    """Once the record is appended and fsynced the compaction has
    committed: the leftover previous-generation log is ignored and
    deleted."""
    log = wal.ReplicaWAL(str(tmp_path), 1)
    log.load()
    log.append(wal.W_WRITE, wal.encode_write_record("x", 1, 0.1))
    log.checkpoint(_checkpoint_state("new"))         # generation -> 1
    log.close()
    # Resurrect the old log as if cleanup never ran.
    with open(os.path.join(tmp_path, "node-1.wal.0"), "wb") as handle:
        handle.write(encode_frame(wal.W_WRITE,
                                  wal.encode_write_record("x", 99, 9.9)))

    reopened = wal.ReplicaWAL(str(tmp_path), 1)
    checkpoint, records = reopened.load()
    assert checkpoint.replica.state == {"marker": "new"}
    assert records == []
    assert not os.path.exists(os.path.join(tmp_path, "node-1.wal.0"))
    reopened.close()


def test_checkpoint_fsyncs_the_record_before_deleting_the_old_log(tmp_path, monkeypatch):
    """The old log may go only once the record that supersedes it is on
    disk: ``os.fsync`` of the checkpoint file strictly precedes the
    unlink of the previous generation's log."""
    calls = []
    real_fsync, real_unlink = os.fsync, os.unlink
    monkeypatch.setattr(
        os, "fsync", lambda fd: (calls.append("fsync"), real_fsync(fd))[1]
    )
    monkeypatch.setattr(
        os, "unlink",
        lambda path: (calls.append(os.path.basename(path)), real_unlink(path))[1],
    )
    log = wal.ReplicaWAL(str(tmp_path), 1)
    log.load()
    log.append(wal.W_WRITE, wal.encode_write_record("x", 1, 0.1))
    log.checkpoint(_checkpoint_state("A"))
    log.close()
    assert calls == ["fsync", "node-1.wal.0"]


def test_a_checkpoint_that_fails_before_its_commit_keeps_buffered_records(tmp_path):
    """Records appended but not yet flushed reach the log before the
    checkpoint is attempted: if the checkpoint fails before its commit
    (here: the next generation's log cannot be created), recovery still
    replays them from the current generation."""
    log = wal.ReplicaWAL(str(tmp_path), 1)
    log.load()
    log.append(wal.W_WRITE, wal.encode_write_record("x", 1, 0.1))
    blocker = os.path.join(tmp_path, "node-1.wal.1")
    os.mkdir(blocker)
    with pytest.raises(OSError):
        log.checkpoint(_checkpoint_state("lost"))
    os.rmdir(blocker)

    reopened = wal.ReplicaWAL(str(tmp_path), 1)
    checkpoint, records = reopened.load()
    assert checkpoint is None
    assert [wal.decode_write_record(p)[1] for _, p in records] == [1]
    reopened.close()


# ----------------------------------------------------------------------
# History is appended, state is replaced: a live node's compactions
# ----------------------------------------------------------------------

def _one_node_config(directory):
    """Four replicas of figure 5 on one node: every copy is intra-node,
    so ops drive writes, their co-hosted deliveries and compactions of the
    node's one log in process."""
    graph = ShareGraph.from_placement(figure5_placement())
    return NodeConfig(
        node_id="n", share_graph=graph, replica_ids=tuple(graph.replica_ids),
        replica_nodes={rid: "n" for rid in graph.replica_ids},
        durable_dir=directory, wal_compact_bytes=512,
    )


def _drive(node, operations):
    """One op per chunk of one inbound connection: each is followed by the
    chunk's flush barrier."""
    serve(node, *(
        encode_frame(frames.OP, frames.encode_op(op_id, rid, kind, register, value))
        for op_id, (rid, kind, register, value) in enumerate(operations)))


def _operations(graph, count):
    operations = []
    for step in range(count):
        for rid in sorted(graph.replica_ids):
            register = sorted(graph.registers_at(rid))[step % len(graph.registers_at(rid))]
            kind = "read" if step % 3 == 2 else "write"
            operations.append((rid, kind, register, f"{rid}.{step}"))
    return operations


def _history(tenant):
    return {
        "events": list(tenant.replica.events),
        "applied": list(tenant.replica.applied),
        "streams": {channel: list(uids) for channel, uids in tenant.streams.items()},
        "apply_times": dict(tenant.apply_times),
        "issue_times": tenant.report()["issue_times"],
    }


def test_node_reload_after_three_compactions_restores_the_history(tmp_path, monkeypatch):
    """The node's log goes through at least three compactions, each
    holding every tenant; a new node on the same directory folds the
    records back into every tenant's exact history.  No compaction
    deep-copies (the pickle is the copy), and recovery adopts the
    unpickled state uncopied."""
    def no_deepcopy(*args, **kwargs):
        raise AssertionError("the live checkpoint path must not deep-copy")

    config = _one_node_config(str(tmp_path))
    with monkeypatch.context() as patch:
        patch.setattr(copy, "deepcopy", no_deepcopy)
        node = LiveNode(config)
        _drive(node, _operations(config.share_graph, 60))
        before = {rid: _history(tenant) for rid, tenant in node.tenants.items()}
        stores = {rid: dict(tenant.replica.store) for rid, tenant in node.tenants.items()}
        assert node.wal.compactions >= 3
        assert node.wal.checkpoint_bytes > 0 and node.wal.checkpoint_seconds > 0
        # One last compaction empties the log: what comes back is the
        # fold alone (the log-tail replay is checked on its own below).
        node.wal.checkpoint(node.checkpoint_state())
        node.wal.close()

        reloaded = LiveNode(config)
        for rid, tenant in reloaded.tenants.items():
            assert tenant.recovered
            assert _history(tenant) == before[rid]
            assert dict(tenant.replica.store) == stores[rid]
        reloaded.wal.close()


def test_log_tail_replay_regenerates_the_live_history_exactly(tmp_path):
    """With compaction off the whole run is one log tail: replaying its
    records — writes and reads at their op time, deliveries at their
    receipt time — reproduces every tenant's trace, ``sim_time`` stamps
    included, and its apply and issue books, which project the trace."""
    config = dataclasses.replace(_one_node_config(str(tmp_path)),
                                 wal_compact_bytes=1 << 40)
    node = LiveNode(config)
    _drive(node, _operations(config.share_graph, 30))
    before = {rid: _history(tenant) for rid, tenant in node.tenants.items()}
    assert node.wal.compactions == 0
    for rid, tenant in node.tenants.items():
        # The apply and issue books are projections of the trace.
        stamps = {event.update.uid: event.sim_time
                  for event in tenant.replica.events if event.update is not None}
        assert tenant.apply_times == stamps
        assert tenant.report()["issue_times"] == {
            uid: at for uid, at in stamps.items() if uid[0] == rid
        }
    node.wal.close()

    reloaded = LiveNode(config)
    for rid, tenant in reloaded.tenants.items():
        assert tenant.recovered
        assert _history(tenant) == before[rid]
    reloaded.wal.close()


def _issue_projection(tenant):
    return {event.update.uid: event.sim_time for event in tenant.replica.events
            if event.kind is EventKind.ISSUE}


def test_one_node_is_the_host_of_every_tenant_before_and_after_a_reload(tmp_path):
    """A node hosting all of figure 5 is one host: one clock, one
    ``RunMetrics``, one issue book and one tracer for its four tenants.
    Its checkpoints hold no issue book — the trace holds the issues — and
    the node checks consistent, with every tenant's reported issue times
    the ISSUE projection of its trace, live and after a reload."""
    config = dataclasses.replace(_one_node_config(str(tmp_path)), tracing=True)
    operations = _operations(config.share_graph, 40)
    writes = sum(kind == "write" for _, kind, _, _ in operations)
    node = LiveNode(config)
    _drive(node, operations)
    assert node.wal.compactions >= 1
    assert node.metrics.writes == writes == len(node._issue_times)
    # Every copy stays on the node and is applied inside its write, so
    # each apply finds its issue time in the one book.
    assert len(node.metrics.apply_latencies) == node.metrics.applies > 0
    assert {stage for _, stage, _, _, _ in node.tracer.events} == {
        "issue", "send", "wire", "deliver", "apply"}
    assert {path[1] for path in node.checkpoint_state().histories()} == {
        "replica", "streams", "apply_times"}
    for reloading in (False, True):
        if reloading:
            node.wal.close()
            node = LiveNode(config)
            assert all(tenant.recovered for tenant in node.tenants.values())
        assert node.check_consistency().is_causally_consistent
        for tenant in node.tenants.values():
            assert tenant.report()["issue_times"] == _issue_projection(tenant)
            assert len(tenant.report()["issue_times"]) > 0
    node.wal.close()


def test_each_checkpoint_record_holds_exactly_the_history_since_the_last(tmp_path, monkeypatch):
    """The O(delta) property, as a count: a record's history tails are
    exactly the entries appended between the previous compaction and this
    one — never a re-serialised prefix."""
    marks = {}
    real_checkpoint = wal.ReplicaWAL.checkpoint

    def marking(self, state):
        marks.setdefault(self.replica_id, []).append(
            {path: len(history) for path, history in state.histories().items()}
        )
        real_checkpoint(self, state)

    monkeypatch.setattr(wal.ReplicaWAL, "checkpoint", marking)
    config = _one_node_config(str(tmp_path))
    node = LiveNode(config)
    _drive(node, _operations(config.share_graph, 60))
    node.wal.close()
    live = node.checkpoint_state().histories()
    payloads = _checkpoint_records(tmp_path, "node-n")
    assert len(payloads) == len(marks["n"]) >= 3
    assert {path[0] for path in live} == set(node.tenants)
    previous = {}
    for payload, mark in zip(payloads, marks["n"]):
        tails, _ = wal.decode_checkpoint_history(payload)
        assert set(tails) == set(mark)
        for path, end in mark.items():
            start = previous.get(path, 0)
            assert len(tails[path]) == end - start
            history = live[path]
            if isinstance(history, dict):
                assert tails[path] == dict(list(history.items())[start:end])
            else:
                assert tails[path] == history[start:end]
        previous = mark


def _stats_applied(node):
    stats, _, _ = frames.decode_stats_payload(node._stats_payload())
    return stats.applied


def _events_applied(node):
    return sum(event.update is not None
               for tenant in node.tenants.values()
               for event in tenant.replica.events)


def test_stats_applied_count_matches_the_event_trace_across_a_reload(tmp_path):
    """``STATS`` counts issued and applied updates off the apply books,
    without walking the trace: the count equals the trace's, after
    traffic and again after a reload from checkpoints and log tails."""
    config = _one_node_config(str(tmp_path))
    node = LiveNode(config)
    _drive(node, _operations(config.share_graph, 40))
    applied = _stats_applied(node)
    assert applied == _events_applied(node) > 0
    assert node.wal.compactions >= 1
    node.wal.close()

    reloaded = LiveNode(config)
    assert _stats_applied(reloaded) == _events_applied(reloaded) == applied
    reloaded.wal.close()


def test_a_rejected_read_leaves_the_run_metrics_untouched(tmp_path):
    """Replica 1 of figure 5 does not store ``x``: the op is rejected,
    and neither the read count nor the operation timeline gains it."""
    node = LiveNode(_one_node_config(str(tmp_path)))
    _drive(node, [(1, "read", "x", "-")])
    metrics = node.metrics
    assert (metrics.reads, list(metrics.operation_times)) == (0, [])
    assert node.tenants[1].counters.ops_done == 1


def test_oversized_record_rejected_before_hitting_disk(tmp_path):
    from repro.wire.primitives import WireFormatError

    log = wal.ReplicaWAL(str(tmp_path), 1)
    log.load()
    with pytest.raises(WireFormatError):
        log.append(wal.W_WRITE, b"x" * (64 * 1024 * 1024))
    log.close()
