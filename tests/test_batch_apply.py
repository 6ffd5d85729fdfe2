"""The batch engine's equivalence contract, property-tested.

``apply_batch`` (one ``receive_many`` + one drain of the pending index) must
be observationally identical to the per-message ``receive`` + ``apply_ready``
loop it replaces: same applied updates in the same order, same store, same
timestamp, same pending buffer, same event trace — and, through the host
layer, the same ``RunMetrics``.  The engine shares the drain loop between
both paths, so these tests are the executable statement of that guarantee
on randomized workloads, for both timestamp families and both deployment
architectures.

Run with ``REPRO_PURE_PYTHON=1`` to pin the pure-Python kernels; the CI
compiled leg runs the same file against the mypyc core.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.vector_clock_full import FullReplicationReplica
from repro.clientserver import ClientServerCluster
from repro.core.host import ReplicaHost
from repro.core.replica import EdgeIndexedReplica
from repro.core.share_graph import ShareGraph
from repro.sim.cluster import Cluster
from repro.sim.delays import UniformDelay
from repro.sim.engine import BatchingConfig
from repro.sim.topologies import clique_placement
from repro.sim.workloads import run_workload, uniform_workload

# ----------------------------------------------------------------------
# Replica-level equivalence: apply_batch vs receive + apply_ready
# ----------------------------------------------------------------------


def _build_backlog(family: str, writer_count: int, script, rng_pick):
    """Issue a causally entangled workload; return (receiver, messages).

    ``script`` drives the interleaving: a sequence of (writer index,
    cross-deliver flags) steps.  After each write, the flagged other
    writers immediately receive and apply it, so later writes carry real
    cross-writer dependencies — the regime where delivery order and the
    pending index actually matter.
    """
    graph = ShareGraph.from_placement(clique_placement(writer_count + 1))
    ids = sorted(graph.replica_ids)
    receiver_id, writer_ids = ids[0], ids[1:]
    if family == "vector":
        make = lambda rid: FullReplicationReplica(graph, rid)  # noqa: E731
    else:
        make = lambda rid: EdgeIndexedReplica(graph, rid)  # noqa: E731
    writers = {rid: make(rid) for rid in writer_ids}
    receiver = make(receiver_id)
    to_receiver = []
    for step, (writer_index, deliver_flags) in enumerate(script):
        writer_id = writer_ids[writer_index % len(writer_ids)]
        messages = writers[writer_id].write("g", f"{writer_id}:{step}")
        for message in messages:
            if message.destination == receiver_id:
                to_receiver.append(message)
            elif deliver_flags & (1 << (message.destination % 8)):
                peer = writers[message.destination]
                peer.receive(message)
                peer.apply_ready()
    order = rng_pick(to_receiver)
    return receiver, order


def _state(replica):
    return (
        [u.uid for u in replica.applied],
        dict(replica.store),
        replica.pending_count(),
        replica.metadata_size(),
        list(replica.events),
    )


def _assert_index_matches_pending(replica):
    """Every buffered message sits exactly once in the wake-key index —
    the recheck queue or one blocked bucket — and nothing else does."""
    indexed = list(replica._recheck)
    for bucket in replica._blocked.values():
        indexed.extend(bucket)
    assert len(indexed) == len(replica.pending)
    assert len({message.update.uid for message in indexed}) == len(indexed)
    assert all(replica.pending.get(message.update.uid) is message for message in indexed)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data(), family=st.sampled_from(["vector", "edge"]))
def test_apply_batch_equals_per_message_path(data, family):
    """``apply_batch(chunk)`` ≡ ``receive`` of each message + one ``apply_ready``.

    That is the contract the simulator and the live node rely on: a batch
    delivery buffers every message, then drains the pending index once.
    The property exercises it on random chunk partitions of a random
    permutation of a causally entangled backlog — chunk size 1 covers the
    singleton ``receive``/``apply_ready`` delivery path — and demands the
    *exact* apply order, not just a convergent final state.
    """
    writer_count = data.draw(st.integers(2, 4), label="writers")
    script = data.draw(
        st.lists(
            st.tuples(st.integers(0, writer_count - 1), st.integers(0, 255)),
            min_size=1,
            max_size=14,
        ),
        label="script",
    )

    def rng_pick(messages):
        return data.draw(st.permutations(messages), label="delivery order")

    receiver, stream = _build_backlog(family, writer_count, script, rng_pick)
    per_message = copy.deepcopy(receiver)
    batched = copy.deepcopy(receiver)

    chunks = []
    remaining = list(stream)
    while remaining:
        size = data.draw(st.integers(1, len(remaining)), label="chunk size")
        chunks.append(remaining[:size])
        remaining = remaining[size:]

    applied_reference = []
    applied_batched = []
    for chunk in chunks:
        for message in chunk:
            per_message.receive(message)
            _assert_index_matches_pending(per_message)
        applied_reference.extend(per_message.apply_ready())
        applied_batched.extend(batched.apply_batch(chunk))
        assert _state(per_message) == _state(batched)
        _assert_index_matches_pending(per_message)
        _assert_index_matches_pending(batched)

    assert [u.uid for u in applied_reference] == [
        u.uid for u in applied_batched
    ]


def test_apply_batch_accepts_message_batch_envelope():
    """apply_batch takes a MessageBatch as well as a plain sequence."""
    from repro.wire.batch import MessageBatch

    graph = ShareGraph.from_placement(clique_placement(3))
    ids = sorted(graph.replica_ids)
    writer = FullReplicationReplica(graph, ids[1])
    receiver = FullReplicationReplica(graph, ids[0])
    messages = tuple(
        m
        for i in range(3)
        for m in writer.write("g", i)
        if m.destination == ids[0]
    )
    batch = MessageBatch(
        sender=ids[1], destination=ids[0], seq=0, messages=messages
    )
    applied = receiver.apply_batch(batch)
    assert [u.uid for u in applied] == [m.update.uid for m in messages]
    assert receiver.pending_count() == 0


# ----------------------------------------------------------------------
# Host-level equivalence: RunMetrics cannot tell the two paths apart
# ----------------------------------------------------------------------


def _per_message_deliver(self, replica, messages):
    """The pre-vectorization reference: per-message receive, one drain."""
    accepted = [m for m in messages if m.epoch == self.epoch]
    if not accepted:
        return []
    for message in accepted:
        replica.receive(message)
    applied = self._apply_ready(replica)
    self._after_delivery(replica)
    return applied


def _metrics_fingerprint(cluster):
    metrics = cluster.metrics
    return (
        metrics.applies,
        metrics.writes,
        metrics.reads,
        list(metrics.apply_times),
        list(metrics.apply_latencies),
        dict(metrics.max_pending),
        {rid: list(events) for rid, events in cluster.events_by_replica().items()},
    )


@pytest.mark.parametrize("architecture", ["peer_to_peer", "client_server"])
@pytest.mark.parametrize("seed", [3, 11])
def test_run_metrics_identical_across_delivery_paths(
    architecture, seed, monkeypatch
):
    """Batched vs per-message delivery: byte-identical RunMetrics and traces."""
    graph = ShareGraph.from_placement(clique_placement(5))
    workload = uniform_workload(graph, 120, seed=seed)
    batching = BatchingConfig(max_messages=8, max_delay=4.0)

    def run(patched: bool):
        if patched:
            monkeypatch.setattr(ReplicaHost, "deliver", _per_message_deliver)
        else:
            monkeypatch.undo()
        if architecture == "peer_to_peer":
            cluster = Cluster(
                graph,
                delay_model=UniformDelay(1, 10),
                seed=seed,
                batching=batching,
            )
        else:
            cluster = ClientServerCluster.with_colocated_clients(
                graph,
                delay_model=UniformDelay(1, 10),
                seed=seed,
                batching=batching,
            )
        result = run_workload(cluster, workload)
        assert result.consistent
        return cluster

    batched = run(patched=False)
    reference = run(patched=True)
    assert _metrics_fingerprint(batched) == _metrics_fingerprint(reference)
