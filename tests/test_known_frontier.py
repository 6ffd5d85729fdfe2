"""The known frontier: its precondition, and the sent-log it bounds.

A replica's :class:`~repro.core.protocol.Known` says "holds ``(k, s)``" as
``s ≤ frontier[k]`` or ``(k, s)`` buffered.  That is only the set of
applied-or-buffered uids if every family applies an issuer's updates in
the issuer's order, so the property below checks exactly that — for every
family, over lossy or duplicating links, with a crash and a restart —
together with the equivalence itself on every copy the transport logs.  A
second property adds reconfiguration, whose state-transfer copies are
matched by stream position instead.
"""

from __future__ import annotations

from typing import Dict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from placements import random_share_graph
from repro.analysis.experiments import protocol_suite
from repro.clientserver import ClientServerCluster
from repro.core.protocol import EventKind
from repro.core.share_graph import ShareGraph
from repro.optimizations import dummy_register_factory, loop_cover_dummies
from repro.sim.cluster import Cluster
from repro.sim.delays import DuplicatingDelay, LossyDelay, UniformDelay
from repro.sim.engine import BatchingConfig, ReliabilityConfig
from repro.sim.faults import FaultInjector, FaultSchedule, crash, restart
from repro.sim.reconfig import ReconfigManager, random_churn_schedule
from repro.sim.topologies import figure5_placement, tree_placement
from repro.sim.workloads import poisson_workload, run_open_loop
from test_determinism_golden import run_chaos

FAMILIES = sorted(protocol_suite()) + ["client-server", "dummy registers"]


def _host(family: str, graph: ShareGraph, delay, seed: int, batching):
    if family == "client-server":
        return ClientServerCluster.with_colocated_clients(
            graph, delay_model=delay, seed=seed, batching=batching)
    if family == "dummy registers":
        assignment = loop_cover_dummies(graph.placement)
        augmented = ShareGraph.from_placement(assignment.augmented_placement())
        return Cluster(augmented, replica_factory=dummy_register_factory(assignment),
                       delay_model=delay, seed=seed, batching=batching)
    return Cluster(graph, replica_factory=protocol_suite()[family],
                   delay_model=delay, seed=seed, batching=batching)


def _logged_copies_agree(host) -> None:
    """``known().covers`` ≡ ``uid ∈ applied ∪ pending`` on every logged copy."""
    for rid, replica in host._replica_map().items():
        known = replica.known()
        held = {update.uid for update in replica.applied} | set(replica.pending)
        for copy in host.network.sender.sent_log.get(rid, {}).values():
            message = copy.message
            assert known.covers(message) == (message.update.uid in held), (rid, message)


def _applies_follow_issue_order(host) -> None:
    for rid, replica in host._replica_map().items():
        last: Dict = {}
        for event in replica.events:
            if event.kind is EventKind.APPLY:
                issuer, seq = event.update.uid
                assert seq > last.get(issuer, 0), (rid, event.update.uid, last)
                last[issuer] = seq


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_every_family_applies_each_issuer_in_issue_order(family, data):
    graph = random_share_graph(data.draw, max_replicas=5, max_owners=3)
    seed = data.draw(st.integers(0, 2**16))
    probability = data.draw(st.floats(0.05, 0.3))
    delay = data.draw(st.sampled_from([
        LossyDelay(inner=UniformDelay(1.0, 10.0), drop_probability=probability),
        DuplicatingDelay(inner=UniformDelay(1.0, 10.0), duplicate_probability=probability),
    ]))
    batching = data.draw(st.sampled_from([None, BatchingConfig(4, 2.0)]))
    host = _host(family, graph, delay, seed, batching)
    victim = data.draw(st.sampled_from(sorted(graph.replica_ids)))
    crash_at = data.draw(st.floats(5.0, 35.0))
    injector = FaultInjector(host, ReliabilityConfig(resend_timeout=15.0, max_retries=6))
    injector.install(FaultSchedule("one crash", (
        crash(crash_at, victim),
        restart(crash_at + data.draw(st.floats(1.0, 20.0)), victim),
    )))
    for arrival in poisson_workload(graph, rate=1.0, duration=40.0, seed=seed).arrivals:
        host.schedule_arrival_at(arrival.time, arrival.operation)
    while host.step():
        _logged_copies_agree(host)
    host.run_until_quiescent()
    _logged_copies_agree(host)
    _applies_follow_issue_order(host)
    assert not host.pending_updates()
    assert not any(host.network.sender.sent_log.values())


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_state_transfer_copies_are_known_by_stream_position(data):
    """Under churn, bootstrap streams replay history below the frontier; the
    rule still matches applied-or-pending on every logged copy — also when
    a commit opens the next stream inside the delivery that completed the
    last one."""
    placement = data.draw(st.sampled_from([tree_placement(6), figure5_placement()]))
    seed = data.draw(st.integers(0, 2**16))
    graph = ShareGraph.from_placement(placement)
    delay = LossyDelay(inner=UniformDelay(1.0, 10.0), drop_probability=0.1)
    host = _host("edge-indexed (paper)", graph, delay, seed, None)
    FaultInjector(host, ReliabilityConfig(resend_timeout=15.0, max_retries=6))
    schedule = random_churn_schedule(placement, 120.0, joins=1, edge_changes=2,
                                     seed=seed, join_style="group")
    manager = ReconfigManager(host, window=3.0)
    manager.install(schedule)
    # Joins and added edges only: the initial placement stays stored all run.
    for arrival in poisson_workload(graph, rate=0.5, duration=120.0, seed=seed).arrivals:
        host.schedule_arrival_at(arrival.time, arrival.operation)
    while host.step():
        _logged_copies_agree(host)
    host.run_until_quiescent()
    _logged_copies_agree(host)
    assert not manager.warming_replicas() and not host.pending_updates()
    assert not any(host.network.sender.sent_log.values())


class TestSentLogAtQuiescence:
    """Pruned after every delivery, the sent-log holds only undelivered
    copies: nothing once the run has drained."""

    def test_empty_after_a_fault_free_run(self):
        graph = ShareGraph.from_placement(figure5_placement())
        cluster = Cluster(graph, delay_model=UniformDelay(1.0, 10.0), seed=3,
                          batching=BatchingConfig(4, 2.0))
        result = run_open_loop(cluster, poisson_workload(graph, rate=2.0,
                                                         duration=100.0, seed=3))
        assert result.consistent and cluster.network.stats.messages_sent
        assert not any(cluster.network.sender.sent_log.values())

    def test_empty_after_the_pinned_chaos_run(self):
        cluster = run_chaos()
        assert cluster.network.stats.retransmissions
        assert not any(cluster.network.sender.sent_log.values())
