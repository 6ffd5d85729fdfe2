"""Unit tests for repro.core.causal and repro.core.consistency."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.core.causal import (
    HappenedBefore,
    causal_past_of,
    dependency_graph_of,
)
from repro.core.consistency import (
    ConsistencyChecker,
    ConsistencyReport,
    check_execution,
)
from repro.core.errors import ConsistencyViolationError, LivenessViolationError
from repro.core.protocol import EventKind, ReplicaEvent, Update
from repro.core.share_graph import ShareGraph
from repro.sim.reconfig import topological_update_order
from repro.sim.topologies import triangle_placement


def ev(replica, kind, update, index, register=None):
    reg = register if register is not None else (update.register if update else None)
    return ReplicaEvent(
        replica_id=replica,
        kind=kind,
        update=update,
        register=reg,
        local_index=index,
    )


@pytest.fixture
def figure2_updates():
    """The updates of the paper's Figure 2 example."""
    u1 = Update(issuer=1, seq=1, register="a", value=1)
    u2 = Update(issuer=1, seq=2, register="b", value=2)
    u3 = Update(issuer=2, seq=1, register="c", value=3)
    u4 = Update(issuer=3, seq=1, register="d", value=4)
    return u1, u2, u3, u4


@pytest.fixture
def figure2_relation(figure2_updates):
    """Traces realising the Figure 2 happened-before structure.

    r1 issues u1, u2; r2 applies u2 then issues u3; r3 issues u4 and applies u3.
    """
    u1, u2, u3, u4 = figure2_updates
    events = {
        1: [ev(1, EventKind.ISSUE, u1, 0), ev(1, EventKind.ISSUE, u2, 1)],
        2: [ev(2, EventKind.APPLY, u2, 0), ev(2, EventKind.ISSUE, u3, 1)],
        3: [ev(3, EventKind.ISSUE, u4, 0), ev(3, EventKind.APPLY, u3, 1)],
    }
    return HappenedBefore.from_events(events)


class TestHappenedBefore:
    def test_figure2_direct_relations(self, figure2_relation, figure2_updates):
        u1, u2, u3, u4 = figure2_updates
        assert figure2_relation.happened_before(u1.uid, u2.uid)
        assert figure2_relation.happened_before(u2.uid, u3.uid)

    def test_figure2_transitive_relation(self, figure2_relation, figure2_updates):
        u1, u2, u3, u4 = figure2_updates
        assert figure2_relation.happened_before(u1.uid, u3.uid)

    def test_figure2_concurrency(self, figure2_relation, figure2_updates):
        u1, u2, u3, u4 = figure2_updates
        assert figure2_relation.concurrent(u1.uid, u4.uid)
        assert figure2_relation.concurrent(u2.uid, u4.uid)

    def test_not_reflexive(self, figure2_relation, figure2_updates):
        u1 = figure2_updates[0]
        assert not figure2_relation.happened_before(u1.uid, u1.uid)
        assert not figure2_relation.concurrent(u1.uid, u1.uid)

    def test_predecessors_and_successors(self, figure2_relation, figure2_updates):
        u1, u2, u3, u4 = figure2_updates
        assert figure2_relation.predecessors(u3.uid) == {u1.uid, u2.uid}
        assert figure2_relation.successors(u1.uid) == {u2.uid, u3.uid}

    def test_from_pairs_constructor(self, figure2_updates):
        u1, u2, _, _ = figure2_updates
        relation = HappenedBefore.from_pairs([u1, u2], [(u1.uid, u2.uid)])
        assert relation.happened_before(u1.uid, u2.uid)
        assert not relation.happened_before(u2.uid, u1.uid)

    def test_all_updates_sorted(self, figure2_relation):
        uids = [u.uid for u in figure2_relation.all_updates()]
        assert uids == sorted(uids)

    def test_to_networkx_is_a_dag(self, figure2_relation):
        import networkx as nx

        assert nx.is_directed_acyclic_graph(figure2_relation.to_networkx())


def _all_pairs_relation(events_by_replica):
    """The reference construction: an edge from *every* update applied or
    issued so far at a replica to each update it issues."""
    relation = HappenedBefore()
    for events in events_by_replica.values():
        seen = []
        for event in events:
            if event.update is None:
                continue
            uid = event.update.uid
            relation.updates.setdefault(uid, event.update)
            if event.kind is EventKind.ISSUE:
                relation.direct_edges.update(
                    (prior, uid) for prior in seen if prior != uid)
            seen.append(uid)
    return relation


def _random_traces(seed, replicas=5, steps=120):
    """Seeded random issue/apply/read traces over ``replicas`` replicas,
    plus client-session edges: random pairs in global issue order, as a
    client carries a dependency from one replica to the next."""
    rng = random.Random(seed)
    events = {rid: [] for rid in range(1, replicas + 1)}
    issued, seqs = [], dict.fromkeys(events, 0)
    for _ in range(steps):
        rid = rng.choice(sorted(events))
        trace = events[rid]
        held = {event.update.uid for event in trace if event.update is not None}
        unseen = [update for update in issued if update.uid not in held]
        roll = rng.random()
        if roll < 0.3 or not unseen:
            seqs[rid] += 1
            update = Update(issuer=rid, seq=seqs[rid], register="r", value=seqs[rid])
            issued.append(update)
            trace.append(ev(rid, EventKind.ISSUE, update, len(trace)))
        elif roll < 0.9:
            trace.append(ev(rid, EventKind.APPLY, rng.choice(unseen), len(trace)))
        else:
            trace.append(ev(rid, EventKind.READ, None, len(trace), register="r"))
    extra = []
    for _ in range(len(issued) // 4):
        first, second = sorted(rng.sample(range(len(issued)), 2))
        extra.append((issued[first].uid, issued[second].uid))
    return events, extra


class TestLinearHappenedBefore:
    """``from_events`` keeps only the edges since each replica's previous
    issue; the all-pairs construction is the reference it must match."""

    @pytest.mark.parametrize("seed", range(8))
    def test_same_relation_from_at_most_one_edge_per_event(self, seed, monkeypatch):
        events, extra = _random_traces(seed)
        relation = HappenedBefore.from_events(events)
        reference = _all_pairs_relation(events)
        assert len(relation.direct_edges) <= sum(map(len, events.values()))
        assert len(relation.direct_edges) < len(reference.direct_edges)
        assert relation.updates == reference.updates
        assert all(relation.successors(uid) == reference.successors(uid)
                   for uid in reference.updates)
        # With the client-session edges the checker adds, as it does.
        for built in (relation, reference):
            built.add_edges(extra)
        assert all(relation.successors(uid) == reference.successors(uid)
                   for uid in reference.updates)

        order = topological_update_order(events)
        monkeypatch.setattr(HappenedBefore, "from_events",
                            classmethod(lambda cls, traces: _all_pairs_relation(traces)))
        assert topological_update_order(events) == order

    @pytest.mark.parametrize("seed", range(8))
    def test_predecessors_are_the_ancestors_in_the_direct_edge_dag(self, seed):
        events, extra = _random_traces(seed)
        relation = HappenedBefore.from_events(events)
        relation.add_edges(extra)
        graph = relation.to_networkx()
        for uid in relation.updates:
            ancestors = nx.ancestors(graph, uid)
            assert relation.predecessors(uid) == ancestors
            assert all(relation.happened_before(u, uid) for u in ancestors)
            assert not relation.happened_before(uid, uid)


class TestCausalPast:
    def test_causal_past_includes_predecessors(self, figure2_relation, figure2_updates):
        u1, u2, u3, _ = figure2_updates
        past = causal_past_of(figure2_relation, 3, [u3.uid])
        assert past.update_ids == {u1.uid, u2.uid, u3.uid}
        assert len(past) == 3
        assert u1.uid in past

    def test_restricted_to_edge(self, figure2_relation, figure2_updates):
        u1, u2, u3, _ = figure2_updates
        past = causal_past_of(figure2_relation, 3, [u3.uid])
        only_r1_on_a = past.restricted_to_edge(figure2_relation, issuer=1, registers={"a"})
        assert only_r1_on_a == {u1.uid}

    def test_dependency_graph(self, figure2_relation, figure2_updates):
        u1, u2, u3, _ = figure2_updates
        dep = dependency_graph_of(figure2_relation, 3, [u3.uid])
        assert (u1.uid, u2.uid) in dep.edges
        assert (u1.uid, u3.uid) in dep.edges
        assert dep.causal_past.update_ids == dep.vertices


class TestConsistencyChecker:
    def make_graph(self):
        return ShareGraph.from_placement(triangle_placement())

    def test_consistent_execution_passes(self):
        graph = self.make_graph()
        uz = Update(1, 1, "z", "z1")
        ux = Update(1, 2, "x", "x1")
        uy = Update(2, 1, "y", "y1")
        events = {
            1: [ev(1, EventKind.ISSUE, uz, 0), ev(1, EventKind.ISSUE, ux, 1)],
            2: [ev(2, EventKind.APPLY, ux, 0), ev(2, EventKind.ISSUE, uy, 1)],
            3: [ev(3, EventKind.APPLY, uz, 0), ev(3, EventKind.APPLY, uy, 1)],
        }
        report = check_execution(graph, events)
        assert report.is_causally_consistent
        assert report.checked_updates == 3
        report.raise_on_violation()  # must not raise

    def test_safety_violation_detected(self):
        graph = self.make_graph()
        uz = Update(1, 1, "z", "z1")
        ux = Update(1, 2, "x", "x1")
        uy = Update(2, 1, "y", "y1")
        events = {
            1: [ev(1, EventKind.ISSUE, uz, 0), ev(1, EventKind.ISSUE, ux, 1)],
            2: [ev(2, EventKind.APPLY, ux, 0), ev(2, EventKind.ISSUE, uy, 1)],
            # Replica 3 applies y BEFORE z although z happened-before y and z ∈ X_3.
            3: [ev(3, EventKind.APPLY, uy, 0), ev(3, EventKind.APPLY, uz, 1)],
        }
        report = check_execution(graph, events)
        assert not report.is_safe
        assert len(report.safety_violations) == 1
        violation = report.safety_violations[0]
        assert violation.replica_id == 3
        assert violation.applied.uid == uy.uid
        assert violation.missing.uid == uz.uid
        with pytest.raises(ConsistencyViolationError):
            report.raise_on_violation()

    def test_dependency_on_unstored_register_is_exempt(self):
        graph = self.make_graph()
        # x is not stored at replica 3, so applying y before (never applying) x is fine.
        ux = Update(1, 1, "x", "x1")
        uy = Update(2, 1, "y", "y1")
        events = {
            1: [ev(1, EventKind.ISSUE, ux, 0)],
            2: [ev(2, EventKind.APPLY, ux, 0), ev(2, EventKind.ISSUE, uy, 1)],
            3: [ev(3, EventKind.APPLY, uy, 0)],
        }
        report = check_execution(graph, events)
        assert report.is_safe

    def test_liveness_violation_detected(self):
        graph = self.make_graph()
        ux = Update(1, 1, "x", "x1")
        events = {
            1: [ev(1, EventKind.ISSUE, ux, 0)],
            2: [],  # replica 2 stores x but never applies the update
            3: [],
        }
        report = check_execution(graph, events)
        assert not report.is_live
        assert any(v.replica_id == 2 for v in report.liveness_violations)
        with pytest.raises(LivenessViolationError):
            report.raise_on_violation()

    def test_liveness_check_can_be_skipped(self):
        graph = self.make_graph()
        ux = Update(1, 1, "x", "x1")
        events = {1: [ev(1, EventKind.ISSUE, ux, 0)], 2: [], 3: []}
        report = check_execution(graph, events, check_liveness=False)
        assert report.is_live

    def test_extra_happened_before_edges(self):
        # Two updates at unrelated replicas become ordered only via an
        # injected client edge; the checker must then flag the reordering.
        graph = self.make_graph()
        uz = Update(1, 1, "z", "z1")
        uy = Update(2, 1, "y", "y1")
        events = {
            1: [ev(1, EventKind.ISSUE, uz, 0)],
            2: [ev(2, EventKind.ISSUE, uy, 0)],
            3: [ev(3, EventKind.APPLY, uy, 0), ev(3, EventKind.APPLY, uz, 1)],
        }
        without = ConsistencyChecker(graph).check(events)
        assert without.is_safe
        with_edge = ConsistencyChecker(graph).check(
            events, extra_happened_before=[(uz.uid, uy.uid)]
        )
        assert not with_edge.is_safe

    def test_report_summary(self):
        report = ConsistencyReport()
        assert "0 safety" in report.summary()
