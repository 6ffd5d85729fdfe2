"""Unit and integration tests for the client–server architecture (Appendix E)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placements import random_share_graph
from repro.clientserver import (
    AugmentedShareGraph,
    ClientAgent,
    ClientAssignment,
    ClientServerCluster,
    ClientServerReplica,
    augmented_loop_conditions,
    augmented_timestamp_edges,
    build_all_augmented_timestamp_edges,
    client_index_edges,
    has_augmented_loop,
)
from repro.clientserver.augmented import augmented_loop_edges
from repro.clientserver.server import ClientRequest
from repro.core.causal import HappenedBefore
from repro.core.errors import ConfigurationError, RegisterNotStoredError, UnknownReplicaError
from repro.core.share_graph import ShareGraph
from repro.core.timestamp_graph import timestamp_edges
from repro.core.timestamps import EdgeTimestamp
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.topologies import (
    figure3_placement,
    figure5_placement,
    path_placement,
    triangle_placement,
)
from repro.sim.workloads import poisson_workload, run_open_loop


@pytest.fixture
def fig3_graph():
    return ShareGraph.from_placement(figure3_placement())


@pytest.fixture
def spanning_client(fig3_graph):
    """A client accessing the two end replicas of the Figure 3 path."""
    return ClientAssignment.from_dict({"c1": {1, 4}})


class TestClientAssignment:
    def test_from_dict_and_queries(self):
        clients = ClientAssignment.from_dict({"c1": [1, 2], "c2": [2, 3]})
        assert clients.client_ids == ("c1", "c2")
        assert clients.replicas_of("c1") == frozenset({1, 2})
        assert clients.linked(1, 2)
        assert not clients.linked(1, 3)

    def test_client_edges_are_pairs(self):
        clients = ClientAssignment.from_dict({"c": [1, 3]})
        assert clients.client_edges() == frozenset({(1, 3), (3, 1)})

    def test_empty_replica_set_rejected(self):
        with pytest.raises(ConfigurationError):
            ClientAssignment.from_dict({"c": []})

    def test_unknown_client_rejected(self):
        clients = ClientAssignment.from_dict({"c": [1]})
        with pytest.raises(ConfigurationError):
            clients.replicas_of("nope")


class TestAugmentedGraph:
    def test_augmented_edges_superset_of_share_edges(self, fig3_graph, spanning_client):
        augmented = AugmentedShareGraph(fig3_graph, spanning_client)
        assert fig3_graph.edges <= augmented.edges
        assert (1, 4) in augmented.edges and (4, 1) in augmented.edges

    def test_unknown_replica_in_assignment_rejected(self, fig3_graph):
        with pytest.raises(UnknownReplicaError):
            AugmentedShareGraph(fig3_graph, ClientAssignment.from_dict({"c": [99]}))

    def test_neighbors_include_client_links(self, fig3_graph, spanning_client):
        augmented = AugmentedShareGraph(fig3_graph, spanning_client)
        assert 4 in augmented.neighbors(1)

    def test_cycles_appear_only_with_client_link(self, fig3_graph, spanning_client):
        # The Figure 3 share graph is a path (no cycles); the client link
        # closes it into a cycle.
        assert list(fig3_graph.simple_cycles_through(1)) == []
        augmented = AugmentedShareGraph(fig3_graph, spanning_client)
        assert list(augmented.simple_cycles_through(1))

    def test_augmented_loops_exist_for_remote_edges(self, fig3_graph, spanning_client):
        augmented = AugmentedShareGraph(fig3_graph, spanning_client)
        # Replica 1 now needs to track e_32 (an edge between two other
        # replicas) because the client link closes a loop through it.
        assert has_augmented_loop(augmented, 1, (3, 2))

    def test_augmented_timestamp_edges_exclude_client_edges(self, fig3_graph, spanning_client):
        augmented = AugmentedShareGraph(fig3_graph, spanning_client)
        for rid in fig3_graph.replica_ids:
            edges = augmented_timestamp_edges(augmented, rid)
            assert edges <= fig3_graph.edges  # the (1,4) client link never indexed
            # and they always contain the peer-to-peer requirement
            assert timestamp_edges(fig3_graph, rid) <= edges

    def test_no_clients_reduces_to_peer_to_peer(self, fig3_graph):
        clients = ClientAssignment.from_dict({"c": [2]})
        augmented = AugmentedShareGraph(fig3_graph, clients)
        for rid in fig3_graph.replica_ids:
            assert augmented_timestamp_edges(augmented, rid) == timestamp_edges(
                fig3_graph, rid
            )

    def test_client_index_edges_union(self, fig3_graph, spanning_client):
        augmented = AugmentedShareGraph(fig3_graph, spanning_client)
        per_replica = build_all_augmented_timestamp_edges(augmented)
        union = client_index_edges(augmented, "c1", per_replica)
        assert union == per_replica[1] | per_replica[4]


def _enumerated_augmented_loop_edges(augmented, observer, max_loop_length=None):
    """Definition 27 checked at every split of every simple cycle of ``Ĝ``."""
    witnessed = set()
    for cycle in augmented.simple_cycles_through(observer, max_length=max_loop_length):
        for split in range(1, len(cycle) - 1):
            jk = (cycle[split + 1], cycle[split])
            if jk in augmented.share_graph.edges and augmented_loop_conditions(
                augmented, observer, jk, cycle[1:split + 1], cycle[split + 1:]
            ):
                witnessed.add(jk)
    return frozenset(witnessed)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_augmented_loop_edges_match_the_enumerator(data):
    graph = random_share_graph(data.draw, max_replicas=7, max_owners=4)
    replicas = st.sets(st.sampled_from(graph.replica_ids), min_size=1, max_size=3)
    clients = data.draw(st.dictionaries(st.sampled_from(["c1", "c2", "c3"]), replicas))
    augmented = AugmentedShareGraph(graph, ClientAssignment.from_dict(clients))
    observer = data.draw(st.sampled_from(graph.replica_ids))
    bound = data.draw(st.one_of(
        st.none(), st.integers(min_value=3, max_value=graph.num_replicas)))
    expected = _enumerated_augmented_loop_edges(augmented, observer, bound)
    assert augmented_loop_edges(augmented, observer, max_loop_length=bound) == expected
    for e in sorted(graph.edges):
        assert has_augmented_loop(augmented, observer, e, max_loop_length=bound) == (
            e in expected)


class TestClientAgent:
    def test_choose_replica_prefers_request(self, fig3_graph):
        clients = ClientAssignment.from_dict({"c": [2, 3]})
        augmented = AugmentedShareGraph(fig3_graph, clients)
        agent = ClientAgent(augmented, "c")
        # y is stored at 2 and 3: default is the lowest id, preference wins.
        assert agent.choose_replica("y") == 2
        assert agent.choose_replica("y", preferred=3) == 3

    def test_choose_replica_requires_accessible_owner(self, fig3_graph):
        clients = ClientAssignment.from_dict({"c": [1]})
        augmented = AugmentedShareGraph(fig3_graph, clients)
        agent = ClientAgent(augmented, "c")
        with pytest.raises(RegisterNotStoredError):
            agent.choose_replica("z")

    def test_accessible_registers(self, fig3_graph):
        clients = ClientAssignment.from_dict({"c": [1, 4]})
        augmented = AugmentedShareGraph(fig3_graph, clients)
        agent = ClientAgent(augmented, "c")
        assert agent.accessible_registers() == frozenset({"x", "z"})

    def test_absorb_response_merges(self, fig3_graph, spanning_client):
        augmented = AugmentedShareGraph(fig3_graph, spanning_client)
        agent = ClientAgent(augmented, "c1")
        some_edge = sorted(agent.index_edges)[0]
        agent.absorb_response(EdgeTimestamp({some_edge: 3}))
        assert agent.timestamp[some_edge] == 3
        assert agent.metadata_size() == len(agent.index_edges)


class TestServerReplica:
    def test_request_buffered_until_caught_up(self, fig3_graph, spanning_client):
        augmented = AugmentedShareGraph(fig3_graph, spanning_client)
        server = ClientServerReplica(augmented, 2)
        stale_edge = (1, 2)
        demanding = EdgeTimestamp({stale_edge: 1})
        request = ClientRequest("read", "c1", "x", None, demanding)
        assert not server.request_ready(request)
        server.waiting_requests.append(request)
        assert server.take_ready() == []
        assert server.waiting_requests == [request]
        # Once the server catches up (applies the 1 -> 2 update) it is ready.
        server.timestamp = server.timestamp.merged_with(
            EdgeTimestamp({stale_edge: 1}), shared_edges=[stale_edge]
        )
        assert server.take_ready() == [request]
        # It leaves the buffer: taken exactly once.
        assert server.take_ready() == []
        assert server.waiting_requests == []

    def test_absorb_client_then_write_merges_client_knowledge(
            self, fig3_graph, spanning_client):
        augmented = AugmentedShareGraph(fig3_graph, spanning_client)
        server = ClientServerReplica(augmented, 2)
        client_mu = EdgeTimestamp({(3, 2): 1})
        # The predicate would normally buffer this, but running the advance
        # directly shows the merge-then-increment behaviour.
        server.absorb_client(client_mu)
        messages = server.write("y", "v")
        assert server.timestamp[(3, 2)] == 1
        assert server.timestamp[(2, 3)] == 1
        assert [m.destination for m in messages] == [3]


class TestClientServerCluster:
    def test_session_read_your_writes_across_replicas(self, fig3_graph):
        clients = ClientAssignment.from_dict({"c1": {2, 3}})
        cluster = ClientServerCluster(fig3_graph, clients, delay_model=FixedDelay(1.0), seed=0)
        cluster.client_write("c1", "y", "from-2", replica_id=2)
        # Reading y at replica 3 must block until the update has propagated,
        # then return the written value.
        assert cluster.client_read("c1", "y", replica_id=3) == "from-2"
        # The read is booked once, at its serve: the delivery at time 1.
        assert list(cluster.metrics.operation_times) == [0.0, 1.0]
        assert (cluster.metrics.writes, cluster.metrics.reads) == (1, 1)
        assert cluster.servers[3].waiting_requests == []

    def test_dependency_propagation_through_client(self, fig3_graph):
        clients = ClientAssignment.from_dict({"c1": {1, 4}, "helper": {2, 3}})
        cluster = ClientServerCluster(fig3_graph, clients, delay_model=FixedDelay(1.0), seed=1)
        cluster.client_write("c1", "x", "x1", replica_id=1)
        cluster.client_write("c1", "z", "z1", replica_id=4)
        cluster.client_write("helper", "y", "y1", replica_id=2)
        cluster.run_until_quiescent()
        report = cluster.check_consistency()
        assert report.is_causally_consistent

    def test_mixed_workload_consistent(self, fig3_graph):
        clients = ClientAssignment.from_dict(
            {"c1": {1, 4}, "c2": {2, 3}, "c3": {1, 2}}
        )
        cluster = ClientServerCluster(
            fig3_graph, clients, delay_model=UniformDelay(1, 5), seed=3
        )
        for i in range(5):
            cluster.client_write("c1", "x", f"x{i}", replica_id=1)
            cluster.client_write("c2", "y", f"y{i}", replica_id=2)
            cluster.client_write("c1", "z", f"z{i}", replica_id=4)
            cluster.client_read("c2", "z", replica_id=3)
            cluster.client_write("c3", "x", f"x'{i}", replica_id=2)
            cluster.client_read("c3", "x", replica_id=1)
        cluster.run_until_quiescent()
        assert cluster.check_consistency().is_causally_consistent

    def test_metadata_sizes_reported(self, fig3_graph):
        clients = ClientAssignment.from_dict({"c1": {1, 4}})
        cluster = ClientServerCluster(fig3_graph, clients, seed=0)
        servers = cluster.server_metadata_sizes()
        assert set(servers) == {1, 2, 3, 4}
        assert cluster.client_metadata_sizes()["c1"] >= max(servers[1], servers[4])

    def test_triangle_client_server_consistent(self):
        graph = ShareGraph.from_placement(triangle_placement())
        clients = ClientAssignment.from_dict({"a": {1, 2}, "b": {2, 3}})
        cluster = ClientServerCluster(graph, clients, delay_model=UniformDelay(1, 4), seed=5)
        for i in range(6):
            cluster.client_write("a", "x", f"x{i}", replica_id=1)
            cluster.client_write("b", "y", f"y{i}", replica_id=2)
            cluster.client_read("a", "x", replica_id=2)
            cluster.client_read("b", "y", replica_id=3)
        cluster.run_until_quiescent()
        assert cluster.check_consistency().is_causally_consistent


class AllPairsSessions(ClientServerCluster):
    """The direct construction of the client-session ``↪'`` edges, kept as
    the reference: each write gets an edge from every update its client
    ever observed, and each operation re-reads the server's whole trace."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = {}

    def _note_session(self, client_id, target, issued):
        seen = self.seen.setdefault(client_id, set())
        if issued is not None:
            self._client_edges.extend(
                (uid, issued.uid) for uid in seen if uid != issued.uid)
        seen |= {update.uid for update in self.servers[target].events.updates()}
        if issued is not None:
            seen.add(issued.uid)


def _session_run(host_class, graph, clients, seed, operations=120):
    """Seeded random client operations, stepping the network between them."""
    rng = random.Random(seed)
    cluster = host_class(graph, clients, delay_model=UniformDelay(1, 5), seed=seed)
    for index in range(operations):
        client = cluster.clients[rng.choice(clients.client_ids)]
        register = rng.choice(sorted(client.accessible_registers()))
        replica_id = rng.choice(sorted(
            rid for rid in client.replica_set
            if graph.placement.stores_register(rid, register)))
        if rng.random() < 0.6:
            cluster.client_write(client.client_id, register, index,
                                 replica_id=replica_id)
        else:
            cluster.client_read(client.client_id, register, replica_id=replica_id)
        for _ in range(rng.randrange(4)):
            cluster.step()
    cluster.run_until_quiescent()
    return cluster


def _session_relation(cluster):
    relation = HappenedBefore.from_events(cluster.events_by_replica())
    relation.direct_edges.update(
        (u1, u2) for u1, u2 in cluster._extra_happened_before() if u1 != u2)
    return relation


def _e12_assignment():
    graph = ShareGraph.from_placement(figure3_placement())
    return graph, ClientAssignment.from_dict({"c1": {1, 4}, "c2": {2, 3}, "c3": {1, 2}})


def _random_assignment():
    graph = ShareGraph.from_placement(path_placement(6))
    rng = random.Random(11)
    return graph, ClientAssignment.from_dict({
        f"c{k}": set(rng.sample(list(graph.replica_ids), rng.randint(2, 3)))
        for k in range(5)
    })


class TestOneOperationPath:
    def test_write_issue_recorded_before_its_sends(self):
        graph = ShareGraph.from_placement(figure5_placement())
        cluster = ClientServerCluster.with_colocated_clients(graph, seed=9)
        recorder = cluster.enable_tracing()
        run_open_loop(cluster, poisson_workload(graph, rate=1.5, duration=60.0, seed=9))
        issued_at, sends = {}, []
        for position, (_, stage, uid, _, _) in enumerate(recorder.events):
            if stage == "issue":
                issued_at[uid] = position
            elif stage == "send":
                sends.append((uid, position))
        assert issued_at and sends
        late = {uid for uid, position in sends
                if issued_at.get(uid, len(recorder.events)) > position}
        assert not late, f"{len(late)} of {len(issued_at)} writes sent before issue"

    @pytest.mark.parametrize("setup", [_e12_assignment, _random_assignment],
                             ids=["e12", "random"])
    @pytest.mark.parametrize("seed", [1, 4])
    def test_session_edges_match_the_all_pairs_construction(self, setup, seed):
        graph, clients = setup()
        cluster = _session_run(ClientServerCluster, graph, clients, seed)
        reference = _session_run(AllPairsSessions, graph, clients, seed)
        assert cluster.events_by_replica() == reference.events_by_replica()
        relation, expected = _session_relation(cluster), _session_relation(reference)
        assert relation.updates.keys() == expected.updates.keys()
        for uid in expected.updates:
            assert relation.successors(uid) == expected.successors(uid), uid
        operations = sum(len(client.history) for client in cluster.clients.values())
        # A client observes each server's trace at most once over.
        touched = {(cid, record.replica_id)
                   for cid, client in cluster.clients.items()
                   for record in client.history}
        observations = sum(len(cluster.servers[rid].events) for _, rid in touched)
        assert len(cluster._client_edges) <= operations + observations
        assert len(cluster._client_edges) < len(reference._client_edges)
        assert (cluster.check_consistency().is_causally_consistent
                == reference.check_consistency().is_causally_consistent)
