"""Property-based tests for the placement policies (hypothesis).

Every policy, on random connected topologies, must emit a placement that
is actually runnable: all registers covered at their replication factor,
every replica storing at least one register (the workload generators
address every replica), per-replica capacity respected, the share graph
connected, deterministic per ``(spec, seed)``, and
:class:`~repro.core.replica.EdgeIndexedReplica` constructible on the
emitted share graph without raising.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import PlacementError
from repro.core.replica import EdgeIndexedReplica
from repro.placement import (
    AvailabilityAwarePlacement,
    LatencyGreedyPlacement,
    PlacementSpec,
    RandomPlacement,
    placement_policies,
    score_placement,
)
from repro.topo import Topology, geant_like

POLICIES = sorted(placement_policies())


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

@st.composite
def topologies(draw, max_nodes: int = 8):
    """Random connected topologies: a random tree plus extra edges."""
    num_nodes = draw(st.integers(3, max_nodes))
    num_regions = draw(st.integers(1, 3))
    names = [f"s{i}" for i in range(num_nodes)]
    lines = [
        f"node {name} reg{i % num_regions}" for i, name in enumerate(names)
    ]
    seen = set()
    for i in range(1, num_nodes):
        parent = draw(st.integers(0, i - 1))
        latency = draw(st.floats(0.5, 50.0, allow_nan=False))
        seen.add((parent, i))
        lines.append(f"{names[parent]} {names[i]} {latency:.3f}")
    extra = draw(st.integers(0, num_nodes))
    for _ in range(extra):
        u = draw(st.integers(0, num_nodes - 1))
        v = draw(st.integers(0, num_nodes - 1))
        if u == v or (min(u, v), max(u, v)) in seen:
            continue
        seen.add((min(u, v), max(u, v)))
        latency = draw(st.floats(0.5, 50.0, allow_nan=False))
        lines.append(f"{names[u]} {names[v]} {latency:.3f}")
    return Topology.parse("\n".join(lines), name=f"random-{num_nodes}")


@st.composite
def specs(draw):
    """Feasible placement specs over random topologies."""
    topology = draw(topologies())
    num_replicas = draw(st.integers(2, topology.num_nodes))
    num_registers = draw(st.integers(1, 8))
    replication_factor = draw(st.integers(1, min(3, num_replicas)))
    # Generous capacity: the minimum feasible budget plus headroom, or
    # unbounded — policies must respect whichever they are given.
    minimum = -(-(num_registers * replication_factor + num_replicas - 1)
                // num_replicas)
    capacity = draw(st.one_of(
        st.none(), st.integers(minimum + 1, minimum + 8)
    ))
    return PlacementSpec.make(
        topology,
        num_replicas=num_replicas,
        num_registers=num_registers,
        replication_factor=replication_factor,
        capacity=capacity,
    )


COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Invariants, per policy
# ----------------------------------------------------------------------

class TestPlacementInvariants:
    @pytest.mark.parametrize("policy_name", POLICIES)
    @COMMON
    @given(spec=specs(), seed=st.integers(0, 2**16))
    def test_every_register_covered_at_replication_factor(
        self, policy_name, spec, seed
    ):
        result = placement_policies()[policy_name].place(spec, seed=seed)
        assert set(result.placement.registers) >= set(spec.registers)
        for register in spec.registers:
            owners = result.placement.replicas_storing(register)
            assert len(owners) >= spec.replication_factor

    @pytest.mark.parametrize("policy_name", POLICIES)
    @COMMON
    @given(spec=specs(), seed=st.integers(0, 2**16))
    def test_capacity_respected_and_every_replica_nonempty(
        self, policy_name, spec, seed
    ):
        result = placement_policies()[policy_name].place(spec, seed=seed)
        for rid in spec.replica_ids:
            stored = result.placement.registers_at(rid)
            assert stored, f"replica {rid} stores nothing"
            if spec.capacity is not None:
                assert len(stored) <= spec.capacity

    @pytest.mark.parametrize("policy_name", POLICIES)
    @COMMON
    @given(spec=specs(), seed=st.integers(0, 2**16))
    def test_deterministic_per_seed(self, policy_name, spec, seed):
        policy = placement_policies()[policy_name]
        first = policy.place(spec, seed=seed)
        second = policy.place(spec, seed=seed)
        assert first.assignment == second.assignment
        assert first.placement == second.placement

    @pytest.mark.parametrize("policy_name", POLICIES)
    @COMMON
    @given(spec=specs(), seed=st.integers(0, 2**16))
    def test_share_graph_connected_and_replicas_constructible(
        self, policy_name, spec, seed
    ):
        result = placement_policies()[policy_name].place(spec, seed=seed)
        graph = result.share_graph
        assert graph.is_connected()
        # The paper's replica construction must accept the emitted graph.
        for rid in graph.replica_ids:
            replica = EdgeIndexedReplica(graph, rid)
            assert replica.timestamp.edges is not None

    @pytest.mark.parametrize("policy_name", POLICIES)
    @COMMON
    @given(spec=specs(), seed=st.integers(0, 2**16))
    def test_delay_model_is_positive_on_every_channel(
        self, policy_name, spec, seed
    ):
        result = placement_policies()[policy_name].place(spec, seed=seed)
        model = result.delay_model(jitter=0.2)
        rng = random.Random(seed)
        for i in spec.replica_ids:
            for j in spec.replica_ids:
                if i == j:
                    continue
                assert model.channel_base((i, j)) > 0.0
                message = type("M", (), {"sender": i, "destination": j})()
                assert model.delay(message, rng) > 0.0


class TestPlacementScoring:
    @COMMON
    @given(spec=specs(), seed=st.integers(0, 2**16))
    def test_scores_are_finite_and_survival_in_range(self, spec, seed):
        for policy in placement_policies().values():
            score = score_placement(policy.place(spec, seed=seed))
            assert score.counters_mean > 0.0
            assert score.algorithm_bits_mean > 0.0
            assert 0.0 <= score.region_survival_min <= 1.0
            # The mean of equal latencies can land one ulp above them.
            assert score.edge_latency_p99 >= score.edge_latency_mean * (1 - 1e-12) >= 0.0

    def test_availability_aware_survives_region_kill_on_geant(self):
        spec = PlacementSpec.make(
            geant_like(), num_replicas=10, num_registers=16,
            replication_factor=2, capacity=6,
        )
        result = AvailabilityAwarePlacement().place(spec, seed=3)
        score = score_placement(result)
        assert score.region_survival_min == 1.0
        for register in spec.registers:
            assert len(result.regions_of_register(register)) >= 2


class TestSpecValidation:
    def test_more_replicas_than_nodes_raises(self):
        with pytest.raises(PlacementError, match="do not fit"):
            PlacementSpec.make(geant_like(), num_replicas=23, num_registers=4)

    def test_insufficient_capacity_raises(self):
        with pytest.raises(PlacementError, match="capacity"):
            PlacementSpec.make(
                geant_like(), num_replicas=4, num_registers=10,
                replication_factor=2, capacity=2,
            )

    def test_replication_factor_bounds(self):
        with pytest.raises(PlacementError, match="replication factor"):
            PlacementSpec.make(
                geant_like(), num_replicas=3, num_registers=4,
                replication_factor=4,
            )

    def test_policies_have_distinct_names(self):
        registry = placement_policies()
        assert set(registry) == {
            "random", "latency-greedy", "availability-aware",
        }
        assert isinstance(registry["random"], RandomPlacement)
        assert isinstance(registry["latency-greedy"], LatencyGreedyPlacement)
        assert isinstance(
            registry["availability-aware"], AvailabilityAwarePlacement
        )
