"""Property-based tests for the adaptive reconfiguration controller.

The three contracts that make the sense → plan → act loop safe to leave
attached (hypothesis over random specs, placements and traffic mixes):

* **feasibility** — every diff the planner proposes compiles through the
  reconfiguration action algebra into a placement that re-validates
  against the original spec, with the share graph connected at every
  intermediate epoch;
* **determinism** — the whole loop is deterministic per seed: two runs
  of the same drifting workload produce identical decisions, epochs and
  final placements;
* **hysteresis** — on a steady workload the controller never acts at
  all: zero plans, zero reconfigurations, zero decisions.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adapt import (
    AdaptiveController,
    ControllerConfig,
    Hysteresis,
    Planner,
    SignalWindow,
)
from repro.analysis.experiments import _home_map, drifting_writer_groups
from repro.core.errors import ConfigurationError
from repro.core.share_graph import ShareGraph
from repro.placement import PlacementSpec, placement_policies
from repro.sim.cluster import Cluster, edge_indexed_factory
from repro.sim.reconfig import apply_action
from repro.sim.workloads import (
    drifting_hotspot_workload,
    poisson_workload,
    run_open_loop,
)
from repro.topo import Topology, geant_like

COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


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
    return Topology.parse("\n".join(lines), name=f"random-{num_nodes}")


@st.composite
def placements(draw):
    """A placed spec: random topology, policy and seed."""
    topology = draw(topologies())
    num_replicas = draw(st.integers(3, topology.num_nodes))
    num_registers = draw(st.integers(2, 8))
    replication_factor = draw(st.integers(1, min(2, num_replicas)))
    minimum = -(-(num_registers * replication_factor + num_replicas - 1)
                // num_replicas)
    capacity = draw(st.one_of(
        st.none(), st.integers(minimum + 1, minimum + 6)
    ))
    spec = PlacementSpec.make(
        topology,
        num_replicas=num_replicas,
        num_registers=num_registers,
        replication_factor=replication_factor,
        capacity=capacity,
    )
    policy = draw(st.sampled_from(sorted(placement_policies())))
    seed = draw(st.integers(0, 2**16))
    return placement_policies()[policy].place(spec, seed=seed)


@st.composite
def traffic(draw, result):
    """A sensed write mix over one placement: counts and modal writers."""
    placement = result.placement
    registers = sorted(placement.registers)
    hot = draw(st.lists(
        st.sampled_from(registers), min_size=1, max_size=len(registers),
        unique=True,
    ))
    writes_by_register = {}
    writer_of = {}
    writes_by_replica = {}
    for register in hot:
        count = draw(st.integers(1, 40))
        writer = draw(
            st.sampled_from(sorted(placement.replicas_storing(register)))
        )
        writes_by_register[register] = count
        writer_of[register] = writer
        writes_by_replica[writer] = writes_by_replica.get(writer, 0) + count
    return writes_by_register, writes_by_replica, writer_of


# ----------------------------------------------------------------------
# Signal primitives
# ----------------------------------------------------------------------

class TestSignalPrimitives:
    def test_window_is_capacity_bounded(self):
        window = SignalWindow(3)
        for i in range(10):
            window.append(i)
        assert list(window) == [7, 8, 9]
        assert window.full

    def test_merge_counts_sums_projections(self):
        window = SignalWindow(2)
        window.append({"a": 1, "b": 2})
        window.append({"a": 3})
        assert window.merge_counts(lambda s: s) == {"a": 4, "b": 2}

    def test_hysteresis_rejects_bad_thresholds(self):
        with pytest.raises(ConfigurationError):
            Hysteresis(0.3, 0.5)
        with pytest.raises(ConfigurationError):
            Hysteresis(0.5, 0.3, arm=0)

    @COMMON
    @given(
        rise=st.floats(0.3, 0.9),
        gap=st.floats(0.05, 0.2),
        arm=st.integers(1, 4),
        values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
    )
    def test_hysteresis_never_arms_without_consecutive_rises(
        self, rise, gap, arm, values
    ):
        """Active requires ``arm`` consecutive samples at/above ``rise``."""
        hysteresis = Hysteresis(rise, rise - gap, arm=arm)
        streak = 0
        for value in values:
            active = hysteresis.update(value)
            if value >= rise:
                streak += 1
            elif not active:
                streak = 0
            if active and streak < arm:
                pytest.fail(
                    f"armed after only {streak} consecutive rises "
                    f"(arm={arm}, value={value}, rise={rise})"
                )

    def test_hysteresis_dead_band_resets_streak(self):
        hysteresis = Hysteresis(0.5, 0.2, arm=2)
        assert not hysteresis.update(0.6)
        assert not hysteresis.update(0.3)  # dead band: streak resets
        assert not hysteresis.update(0.6)
        assert hysteresis.update(0.6)
        assert hysteresis.update(0.3)      # dead band: stays active
        assert not hysteresis.update(0.1)  # fall threshold: deactivates


# ----------------------------------------------------------------------
# Planner feasibility
# ----------------------------------------------------------------------

class TestPlannerFeasibility:
    @COMMON
    @given(data=st.data())
    def test_every_diff_compiles_to_a_feasible_placement(self, data):
        """Proposed diffs re-validate against the spec, connected throughout."""
        result = data.draw(placements())
        writes_by_register, writes_by_replica, writer_of = data.draw(
            traffic(result)
        )
        planner = Planner(result, max_moves=3, margin=0.0, min_writes=1)
        diff = planner.propose(
            result.placement, writes_by_register, writes_by_replica, writer_of
        )
        if diff is None:
            return
        assert 1 <= len(diff.moves) <= 3
        assert diff.predicted_after < diff.predicted_before

        # Replaying the compiled actions from the starting placement must
        # reach exactly the proposed placement, connected at every epoch.
        working = result.placement
        for move in diff.moves:
            for action in move.actions(0.0, 1.0):
                working = apply_action(working, action)
                assert ShareGraph.from_placement(working).is_connected()
        assert working == diff.placement

        # The final placement re-validates against the original spec.
        validated = diff.validated
        assert validated is not None
        assert validated.spec is result.spec
        for register in result.spec.registers:
            owners = working.replicas_storing(register)
            assert len(owners) >= result.spec.replication_factor
        if result.spec.capacity is not None:
            for rid in result.spec.replica_ids:
                assert len(working.registers_at(rid)) <= result.spec.capacity

    def test_a_zero_gain_diff_is_not_proposed(self):
        """At ``margin=0`` a diff must still *beat* the current placement.

        The one shed move the planner finds here (``x01``: 4 -> 2) leaves
        the predicted cost at 10.0 -> 10.0.
        """
        star = Topology.parse(
            "\n".join(f"s0 s{i} 1.0" for i in range(1, 5)), name="random-5"
        )
        spec = PlacementSpec.make(
            star, num_replicas=4, num_registers=4, replication_factor=2,
        )
        result = placement_policies()["random"].place(spec, seed=589)
        planner = Planner(result, max_moves=3, margin=0.0, min_writes=1)
        assert planner.propose(
            result.placement, {"x00": 1}, {4: 1}, {"x00": 4}
        ) is None

    @COMMON
    @given(data=st.data())
    def test_pinned_copies_never_move(self, data):
        result = data.draw(placements())
        writes_by_register, writes_by_replica, writer_of = data.draw(
            traffic(result)
        )
        pinned = {
            register: min(result.placement.replicas_storing(register))
            for register in sorted(result.placement.registers)
        }
        planner = Planner(
            result, pinned=pinned, max_moves=3, margin=0.0, min_writes=1
        )
        diff = planner.propose(
            result.placement, writes_by_register, writes_by_replica, writer_of
        )
        if diff is None:
            return
        for move in diff.moves:
            assert pinned[move.register] != move.source
        for register, rid in pinned.items():
            assert diff.placement.stores_register(rid, register)


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------

def _adaptive_run(seed: int):
    """One small drifting-hotspot run with the controller attached."""
    spec = PlacementSpec.make(
        geant_like(), num_replicas=8, num_registers=12,
        replication_factor=2, capacity=6,
    )
    result = placement_policies()["latency-greedy"].place(spec, seed=seed)
    home = _home_map(result)
    workload = drifting_hotspot_workload(
        home, drifting_writer_groups(result), rate=2.0, duration=120.0,
        rotations=4, seed=seed,
    )
    host = Cluster(
        result.share_graph,
        replica_factory=edge_indexed_factory,
        delay_model=result.delay_model(jitter=0.05),
        seed=seed,
        wire_accounting=True,
    )
    controller = AdaptiveController(
        host, result,
        pinned={register: rid for rid, register in home.items()},
        config=ControllerConfig(
            interval=1.5, window=2, cooldown=5.0, margin=0.02,
            max_moves=3, min_writes=3, arm=2, dominance_rise=0.4,
            dominance_fall=0.25, compress_bytes_per_msg=18.0,
            reconfig_window=0.15,
        ),
    ).attach()
    run_result = run_open_loop(host, workload)
    placement = {
        rid: frozenset(host.share_graph.placement.registers_at(rid))
        for rid in sorted(host.share_graph.replica_ids)
    }
    return run_result, host, controller, placement


class TestClosedLoop:
    @pytest.mark.parametrize("seed", [3, 22])
    def test_sense_plan_act_is_deterministic_per_seed(self, seed):
        first = _adaptive_run(seed)
        second = _adaptive_run(seed)
        assert [d.describe() for d in first[2].decisions] == [
            d.describe() for d in second[2].decisions
        ]
        assert first[1].metrics.reconfigs == second[1].metrics.reconfigs
        assert first[3] == second[3]
        assert first[0].consistent and second[0].consistent

    def test_drifting_hotspot_triggers_reconfigs_and_stays_consistent(self):
        run_result, host, controller, _ = _adaptive_run(22)
        assert run_result.consistent
        assert controller.plans_installed > 0
        assert host.metrics.reconfigs > 0

    def test_steady_workload_triggers_zero_reconfigs(self):
        """Hysteresis: a uniform write mix never arms the planner."""
        spec = PlacementSpec.make(
            geant_like(), num_replicas=10, num_registers=16,
            replication_factor=2, capacity=6,
        )
        result = placement_policies()["availability-aware"].place(spec, seed=5)
        workload = poisson_workload(
            result.share_graph, rate=2.0, duration=120.0,
            write_fraction=0.5, seed=5,
        )
        host = Cluster(
            result.share_graph,
            replica_factory=edge_indexed_factory,
            delay_model=result.delay_model(jitter=0.05),
            seed=5,
            wire_accounting=True,
        )
        controller = AdaptiveController(host, result).attach()
        run_result = run_open_loop(host, workload)
        assert run_result.consistent
        assert controller.plans_installed == 0
        assert controller.decisions == []
        assert host.metrics.reconfigs == 0
