"""Shared placement suites for parametrized integration tests.

Importable by name (``from placements import all_small_placements``) so test
modules do not depend on conftest import-order resolution — ``conftest`` is
ambiguous when both ``tests/`` and ``benchmarks/`` are on ``sys.path``.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.registers import RegisterPlacement
from repro.core.share_graph import ShareGraph
from repro.sim.topologies import (
    clique_placement,
    figure3_placement,
    figure5_placement,
    grid_placement,
    pairwise_clique_placement,
    path_placement,
    random_partial_placement,
    ring_placement,
    star_placement,
    tree_placement,
    triangle_placement,
)


def all_small_placements() -> dict:
    """A suite of small placements used by parametrized integration tests."""
    return {
        "figure3": figure3_placement(),
        "figure5": figure5_placement(),
        "triangle": triangle_placement(),
        "ring5": ring_placement(5),
        "tree7": tree_placement(7),
        "star4": star_placement(4),
        "path4": path_placement(4),
        "clique4": clique_placement(4),
        "pairwise4": pairwise_clique_placement(4),
        "grid2x3": grid_placement(2, 3),
        "random7": random_partial_placement(7, 10, replication_factor=3, seed=3),
    }


def random_share_graph(draw, max_replicas: int, max_owners: int) -> ShareGraph:
    """A small random share graph drawn from a Hypothesis ``draw``.

    Every register lands on 1..``max_owners`` replicas (a high replication
    factor is what makes l-side blockers bite); a replica left with nothing
    gets a private register, so some vertices are isolated.
    """
    num_replicas = draw(st.integers(min_value=3, max_value=max_replicas))
    num_registers = draw(st.integers(min_value=num_replicas - 1,
                                     max_value=num_replicas + 4))
    stores = {rid: set() for rid in range(1, num_replicas + 1)}
    for index in range(num_registers):
        owners = draw(
            st.sets(
                st.integers(min_value=1, max_value=num_replicas),
                min_size=1, max_size=min(max_owners, num_replicas),
            )
        )
        for owner in owners:
            stores[owner].add(f"x{index}")
    for rid, registers in stores.items():
        if not registers:
            registers.add(f"private{rid}")
    return ShareGraph.from_placement(RegisterPlacement.from_dict(stores))
