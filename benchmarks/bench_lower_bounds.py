"""E6 — Lower bounds on timestamp size (Section 4) vs. the algorithm's sizes.

Regenerates the closed-form corollaries (tree, cycle, full replication) and
evaluates Theorem 15's conflict-graph bound explicitly on a small cycle,
checking that the algorithm's timestamps are tight.
"""

from __future__ import annotations

import pytest

from conftest import run_once
from etables import E6_CONFLICT_MAX_UPDATES, E6_MAX_UPDATES

from repro.analysis import (
    LowerBoundRow,
    exp_conflict_bound,
    exp_lower_bounds,
    render_rows,
)


def test_e6_closed_form_bounds_are_tight(benchmark):
    """Tree / cycle / clique closed forms equal the algorithm's sizes."""
    rows = run_once(benchmark, exp_lower_bounds, E6_MAX_UPDATES)
    print()
    print("[E6] Closed-form lower bounds vs the algorithm")
    print(render_rows(LowerBoundRow, rows))
    for row in rows:
        assert row.algorithm_bits == pytest.approx(row.lower_bound_bits)


def test_e6_conflict_graph_bound_matches_closed_form(benchmark):
    """Theorem 15 evaluated explicitly on a 3-cycle with m = 2."""
    result = run_once(benchmark, exp_conflict_bound, E6_CONFLICT_MAX_UPDATES)
    print()
    print(
        f"[E6] Conflict-graph bound on {result.topology} (m={result.max_updates}): "
        f"{result.space_size} timestamps = {result.bits:.1f} bits; "
        f"closed form = {result.closed_form_bits:.1f} bits"
    )
    assert result.bits == pytest.approx(result.closed_form_bits)
