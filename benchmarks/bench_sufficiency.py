"""E5 — Sufficiency: the edge-indexed algorithm is causally consistent everywhere.

Randomized and causal-chain workloads over the full topology suite, all
validated by the independent checker.
"""

from __future__ import annotations

from conftest import run_once
from etables import E5_SUFFICIENCY

from repro.analysis import exp_sufficiency, render_sufficiency


def test_e5_randomized_executions_consistent(benchmark):
    """Every run over every topology in the suite is causally consistent."""
    result = run_once(benchmark, exp_sufficiency, **E5_SUFFICIENCY)
    print()
    print("[E5] Sufficiency sweep (uniform + causal-chain workloads)")
    print(render_sufficiency(result))
    assert result.all_consistent
