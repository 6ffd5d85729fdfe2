"""E11 — Bounded loop length: sacrificing causality for metadata (Appendix D).

Drops the ring-loop counters (tracking only loops of length ≤ 3) and runs the
bounded protocol under (a) loosely synchronous delays, where it remains
causally consistent, and (b) the adversarial Theorem-8 schedule, where the
missing counters translate into a real safety violation.
"""

from __future__ import annotations

from conftest import run_once
from etables import E11_RING_SIZE

from repro.analysis import exp_bounded_loops


def test_e11_bounded_loops_tradeoff(benchmark):
    """Counters saved; safe under loose synchrony, unsafe under the adversary."""
    result = run_once(benchmark, exp_bounded_loops, E11_RING_SIZE)
    print()
    print("[E11] Bounded loop length on", result.topology)
    print(f"  exact counters   : {result.exact_counters}")
    print(f"  bounded counters : {result.bounded_counters}")
    print(f"  loosely synchronous delays -> consistent = "
          f"{result.consistent_under_loose_synchrony}")
    print(f"  adversarial delays         -> consistent = "
          f"{result.consistent_under_adversary}")
    assert result.bounded_counters < result.exact_counters
    assert result.consistent_under_loose_synchrony
    assert not result.consistent_under_adversary
