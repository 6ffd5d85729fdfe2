"""E10 — Restricted communication: breaking rings with virtual registers (Fig. 13).

Computes the metadata saved and the propagation-hop/relay-message cost of
breaking rings of several sizes into paths, plus the extreme hub (star)
restriction.  Expected shape: counters drop from 2n per replica to the node
degree, while the broken register's updates travel n-1 hops.
"""

from __future__ import annotations

from conftest import run_once
from etables import E10_RING_SIZES

from repro.analysis import exp_ring_breaking, render_ring_breaking


def test_e10_ring_breaking_tradeoff(benchmark):
    """Metadata vs propagation-path trade-off across ring sizes."""
    rows = run_once(benchmark, exp_ring_breaking, E10_RING_SIZES)
    print()
    print("[E10] Ring breaking via virtual registers")
    print(render_ring_breaking(rows))
    for row in rows:
        assert row["counters after"] < row["counters before"]
        assert row["max hops after"] >= row["max hops before"]
