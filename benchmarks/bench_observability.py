"""E19 — Observability: traced runs across topology × architecture.

Runs :func:`repro.analysis.exp_observability` — the message-lifecycle
tracer on, clique and tree topologies, both architectures — and gates the
layer's headline contract:

* **chain coverage** — ≥99% of applied remote copies reconstruct their
  full issue→send→wire→deliver→apply chain from the recorded events;
* **breakdown sanity** — per-stage percentiles exist for every hop and
  end-to-end dominates each individual stage;
* **consistency** — tracing changes nothing: every traced cell still
  passes the causal-consistency checker.

The *cost* side of the contract (hooks ≤3% disabled, ≤2x enabled) is
gated next to the other hot-path benchmarks in
``bench_protocol_micro.py::test_e19_observability_overhead``.

Set ``REPRO_BENCH_TINY=1`` to shrink the workload (CI smoke).
"""

from __future__ import annotations

import os

from conftest import run_once, write_bench_json
from etables import E19_OBSERVABILITY

from repro.analysis import ObservabilityRow, exp_observability, render_rows

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
SIZES = E19_OBSERVABILITY if TINY else dict(rate=4.0, duration=30.0)


def test_e19_observability_matrix(benchmark):
    """Traced clique/tree × p2p/client-server: coverage ≥99% everywhere."""
    rows = run_once(benchmark, exp_observability, **SIZES)
    print()
    print("[E19] Traced runs (topology x architecture)")
    print(render_rows(ObservabilityRow, rows))

    assert len(rows) == 4
    assert {(r.architecture, r.topology) for r in rows} == {
        ("peer-to-peer", "clique"), ("client-server", "clique"),
        ("peer-to-peer", "tree"), ("client-server", "tree"),
    }
    worst = min(rows, key=lambda r: r.coverage)
    for row in rows:
        assert row.consistent, f"traced run inconsistent: {row}"
        assert row.applied > 0 and row.events > 0
        assert row.coverage >= 0.99, f"chain coverage below bar: {row}"
        assert row.end_to_end_p99 >= row.end_to_end_p50 > 0.0
        assert row.dominant_stage in (
            "issue→send", "batch window", "transport", "pending wait",
        )
    write_bench_json(
        "observability_matrix",
        metric="min_chain_coverage",
        value=worst.coverage,
        threshold=0.99,
        cells=len(rows),
        worst_cell=f"{worst.architecture}/{worst.topology}",
        total_events=sum(r.events for r in rows),
        total_applied=sum(r.applied for r in rows),
    )
