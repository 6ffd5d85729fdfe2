"""E21 — Placement policies on measured topologies.

Runs :func:`repro.analysis.exp_placement` — placement policy × topology ×
protocol/architecture, with latency-weighted delays from the measured
maps and one region-kill fault cell per placement — and gates the
subsystem's headline contract:

* **optimized beats random** — on the GEANT-like topology the
  availability-aware placement beats random placement on *both*
  timestamp bytes per message and measured apply p99;
* **availability** — the availability-aware placement keeps every
  register alive under any single-region kill (survival 1.0), which
  random placement does not guarantee;
* **consistency** — causal consistency holds in every cell, including
  through the region-kill fault.

Set ``REPRO_BENCH_TINY=1`` to shrink the workload (CI smoke).
"""

from __future__ import annotations

import os

from conftest import run_once, write_bench_json
from etables import E21_PLACEMENT

from repro.analysis import exp_placement, render_placement

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
SIZES = E21_PLACEMENT if TINY else dict(
    rate=4.0, duration=40.0, num_replicas=10, num_registers=16, capacity=6)


def _gate_cell(rows, policy):
    """The GEANT edge-indexed peer-to-peer no-fault row for ``policy``."""
    matches = [
        r
        for r in rows
        if r.topology == "geant-like"
        and r.policy == policy
        and r.protocol == "edge-indexed"
        and r.architecture == "peer-to-peer"
        and r.fault == "none"
    ]
    assert len(matches) == 1, f"expected one gate cell for {policy}, got {matches}"
    return matches[0]


def test_e21_placement_matrix(benchmark):
    """Policy × topology × protocol sweep: optimized beats random on GEANT."""
    rows = run_once(benchmark, exp_placement, **SIZES)
    print()
    print("[E21] Placement policy x topology x protocol")
    print(render_placement(rows))

    assert len(rows) == 24  # 2 topologies x 3 policies x 4 cells
    for row in rows:
        assert row.consistent, f"inconsistent cell: {row}"
        assert row.messages > 0
        assert row.ts_bytes_per_msg > 0.0
    fault_rows = [r for r in rows if r.fault != "none"]
    assert len(fault_rows) == 6
    for row in fault_rows:
        assert row.availability_min < 1.0, (
            f"region kill did not register as downtime: {row}"
        )

    random_cell = _gate_cell(rows, "random")
    optimized = _gate_cell(rows, "availability-aware")
    bytes_ratio = random_cell.ts_bytes_per_msg / optimized.ts_bytes_per_msg
    p99_ratio = random_cell.apply_p99 / optimized.apply_p99
    assert bytes_ratio > 1.0, (
        f"availability-aware placement must beat random on timestamp "
        f"bytes/msg: {optimized.ts_bytes_per_msg:.1f} vs "
        f"{random_cell.ts_bytes_per_msg:.1f}"
    )
    assert p99_ratio > 1.0, (
        f"availability-aware placement must beat random on apply p99: "
        f"{optimized.apply_p99:.1f} vs {random_cell.apply_p99:.1f}"
    )
    assert optimized.region_survival == 1.0, (
        "availability-aware placement must survive any single-region kill"
    )

    write_bench_json(
        "placement",
        metric="min_gate_ratio",
        value=min(bytes_ratio, p99_ratio),
        threshold=1.0,
        bytes_ratio=bytes_ratio,
        p99_ratio=p99_ratio,
        optimized_ts_bytes_per_msg=optimized.ts_bytes_per_msg,
        random_ts_bytes_per_msg=random_cell.ts_bytes_per_msg,
        optimized_apply_p99=optimized.apply_p99,
        random_apply_p99=random_cell.apply_p99,
        cells=len(rows),
    )
