"""E22 — Adaptive reconfiguration vs. every static placement.

Runs :func:`repro.analysis.exp_adaptive` — a drifting-hotspot workload
(the writer set rotates across GEANT regions every ``duration /
rotations``) against each static placement policy plus the closed-loop
:class:`~repro.adapt.AdaptiveController` — and gates the subsystem's
headline contract:

* **adaptive beats every static** — the controller cell wins on *both*
  measured timestamp bytes per message and apply-latency p99 against
  every static placement policy;
* **the loop actually ran** — the adaptive cell committed controller-
  issued reconfigurations (and pulled the compression lever);
* **consistency** — causal consistency holds in every cell, including
  through every controller-issued reconfiguration.

Set ``REPRO_BENCH_TINY=1`` to shrink the workload (CI smoke).
"""

from __future__ import annotations

import os

from conftest import run_once, write_bench_json
from etables import E22_ADAPTIVE

from repro.analysis import AdaptiveRow, exp_adaptive, render_rows

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
SIZES = E22_ADAPTIVE if TINY else dict(duration=720.0, rotations=12)


def test_e22_adaptive_beats_statics(benchmark):
    """Closed-loop controller vs. static placements on a drifting hotspot."""
    rows = run_once(benchmark, exp_adaptive, **SIZES)
    print()
    print("[E22] Adaptive reconfiguration vs static placement")
    print(render_rows(AdaptiveRow, rows))

    assert len(rows) == 4  # 3 static policies + the adaptive cell
    for row in rows:
        assert row.consistent, f"inconsistent cell: {row}"
        assert row.messages > 0
        assert row.ts_bytes_per_msg > 0.0

    adaptive = [r for r in rows if r.adaptive]
    assert len(adaptive) == 1
    adaptive = adaptive[0]
    statics = [r for r in rows if not r.adaptive]
    assert len(statics) == 3

    assert adaptive.reconfigs > 0, "the controller never reconfigured"
    assert adaptive.plans > 0, "the controller never installed a plan"
    assert adaptive.compressed, "the compression lever never triggered"

    worst_bytes_ratio = float("inf")
    worst_p99_ratio = float("inf")
    for static in statics:
        bytes_ratio = static.ts_bytes_per_msg / adaptive.ts_bytes_per_msg
        p99_ratio = static.apply_p99 / adaptive.apply_p99
        worst_bytes_ratio = min(worst_bytes_ratio, bytes_ratio)
        worst_p99_ratio = min(worst_p99_ratio, p99_ratio)
        assert bytes_ratio > 1.0, (
            f"adaptive must beat {static.policy} on timestamp bytes/msg: "
            f"{adaptive.ts_bytes_per_msg:.1f} vs {static.ts_bytes_per_msg:.1f}"
        )
        assert p99_ratio > 1.0, (
            f"adaptive must beat {static.policy} on apply p99: "
            f"{adaptive.apply_p99:.2f} vs {static.apply_p99:.2f}"
        )

    write_bench_json(
        "adaptive",
        metric="min_gate_ratio",
        value=min(worst_bytes_ratio, worst_p99_ratio),
        threshold=1.0,
        worst_bytes_ratio=worst_bytes_ratio,
        worst_p99_ratio=worst_p99_ratio,
        adaptive_ts_bytes_per_msg=adaptive.ts_bytes_per_msg,
        adaptive_apply_p99=adaptive.apply_p99,
        reconfigs=adaptive.reconfigs,
        plans=adaptive.plans,
        cells=len(rows),
    )
