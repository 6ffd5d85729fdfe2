"""E17 — Dynamic membership: churn rate × topology under open-loop load.

Drives the reconfiguration subsystem (``repro.sim.reconfig``) through the
churn × topology sweep on both architectures and gates its headline
contract on a larger run:

* **consistency across epochs** — a 64-replica open-loop run that adds 8
  replicas and removes 4 mid-run passes the epoch-aware consistency
  checker on both the peer-to-peer and the client–server architecture;
* **metadata step-change** — per-message timestamp bytes inside each epoch
  sit above the active configuration's closed-form bound (Theorem 12 on
  the tree topology) and step in the bound's direction after each change;
* **availability dips only during migration** — in a fault-free run every
  recorded downtime interval lies inside a migration window or a state
  transfer.

Set ``REPRO_BENCH_TINY=1`` to run the same gates on a small instance (CI
smoke: the gate *code* always executes, so the checks cannot silently rot
out of the pipeline).
"""

from __future__ import annotations

import math
import os

from conftest import run_once
from etables import (
    E17_ACCEPTANCE,
    E17_SWEEP_DURATION,
    churn_acceptance_line,
    churn_acceptance_run,
)

from repro.analysis import ReconfigurationRow, exp_reconfiguration, render_rows

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
ACCEPTANCE = E17_ACCEPTANCE if TINY else dict(
    size=64, joins=8, leaves=4, duration=400.0, rate=0.8)
SWEEP_DURATION = E17_SWEEP_DURATION if TINY else 300.0


def test_e17_reconfiguration_sweep(benchmark):
    """Churn rate × topology → metadata step, reconfig latency, availability.

    Expected shape: on the tree topology (leaf-attach churn) the
    closed-form bound applies at *every* epoch and the measured timestamp
    bytes per message step with it; windows and transfers have non-zero
    spans under churn; every cell stays causally consistent across epochs
    on both architectures.
    """
    rows = run_once(benchmark, exp_reconfiguration, duration=SWEEP_DURATION)
    print()
    print("[E17] Reconfiguration sweep (churn x topology, both architectures)")
    print(render_rows(ReconfigurationRow, rows))
    assert all(row.consistent for row in rows)
    assert {row.architecture for row in rows} == {"peer-to-peer", "client-server"}
    # The no-churn cells are the control: one epoch, full availability.
    control = [row for row in rows if row.churn == "none"]
    assert all(row.reconfigs == 0 and row.availability_min == 1.0 for row in control)
    churned = [row for row in rows if row.churn != "none"]
    assert any(row.reconfigs > 0 for row in churned)
    assert any(row.transfer_mean > 0 for row in churned)
    # Where a closed form applies and traffic flowed, measured timestamp
    # bytes per message sit above the bound.
    for row in rows:
        if row.messages and not math.isnan(row.bound_bytes_per_message):
            assert row.ts_bytes_per_message >= row.bound_bytes_per_message
    # Metadata step-change on the growing tree: the final epoch's graph
    # indexes more edges than the initial one, and both the bound and the
    # measured bytes/message move in that direction.
    tree_join_rows = sorted(
        (r for r in rows
         if r.topology == "tree9" and r.churn == "j2"
         and r.architecture == "peer-to-peer"),
        key=lambda r: r.epoch,
    )
    if len(tree_join_rows) > 1:
        first, last = tree_join_rows[0], tree_join_rows[-1]
        assert last.mean_edges >= first.mean_edges
        if first.messages and last.messages:
            assert last.ts_bytes_per_message > first.ts_bytes_per_message


def test_e17_acceptance_64_replica_churn(benchmark):
    """8 joins + 4 leaves on the 64-replica tree, both architectures.

    Gates: the epoch-aware checker passes, every epoch change committed,
    and — fault-free — every recorded downtime interval lies inside a
    migration window or a state transfer (availability dips only during
    migration).
    """
    def both():
        return {
            architecture: churn_acceptance_run(architecture, **ACCEPTANCE)
            for architecture in ("peer-to-peer", "client-server")
        }

    runs = run_once(benchmark, both)
    print()
    changes = ACCEPTANCE["joins"] + ACCEPTANCE["leaves"]
    for architecture, (host, manager, result) in runs.items():
        print(churn_acceptance_line(architecture, host, result))
        assert result.consistent
        assert host.metrics.reconfigs == changes
        assert host.epoch == changes
        # Availability dips only inside migration windows / transfers.
        covered = list(host.metrics.migration_windows)
        for record in host.metrics.reconfig_timeline:
            if record.kind == "transfer-start":
                covered.append((record.time, float("inf")))
        for replica_id, intervals in host.metrics.downtime.items():
            for down_at, up_at in intervals:
                assert any(
                    start <= down_at and up_at <= end if end != float("inf")
                    else start <= down_at
                    for start, end in covered
                ), f"downtime {down_at}-{up_at} at {replica_id} outside windows"
