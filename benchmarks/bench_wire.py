"""E16 — The wire layer: batching throughput, delta-encoded bytes, codecs.

Gates the two headline claims of the wire-format layer on the 64-replica
clique backlog (the same configuration as E13's apply-path gate):

* **throughput** — delivered ops/sec with per-channel batching on must be
  ≥1.5× batching off (both sides run full byte accounting: the off side
  encodes every message as a standalone self-describing envelope, the on
  side encodes flushed batches with per-channel delta frames);
* **bytes** — delta encoding must shrink steady-state timestamp bytes well
  below the full-encoding counterfactual measured on the same run.

Also prints the E16 sweep table (topology × protocol family × batching
window) and records the ``__slots__`` allocation note for the hot-path
message classes.

Set ``REPRO_BENCH_TINY=1`` to run the same gates on a small instance (CI
smoke: the gate *code* always executes, so the perf checks cannot silently
rot out of the pipeline).
"""

from __future__ import annotations

import os
import sys
import time

from conftest import write_bench_json
from etables import (
    E16_BATCHING,
    E16_CLIQUE_SIZE,
    E16_CONSISTENCY_OPS,
    E16_OPS,
    E16_TABLE_OPS,
    batched_consistency_runs,
    clique_backlog_run,
    delta_bytes_line,
)

from repro.core.protocol import Update, UpdateMessage
from repro.core.timestamps import VectorTimestamp
from repro.sim.engine import DeliveryEvent, Firing, TimerEvent

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
CLIQUE_SIZE = E16_CLIQUE_SIZE if TINY else 64
OPS = E16_OPS if TINY else 600

#: The acceptance floor is 1.5x; shared CI runners get a noise-tolerant
#: floor (scheduler preemptions during multi-second drains), and the tiny
#: smoke instance only proves the gate machinery runs.
if TINY:
    SPEEDUP_FLOOR = 1.0
elif os.environ.get("GITHUB_ACTIONS"):
    SPEEDUP_FLOOR = 1.2
else:
    SPEEDUP_FLOOR = 1.5


def _clique_run(batching):
    """One clique backlog run at this module's size; (cluster, seconds)."""
    return clique_backlog_run(batching, CLIQUE_SIZE, OPS)


def test_e16_batching_throughput_clique(benchmark):
    """Acceptance: ≥1.5× delivered-ops/sec with batching on the clique backlog."""

    def compare():
        on, on_s = _clique_run(E16_BATCHING)
        off, off_s = _clique_run(None)
        assert on.metrics.applies == off.metrics.applies > 0
        return {
            "applies": on.metrics.applies,
            "on_ops": on.metrics.applies / on_s,
            "off_ops": off.metrics.applies / off_s,
            "on_bytes": on.network.stats.bytes_sent,
            "off_bytes": off.network.stats.bytes_sent,
            "batches": on.network.stats.batches_sent,
        }

    result = benchmark.pedantic(compare, rounds=1, iterations=1)
    speedup = result["on_ops"] / result["off_ops"]
    print()
    print(
        f"[E16] clique{CLIQUE_SIZE} backlog ({result['applies']} applies): "
        f"batching off {result['off_ops']:,.0f} ops/s, "
        f"on {result['on_ops']:,.0f} ops/s ({result['batches']} batches) "
        f"-> {speedup:.2f}x; bytes {result['off_bytes']:,} -> {result['on_bytes']:,}"
    )
    write_bench_json(
        "wire_batching",
        metric="batched_ops_speedup",
        value=speedup,
        threshold=SPEEDUP_FLOOR,
        on_ops_per_sec=result["on_ops"],
        off_ops_per_sec=result["off_ops"],
        on_bytes=result["on_bytes"],
        off_bytes=result["off_bytes"],
        clique=CLIQUE_SIZE,
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"batching must deliver >={SPEEDUP_FLOOR}x ops/sec on the clique "
        f"backlog, got {speedup:.2f}x"
    )


def test_e16_delta_encoding_shrinks_steady_state_bytes(benchmark):
    """Acceptance: delta frames beat full encoding on steady-state timestamp bytes."""

    def run():
        cluster, _ = _clique_run(E16_BATCHING)
        return cluster.network.stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(delta_bytes_line(stats))
    assert stats.delta_frames_sent > 0
    assert stats.timestamp_bytes_sent < 0.7 * stats.timestamp_bytes_full, (
        "steady-state delta encoding should save well over 30% of timestamp "
        f"bytes, saved only {100 * stats.timestamp_delta_savings:.1f}%"
    )


def test_e16_batching_preserves_consistency_both_architectures(benchmark):
    """The checker must pass with batching on, on both deployments."""
    ops = E16_CONSISTENCY_OPS if TINY else 200
    p2p_result, cs_result = benchmark.pedantic(
        batched_consistency_runs, args=(ops,), rounds=1, iterations=1)
    print()
    print(f"[E16] batched peer-to-peer: {p2p_result.summary()}")
    print(f"[E16] batched client-server: {cs_result.summary()}")
    assert p2p_result.consistent, "peer-to-peer consistency under batching"
    assert cs_result.consistent, "client-server consistency under batching"


# ----------------------------------------------------------------------
# Satellite: the __slots__ allocation note for hot-path message classes
# ----------------------------------------------------------------------

def test_slots_message_allocation_note(benchmark):
    """Hot-path message/event classes are slotted; record the allocation win."""
    for cls, args in (
        (Update, (1, 1, "x", "v")),
        (UpdateMessage, (Update(1, 1, "x", "v"), 1, 2, None, 0)),
        (DeliveryEvent, ((), ())),
        (TimerEvent, (lambda host, t: None,)),
        (Firing, (0.0, None)),
    ):
        instance = cls(*args)
        assert not hasattr(instance, "__dict__"), f"{cls.__name__} must be slotted"

    vector = VectorTimestamp.zero(range(8))
    update = Update(1, 1, "x", "v")

    def allocate(n: int = 20_000):
        return [
            UpdateMessage(update, 1, 2, vector, 8) for _ in range(n)
        ]

    started = time.perf_counter()
    messages = allocate()
    elapsed = time.perf_counter() - started
    per_message = sys.getsizeof(messages[0])
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print()
    print(
        f"[E16] __slots__ note: UpdateMessage instance is {per_message} bytes "
        f"(no __dict__), {len(messages)} allocations in {elapsed * 1000:.1f} ms "
        f"({elapsed / len(messages) * 1e9:.0f} ns each)"
    )


# ----------------------------------------------------------------------
# The E16 sweep table (topology × protocol family × batching window)
# ----------------------------------------------------------------------

def test_e16_wire_overhead_table(benchmark):
    """Regenerate and print the E16 sweep recorded in EXPERIMENTS.md."""
    from repro.analysis import render_rows
    from repro.analysis.experiments import WireOverheadRow, exp_wire_overhead

    ops = E16_TABLE_OPS if TINY else 150
    rows = benchmark.pedantic(
        exp_wire_overhead, kwargs={"ops": ops}, rounds=1, iterations=1
    )
    print()
    print(render_rows(WireOverheadRow, rows))
    assert all(row.consistent for row in rows), "every E16 cell must stay consistent"
    windowed = [row for row in rows if row.window != "off"]
    assert windowed and all(
        row.timestamp_bytes <= row.timestamp_bytes_full for row in windowed
    )
