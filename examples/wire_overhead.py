"""Bytes on the wire: codecs, per-channel delta frames and batching windows.

Walks the wire-format layer end to end on the Figure 5 system:

1. one update message serialized by hand — the header/timestamp/payload
   byte split, and the exact ``encode ∘ decode = id`` round trip;
2. the same workload with and without the batching transport — fewer,
   larger envelopes, per-channel delta frames, and the per-channel byte
   table from the byte-accurate network statistics;
3. the E16 comparison: measured timestamp bytes vs. the paper's
   counter-based metadata measure vs. the closed-form lower bound.

Run with::

    PYTHONPATH=src python examples/wire_overhead.py
"""

from __future__ import annotations

from repro import ShareGraph, figure5_placement
from repro.analysis import render_rows
from repro.analysis.experiments import (
    WireOverheadRow,
    exp_wire_overhead,
    render_wire_channels,
)
from repro.core.protocol import UpdateMessage
from repro.sim import BatchingConfig, UniformDelay
from repro.sim.cluster import Cluster
from repro.sim.topologies import ring_placement
from repro.sim.workloads import run_workload, uniform_workload


def one_message_anatomy() -> None:
    print("=== Anatomy of one update message on the wire ===")
    graph = ShareGraph.from_placement(figure5_placement())
    cluster = Cluster(graph, seed=1)
    messages = cluster.replica(4).write("z", "hello-wire")
    message = messages[0]
    data = message.to_wire()
    sizes = message.encoded_size()
    print(f"message: {message}")
    print(f"encoded: {len(data)} bytes = {sizes.header_bytes} header "
          f"+ {sizes.timestamp_bytes} timestamp + {sizes.payload_bytes} payload")
    decoded = UpdateMessage.from_wire(data)
    assert decoded == message
    print("round trip: decode(encode(message)) == message")
    print()


def batching_and_delta_frames() -> None:
    print("=== Batching windows and per-channel delta frames (ring6) ===")
    graph = ShareGraph.from_placement(ring_placement(6))
    workload = uniform_workload(graph, 150, seed=21)

    plain = Cluster(graph, delay_model=UniformDelay(1, 10), seed=21,
                    wire_accounting=True)
    plain_result = run_workload(plain, workload)
    batched = Cluster(graph, delay_model=UniformDelay(1, 10), seed=21,
                      batching=BatchingConfig(max_messages=8, max_delay=4.0))
    batched_result = run_workload(batched, workload)

    for name, cluster, result in (
        ("unbatched", plain, plain_result),
        ("batched", batched, batched_result),
    ):
        stats = cluster.network.stats
        print(f"{name:>10}: {stats.messages_sent} msgs in "
              f"{stats.batches_sent or stats.messages_sent} envelopes, "
              f"{stats.bytes_sent} bytes "
              f"({stats.header_bytes_sent} hdr / {stats.timestamp_bytes_sent} ts / "
              f"{stats.payload_bytes_sent} payload), "
              f"delta frames {stats.delta_frames_sent}, "
              f"consistency {'OK' if result.consistent else 'VIOLATED'}")
    saved = 1 - (batched.network.stats.bytes_sent / plain.network.stats.bytes_sent)
    delta_saved = batched.network.stats.timestamp_delta_savings
    print(f"batching + delta encoding saved {100 * saved:.0f}% of total bytes "
          f"({100 * delta_saved:.0f}% of timestamp bytes vs full encoding)")
    print()
    print("per-channel bytes (batched run):")
    print(render_wire_channels(batched.network.stats))
    print()


def e16_table() -> None:
    print("=== E16: topology x protocol family x batching window ===")
    rows = exp_wire_overhead(ops=100, windows=(None, (8, 4.0)))
    print(render_rows(WireOverheadRow, rows))
    assert all(row.consistent for row in rows)
    print()
    print("Reading the table: 'ts B' is measured timestamp bytes (delta frames")
    print("on in windowed cells); 'ctrs sent' is the paper's counter measure")
    print("(E7); 'bound B/msg' converts the closed-form Theorem-15 lower bound")
    print("to bytes per message where one applies (trees, cycles, cliques).")


def main() -> None:
    one_message_anatomy()
    batching_and_delta_frames()
    e16_table()
    print()
    print("All wire-layer runs passed the consistency checker.")


if __name__ == "__main__":
    main()
