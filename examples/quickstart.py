#!/usr/bin/env python3
"""Quickstart: a partially replicated, causally consistent shared memory.

Builds the paper's Figure 5 system (four replicas, partially overlapping
register sets), runs the edge-indexed timestamp algorithm over a simulated
asynchronous network, shows the timestamp graphs (the per-replica metadata),
performs a few causally related writes, and verifies with the independent
checker that the execution is causally consistent.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import Cluster, ShareGraph, figure5_placement
from repro.analysis import edge_label, render_table
from repro.core.timestamp_graph import build_all_timestamp_graphs
from repro.sim.delays import UniformDelay


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Describe the placement: which replica stores which registers.
    # ------------------------------------------------------------------
    placement = figure5_placement()
    graph = ShareGraph.from_placement(placement)
    print("Register placement (the paper's Figure 5 example)")
    print(placement.describe())
    print()
    print("Derived share graph")
    print(graph.describe())
    print()

    # ------------------------------------------------------------------
    # 2. The metadata each replica must keep: its timestamp graph E_i.
    # ------------------------------------------------------------------
    tgraphs = build_all_timestamp_graphs(graph)
    rows = [
        (rid, tg.num_counters, ", ".join(edge_label(e) for e in sorted(tg.edges)))
        for rid, tg in sorted(tgraphs.items())
    ]
    print("Timestamp graphs (one integer counter per edge)")
    print(render_table(["replica", "counters", "tracked edges"], rows))
    print()
    print("Note e_43 is tracked by replica 1 while e_34 is not — exactly the")
    print("asymmetry the paper highlights in Figure 5(b).")
    print()

    # ------------------------------------------------------------------
    # 3. Run the protocol over an asynchronous (non-FIFO) network.
    # ------------------------------------------------------------------
    cluster = Cluster(graph, delay_model=UniformDelay(1, 10), seed=7)

    # A small causal chain: replica 4 posts, replica 1 reacts, replica 2 relays.
    cluster.write(4, "w", "photo uploaded by replica 4")
    cluster.run_until_quiescent()
    print("replica 1 reads w:", cluster.read(1, "w"))

    cluster.write(1, "y", "replica 1 comments on the photo")
    cluster.run_until_quiescent()
    print("replica 2 reads y:", cluster.read(2, "y"))

    cluster.write(2, "x", "replica 2 shares the comment")
    cluster.run_until_quiescent()
    print("replica 3 reads x:", cluster.read(3, "x"))
    print()

    # ------------------------------------------------------------------
    # 4. Verify causal consistency with the independent checker.
    # ------------------------------------------------------------------
    report = cluster.check_consistency()
    print("Checker verdict:", report.summary())
    assert report.is_causally_consistent
    print()
    print("Messages sent:", cluster.network.stats.messages_sent)
    print("Metadata counters shipped:", cluster.total_metadata_counters_sent())
    print("Per-replica metadata (counters):", cluster.metadata_sizes())


if __name__ == "__main__":
    main()
