"""E7 — Metadata overhead: the paper's algorithm vs. every baseline.

Replays identical workloads against the edge-indexed algorithm,
track-all-edges, Full-Track matrix clocks, full-replication vector clocks and
Hélary–Milani hoop tracking across the topology suite, reporting counters
held, counters shipped, messages and storage.  The expected shape: the
paper's algorithm never carries more counters than the other
partial-replication protocols, and full replication trades small vectors for
full storage and broadcast traffic.
"""

from __future__ import annotations

from conftest import run_once
from etables import E7_METADATA

from repro.analysis import exp_metadata_overhead, render_rows
from repro.sim.metrics import ComparisonRow


def test_e7_metadata_overhead_comparison(benchmark):
    """The per-protocol, per-topology metadata/traffic table."""
    rows = run_once(benchmark, exp_metadata_overhead, **E7_METADATA)
    print()
    print("[E7] Metadata overhead across protocols and topologies")
    print(render_rows(ComparisonRow, rows))

    # No safe protocol may violate consistency.
    for row in rows:
        assert row.safety_violations == 0
        assert row.liveness_violations == 0

    # The paper's algorithm never holds more counters than the conservative
    # partial-replication baselines on the same topology.
    by_topology = {}
    for row in rows:
        by_topology.setdefault(row.topology, {})[row.protocol] = row
    for topology, protocols in by_topology.items():
        paper = protocols["edge-indexed (paper)"]
        assert paper.max_counters <= protocols["all share-graph edges"].max_counters
        assert paper.max_counters <= protocols["full-track matrix"].max_counters
        # Full replication stores every register everywhere: more storage
        # whenever the placement is genuinely partial.
        full = protocols["full replication (vector)"]
        assert full.messages_sent >= paper.messages_sent
