"""E12 — The client–server architecture (Section 6 / Appendix E).

Computes the augmented timestamp graphs for a chain of servers accessed by
roaming clients and runs a simulated client–server workload.  Expected shape:
client links add loop edges the peer-to-peer deployment did not need (the
end-of-chain servers grow from 2 to 6 counters), client timestamps index the
union of their servers' edge sets, and the execution is causally consistent
under the ↪' relation.
"""

from __future__ import annotations

from conftest import run_once
from etables import E12_SEED

from repro.analysis import (
    OpenLoopRow,
    exp_client_server,
    exp_open_loop,
    render_client_server,
    render_rows,
)


def test_e14_open_loop_both_architectures(benchmark):
    """Open-loop Poisson/bursty traffic on both architectures (E14).

    Expected shape: the same arrival schedule drains consistently on the
    peer-to-peer and the client–server deployment, with bursty traffic
    showing deeper peak pending buffers than Poisson at the same mean rate.
    """
    rows = run_once(benchmark, exp_open_loop)
    print()
    print("[E14] Open-loop workloads (Figure 5 graph, both architectures)")
    print(render_rows(OpenLoopRow, rows))
    assert all(row.consistent for row in rows)
    assert {row.architecture for row in rows} == {"peer-to-peer", "client-server"}
    for row in rows:
        assert row.makespan >= 0
        assert row.apply_p99 >= row.apply_p50


def test_e12_client_server_architecture(benchmark):
    """Augmented metadata + a consistent simulated client–server run."""
    result = run_once(benchmark, exp_client_server, E12_SEED)
    print()
    print("[E12] Client–server architecture (Figure 3 chain + roaming clients)")
    print(render_client_server(result))
    assert result.consistent
    for rid, p2p in result.peer_to_peer_edge_counts.items():
        assert result.server_edge_counts[rid] >= p2p
    # The roaming client closes a cycle: the end servers now track more edges.
    assert result.server_edge_counts[1] > result.peer_to_peer_edge_counts[1]
    assert result.server_edge_counts[4] > result.peer_to_peer_edge_counts[4]
