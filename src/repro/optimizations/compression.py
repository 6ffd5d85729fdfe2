"""Timestamp compression by exploiting dependent edge counters (Appendix D).

The counters of replica ``i``'s timestamp are not independent: for a fixed
issuer ``j``, the count on edge ``e_jk`` is the number of updates ``j``
issued on registers in ``X_jk``, so it is a fixed 0/1 linear combination of
``j``'s per-register update counts.  If one tracked edge's register set is the
union of others' (the paper's ``X_j4 = {x, y, z}`` example), its counter is
redundant.

The best-case compressed size for issuer ``j`` is therefore the *rank* of the
incidence matrix between ``j``'s tracked outgoing edges and the registers
labelling them — the paper's ``I(E_i, j)`` (the maximum number of independent
outgoing edges).  Summing over issuers gives the compressed timestamp length
``I(E_i) = Σ_j I(E_i, j)``, against the uncompressed ``|E_i|``.

Compression is exact only when the counters are *consistent* (the replica has
seen matching information on all of them); the paper notes that stale
counters may temporarily prevent compression, so these numbers are best-case
— which is how experiment E8 reports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..core.registers import Register, ReplicaId
from ..core.share_graph import Edge, ShareGraph
from ..core.timestamp_graph import TimestampGraph, build_all_timestamp_graphs
from ..core.timestamps import EdgeTimestamp

if TYPE_CHECKING:
    import numpy as np


def _incidence_matrix(
    graph: ShareGraph, edges: Sequence[Edge]
) -> Tuple[np.ndarray, List[Register]]:
    """0/1 matrix whose rows are edges and columns the registers labelling them."""
    import numpy as np

    registers = sorted({r for e in edges for r in graph.edge_registers(e)})
    matrix = np.zeros((len(edges), len(registers)), dtype=float)
    column = {register: idx for idx, register in enumerate(registers)}
    for row, e in enumerate(edges):
        for register in graph.edge_registers(e):
            matrix[row, column[register]] = 1.0
    return matrix, registers


def independent_edge_count(
    graph: ShareGraph, tgraph: TimestampGraph, issuer: ReplicaId
) -> int:
    """``I(E_i, j)``: independent tracked outgoing edges of ``issuer`` in ``E_i``."""
    edges = sorted(tgraph.outgoing_edges_of(issuer))
    if not edges:
        return 0
    import numpy as np

    matrix, _ = _incidence_matrix(graph, edges)
    return int(np.linalg.matrix_rank(matrix))


def compressed_counters(graph: ShareGraph, tgraph: TimestampGraph) -> int:
    """``I(E_i) = Σ_j I(E_i, j)``: best-case compressed timestamp length."""
    issuers = {e[0] for e in tgraph.edges}
    return sum(independent_edge_count(graph, tgraph, j) for j in sorted(issuers))


@dataclass(frozen=True)
class CompressionReport:
    """Per-replica uncompressed vs. compressed timestamp lengths."""

    uncompressed: Mapping[ReplicaId, int]
    compressed: Mapping[ReplicaId, int]

    def savings(self, replica_id: ReplicaId) -> int:
        """Counters saved at one replica."""
        return self.uncompressed[replica_id] - self.compressed[replica_id]

    @property
    def total_uncompressed(self) -> int:
        """System-wide uncompressed counters."""
        return sum(self.uncompressed.values())

    @property
    def total_compressed(self) -> int:
        """System-wide best-case compressed counters."""
        return sum(self.compressed.values())

    @property
    def compression_ratio(self) -> float:
        """``compressed / uncompressed`` (1.0 = nothing saved)."""
        if self.total_uncompressed == 0:
            return 1.0
        return self.total_compressed / self.total_uncompressed

    def rows(self) -> List[Tuple[ReplicaId, int, int]]:
        """``(replica, uncompressed, compressed)`` rows, sorted by replica."""
        return [
            (rid, self.uncompressed[rid], self.compressed[rid])
            for rid in sorted(self.uncompressed)
        ]


def compression_report(graph: ShareGraph) -> CompressionReport:
    """Compute the compression table for every replica of a share graph."""
    tgraphs = build_all_timestamp_graphs(graph)
    uncompressed = {rid: tg.num_counters for rid, tg in tgraphs.items()}
    compressed = {
        rid: compressed_counters(graph, tg) for rid, tg in tgraphs.items()
    }
    return CompressionReport(uncompressed=uncompressed, compressed=compressed)


def compress_timestamp(
    graph: ShareGraph,
    tgraph: TimestampGraph,
    timestamp: EdgeTimestamp,
) -> Tuple[Dict[Edge, int], Dict[Edge, Tuple[Edge, ...]]]:
    """Split a concrete timestamp into kept counters and reconstructible ones.

    Returns ``(kept, derived)`` where ``kept`` maps a maximal independent set
    of edges (per issuer, chosen greedily in sorted order) to their counter
    values, and ``derived`` maps every dropped edge to the tuple of kept
    edges whose register sets cover it.  When the dropped edge's counter is
    consistent it can be recomputed from per-register counts implied by the
    kept ones; when it is not (stale counters), the paper notes compression
    must be skipped — callers can compare against ``timestamp`` to detect
    that.
    """
    import numpy as np

    kept: Dict[Edge, int] = {}
    derived: Dict[Edge, Tuple[Edge, ...]] = {}
    issuers = sorted({e[0] for e in tgraph.edges})
    for issuer in issuers:
        edges = sorted(tgraph.outgoing_edges_of(issuer))
        if not edges:
            continue
        matrix, _ = _incidence_matrix(graph, edges)
        chosen: List[int] = []
        chosen_rows: List[np.ndarray] = []
        current_rank = 0
        for row_index in range(len(edges)):
            candidate = chosen_rows + [matrix[row_index]]
            rank = int(np.linalg.matrix_rank(np.vstack(candidate)))
            if rank > current_rank:
                chosen.append(row_index)
                chosen_rows.append(matrix[row_index])
                current_rank = rank
        chosen_edges = [edges[r] for r in chosen]
        for e in chosen_edges:
            kept[e] = timestamp.get(e)
        for row_index, e in enumerate(edges):
            if e in kept:
                continue
            derived[e] = tuple(chosen_edges)
    return kept, derived
