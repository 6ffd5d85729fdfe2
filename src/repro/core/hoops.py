"""Hélary–Milani hoops and the paper's correction (Section 3.2, Appendix A).

Hélary and Milani [15, 28] characterised the metadata needed for causally
consistent partial replication in terms of *minimal x-hoops*:

* an **x-hoop** between two replicas ``ra, rb ∈ C(x)`` (the replicas storing
  ``x``) is a share-graph path ``ra = r_0, r_1, ..., r_k = rb`` whose
  internal vertices do not store ``x`` and whose consecutive pairs each share
  some register different from ``x`` (Definitions 9/17);
* the hoop is **minimal** (original Definition 10/18) if its edges can be
  labelled with pairwise distinct registers none of which is shared by both
  ``ra`` and ``rb``;
* the **modified** notion considered in Appendix A (Definition 20) instead
  requires that no chosen label is stored by more than two replicas of the
  hoop.

Their Lemma 11/19 claims a replica must transmit information about ``x`` iff
it stores ``x`` or belongs to a minimal x-hoop.  The paper shows this is not
accurate: on counterexample 1 (Figure 6/8a) the original definition demands
tracking that Theorem 8 proves unnecessary, and on counterexample 2
(Figure 8b) the modified definition waives tracking that Theorem 8 proves
necessary.  This module implements both notions so the discrepancy can be
recomputed mechanically (experiments E2/E3).

The hoop criterion is also runnable as a protocol: the
:class:`~repro.baselines.hoop_tracking.HoopTrackingReplica` baseline plugs
:func:`hoop_tracked_edges` into the edge-indexed timestamp machinery via
:meth:`~repro.core.timestamp_graph.TimestampGraph.from_edges`.  It therefore
rides the same indexed pending-buffer apply path as the paper's algorithm
(``blocking_key`` wake keys, not the seed implementation's full rescan of
the pending buffer after every apply) — the two baselines differ only in
which edge set they index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .registers import Register, ReplicaId
from .share_graph import Edge, ShareGraph


@dataclass(frozen=True)
class Hoop:
    """An x-hoop: a path between two replicas storing ``x`` avoiding ``C(x)``.

    Attributes
    ----------
    register:
        The register ``x`` the hoop is about.
    path:
        The replica path ``(ra = r_0, ..., r_k = rb)``.
    """

    register: Register
    path: Tuple[ReplicaId, ...]

    @property
    def endpoints(self) -> Tuple[ReplicaId, ReplicaId]:
        """``(ra, rb)``."""
        return (self.path[0], self.path[-1])

    @property
    def internal(self) -> Tuple[ReplicaId, ...]:
        """The internal vertices ``r_1 .. r_{k-1}``."""
        return self.path[1:-1]

    @property
    def edges(self) -> Tuple[Tuple[ReplicaId, ReplicaId], ...]:
        """The consecutive pairs of the path."""
        return tuple(zip(self.path[:-1], self.path[1:]))

    def __len__(self) -> int:
        return len(self.path)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        chain = " - ".join(str(r) for r in self.path)
        return f"{self.register}-hoop: {chain}"


# ----------------------------------------------------------------------
# Hoop enumeration
# ----------------------------------------------------------------------

def iter_hoops(
    graph: ShareGraph,
    register: Register,
    max_length: Optional[int] = None,
) -> Iterator[Hoop]:
    """Enumerate every x-hoop of the share graph for ``register``.

    Hoops are yielded once per unordered endpoint pair and path (the reversed
    path is not repeated).
    """
    import networkx as nx

    owners = set(graph.replicas_storing(register))
    undirected = graph.to_networkx(directed=False)
    cutoff = max_length - 1 if max_length is not None else None
    for ra, rb in combinations(sorted(owners), 2):
        # Internal vertices must avoid every replica that stores the register.
        allowed = (set(graph.replica_ids) - owners) | {ra, rb}
        sub = undirected.subgraph(allowed)
        if ra not in sub or rb not in sub:
            continue
        for path in nx.all_simple_paths(sub, ra, rb, cutoff=cutoff):
            if len(path) < 2:
                continue
            if _is_hoop_path(graph, register, path):
                yield Hoop(register=register, path=tuple(path))


def _is_hoop_path(graph: ShareGraph, register: Register,
                  path: Sequence[ReplicaId]) -> bool:
    """Check conditions (i)–(ii) of the hoop definition for a candidate path."""
    owners = set(graph.replicas_storing(register))
    for internal in path[1:-1]:
        if internal in owners:
            return False
    for a, b in zip(path[:-1], path[1:]):
        labels = graph.shared_registers(a, b) - {register}
        if not labels:
            return False
    return True


# ----------------------------------------------------------------------
# Minimality (original and modified definitions)
# ----------------------------------------------------------------------

def _distinct_labelling_exists(
    edge_label_sets: Sequence[FrozenSet[Register]],
) -> bool:
    """Does a system of distinct representatives exist for the edge label sets?

    Solved as bipartite maximum matching between edges and registers.
    """
    if any(not labels for labels in edge_label_sets):
        return False
    import networkx as nx

    bipartite = nx.Graph()
    edge_nodes = [("edge", idx) for idx in range(len(edge_label_sets))]
    for idx, labels in enumerate(edge_label_sets):
        for label in labels:
            bipartite.add_edge(("edge", idx), ("reg", label))
    matching = nx.bipartite.maximum_matching(bipartite, top_nodes=edge_nodes)
    matched_edges = sum(1 for node in matching if node[0] == "edge")
    return matched_edges == len(edge_label_sets)


def is_minimal_hoop(
    graph: ShareGraph,
    hoop: Hoop,
    modified: bool = False,
) -> bool:
    """Is the hoop minimal, under the original or the modified definition?

    Parameters
    ----------
    modified:
        ``False`` (default) applies the original Definition 10/18 — labels
        must be pairwise distinct and no label may be shared by both hoop
        endpoints.  ``True`` applies the Appendix-A modification
        (Definition 20) — labels must be pairwise distinct and no label may
        be stored by more than two replicas of the hoop.
    """
    ra, rb = hoop.endpoints
    x = hoop.register
    hoop_vertices = set(hoop.path)
    forbidden_shared = graph.registers_at(ra) & graph.registers_at(rb)

    label_sets: List[FrozenSet[Register]] = []
    for a, b in hoop.edges:
        candidates = set(graph.shared_registers(a, b)) - {x}
        if modified:
            candidates = {
                r
                for r in candidates
                if sum(1 for v in hoop_vertices if r in graph.registers_at(v)) <= 2
            }
        else:
            candidates -= forbidden_shared
        label_sets.append(frozenset(candidates))
    return _distinct_labelling_exists(label_sets)


def minimal_hoops(
    graph: ShareGraph,
    register: Register,
    modified: bool = False,
    max_length: Optional[int] = None,
) -> List[Hoop]:
    """All minimal x-hoops of the share graph for ``register``."""
    return [
        hoop
        for hoop in iter_hoops(graph, register, max_length=max_length)
        if is_minimal_hoop(graph, hoop, modified=modified)
    ]


# ----------------------------------------------------------------------
# The Hélary–Milani tracking requirement
# ----------------------------------------------------------------------

def must_transmit(
    graph: ShareGraph,
    replica_id: ReplicaId,
    register: Register,
    modified: bool = False,
) -> bool:
    """Hélary–Milani's Lemma 11/19 criterion for one replica and register.

    ``True`` iff the replica stores the register or belongs to some minimal
    x-hoop (under the chosen minimality definition).  The paper shows this
    criterion is not the right one; compare against
    :func:`repro.core.timestamp_graph.timestamp_edges`.
    """
    if graph.placement.stores_register(replica_id, register):
        return True
    for hoop in iter_hoops(graph, register):
        if replica_id in hoop.path and is_minimal_hoop(graph, hoop, modified=modified):
            return True
    return False


def hoop_tracked_registers(
    graph: ShareGraph,
    replica_id: ReplicaId,
    modified: bool = False,
) -> FrozenSet[Register]:
    """Every register the Hélary–Milani criterion asks ``replica_id`` to track."""
    return frozenset(
        register
        for register in graph.placement.registers
        if must_transmit(graph, replica_id, register, modified=modified)
    )


def hoop_tracked_edges(
    graph: ShareGraph,
    replica_id: ReplicaId,
    modified: bool = False,
) -> FrozenSet[Edge]:
    """Translate the Hélary–Milani criterion into a directed-edge set.

    If replica ``i`` must track register ``x`` (because it stores ``x`` or
    lies on a minimal x-hoop), the edge-level reading used throughout the
    paper's Section 3.2 discussion is that ``i`` must track updates on every
    share-graph edge ``e_jk`` whose label set contains ``x``.  This function
    returns that edge set so it can be compared head-to-head with the
    timestamp graph ``E_i`` of Definition 5 (experiments E2/E3).
    """
    tracked = hoop_tracked_registers(graph, replica_id, modified=modified)
    edges: Set[Edge] = set()
    for e in graph.edges:
        if graph.edge_registers(e) & tracked:
            edges.add(e)
    return frozenset(edges)


@dataclass(frozen=True)
class HoopComparison:
    """Head-to-head comparison of Theorem 8 against the Hélary–Milani criterion.

    Attributes
    ----------
    replica_id:
        The observer replica ``i``.
    theorem8_edges:
        The timestamp-graph edge set ``E_i`` (necessary and sufficient).
    hoop_edges:
        The edges the hoop criterion (original or modified) would track.
    only_hoop:
        Edges demanded by the hoop criterion but proven unnecessary by
        Theorem 8 (non-empty on counterexample 1 with the original
        definition).
    only_theorem8:
        Edges required by Theorem 8 but waived by the hoop criterion
        (non-empty on counterexample 2 with the modified definition —
        i.e. the modified criterion is unsafe).
    """

    replica_id: ReplicaId
    theorem8_edges: FrozenSet[Edge]
    hoop_edges: FrozenSet[Edge]

    @property
    def only_hoop(self) -> FrozenSet[Edge]:
        return self.hoop_edges - self.theorem8_edges

    @property
    def only_theorem8(self) -> FrozenSet[Edge]:
        return self.theorem8_edges - self.hoop_edges


def compare_with_theorem8(
    graph: ShareGraph,
    replica_id: ReplicaId,
    modified: bool = False,
) -> HoopComparison:
    """Build the comparison record for one replica (experiments E2/E3)."""
    from .timestamp_graph import timestamp_edges

    return HoopComparison(
        replica_id=replica_id,
        theorem8_edges=timestamp_edges(graph, replica_id),
        hoop_edges=hoop_tracked_edges(graph, replica_id, modified=modified),
    )
