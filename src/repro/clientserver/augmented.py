"""Augmented share graphs, loops and timestamp graphs (Section 6, Appendix E).

In the client–server architecture (Figure 1b) a client may access several
replicas, and by doing so it propagates causal dependencies between replicas
that share no register.  The *augmented share graph* ``Ĝ`` adds a pair of
directed edges between every two replicas some client can access
(Definition 16); the ``(i, e_jk)``-loop conditions are relaxed so that a
client link can stand in for a shared register on the r-side of the loop
(Definition 27); and the *augmented timestamp graph* ``Ĝ_i`` collects the
edges replica ``i`` must track — intersected with the real share-graph edge
set ``E``, because only real edges ever carry updates (Definition 28).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.errors import ConfigurationError, UnknownReplicaError
from ..core.loops import decide_loop_edges
from ..core.registers import Register, ReplicaId
from ..core.share_graph import Edge, ShareGraph, adjacency_of, simple_cycles

#: Client identifiers are strings (e.g. ``"c1"``) to keep them visually
#: distinct from integer replica ids.
ClientId = str


@dataclass(frozen=True)
class ClientAssignment:
    """Which replicas each client may access (the sets ``R_c``)."""

    replica_sets: Mapping[ClientId, FrozenSet[ReplicaId]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {
            str(cid): frozenset(int(r) for r in rids)
            for cid, rids in dict(self.replica_sets).items()
        }
        for cid, rids in clean.items():
            if not rids:
                raise ConfigurationError(f"client {cid!r} accesses no replica")
        object.__setattr__(self, "replica_sets", clean)

    @classmethod
    def from_dict(cls, mapping: Mapping[ClientId, Iterable[ReplicaId]]) -> "ClientAssignment":
        """Build an assignment from ``{client: iterable of replica ids}``."""
        return cls({cid: frozenset(rids) for cid, rids in mapping.items()})

    @property
    def client_ids(self) -> Tuple[ClientId, ...]:
        """All client ids, sorted."""
        return tuple(sorted(self.replica_sets))

    def replicas_of(self, client_id: ClientId) -> FrozenSet[ReplicaId]:
        """``R_c`` for one client."""
        try:
            return self.replica_sets[client_id]
        except KeyError:
            raise ConfigurationError(f"unknown client {client_id!r}") from None

    def client_edges(self) -> FrozenSet[Edge]:
        """All directed edges ``e_jk`` induced by some client with ``j, k ∈ R_c``.

        Cached on the instance (assignments are immutable): the loop
        search asks it about every r-side edge.
        """
        cached = self.__dict__.get("_client_edges")
        if cached is None:
            edges: Set[Edge] = set()
            for rids in self.replica_sets.values():
                for j in rids:
                    for k in rids:
                        if j != k:
                            edges.add((j, k))
            cached = frozenset(edges)
            object.__setattr__(self, "_client_edges", cached)
        return cached

    def linked(self, j: ReplicaId, k: ReplicaId) -> bool:
        """``True`` iff some client accesses both ``j`` and ``k``."""
        return any(
            j in rids and k in rids for rids in self.replica_sets.values()
        )


@dataclass(frozen=True)
class AugmentedShareGraph:
    """The augmented share graph ``Ĝ`` (Definition 16)."""

    share_graph: ShareGraph
    clients: ClientAssignment

    def __post_init__(self) -> None:
        for rids in self.clients.replica_sets.values():
            for rid in rids:
                if rid not in self.share_graph.placement:
                    raise UnknownReplicaError(rid)

    @property
    def replica_ids(self) -> Tuple[ReplicaId, ...]:
        """The vertex set (same as the share graph's)."""
        return self.share_graph.replica_ids

    @property
    def edges(self) -> FrozenSet[Edge]:
        """``Ê = E ∪ {e_jk | ∃ client c with j, k ∈ R_c}`` (cached; the
        instance is immutable)."""
        cached = self.__dict__.get("_edges")
        if cached is None:
            cached = self.share_graph.edges | self.clients.client_edges()
            object.__setattr__(self, "_edges", cached)
        return cached

    def has_edge(self, j: ReplicaId, k: ReplicaId) -> bool:
        """``True`` iff ``e_jk ∈ Ê``."""
        return (j, k) in self.edges

    @property
    def adjacency(self) -> Dict[ReplicaId, Tuple[ReplicaId, ...]]:
        """``{i: sorted neighbours of i in Ĝ}`` (cached like :attr:`edges`)."""
        cached = self.__dict__.get("_adjacency")
        if cached is None:
            cached = adjacency_of(self.replica_ids, self.edges)
            object.__setattr__(self, "_adjacency", cached)
        return cached

    def neighbors(self, i: ReplicaId) -> Tuple[ReplicaId, ...]:
        """Replicas adjacent to ``i`` in ``Ĝ``."""
        return self.adjacency[i]

    def incident_edges(self, i: ReplicaId) -> FrozenSet[Edge]:
        """Directed edges of ``Ê`` incident on ``i``."""
        return frozenset(e for j in self.adjacency[i] for e in ((i, j), (j, i)))

    def simple_cycles_through(
        self, i: ReplicaId, max_length: Optional[int] = None
    ) -> Iterator[Tuple[ReplicaId, ...]]:
        """Simple cycles of ``Ĝ`` through ``i`` (both orientations)."""
        return simple_cycles(self.adjacency, i, max_length)


def _union_registers(graph: ShareGraph, replicas: Iterable[ReplicaId]) -> FrozenSet[Register]:
    out: Set[Register] = set()
    for rid in replicas:
        out |= graph.registers_at(rid)
    return frozenset(out)


def augmented_loop_conditions(
    augmented: AugmentedShareGraph,
    observer: ReplicaId,
    jk: Edge,
    l_side: Sequence[ReplicaId],
    r_side: Sequence[ReplicaId],
) -> bool:
    """Conditions (i)–(iii) of the augmented ``(i, e_jk)``-loop (Definition 27).

    Compared to Definition 4, conditions (ii) and (iii) are satisfied either
    by a surviving shared register or by a client that accesses both
    endpoints of the r-side edge.
    """
    graph = augmented.share_graph
    clients = augmented.clients
    j, k = jk
    if not l_side or not r_side:
        return False
    if l_side[-1] != k or r_side[0] != j:
        return False

    blockers_excl_k = _union_registers(graph, l_side[:-1])
    blockers_incl_k = _union_registers(graph, l_side)

    # (i) unchanged: the witnessed edge must carry a register the l-side
    # interior does not store (it is a real share-graph edge).
    if not (graph.shared_registers(j, k) - blockers_excl_k):
        return False

    r_extended: List[ReplicaId] = list(r_side) + [observer]

    # (ii) a surviving register on e_{j r_2} OR a client accessing both.
    r2 = r_extended[1]
    if not (graph.shared_registers(j, r2) - blockers_excl_k) and not clients.linked(j, r2):
        return False

    # (iii) for each subsequent r-side edge: surviving register OR client link.
    for q in range(2, len(r_side) + 1):
        rq, rq_next = r_extended[q - 1], r_extended[q]
        if not (graph.shared_registers(rq, rq_next) - blockers_incl_k) and not clients.linked(
            rq, rq_next
        ):
            return False
    return True


def _decide_augmented(
    augmented: AugmentedShareGraph,
    observer: ReplicaId,
    max_loop_length: Optional[int],
    target_edge: Optional[Edge] = None,
) -> FrozenSet[Edge]:
    """:func:`~repro.core.loops.decide_loop_edges` over ``Ĝ``: cycles run along
    augmented edges, and an r-side edge survives its blockers through a
    register or through a client that accesses both endpoints."""
    shared = augmented.share_graph.index().edge_registers
    links = augmented.clients.client_edges()

    def survives(u: ReplicaId, v: ReplicaId, blocked: Mapping[Register, int]) -> bool:
        return (u, v) in links or not all(blocked[x] for x in shared.get((u, v), ()))

    return decide_loop_edges(
        augmented.share_graph, observer, max_loop_length, target_edge,
        adjacency=augmented.adjacency, survives=survives,
    )[0]


def has_augmented_loop(
    augmented: AugmentedShareGraph,
    observer: ReplicaId,
    jk: Edge,
    max_loop_length: Optional[int] = None,
) -> bool:
    """``True`` iff an augmented ``(observer, e_jk)``-loop exists in ``Ĝ``."""
    return bool(_decide_augmented(augmented, observer, max_loop_length, jk))


def augmented_loop_edges(
    augmented: AugmentedShareGraph,
    observer: ReplicaId,
    max_loop_length: Optional[int] = None,
) -> FrozenSet[Edge]:
    """Every edge witnessed by some augmented ``(observer, e_jk)``-loop."""
    return _decide_augmented(augmented, observer, max_loop_length)


def augmented_timestamp_edges(
    augmented: AugmentedShareGraph,
    replica_id: ReplicaId,
    max_loop_length: Optional[int] = None,
) -> FrozenSet[Edge]:
    """The edge set ``Ê_i`` of the augmented timestamp graph (Definition 28).

    Incident edges of ``Ĝ`` plus augmented-loop-witnessed edges, intersected
    with the real share-graph edge set ``E`` (augmentation edges carry no
    updates and therefore need no counters).
    """
    share_edges = augmented.share_graph.edges
    incident = augmented.incident_edges(replica_id)
    loops = augmented_loop_edges(
        augmented, replica_id, max_loop_length=max_loop_length
    )
    return frozenset((incident | loops) & share_edges)


def build_all_augmented_timestamp_edges(
    augmented: AugmentedShareGraph,
    max_loop_length: Optional[int] = None,
) -> Dict[ReplicaId, FrozenSet[Edge]]:
    """``Ê_i`` for every replica."""
    return {
        rid: augmented_timestamp_edges(augmented, rid, max_loop_length=max_loop_length)
        for rid in augmented.replica_ids
    }


def client_index_edges(
    augmented: AugmentedShareGraph,
    client_id: ClientId,
    timestamp_edges_by_replica: Optional[Mapping[ReplicaId, FrozenSet[Edge]]] = None,
) -> FrozenSet[Edge]:
    """The index set of client ``c``'s timestamp: ``∪_{i ∈ R_c} Ê_i``."""
    if timestamp_edges_by_replica is None:
        timestamp_edges_by_replica = build_all_augmented_timestamp_edges(augmented)
    edges: Set[Edge] = set()
    for rid in augmented.clients.replicas_of(client_id):
        edges |= timestamp_edges_by_replica[rid]
    return frozenset(edges)
