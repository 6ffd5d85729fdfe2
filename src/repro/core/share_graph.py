"""The share graph (Definition 3 of the paper).

The share graph ``G = (V, E)`` has one vertex per replica and a pair of
directed edges ``e_ij`` and ``e_ji`` whenever replicas ``i`` and ``j`` store
at least one register in common (``X_ij ≠ ∅``).  It captures exactly which
pairs of replicas exchange update messages under the algorithm prototype of
Section 2.1, and it is the combinatorial object over which the paper's
``(i, e_jk)``-loops, timestamp graphs, hoops and lower bounds are defined.

Directed edges are represented as ``(tail, head)`` tuples of replica ids; the
helper :class:`Edge` type alias documents that convention.  The graph always
contains both orientations of every adjacency, mirroring the paper's remark
that the share graph could equivalently be viewed as undirected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Mapping, NamedTuple, Sequence, Set, Tuple

import networkx as nx

from .errors import ConfigurationError, UnknownReplicaError
from .registers import Register, RegisterPlacement, ReplicaId

#: A directed share-graph edge ``e_ij`` is the tuple ``(i, j)``.
Edge = Tuple[ReplicaId, ReplicaId]


def edge(i: ReplicaId, j: ReplicaId) -> Edge:
    """Construct the directed edge ``e_ij`` (a plain tuple)."""
    return (i, j)


def reverse(e: Edge) -> Edge:
    """Return the opposite orientation of a directed edge."""
    return (e[1], e[0])


def simple_cycles(
    adjacency: Mapping[ReplicaId, Sequence[ReplicaId]],
    start: ReplicaId,
    max_length: int | None = None,
) -> Iterator[Tuple[ReplicaId, ...]]:
    """Yield the simple cycles through ``start`` of the graph ``adjacency``.

    Each cycle of ``L >= 3`` vertices is a tuple of ``L`` distinct vertices
    beginning with ``start`` (the closing edge is implicit) and is yielded in
    both traversal directions; ``max_length`` caps ``L``.  The one cycle
    generator behind :meth:`ShareGraph.simple_cycles_through` and its
    augmented-share-graph twin.
    """
    limit = max_length if max_length is not None else len(adjacency)
    path: List[ReplicaId] = [start]
    on_path: Set[ReplicaId] = {start}

    def dfs() -> Iterator[Tuple[ReplicaId, ...]]:
        current = path[-1]
        for nxt in adjacency[current]:
            if nxt == start and len(path) >= 3:
                yield tuple(path)
            if nxt in on_path or len(path) >= limit:
                continue
            path.append(nxt)
            on_path.add(nxt)
            yield from dfs()
            path.pop()
            on_path.remove(nxt)

    yield from dfs()


def adjacency_of(
    vertices: Iterable[ReplicaId], edges: Iterable[Edge]
) -> Dict[ReplicaId, Tuple[ReplicaId, ...]]:
    """``{i: sorted neighbours of i}`` for a directed edge set over ``vertices``."""
    neighbours: Dict[ReplicaId, List[ReplicaId]] = {i: [] for i in vertices}
    for (i, j) in sorted(edges):
        neighbours[i].append(j)
    return {i: tuple(js) for i, js in neighbours.items()}


class _Index(NamedTuple):
    """Lookup tables derived from a placement (see :meth:`ShareGraph.index`)."""

    #: ``{i: sorted neighbours of i}``.
    adjacency: Dict[ReplicaId, Tuple[ReplicaId, ...]]
    #: ``{(i, j): X_ij}`` for every directed edge, registers sorted.
    edge_registers: Dict[Edge, Tuple[Register, ...]]
    #: ``{x: C(x)}``, holders sorted.
    holders: Dict[Register, Tuple[ReplicaId, ...]]


@dataclass(frozen=True)
class ShareGraph:
    """The share graph of a register placement (Definition 3).

    Instances are immutable; construct them with :meth:`from_placement` (the
    normal route) or directly from a placement in the constructor.

    Attributes
    ----------
    placement:
        The :class:`~repro.core.registers.RegisterPlacement` the graph was
        derived from.  All register-set queries (``X_i``, ``X_ij``) delegate
        to it.
    """

    placement: RegisterPlacement
    _edges: FrozenSet[Edge] = field(default=frozenset(), compare=False, repr=False)

    def __post_init__(self) -> None:
        edges: Set[Edge] = set()
        ids = self.placement.replica_ids
        for a in ids:
            for b in ids:
                if a == b:
                    continue
                if self.placement.shared_registers(a, b):
                    edges.add((a, b))
        object.__setattr__(self, "_edges", frozenset(edges))

    def index(self) -> _Index:
        """Adjacency, per-edge ``X_ij`` and register → holders tables.

        Built on first use and kept on the (immutable) instance; it is not a
        dataclass field, so equality and hashing never see it, and
        :meth:`__getstate__` keeps it out of pickles.
        """
        cached = self.__dict__.get("_index")
        if cached is None:
            stores = self.placement.stores
            edge_registers: Dict[Edge, Tuple[Register, ...]] = {}
            for (i, j) in self._edges:
                edge_registers[(i, j)] = (
                    edge_registers.get((j, i)) or tuple(sorted(stores[i] & stores[j]))
                )
            holders: Dict[Register, List[ReplicaId]] = {}
            for i in self.replica_ids:
                for register in stores[i]:
                    holders.setdefault(register, []).append(i)
            cached = _Index(
                adjacency_of(self.replica_ids, self._edges),
                edge_registers,
                {x: tuple(ids) for x, ids in holders.items()},
            )
            object.__setattr__(self, "_index", cached)
        return cached

    def __getstate__(self) -> Dict[str, Any]:
        return {"placement": self.placement, "_edges": self._edges}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_placement(cls, placement: RegisterPlacement) -> "ShareGraph":
        """Build the share graph of ``placement``."""
        return cls(placement)

    @classmethod
    def from_dict(cls, stores: Mapping[ReplicaId, Iterable[Register]]) -> "ShareGraph":
        """Convenience constructor straight from ``{replica: registers}``."""
        return cls(RegisterPlacement.from_dict(stores))

    # ------------------------------------------------------------------
    # Vertices and edges
    # ------------------------------------------------------------------
    @property
    def replica_ids(self) -> Tuple[ReplicaId, ...]:
        """The vertex set ``V`` (sorted replica ids)."""
        return self.placement.replica_ids

    @property
    def num_replicas(self) -> int:
        """``R``, the number of replicas."""
        return self.placement.num_replicas

    @property
    def edges(self) -> FrozenSet[Edge]:
        """The directed edge set ``E`` (both orientations of every adjacency)."""
        return self._edges

    @property
    def undirected_edges(self) -> FrozenSet[FrozenSet[ReplicaId]]:
        """The adjacencies of the graph viewed undirected."""
        return frozenset(frozenset(e) for e in self._edges)

    def has_edge(self, i: ReplicaId, j: ReplicaId) -> bool:
        """``True`` iff ``e_ij ∈ E`` i.e. ``X_ij ≠ ∅``."""
        return (i, j) in self._edges

    def neighbors(self, i: ReplicaId) -> Tuple[ReplicaId, ...]:
        """Replicas adjacent to ``i`` in the share graph, sorted."""
        try:
            return self.index().adjacency[i]
        except KeyError:
            raise UnknownReplicaError(i) from None

    def degree(self, i: ReplicaId) -> int:
        """``N_i``: number of share-graph neighbours of replica ``i``."""
        return len(self.neighbors(i))

    def incident_edges(self, i: ReplicaId) -> FrozenSet[Edge]:
        """All directed edges with ``i`` as tail or head."""
        return frozenset(e for j in self.neighbors(i) for e in ((i, j), (j, i)))

    def outgoing_edges(self, i: ReplicaId) -> FrozenSet[Edge]:
        """All directed edges ``e_ij`` leaving ``i``."""
        return frozenset(e for e in self._edges if e[0] == i)

    def incoming_edges(self, i: ReplicaId) -> FrozenSet[Edge]:
        """All directed edges ``e_ji`` entering ``i``."""
        return frozenset(e for e in self._edges if e[1] == i)

    # ------------------------------------------------------------------
    # Register-set queries (delegating to the placement)
    # ------------------------------------------------------------------
    def registers_at(self, i: ReplicaId) -> FrozenSet[Register]:
        """``X_i``."""
        return self.placement.registers_at(i)

    def shared_registers(self, i: ReplicaId, j: ReplicaId) -> FrozenSet[Register]:
        """``X_ij``."""
        return self.placement.shared_registers(i, j)

    def edge_registers(self, e: Edge) -> FrozenSet[Register]:
        """Registers labelling edge ``e = (i, j)``, i.e. ``X_ij``."""
        return self.placement.shared_registers(e[0], e[1])

    def replicas_storing(self, register: Register) -> Tuple[ReplicaId, ...]:
        """``C(x)`` for a register ``x``."""
        return self.placement.replicas_storing(register)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def to_networkx(self, directed: bool = True) -> nx.Graph:
        """Export the share graph as a :mod:`networkx` graph.

        Each edge carries a ``registers`` attribute holding ``X_ij``.
        """
        graph: nx.Graph = nx.DiGraph() if directed else nx.Graph()
        graph.add_nodes_from(self.replica_ids)
        for (i, j) in sorted(self._edges):
            graph.add_edge(i, j, registers=sorted(self.shared_registers(i, j)))
        return graph

    def is_connected(self) -> bool:
        """``True`` iff the (undirected) share graph is connected."""
        if self.num_replicas <= 1:
            return True
        return nx.is_connected(self.to_networkx(directed=False))

    def connected_components(self) -> List[FrozenSet[ReplicaId]]:
        """Connected components of the undirected share graph."""
        graph = self.to_networkx(directed=False)
        return [frozenset(c) for c in nx.connected_components(graph)]

    def is_tree(self) -> bool:
        """``True`` iff the undirected share graph is a tree."""
        return nx.is_tree(self.to_networkx(directed=False))

    def is_cycle(self) -> bool:
        """``True`` iff the undirected share graph is a single simple cycle."""
        graph = self.to_networkx(directed=False)
        if graph.number_of_nodes() < 3:
            return False
        return (
            nx.is_connected(graph)
            and all(d == 2 for _, d in graph.degree())
        )

    def is_clique(self) -> bool:
        """``True`` iff every pair of replicas shares at least one register."""
        n = self.num_replicas
        return len(self._edges) == n * (n - 1)

    def spanning_tree(self, root: ReplicaId) -> Dict[ReplicaId, ReplicaId]:
        """A BFS spanning tree of the share graph rooted at ``root``.

        Returns a parent map ``{child: parent}`` with the root absent.  Used
        by the lower-bound execution constructions (Appendix C) and by the
        virtual-register routing optimization.
        """
        if root not in self.placement:
            raise UnknownReplicaError(root)
        if not self.is_connected():
            raise ConfigurationError("spanning_tree requires a connected share graph")
        graph = self.to_networkx(directed=False)
        parents: Dict[ReplicaId, ReplicaId] = {}
        for parent, child in nx.bfs_edges(graph, root):
            parents[child] = parent
        return parents

    def simple_cycles_through(self, i: ReplicaId,
                              max_length: int | None = None) -> Iterator[Tuple[ReplicaId, ...]]:
        """Yield simple cycles (as vertex tuples starting at ``i``) through ``i``.

        Cycles are yielded in both traversal directions, because the paper's
        ``(i, e_jk)``-loop conditions are not symmetric under reversal.  A
        cycle of length ``L`` is reported as a tuple of ``L`` distinct
        vertices beginning with ``i``; the closing edge back to ``i`` is
        implicit.

        Parameters
        ----------
        max_length:
            If given, only cycles with at most this many vertices are
            produced.  This is the knob used by the bounded-loop-length
            optimization of Appendix D.
        """
        if i not in self.placement:
            raise UnknownReplicaError(i)
        return simple_cycles(self.index().adjacency, i, max_length)

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __contains__(self, item: object) -> bool:
        if isinstance(item, tuple) and len(item) == 2:
            return item in self._edges
        return item in self.placement

    def __len__(self) -> int:
        return self.num_replicas

    def describe(self) -> str:
        """Human-readable multi-line description of the share graph."""
        lines = [
            f"ShareGraph with {self.num_replicas} replicas and "
            f"{len(self._edges)} directed edges"
        ]
        for (i, j) in sorted(self._edges):
            if i < j:
                regs = ", ".join(sorted(self.shared_registers(i, j)))
                lines.append(f"  {i} <-> {j}: {{{regs}}}")
        return "\n".join(lines)
