"""The conflict relation between causal pasts and Theorem 15's bound.

Section 4 restricts attention to algorithms whose timestamps are a function
of the replica's *causal past* (Constraint 1 — satisfied by the paper's
algorithm).  Two causal pasts of replica ``i`` **conflict** (Definition 13)
when

1. both contain at least one update on every share-graph edge, and
2. they differ (one strictly contains the other) on some edge ``e`` that is
   incident on ``i``, or lies on a simple loop
   ``(i, l_1, …, l_s, r_1, …, r_t, i)`` with ``e = e_{r_1 l_s}`` such that
   (a) the two pasts agree on every other "crossing" edge ``e_{r_p l_q}`` and
   (b) each past has, on every r-side edge ``e_{r_p r_{p+1}}``, an update not
   also counted on a crossing edge.

Lemma 14 shows conflicting pasts must receive distinct timestamps, so the
chromatic number of the conflict graph lower-bounds the number of distinct
timestamps replica ``i`` needs (Theorem 15).  Because a clique is a lower
bound on the chromatic number, this module reports clique-based bounds,
which are exact for the canonical families used in the paper's closed-form
corollaries (where the relevant pasts are pairwise conflicting).

Exhaustive enumeration of causal pasts is exponential; the canonical-family
generator below is intended for the small instances (a handful of replicas,
``m ≤ 3``) on which the bound is meant to be *demonstrated*, matching how the
paper itself uses it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.errors import ConfigurationError
from ..core.protocol import Update
from ..core.registers import ReplicaId
from ..core.share_graph import Edge, ShareGraph

if TYPE_CHECKING:
    import networkx as nx

#: A causal past, for the purposes of this module, is a frozen set of updates.
PastSet = FrozenSet[Update]


def restrict_to_edge(graph: ShareGraph, past: Iterable[Update], e: Edge) -> PastSet:
    """``S|e_jk``: updates in ``past`` issued by ``j`` on registers in ``X_jk``.

    For edges not in the share graph the restriction is empty by definition.
    """
    j, k = e
    if e not in graph.edges:
        return frozenset()
    shared = graph.shared_registers(j, k)
    return frozenset(u for u in past if u.issuer == j and u.register in shared)


def _loop_qualifies(
    graph: ShareGraph,
    observer: ReplicaId,
    e: Edge,
    cycle: Sequence[ReplicaId],
    split: int,
    s1: Iterable[Update],
    s2: Iterable[Update],
) -> bool:
    """Check clause 2's loop conditions for one oriented cycle and split point.

    The cycle ``(i, l_1, …, l_s, r_1, …, r_t)`` is encoded as the vertex tuple
    ``cycle`` starting at ``i`` with ``split`` giving ``s`` (so ``l`` vertices
    are ``cycle[1:split+1]`` and ``r`` vertices are ``cycle[split+1:]``); the
    distinguished edge is ``e = e_{r_1 l_s}``.
    """
    l_side = list(cycle[1:split + 1])
    r_side = list(cycle[split + 1:])
    if not l_side or not r_side:
        return False
    if (r_side[0], l_side[-1]) != e:
        return False
    r_extended = r_side + [observer]

    s1 = list(s1)
    s2 = list(s2)

    # (1) the two pasts agree on every crossing edge e_{r_p l_q} other than e.
    for rp in r_extended:
        for lq in l_side:
            crossing = (rp, lq)
            if crossing == e:
                continue
            if restrict_to_edge(graph, s1, crossing) != restrict_to_edge(
                graph, s2, crossing
            ):
                return False

    # (2) each past has an update on every r-side edge beyond the crossing edges.
    for p in range(len(r_side)):
        rp, rp_next = r_extended[p], r_extended[p + 1]
        forward = (rp, rp_next)
        for past in (s1, s2):
            on_forward = restrict_to_edge(graph, past, forward)
            crossing_union: Set[Update] = set()
            for lq in l_side:
                crossing_union |= restrict_to_edge(graph, past, (rp, lq))
            if not (on_forward - crossing_union):
                return False
    return True


def conflicts(
    graph: ShareGraph,
    observer: ReplicaId,
    past1: Iterable[Update],
    past2: Iterable[Update],
) -> bool:
    """Do two causal pasts of ``observer`` conflict (Definition 13)?"""
    s1 = frozenset(past1)
    s2 = frozenset(past2)

    # Condition 1: both pasts are non-empty on every share-graph edge.
    for e in graph.edges:
        if not restrict_to_edge(graph, s1, e) or not restrict_to_edge(graph, s2, e):
            return False

    # Condition 2: a strict containment on a qualifying edge, in either direction.
    # Loop case: e = e_{r_1 l_s} for some simple loop through observer; the
    # loops are listed once, by the edge they cross, when first needed.
    splits_by_edge: Optional[Dict[Edge, List[Tuple[Tuple[ReplicaId, ...], int]]]] = None
    for first, second in ((s1, s2), (s2, s1)):
        for e in graph.edges:
            r1 = restrict_to_edge(graph, first, e)
            r2 = restrict_to_edge(graph, second, e)
            if not (r1 < r2):
                continue
            if observer in e:
                return True
            if splits_by_edge is None:
                splits_by_edge = {}
                for cycle in graph.simple_cycles_through(observer):
                    for split in range(1, len(cycle) - 1):
                        crossed = (cycle[split + 1], cycle[split])
                        splits_by_edge.setdefault(crossed, []).append((cycle, split))
            for cycle, split in splits_by_edge.get(e, ()):
                if _loop_qualifies(graph, observer, e, cycle, split, first, second):
                    return True
    return False


# ----------------------------------------------------------------------
# Canonical causal-past families and the conflict graph
# ----------------------------------------------------------------------

def canonical_causal_pasts(
    graph: ShareGraph,
    observer: ReplicaId,
    max_updates: int,
    edges: Optional[Iterable[Edge]] = None,
) -> List[PastSet]:
    """Generate the canonical family of causal pasts used for the bound.

    For every directed edge ``e_jk`` in ``edges`` (default: all share-graph
    edges) the family varies the number of updates issued by ``j`` on a fixed
    register of ``X_jk`` between 1 and ``max_updates``; updates are nested
    (the past with count ``c`` contains the one with count ``c-1``), matching
    the strict-containment shape Definition 13 needs.  Every share-graph edge
    *not* in ``edges`` carries exactly one update in every member of the
    family, so condition 1 of Definition 13 (non-empty on every edge) always
    holds.  The family has ``max_updates ^ |edges|`` members — keep the
    instance small.

    This construction assumes each chosen register is shared by exactly two
    replicas so that an update lies on exactly one undirected share-graph
    adjacency (true for the ring/tree/pairwise topologies of the closed-form
    corollaries); a :class:`~repro.core.errors.ConfigurationError` is raised
    otherwise.
    """
    edge_list = sorted(edges) if edges is not None else sorted(graph.edges)
    all_edges = sorted(graph.edges)
    chosen_register: Dict[Edge, str] = {}
    for e in all_edges:
        shared = sorted(graph.shared_registers(*e))
        if not shared:
            raise ConfigurationError(f"edge {e} has no shared register")
        register = shared[0]
        if len(graph.replicas_storing(register)) != 2:
            raise ConfigurationError(
                "canonical_causal_pasts requires registers shared by exactly "
                f"two replicas; {register!r} is shared by more"
            )
        chosen_register[e] = register

    fixed_edges = [e for e in all_edges if e not in set(edge_list)]
    pasts: List[PastSet] = []
    for counts in itertools.product(range(1, max_updates + 1), repeat=len(edge_list)):
        past: Set[Update] = set()
        for e, count in zip(edge_list, counts):
            j, _ = e
            register = chosen_register[e]
            for seq in range(1, count + 1):
                past.add(Update(issuer=j, seq=seq, register=register, value=seq))
        # Every other share-graph edge carries one fixed update so condition 1
        # of Definition 13 (both pasts non-empty on every edge) is satisfied.
        for e in fixed_edges:
            j, _ = e
            register = chosen_register[e]
            past.add(Update(issuer=j, seq=1, register=register, value=1))
        pasts.append(frozenset(past))
    return pasts


def _graph() -> nx.Graph:
    import networkx as nx

    return nx.Graph()


@dataclass
class ConflictGraph:
    """The conflict graph ``H_i`` over a family of causal pasts."""

    observer: ReplicaId
    pasts: List[PastSet]
    graph: nx.Graph = field(default_factory=_graph)

    @classmethod
    def build(
        cls,
        share_graph: ShareGraph,
        observer: ReplicaId,
        pasts: Sequence[PastSet],
    ) -> "ConflictGraph":
        """Compute all pairwise conflicts among ``pasts``."""
        conflict_graph = _graph()
        conflict_graph.add_nodes_from(range(len(pasts)))
        for a, b in itertools.combinations(range(len(pasts)), 2):
            if conflicts(share_graph, observer, pasts[a], pasts[b]):
                conflict_graph.add_edge(a, b)
        return cls(observer=observer, pasts=list(pasts), graph=conflict_graph)

    @property
    def num_pasts(self) -> int:
        """Number of causal pasts in the family."""
        return len(self.pasts)

    @property
    def num_conflicts(self) -> int:
        """Number of conflicting pairs."""
        return self.graph.number_of_edges()

    def is_complete(self) -> bool:
        """``True`` iff every pair of pasts conflicts (clique = whole family)."""
        n = self.num_pasts
        return self.num_conflicts == n * (n - 1) // 2

    def clique_lower_bound(self) -> int:
        """A clique-based lower bound on the chromatic number of ``H_i``.

        Exact when the conflict graph is complete (the closed-form cases);
        otherwise the size of the largest clique found.
        """
        if self.num_pasts == 0:
            return 0
        if self.is_complete():
            return self.num_pasts
        import networkx as nx

        cliques = nx.find_cliques(self.graph)
        return max((len(c) for c in cliques), default=1)

    def chromatic_upper_bound(self) -> int:
        """A greedy-colouring upper bound on the chromatic number (sanity check)."""
        if self.num_pasts == 0:
            return 0
        import networkx as nx

        colouring = nx.coloring.greedy_color(self.graph, strategy="largest_first")
        return max(colouring.values()) + 1


def timestamp_space_lower_bound(
    graph: ShareGraph,
    observer: ReplicaId,
    max_updates: int,
    edges: Optional[Iterable[Edge]] = None,
) -> Tuple[int, float]:
    """Theorem 15 instantiated on the canonical family.

    Returns ``(space_size, bits)`` where ``space_size`` is the clique lower
    bound on the number of distinct timestamps replica ``observer`` must use
    and ``bits = log2(space_size)``.
    """
    pasts = canonical_causal_pasts(graph, observer, max_updates, edges=edges)
    conflict_graph = ConflictGraph.build(graph, observer, pasts)
    size = conflict_graph.clique_lower_bound()
    bits = math.log2(size) if size > 0 else 0.0
    return size, bits
