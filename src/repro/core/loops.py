"""``(i, e_jk)``-loops (Definition 4 of the paper).

An ``(i, e_jk)``-loop is a simple cycle through replica ``i`` of the form::

    i, l_1, l_2, ..., l_s = k,  j = r_1, r_2, ..., r_t,  i        (s, t >= 1)

i.e. a cycle that, when traversed starting at ``i``, first walks the "l-side"
and reaches ``k``, then crosses the share-graph edge between ``k`` and ``j``,
and finally returns to ``i`` along the "r-side" ``j = r_1, ..., r_t``.  With
``r_{t+1} = i``, the register-set conditions are:

``(i)``   ``X_jk  −  ∪_{1≤p≤s−1} X_{l_p}  ≠ ∅``
``(ii)``  ``X_{j r_2}  −  ∪_{1≤p≤s−1} X_{l_p}  ≠ ∅``
``(iii)`` for ``2 ≤ q ≤ t``:  ``X_{r_q r_{q+1}}  −  ∪_{1≤p≤s} X_{l_p}  ≠ ∅``

Intuitively the conditions guarantee that a chain of causally dependent
updates can be driven from ``j`` around the r-side to ``i`` without touching
any replica on the l-side, so the only way ``i`` can learn that the chain
causally depends on ``j``'s update on ``X_jk`` is by tracking edge ``e_jk``
explicitly.  The existence of such a loop is exactly the criterion that puts
``e_jk`` into replica ``i``'s timestamp graph
(:mod:`repro.core.timestamp_graph`).

Deciding existence without listing cycles
-----------------------------------------
Definition 5 only asks *whether* a loop exists, and :func:`decide_loop_edges`
answers that without enumerating cycles.  Write ``S = {l_1..l_{s-1}}`` for the
interior of the l-side and ``regs(T)`` for the registers stored somewhere in
``T`` (the *blockers*).

**Lemma.**  Conditions (i)–(iii) depend on the l-side only through its tip
``k``, the set ``S`` and the blockers ``regs(S)`` and ``regs(S ∪ {k})``, and
each of them is monotone in ``S``: if ``(l-side, r-side)`` witnesses ``e_jk``
and ``i, l'_1, .., k`` is any path whose interior ``S'`` is a subset of ``S``,
then ``(l'-side, r-side)`` witnesses ``e_jk`` too, with a cycle no longer.

*Proof.*  The order of ``l_1..l_{s-1}`` appears in no condition, only the
unions ``regs(S)`` in (i), (ii) and ``regs(S ∪ {k})`` in (iii).  The r-side
avoids ``S ∪ {i, k}``, hence ``S' ∪ {i, k}``, so the new cycle is simple; its
edges exist because the l'-side is a path and the rest is unchanged.
``S' ⊆ S`` gives ``regs(S') ⊆ regs(S)``, so every difference
``X_uv − regs(·)`` that was non-empty still is.  ∎

Two consequences make the decision cheap:

* *Only chordless l-sides matter.*  A shortest path from ``i`` to ``k`` inside
  the subgraph induced by ``S ∪ {i, k}`` has no chord, and by the lemma it
  witnesses whatever the original l-side did.  So the search walks the
  **chordless** (induced) paths out of ``i`` — 7 on the 8-clique, where the
  simple cycles number 13,700.
* *For a fixed l-side the r-side is reachability.*  ``e_jk`` is witnessed iff
  (i) holds and ``j`` has a neighbour ``r_2 ∉ S ∪ {k}`` whose edge survives
  ``regs(S)`` and which is ``i`` or reaches ``i`` in the graph minus
  ``S ∪ {k}`` restricted to edges surviving ``regs(S ∪ {k})``.  (A path found
  through ``j`` itself is harmless: its part after ``j`` starts with an edge
  that survives the larger blocker set, so it offers a shorter ``r_2`` that
  avoids ``j``.)  One BFS from ``i`` per l-side answers every ``j`` at once,
  and its *distances* give the shortest loop, which is all the Appendix-D
  ``max_loop_length`` bound needs: the bounded and the exact graph come out of
  the same routine.

The cost is (chordless paths out of ``i``) × (one BFS); the number of induced
paths is still exponential on adversarial graphs (large grids), but no longer
on dense ones.  :func:`iter_loops` and :func:`check_loop_conditions` remain
as the witness API and the reference the decision is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .errors import UnknownReplicaError
from .registers import Register, ReplicaId
from .share_graph import Edge, ShareGraph


@dataclass(frozen=True)
class Loop:
    """A concrete ``(i, e_jk)``-loop.

    Attributes
    ----------
    observer:
        The replica ``i`` from whose perspective the loop is defined.
    edge:
        The directed share-graph edge ``e_jk`` witnessed by the loop.
    l_side:
        The vertices ``(l_1, ..., l_s)``; the last element is ``k``.
    r_side:
        The vertices ``(r_1, ..., r_t)``; the first element is ``j``.
    """

    observer: ReplicaId
    edge: Edge
    l_side: Tuple[ReplicaId, ...]
    r_side: Tuple[ReplicaId, ...]

    @property
    def j(self) -> ReplicaId:
        """The tail of the witnessed edge (``j``)."""
        return self.edge[0]

    @property
    def k(self) -> ReplicaId:
        """The head of the witnessed edge (``k``)."""
        return self.edge[1]

    @property
    def vertices(self) -> Tuple[ReplicaId, ...]:
        """The full cycle ``(i, l_1, ..., l_s, r_1, ..., r_t)``."""
        return (self.observer, *self.l_side, *self.r_side)

    @property
    def length(self) -> int:
        """Number of vertices on the cycle."""
        return len(self.vertices)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        cycle = " -> ".join(str(v) for v in (*self.vertices, self.observer))
        return f"({self.observer}, e_{self.j}{self.k})-loop: {cycle}"


def _union_registers(graph: ShareGraph, replicas: Iterable[ReplicaId]) -> FrozenSet[Register]:
    out: Set[Register] = set()
    for rid in replicas:
        out |= graph.registers_at(rid)
    return frozenset(out)


def check_loop_conditions(
    graph: ShareGraph,
    observer: ReplicaId,
    jk: Edge,
    l_side: Sequence[ReplicaId],
    r_side: Sequence[ReplicaId],
) -> bool:
    """Check conditions (i)–(iii) of Definition 4 for a candidate cycle.

    ``l_side`` must end with ``k`` and ``r_side`` must start with ``j``; the
    cycle itself (adjacency of consecutive vertices in the share graph) is
    assumed to have been validated by the caller.
    """
    j, k = jk
    if not l_side or not r_side:
        return False
    if l_side[-1] != k or r_side[0] != j:
        return False

    # Registers stored by l_1 .. l_{s-1}  (excluding l_s = k).
    blockers_excl_k = _union_registers(graph, l_side[:-1])
    # Registers stored by l_1 .. l_s  (including l_s = k).
    blockers_incl_k = _union_registers(graph, l_side)

    # Condition (i): X_jk minus registers of l_1..l_{s-1} is non-empty.
    if not (graph.shared_registers(j, k) - blockers_excl_k):
        return False

    # r_{t+1} = i (the observer).
    r_extended: List[ReplicaId] = list(r_side) + [observer]

    # Condition (ii): X_{j r_2} minus registers of l_1..l_{s-1} is non-empty.
    r2 = r_extended[1]
    if not (graph.shared_registers(j, r2) - blockers_excl_k):
        return False

    # Condition (iii): for 2 <= q <= t, X_{r_q r_{q+1}} minus registers of
    # l_1..l_s is non-empty.
    for q in range(2, len(r_side) + 1):
        rq = r_extended[q - 1]
        rq_next = r_extended[q]
        if not (graph.shared_registers(rq, rq_next) - blockers_incl_k):
            return False
    return True


def _loops_from_cycle(
    graph: ShareGraph,
    observer: ReplicaId,
    cycle: Sequence[ReplicaId],
    target_edge: Optional[Edge] = None,
) -> Iterator[Loop]:
    """Yield every ``(observer, e_jk)``-loop realised by one oriented cycle.

    ``cycle`` is a tuple of distinct vertices starting with ``observer``; the
    closing edge back to ``observer`` is implicit.  Every split point
    ``m`` (``1 <= m <= len(cycle) - 2``) is tried: the l-side is
    ``cycle[1:m+1]`` (so ``k = cycle[m]``) and the r-side is ``cycle[m+1:]``
    (so ``j = cycle[m+1]``).

    Conditions (i)–(iii) are evaluated in O(1) per split instead of
    re-deriving the l-side register unions from scratch (which made one
    cycle cost O(n²) set unions — prohibitive at 512-replica rings, where
    every oriented cycle has 511 split points).  The trick: the blocker
    union only ever grows vertex by vertex along the cycle, so

    * ``X − (X_{l_1} ∪ … ∪ X_{l_p}) ≠ ∅`` iff some register of ``X`` first
      appears on the cycle tail *after* position ``p`` (or never); each
      condition collapses to comparing a per-edge "survives until"
      position — the max over the edge's registers of their first
      appearance — against the split point;
    * condition (iii) quantifies over a suffix of cycle edges, so a
      suffix-minimum over those per-edge positions answers the whole
      conjunction at once.

    :func:`check_loop_conditions` remains the executable reference; the
    equivalence is pinned by a property test in ``tests/test_loops.py``.
    """
    n = len(cycle)
    if n < 3:
        return
    absent = n + 1
    # First tail position (1-indexed) at which each register joins the
    # blocker union; registers never stored on the tail stay ``absent``.
    firstpos: Dict[Register, int] = {}
    for p in range(1, n):
        for register in graph.registers_at(cycle[p]):
            if register not in firstpos:
                firstpos[register] = p

    def survives_until(u: ReplicaId, v: ReplicaId) -> int:
        # Max over X_uv of the register's first blocking position: the set
        # X_uv − regs(c_1..c_p) is non-empty iff this exceeds p.
        best = 0
        for register in graph.shared_registers(u, v):
            p = firstpos.get(register, absent)
            if p > best:
                best = p
        return best

    # forward[p] covers the cycle edge leaving tail position p: (c_p, c_{p+1})
    # for p < n-1, and the implicit closing edge (c_{n-1}, observer) at n-1.
    forward = [0] * n
    for p in range(1, n - 1):
        forward[p] = survives_until(cycle[p], cycle[p + 1])
    forward[n - 1] = survives_until(cycle[n - 1], observer)
    # smin[p]: the weakest condition-(iii) edge among tail positions >= p.
    smin = [absent] * (n + 1)
    for p in range(n - 1, 0, -1):
        smin[p] = min(forward[p], smin[p + 1])

    for m in range(1, n - 1):
        k = cycle[m]
        j = cycle[m + 1]
        jk = (j, k)
        if target_edge is not None and jk != target_edge:
            continue
        if jk not in graph.edges:
            continue
        # (i): X_jk − regs(l_1..l_{s-1}) ≠ ∅  (blockers exclude k = c_m).
        if survives_until(j, k) < m:
            continue
        # (ii): X_{j r_2} − the same prefix ≠ ∅; r_2 is c_{m+2}, or the
        # observer when the r-side is the single vertex j — either way the
        # edge leaving tail position m+1.
        if forward[m + 1] < m:
            continue
        # (iii): every r-side edge from r_2 onwards survives regs(l_1..l_s)
        # (blockers now include k).
        if m + 2 <= n - 1 and smin[m + 2] < m + 1:
            continue
        yield Loop(
            observer=observer, edge=jk,
            l_side=tuple(cycle[1:m + 1]), r_side=tuple(cycle[m + 1:]),
        )


def iter_loops(
    graph: ShareGraph,
    observer: ReplicaId,
    target_edge: Optional[Edge] = None,
    max_loop_length: Optional[int] = None,
) -> Iterator[Loop]:
    """Iterate over ``(observer, e_jk)``-loops in the share graph.

    Parameters
    ----------
    graph:
        The share graph.
    observer:
        The replica ``i``.
    target_edge:
        If given, only loops witnessing this specific edge are produced.
    max_loop_length:
        If given, only loops with at most this many vertices are considered
        (Appendix D's bounded-loop-length relaxation).
    """
    for cycle in graph.simple_cycles_through(observer, max_length=max_loop_length):
        yield from _loops_from_cycle(graph, observer, cycle, target_edge=target_edge)


#: ``survives(u, v, blocked)``: can a dependency still cross the edge between
#: ``u`` and ``v`` when ``blocked[x]`` l-side replicas store register ``x``?
Survives = Callable[[ReplicaId, ReplicaId, Mapping[Register, int]], bool]
#: A BFS tree rooted at the observer: ``(distance, parent)`` per replica reached.
_Tree = Tuple[Dict[ReplicaId, int], Dict[ReplicaId, ReplicaId]]


def decide_loop_edges(
    graph: ShareGraph,
    observer: ReplicaId,
    max_loop_length: Optional[int] = None,
    target_edge: Optional[Edge] = None,
    adjacency: Optional[Mapping[ReplicaId, Sequence[ReplicaId]]] = None,
    survives: Optional[Survives] = None,
) -> Tuple[FrozenSet[Edge], int]:
    """Decide which edges ``e_jk`` have an ``(observer, e_jk)``-loop.

    An iterative DFS over the chordless l-sides out of ``observer`` with one
    r-side BFS per l-side (see the module docstring for why that is exact).
    ``adjacency`` and ``survives`` default to the share graph and "a register
    of ``X_uv`` is stored by no blocker"; the client-server variant
    (Definition 27) passes the augmented adjacency and a predicate that also
    accepts client links.  Condition (i) always looks at registers only, and
    only real share-graph edges are candidates.

    Returns the witnessed edges (of ``target_edge`` alone, if given) and the
    number of l-sides visited, which tests pin on blow-up inputs.
    """
    if observer not in graph.placement:
        raise UnknownReplicaError(observer)
    share_adjacency, shared, holders = graph.index()
    if adjacency is None:
        adjacency = share_adjacency
    if survives is None:
        def survives(u: ReplicaId, v: ReplicaId, blocked: Mapping[Register, int]) -> bool:
            for x in shared[(u, v)]:
                if not blocked[x]:
                    return True
            return False
    limit = max_loop_length if max_loop_length is not None else len(adjacency)
    wanted = {
        e for e in (graph.edges if target_edge is None else (target_edge,))
        if e in graph.edges and observer not in e
    }
    witnessed: Set[Edge] = set()

    # State pushed and popped along the current l-side l_1..l_s:
    path: List[ReplicaId] = []
    on_path: Set[ReplicaId] = {observer}
    #: l-side replicas storing each register (the observer blocks nothing).
    blocked: Dict[Register, int] = dict.fromkeys(holders, 0)
    #: neighbours each replica has on {observer} ∪ l-side; extending by a
    #: replica with any neighbour there besides the tip would add a chord.
    touch: Dict[ReplicaId, int] = dict.fromkeys(adjacency, 0)
    for v in adjacency[observer]:
        touch[v] += 1
    #: per l-side, the BFS tree (dist, parent) of its r-side graph — None if
    #: that l-side had no candidate edge to ask about.
    trees: List[Optional[_Tree]] = []

    def bfs(depth: int) -> _Tree:
        dist: Dict[ReplicaId, int] = {observer: 0}
        parent: Dict[ReplicaId, ReplicaId] = {}
        frontier = [observer]
        for d in range(1, depth + 1):
            reached = []
            for u in frontier:
                for v in adjacency[u]:
                    if v not in dist and v not in on_path and survives(u, v, blocked):
                        dist[v] = d
                        parent[v] = u
                        reached.append(v)
            if not reached:
                break
            frontier = reached
        return dist, parent

    def inherited(k: ReplicaId, fresh: List[Register]) -> bool:
        """Is the parent l-side's tree still the BFS tree once ``k`` joins?

        Yes if ``k`` is a leaf of it (or absent) and every other tree edge
        survives the registers ``fresh`` that ``k`` is first to block: the
        r-side graph only shrank, and the tree still spans the same replicas
        at the same depths.  This keeps a ring linear per observer.
        """
        if not trees or trees[-1] is None:
            return False
        parent = trees[-1][1]
        for v in adjacency[k]:
            if v not in on_path and parent.get(v) == k:
                return False
        for x in fresh:
            for u in holders[x]:
                if u != k and u in parent and not survives(u, parent[u], blocked):
                    return False
        return True

    visited = 0
    stack = [iter(adjacency[observer])]
    while stack and wanted:
        k = next(stack[-1], None)
        if k is None:
            stack.pop()
            if path:
                tip = path.pop()
                trees.pop()
                on_path.remove(tip)
                for x in graph.registers_at(tip):
                    blocked[x] -= 1
                for v in adjacency[tip]:
                    touch[v] -= 1
            continue
        # A loop needs i, the l-side and at least j: s + 2 <= limit.
        if k in on_path or touch[k] != 1 or len(path) + 3 > limit:
            continue
        visited += 1
        on_path.add(k)
        # With blockers regs(l_1..l_{s-1}): conditions (i) and (ii).
        pending = []
        for j in share_adjacency[k]:
            if j in on_path or (j, k) not in wanted:
                continue
            if all(blocked[x] for x in shared[(j, k)]):
                continue
            firsts = [
                r for r in adjacency[j]
                if (r == observer or r not in on_path) and survives(j, r, blocked)
            ]
            if firsts:
                pending.append(((j, k), firsts))
        fresh = []
        for x in graph.registers_at(k):
            if not blocked[x]:
                fresh.append(x)
            blocked[x] += 1
        for v in adjacency[k]:
            touch[v] += 1
        path.append(k)
        # With blockers regs(l_1..l_s): condition (iii) is reachability.
        tree = None
        if pending:
            room = limit - len(path) - 2
            tree = trees[-1] if inherited(k, fresh) else bfs(room)
            dist = tree[0]
            for e, firsts in pending:
                if min(dist.get(r, limit) for r in firsts) <= room:
                    wanted.discard(e)
                    witnessed.add(e)
        trees.append(tree)
        stack.append(iter(adjacency[k]))
    return frozenset(witnessed), visited


def has_loop(
    graph: ShareGraph,
    observer: ReplicaId,
    jk: Edge,
    max_loop_length: Optional[int] = None,
) -> bool:
    """``True`` iff at least one ``(observer, e_jk)``-loop exists."""
    return bool(decide_loop_edges(graph, observer, max_loop_length, target_edge=jk)[0])


def find_loop(
    graph: ShareGraph,
    observer: ReplicaId,
    jk: Edge,
    max_loop_length: Optional[int] = None,
) -> Optional[Loop]:
    """Return a witnessing ``(observer, e_jk)``-loop, or ``None``."""
    for loop in iter_loops(graph, observer, target_edge=jk, max_loop_length=max_loop_length):
        return loop
    return None


def loop_edges(
    graph: ShareGraph,
    observer: ReplicaId,
    max_loop_length: Optional[int] = None,
) -> FrozenSet[Edge]:
    """All edges ``e_jk`` (``j ≠ i ≠ k``) witnessed by some ``(i, e_jk)``-loop.

    This is the "loop part" of replica ``i``'s timestamp graph edge set; the
    full edge set additionally contains all edges incident on ``i``
    (:func:`repro.core.timestamp_graph.timestamp_edges`).
    """
    return decide_loop_edges(graph, observer, max_loop_length)[0]


def loops_by_edge(
    graph: ShareGraph,
    observer: ReplicaId,
    max_loop_length: Optional[int] = None,
) -> Dict[Edge, List[Loop]]:
    """Group every ``(observer, ·)``-loop by the edge it witnesses."""
    grouped: Dict[Edge, List[Loop]] = {}
    for loop in iter_loops(graph, observer, max_loop_length=max_loop_length):
        grouped.setdefault(loop.edge, []).append(loop)
    return grouped
