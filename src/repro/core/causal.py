"""Happened-before relation, causal pasts and causal dependency graphs.

Definition 1 of the paper defines ``u1 ↪ u2`` (read "u1 happened before u2")
for updates: ``u1 ↪ u2`` iff ``u1`` was applied at some replica before that
same replica issued ``u2``, or the relation follows transitively.  Note that
issuing an update counts as applying it locally (step 2 of the prototype), so
a replica's own earlier updates always happen-before its later ones.

The checker (:mod:`repro.core.consistency`) recomputes this relation purely
from the replicas' issue/apply traces, independently of whatever metadata the
protocol under test maintained, so protocol bugs cannot hide behind their own
bookkeeping.

Definition 6 introduces the *causal past* of a replica (the set of updates it
has applied plus everything that happened before them) and the *causal
dependency graph* (that set plus the ``↪`` edges among its members); both are
provided here because the lower-bound machinery of Section 4 is phrased in
terms of causal pasts.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import networkx as nx

from .protocol import EventKind, ReplicaEvent, Update, UpdateId
from .registers import ReplicaId


@dataclass
class HappenedBefore:
    """The happened-before relation ``↪`` over a set of updates.

    Built from per-replica event traces with :meth:`from_events`.  Queries
    are lookups in each update's set of ``↪``-predecessors, built lazily the
    first time a query needs it, in one pass over a topological order of the
    direct edges.
    """

    #: All updates mentioned by the traces, keyed by uid.
    updates: Dict[UpdateId, Update] = field(default_factory=dict)
    #: Direct (non-transitive) happened-before edges, as uid pairs.
    direct_edges: Set[Tuple[UpdateId, UpdateId]] = field(default_factory=set)
    _predecessors: Optional[Dict[UpdateId, FrozenSet[UpdateId]]] = field(
        default=None, repr=False
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_events(
        cls, events_by_replica: Mapping[ReplicaId, Sequence[ReplicaEvent]]
    ) -> "HappenedBefore":
        """Recompute ``↪`` from per-replica issue/apply traces.

        For every replica, every update applied (or issued) at local position
        ``p`` happens before every update *issued* by that replica at a later
        position.  Only the edges from the events since the replica's
        previous issue, that issue included, are stored: everything earlier
        already happened before that issue, so the transitive closure — the
        full relation — is the same, from O(events) direct edges.
        """
        relation = cls()
        for replica_id, events in events_by_replica.items():
            since_issue: List[UpdateId] = []
            for event in events:
                if event.update is None:
                    continue
                uid = event.update.uid
                relation.updates.setdefault(uid, event.update)
                if event.kind is EventKind.ISSUE:
                    for prior in since_issue:
                        if prior != uid:
                            relation.direct_edges.add((prior, uid))
                    since_issue = [uid]
                elif event.kind is EventKind.APPLY:
                    since_issue.append(uid)
        return relation

    @classmethod
    def from_pairs(
        cls,
        updates: Iterable[Update],
        pairs: Iterable[Tuple[UpdateId, UpdateId]],
    ) -> "HappenedBefore":
        """Build the relation from an explicit set of direct edges (tests, examples)."""
        relation = cls()
        for update in updates:
            relation.updates[update.uid] = update
        relation.direct_edges = set(pairs)
        return relation

    def add_edges(self, pairs: Iterable[Tuple[UpdateId, UpdateId]]) -> None:
        """Add direct ``↪`` edges (a pair of one update with itself is
        skipped) and drop the predecessor sets built from the old ones."""
        self.direct_edges.update((u1, u2) for u1, u2 in pairs if u1 != u2)
        self._predecessors = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _ensure_predecessors(self) -> Dict[UpdateId, FrozenSet[UpdateId]]:
        """Each update's ``↪``-predecessors: the union of its direct
        predecessors and theirs, taken in topological order."""
        if self._predecessors is None:
            direct: Dict[UpdateId, Set[UpdateId]] = {uid: set() for uid in self.updates}
            for u1, u2 in self.direct_edges:
                direct.setdefault(u1, set())
                direct.setdefault(u2, set()).add(u1)
            predecessors: Dict[UpdateId, FrozenSet[UpdateId]] = {}
            for uid in graphlib.TopologicalSorter(direct).static_order():
                past = set(direct[uid])
                for parent in direct[uid]:
                    past |= predecessors[parent]
                predecessors[uid] = frozenset(past)
            self._predecessors = predecessors
        return self._predecessors

    def happened_before(self, u1: UpdateId, u2: UpdateId) -> bool:
        """``True`` iff ``u1 ↪ u2``."""
        return u1 in self._ensure_predecessors().get(u2, ())

    def concurrent(self, u1: UpdateId, u2: UpdateId) -> bool:
        """``True`` iff neither ``u1 ↪ u2`` nor ``u2 ↪ u1`` (and ``u1 ≠ u2``)."""
        if u1 == u2:
            return False
        return not self.happened_before(u1, u2) and not self.happened_before(u2, u1)

    def predecessors(self, uid: UpdateId) -> FrozenSet[UpdateId]:
        """All updates ``u'`` with ``u' ↪ uid``."""
        return self._ensure_predecessors().get(uid, frozenset())

    def successors(self, uid: UpdateId) -> FrozenSet[UpdateId]:
        """All updates ``u'`` with ``uid ↪ u'`` (a scan of every update's
        predecessors)."""
        return frozenset(u for u, past in self._ensure_predecessors().items()
                         if uid in past)

    def all_updates(self) -> Tuple[Update, ...]:
        """Every update mentioned by the relation, sorted by uid."""
        return tuple(self.updates[uid] for uid in sorted(self.updates))

    def to_networkx(self) -> nx.DiGraph:
        """The direct-edge relation as a DAG (nodes are update uids)."""
        graph = nx.DiGraph()
        graph.add_nodes_from(self.updates)
        graph.add_edges_from(self.direct_edges)
        return graph


@dataclass(frozen=True)
class CausalPast:
    """The causal past ``S`` of a replica (Definition 6).

    The set of updates the replica has applied together with every update
    that happened before any of them.
    """

    replica_id: ReplicaId
    update_ids: FrozenSet[UpdateId]

    def restricted_to_edge(
        self,
        relation: HappenedBefore,
        issuer: ReplicaId,
        registers: Iterable[str],
    ) -> FrozenSet[UpdateId]:
        """``S|e_jk``: updates in the past issued by ``issuer`` on the given registers."""
        registers = frozenset(registers)
        out = set()
        for uid in self.update_ids:
            update = relation.updates.get(uid)
            if update is None:
                continue
            if update.issuer == issuer and update.register in registers:
                out.add(uid)
        return frozenset(out)

    def __len__(self) -> int:
        return len(self.update_ids)

    def __contains__(self, uid: object) -> bool:
        return uid in self.update_ids


@dataclass(frozen=True)
class CausalDependencyGraph:
    """The causal dependency graph ``R`` of a replica (Definition 6).

    Vertices are the replica's causal past; edges are the ``↪`` pairs among
    them.  Lemma 7 observes that, under the algorithm prototype, a replica's
    timestamp is always a function of this graph.
    """

    replica_id: ReplicaId
    vertices: FrozenSet[UpdateId]
    edges: FrozenSet[Tuple[UpdateId, UpdateId]]

    @property
    def causal_past(self) -> CausalPast:
        """The vertex set viewed as a causal past."""
        return CausalPast(self.replica_id, self.vertices)

    def to_networkx(self) -> nx.DiGraph:
        """Export as a :mod:`networkx` DAG."""
        graph = nx.DiGraph()
        graph.add_nodes_from(self.vertices)
        graph.add_edges_from(self.edges)
        return graph


def causal_past_of(
    relation: HappenedBefore,
    replica_id: ReplicaId,
    applied: Iterable[UpdateId],
) -> CausalPast:
    """Compute a replica's causal past from the updates it has applied."""
    applied = set(applied)
    past = set(applied)
    for uid in applied:
        past |= relation.predecessors(uid)
    return CausalPast(replica_id, frozenset(past))


def dependency_graph_of(
    relation: HappenedBefore,
    replica_id: ReplicaId,
    applied: Iterable[UpdateId],
) -> CausalDependencyGraph:
    """Compute a replica's causal dependency graph from its applied updates."""
    past = causal_past_of(relation, replica_id, applied)
    edges = {
        (a, b)
        for a in past.update_ids
        for b in past.update_ids
        if a != b and relation.happened_before(a, b)
    }
    return CausalDependencyGraph(replica_id, past.update_ids, frozenset(edges))
