"""Edge-indexed vector timestamps and the paper's ``advance`` / ``merge`` / ``J``.

The algorithm of Section 3.3 equips every replica ``i`` with a vector
timestamp ``τ_i`` indexed by the edges of its timestamp graph ``E_i``
(:mod:`repro.core.timestamp_graph`).  The three protocol operations are:

``advance(i, τ_i, x, v)``
    On a local write of register ``x``, increment ``τ_i[e_ik]`` for every
    tracked outgoing edge ``e_ik`` whose head ``k`` also stores ``x``.

``merge(i, τ_i, k, T)``
    On applying a remote update issued by ``k`` with timestamp ``T``, take
    the element-wise maximum over the commonly tracked edges ``E_i ∩ E_k``
    and keep ``τ_i`` elsewhere.

``J(i, τ_i, k, T)``
    A pending update from ``k`` may be applied once
    ``τ_i[e_ki] = T[e_ki] − 1`` (it is the next update ``k`` sent to ``i``)
    and ``τ_i[e_ji] ≥ T[e_ji]`` for every other commonly tracked incoming
    edge ``e_ji`` (all causal predecessors that must arrive over those edges
    have already been applied).

Different replicas track different edge sets, so two timestamps generally
have different lengths and index sets; the operations above are defined to
cope with that non-uniformity exactly as in the paper.

Two notes on how the library applies these definitions in practice:

* Predicate ``J`` is *not* evaluated by rescanning the whole pending buffer
  after every apply (the naive reading of step 4 of the prototype, and how
  the seed implementation worked).  Since PR 1, replicas evaluate the
  predicate once per recheck through
  :meth:`~repro.core.protocol.CausalReplica.blocking_key`, park each
  blocked message under the exact conjunct that failed (a ``("seq", e_ki,
  n)`` or ``("ge", e_ji)`` wake key), and re-examine only the messages a
  later merge plausibly unblocked.  The functions below remain the
  readable reference semantics and are what the differential tests check
  the indexed path against.
* Under dynamic membership (:mod:`repro.sim.reconfig`) the index set of a
  timestamp changes between epochs: :meth:`EdgeTimestamp.migrated` projects
  a timestamp onto a new edge set, keeping surviving counters, dropping
  counters of removed edges and zero-initialising new ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Tuple

from .._speedups import tsops
from .errors import ProtocolError
from .registers import Register, ReplicaId
from .share_graph import Edge, ShareGraph
from .timestamp_graph import TimestampGraph


@dataclass(frozen=True)
class EdgeTimestamp:
    """An immutable edge-indexed vector timestamp.

    The timestamp is a mapping from directed share-graph edges to
    non-negative integers.  All protocol operations return new instances;
    replicas simply rebind their current timestamp.

    Attributes
    ----------
    counters:
        Mapping ``edge -> count``.  Every edge in the owning replica's
        timestamp graph is present (missing edges behave as zero for reads
        but are materialised at construction time so that serialized sizes
        are faithful).
    """

    counters: Mapping[Edge, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean: Dict[Edge, int] = {}
        for e, value in dict(self.counters).items():
            if len(e) != 2:
                raise ProtocolError(f"timestamp index {e!r} is not a directed edge")
            if value < 0:
                raise ProtocolError(f"negative counter for edge {e!r}: {value}")
            clean[(e[0], e[1])] = int(value)
        object.__setattr__(self, "counters", clean)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, edges: Iterable[Edge]) -> "EdgeTimestamp":
        """The all-zero timestamp over an index set (initial replica state)."""
        return cls({e: 0 for e in edges})

    @classmethod
    def _from_validated(cls, counters: Dict[Edge, int]) -> "EdgeTimestamp":
        """Fast internal constructor for counters derived from a validated
        instance (functional updates run on every write/apply, so they skip
        re-validating each entry)."""
        instance = object.__new__(cls)
        object.__setattr__(instance, "counters", counters)
        return instance

    #: Instance caches that depend on the index set alone, never on the
    #: counter values: the edge set and the wire codecs' layouts
    #: (:mod:`repro.wire.codecs`).
    _INDEX_SET_CACHES = ("_edges", "_wire_layout", "_wire_matrix_layout")

    def successor(self, counters: Dict[Edge, int]) -> "EdgeTimestamp":
        """A timestamp over this one's index set holding ``counters``.

        ``counters`` must have exactly this timestamp's keys (an
        ``advance`` or ``merge`` result).  The successor inherits the
        index-set caches, so a replica's ``τ_i`` builds its codec layout
        once, not once per write.
        """
        instance = EdgeTimestamp._from_validated(counters)
        state, inherited = self.__dict__, instance.__dict__
        for name in self._INDEX_SET_CACHES:
            cached = state.get(name)
            if cached is not None:
                inherited[name] = cached
        return instance

    # ------------------------------------------------------------------
    # Mapping-style access
    # ------------------------------------------------------------------
    def __getitem__(self, e: Edge) -> int:
        return self.counters.get(e, 0)

    def get(self, e: Edge, default: int = 0) -> int:
        """Counter for ``e``, or ``default`` when the edge is not indexed."""
        return self.counters.get(e, default)

    def __contains__(self, e: object) -> bool:
        return e in self.counters

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.counters)

    def __len__(self) -> int:
        return len(self.counters)

    @property
    def edges(self) -> FrozenSet[Edge]:
        """The index set of this timestamp (cached; the instance is immutable)."""
        cached = self.__dict__.get("_edges")
        if cached is None:
            cached = frozenset(self.counters)
            object.__setattr__(self, "_edges", cached)
        return cached

    def items(self) -> Iterable[Tuple[Edge, int]]:
        """Iterate over ``(edge, count)`` pairs."""
        return self.counters.items()

    def total(self) -> int:
        """Sum of all counters (handy in tests and monotonicity checks)."""
        return sum(self.counters.values())

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------
    def incremented(self, edges: Iterable[Edge]) -> "EdgeTimestamp":
        """Return a copy with the given indexed edges incremented by one."""
        counters = dict(self.counters)
        for e in edges:
            if e in counters:
                counters[e] += 1
        return self.successor(counters)

    def migrated(self, edges: Iterable[Edge]) -> "EdgeTimestamp":
        """Project this timestamp onto a new index set (epoch migration).

        Surviving edges keep their counters, edges absent from ``edges``
        are dropped (the garbage-collection half of a *leave* or edge
        removal), and new edges start at zero (the widening half of a
        *join* or edge addition) — new edges carried no updates in any
        earlier epoch, so zero is their true count.
        """
        counters = self.counters
        return EdgeTimestamp._from_validated(
            {(e[0], e[1]): counters.get(e, 0) for e in edges}
        )

    def merged_with(self, other: "EdgeTimestamp",
                    shared_edges: Optional[Iterable[Edge]] = None) -> "EdgeTimestamp":
        """Element-wise maximum over ``shared_edges`` (default: all common edges)."""
        counters = dict(self.counters)
        if shared_edges is None:
            # Iterate the other side's entries directly instead of
            # materialising the index-set intersection (hot path: one merge
            # per apply).
            for e, value in other.counters.items():
                current = counters.get(e)
                if current is not None and value > current:
                    counters[e] = value
        else:
            for e in shared_edges:
                if e in counters:
                    counters[e] = max(counters[e], other.get(e))
        return self.successor(counters)

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def dominates(self, other: "EdgeTimestamp") -> bool:
        """``True`` iff this timestamp is ≥ ``other`` on every common edge."""
        return all(self.get(e) >= other.get(e) for e in other.edges & self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeTimestamp):
            return NotImplemented
        return self.counters == other.counters

    def __hash__(self) -> int:
        # Cached on the instance: timestamps are immutable and hashed
        # repeatedly (dedup sets, snapshot comparisons) but the frozenset
        # build is linear in the index set.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(frozenset(self.counters.items()))
            object.__setattr__(self, "_hash", cached)
        return cached

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    def size_counters(self) -> int:
        """Number of integer counters carried (the paper's metadata measure)."""
        return len(self.counters)

    def size_bits(self, max_updates: Optional[int] = None) -> float:
        """Size in bits.

        If ``max_updates`` is given every counter is charged
        ``log2(max_updates + 1)`` bits; otherwise each counter is charged its
        own ``log2(count + 1)`` bits (a best-case variable-length encoding).
        """
        if max_updates is not None:
            return len(self.counters) * math.log2(max_updates + 1)
        return sum(math.log2(v + 1) for v in self.counters.values()) or float(
            len(self.counters)
        ) * 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"e_{a}{b}={v}" for (a, b), v in sorted(self.counters.items())
        )
        return f"<{parts}>"


# ----------------------------------------------------------------------
# The paper's protocol operations (Section 3.3)
# ----------------------------------------------------------------------

def advance(
    graph: ShareGraph,
    tgraph: TimestampGraph,
    tau: EdgeTimestamp,
    register: Register,
) -> EdgeTimestamp:
    """``advance(i, τ_i, x, v)``: timestamp attached to a local write.

    Increments the counter of every tracked outgoing edge ``e_ik`` such that
    the head ``k`` also stores ``register``.  The value ``v`` being written
    is irrelevant to the metadata and therefore not a parameter.
    """
    i = tgraph.replica_id
    bumped = [
        (i, k)
        for (j, k) in tgraph.edges
        if j == i and register in graph.shared_registers(i, k)
    ]
    return tau.incremented(bumped)


def merge(
    tgraph_i: TimestampGraph,
    tau_i: EdgeTimestamp,
    tgraph_k: TimestampGraph,
    tau_k: EdgeTimestamp,
) -> EdgeTimestamp:
    """``merge(i, τ_i, k, T)``: new timestamp of ``i`` after applying ``k``'s update.

    Takes the element-wise maximum over the commonly tracked edges
    ``E_i ∩ E_k`` and leaves the rest of ``τ_i`` unchanged.
    """
    shared = tgraph_i.edges & tgraph_k.edges
    return tau_i.merged_with(tau_k, shared_edges=shared)


def delivery_predicate(
    tgraph_i: TimestampGraph,
    tau_i: EdgeTimestamp,
    sender: ReplicaId,
    tgraph_k: TimestampGraph,
    tau_k: EdgeTimestamp,
) -> bool:
    """Predicate ``J(i, τ_i, k, T)`` deciding whether a pending update applies.

    ``True`` iff ``τ_i[e_ki] = T[e_ki] − 1`` and, for every other commonly
    tracked incoming edge ``e_ji`` (``j ≠ k``), ``τ_i[e_ji] ≥ T[e_ji]``.
    """
    i = tgraph_i.replica_id
    if sender == i:
        raise ProtocolError("the delivery predicate is only defined for remote updates")
    ki = (sender, i)
    if tau_i.get(ki) != tau_k.get(ki) - 1:
        return False
    shared = tgraph_i.edges & tgraph_k.edges
    for e in shared:
        j, head = e
        if head != i or j == sender:
            continue
        if tau_i.get(e) < tau_k.get(e):
            return False
    return True


# ----------------------------------------------------------------------
# Classical vector clocks (used by the full-replication baseline)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class VectorTimestamp:
    """A classical replica-indexed vector timestamp (Fidge/Mattern style).

    Used by the full-replication baseline (Lazy Replication [21]); under full
    replication a vector of length ``R`` suffices for causal consistency, and
    the paper notes the edge-indexed timestamp compresses down to this.
    """

    counters: Mapping[ReplicaId, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {int(r): int(v) for r, v in dict(self.counters).items()}
        for r, v in clean.items():
            if v < 0:
                raise ProtocolError(f"negative vector-clock entry for replica {r}")
        object.__setattr__(self, "counters", clean)

    @classmethod
    def zero(cls, replica_ids: Iterable[ReplicaId]) -> "VectorTimestamp":
        """The all-zero vector over the given replicas."""
        return cls({r: 0 for r in replica_ids})

    @classmethod
    def _from_validated(cls, counters: Dict[ReplicaId, int]) -> "VectorTimestamp":
        """Fast internal constructor for counters derived from a validated
        instance (one merge runs per apply, so functional updates skip the
        per-entry coercion of ``__post_init__``)."""
        instance = object.__new__(cls)
        object.__setattr__(instance, "counters", counters)
        return instance

    def __getitem__(self, replica_id: ReplicaId) -> int:
        return self.counters.get(replica_id, 0)

    def get(self, replica_id: ReplicaId, default: int = 0) -> int:
        """Entry for ``replica_id`` or ``default``."""
        return self.counters.get(replica_id, default)

    def __len__(self) -> int:
        return len(self.counters)

    def items(self) -> Iterable[Tuple[ReplicaId, int]]:
        """Iterate over ``(replica, count)`` pairs."""
        return self.counters.items()

    def total(self) -> int:
        """Sum of all entries (cached; the instance is immutable).

        Feeds the fused delivery check's no-scan accept
        (:func:`repro._speedups._tsops_py.vector_try_apply`): with the FIFO
        conjunct pinning the sender entry, the total determines whether any
        other entry can be nonzero.
        """
        cached = self.__dict__.get("_total")
        if cached is None:
            cached = sum(self.counters.values())
            object.__setattr__(self, "_total", cached)
        return cached

    def incremented(self, replica_id: ReplicaId) -> "VectorTimestamp":
        """Return a copy with ``replica_id``'s entry incremented."""
        counters = dict(self.counters)
        counters[int(replica_id)] = counters.get(replica_id, 0) + 1
        return VectorTimestamp._from_validated(counters)

    def merged_with(self, other: "VectorTimestamp") -> "VectorTimestamp":
        """Element-wise maximum (over the union of index sets)."""
        merged, _ = tsops.merge_union(self.counters, other.counters)
        return VectorTimestamp._from_validated(merged)

    def dominates(self, other: "VectorTimestamp") -> bool:
        """``True`` iff every entry is ≥ the corresponding entry of ``other``."""
        return all(self.get(r) >= v for r, v in other.items())

    def size_counters(self) -> int:
        """Number of integer counters carried."""
        return len(self.counters)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorTimestamp):
            return NotImplemented
        return self.counters == other.counters

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(frozenset(self.counters.items()))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{r}={v}" for r, v in sorted(self.counters.items()))
        return f"[{parts}]"
