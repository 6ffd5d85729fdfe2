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

How a timestamp is stored.  A timestamp is *positional*: an
:class:`IndexSet` — its entries in canonical order (sorted, which is also
the wire order), interned, so every timestamp over the same set shares one
object — and a list of counters aligned to it.  Every per-entry step is
list indexing at precomputed positions; none hashes an edge:

* ``advance`` bumps the positions of the edges towards the register's
  co-owners (:meth:`EdgeTimestamp.advanced`; the replica computes them once
  per register);
* ``merge`` walks the ``(local position, remote position)`` gather map of
  ``E_i ∩ E_k``, built once per pair of index sets
  (:meth:`IndexSet.gather`);
* ``J`` reads the incoming-edge position pairs of :func:`predicate_plan`,
  built once per pair of index sets at a replica;
* the wire codecs (:mod:`repro.wire.codecs`) keep each family's layout —
  pre-encoded atoms and prefix — on the index set, find a delta frame's
  raised positions by comparing two counter lists, and apply a received
  delta's position gaps onto a copy of the previous list.

The ``Mapping`` read API (``ts[e]``, ``get``, ``items``, ``edges``,
:attr:`~EdgeTimestamp.counters`) is a view for tests, the consistency
checker, reports and the readable reference functions below.

Two notes on how the library applies these definitions in practice:

* Predicate ``J`` is *not* evaluated by rescanning the whole pending buffer
  after every apply (the naive reading of step 4 of the prototype, and how
  the seed implementation worked).  Replicas evaluate the predicate once
  per recheck through
  :meth:`~repro.core.protocol.CausalReplica.blocking_key`, park each
  blocked message under the exact conjunct that failed (a ``("seq", e_ki,
  n)`` or ``("ge", e_ji)`` wake key), and re-examine only the messages a
  later merge plausibly unblocked.  The functions at the end of this module
  remain the readable reference semantics and are what the differential
  tests check the indexed path against.
* Under dynamic membership (:mod:`repro.sim.reconfig`) the index set of a
  timestamp changes between epochs: :meth:`EdgeTimestamp.migrated` projects
  a timestamp onto a new index set, keeping surviving counters, dropping
  counters of removed edges and zero-initialising new ones.
"""

from __future__ import annotations

import math
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)
from weakref import WeakValueDictionary

from .._speedups import tsops
from .errors import ProtocolError
from .registers import Register, ReplicaId
from .share_graph import Edge, ShareGraph
from .timestamp_graph import TimestampGraph

#: ``(local position, remote position)`` of every entry two index sets share.
Gather = Tuple[Tuple[int, int], ...]
#: ``(edge, local position, remote position)``; ``-1`` where a side lacks it.
PlanEntry = Tuple[Edge, int, int]


class IndexSet:
    """One timestamp index set, in canonical (sorted, wire) order.

    Interned: :func:`index_set` returns the one live object per set of
    entries, so identity is equality — a replica's ``τ_i`` keeps its index
    set for a whole epoch, and every timestamp an issuer stamps (or a
    receiver decodes from it) shares the issuer's.  What depends on the
    entries alone, never on counter values, is computed once here: the
    entry -> position map, each codec family's wire layout
    (:mod:`repro.wire.codecs`) and the gather maps to other index sets.
    """

    __slots__ = ("entries", "position", "layouts", "_gathers", "_frozen", "__weakref__")

    def __init__(self, entries: Tuple[Any, ...]) -> None:
        # Use :func:`index_set`; a directly built instance is not interned.
        self.entries = entries
        self.position: Dict[Any, int] = {e: p for p, e in enumerate(entries)}
        #: Wire layouts by codec shape, filled by :mod:`repro.wire.codecs`.
        self.layouts: Dict[str, Any] = {}
        self._gathers: Dict["IndexSet", Gather] = {}
        self._frozen: Optional[FrozenSet[Any]] = None

    def __len__(self) -> int:
        return len(self.entries)

    def __reduce__(self) -> Tuple[Any, tuple]:
        # Unpickling interns again, so a restored timestamp shares the live
        # index set (and its caches) of every other timestamp over it.
        return (_interned, (self.entries,))

    def __deepcopy__(self, memo: Dict) -> "IndexSet":
        # Interned and never mutated past its caches: a copy is itself.
        return self

    @property
    def frozen(self) -> FrozenSet[Any]:
        """The entries as a frozenset (built once)."""
        if self._frozen is None:
            self._frozen = frozenset(self.entries)
        return self._frozen

    def gather(self, other: "IndexSet") -> Gather:
        """``(position here, position in other)`` of every shared entry, in
        this set's order; built once per ``other``."""
        pairs = self._gathers.get(other)
        if pairs is None:
            position = other.position
            pairs = self._gathers[other] = tuple(
                (p, position[e]) for p, e in enumerate(self.entries) if e in position
            )
        return pairs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IndexSet({list(self.entries)!r})"


_INTERNED: "WeakValueDictionary[Tuple[Any, ...], IndexSet]" = WeakValueDictionary()


def _interned(entries: Tuple[Any, ...]) -> IndexSet:
    """The index set over ``entries``, which are already canonical."""
    found = _INTERNED.get(entries)
    if found is None:
        found = _INTERNED[entries] = IndexSet(entries)
    return found


def index_set(entries: Iterable[Any]) -> IndexSet:
    """The interned index set over ``entries`` (any order; duplicates collapse)."""
    return _interned(tuple(sorted(set(entries))))


def known_index_set(entries: Tuple[Any, ...]) -> Optional[IndexSet]:
    """The live index set whose canonical entries are exactly ``entries``,
    or ``None`` (a decoder's fast path for a full frame)."""
    return _INTERNED.get(entries)


def predicate_plan(local: IndexSet, remote: IndexSet,
                   me: ReplicaId) -> Tuple[Tuple[PlanEntry, ...], Tuple[PlanEntry, ...]]:
    """What predicate ``J`` at replica ``me`` reads of a remote timestamp.

    Returns ``(fifo, monotone)``: ``fifo`` lists every incoming edge
    ``e_ji`` of either index set, sorted, with ``-1`` for a side that does
    not index it (the FIFO conjunct finds ``e_ki`` there by its tail);
    ``monotone`` the incoming edges both index (the ``≥`` conjuncts).
    """
    lpos, rpos = local.position, remote.position
    incoming = sorted({e for e in local.entries if e[1] == me}
                      | {e for e in remote.entries if e[1] == me})
    fifo = tuple((e, lpos.get(e, -1), rpos.get(e, -1)) for e in incoming)
    monotone = tuple(entry for entry in fifo if entry[1] >= 0 and entry[2] >= 0)
    return fifo, monotone


def incoming_mask(index: IndexSet, me: ReplicaId) -> List[bool]:
    """Per position of ``index``: is the entry an incoming edge of ``me``?"""
    return [e[1] == me for e in index.entries]


_T = TypeVar("_T", bound="_PositionalTimestamp")


class _PositionalTimestamp:
    """An immutable counter list over an :class:`IndexSet`, with the
    ``Mapping`` read API.  All functional updates return new instances;
    the counter list is never mutated once built."""

    __slots__ = ("index", "values", "counter_bytes")

    index: IndexSet
    #: The counters, aligned to ``index.entries``.
    values: List[int]
    #: The counters' total varint size on the wire, or ``-1`` until a
    #: codec sizes it (:meth:`repro.wire.codecs.TimestampCodec.full_frame_size`;
    #: a delta frame derives it from the previous timestamp's).
    counter_bytes: int

    @classmethod
    def _of(cls: "type[_T]", index: IndexSet, values: List[int]) -> _T:
        """A timestamp over ``index`` holding ``values`` (not validated:
        for counters derived from a validated instance or decoded)."""
        ts = object.__new__(cls)
        ts.index = index
        ts.values = values
        ts.counter_bytes = -1
        return ts

    @classmethod
    def _from_validated(cls: "type[_T]", counters: Mapping[Any, int]) -> _T:
        """A timestamp holding ``counters`` as given, for counters already
        checked (by a constructor) or taken from another timestamp."""
        index = index_set(counters)
        return cls._of(index, [counters[e] for e in index.entries])

    def __reduce__(self) -> Tuple[Any, tuple]:
        return (_restore, (type(self), self.index, self.values))

    def __deepcopy__(self: _T, memo: Dict) -> _T:
        # Immutable, so a deep copy (a replica snapshot) can share it.
        return self

    # ------------------------------------------------------------------
    # Mapping-style access (a view: tests, the checker, reports)
    # ------------------------------------------------------------------
    @property
    def counters(self) -> Dict[Any, int]:
        """``entry -> count`` as a fresh dict."""
        return dict(zip(self.index.entries, self.values))

    def __getitem__(self, e: Any) -> int:
        return self.get(e, 0)

    def get(self, e: Any, default: int = 0) -> int:
        """Counter for ``e``, or ``default`` when ``e`` is not indexed."""
        position = self.index.position.get(e)
        return default if position is None else self.values[position]

    def __contains__(self, e: object) -> bool:
        return e in self.index.position

    def __iter__(self) -> Iterator[Any]:
        return iter(self.index.entries)

    def __len__(self) -> int:
        return len(self.values)

    def items(self) -> List[Tuple[Any, int]]:
        """``(entry, count)`` pairs in canonical order."""
        return list(zip(self.index.entries, self.values))

    def total(self) -> int:
        """Sum of all counters."""
        return sum(self.values)

    def size_counters(self) -> int:
        """Number of integer counters carried (the paper's metadata measure)."""
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.index is other.index and self.values == other.values  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((self.index.entries, tuple(self.values)))

    def _over(self: _T, index: IndexSet) -> _T:
        """This timestamp projected onto ``index`` (zero where it has no
        entry)."""
        if index is self.index:
            return self
        position, values = self.index.position, self.values
        return self._of(index, [
            values[position[e]] if e in position else 0 for e in index.entries
        ])


def _restore(cls: type, index: IndexSet, values: List[int]) -> Any:
    return cls._of(index, values)


class EdgeTimestamp(_PositionalTimestamp):
    """An immutable edge-indexed vector timestamp.

    ``EdgeTimestamp({edge: count, ...})`` validates and builds one from a
    mapping; every edge of the owning replica's timestamp graph is present
    (missing edges read as zero but are materialised at construction so
    that serialized sizes are faithful).
    """

    __slots__ = ()

    def __new__(cls, counters: Mapping[Edge, int] = ()) -> "EdgeTimestamp":  # type: ignore[assignment]
        clean: Dict[Edge, int] = {}
        for e, value in dict(counters).items():
            if len(e) != 2:
                raise ProtocolError(f"timestamp index {e!r} is not a directed edge")
            if value < 0:
                raise ProtocolError(f"negative counter for edge {e!r}: {value}")
            clean[(e[0], e[1])] = int(value)
        return cls._from_validated(clean)

    @classmethod
    def zero(cls, edges: Iterable[Edge]) -> "EdgeTimestamp":
        """The all-zero timestamp over an index set (initial replica state)."""
        index = index_set((e[0], e[1]) for e in edges)
        return cls._of(index, [0] * len(index))

    @property
    def edges(self) -> FrozenSet[Edge]:
        """The index set of this timestamp."""
        return self.index.frozen

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------
    def advanced(self, positions: Tuple[int, ...]) -> "EdgeTimestamp":
        """``advance`` at precomputed positions: each counter there + 1."""
        return EdgeTimestamp._of(self.index, tsops.advance(self.values, positions))

    def incremented(self, edges: Iterable[Edge]) -> "EdgeTimestamp":
        """Return a copy with the given indexed edges incremented by one."""
        position = self.index.position
        return self.advanced(tuple(position[e] for e in edges if e in position))

    def migrated(self, edges: Iterable[Edge]) -> "EdgeTimestamp":
        """Project this timestamp onto a new index set (epoch migration).

        Surviving edges keep their counters, edges absent from ``edges``
        are dropped (the garbage-collection half of a *leave* or edge
        removal), and new edges start at zero (the widening half of a
        *join* or edge addition) — new edges carried no updates in any
        earlier epoch, so zero is their true count.
        """
        return self._over(index_set((e[0], e[1]) for e in edges))

    def merged_with(self, other: "EdgeTimestamp",
                    shared_edges: Optional[Iterable[Edge]] = None) -> "EdgeTimestamp":
        """Element-wise maximum over ``shared_edges`` (default: all common edges)."""
        pairs = self.index.gather(other.index)
        if shared_edges is not None:
            chosen = frozenset(shared_edges)
            entries = self.index.entries
            pairs = tuple(pair for pair in pairs if entries[pair[0]] in chosen)
        merged, raised = tsops.merge_pairs(self.values, other.values, pairs)
        return EdgeTimestamp._of(self.index, merged) if raised else self

    # ------------------------------------------------------------------
    # Comparisons and sizes
    # ------------------------------------------------------------------
    def dominates(self, other: "EdgeTimestamp") -> bool:
        """``True`` iff this timestamp is ≥ ``other`` on every common edge."""
        mine, theirs = self.values, other.values
        return all(mine[p] >= theirs[q] for p, q in self.index.gather(other.index))

    def size_bits(self, max_updates: Optional[int] = None) -> float:
        """Size in bits.

        If ``max_updates`` is given every counter is charged
        ``log2(max_updates + 1)`` bits; otherwise each counter is charged its
        own ``log2(count + 1)`` bits (a best-case variable-length encoding).
        """
        if max_updates is not None:
            return len(self.values) * math.log2(max_updates + 1)
        return float(sum(math.log2(v + 1) for v in self.values))

    def __repr__(self) -> str:
        return f"EdgeTimestamp({self.counters!r})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"e_{a}{b}={v}" for (a, b), v in self.items())
        return f"<{parts}>"


# ----------------------------------------------------------------------
# The paper's protocol operations (Section 3.3) — the readable reference
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

class VectorTimestamp(_PositionalTimestamp):
    """A classical replica-indexed vector timestamp (Fidge/Mattern style).

    Used by the full-replication baseline (Lazy Replication [21]); under full
    replication a vector of length ``R`` suffices for causal consistency, and
    the paper notes the edge-indexed timestamp compresses down to this.
    Stored like :class:`EdgeTimestamp`, over an index set of replica ids;
    its merge is over the *union* of the two index sets.
    """

    __slots__ = ("_total",)

    def __new__(cls, counters: Mapping[ReplicaId, int] = ()) -> "VectorTimestamp":  # type: ignore[assignment]
        clean = {int(r): int(v) for r, v in dict(counters).items()}
        for r, v in clean.items():
            if v < 0:
                raise ProtocolError(f"negative vector-clock entry for replica {r}")
        return cls._from_validated(clean)

    @classmethod
    def _of(cls, index: IndexSet, values: List[int]) -> "VectorTimestamp":
        ts = super()._of(index, values)
        ts._total = -1
        return ts

    @classmethod
    def zero(cls, replica_ids: Iterable[ReplicaId]) -> "VectorTimestamp":
        """The all-zero vector over the given replicas."""
        index = index_set(int(r) for r in replica_ids)
        return cls._of(index, [0] * len(index))

    def total(self) -> int:
        """Sum of all entries (cached; the instance is immutable).

        Feeds the fused delivery check's no-scan accept
        (:func:`repro._speedups._tsops_py.vector_try_apply`): with the FIFO
        conjunct pinning the sender entry, the total determines whether any
        other entry can be nonzero.
        """
        if self._total < 0:
            self._total = sum(self.values)
        return self._total

    def aligned(self, other: "VectorTimestamp") -> Tuple["VectorTimestamp", "VectorTimestamp"]:
        """Both vectors over one index set: the union of theirs (identity
        when they already share one, which every baseline replica does)."""
        if other.index is self.index:
            return self, other
        union = index_set(self.index.entries + other.index.entries)
        return self._over(union), other._over(union)

    def incremented(self, replica_id: ReplicaId) -> "VectorTimestamp":
        """Return a copy with ``replica_id``'s entry incremented."""
        position = self.index.position.get(replica_id)
        if position is None:
            widened = self._over(index_set(self.index.entries + (int(replica_id),)))
            return widened.incremented(replica_id)
        return VectorTimestamp._of(self.index, tsops.advance(self.values, (position,)))

    def merged_with(self, other: "VectorTimestamp") -> "VectorTimestamp":
        """Element-wise maximum (over the union of index sets)."""
        mine, theirs = self.aligned(other)
        merged, raised = tsops.merge_pairs(
            mine.values, theirs.values, mine.index.gather(mine.index)
        )
        return VectorTimestamp._of(mine.index, merged) if raised else mine

    def dominates(self, other: "VectorTimestamp") -> bool:
        """``True`` iff every entry is ≥ the corresponding entry of ``other``."""
        mine, theirs = self.aligned(other)
        return all(a >= b for a, b in zip(mine.values, theirs.values))

    def __repr__(self) -> str:
        return f"VectorTimestamp({self.counters!r})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{r}={v}" for r, v in self.items())
        return f"[{parts}]"
