"""Timestamp kernels: advance, merge and delivery-predicate evaluation.

These are the per-write and per-apply inner loops of every replica family,
over positional timestamps (:mod:`repro.core.timestamps`): counter lists
aligned to an interned index set, read and written at positions the caller
precomputed once per index set.  No kernel hashes an index entry, and all
compile under mypyc (see :mod:`repro._speedups`).

Semantics are pinned by the callers' reference implementations: the
kernels never mutate their inputs (a raised counter goes into a fresh
list, which the caller wraps in a new immutable timestamp), report raised
positions in the local index order — the sorted order the pending index's
wake keys rely on — and the blocking kernels return exactly the wake key
the first failing conjunct of the delivery predicate defines, or ``None``
when the predicate holds.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple


def advance(values: List[int], positions: Tuple[int, ...]) -> List[int]:
    """A copy of ``values`` with the counter at each of ``positions`` + 1."""
    bumped = values.copy()
    for position in positions:
        bumped[position] += 1
    return bumped


def merge_pairs(
    local: List[int], remote: List[int], pairs: Tuple[Tuple[int, int], ...]
) -> Tuple[List[int], List[int]]:
    """Element-wise max of ``remote`` into ``local`` over a gather map.

    ``pairs`` holds ``(local position, remote position)`` of every shared
    entry, in local order.  Returns ``(merged, raised)``: ``raised`` lists
    the local positions the merge raised, in that order, and ``merged`` is
    ``local`` itself when it is empty (nothing to copy), a fresh list
    otherwise.
    """
    merged = local
    raised: List[int] = []
    for lp, rp in pairs:
        value = remote[rp]
        if value > merged[lp]:
            if not raised:
                merged = local.copy()
            merged[lp] = value
            raised.append(lp)
    return merged, raised


def vector_try_apply(
    local: List[int],
    remote: List[int],
    entries: Tuple[Any, ...],
    sender: int,
    remote_total: int = -1,
) -> Tuple[Optional[Tuple], Optional[List[int]], Optional[List[Tuple[Any, int]]]]:
    """Fused delivery check + merge for vector clocks: one scan, not two.

    ``local`` and ``remote`` share the index set ``entries``; ``sender`` is
    the sender's position in it.  When the classical causal-broadcast
    condition fails, returns ``(wake_key, None, None)``: ``("seq", k, n)``
    when the FIFO conjunct ``T[k] = τ[k] + 1`` fails, ``("ge", j)`` for the
    first other entry with ``T[j] > τ[j]``.  When it holds, the merge
    outcome is already determined by the condition itself —
    ``T[sender] = τ[sender] + 1`` and ``T[j] ≤ τ[j]`` everywhere else — so
    the same scan returns ``(None, merged, changed)``: ``merged`` is ``τ``
    with the sender entry bumped to ``n`` and ``changed`` is
    ``[(sender id, n)]``, exactly what a union merge would compute.

    ``remote_total``, when ≥ 0, is ``sum(remote)`` (callers cache it on the
    immutable timestamp).  It enables an exact no-scan accept: the FIFO
    conjunct already pins ``T[sender] = n``, so ``remote_total == n`` means
    every other entry of ``T`` is zero and the monotone conjuncts all hold
    trivially — the common case for concurrent writers whose updates carry
    no cross-replica dependencies.
    """
    n = remote[sender]
    if n != local[sender] + 1:
        return ("seq", entries[sender], n), None, None
    if remote_total != n:
        for position in range(len(remote)):
            if remote[position] > local[position] and position != sender:
                return ("ge", entries[position]), None, None
    merged = local.copy()
    merged[sender] = n
    return None, merged, [(entries[sender], n)]


def edge_blocking_key(
    local: List[int],
    remote: List[int],
    sender: Any,
    me: Any,
    fifo: Tuple[Tuple[Any, int, int], ...],
    monotone: Tuple[Tuple[Any, int, int], ...],
) -> Optional[Tuple]:
    """Predicate ``J(i, τ_i, k, T)`` of the paper, as a wake key (or ``None``).

    ``fifo`` and ``monotone`` are the replica's predicate plan for the
    remote index set (:func:`repro.core.timestamps.predicate_plan`):
    ``(edge, local position, remote position)`` of the incoming edges,
    ``-1`` where a side does not index one.  The FIFO conjunct's edge
    ``e_ki`` is found in ``fifo`` by its tail, so the plan serves every
    sender over the same index set.
    """
    ki: Any = None
    have = 0
    n = 0
    for edge, lp, rp in fifo:
        if edge[0] == sender:
            ki = edge
            if lp >= 0:
                have = local[lp]
            if rp >= 0:
                n = remote[rp]
            break
    if have != n - 1:
        return ("seq", (sender, me) if ki is None else ki, n)
    for edge, lp, rp in monotone:
        if local[lp] < remote[rp] and edge[0] != sender:
            return ("ge", edge)
    return None
