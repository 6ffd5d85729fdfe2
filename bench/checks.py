"""Linear-time correctness checks for measured runs.

The full consistency checker is super-quadratic (0.4 s at 1k operations,
23 s at 4k, more than ten minutes at 40k), so it judges only the short
*verify pass*.  A measured run — tens of thousands of operations — is
held to what a single-writer schedule makes checkable in one pass over
the traces:

* every issued write is applied at every replica storing its register;
* every register converges, at every storing replica, to the last value
  the schedule wrote to it (one writer per register: the final state is a
  function of the schedule alone);
* every channel's first-receipt stream is gap-free and in issue order.

Each check returns a list of violation messages; empty means it passed.
The functions take plain dictionaries so tests can doctor them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Set, Tuple

from repro.core.protocol import EventKind
from repro.core.share_graph import ShareGraph

#: Violations reported per check before the rest are summarised.
MAX_REPORTED = 5

Uid = Tuple[Any, int]


def _storing(graph: ShareGraph) -> Dict[Any, Tuple[Any, ...]]:
    """``register -> replicas storing it``, looked up once per check."""
    return {
        register: graph.replicas_storing(register)
        for register in graph.placement.registers
    }


def index_events(
    events_by_replica: Mapping[Any, Sequence[Any]]
) -> Tuple[Dict[Uid, Any], Dict[Any, Set[Uid]]]:
    """``(register of every issued uid, uids applied per replica)``.

    An issue is also a local apply: the issuer's own copy is in its set.
    """
    issued: Dict[Uid, Any] = {}
    applied: Dict[Any, Set[Uid]] = {}
    for replica_id, events in events_by_replica.items():
        mine = applied.setdefault(replica_id, set())
        for event in events:
            if event.kind is EventKind.READ:
                continue
            uid = event.update.uid
            mine.add(uid)
            if event.kind is EventKind.ISSUE:
                issued[uid] = event.update.register
    return issued, applied


def _truncate(violations: List[str]) -> List[str]:
    if len(violations) <= MAX_REPORTED:
        return violations
    return violations[:MAX_REPORTED] + [
        f"... and {len(violations) - MAX_REPORTED} more"
    ]


def check_applied_everywhere(
    graph: ShareGraph, issued: Mapping[Uid, Any],
    applied: Mapping[Any, Set[Uid]],
) -> List[str]:
    """Every issued write reached every replica that stores its register."""
    violations = []
    storing = _storing(graph)
    for uid, register in issued.items():
        for replica_id in storing[register]:
            if uid not in applied.get(replica_id, ()):
                violations.append(
                    f"write {uid} to {register!r} never applied at replica {replica_id!r}"
                )
    return _truncate(violations)


def check_converged(
    graph: ShareGraph, final_state: Mapping[Any, Mapping[Any, Any]],
    last_written: Mapping[Any, Any],
) -> List[str]:
    """Every copy of every register holds the schedule's last write."""
    violations = []
    for register, replicas in sorted(_storing(graph).items(), key=str):
        copies = final_state.get(register, {})
        for replica_id in replicas:
            if replica_id not in copies:
                violations.append(
                    f"replica {replica_id!r} reports no copy of {register!r}"
                )
            elif copies[replica_id] != last_written.get(register):
                violations.append(
                    f"{register!r} at replica {replica_id!r} is "
                    f"{copies[replica_id]!r}, schedule ends on "
                    f"{last_written.get(register)!r}"
                )
    return _truncate(violations)


def check_streams(
    graph: ShareGraph, issued: Mapping[Uid, Any],
    streams: Mapping[Tuple[Any, Any], Sequence[Uid]],
) -> List[str]:
    """Each channel carried exactly its sender's writes, in issue order.

    The expected stream of channel ``(i, j)`` is every update ``i`` issued
    to a register ``j`` also stores, by sequence number.  A gap is a lost
    update, a swap a FIFO violation, an extra uid a misrouted one.
    """
    expected: Dict[Tuple[Any, Any], List[Uid]] = {}
    storing = _storing(graph)
    for uid in sorted(issued, key=lambda u: (str(u[0]), u[1])):
        sender = uid[0]
        for destination in storing[issued[uid]]:
            if destination != sender:
                expected.setdefault((sender, destination), []).append(uid)
    violations = []
    for channel in sorted(set(expected) | set(streams), key=str):
        want = expected.get(channel, [])
        got = list(streams.get(channel, ()))
        if got == want:
            continue
        if len(got) != len(want):
            violations.append(
                f"channel {channel} carried {len(got)} updates, expected {len(want)}"
            )
            continue
        position = next(k for k, (a, b) in enumerate(zip(got, want)) if a != b)
        violations.append(
            f"channel {channel} position {position}: got {got[position]}, "
            f"expected {want[position]}"
        )
    return _truncate(violations)


def check_run(
    graph: ShareGraph,
    events_by_replica: Mapping[Any, Sequence[Any]],
    final_state: Mapping[Any, Mapping[Any, Any]],
    last_written: Mapping[Any, Any],
    streams: Mapping[Tuple[Any, Any], Sequence[Uid]] = None,
) -> List[str]:
    """All linear checks over one run; ``streams=None`` skips the third
    (the simulator keeps no first-receipt streams)."""
    issued, applied = index_events(events_by_replica)
    violations = check_applied_everywhere(graph, issued, applied)
    violations += check_converged(graph, final_state, last_written)
    if streams is not None:
        violations += check_streams(graph, issued, streams)
    return violations
