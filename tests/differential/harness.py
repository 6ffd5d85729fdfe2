"""The sim-vs-live differential harness.

One seeded workload, two executions:

* the **simulator** (:class:`~repro.sim.cluster.Cluster` over the event
  kernel, per-channel batching on so channels are FIFO streams — the same
  contract TCP gives the live runtime);
* the **live runtime** (:class:`~repro.net.runtime.LiveCluster`: one OS
  process per replica, real TCP, wall-clock time).

Both executions are reduced to the same :class:`RunOutcome` and compared
field by field:

* the **consistency verdict** — the
  :class:`~repro.core.consistency.ConsistencyChecker` judges both traces
  against Definition 2, and must say the same thing about each;
* the **final register state** — on a
  :func:`~repro.sim.workloads.single_writer_workload` the final value of
  every register at every storing replica is a function of the schedule
  alone (all writes to a register are ``↪``-ordered by its single
  writer), so simulated and wall-clock timing must converge to the
  identical state;
* the **per-channel delivery streams** — the first-receipt update-id
  sequence on every directed share-graph channel.  Per-sender issue order
  is fixed by the schedule and both transports are per-channel FIFO, so
  the streams must match update for update, in order.

Anything the live runtime gets wrong — a dropped message, a reordered
stream, a broken delta chain, a resync bug — surfaces as a diff against
the simulator, which two PRs' worth of tests already pin to the paper.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.protocol import UpdateId
from repro.core.registers import Register, RegisterPlacement, ReplicaId
from repro.core.share_graph import ShareGraph
from repro.net.runtime import LiveCluster
from repro.sim.cluster import Cluster
from repro.sim.workloads import (
    OpenLoopWorkload,
    run_open_loop,
    single_writer_workload,
)
from repro.wire.channel import BatchingConfig

Channel = Tuple[ReplicaId, ReplicaId]

#: The one batching window both executions run under, in simulated time
#: units; the live side scales ``max_delay`` to seconds by its ``time_scale``.
BATCHING = BatchingConfig(max_messages=16, max_delay=2.0)


@dataclass(frozen=True)
class RunOutcome:
    """The comparable essence of one execution (simulated or live)."""

    consistent: bool
    safety_violations: int
    liveness_violations: int
    #: register -> replica -> final value, over every storing replica.
    final_state: Tuple[Tuple[Register, Tuple[Tuple[ReplicaId, Any], ...]], ...]
    #: channel -> first-receipt uid stream.
    streams: Tuple[Tuple[Channel, Tuple[UpdateId, ...]], ...]
    #: channel -> (messages, timestamp bytes, payload bytes): the
    #: batch-boundary-independent slice of the per-channel wire books.
    #: Header bytes are deliberately excluded — they scale with the batch
    #: count, which wall-clock flush timing legitimately changes.  Message
    #: counts and payload bytes are schedule-determined (exact parity);
    #: timestamp bytes carry *causal state*, which depends on delivery
    #: timing, so they are only band-comparable (see
    #: :func:`assert_equivalent`).
    wire_books: Tuple[Tuple[Channel, Tuple[int, int, int]], ...] = ()
    #: ``True`` when no retransmission/resync/duplicate touched the run —
    #: the precondition for byte parity (the sim re-sends lost copies as
    #: full-frame singles, the live runtime re-batches them with deltas,
    #: so only clean runs are byte-comparable).
    clean: bool = True


def _freeze_state(state: Dict[Register, Dict[ReplicaId, Any]]) -> Tuple:
    return tuple(
        (register, tuple(sorted(state[register].items())))
        for register in sorted(state)
    )


def _freeze_streams(streams: Dict[Channel, Tuple[UpdateId, ...]]) -> Tuple:
    return tuple(sorted((c, tuple(u)) for c, u in streams.items() if u))


def _freeze_wire_books(per_channel: Dict[Channel, Any]) -> Tuple:
    """The byte-parity slice of per-channel wire books (either runtime's)."""
    return tuple(sorted(
        (channel, (book.messages, book.timestamp_bytes, book.payload_bytes))
        for channel, book in per_channel.items()
        if book.messages
    ))


class RecordingCluster(Cluster):
    """A simulated cluster that records per-channel delivery streams.

    Mirrors what a live node records at its sockets: the first receipt of
    every update, per directed channel, in delivery order.  Pure test
    instrumentation — the production simulator is untouched.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.streams: Dict[Channel, list] = {}
        self._seen: set = set()

    def _note_receipt(self, channel: Channel, uid: UpdateId) -> None:
        # Dedup per *destination*, matching the live node's first receipts: a
        # multicast update (replication factor ≥ 3) is a first receipt at
        # every destination, but a retransmitted copy at one destination
        # is not.
        key = (channel[1], uid)
        if key not in self._seen:
            self._seen.add(key)
            self.streams.setdefault(channel, []).append(uid)

    def deliver(self, replica: Any, messages: Any) -> Any:
        for message in messages:
            self._note_receipt(
                (message.sender, message.destination), message.update.uid
            )
        return super().deliver(replica, messages)


def differential_workload(
    placement: RegisterPlacement,
    rate: float = 4.0,
    duration: float = 40.0,
    write_fraction: float = 0.6,
    seed: int = 0,
) -> OpenLoopWorkload:
    """The seeded single-writer workload both executions replay."""
    graph = ShareGraph.from_placement(placement)
    return single_writer_workload(
        graph, rate=rate, duration=duration,
        write_fraction=write_fraction, seed=seed,
    )


def run_sim(
    placement: RegisterPlacement,
    workload: OpenLoopWorkload,
    seed: int = 0,
) -> RunOutcome:
    """Replay the workload through the simulator (the oracle side)."""
    graph = ShareGraph.from_placement(placement)
    cluster = RecordingCluster(
        graph, seed=seed,
        # Batching makes simulated channels FIFO byte streams — the
        # delivery contract the live runtime's TCP connections provide.
        batching=BATCHING,
    )
    result = run_open_loop(cluster, workload)
    stats = cluster.network.stats
    return RunOutcome(
        consistent=result.consistent,
        safety_violations=result.safety_violations,
        liveness_violations=result.liveness_violations,
        final_state=_freeze_state(
            {r: cluster.values(r) for r in placement.registers}
        ),
        streams=_freeze_streams(
            {c: tuple(u) for c, u in cluster.streams.items()}
        ),
        wire_books=_freeze_wire_books(stats.per_channel),
        clean=(stats.retransmissions == 0 and stats.messages_dropped == 0
               and stats.messages_duplicated == 0),
    )


def run_live(
    placement: RegisterPlacement,
    workload: OpenLoopWorkload,
    durable_dir: Optional[str] = None,
    time_scale: float = 0.0005,
    nodes: Optional[int] = None,
    node_placement: Optional[Dict[str, Tuple[ReplicaId, ...]]] = None,
) -> RunOutcome:
    """Replay the workload through the live runtime (the system under test).

    ``nodes`` co-hosts the replicas on that many multi-tenant processes
    (the host-pair-multiplexed transport); the default keeps one process
    per replica.  ``node_placement`` instead pins replicas to named nodes
    through the runtime's explicit ``placement=`` hook — the shape a
    topology-driven :meth:`~repro.placement.base.PlacementResult.live_placement`
    emits, where each topology site becomes one OS process.
    """
    graph = ShareGraph.from_placement(placement)
    with LiveCluster(
        graph, durable_dir=durable_dir, nodes=nodes, placement=node_placement,
        batching=dataclasses.replace(
            BATCHING, max_delay=BATCHING.max_delay * time_scale),
    ) as cluster:
        result = cluster.run_open_loop(workload, time_scale=time_scale)
    report = result.check_consistency()
    counters = [r.get("counters", {}) for r in result.reports.values()]
    return RunOutcome(
        consistent=report.is_causally_consistent,
        safety_violations=len(report.safety_violations),
        liveness_violations=len(report.liveness_violations),
        final_state=_freeze_state(result.final_state()),
        streams=_freeze_streams(result.channel_streams()),
        wire_books=_freeze_wire_books(result.channel_wire_stats()),
        clean=all(
            c.get("retransmissions", 0) == 0 and c.get("resyncs", 0) == 0
            and c.get("duplicates", 0) == 0
            for c in counters
        ),
    )


def assert_equivalent(sim: RunOutcome, live: RunOutcome,
                      live_wire_subset: bool = False) -> None:
    """The differential assertion, field by field for readable failures.

    ``live_wire_subset`` relaxes only the wire-book channel-set check: in a
    multi-tenant live run, channels between co-hosted replicas
    short-circuit in process and ship no bytes, so the live books cover a
    subset of the sim's channels.  Delivery streams and final state are
    still compared exactly — the short-circuit must deliver the identical
    update sequence, it just doesn't pay for a socket.
    """
    assert sim.consistent and live.consistent, (
        f"verdicts: sim consistent={sim.consistent} "
        f"({sim.safety_violations} safety / {sim.liveness_violations} "
        f"liveness), live consistent={live.consistent} "
        f"({live.safety_violations} safety / {live.liveness_violations} "
        "liveness)"
    )
    assert (sim.safety_violations, sim.liveness_violations) == (
        live.safety_violations, live.liveness_violations
    )
    assert sim.final_state == live.final_state, (
        "final register states diverged between sim and live"
    )
    sim_streams = dict(sim.streams)
    live_streams = dict(live.streams)
    assert set(sim_streams) == set(live_streams), (
        f"channel sets diverged: sim-only {set(sim_streams) - set(live_streams)}, "
        f"live-only {set(live_streams) - set(sim_streams)}"
    )
    for channel in sim_streams:
        assert sim_streams[channel] == live_streams[channel], (
            f"delivery stream diverged on channel {channel}: "
            f"sim {sim_streams[channel][:5]}… vs live {live_streams[channel][:5]}…"
        )
    # Byte parity.  On a clean run (no retransmission/resync/duplicate on
    # either side — those re-send through different paths: the sim ships
    # full-frame singles, the live node re-batches with deltas) the
    # per-channel books are comparable at two strengths:
    #
    # * **exact** — message counts and payload bytes.  Both are functions
    #   of the schedule alone: the same update stream crosses each
    #   channel, and a value's payload encoding does not depend on when
    #   its message was delivered.
    # * **banded** — timestamp bytes.  A timestamp is *causal state*: its
    #   counters record what the issuer had applied at issue time, which
    #   real delivery timing legitimately perturbs, so the varint/delta
    #   widths differ between simulated and wall-clock executions.  The
    #   counter *structure* per message is identical (fixed by the share
    #   graph), so the totals must still land within 2x of each other —
    #   wide enough for timing noise, tight enough to catch a broken
    #   delta chain (which regresses to full frames, a >2x blowup on any
    #   channel long enough to matter).
    if sim.clean and live.clean and sim.wire_books and live.wire_books:
        sim_books = dict(sim.wire_books)
        live_books = dict(live.wire_books)
        if live_wire_subset:
            assert set(live_books) <= set(sim_books), (
                f"live booked bytes on channels the sim never used: "
                f"{set(live_books) - set(sim_books)}"
            )
        else:
            assert set(sim_books) == set(live_books), (
                f"wire-book channel sets diverged: "
                f"sim-only {set(sim_books) - set(live_books)}, "
                f"live-only {set(live_books) - set(sim_books)}"
            )
        for channel in live_books:
            sim_messages, sim_ts, sim_payload = sim_books[channel]
            live_messages, live_ts, live_payload = live_books[channel]
            assert (sim_messages, sim_payload) == (live_messages, live_payload), (
                f"wire books diverged on channel {channel}: sim "
                f"(messages, payload bytes) = {(sim_messages, sim_payload)} "
                f"vs live {(live_messages, live_payload)}"
            )
            assert sim_ts > 0 and live_ts > 0, (
                f"channel {channel} carried messages but booked no "
                f"timestamp bytes (sim {sim_ts}, live {live_ts})"
            )
            ratio = live_ts / sim_ts
            assert 0.5 <= ratio <= 2.0, (
                f"timestamp bytes diverged beyond timing noise on channel "
                f"{channel}: sim {sim_ts} vs live {live_ts} "
                f"(ratio {ratio:.2f}; a broken delta chain regresses to "
                "full frames and trips this)"
            )


def run_differential(
    placement: RegisterPlacement,
    seed: int = 0,
    rate: float = 4.0,
    duration: float = 40.0,
    durable_dir: Optional[str] = None,
    nodes: Optional[int] = None,
    node_placement: Optional[Dict[str, Tuple[ReplicaId, ...]]] = None,
) -> Tuple[RunOutcome, RunOutcome]:
    """Run both sides on the same seeded workload and assert equivalence."""
    workload = differential_workload(placement, rate=rate, duration=duration,
                                     seed=seed)
    sim = run_sim(placement, workload, seed=seed)
    live = run_live(placement, workload, durable_dir=durable_dir, nodes=nodes,
                    node_placement=node_placement)
    # Multi-tenant runs (either the contiguous `nodes` split or an explicit
    # node placement) short-circuit co-hosted channels, so the live wire
    # books cover a subset of the sim's channels.
    assert_equivalent(
        sim, live,
        live_wire_subset=nodes is not None or node_placement is not None,
    )
    return sim, live
