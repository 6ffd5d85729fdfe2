"""The unified discrete-event simulation kernel.

Both simulated architectures of the paper — the peer-to-peer deployment of
Figure 1a (:class:`~repro.sim.cluster.Cluster`) and the client–server
deployment of Figure 1b (:class:`~repro.clientserver.cluster.ClientServerCluster`)
— are thin protocol adapters over the machinery in this module:

* a typed event queue (:class:`EventKernel`) holding message deliveries,
  timers and open-loop client arrivals, popped in global time order;
* a :class:`Transport` that samples per-message delays from a pluggable
  :class:`~repro.sim.delays.DelayModel`, supports the adversarial
  hold/release channel control used by the necessity experiments, and keeps
  the traffic statistics (:class:`NetworkStats`);
* a :class:`SimulationHost` base class providing the drive loop —
  :meth:`~SimulationHost.step`, :meth:`~SimulationHost.run_until_quiescent`
  with a cross-replica apply fixpoint — and the unified run metrics
  (:class:`~repro.core.host.RunMetrics`: throughput over time, latency percentiles,
  per-replica queue depths) shared by the metrics module, the evaluation
  harness and the benchmarks.

The host-agnostic half of the old ``SimulationHost`` — replica bookkeeping,
metric recording, event-trace collection and consistency checking — lives in
:class:`repro.core.host.ReplicaHost`, which the live asyncio runtime
(:mod:`repro.net`) shares, beside :class:`~repro.core.host.RunMetrics` and
its helpers.

Hosts plug in by implementing :meth:`SimulationHost._replica_map` (who owns
which replica id) and :meth:`SimulationHost.submit_operation` (how a client
operation addressed to a replica is executed), plus optional hooks for
architecture-specific work after a delivery or at quiescence.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Type,
)

from ..core.counters import COUNTER, counter, exported
from ..core.errors import SimulationError
from ..core.host import ReplicaHost
from ..core.protocol import Known, UpdateId, UpdateMessage
from ..core.registers import ReplicaId
from ..core.share_graph import ShareGraph
from ..wire.channel import BatchingConfig, ChannelSender, CopyKey, Window
from ..wire.frames import message_wire_sizes
from .delays import Channel, DelayModel, UniformDelay

if TYPE_CHECKING:
    from ..wire.channel import ChannelWireStats

__all__ = [
    "ArrivalEvent",
    "BatchingConfig",
    "DeliveryEvent",
    "EventKernel",
    "Firing",
    "NetworkStats",
    "ReliabilityConfig",
    "SimulationHost",
    "TimerEvent",
    "Transport",
]


# ======================================================================
# Events
# ======================================================================
# All event classes are slotted: a long open-loop run schedules millions of
# them, and the per-instance ``__dict__`` would dominate the heap.

@dataclass(frozen=True, slots=True)
class DeliveryEvent:
    """Messages arriving together at their destination replica.

    A standalone envelope is a delivery of one with ``epoch=None``: it
    belongs to no stream, so it cannot go stale and no FIFO clamp orders
    it.  A flushed batching window is a delivery of n carrying the
    channel's stream epoch at encode time: a batch from an epoch a crash
    has since severed is discarded on arrival, as a broken TCP connection
    drops its in-flight data — its contents come back via
    retransmission/resync.  ``sent_times`` records when each message was
    first sent (entered its window), so per-message latency accounting
    includes the window wait and every retransmission.
    """

    rank: ClassVar[int] = 2

    messages: Tuple[UpdateMessage, ...]
    sent_times: Tuple[float, ...]
    epoch: Optional[int] = None

    @property
    def channel(self) -> Channel:
        """The directed channel every message of the delivery travelled."""
        head = self.messages[0]
        return (head.sender, head.destination)


@dataclass(frozen=True, slots=True)
class TimerEvent:
    """A scheduled callback: a metrics sampler, a batch flush, a
    retransmission — or a fault or reconfiguration step.

    The callback is invoked as ``callback(host, time)`` when the event
    fires.  ``rank`` orders events scheduled at the same instant (see
    :class:`EventKernel`): faults are timers of rank 0 and
    reconfiguration steps timers of rank 1, so a fault or membership
    schedule replays deterministically against the rest of the event
    stream.
    """

    callback: Callable[["SimulationHost", float], None]
    tag: str = ""
    rank: int = 4


@dataclass(frozen=True, slots=True)
class ArrivalEvent:
    """An open-loop client operation arriving at its scheduled time.

    ``operation`` is opaque to the kernel; the host's
    :meth:`SimulationHost.submit_operation` interprets it (normally a
    :class:`~repro.sim.workloads.Operation`).  ``rest``, when set, holds
    the time-ordered ``(time, operation)`` arrivals that follow this one:
    the host schedules the next of them when this one fires
    (:meth:`SimulationHost.schedule_arrivals`), so a workload keeps one
    arrival on the kernel instead of all of them.
    """

    rank: ClassVar[int] = 3

    operation: Any
    rest: Optional[Iterator[Tuple[float, Any]]] = None


Event = Any  # DeliveryEvent | TimerEvent | ArrivalEvent


@dataclass(frozen=True, slots=True)
class Firing:
    """One event popped from the kernel."""

    time: float
    event: Event


class EventKernel:
    """A priority queue of typed events sharing one simulated clock.

    Events fire in ``(time, rank, insertion order)`` order, so two runs
    that schedule the same events observe identical executions — the basis
    of every same-seed determinism guarantee in the simulator.  The rank
    breaks same-instant ties: faults first (a crash at time t suppresses a
    delivery at time t), then reconfiguration steps (a commit at time t
    flushes a delivery scheduled at time t into the old epoch), then
    deliveries (so arrivals and samplers observe the freshest replica
    state), then arrivals, then every other timer.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._counter = itertools.count()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, event: Event) -> None:
        """Schedule ``event`` to fire at absolute simulated time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule an event at {time} < now ({self.now})"
            )
        heapq.heappush(self._heap, (time, event.rank, next(self._counter), event))

    def schedule_after(self, delay: float, event: Event) -> None:
        """Schedule ``event`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative event delay: {delay}")
        self.schedule_at(self.now + delay, event)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def has_events(self) -> bool:
        """``True`` while any event remains scheduled."""
        return bool(self._heap)

    def pending_events(self) -> int:
        """Total scheduled, not-yet-fired events."""
        return len(self._heap)

    def pending_of(self, event_type: Type) -> int:
        """Scheduled events of one type (linear scan; for tests/metrics)."""
        return sum(1 for entry in self._heap if isinstance(entry[3], event_type))

    def events_of(self, event_type: Type) -> List[Event]:
        """Scheduled events of one type, in heap (not firing) order."""
        return [entry[3] for entry in self._heap if isinstance(entry[3], event_type)]

    def peek_time(self) -> Optional[float]:
        """The firing time of the next event, or ``None`` when idle."""
        return self._heap[0][0] if self._heap else None

    def extract(self, predicate: Callable[[Event], bool]) -> List[Event]:
        """Remove every scheduled event matching ``predicate`` from the queue.

        Returns the extracted events in their would-have-fired order
        (time, rank, insertion), without advancing the clock.  Used by
        the reconfiguration commit to flush the old epoch's in-flight
        deliveries at the epoch boundary; determinism is preserved because
        the extraction order is the firing order.
        """
        matched: List[Tuple[float, int, int, Event]] = []
        kept: List[Tuple[float, int, int, Event]] = []
        for entry in self._heap:
            if predicate(entry[3]):
                matched.append(entry)
            else:
                kept.append(entry)
        if matched:
            heapq.heapify(kept)
            self._heap = kept
        return [entry[3] for entry in sorted(matched)]

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def next_event(self) -> Optional[Firing]:
        """Pop the earliest event, advancing the simulated clock."""
        if not self._heap:
            return None
        time, _, _, event = heapq.heappop(self._heap)
        if time < self.now:
            raise SimulationError("simulation time went backwards")
        self.now = time
        return Firing(time=time, event=event)


# ======================================================================
# Transport
# ======================================================================

def _booked(column: str, doc: str) -> property:
    """A read-only aggregate: one byte-book column summed over all channels."""
    return exported(COUNTER, doc)(
        lambda stats: sum(getattr(book, column) for book in stats.per_channel.values())
    )


@dataclass
class NetworkStats:
    """Aggregate traffic statistics maintained by the transport."""

    messages_sent: int = counter("messages handed to the transport")
    messages_delivered: int = counter("messages delivered")
    metadata_counters_sent: int = counter("timestamp counters shipped")
    payload_messages_sent: int = 0
    metadata_only_messages_sent: int = 0
    total_latency: float = 0.0
    messages_dropped: int = counter("message copies the (lossy) channel discarded before delivery")
    messages_duplicated: int = counter("extra copies injected by a duplicating channel")
    retransmissions: int = counter("copies re-sent by the resend timers")
    messages_lost_to_crash: int = counter(
        "deliveries discarded because the destination replica was crashed")
    #: Content recovery is the retransmission/resync layers' job.
    messages_rejected_stale_epoch: int = counter(
        "frames rejected at delivery: their epoch tag predates the receiver's configuration")
    reconfig_bytes_sent: int = counter(
        "bytes of membership-change announcements the reconfiguration coordinator broadcast")
    # -- wire layer ------------------------------------------------------
    batches_sent: int = counter("batches flushed onto the wire")
    #: The messages those batches carried.
    batched_messages_sent: int = 0
    batches_dropped: int = counter("whole batches a lossy channel discarded")
    #: Per-channel byte breakdown, keyed by (sender, destination) — the
    #: transport's :attr:`~repro.wire.channel.ChannelSender.book` itself,
    #: populated when wire accounting is enabled.  The aggregate byte and
    #: frame counters below are sums over it: every envelope is booked
    #: once, by :meth:`~repro.wire.channel.ChannelSender.account`.
    per_channel: Dict[Channel, ChannelWireStats] = field(default_factory=dict)

    header_bytes_sent = _booked("header_bytes", "Envelope/identity bytes put on the wire.")
    timestamp_bytes_sent = _booked("timestamp_bytes", "Timestamp-frame bytes put on the wire.")
    payload_bytes_sent = _booked("payload_bytes", "Payload-value bytes put on the wire.")
    timestamp_bytes_full = _booked(
        "timestamp_bytes_full",
        "What the timestamp frames would have cost without delta encoding.")
    delta_frames_sent = _booked("delta_frames", "Timestamp frames shipped as per-channel deltas.")
    full_frames_sent = _booked("full_frames", "Timestamp frames shipped in full.")

    @property
    def mean_latency(self) -> float:
        """Mean delivery latency over all delivered messages."""
        if not self.messages_delivered:
            return 0.0
        return self.total_latency / self.messages_delivered

    @property
    def bytes_sent(self) -> int:
        """Total bytes put on the wire (header + timestamp + payload)."""
        return self.header_bytes_sent + self.timestamp_bytes_sent + self.payload_bytes_sent

    @property
    def timestamp_delta_savings(self) -> float:
        """Fraction of full-encoding timestamp bytes saved by delta frames."""
        if not self.timestamp_bytes_full:
            return 0.0
        return 1.0 - self.timestamp_bytes_sent / self.timestamp_bytes_full


@dataclass(frozen=True)
class ReliabilityConfig:
    """The transport's resend timers (:meth:`Transport.enable_reliability`).

    Every copy put on the wire stays outstanding until a delivery settles
    it.  The transport re-sends it every ``resend_timeout`` (kernel time),
    at most ``max_retries`` times, and forces the final attempt past its
    loss sampler (the channel is fair-lossy), so a lossy/duplicating
    channel still delivers every message to a live destination; duplicate
    suppression at the replica then restores exactly-once delivery.  A
    live node runs none: its reconnect re-sends what TCP lost.
    """

    resend_timeout: float = 30.0
    max_retries: int = 8


class Transport:
    """Point-to-point channels over an event kernel.

    The kernel-time driver of a :class:`~repro.wire.channel.ChannelSender`
    (which owns windows, batch encoding and the sent-log of copies): the
    transport samples each copy's fate and delay from the
    :class:`DelayModel`, turns the sender's deadlines into timer events
    and its batches into delivery events, runs the resend timers and keeps
    the aggregate :class:`NetworkStats`.  A delivery settles its copies
    (:meth:`record_delivery`), so the sent-log holds only undelivered
    ones; crash recovery re-sends from it (:meth:`resync`).  Channels are
    reliable and non-FIFO by default, with two fault-subsystem extensions
    (inert unless enabled):

    * channels can be held (parking all traffic) and released, as the
      adversarial schedules of the necessity experiments require, and the
      replica set can be *partitioned* into isolated groups — a parked
      message flies once **both** its hold is released and no partition
      separates its endpoints;
    * lossy/duplicating delay-model wrappers (:mod:`repro.sim.delays`) are
      honoured per send, with the resend timers
      (:meth:`enable_reliability`) restoring at-least-once delivery.
    """

    def __init__(
        self,
        kernel: EventKernel,
        delay_model: Optional[DelayModel] = None,
        seed: int = 0,
    ) -> None:
        self.kernel = kernel
        self.delay_model = delay_model or UniformDelay()
        self.rng = random.Random(seed)
        self.sender = ChannelSender()
        self.stats = NetworkStats(per_channel=self.sender.book)
        #: Multiplier applied to every sampled latency (latency-spike faults).
        self.delay_factor: float = 1.0
        self._held_channels: Set[Channel] = set()
        #: Parked traffic, as the delivery events it will become.
        self._parked: List[DeliveryEvent] = []
        self._partition_groups: Optional[Tuple[FrozenSet[ReplicaId], ...]] = None
        self._partition_lookup: Dict[ReplicaId, int] = {}
        #: The resend timers' configuration; ``None`` runs none.
        self.reliability: Optional[ReliabilityConfig] = None
        self._wire_accounting: bool = False
        #: Resolves a message to its family codec via the sending replica;
        #: installed by the host once the replicas exist.
        self._codec_resolver: Optional[Callable[[UpdateMessage], Any]] = None
        #: Last scheduled batch-arrival time per channel (the FIFO clamp).
        self._last_batch_arrival: Dict[Channel, float] = {}
        #: The attached :class:`~repro.obs.trace.TraceRecorder`, if any;
        #: ``None`` on the untraced fast path.
        self.tracer: Optional[Any] = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def enable_reliability(self, config: Optional[ReliabilityConfig] = None) -> None:
        """Turn on the resend timers (idempotent)."""
        self.reliability = config or ReliabilityConfig()

    def enable_wire_accounting(self) -> None:
        """Book every sent message/batch into the byte-accurate statistics
        (off by default, so the plain fast path never touches the codecs;
        implied by batching)."""
        self._wire_accounting = True

    def enable_batching(self, config: Optional[BatchingConfig] = None) -> None:
        """Turn on per-channel batching windows (implies wire accounting)."""
        self.sender.enable_batching(config or BatchingConfig())
        self._wire_accounting = True

    def set_codec_resolver(
        self, resolver: Optional[Callable[[UpdateMessage], Any]]
    ) -> None:
        """Install the message → family-codec resolver (host-provided)."""
        self._codec_resolver = resolver

    @property
    def batching(self) -> Optional[BatchingConfig]:
        """The active batching configuration, or ``None``."""
        return self.sender.batching

    def _codec_for(self, message: UpdateMessage) -> Any:
        if self._codec_resolver is None:
            return None
        return self._codec_resolver(message)

    def _account_single(self, message: UpdateMessage) -> None:
        """Book one standalone (full-frame) envelope, if accounting is on.

        Used by the unbatched send path and by every retransmission/resync
        re-send, so the byte totals — and the per-channel message counts —
        cover *all* copies put on the wire.
        """
        if not self._wire_accounting:
            return
        sizes = message_wire_sizes(message, codec=self._codec_for(message))
        self.sender.account((message.sender, message.destination), sizes, messages=1)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, message: UpdateMessage, delay: Optional[float] = None) -> None:
        """Inject a message; it will be delivered after its sampled delay.

        ``delay`` overrides the delay model for this single message (used by
        scripted adversarial schedules); such messages bypass the batching
        window, exactly as an out-of-band control message would.
        """
        self.stats.messages_sent += 1
        self.stats.metadata_counters_sent += message.metadata_size
        if message.payload:
            self.stats.payload_messages_sent += 1
        else:
            self.stats.metadata_only_messages_sent += 1

        sender = self.sender
        sender.log(message)

        if self.tracer is not None:
            self.tracer.record("send", message.update.uid, message.sender,
                               message.destination, self.kernel.now)

        if sender.batching is not None and delay is None:
            full, opened = sender.add(message, self.kernel.now)
            if full:
                self._flush_channel((message.sender, message.destination))
            elif opened is not None:
                self._arm_flush((message.sender, message.destination), opened)
            return

        # Unbatched messages ship as standalone envelopes with full
        # timestamp frames (delta frames need the per-channel FIFO stream
        # only the batching transport provides).  No window means the copy
        # hits the wire immediately: its ``wire`` stamp equals its ``send``.
        if self.tracer is not None:
            self.tracer.record("wire", message.update.uid, message.sender,
                               message.destination, self.kernel.now)
        self._send_single(message, delay)

    def _send_single(self, message: UpdateMessage,
                     delay: Optional[float] = None) -> None:
        """Put one standalone envelope on the wire now, or park it."""
        self._account_single(message)
        now = self.kernel.now
        event = DeliveryEvent((message,), (now,))
        if self._blocked(event.channel):
            self._parked.append(event)
            return
        self._transmit(event, delay=delay)
        if self.sender.stamp(message, now, now) and self.reliability is not None:
            self._arm_retry((message.update.uid, message.destination))

    def send_all(self, messages: Iterable[UpdateMessage]) -> None:
        """Send a batch of messages."""
        for message in messages:
            self.send(message)

    # ------------------------------------------------------------------
    # Per-channel batching windows
    # ------------------------------------------------------------------
    def _arm_flush(self, channel: Channel, window: Window) -> None:
        """Arm the flush deadline of a window just opened; the timer is a
        no-op if the window is gone (flushed by count) when it fires."""
        def fire(host: "SimulationHost", time: float) -> None:
            if self.sender.windows.get(channel) is window:
                self._flush_channel(channel)

        self.kernel.schedule_at(
            window.deadline, TimerEvent(callback=fire, tag="batch-flush")
        )

    def _flush_channel(self, channel: Channel) -> None:
        """Close a channel's window and put the batch on the wire."""
        window = self.sender.windows.get(channel)
        if window is None:
            return
        now = self.kernel.now
        flushed = self.sender.flush(channel, self._codec_for(window.messages[0]), now)
        messages = flushed.batch.messages
        self.stats.batches_sent += 1
        self.stats.batched_messages_sent += len(messages)
        if self.tracer is not None:
            for message in messages:
                self.tracer.record("wire", message.update.uid, channel[0],
                                   channel[1], now)
        if self.reliability is not None:
            for key in flushed.tracked:
                self._arm_retry(key)
        event = DeliveryEvent(messages, flushed.times, flushed.epoch)
        if self._blocked(channel):  # parked with its encoder state already consumed
            self._parked.append(event)
        else:
            self._transmit(event)

    def flush_open_batches(self) -> None:
        """Force-flush every open window (tests and explicit shutdown)."""
        for channel in list(self.sender.windows):
            self._flush_channel(channel)

    @property
    def open_batch_messages(self) -> int:
        """Messages waiting in not-yet-flushed batching windows."""
        return sum(len(w.messages) for w in self.sender.windows.values())

    # ------------------------------------------------------------------
    # Deliveries: onto the wire, and off it
    # ------------------------------------------------------------------
    def _transmit(self, event: DeliveryEvent, delay: Optional[float] = None,
                  force: bool = False) -> None:
        """Sample the channel fate of a delivery and schedule the resulting
        copies (a scripted ``delay`` or ``force`` — a final retransmission
        attempt — bypasses the sampler)."""
        count = len(event.messages)
        if delay is not None or force:
            copies = 1
        else:
            copies = self.delay_model.fate(event.messages[0], self.rng)
        if copies <= 0:
            # The whole envelope is lost; with the reliability layer on the
            # per-message resend timers recover the contents as singles
            # (full frames).
            self.stats.messages_dropped += count
            if event.epoch is not None:
                # The channel's delta stream restarts so the next flushed
                # frame never chains through bytes the receiver cannot
                # have — every delivered delta frame stays decodable.
                self.stats.batches_dropped += 1
                self.sender.restart_chain(event.channel)
            return
        if copies > 1:
            self.stats.messages_duplicated += (copies - 1) * count
        for _ in range(copies):
            self._schedule(event, delay)

    def _schedule(self, event: DeliveryEvent, delay: Optional[float] = None) -> None:
        """Schedule one copy of a delivery after its sampled latency.  A
        stream batch is clamped to per-channel FIFO order: a channel is one
        byte stream, so a later batch never overtakes an earlier one,
        however the delays are sampled."""
        if delay is None:
            latency = self.delay_model.delay(event.messages[0], self.rng) * self.delay_factor
        else:
            latency = delay
        if latency < 0:
            raise SimulationError(f"negative message delay: {latency}")
        arrival = self.kernel.now + latency
        if event.epoch is not None:
            channel = event.channel
            arrival = max(arrival, self._last_batch_arrival.get(channel, 0.0))
            self._last_batch_arrival[channel] = arrival
        self.kernel.schedule_at(arrival, event)

    def record_delivery(self, event: DeliveryEvent, time: float) -> None:
        """Account for every message of a fired :class:`DeliveryEvent`.
        Latency runs from when a message was first sent (entered the
        batching window): the window wait is the cost side of the batching
        trade-off.  The delivered copies are settled here, before the
        destination handles them: a reconfiguration commit that runs
        inside that handling must not take them as still outstanding."""
        stats = self.stats
        for sent_at in event.sent_times:
            stats.messages_delivered += 1
            stats.total_latency += time - sent_at
        self.sender.settle(event.channel[1], [m.update.uid for m in event.messages])
        if self.tracer is not None:
            for message in event.messages:
                self.tracer.record("deliver", message.update.uid,
                                   message.sender, message.destination, time)

    def is_stale(self, event: DeliveryEvent) -> bool:
        """``True`` when the delivery's stream epoch predates a crash cut."""
        return event.epoch is not None and event.epoch != self.sender.epoch(event.channel)

    def note_lost(self, event: DeliveryEvent) -> None:
        """Account for a delivery discarded on arrival: its destination is
        down, or its stream was severed while it was in flight.

        Deliberately *not* settled: content recovery is the
        retransmission/resync layer's job — those paths re-send full-frame
        singles — so every batch that *is* delivered chains only through
        delivered predecessors.
        """
        self.stats.messages_lost_to_crash += len(event.messages)
        if event.epoch is not None and not self.is_stale(event):
            # A live-stream batch hit a crashed peer the fault layer had
            # not already severed (hosts without a FaultInjector); cut the
            # stream here.  A batch from an already-severed epoch must not
            # bump again — the successor stream is live.
            self.sender.sever(event.channel)

    def sever_streams(self, replica_id: ReplicaId) -> None:
        """Sever the batched streams broken by a replica crash.

        Called by the fault layer at crash time.  Channels *into* the
        crashed replica lose their receiver-side decoder state: they are
        severed, so in-flight batches die on arrival (resync and
        retransmission recover the contents).  Channels *out of* it only
        lose the encoder state — batches already in flight to live peers
        stay decodable — so only their delta chains restart.
        """
        for channel in self.sender.channels():
            if channel[1] == replica_id:
                self.sender.sever(channel)
            elif channel[0] == replica_id:
                self.sender.restart_chain(channel)

    # ------------------------------------------------------------------
    # Dynamic membership support
    # ------------------------------------------------------------------
    def take_outstanding(self) -> List[DeliveryEvent]:
        """Claim every copy the resend timers wait on, in deterministic order.

        The reconfiguration flush delivers these directly at the epoch
        boundary; they leave the wire here (before delivery) so pending
        retransmission timers become no-ops and no old-epoch copy survives.
        Without resend timers there is nothing to claim: every copy on the
        wire is a scheduled delivery, which the flush extracts itself.
        """
        if self.reliability is None:
            return []
        outstanding = self.sender.stamped()
        for key in outstanding:
            self.sender.abandon(key)
        return [
            DeliveryEvent((outstanding[key].message,), (outstanding[key].sent_at,))
            for key in sorted(outstanding)
        ]

    def take_held(self) -> List[DeliveryEvent]:
        """Claim every parked (held/partitioned) delivery (epoch flush)."""
        held = self._parked_in_release_order()
        self._parked = []
        return held

    def restart_delta_streams(self) -> None:
        """Reset every channel's timestamp delta chain (epoch boundary):
        the last-shipped timestamps are indexed by the retired
        configuration's edges, so every next frame must go full."""
        self.sender.restart_chain()

    def forget_replica(self, replica_id: ReplicaId) -> None:
        """Garbage-collect all per-replica transport state (a *leave*):
        sent-log, stream state and delta chains.  The statistics stay —
        they describe the past, which a leave does not rewrite."""
        self.sender.forget(replica_id)
        for channel in [c for c in self._last_batch_arrival if replica_id in c]:
            del self._last_batch_arrival[channel]

    # ------------------------------------------------------------------
    # Resend timers
    # ------------------------------------------------------------------
    def _arm_retry(self, key: CopyKey) -> None:
        def fire(host: "SimulationHost", time: float) -> None:
            self._retry(key)

        self.kernel.schedule_after(
            self.reliability.resend_timeout,
            TimerEvent(callback=fire, tag="retransmit"),
        )

    def _retry(self, key: CopyKey) -> None:
        copy = self.sender.on_wire(key)
        if copy is None:
            return
        message = copy.message
        event = DeliveryEvent((message,), (copy.sent_at,))
        if self._blocked(event.channel):
            # Hand the copy to the partition/hold buffer: it is delivered
            # unconditionally on release/heal, so the timer chain can stop.
            self._parked.append(event)
            self.sender.abandon(key)
            return
        self.stats.retransmissions += 1
        self._account_single(message)
        final = self.sender.retry(key, self.kernel.now) >= self.reliability.max_retries
        self._transmit(event, force=final)
        if final:  # the forced copy cannot be lost: nothing to wait for
            self.sender.abandon(key)
        else:
            self._arm_retry(key)

    # ------------------------------------------------------------------
    # Crash-recovery anti-entropy
    # ------------------------------------------------------------------
    def resync(self, destination: ReplicaId, known: Known) -> List[UpdateId]:
        """Re-send every logged message to ``destination`` it does not know.

        The anti-entropy half of crash recovery: the restarted replica
        reports what it holds (its :class:`~repro.core.protocol.Known`, from
        its durable snapshot) and the rest of the sent-log is re-sent
        through the normal delay/partition path.  Returns the re-sent ids in
        send order.
        """
        missing: List[UpdateId] = []
        for message in self.sender.missing(destination, known):
            missing.append(message.update.uid)
            self.stats.retransmissions += 1
            self._send_single(message)
        return missing

    # ------------------------------------------------------------------
    # Adversarial channel control: holds and partitions
    # ------------------------------------------------------------------
    def _blocked(self, channel: Channel) -> bool:
        return channel in self._held_channels or self._crosses_partition(channel)

    def _crosses_partition(self, channel: Channel) -> bool:
        if self._partition_groups is None:
            return False
        lookup = self._partition_lookup
        # Replicas in no listed group form one implicit "rest" island (-1).
        return lookup.get(channel[0], -1) != lookup.get(channel[1], -1)

    def hold(self, sender: ReplicaId, destination: ReplicaId) -> None:
        """Park all current and future traffic on one directed channel."""
        self._held_channels.add((sender, destination))

    def release(self, sender: ReplicaId, destination: ReplicaId) -> None:
        """Release a held channel; parked messages are scheduled from *now*.

        A released message still crossing an active partition stays parked
        until :meth:`heal`.
        """
        self._held_channels.discard((sender, destination))
        self._flush_parked()

    def release_all(self) -> None:
        """Release every held channel."""
        self._held_channels.clear()
        self._flush_parked()

    def partition(self, *groups: Iterable[ReplicaId]) -> None:
        """Split the replicas into isolated groups (replacing any partition).

        Messages crossing group boundaries — in either direction — are
        parked exactly like held-channel traffic and fly on :meth:`heal`.
        Replicas not named in any group form one additional island together.
        Messages parked under the previous partition whose endpoints the
        new one reunites are re-scheduled immediately.
        """
        cleaned = tuple(frozenset(g) for g in groups if g)
        self._partition_groups = cleaned or None
        self._partition_lookup = {
            rid: index for index, group in enumerate(cleaned) for rid in group
        }
        self._flush_parked()

    def heal(self) -> None:
        """Dissolve the partition; parked cross-partition traffic flies.

        Explicitly held channels stay held: their messages remain parked
        until :meth:`release`.
        """
        self._partition_groups = None
        self._partition_lookup = {}
        self._flush_parked()

    @property
    def partitioned(self) -> bool:
        """``True`` while a partition is active."""
        return self._partition_groups is not None

    def _parked_in_release_order(self) -> List[DeliveryEvent]:
        # Standalone envelopes are released ahead of stream batches (one
        # stable sort): the order the two parked lists this one replaced
        # were flushed in, which keeps fixed-seed RNG draws bit-identical.
        return sorted(self._parked, key=lambda event: event.epoch is not None)

    def _flush_parked(self) -> None:
        """Re-schedule every parked delivery whose channel is now unblocked."""
        still_parked: List[DeliveryEvent] = []
        for event in self._parked_in_release_order():
            if self._blocked(event.channel):
                still_parked.append(event)
            else:
                self._schedule(event)
        self._parked = still_parked

    @property
    def held_count(self) -> int:
        """Number of messages currently parked on held or partitioned channels."""
        return sum(len(event.messages) for event in self._parked)


# ======================================================================
# The shared host
# ======================================================================

class SimulationHost(ReplicaHost):
    """Base class for every simulated deployment driven by the kernel.

    The host-agnostic surface — replica bookkeeping, metric recording,
    event traces and consistency checking — comes from
    :class:`~repro.core.host.ReplicaHost` (shared with the live runtime);
    this class adds the simulated half: the event loop over the
    :class:`EventKernel`, quiescence detection with a cross-replica apply
    fixpoint, and the kernel-time scheduling helpers.

    Parameters
    ----------
    share_graph:
        The register placement / share graph of the system.
    delay_model, seed:
        The :class:`Transport`'s per-message delay model (default
        ``UniformDelay(1, 10)``) and the seed of its private random
        generator: two hosts built with the same seed and fed the same
        operations behave identically.
    batching:
        Optionally a :class:`BatchingConfig`: messages then ride
        per-channel batching windows delivered as single kernel events,
        with the wire-format byte accounting implied.
    wire_accounting:
        Book every sent message into byte-accurate :class:`NetworkStats`
        even without batching.

    The transport, over its own :class:`EventKernel`, is ``host.network``.
    """

    def __init__(
        self,
        share_graph: ShareGraph,
        delay_model: Optional[DelayModel] = None,
        seed: int = 0,
        batching: Optional[BatchingConfig] = None,
        wire_accounting: bool = False,
    ) -> None:
        super().__init__(share_graph)
        network = Transport(EventKernel(), delay_model=delay_model, seed=seed)
        if batching is not None:
            network.enable_batching(batching)
        elif wire_accounting:
            network.enable_wire_accounting()
        self.network = network
        self.kernel: EventKernel = network.kernel
        # Each replica family registers its timestamp codec; the transport's
        # byte accounting resolves a message's codec through its sender.
        network.set_codec_resolver(self._codec_for_message)
        #: Time of the last delivery/arrival processed (timers excluded), so
        #: a trailing metrics sampler does not inflate reported makespans.
        self.last_activity_time: float = 0.0
        # Arrivals are serviced iteratively: a blocking operation that steps
        # the kernel can pop further ArrivalEvents, which are deferred onto
        # this queue (with their firing time, so the queueing wait counts
        # towards their operation latency) instead of being submitted
        # reentrantly — unbounded recursion on long arrival backlogs
        # otherwise.
        self._arrival_backlog: "deque[Tuple[float, Any]]" = deque()
        self._servicing_arrivals = False

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.kernel.now

    def _codec_for_message(self, message: UpdateMessage) -> Any:
        replica = self._replica_map().get(message.sender)
        return replica.wire_codec() if replica is not None else None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def enable_tracing(self, recorder: Optional[Any] = None) -> Any:
        """Attach a message-lifecycle :class:`~repro.obs.trace.TraceRecorder`.

        One recorder covers host and transport, so every stage of every
        op — issue, send, wire, deliver, apply — lands in one event list
        (simulated-time stamps).  Returns the recorder.  Tracing is off by
        default; untraced runs pay a single ``is not None`` check per hook.
        """
        if recorder is None:
            from ..obs.trace import TraceRecorder
            recorder = TraceRecorder()
        self.tracer = recorder
        self.network.tracer = recorder
        return recorder

    # ------------------------------------------------------------------
    # Event scheduling
    # ------------------------------------------------------------------
    def schedule_timer(
        self,
        delay: float,
        callback: Callable[["SimulationHost", float], None],
        tag: str = "",
    ) -> None:
        """Fire ``callback(host, time)`` after ``delay`` simulated time units."""
        self.kernel.schedule_after(delay, TimerEvent(callback=callback, tag=tag))

    def schedule_fault_at(
        self,
        time: float,
        action: Callable[["SimulationHost", float], None],
        kind: str = "",
    ) -> None:
        """Schedule a fault action at absolute simulated time ``time``."""
        self.kernel.schedule_at(time, TimerEvent(callback=action, tag=kind, rank=0))

    def schedule_reconfig_at(
        self,
        time: float,
        action: Callable[["SimulationHost", float], None],
        kind: str = "",
    ) -> None:
        """Schedule a reconfiguration step at absolute simulated time ``time``."""
        self.kernel.schedule_at(time, TimerEvent(callback=action, tag=kind, rank=1))

    def schedule_arrival(self, delay: float, operation: "Any") -> None:
        """Schedule an open-loop client operation ``delay`` units from now."""
        self.kernel.schedule_after(delay, ArrivalEvent(operation=operation))

    def schedule_arrival_at(self, time: float, operation: "Any") -> None:
        """Schedule an open-loop client operation at absolute time ``time``."""
        self.kernel.schedule_at(time, ArrivalEvent(operation=operation))

    def schedule_arrivals(self, arrivals: Iterable[Tuple[float, Any]]) -> None:
        """Feed ``(absolute time, operation)`` arrivals, in time order, to
        the kernel one at a time: the first is scheduled now, and each
        one's firing schedules the next before its operation runs.

        No other event shares the arrivals' rank, and each arrival is
        scheduled before its time comes, so they fire exactly as if all
        had been scheduled up front in this order.
        """
        rest = iter(arrivals)
        head = next(rest, None)
        if head is not None:
            self.kernel.schedule_at(head[0], ArrivalEvent(head[1], rest))

    def busy(self) -> bool:
        """``True`` while the run has work left: scheduled events, or
        arrivals deferred onto the service backlog (which are no longer
        kernel events).  Self-rescheduling timers should key off this, not
        off the kernel alone."""
        return self.kernel.has_events() or bool(self._arrival_backlog)

    # ------------------------------------------------------------------
    # The drive loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next scheduled event (delivery, fault, timer or arrival).

        Returns ``False`` when nothing remained scheduled.
        """
        firing = self.kernel.next_event()
        if firing is None:
            return False
        event = firing.event
        if isinstance(event, DeliveryEvent):
            self.last_activity_time = firing.time
            self._fire_delivery(event, firing.time)
        elif isinstance(event, TimerEvent):
            event.callback(self, firing.time)
        elif isinstance(event, ArrivalEvent):
            self.last_activity_time = firing.time
            if event.rest is not None:
                self.schedule_arrivals(event.rest)
            self._handle_arrival(event.operation)
        else:  # pragma: no cover - future event types
            raise SimulationError(f"unknown event type {type(event).__name__}")
        return True

    def _fire_delivery(self, event: DeliveryEvent, time: float) -> None:
        """Hand an arrived delivery to its destination — or lose it."""
        destination = event.channel[1]
        if self.replica_down(destination) or self.network.is_stale(event):
            # The destination is crashed, or the stream was severed (by a
            # crash) while this batch was in flight: the delivery dies like
            # a broken connection's data, and retransmission or the restart
            # resync recover the contents.
            self.network.note_lost(event)
        else:
            self.network.record_delivery(event, time)
            self.deliver(self._replica(destination), event.messages)

    def _note_stale_epoch(self, rejected: int) -> None:
        self.network.stats.messages_rejected_stale_epoch += rejected

    def _handle_arrival(self, operation: "Any") -> None:
        self._arrival_backlog.append((self.now, operation))
        if self._servicing_arrivals:
            # Reached from inside another arrival's (blocking) submit; the
            # outer service loop will pick this operation up in order.
            return
        self._servicing_arrivals = True
        try:
            while self._arrival_backlog:
                arrived_at, next_operation = self._arrival_backlog.popleft()
                self.submit_operation(next_operation)
                self.metrics.operation_latencies.append(self.now - arrived_at)
        finally:
            self._servicing_arrivals = False

    def run_until_quiescent(self, max_steps: int = 1_000_000) -> int:
        """Fire scheduled events until none remain; returns events fired.

        Held channels are *not* released automatically; the adversarial
        experiments release them explicitly.  After the queue drains, a
        *cross-replica fixpoint* re-runs every replica's apply loop (and the
        architecture's quiescent hook) until no replica makes progress: one
        replica's apply or serve can unblock another's buffered update, and
        a serve can even emit new messages — in which case the drain loop
        resumes.  Raises :class:`~repro.core.errors.SimulationError` if the
        step budget is exhausted, which would indicate a livelock in the
        protocol under test.
        """
        steps = 0
        while True:
            while self.kernel.has_events():
                if steps >= max_steps:
                    raise SimulationError(
                        f"run_until_quiescent exceeded {max_steps} steps"
                    )
                self.step()
                steps += 1
            self._apply_fixpoint()
            if not self.kernel.has_events():
                return steps

    def _apply_fixpoint(self) -> bool:
        """Apply/serve across all replicas until globally stable."""
        any_progress = False
        progress = True
        while progress:
            progress = False
            for replica in self._replica_map().values():
                if self.replica_down(replica.replica_id):
                    continue
                if self._apply_ready(replica, force=True):
                    progress = True
                if self._quiescent_hook(replica):
                    progress = True
            any_progress = any_progress or progress
        return any_progress

    # ------------------------------------------------------------------
    # Simulator-specific introspection
    # ------------------------------------------------------------------
    def total_metadata_counters_sent(self) -> int:
        """Total counters shipped inside update messages so far."""
        return self.network.stats.metadata_counters_sent
