"""Mid-run signal extraction for the adaptive controller.

Every source the simulator already maintains is *cumulative* — per-channel
wire books, replica event traces, the apply-latency sample list — so the
:class:`Sensor` keeps a consumption cursor into each and emits per-window
deltas as one immutable :class:`SignalSnapshot`:

* per-channel / per-sender **timestamp bytes vs. the closed-form bound**
  (``algorithm_counters``, the ``|E_i|`` of Theorem 15) — the byte
  pressure signal behind the compression lever and edge shedding;
* **hot/cold register and writer activity** from fresh ``ISSUE`` events —
  what the planner attracts copies towards and sheds copies away from;
* **skewed channel traffic** (per-channel message deltas);
* overall and **region-level apply-latency p99** over the window, the
  placement-quality signal.

Sampling is read-only and allocation-light: one pass over the new suffix
of each replica's trace plus a dict diff of the wire books.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.protocol import EventKind
from ..core.registers import Register, ReplicaId
from ..lower_bounds import algorithm_counters
from ..placement.score import _percentile

__all__ = ["Sensor", "SignalSnapshot"]

Channel = Tuple[ReplicaId, ReplicaId]


@dataclass(frozen=True)
class SignalSnapshot:
    """Window deltas of every controller-relevant signal."""

    time: float
    #: Wire messages / timestamp bytes sent since the previous sample.
    messages: int
    timestamp_bytes: int
    #: Measured timestamp bytes per message over the window (0 if idle).
    ts_bytes_per_msg: float
    #: Traffic-weighted mean ``|E_i|`` of the window's senders — the
    #: closed-form counters-per-message bound the bytes should track.
    bound_counters_per_msg: float
    #: Per-channel message deltas (skew signal).
    channel_messages: Mapping[Channel, int] = field(default_factory=dict)
    #: Fresh client writes per register / per issuing replica.
    writes_by_register: Mapping[Register, int] = field(default_factory=dict)
    writes_by_replica: Mapping[ReplicaId, int] = field(default_factory=dict)
    #: The replica that issued most of each register's window writes.
    writer_of: Mapping[Register, ReplicaId] = field(default_factory=dict)
    #: Apply-latency p99 over the window's fresh samples (overall and by
    #: the applying replica's region, when a region map was given).
    apply_p99: float = 0.0
    region_apply_p99: Mapping[str, float] = field(default_factory=dict)


class Sensor:
    """Incremental reader of one host's cumulative telemetry sources."""

    def __init__(self, host, region_of: Optional[Mapping[ReplicaId, str]] = None):
        self.host = host
        self.region_of = dict(region_of or {})
        #: Wire-book cursor: channel -> (messages, timestamp_bytes).
        self._wire_seen: Dict[Channel, Tuple[int, int]] = {}
        #: Trace cursor: replica -> events consumed.
        self._events_seen: Dict[ReplicaId, int] = {}
        #: Apply-latency samples consumed from ``metrics.apply_latencies``.
        self._latencies_seen = 0
        #: Issue times by uid, for region-level apply latencies.
        self._issue_times: Dict[object, float] = {}
        #: ``algorithm_counters`` memo, invalidated on epoch change.
        self._bound_epoch: Optional[int] = None
        self._bounds: Dict[ReplicaId, float] = {}

    # ------------------------------------------------------------------
    def _sender_bound(self, sender: ReplicaId) -> float:
        host = self.host
        epoch = getattr(host, "epoch", 0)
        if epoch != self._bound_epoch:
            self._bounds = {}
            self._bound_epoch = epoch
        bound = self._bounds.get(sender)
        if bound is None:
            if sender in host.share_graph.replica_ids:
                bound = float(algorithm_counters(host.share_graph, sender))
            else:
                bound = 0.0
            self._bounds[sender] = bound
        return bound

    def sample(self) -> SignalSnapshot:
        """One window's deltas across every source, as of ``host.now``."""
        host = self.host

        # Wire books: per-channel message / timestamp-byte deltas.
        channel_messages: Dict[Channel, int] = {}
        messages = 0
        timestamp_bytes = 0
        weighted_bound = 0.0
        for channel, stats in sorted(host.network.stats.per_channel.items()):
            seen_msgs, seen_bytes = self._wire_seen.get(channel, (0, 0))
            d_msgs = stats.messages - seen_msgs
            d_bytes = stats.timestamp_bytes - seen_bytes
            self._wire_seen[channel] = (stats.messages, stats.timestamp_bytes)
            if d_msgs <= 0:
                continue
            channel_messages[channel] = d_msgs
            messages += d_msgs
            timestamp_bytes += d_bytes
            weighted_bound += d_msgs * self._sender_bound(channel[0])

        # Replica traces: fresh issues (hot registers / writers) and the
        # issue times the region-level apply latencies need.
        writes_by_register: Dict[Register, int] = {}
        writes_by_replica: Dict[ReplicaId, int] = {}
        writer_votes: Dict[Register, Dict[ReplicaId, int]] = {}
        fresh_applies: List[Tuple[ReplicaId, object, float]] = []
        for rid, events in sorted(host.events_by_replica().items()):
            start = self._events_seen.get(rid, 0)
            for event in events[start:]:
                if event.kind is EventKind.ISSUE and event.update is not None:
                    register = event.update.register
                    writes_by_register[register] = (
                        writes_by_register.get(register, 0) + 1
                    )
                    writes_by_replica[rid] = writes_by_replica.get(rid, 0) + 1
                    writer_votes.setdefault(register, {})
                    writer_votes[register][rid] = (
                        writer_votes[register].get(rid, 0) + 1
                    )
                    self._issue_times[event.update.uid] = event.sim_time
                elif event.kind is EventKind.APPLY and event.update is not None:
                    fresh_applies.append(
                        (rid, event.update.uid, event.sim_time)
                    )
            self._events_seen[rid] = len(events)

        writer_of = {
            register: max(sorted(votes.items()), key=lambda item: item[1])[0]
            for register, votes in writer_votes.items()
        }

        # Region-level apply latencies from the fresh applies whose issue
        # we have seen (always, since issues precede applies in the trace).
        by_region: Dict[str, List[float]] = {}
        for rid, uid, applied_at in fresh_applies:
            issued_at = self._issue_times.get(uid)
            if issued_at is None:
                continue
            region = self.region_of.get(rid)
            if region is not None:
                by_region.setdefault(region, []).append(applied_at - issued_at)

        latencies = host.metrics.apply_latencies
        fresh_latencies = [float(v) for v in latencies[self._latencies_seen:]]
        self._latencies_seen = len(latencies)

        return SignalSnapshot(
            time=host.now,
            messages=messages,
            timestamp_bytes=timestamp_bytes,
            ts_bytes_per_msg=(timestamp_bytes / messages) if messages else 0.0,
            bound_counters_per_msg=(
                weighted_bound / messages if messages else 0.0
            ),
            channel_messages=channel_messages,
            writes_by_register=writes_by_register,
            writes_by_replica=writes_by_replica,
            writer_of=writer_of,
            apply_p99=_percentile(fresh_latencies, 0.99),
            region_apply_p99={
                region: _percentile(samples, 0.99)
                for region, samples in sorted(by_region.items())
            },
        )
