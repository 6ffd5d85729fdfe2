"""Publishers: every existing metrics producer → one :class:`MetricsRegistry`.

``RunMetrics`` and ``NetworkStats`` predate the registry and stay the
runtime recording structures (cheap plain fields on the hot path); these
functions project them into registry families after (or during) a run.
Metric names follow the Prometheus conventions: ``repro_`` prefix,
``_total`` suffix on counters, units spelled out.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence, Tuple

from ..core.host import RunMetrics
from ..core.registers import ReplicaId
from ..core.share_graph import ShareGraph
from ..lower_bounds import algorithm_counters
from .registry import MetricsRegistry

Channel = Tuple[ReplicaId, ReplicaId]

#: Histogram buckets for apply/operation latencies, in host time units
#: (simulated units or wall-clock seconds — both spread well over these).
LATENCY_BUCKETS = (0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5,
                   1.0, 5.0, 10.0, 50.0, 100.0)


def publish_run_metrics(registry: MetricsRegistry, metrics: RunMetrics,
                        **labels: object) -> None:
    """Project one :class:`RunMetrics` into the registry."""
    registry.counter("repro_writes_total", "client writes", **labels).inc(
        metrics.writes)
    registry.counter("repro_reads_total", "client reads", **labels).inc(
        metrics.reads)
    registry.counter("repro_applies_total", "remote applies", **labels).inc(
        metrics.applies)
    registry.counter("repro_crashes_total", "injected crashes", **labels).inc(
        metrics.crashes)
    registry.counter("repro_restarts_total", "replica restarts", **labels).inc(
        metrics.restarts)
    registry.counter(
        "repro_rejected_operations_total",
        "operations rejected at down/migrating replicas", **labels,
    ).inc(metrics.rejected_operations)
    latency = registry.histogram(
        "repro_apply_latency", "issue-to-remote-apply latency (host time)",
        buckets=LATENCY_BUCKETS, **labels,
    )
    for sample in metrics.apply_latencies:
        latency.observe(sample)
    blocking = registry.histogram(
        "repro_operation_latency", "client-observed operation blocking time",
        buckets=LATENCY_BUCKETS, **labels,
    )
    for sample in metrics.operation_latencies:
        blocking.observe(sample)
    for rid, depth in sorted(metrics.max_pending.items()):
        registry.gauge(
            "repro_max_pending", "peak pending-buffer occupancy",
            replica=rid, **labels,
        ).set(depth)


def publish_channel_wire_stats(
    registry: MetricsRegistry,
    per_channel: Mapping[Channel, Any],
    graph: Optional[ShareGraph] = None,
    bounds: bool = True,
    **labels: object,
) -> None:
    """Per-channel byte books (``ChannelWireStats``-shaped objects).

    With a ``graph``, also publishes the paper's closed-form metadata bound
    for each channel's sender (``algorithm_counters``): the per-message
    counter budget the shipped timestamp bytes should track — the
    byte-vs-bound comparison ``tools/trace_report.py`` renders.  Pass
    ``bounds=False`` to skip that: ``|E_i|`` needs one Definition 5
    decision per sender (seconds in all on a 64-replica clique), while the
    byte books themselves are free.
    """
    counters_of: dict = {}
    for (src, dst), stats in sorted(per_channel.items()):
        channel_labels = dict(labels, src=src, dst=dst)
        registry.counter(
            "repro_channel_messages_total", "messages on this channel",
            **channel_labels).inc(stats.messages)
        registry.counter(
            "repro_channel_batches_total", "batches flushed on this channel",
            **channel_labels).inc(stats.batches)
        registry.counter(
            "repro_channel_header_bytes_total", "envelope/identity bytes",
            **channel_labels).inc(stats.header_bytes)
        registry.counter(
            "repro_channel_timestamp_bytes_total", "timestamp-frame bytes",
            **channel_labels).inc(stats.timestamp_bytes)
        registry.counter(
            "repro_channel_payload_bytes_total", "payload-value bytes",
            **channel_labels).inc(stats.payload_bytes)
        if bounds and graph is not None and src in graph.replica_ids:
            if src not in counters_of:
                counters_of[src] = algorithm_counters(graph, src)
            registry.gauge(
                "repro_channel_bound_counters",
                "closed-form metadata bound of the sender (counters/message)",
                **channel_labels,
            ).set(counters_of[src])


def publish_epoch_segments(
    registry: MetricsRegistry,
    segments: Sequence[Mapping[str, Any]],
    bounds: bool = True,
    **labels: object,
) -> None:
    """Per-epoch traffic books (``ReconfigManager.epoch_segments`` rows).

    One label set per configuration epoch: the messages, timestamp-frame
    bytes and metadata counters shipped while that configuration was
    active, its activation span, and — with ``bounds=True`` — the
    closed-form counter budget of the epoch's share graph (the worst
    sender's ``algorithm_counters``, the per-message metadata bound the
    shipped traffic should respect in *every* epoch, including the ones
    a controller installed mid-run).  Pass ``bounds=False`` to skip the
    per-sender ``|E_i|`` computation on large dense share graphs.
    """
    for segment in segments:
        epoch_labels = dict(labels, epoch=segment["epoch"])
        registry.counter(
            "repro_epoch_messages_total",
            "messages sent while this epoch was active",
            **epoch_labels).inc(segment["messages"])
        registry.counter(
            "repro_epoch_timestamp_bytes_total",
            "timestamp-frame bytes sent while this epoch was active",
            **epoch_labels).inc(segment["timestamp_bytes"])
        registry.counter(
            "repro_epoch_counters_total",
            "metadata counters shipped while this epoch was active",
            **epoch_labels).inc(segment["counters"])
        registry.gauge(
            "repro_epoch_start", "epoch activation time (host time)",
            **epoch_labels).set(segment["start"])
        registry.gauge(
            "repro_epoch_end", "epoch retirement time (host time)",
            **epoch_labels).set(segment["end"])
        graph = segment.get("share_graph")
        if graph is None:
            continue
        registry.gauge(
            "repro_epoch_replicas", "replicas in the epoch's share graph",
            **epoch_labels).set(graph.num_replicas)
        if bounds:
            worst = max(
                (algorithm_counters(graph, rid) for rid in graph.replica_ids),
                default=0,
            )
            registry.gauge(
                "repro_epoch_bound_counters",
                "closed-form metadata bound of the epoch's worst sender "
                "(counters/message)",
                **epoch_labels,
            ).set(worst)


def publish_network_stats(registry: MetricsRegistry, stats: Any,
                          graph: Optional[ShareGraph] = None,
                          bounds: bool = True,
                          **labels: object) -> None:
    """Project one :class:`~repro.sim.engine.NetworkStats` into the registry."""
    for name, help_text in (
        ("messages_sent", "messages handed to the transport"),
        ("messages_delivered", "messages delivered"),
        ("messages_dropped", "messages lost by the channel"),
        ("messages_duplicated", "extra copies injected by the channel"),
        ("retransmissions", "copies re-sent by the reliability layer"),
        ("batches_sent", "batches flushed onto the wire"),
        ("header_bytes_sent", "envelope/identity bytes on the wire"),
        ("timestamp_bytes_sent", "timestamp-frame bytes on the wire"),
        ("payload_bytes_sent", "payload-value bytes on the wire"),
        ("timestamp_bytes_full", "what timestamps would cost without deltas"),
        ("delta_frames_sent", "timestamp frames shipped as deltas"),
        ("full_frames_sent", "timestamp frames shipped in full"),
        ("metadata_counters_sent", "timestamp counters shipped"),
    ):
        registry.counter(f"repro_{name}_total", help_text, **labels).inc(
            getattr(stats, name))
    publish_channel_wire_stats(registry, stats.per_channel, graph=graph,
                               bounds=bounds, **labels)


#: Live node counters that are cumulative (TELEMETRY re-sends totals).
_NODE_COUNTER_HELP = {
    "ops_done": "client operations completed",
    "issued": "updates issued locally",
    "enqueued": "messages handed to a channel",
    "sent": "messages flushed onto the wire (reconnect re-sends included)",
    "received": "messages read off the wire (duplicates included)",
    "delivered": "first receipts (duplicates suppressed)",
    "duplicates": "duplicate copies suppressed",
    "resyncs": "SYNC anti-entropy exchanges answered",
    "delta_frames": "timestamp frames shipped as deltas",
    "full_frames": "timestamp frames shipped in full (delta fallbacks)",
}


def publish_node_counters(registry: MetricsRegistry, replica_id: ReplicaId,
                          counters: Mapping[str, int],
                          **labels: object) -> None:
    """One live node's counter dict → per-replica counter families.

    Report counters are cumulative totals from the node's (latest)
    lifetime — the same series its TELEMETRY stream re-sends — so they go
    through the :func:`~repro.obs.registry.fold_samples` counter-reset
    path rather than a blind ``inc``: published after the node's telemetry
    has been folded, a report adds only the increments the last telemetry
    sample had not seen yet (and a post-restart report, smaller than the
    pre-crash high-water mark, folds as a reset) instead of
    double-counting the lifetime.
    """
    from .registry import fold_samples

    for name, value in sorted(counters.items()):
        help_text = _NODE_COUNTER_HELP.get(name, "")
        full_name = f"repro_node_{name}_total"
        # Declare the family with its help text; folding only creates it.
        registry.counter(full_name, help_text, replica=replica_id, **labels)
        sample_labels = tuple(
            sorted((k, str(v)) for k, v in
                   dict(labels, replica=replica_id).items())
        )
        fold_samples(registry, [(full_name, sample_labels, float(value))])


def attach_encoder_observer(encoder: Any, registry: MetricsRegistry,
                            **labels: object) -> None:
    """Wire a :class:`~repro.wire.channel.ChannelDeltaEncoder` to a registry.

    Every encoded frame increments per-channel delta/full-frame counters —
    the delta-encoder fallback rate, observable live rather than only from
    end-of-run aggregates.  Uses the encoder's zero-cost-when-unset
    ``on_frame`` hook.
    """

    def on_frame(channel: Channel, sizes: Any) -> None:
        src, dst = channel
        if sizes.delta_frames:
            registry.counter(
                "repro_encoder_delta_frames_total",
                "timestamp frames delta-encoded", src=src, dst=dst, **labels,
            ).inc(sizes.delta_frames)
        if sizes.full_frames:
            registry.counter(
                "repro_encoder_full_frames_total",
                "timestamp frames sent in full (fallbacks)",
                src=src, dst=dst, **labels,
            ).inc(sizes.full_frames)

    encoder.on_frame = on_frame


def registry_for_sim(host: Any, graph: Optional[ShareGraph] = None,
                     bounds: bool = True, **labels: object) -> MetricsRegistry:
    """Everything a finished simulated run publishes, in one registry.

    ``bounds=False`` skips the per-sender ``|E_i|`` bound gauges — use it
    on large dense share graphs where one Definition 5 decision per sender
    adds up (e.g. big cliques run through the Section 5 vector-compressed
    replica).
    """
    registry = MetricsRegistry()
    publish_run_metrics(registry, host.metrics, **labels)
    publish_network_stats(
        registry, host.network.stats,
        graph=graph if graph is not None else host.share_graph,
        bounds=bounds, **labels,
    )
    return registry


def registry_for_live(result: Any, bounds: bool = True,
                      **labels: object) -> MetricsRegistry:
    """Everything a finished live run publishes, in one registry.

    Folds the merged :class:`RunMetrics`, the per-channel wire books, the
    TELEMETRY sample streams (in sample order, so counter resets across a
    kill/restart fold correctly) and, last, every node's final report
    counters — which share series with the telemetry stream and therefore
    fold *after* it through the same counter-reset state.
    """
    from .registry import fold_samples

    registry = MetricsRegistry()
    publish_run_metrics(registry, result.metrics, **labels)
    publish_channel_wire_stats(registry, result.channel_wire_stats(),
                               graph=result.share_graph, bounds=bounds,
                               **labels)
    for _, frames in sorted(result.telemetry.items()):
        for _, _, samples in sorted(frames, key=lambda frame: frame[0]):
            fold_samples(registry, samples)
    for rid, report in sorted(result.reports.items()):
        publish_node_counters(registry, rid, report.get("counters", {}),
                              **labels)
    return registry


__all__ = [
    "attach_encoder_observer",
    "publish_channel_wire_stats",
    "publish_network_stats",
    "publish_node_counters",
    "publish_run_metrics",
    "registry_for_live",
    "registry_for_sim",
]
