"""Publishers: every existing metrics producer → one :class:`MetricsRegistry`.

``RunMetrics``, ``NetworkStats`` and the per-channel ``ChannelWireStats``
stay the runtime recording structures (cheap plain fields on the hot
path); each declares its counters on its own fields
(:mod:`repro.core.counters`), and :func:`publish_book` projects those
declarations into registry families after (or during) a run.  Series,
histograms and per-replica maps are published by hand.  Metric names
follow the Prometheus conventions: ``repro_`` prefix, ``_total`` suffix on
counters, units spelled out.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence, Tuple

from ..core.counters import COUNTER, exports
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


def publish_book(registry: MetricsRegistry, book: Any, prefix: str,
                 **labels: object) -> None:
    """Every declared counter and gauge of a book (:mod:`repro.core.counters`)
    → one registry family each, named ``prefix + name`` (``_total`` on
    counters)."""
    for export in exports(type(book)):
        value = getattr(book, export.attr)
        if export.kind == COUNTER:
            registry.counter(export.metric(prefix), export.help, **labels).inc(value)
        else:
            registry.gauge(export.metric(prefix), export.help, **labels).set(value)


def publish_run_metrics(registry: MetricsRegistry, metrics: RunMetrics,
                        **labels: object) -> None:
    """Project one :class:`RunMetrics` into the registry."""
    publish_book(registry, metrics, "repro_", **labels)
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
    """Per-channel byte books (:class:`~repro.wire.channel.ChannelWireStats`).

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
        publish_book(registry, stats, "repro_channel_", **channel_labels)
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
    segments: Sequence[Any],
    bounds: bool = True,
    **labels: object,
) -> None:
    """Per-epoch traffic books (:class:`~repro.sim.reconfig.EpochSegment`).

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
        epoch_labels = dict(labels, epoch=segment.epoch)
        publish_book(registry, segment, "repro_epoch_", **epoch_labels)
        if bounds:
            graph = segment.share_graph
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
    publish_book(registry, stats, "repro_", **labels)
    publish_channel_wire_stats(registry, stats.per_channel, graph=graph,
                               bounds=bounds, **labels)


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
    from ..net.node import TenantCounters
    from .registry import fold_samples

    sample_labels = tuple(
        sorted((k, str(v)) for k, v in dict(labels, replica=replica_id).items())
    )
    for export in exports(TenantCounters):
        if export.name not in counters:
            continue
        name = export.metric("repro_node_")
        # Declare the family with its help text; folding only creates it.
        registry.counter(name, export.help, replica=replica_id, **labels)
        fold_samples(registry, [(name, sample_labels, float(counters[export.name]))])


def publish_node_transport(registry: MetricsRegistry, node_id: Any,
                           transport: Mapping[str, Any],
                           **labels: object) -> None:
    """One live node's final ``report()["transport"]`` → per-node families.

    The names and ``node`` label of ``LiveNode.telemetry_samples()``: its
    gauges, its :class:`~repro.net.node.NodeCounters` and its log's
    :class:`~repro.net.wal.WalCounters`.  Folded through
    :func:`~repro.obs.registry.fold_samples` like
    :func:`publish_node_counters`, so a report that follows the node's
    telemetry adds only what the last sample had not seen.
    """
    from ..net.node import LiveNode, NodeCounters
    from ..net.wal import WalCounters
    from .registry import fold_samples

    node_labels = dict(labels, node=node_id)
    sample_labels = tuple(sorted((k, str(v)) for k, v in node_labels.items()))
    for book_type in (LiveNode, NodeCounters, WalCounters):
        for export in exports(book_type):
            if export.name not in transport:
                continue
            name = export.metric("repro_node_")
            # Declare the family with its help text; folding only creates it.
            if export.kind == COUNTER:
                registry.counter(name, export.help, **node_labels)
            else:
                registry.gauge(name, export.help, **node_labels)
            fold_samples(registry, [(name, sample_labels,
                                     float(transport[export.name]))])


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
    counters and transport books — which share series with the telemetry
    stream and therefore fold *after* it through the same counter-reset
    state.
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
    for node_id, node_report in sorted(result.node_reports.items(),
                                       key=lambda item: str(item[0])):
        publish_node_transport(registry, node_id,
                               node_report.get("transport", {}), **labels)
    return registry


__all__ = [
    "publish_book",
    "publish_channel_wire_stats",
    "publish_network_stats",
    "publish_node_counters",
    "publish_node_transport",
    "publish_run_metrics",
    "registry_for_live",
    "registry_for_sim",
]
