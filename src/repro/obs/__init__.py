"""Unified observability: causal tracing, metrics registry, trace analysis.

Three legs, one package:

* :mod:`repro.obs.trace` — the message-lifecycle recorder every
  instrumented layer stamps into (zero-cost when disabled);
* :mod:`repro.obs.registry` / :mod:`repro.obs.publish` — a labelled
  counter/gauge/histogram registry with JSONL and Prometheus export,
  plus publishers for every existing metrics producer;
* :mod:`repro.obs.analyze` — span assembly, per-stage latency
  breakdowns, critical paths and Chrome ``trace_event`` export
  (the library behind ``tools/trace_report.py``).
"""

from .analyze import (
    HOPS,
    analyze_file,
    assemble_spans,
    channel_byte_table,
    channel_timelines,
    chrome_trace,
    complete_chains,
    coverage,
    critical_paths,
    epoch_byte_table,
    node_transport_table,
    stage_breakdown,
)
from .publish import (
    publish_channel_wire_stats,
    publish_epoch_segments,
    publish_network_stats,
    publish_node_counters,
    publish_node_transport,
    publish_run_metrics,
    registry_for_live,
    registry_for_sim,
)
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    fold_samples,
    load_metrics_jsonl,
)
from .trace import (
    APPLY,
    DELIVER,
    ISSUE,
    SEND,
    STAGES,
    WIRE,
    TraceEvent,
    TraceRecorder,
    event_from_dict,
    event_to_dict,
    load_trace_jsonl,
    write_trace_jsonl,
)

__all__ = [
    "APPLY",
    "DEFAULT_BUCKETS",
    "DELIVER",
    "HOPS",
    "ISSUE",
    "SEND",
    "STAGES",
    "WIRE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceEvent",
    "TraceRecorder",
    "analyze_file",
    "assemble_spans",
    "channel_byte_table",
    "channel_timelines",
    "chrome_trace",
    "complete_chains",
    "coverage",
    "critical_paths",
    "epoch_byte_table",
    "event_from_dict",
    "event_to_dict",
    "fold_samples",
    "load_metrics_jsonl",
    "load_trace_jsonl",
    "node_transport_table",
    "publish_channel_wire_stats",
    "publish_epoch_segments",
    "publish_network_stats",
    "publish_node_counters",
    "publish_node_transport",
    "publish_run_metrics",
    "registry_for_live",
    "registry_for_sim",
    "stage_breakdown",
    "write_trace_jsonl",
]
