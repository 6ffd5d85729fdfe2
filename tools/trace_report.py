#!/usr/bin/env python3
"""Analyze a message-lifecycle trace dump: latency breakdowns and timelines.

Consumes the JSONL traces the observability layer records (simulated or
live runs — see ``docs/ARCHITECTURE.md``, *Observability*) and prints:

* **coverage** — how many applied destination copies reconstruct their
  full issue → send → wire → deliver → apply chain;
* **per-stage latency breakdown** — p50/p90/p99/max for each lifecycle
  hop: issue→send, the batching-window wait, the transport latency, and
  the pending-buffer (causal) wait, plus end-to-end;
* **critical paths** — the slowest complete chains with their per-stage
  split, the "why was this op slow" answer;
* with ``--metrics`` (a ``MetricsRegistry.write_jsonl`` dump) — the
  per-channel timestamp-bytes-vs-bound table: shipped timestamp bytes per
  message next to the paper's closed-form counter bound for the sender;
  when the dump carries per-epoch traffic books (``publish_epoch_segments``
  over a ``ReconfigManager``), the per-epoch bytes-vs-bound table —
  shipped metadata per message against each configuration's worst-sender
  bound, one row per epoch a schedule or controller installed; plus, when
  the dump carries node-level telemetry from a multi-tenant live run, the
  per-node transport-footprint table (host-pair streams, queue depths,
  WAL bytes/records/compactions);
* with ``--chrome PATH`` — a Chrome ``trace_event`` JSON file; load it in
  ``chrome://tracing`` or https://ui.perfetto.dev to see every chain as a
  flame row (one process per destination replica, one row per source).

Run from the repository root::

    PYTHONPATH=src python tools/trace_report.py trace.jsonl
    PYTHONPATH=src python tools/trace_report.py trace.jsonl \
        --metrics metrics.jsonl --chrome trace_chrome.json

``--require-coverage 0.99`` makes the exit status enforce the acceptance
bar (useful in CI): non-zero when fewer than that fraction of applied
remote copies reconstruct fully.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs import (  # noqa: E402
    assemble_spans,
    channel_byte_table,
    chrome_trace,
    complete_chains,
    coverage,
    critical_paths,
    epoch_byte_table,
    load_metrics_jsonl,
    load_trace_jsonl,
    node_transport_table,
    stage_breakdown,
)


def _print_breakdown(breakdown) -> None:
    print()
    print(f"{'stage':<14} {'count':>7} {'p50':>10} {'p90':>10} "
          f"{'p99':>10} {'max':>10}")
    for label, summary in breakdown.items():
        print(f"{label:<14} {summary.count:>7} {summary.p50:>10.4f} "
              f"{summary.p90:>10.4f} {summary.p99:>10.4f} {summary.max:>10.4f}")


def _print_critical_paths(paths) -> None:
    if not paths:
        return
    print()
    print("slowest chains (end-to-end, with per-stage split):")
    for entry in paths:
        stages = ", ".join(
            f"{label} {value:.4f}" for label, value in entry["stages"].items()
        )
        print(f"  {entry['uid'][0]}:{entry['uid'][1]} -> "
              f"{entry['destination']}  total {entry['total']:.4f}  ({stages})")


def _print_channel_table(rows) -> None:
    if not rows:
        return
    print()
    print("per-channel timestamp bytes vs. the closed-form counter bound:")
    print(f"{'channel':<12} {'msgs':>6} {'ts bytes':>9} {'ts B/msg':>9} "
          f"{'bound ctrs':>10} {'B/ctr':>7}")
    for row in rows:
        bound = row["bound_counters"]
        ratio = row["bytes_per_bound_counter"]
        print(f"{row['src']}->{row['dst']:<9} {row['messages']:>6} "
              f"{row['timestamp_bytes']:>9} {row['ts_bytes_per_message']:>9.2f} "
              f"{bound if bound is not None else '-':>10} "
              f"{f'{ratio:.2f}' if ratio is not None else '-':>7}")


def _print_epoch_table(rows) -> None:
    if not rows:
        return
    print()
    print("per-epoch metadata traffic vs. the closed-form counter bound:")
    print(f"{'epoch':<6} {'replicas':>8} {'msgs':>7} {'ts bytes':>9} "
          f"{'ts B/msg':>9} {'ctrs/msg':>9} {'bound':>6} {'ctr/bound':>9}")
    for row in rows:
        bound = row["bound_counters"]
        ratio = row["counters_vs_bound"]
        print(f"{row['epoch']:<6} {row['replicas']:>8} {row['messages']:>7} "
              f"{row['timestamp_bytes']:>9} "
              f"{row['ts_bytes_per_message']:>9.2f} "
              f"{row['counters_per_message']:>9.2f} "
              f"{int(bound) if bound is not None else '-':>6} "
              f"{f'{ratio:.2f}' if ratio is not None else '-':>9}")


def _print_node_table(rows) -> None:
    if not rows:
        return
    print()
    print("per-node transport footprint (host-pair streams, frames + WAL):")
    print(f"{'node':<8} {'peers':>6} {'open':>5} {'inbound':>8} "
          f"{'queued':>7} {'unacked':>8} {'writes':>8} {'acks':>7} "
          f"{'misrtd':>6} {'corrupt':>7} {'wal B':>9} {'wal rec':>8} "
          f"{'flushes':>8} {'compact':>8} {'ckpt s':>7} {'ckpt B':>9}")
    for row in rows:
        print(f"{row['node']:<8} {row['peer_streams']:>6} "
              f"{row['open_streams']:>5} {row['inbound_connections']:>8} "
              f"{row['send_queue_depth']:>7} {row['unacked']:>8} "
              f"{row['socket_writes']:>8} {row['ack_frames']:>7} "
              f"{row['misrouted_batches']:>6} {row['corrupt_streams']:>7} "
              f"{row['wal_bytes']:>9} {row['wal_records']:>8} "
              f"{row['wal_flushes']:>8} {row['wal_compactions']:>8} "
              f"{row['wal_checkpoint_seconds']:>7.3f} "
              f"{row['wal_checkpoint_bytes']:>9}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="JSONL trace dump (write_trace_jsonl)")
    parser.add_argument("--metrics", default=None,
                        help="metrics JSONL dump (MetricsRegistry.write_jsonl) "
                             "for the per-channel bytes-vs-bound table")
    parser.add_argument("--chrome", default=None, metavar="PATH",
                        help="also write a Chrome trace_event JSON file")
    parser.add_argument("--top", type=int, default=5,
                        help="critical paths to list (default 5)")
    parser.add_argument("--time-scale", type=float, default=1_000_000.0,
                        help="host-time units -> microseconds for the Chrome "
                             "export (default 1e6: seconds in, µs out)")
    parser.add_argument("--require-coverage", type=float, default=None,
                        metavar="FRACTION",
                        help="exit non-zero when chain coverage is below this")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also dump the analysis as machine-readable JSON")
    args = parser.parse_args(argv)

    events = load_trace_jsonl(args.trace)
    spans = assemble_spans(events)
    chains = complete_chains(spans)
    complete, applied = coverage(spans)
    fraction = complete / applied if applied else 1.0

    print(f"{len(events)} events, {len(spans)} spans "
          f"({applied} applied remote copies)")
    print(f"chain coverage: {complete}/{applied} "
          f"({100.0 * fraction:.2f}% of applied remote copies reconstruct "
          "issue->apply fully)")

    breakdown = stage_breakdown(chains)
    _print_breakdown(breakdown)
    paths = critical_paths(chains, top=args.top)
    _print_critical_paths(paths)

    channel_rows = []
    epoch_rows = []
    node_rows = []
    if args.metrics:
        metric_records = load_metrics_jsonl(args.metrics)
        channel_rows = channel_byte_table(metric_records)
        _print_channel_table(channel_rows)
        epoch_rows = epoch_byte_table(metric_records)
        _print_epoch_table(epoch_rows)
        node_rows = node_transport_table(metric_records)
        _print_node_table(node_rows)

    if args.chrome:
        document = chrome_trace(spans, time_scale=args.time_scale)
        with open(args.chrome, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        print(f"\nwrote {len(document['traceEvents'])} trace_event entries "
              f"to {args.chrome}")

    if args.json:
        payload = {
            "events": len(events),
            "spans": len(spans),
            "applied": applied,
            "complete": complete,
            "coverage": fraction,
            "breakdown": {
                label: {"count": s.count, "mean": s.mean, "p50": s.p50,
                        "p90": s.p90, "p99": s.p99, "max": s.max}
                for label, s in breakdown.items()
            },
            "critical_paths": [
                {**entry, "uid": list(entry["uid"])} for entry in paths
            ],
            "channels": channel_rows,
            "epochs": epoch_rows,
            "nodes": node_rows,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote analysis JSON to {args.json}")

    if args.require_coverage is not None and fraction < args.require_coverage:
        print(f"FAIL: coverage {fraction:.4f} below required "
              f"{args.require_coverage}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
