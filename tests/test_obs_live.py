"""Observability over the live runtime: traces, telemetry, wire books.

The live side of the acceptance bar: an 8-replica cluster of real
processes over real TCP, with tracing and periodic TELEMETRY export on,
whose per-process trace recorders join (they share the launcher's clock
origin) into chains covering ≥99% of delivered ops.

When ``REPRO_OBS_ARTIFACTS`` names a directory, the traced run also dumps
its JSONL trace and metrics files there — the artifacts CI uploads.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.share_graph import ShareGraph
from repro.net import LiveCluster
from repro.obs import (
    assemble_spans,
    chrome_trace,
    complete_chains,
    coverage,
    registry_for_live,
    stage_breakdown,
    write_trace_jsonl,
)
from repro.sim.topologies import pairwise_clique_placement
from repro.sim.workloads import single_writer_workload


@pytest.fixture(scope="module")
def traced_live_run():
    graph = ShareGraph.from_placement(pairwise_clique_placement(8))
    # Every pairwise register lives at exactly 2 replicas, so each write
    # yields a single remote copy — the rate keeps the chain count >50.
    workload = single_writer_workload(
        graph, rate=6.0, duration=25.0, write_fraction=0.6, seed=23
    )
    with LiveCluster(graph, tracing=True, telemetry_interval=0.25) as cluster:
        result = cluster.run_open_loop(workload, time_scale=0.0005)
    assert result.check_consistency().is_causally_consistent
    return result


class TestLiveTracing:
    def test_chain_coverage_at_least_99_percent(self, traced_live_run):
        events = traced_live_run.trace_events()
        assert events
        spans = assemble_spans(events)
        complete, applied = coverage(spans)
        assert applied > 50
        assert complete / applied >= 0.99

    def test_cross_process_clocks_join(self, traced_live_run):
        """Per-process recorders share the launcher's clock origin, so a
        chain's stages — recorded in *different* OS processes — must be
        monotone after the merge."""
        chains = complete_chains(assemble_spans(traced_live_run.trace_events()))
        assert chains
        breakdown = stage_breakdown(chains)
        # issue/send/wire happen in the sender process, deliver/apply in
        # the receiver: a negative transport hop would mean the clock
        # origins diverged.
        assert breakdown["transport"].p50 >= 0.0
        assert breakdown["end-to-end"].p50 > 0.0

    def test_chrome_export_renders(self, traced_live_run, tmp_path):
        spans = assemble_spans(traced_live_run.trace_events())
        document = chrome_trace(spans)  # live times are seconds → µs
        path = tmp_path / "live_trace.json"
        path.write_text(json.dumps(document))
        loaded = json.loads(path.read_text())
        assert any(event["ph"] == "X" for event in loaded["traceEvents"])

    def test_telemetry_frames_received_and_folded(self, traced_live_run):
        telemetry = traced_live_run.telemetry
        # Every node pushed at least one sample: the periodic loop covers
        # long runs, and the REPORT_REQ handler flushes a final sample
        # ahead of its reply, so even a run shorter than one sampling
        # interval exports its end-of-run counters from all 8 nodes.
        assert len(telemetry) == 8
        assert all(frames for frames in telemetry.values())
        for frames in telemetry.values():
            for sampled_at, replica_id, samples in frames:
                assert sampled_at >= 0.0
                for name, labels, value in samples:
                    assert name.startswith("repro_node_")
                    assert isinstance(labels, tuple)
                    assert value >= 0.0

    def test_wire_books_and_registry_projection(self, traced_live_run):
        books = traced_live_run.channel_wire_stats()
        assert books
        for channel, book in books.items():
            assert book.messages > 0
            assert book.timestamp_bytes > 0
        registry = registry_for_live(traced_live_run)
        records = registry.snapshot()
        names = {record["name"] for record in records}
        assert "repro_applies_total" in names
        assert "repro_node_wire_timestamp_bytes_total" in names
        # The Prometheus rendering of a live registry is well-formed.
        text = registry.render_prometheus()
        assert "# TYPE repro_applies_total counter" in text

    def test_artifacts_dump_when_requested(self, traced_live_run, tmp_path):
        artifact_dir = os.environ.get("REPRO_OBS_ARTIFACTS") or str(tmp_path)
        os.makedirs(artifact_dir, exist_ok=True)
        trace_path = os.path.join(artifact_dir, "live_trace.jsonl")
        metrics_path = os.path.join(artifact_dir, "live_metrics.jsonl")
        written = write_trace_jsonl(traced_live_run.trace_events(), trace_path)
        assert written > 0
        registry = registry_for_live(traced_live_run)
        assert registry.write_jsonl(metrics_path) > 0
        # Both artifacts reload as JSONL.
        with open(trace_path, encoding="utf-8") as handle:
            assert all(json.loads(line) for line in handle)
        with open(metrics_path, encoding="utf-8") as handle:
            assert all(json.loads(line) for line in handle)


def test_tracing_defaults_off():
    """An untraced LiveCluster reports no trace events and no telemetry."""
    graph = ShareGraph.from_placement(pairwise_clique_placement(3))
    workload = single_writer_workload(
        graph, rate=3.0, duration=8.0, write_fraction=0.6, seed=5
    )
    with LiveCluster(graph) as cluster:
        result = cluster.run_open_loop(workload, time_scale=0.0005)
    assert result.trace_events() == []
    assert all(not frames for frames in result.telemetry.values())


@pytest.mark.parametrize("interval", [0.0, 0.25],
                         ids=["telemetry_off", "telemetry_on"])
def test_registry_folds_each_node_transport_book_once(interval):
    """Each node's final transport book reaches the registry under the
    names and ``node`` label of its TELEMETRY samples: without telemetry
    from the report alone, with telemetry without counting twice."""
    graph = ShareGraph.from_placement(pairwise_clique_placement(4))
    workload = single_writer_workload(
        graph, rate=3.0, duration=8.0, write_fraction=0.6, seed=5
    )
    with LiveCluster(graph, nodes=2, telemetry_interval=interval) as cluster:
        result = cluster.run_open_loop(workload, time_scale=0.0005)
    assert len(result.node_reports) == 2
    assert bool(result.telemetry) == (interval > 0)
    values = {(record["name"], record["labels"].get("node")): record["value"]
              for record in registry_for_live(result).snapshot()
              if "value" in record}
    for node_id, report in result.node_reports.items():
        transport = report["transport"]
        node = str(node_id)
        assert transport["socket_writes"] > 0
        assert (values[("repro_node_socket_writes_total", node)]
                == transport["socket_writes"])
        for name, value in transport.items():
            published = values.get((f"repro_node_{name}_total", node),
                                   values.get((f"repro_node_{name}", node)))
            assert published == value, name
