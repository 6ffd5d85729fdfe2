"""The observability layer in simulation: tracing, registry, analysis.

Three layers of coverage:

* **unit** — the metrics registry (counter/gauge/histogram semantics,
  label children, JSONL + Prometheus export) and the trace codec;
* **integration** — a seeded 64-replica clique run with tracing on: the
  acceptance bar requires ≥99% of delivered ops to reconstruct their
  full issue→send→wire→deliver→apply chain from the JSONL dump alone,
  with per-stage percentiles and a structurally valid Chrome
  ``trace_event`` export;
* **contract** — tracing is off by default and hooks are attribute-level
  (``tracer is None``), so an untraced run records nothing.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.baselines.vector_clock_full import full_replication_factory
from repro.core.errors import ConfigurationError
from repro.core.share_graph import ShareGraph
from repro.obs import (
    MetricsRegistry,
    assemble_spans,
    channel_byte_table,
    chrome_trace,
    complete_chains,
    coverage,
    critical_paths,
    epoch_byte_table,
    fold_samples,
    load_metrics_jsonl,
    load_trace_jsonl,
    node_transport_table,
    publish_epoch_segments,
    registry_for_sim,
    stage_breakdown,
    write_trace_jsonl,
)
from repro.sim.cluster import Cluster
from repro.sim.delays import UniformDelay
from repro.sim.engine import BatchingConfig
from repro.sim.reconfig import (
    ReconfigManager,
    ReconfigSchedule,
    add_edge,
    remove_edge,
)
from repro.sim.topologies import clique_placement, figure5_placement, tree_placement
from repro.sim.workloads import (
    poisson_workload,
    poisson_workload_dynamic,
    run_open_loop,
    single_writer_workload,
)


# ======================================================================
# Registry units
# ======================================================================

class TestMetricsRegistry:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", "x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_label_children_are_distinct_and_order_insensitive(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", src=1, dst=2)
        b = registry.counter("repro_x_total", dst=2, src=1)
        c = registry.counter("repro_x_total", src=2, dst=1)
        assert a is b
        assert a is not c

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ConfigurationError):
            registry.gauge("repro_x_total")

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_lat", buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.cumulative() == [
            (1.0, 2), (10.0, 3), (float("inf"), 4)
        ]
        assert histogram.count == 4
        assert histogram.total == pytest.approx(56.2)

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("repro_sent_total", "messages sent", replica=1).inc(7)
        registry.gauge("repro_depth", "queue depth", replica=1).set(3)
        histogram = registry.histogram("repro_lat", "latency", buckets=(1.0,))
        histogram.observe(0.5)
        text = registry.render_prometheus()
        assert '# TYPE repro_sent_total counter' in text
        assert 'repro_sent_total{replica="1"} 7' in text
        assert 'repro_depth{replica="1"} 3' in text
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text
        assert 'repro_lat_count 1' in text

    def test_jsonl_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("repro_sent_total", src=1, dst=2).inc(9)
        registry.histogram("repro_lat", buckets=(1.0,)).observe(0.5)
        buffer = io.StringIO()
        count = registry.write_jsonl(buffer)
        buffer.seek(0)
        records = load_metrics_jsonl(buffer)
        assert len(records) == count == 2
        by_name = {record["name"]: record for record in records}
        assert by_name["repro_sent_total"]["value"] == 9
        assert by_name["repro_sent_total"]["labels"] == {"src": "1", "dst": "2"}
        assert by_name["repro_lat"]["count"] == 1
        assert by_name["repro_lat"]["buckets"][-1][0] == "+Inf"

    def test_fold_samples_counters_accumulate_deltas_gauges_keep_last(self):
        registry = MetricsRegistry()
        fold_samples(registry, [
            ("repro_sent_total", (("replica", "1"),), 10.0),
            ("repro_depth", (("replica", "1"),), 5.0),
        ])
        fold_samples(registry, [
            ("repro_sent_total", (("replica", "1"),), 25.0),
            ("repro_depth", (("replica", "1"),), 2.0),
        ])
        # Monotone growth within one node lifetime folds to the latest total.
        assert registry.counter("repro_sent_total", replica="1").value == 25.0
        assert registry.gauge("repro_depth", replica="1").value == 2.0
        # Series are independent: another replica's stream folds separately.
        fold_samples(registry, [
            ("repro_sent_total", (("replica", "2"),), 7.0),
        ])
        assert registry.counter("repro_sent_total", replica="1").value == 25.0
        assert registry.counter("repro_sent_total", replica="2").value == 7.0

    def test_fold_samples_restart_reset_accumulates_both_lifetimes(self):
        """A kill/restart resets a node's cumulative counters to zero.

        The fold must treat a decrease as a counter reset (Prometheus
        semantics) and keep accumulating, so post-restart traffic counts
        on top of the pre-restart total instead of hiding below the old
        high-water mark.
        """
        registry = MetricsRegistry()
        labels = (("replica", "1"),)
        # Pre-crash telemetry: cumulative totals grow 40 -> 100.
        fold_samples(registry, [("repro_node_sent_total", labels, 40.0)])
        fold_samples(registry, [("repro_node_sent_total", labels, 100.0)])
        # SIGKILL + restart: the counter resets to 0 and regrows to 60.
        fold_samples(registry, [("repro_node_sent_total", labels, 15.0)])
        fold_samples(registry, [("repro_node_sent_total", labels, 60.0)])
        # 100 messages before the crash plus 60 after.  A max() fold would
        # report 100, silently dropping all post-restart traffic.
        child = registry.counter("repro_node_sent_total", replica="1")
        assert child.value == 160.0

    def test_final_report_folds_after_telemetry_without_double_count(self):
        """A node's final report re-sends the same cumulative series its
        telemetry stream carried; folding it afterwards must add only the
        unseen tail, not the whole lifetime again."""
        from repro.obs.publish import publish_node_counters

        registry = MetricsRegistry()
        labels = (("replica", "3"),)
        fold_samples(registry, [("repro_node_sent_total", labels, 80.0)])
        # The final report caught 90 sends; only the last 10 are new.
        publish_node_counters(registry, 3, {"sent": 90})
        assert registry.counter("repro_node_sent_total", replica="3").value == 90.0
        # Restart-shaped report: smaller than the telemetry high-water mark
        # means a fresh lifetime — both lifetimes count.
        registry2 = MetricsRegistry()
        fold_samples(registry2, [("repro_node_sent_total", labels, 80.0)])
        publish_node_counters(registry2, 3, {"sent": 25})
        assert registry2.counter(
            "repro_node_sent_total", replica="3"
        ).value == 105.0


# ======================================================================
# Trace codec units
# ======================================================================

class TestTraceCodec:
    def test_jsonl_roundtrip_sorted(self):
        events = [
            (2.0, "apply", (1, 1), 1, 2),
            (0.0, "issue", (1, 1), 1, 1),
            (1.0, "deliver", (1, 1), 1, 2),
        ]
        buffer = io.StringIO()
        assert write_trace_jsonl(events, buffer) == 3
        buffer.seek(0)
        loaded = load_trace_jsonl(buffer)
        assert loaded == sorted(events)
        assert all(isinstance(event[2], tuple) for event in loaded)

    def test_untraced_run_records_nothing(self):
        graph = ShareGraph.from_placement(clique_placement(4))
        cluster = Cluster(graph, seed=0,
                          batching=BatchingConfig(max_messages=4, max_delay=1.0))
        assert cluster.tracer is None
        assert cluster.network.tracer is None
        workload = single_writer_workload(graph, rate=3.0, duration=10.0, seed=0)
        run_open_loop(cluster, workload)
        assert cluster.metrics.applies > 0  # the run did real work


# ======================================================================
# The 64-replica acceptance run
# ======================================================================

@pytest.fixture(scope="module")
def traced_clique_run():
    graph = ShareGraph.from_placement(clique_placement(64))
    # On the full-replication clique the edge timestamp compresses to the
    # classical vector (Section 5) — the same replica the 64-replica
    # profiling and benchmark configurations run.
    cluster = Cluster(
        graph, seed=19,
        replica_factory=full_replication_factory,
        batching=BatchingConfig(max_messages=16, max_delay=2.0),
    )
    recorder = cluster.enable_tracing()
    # poisson_workload lets any storing replica write: on the one-register
    # clique a single-writer workload would concentrate all writes on
    # replica 1, and at R=64 a uniform op target rarely lands there.
    workload = poisson_workload(graph, rate=8.0, duration=30.0,
                                write_fraction=0.7, seed=19)
    result = run_open_loop(cluster, workload)
    assert result.consistent
    return cluster, recorder


class TestSixtyFourReplicaTrace:
    def test_chain_coverage_at_least_99_percent(self, traced_clique_run, tmp_path):
        cluster, recorder = traced_clique_run
        path = str(tmp_path / "trace.jsonl")
        written = write_trace_jsonl(recorder.events, path)
        assert written == len(recorder.events) > 0
        # The acceptance bar is judged on the dump alone: reload from disk.
        spans = assemble_spans(load_trace_jsonl(path))
        complete, applied = coverage(spans)
        # coverage() counts *remote* destination copies; metrics.applies
        # additionally counts the writer's local applies.
        assert 100 < applied <= cluster.metrics.applies
        assert complete / applied >= 0.99

    def test_stage_percentiles_reflect_the_configuration(self, traced_clique_run):
        _, recorder = traced_clique_run
        chains = complete_chains(assemble_spans(recorder.events))
        breakdown = stage_breakdown(chains)
        assert set(breakdown) == {
            "issue→send", "batch window", "transport", "pending wait",
            "end-to-end",
        }
        # The batching window is bounded by max_delay; the transport delay
        # by the default delay model; end-to-end dominates every stage.
        assert 0.0 < breakdown["batch window"].p99 <= 2.0 + 1e-9
        assert breakdown["transport"].p50 > 0.0
        assert breakdown["end-to-end"].p99 >= breakdown["transport"].p99

    def test_critical_paths_are_ranked_and_decomposed(self, traced_clique_run):
        _, recorder = traced_clique_run
        chains = complete_chains(assemble_spans(recorder.events))
        paths = critical_paths(chains, top=5)
        assert len(paths) == 5
        totals = [entry["total"] for entry in paths]
        assert totals == sorted(totals, reverse=True)
        for entry in paths:
            assert entry["total"] == pytest.approx(
                sum(entry["stages"].values())
            )

    def test_chrome_trace_export_is_structurally_valid(self, traced_clique_run,
                                                       tmp_path):
        _, recorder = traced_clique_run
        spans = assemble_spans(recorder.events)
        document = chrome_trace(spans, time_scale=1000.0)
        path = tmp_path / "trace_chrome.json"
        path.write_text(json.dumps(document))
        loaded = json.loads(path.read_text())
        events = loaded["traceEvents"]
        assert events, "empty Chrome export"
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(metadata) == 64  # one process_name per replica
        for event in complete:
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert event["cat"] in (
                "issue→send", "batch window", "transport", "pending wait"
            )

    def test_registry_projection_and_byte_table(self, traced_clique_run,
                                                tmp_path):
        cluster, _ = traced_clique_run
        # bounds=False: |E_i| needs the exact loop enumeration, which is
        # intractable on a 64-clique (the run itself used the Section 5
        # vector compression for the same reason).
        registry = registry_for_sim(cluster, bounds=False)
        records = registry.snapshot()
        by_name = {
            (record["name"], tuple(sorted(record["labels"].items()))): record
            for record in records
        }
        applies = by_name[("repro_applies_total", ())]
        assert applies["value"] == cluster.metrics.applies
        latency = by_name[("repro_apply_latency", ())]
        assert latency["count"] == len(cluster.metrics.apply_latencies)
        path = str(tmp_path / "metrics.jsonl")
        registry.write_jsonl(path)
        rows = channel_byte_table(load_metrics_jsonl(path))
        assert rows
        for row in rows:
            assert row["messages"] > 0
            assert row["timestamp_bytes"] > 0

    def test_byte_table_carries_bounds_on_a_tractable_graph(self, tmp_path):
        """On a small clique the byte table joins shipped timestamp bytes
        with the sender's closed-form counter bound ``|E_i|``."""
        graph = ShareGraph.from_placement(clique_placement(6))
        cluster = Cluster(graph, seed=5,
                          batching=BatchingConfig(max_messages=8, max_delay=2.0))
        workload = single_writer_workload(graph, rate=4.0, duration=15.0, seed=5)
        run_open_loop(cluster, workload)
        registry = registry_for_sim(cluster)
        path = str(tmp_path / "metrics.jsonl")
        registry.write_jsonl(path)
        rows = channel_byte_table(load_metrics_jsonl(path))
        assert rows
        for row in rows:
            assert row["bound_counters"] is not None
            assert row["bytes_per_bound_counter"] > 0


# ======================================================================
# Per-epoch traffic books (the reconfiguration bytes-vs-bound reading)
# ======================================================================

class TestEpochByteTable:
    def test_every_epoch_respects_its_own_bound(self, tmp_path):
        """A reconfiguring run publishes one traffic book per epoch, and
        the realised counters-per-message stay within each epoch's own
        worst-sender ``|E_i|`` budget — the paper's bound read across a
        share-graph change, not just at the starting configuration."""
        placement = figure5_placement()
        graph = ShareGraph.from_placement(placement)
        cluster = Cluster(
            graph, delay_model=UniformDelay(1, 5), seed=11,
            wire_accounting=True,
        )
        manager = ReconfigManager(cluster, window=3.0)
        schedule = ReconfigSchedule("epoch-table", (
            add_edge(30.0, 1, 3, register="y"),
            remove_edge(60.0, 1, 3),
        ))
        manager.install(schedule)
        placements = schedule.placements_over(placement, window=3.0)
        workload = poisson_workload_dynamic(
            placements, rate=1.0, duration=100.0, seed=11
        )
        result = run_open_loop(cluster, workload)
        assert result.consistent
        assert cluster.metrics.reconfigs == 2

        registry = registry_for_sim(cluster, bounds=False)
        publish_epoch_segments(registry, manager.epoch_segments())
        path = str(tmp_path / "metrics.jsonl")
        registry.write_jsonl(path)

        rows = epoch_byte_table(load_metrics_jsonl(path))
        assert [row["epoch"] for row in rows] == [0, 1, 2]
        for previous, current in zip(rows[:-1], rows[1:]):
            assert previous["end"] == current["start"]
        busy = [row for row in rows if row["messages"]]
        assert busy
        for row in busy:
            assert row["replicas"] == 4
            assert row["timestamp_bytes"] > 0
            assert row["ts_bytes_per_message"] > 0.0
            assert row["bound_counters"] is not None
            assert row["bound_counters"] > 0
            assert 0.0 < row["counters_vs_bound"] <= 1.0

    def test_bounds_false_skips_the_enumeration(self, tmp_path):
        """``bounds=False`` publishes the books without the bound gauge."""
        placement = figure5_placement()
        graph = ShareGraph.from_placement(placement)
        cluster = Cluster(
            graph, delay_model=UniformDelay(1, 5), seed=3,
            wire_accounting=True,
        )
        manager = ReconfigManager(cluster, window=3.0)
        workload = single_writer_workload(graph, rate=2.0, duration=20.0, seed=3)
        run_open_loop(cluster, workload)
        registry = MetricsRegistry()
        publish_epoch_segments(registry, manager.epoch_segments(), bounds=False)
        rows = epoch_byte_table(registry.snapshot())
        assert [row["epoch"] for row in rows] == [0]
        assert rows[0]["messages"] > 0
        assert rows[0]["bound_counters"] is None
        assert rows[0]["counters_vs_bound"] is None


class TestNodeTransportTable:
    def test_columns_are_read_off_the_node_families(self):
        """Every ``repro_node_*`` family with only a ``node`` label is a
        column, a made-up one included; families with other labels are
        not, and a node that did not report a family reads 0."""
        registry = MetricsRegistry()
        fold_samples(registry, [
            ("repro_node_socket_writes_total", (("node", "n1"),), 7.0),
            ("repro_node_made_up_widgets_total", (("node", "n1"),), 3.0),
            ("repro_node_wal_checkpoint_seconds_total", (("node", "n1"),), 0.25),
            ("repro_node_socket_writes_total", (("node", "n2"),), 1.0),
            ("repro_node_pending_depth", (("replica", "1"),), 4.0),
            ("repro_node_wire_messages_total", (("dst", "2"), ("src", "1")), 9.0),
        ])
        rows = node_transport_table(registry.snapshot())
        assert rows == [
            {"node": "n1", "made_up_widgets": 3, "socket_writes": 7,
             "wal_checkpoint_seconds": 0.25},
            {"node": "n2", "made_up_widgets": 0, "socket_writes": 1,
             "wal_checkpoint_seconds": 0.0},
        ]
        assert type(rows[0]["socket_writes"]) is int


# ======================================================================
# Both architectures, both topologies (the E19 matrix in miniature)
# ======================================================================

@pytest.mark.parametrize("placement_factory", [
    lambda: clique_placement(8),
    lambda: tree_placement(8),
], ids=["clique", "tree"])
def test_tracing_covers_p2p_topologies(placement_factory):
    graph = ShareGraph.from_placement(placement_factory())
    cluster = Cluster(graph, seed=7,
                      batching=BatchingConfig(max_messages=8, max_delay=2.0))
    recorder = cluster.enable_tracing()
    workload = single_writer_workload(graph, rate=4.0, duration=20.0, seed=7)
    result = run_open_loop(cluster, workload)
    assert result.consistent
    spans = assemble_spans(recorder.events)
    complete, applied = coverage(spans)
    assert applied > 0
    assert complete / applied >= 0.99


def test_tracing_covers_client_server_architecture():
    from repro.clientserver.cluster import ClientServerCluster

    graph = ShareGraph.from_placement(clique_placement(6))
    cluster = ClientServerCluster.with_colocated_clients(
        graph, seed=11,
        batching=BatchingConfig(max_messages=8, max_delay=2.0),
    )
    recorder = cluster.enable_tracing()
    workload = single_writer_workload(graph, rate=4.0, duration=20.0, seed=11)
    result = run_open_loop(cluster, workload)
    assert result.consistent
    spans = assemble_spans(recorder.events)
    complete, applied = coverage(spans)
    assert applied > 0
    assert complete / applied >= 0.99
