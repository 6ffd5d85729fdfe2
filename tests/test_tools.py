"""Smoke tests for the repo's operator-facing tools.

``tools/`` scripts are not importable as a package (they prepend ``src``
to ``sys.path`` themselves), so these tests load them by path.  Each test
is a tiny end-to-end run asserting the machine-readable contract — the
JSON shapes other tooling (CI artifact consumers, ``trace_report``'s
``--json``) parses — not the human tables.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_profile_hotpath_sim_json(tmp_path, capsys):
    profile_hotpath = _load_tool("profile_hotpath")
    out = str(tmp_path / "profile.json")
    code = profile_hotpath.main(
        ["sim", "--clique", "6", "--ops", "30", "--top", "5", "--json", out]
    )
    assert code == 0
    capsys.readouterr()  # swallow the human table
    with open(out, encoding="utf-8") as handle:
        document = json.load(handle)
    (scenario,) = document["scenarios"]
    assert scenario["scenario"] == "sim"
    assert scenario["clique"] == 6
    assert scenario["applies"] > 0
    assert 0 < len(scenario["hotspots"]) <= 5
    for row in scenario["hotspots"]:
        assert set(row) == {
            "function", "file", "line", "ncalls", "primitive_calls",
            "tottime", "cumtime",
        }
        assert row["cumtime"] >= row["tottime"] >= 0.0
    # Sorted by cumulative time, the sort the human table uses.
    cumtimes = [row["cumtime"] for row in scenario["hotspots"]]
    assert cumtimes == sorted(cumtimes, reverse=True)


@pytest.fixture()
def traced_dump(tmp_path):
    """A small traced sim run dumped to JSONL, as trace_report input."""
    from repro.core.share_graph import ShareGraph
    from repro.obs import (
        publish_epoch_segments,
        registry_for_sim,
        write_trace_jsonl,
    )
    from repro.sim.cluster import Cluster
    from repro.sim.engine import BatchingConfig
    from repro.sim.reconfig import ReconfigManager
    from repro.sim.topologies import clique_placement
    from repro.sim.workloads import run_open_loop, single_writer_workload

    graph = ShareGraph.from_placement(clique_placement(6))
    cluster = Cluster(graph, seed=3,
                      batching=BatchingConfig(max_messages=8, max_delay=2.0))
    manager = ReconfigManager(cluster)
    recorder = cluster.enable_tracing()
    workload = single_writer_workload(graph, rate=4.0, duration=15.0, seed=3)
    run_open_loop(cluster, workload)
    trace_path = str(tmp_path / "trace.jsonl")
    metrics_path = str(tmp_path / "metrics.jsonl")
    write_trace_jsonl(recorder.events, trace_path)
    registry = registry_for_sim(cluster)
    publish_epoch_segments(registry, manager.epoch_segments())
    registry.write_jsonl(metrics_path)
    return trace_path, metrics_path


def test_trace_report_end_to_end(traced_dump, tmp_path, capsys):
    trace_report = _load_tool("trace_report")
    trace_path, metrics_path = traced_dump
    chrome_path = str(tmp_path / "chrome.json")
    json_path = str(tmp_path / "report.json")
    code = trace_report.main([
        trace_path, "--metrics", metrics_path, "--chrome", chrome_path,
        "--json", json_path, "--require-coverage", "0.99",
        "--time-scale", "1000",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "coverage" in stdout
    assert "batch window" in stdout

    with open(json_path, encoding="utf-8") as handle:
        report = json.load(handle)
    assert report["coverage"] >= 0.99
    assert "batch window" in report["breakdown"]
    assert report["critical_paths"]
    assert report["channels"]
    assert "per-epoch metadata traffic" in stdout
    assert [row["epoch"] for row in report["epochs"]] == [0]
    assert report["epochs"][0]["messages"] > 0
    assert 0.0 < report["epochs"][0]["counters_vs_bound"] <= 1.0

    with open(chrome_path, encoding="utf-8") as handle:
        chrome = json.load(handle)
    assert chrome["traceEvents"]


def test_trace_report_coverage_gate_fails_on_gutted_trace(traced_dump,
                                                          tmp_path, capsys):
    """Dropping every deliver event must trip ``--require-coverage``."""
    trace_report = _load_tool("trace_report")
    trace_path, _ = traced_dump
    gutted_path = str(tmp_path / "gutted.jsonl")
    with open(trace_path, encoding="utf-8") as src, \
            open(gutted_path, "w", encoding="utf-8") as dst:
        for line in src:
            if json.loads(line)["stage"] != "deliver":
                dst.write(line)
    code = trace_report.main([gutted_path, "--require-coverage", "0.99"])
    capsys.readouterr()
    assert code == 1


def test_trace_report_node_table_carries_the_frame_counts(traced_dump, tmp_path,
                                                          capsys):
    """A live node's frame and log counts travel from its TELEMETRY samples
    through a metrics dump into ``trace_report``'s per-node table and
    JSON."""
    from repro.core.registers import RegisterPlacement
    from repro.core.share_graph import ShareGraph
    from repro.net.node import LiveNode, NodeConfig
    from repro.obs import MetricsRegistry, fold_samples

    graph = ShareGraph.from_placement(RegisterPlacement.from_dict(
        {1: {"x"}, 2: {"x"}}))
    node = LiveNode(NodeConfig("n1", graph, (1,), {1: "n1", 2: "n2"},
                               durable_dir=str(tmp_path)))
    node.counters.socket_writes, node.counters.ack_frames = 7, 5
    node.counters.misrouted_batches, node.counters.corrupt_streams = 2, 1
    node.wal.records_appended, node.wal.flushes = 9, 3
    registry = MetricsRegistry()
    fold_samples(registry, node.telemetry_samples())
    metrics_path = str(tmp_path / "node-metrics.jsonl")
    registry.write_jsonl(metrics_path)

    trace_report = _load_tool("trace_report")
    json_path = str(tmp_path / "report.json")
    trace_path, _ = traced_dump
    assert trace_report.main([trace_path, "--metrics", metrics_path,
                              "--json", json_path]) == 0
    stdout = capsys.readouterr().out
    header = next(line for line in stdout.splitlines()
                  if line.startswith("node "))
    for column in ("writes", "acks", "misrtd", "corrupt", "flushes"):
        assert column in header.split()
    with open(json_path, encoding="utf-8") as handle:
        (row,) = json.load(handle)["nodes"]
    assert row["node"] == "n1"
    assert (row["socket_writes"], row["ack_frames"], row["misrouted_batches"],
            row["corrupt_streams"]) == (7, 5, 2, 1)
    assert (row["wal_records"], row["wal_flushes"]) == (9, 3)
