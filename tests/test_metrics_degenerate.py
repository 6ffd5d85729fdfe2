"""Degenerate-input regression tests for the metrics layer.

An empty run — no operations, no deliveries, no samples, a clock that never
advanced — must flow through every summary/percentile helper and produce
well-defined values instead of raising.  These tests pin that contract for
:class:`~repro.core.host.LatencySummary`, :class:`~repro.core.host.RunMetrics`,
:class:`~repro.sim.metrics.MetadataProfile` and the byte-accounting additions.
"""

from __future__ import annotations

import pytest

from repro.core.errors import SimulationError
from repro.core.share_graph import ShareGraph
from repro.sim.cluster import Cluster
from repro.core.host import LatencySummary, RunMetrics, throughput_timeline
from repro.sim.engine import NetworkStats
from repro.sim.metrics import MetadataProfile
from repro.sim.topologies import figure5_placement
from repro.sim.workloads import (
    OpenLoopWorkload,
    Workload,
    run_open_loop,
    run_workload,
)


class TestLatencySummaryDegenerate:
    def test_empty_samples_yield_zeros(self):
        summary = LatencySummary.from_samples([])
        assert summary == LatencySummary(
            count=0, mean=0.0, p50=0.0, p90=0.0, p99=0.0, max=0.0
        )

    def test_single_sample_is_every_percentile(self):
        summary = LatencySummary.from_samples([4.5])
        assert summary.count == 1
        assert summary.mean == summary.p50 == summary.p90 == summary.p99 == 4.5
        assert summary.max == 4.5


class TestRunMetricsDegenerate:
    def test_empty_metrics_summaries_do_not_raise(self):
        metrics = RunMetrics()
        assert metrics.mean_apply_latency == 0.0
        assert metrics.apply_latency_summary().count == 0
        assert metrics.operation_latency_summary().count == 0
        assert metrics.recovery_latency_summary().count == 0
        assert metrics.apply_throughput(10.0) == []
        assert metrics.operation_throughput(10.0) == []
        assert metrics.queue_depth_summary() == {}

    def test_availability_with_zero_horizon_is_full(self):
        # An empty run never advances the clock; the availability of an
        # unobserved window is full availability, not an exception.
        metrics = RunMetrics()
        assert metrics.availability(0.0, [1, 2, 3]) == {1: 1.0, 2: 1.0, 3: 1.0}
        metrics.downtime[1] = [(0.0, 5.0)]
        assert metrics.availability(0.0, [1]) == {1: 1.0}

    def test_availability_with_no_replicas_is_empty(self):
        assert RunMetrics().availability(10.0, []) == {}

    def test_throughput_timeline_empty(self):
        assert throughput_timeline([], 5.0) == []


class TestMetadataProfileDegenerate:
    def test_empty_profile_means_and_maxima(self):
        profile = MetadataProfile(
            protocol="empty", counters_per_replica={}, storage_per_replica={}
        )
        assert profile.mean_counters == 0.0
        assert profile.max_counters == 0
        assert profile.total_storage == 0
        assert profile.bits_per_replica(max_updates=16) == {}


class TestNetworkStatsDegenerate:
    def test_fresh_stats_ratios_are_zero(self):
        stats = NetworkStats()
        assert stats.mean_latency == 0.0
        assert stats.bytes_sent == 0
        assert stats.timestamp_delta_savings == 0.0
        assert stats.per_channel == {}


class TestWallClockTimelines:
    """Robustness of the bucketing helpers to live-run (wall-clock) times.

    Live runs feed float timestamps whose epoch is arbitrary: huge when a
    caller forgets to normalise (raw ``time.time()``), slightly *negative*
    or pre-origin when samples land before the declared run start.  The
    timeline must stay small, anchored and total — never an out-of-memory
    bucket explosion, never silently dropped samples.
    """

    def test_auto_origin_anchors_at_earliest_event(self):
        epoch = 1.7e9  # raw time.time()-style timestamps
        times = [epoch + 0.4, epoch + 1.2, epoch + 5.1]
        timeline = throughput_timeline(times, 1.0, origin=None)
        assert len(timeline) == 6
        assert timeline[0][0] == 1.7e9
        assert sum(count for _, count in timeline) == 3

    def test_auto_origin_rounds_down_to_bucket_boundary(self):
        timeline = throughput_timeline([7.3, 9.9], 2.5, origin=None)
        assert timeline[0][0] == 5.0  # floor(7.3 / 2.5) * 2.5
        assert sum(count for _, count in timeline) == 2

    def test_explicit_origin_clamps_earlier_events_into_first_bucket(self):
        # A sample taken just before the declared run start (non-monotonic
        # wall clock, setup samples) is counted, not dropped.
        timeline = throughput_timeline([-0.3, 0.2, 1.7], 1.0, origin=0.0)
        assert timeline == [(0.0, 2), (1.0, 1)]

    def test_negative_times_with_auto_origin(self):
        timeline = throughput_timeline([-3.2, -1.1], 1.0, origin=None)
        assert timeline[0][0] == -4.0
        assert sum(count for _, count in timeline) == 2

    def test_wall_clock_against_zero_origin_raises_not_ooms(self):
        # The classic bug this hardening exists for: bucketing raw epoch
        # seconds against the simulator's default origin of 0 would
        # materialise ~1.7 billion buckets.  Diagnostic error instead.
        with pytest.raises(SimulationError, match="origin"):
            throughput_timeline([1.7e9], 1.0)

    def test_run_metrics_throughput_accepts_origin(self):
        metrics = RunMetrics()
        epoch = 1.7e9
        metrics.apply_times = [epoch + 0.1, epoch + 0.9, epoch + 3.0]
        metrics.operation_times = [epoch + 0.5]
        assert len(metrics.apply_throughput(1.0, origin=None)) == 4
        assert metrics.apply_throughput(1.0, origin=epoch)[0] == (epoch, 2)
        assert metrics.operation_throughput(1.0, origin=None) == [(epoch, 1)]

    def test_zero_and_negative_bucket_widths_still_raise(self):
        with pytest.raises(SimulationError):
            throughput_timeline([1.0], 0.0, origin=None)
        with pytest.raises(SimulationError):
            throughput_timeline([1.0], -2.0)


class TestEmptyRuns:
    def test_empty_closed_loop_workload(self):
        graph = ShareGraph.from_placement(figure5_placement())
        cluster = Cluster(graph, seed=1)
        result = run_workload(cluster, Workload("empty", ()))
        assert result.consistent
        assert result.messages_sent == 0
        assert result.mean_apply_latency == 0.0

    def test_empty_open_loop_workload(self):
        graph = ShareGraph.from_placement(figure5_placement())
        cluster = Cluster(graph, seed=1)
        result = run_open_loop(cluster, OpenLoopWorkload("empty", ()))
        assert result.consistent
        assert result.makespan == 0.0
        assert result.effective_throughput == 0.0
        assert result.apply_latency.count == 0
        assert result.queue_depths == {}
        # The degenerate availability path: the clock never moved.
        availability = cluster.metrics.availability(cluster.now, graph.replica_ids)
        assert all(value == 1.0 for value in availability.values())
