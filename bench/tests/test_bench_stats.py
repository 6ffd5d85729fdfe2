"""Percentile, quartile and median-of-segments helpers."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from bench import stats  # noqa: E402


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 0.50) == 50
    assert stats.percentile(samples, 0.99) == 99
    assert stats.percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert stats.tail_supported(1000, 0.99)
    assert not stats.tail_supported(999, 0.99)
    assert stats.tail_supported(20, 0.50)


def test_quartiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    q1, median, q3 = stats.quartiles(values)
    assert (q1, median, q3) == (10.5, 12.0, 13.5)
    assert stats.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_split_by_time_buckets_half_open_segments():
    edges = stats.segment_edges(10.0, 20.0, 5)
    assert edges == [10.0, 12.0, 14.0, 16.0, 18.0, 20.0]
    stamped = [(9.9, 0.0), (10.0, 1.0), (11.9, 2.0), (12.0, 3.0), (19.99, 4.0), (20.0, 5.0)]
    assert stats.split_by_time(stamped, edges) == [[1.0, 2.0], [3.0], [], [], [4.0]]


def test_median_of_segments_shrugs_off_one_bad_segment():
    segments = [[1.0] * 20, [1.1] * 20, [50.0] * 20, [0.9] * 20, [1.0] * 20]
    reduced = stats.median_of_segments(segments, max)
    assert reduced.value == 1.0
    assert reduced.segments == 5 and reduced.samples == 20
    assert stats.median_of_segments([[], []], max) is None


def test_segment_percentile_pools_when_a_tail_is_too_thin():
    thick = [[float(k) for k in range(1000)] for _ in range(5)]
    reduced = stats.segment_percentile(thick, 0.99)
    assert reduced.segments == 5 and reduced.value == 989.0
    thin = [[float(k) for k in range(100)] for _ in range(5)]
    pooled = stats.segment_percentile(thin, 0.99)
    assert pooled.segments == 1 and pooled.samples == 500
    assert stats.segment_percentile(thin, 0.50).segments == 5
