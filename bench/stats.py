"""Percentiles, quartiles and the median-of-segments reduction.

Every timed metric of the benchmark is computed once per *segment* (a
phase is cut into equal slices of wall time) and reported as the median of
the segment values: one stall poisons one segment, not the run's number.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it — fewer, and the "p99" is really the maximum of a handful.
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the rule ``LatencySummary`` uses)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[min(n - 1, max(0, int(q * n + 0.5) - 1))]


def tail_supported(count: int, q: float) -> bool:
    """``True`` when ``count`` samples leave enough beyond percentile ``q``."""
    return count * (1.0 - q) >= MIN_TAIL_SAMPLES


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass(frozen=True)
class Reduced:
    """One metric of one run, with the quartiles of its segment values.

    ``value`` is normally the median of the segments; where a metric is by
    definition a whole-window ratio (``sat_ops_per_s``), it is that ratio
    and the quartiles still describe the segments.
    """

    value: float
    q1: float
    q3: float
    #: Samples behind the smallest segment (ops, latencies, …).
    samples: int
    segments: int

    @classmethod
    def of(cls, values: Sequence[float], samples: int = 1) -> "Reduced":
        q1, median, q3 = quartiles(values)
        return cls(value=median, q1=q1, q3=q3, samples=samples,
                   segments=len(values))

    @classmethod
    def exact(cls, value: float, samples: int = 1) -> "Reduced":
        """A count or a one-shot measurement: no segments behind it."""
        return cls(value=value, q1=value, q3=value, samples=samples, segments=1)


def segment_edges(start: float, end: float, segments: int) -> List[float]:
    """``segments + 1`` equally spaced edges over ``[start, end]``."""
    width = (end - start) / segments
    return [start + width * index for index in range(segments)] + [end]


def split_by_time(
    stamped: Sequence[Tuple[float, float]], edges: Sequence[float]
) -> List[List[float]]:
    """Bucket ``(time, value)`` pairs into the segments ``edges`` delimit.

    A pair belongs to segment ``k`` when ``edges[k] <= time < edges[k+1]``;
    pairs outside ``[edges[0], edges[-1])`` are dropped.
    """
    buckets: List[List[float]] = [[] for _ in range(len(edges) - 1)]
    start, end = edges[0], edges[-1]
    width = (end - start) / len(buckets)
    for time, value in stamped:
        if start <= time < end:
            buckets[min(len(buckets) - 1, int((time - start) / width))].append(value)
    return buckets


def median_of_segments(
    buckets: Sequence[Sequence[float]],
    reduce: Callable[[Sequence[float]], float],
) -> Optional[Reduced]:
    """Apply ``reduce`` to each non-empty segment; median of the results.

    ``None`` when no segment holds a sample (nothing was measured).
    """
    filled = [bucket for bucket in buckets if bucket]
    if not filled:
        return None
    return Reduced.of(
        [reduce(bucket) for bucket in filled],
        samples=min(len(bucket) for bucket in filled),
    )


def segment_percentile(
    buckets: Sequence[Sequence[float]], q: float
) -> Optional[Reduced]:
    """Median over segments of each segment's ``q`` percentile.

    Segments too small to support the percentile (fewer than
    ``MIN_TAIL_SAMPLES`` samples beyond it) are pooled into one sample
    set instead, so a short run still reports the honest coarser number.
    """
    filled = [bucket for bucket in buckets if bucket]
    if not filled:
        return None
    if all(tail_supported(len(bucket), q) for bucket in filled):
        return median_of_segments(filled, lambda bucket: percentile(bucket, q))
    pooled = [value for bucket in filled for value in bucket]
    return Reduced.exact(percentile(pooled, q), samples=len(pooled))
