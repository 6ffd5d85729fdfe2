"""A small metrics registry: counters, gauges and histograms with labels.

The observability layer's second leg (next to the trace recorder): every
producer — :class:`~repro.core.host.RunMetrics`,
:class:`~repro.sim.engine.NetworkStats`, the live node's queue depths and
reliability counters — publishes into one :class:`MetricsRegistry`
(see :mod:`repro.obs.publish`), which then exports two ways:

* :meth:`MetricsRegistry.write_jsonl` / :meth:`MetricsRegistry.snapshot`
  — structured events, one JSON record per ``(metric, label set)``, the
  machine-readable dump ``tools/trace_report.py`` joins with traces;
* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format, for scraping or eyeballing.

The model is deliberately the Prometheus one (families keyed by name,
children keyed by label values, monotone counters vs. settable gauges vs.
bucketed histograms) but with zero dependencies and no global state: a
registry is just an object you create, fill, and export.
"""

from __future__ import annotations

import json
import math
from typing import IO, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.errors import ConfigurationError

LabelItems = Tuple[Tuple[str, str], ...]

#: Default histogram buckets: latency-ish, in host time units.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0
)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_labels(labels: LabelItems) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label_value(str(value))}"' for key, value in labels
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing value (one labelled child)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up; use a gauge")
        self.value += amount


class Gauge:
    """A value that can go up and down (one labelled child)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Cumulative-bucket histogram (one labelled child)."""

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ConfigurationError("a histogram needs at least one bucket")
        self.counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper bound, cumulative count)`` pairs, +Inf last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, running + self.counts[-1]))
        return out


class _Family:
    """One named metric family: kind, help text, children by label values."""

    __slots__ = ("name", "kind", "help", "buckets", "children")

    def __init__(self, name: str, kind: str, help_text: str,
                 buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = tuple(buckets) if buckets is not None else None
        self.children: Dict[LabelItems, object] = {}

    def labels(self, **labels: object):
        key: LabelItems = tuple(sorted((k, str(v)) for k, v in labels.items()))
        child = self.children.get(key)
        if child is None:
            if self.kind == "counter":
                child = Counter()
            elif self.kind == "gauge":
                child = Gauge()
            else:
                child = Histogram(self.buckets or DEFAULT_BUCKETS)
            self.children[key] = child
        return child


class MetricsRegistry:
    """A collection of metric families, exportable as JSONL or Prometheus text."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        #: Last cumulative value seen per ``(name, labels)`` series by
        #: :func:`fold_samples` — the state behind counter-reset folding.
        self._fold_last_seen: Dict[Tuple[str, LabelItems], float] = {}

    # ------------------------------------------------------------------
    # Declaring / fetching families
    # ------------------------------------------------------------------
    def _family(self, name: str, kind: str, help_text: str,
                buckets: Optional[Sequence[float]] = None) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help_text, buckets)
            self._families[name] = family
        elif family.kind != kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as a {family.kind}, "
                f"not a {kind}"
            )
        return family

    def counter(self, name: str, help_text: str = "", **labels: object) -> Counter:
        """The counter child for ``(name, labels)`` (created on first use)."""
        return self._family(name, "counter", help_text).labels(**labels)

    def gauge(self, name: str, help_text: str = "", **labels: object) -> Gauge:
        """The gauge child for ``(name, labels)`` (created on first use)."""
        return self._family(name, "gauge", help_text).labels(**labels)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Optional[Sequence[float]] = None,
                  **labels: object) -> Histogram:
        """The histogram child for ``(name, labels)`` (created on first use)."""
        return self._family(name, "histogram", help_text, buckets).labels(**labels)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> List[dict]:
        """One structured record per ``(family, label set)``, sorted by name."""
        out: List[dict] = []
        for name in sorted(self._families):
            family = self._families[name]
            for labels in sorted(family.children):
                child = family.children[labels]
                record = {
                    "name": name,
                    "kind": family.kind,
                    "labels": dict(labels),
                }
                if isinstance(child, Histogram):
                    record["count"] = child.count
                    record["sum"] = child.total
                    record["buckets"] = [
                        ["+Inf" if math.isinf(bound) else bound, count]
                        for bound, count in child.cumulative()
                    ]
                else:
                    record["value"] = child.value
                out.append(record)
        return out

    def write_jsonl(self, path_or_file: Union[str, IO[str]]) -> int:
        """Dump :meth:`snapshot` as JSON Lines; returns the record count."""
        records = self.snapshot()
        if isinstance(path_or_file, str):
            with open(path_or_file, "w", encoding="utf-8") as handle:
                for record in records:
                    handle.write(json.dumps(record) + "\n")
        else:
            for record in records:
                path_or_file.write(json.dumps(record) + "\n")
        return len(records)

    def render_prometheus(self) -> str:
        """The Prometheus text exposition of every family."""
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for labels in sorted(family.children):
                child = family.children[labels]
                if isinstance(child, Histogram):
                    for bound, count in child.cumulative():
                        le = _format_value(bound)
                        bucket_labels = labels + (("le", le),)
                        lines.append(
                            f"{name}_bucket{_format_labels(bucket_labels)} {count}"
                        )
                    lines.append(
                        f"{name}_sum{_format_labels(labels)} "
                        f"{_format_value(child.total)}"
                    )
                    lines.append(
                        f"{name}_count{_format_labels(labels)} {child.count}"
                    )
                else:
                    lines.append(
                        f"{name}{_format_labels(labels)} "
                        f"{_format_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def load_metrics_jsonl(path_or_file: Union[str, IO[str]]) -> List[dict]:
    """Load a :meth:`MetricsRegistry.write_jsonl` dump back into records."""
    if isinstance(path_or_file, str):
        with open(path_or_file, "r", encoding="utf-8") as handle:
            return load_metrics_jsonl(handle)
    records: List[dict] = []
    for line in path_or_file:
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def fold_samples(registry: MetricsRegistry,
                 samples: Iterable[Tuple[str, LabelItems, float]]) -> None:
    """Fold flat ``(name, labels, value)`` samples (a TELEMETRY payload)
    into a registry.  Names ending in ``_total`` are cumulative counters
    folded with Prometheus counter-reset semantics: the registry tracks
    the last value seen per ``(name, labels)`` series and accumulates
    deltas, treating a decrease as a restart (the source died, its counter
    reset to zero and regrew).  A plain ``max(seen, value)`` fold would
    freeze each series at its pre-crash high-water mark and silently drop
    every post-restart increment; delta accumulation counts both
    lifetimes.  Everything else is a gauge and keeps the last value."""
    last_seen = registry._fold_last_seen
    for name, labels, value in samples:
        if name.endswith("_total"):
            child = registry.counter(name, **dict(labels))
            key = (name, tuple(sorted((k, str(v)) for k, v in labels)))
            previous = last_seen.get(key)
            if previous is None or value < previous:
                # First sample of the series, or a reset: the cumulative
                # value is entirely new traffic.
                delta = value
            else:
                delta = value - previous
            last_seen[key] = value
            child.value += delta
        else:
            registry.gauge(name, **dict(labels)).set(value)
