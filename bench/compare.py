#!/usr/bin/env python3
"""Compare two benchmark results, one row per (workload, metric).

    python3 bench/compare.py A.json B.json

``A`` is the base (the parent commit), ``B`` the change.  Each file is a
``result.json`` written by ``run.py`` (``{"runs": [...]}``).  With two or
more runs on a side the median and quartiles are taken *across runs*;
with one, the run's own segment quartiles stand in for its spread.

Verdicts, against the bounds in ``BENCHMARK.json``:

* ``unresolved`` — either side's spread (interquartile range over median)
  is wider than the bound: the data cannot tell a regression of that size;
* ``worse``  — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better than A's by more than A's spread;
* ``same``   — neither.

Per-layer metrics have no bound: they are printed, never judged (``-``).
Exits 1 when any end-to-end row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Summary:
    median: float
    q1: float
    q3: float
    runs: int

    @property
    def spread(self) -> float:
        """Interquartile range as a share of the median."""
        if self.median == 0:
            return 0.0 if self.q3 == self.q1 else float("inf")
        return (self.q3 - self.q1) / abs(self.median)


def load_runs(path: str) -> List[Dict[str, Any]]:
    with open(path) as handle:
        data = json.load(handle)
    return data["runs"] if "runs" in data else [data]


def summarize(runs: Sequence[Dict[str, Any]]) -> Dict[Tuple[str, str], Summary]:
    """``(workload, metric) -> Summary`` over one side's runs."""
    cells: Dict[Tuple[str, str], List[Dict[str, float]]] = {}
    for run in runs:
        for workload, entry in run["workloads"].items():
            for metric, cell in entry["metrics"].items():
                cells.setdefault((workload, metric), []).append(cell)
    out = {}
    for key, found in cells.items():
        values = [cell["value"] for cell in found]
        if len(values) == 1:
            out[key] = Summary(values[0], found[0]["q1"], found[0]["q3"], 1)
        else:
            q1, median, q3 = statistics.quantiles(values, n=4)
            out[key] = Summary(median, q1, q3, len(values))
    return out


def verdict(base: Summary, new: Summary, better: str, bound: Optional[float]) -> str:
    if bound is None:
        return "-"
    if max(base.spread, new.spread) > bound:
        return "unresolved"
    if base.median == 0:
        return "same" if new.median == 0 else "unresolved"
    change = (new.median - base.median) / abs(base.median)
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse"
    if -worse_by > base.spread and worse_by < 0:
        return "better"
    return "same"


def compare(a_runs: Sequence[Dict[str, Any]], b_runs: Sequence[Dict[str, Any]],
            benchmark: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, metric) present on both sides, in the
    benchmark's own order: workloads, then end-to-end, then per-layer."""
    specs: Dict[str, Tuple[str, Optional[float]]] = {}
    for metric in benchmark["end_to_end"]:
        specs[metric["name"]] = (metric["better"], metric["bound"])
    for metric in benchmark["per_layer"]:
        specs[metric["name"]] = (metric["better"], None)
    a, b = summarize(a_runs), summarize(b_runs)
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric, (better, bound) in specs.items():
            key = (workload, metric)
            if key not in a or key not in b:
                continue
            base, new = a[key], b[key]
            rows.append({
                "workload": workload, "metric": metric, "base": base, "new": new,
                "ratio": new.median / base.median if base.median else None,
                "bound": bound, "verdict": verdict(base, new, better, bound),
            })
    return rows


def render(rows: Sequence[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':18s} {'metric':34s} {'A median':>12s} {'A q1..q3':>25s} "
        f"{'B median':>12s} {'B q1..q3':>25s} {'B/A':>8s} {'bound':>6s} verdict"
    ]
    for row in rows:
        base, new = row["base"], row["new"]
        ratio = f"{row['ratio']:.4f}" if row["ratio"] is not None else "n/a"
        bound = f"{row['bound']:.2f}" if row["bound"] is not None else "-"
        lines.append(
            f"{row['workload']:18s} {row['metric']:34s} {base.median:12.4f} "
            f"{f'{base.q1:.4f}..{base.q3:.4f}':>25s} {new.median:12.4f} "
            f"{f'{new.q1:.4f}..{new.q3:.4f}':>25s} {ratio:>8s} {bound:>6s} {row['verdict']}"
        )
    lines.append("B/A: ratio of medians, base A")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    rows = compare(load_runs(args[0]), load_runs(args[1]), benchmark)
    print(render(rows))
    gated = [row for row in rows if row["verdict"] in ("worse", "unresolved")]
    print(f"{len(rows)} rows, {len(gated)} worse or unresolved")
    return 1 if gated else 0


if __name__ == "__main__":
    sys.exit(main())
