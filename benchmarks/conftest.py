"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one experiment from the EXPERIMENTS.md
index.  The ``run_once`` helper wraps ``benchmark.pedantic`` so that heavy
end-to-end experiments are executed exactly once (their value is the table
they print, not a statistically tight timing), while micro-benchmarks use the
normal ``benchmark(...)`` calibration.

Gated benchmarks also drop a machine-readable ``BENCH_<name>.json`` next to
the repo root via :func:`write_bench_json` — the CI benchmark job uploads
them as artifacts, so every push leaves a queryable perf record (value,
threshold, environment) without scraping test output.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict, Optional

_REPO_ROOT = Path(__file__).resolve().parent.parent


def run_once(benchmark, func, *args, **kwargs):
    """Execute ``func`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=_REPO_ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def write_bench_json(
    name: str,
    metric: str,
    value: float,
    threshold: Optional[float] = None,
    unit: str = "ratio",
    **extra: Any,
) -> Path:
    """Write ``BENCH_<name>.json``: one gate's machine-readable result.

    ``value`` is the measured number, ``threshold`` the floor the gate
    asserted against (``None`` for recorded-but-ungated metrics), and
    ``extra`` carries any auxiliary numbers worth keeping (raw timings,
    byte counts).  The file lands in the repo root, is gitignored, and is
    uploaded as a CI artifact by the benchmark job.
    """
    from repro._speedups import active_core

    payload: Dict[str, Any] = {
        "name": name,
        "metric": metric,
        "value": value,
        "threshold": threshold,
        "unit": unit,
        "passed": (threshold is None) or (value >= threshold),
        "environment": {
            "python": platform.python_version(),
            "core": active_core(),
            "tiny": bool(os.environ.get("REPRO_BENCH_TINY")),
            "ci": bool(os.environ.get("GITHUB_ACTIONS")),
        },
        "git_sha": _git_sha(),
    }
    if extra:
        payload["extra"] = extra
    path = _REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
