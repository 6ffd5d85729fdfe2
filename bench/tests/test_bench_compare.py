"""compare.py verdicts on synthetic results."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from bench import compare  # noqa: E402

BENCHMARK = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.10},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
    ],
    "per_layer": [{"name": "layer_us", "unit": "us", "better": "lower"}],
}


def runs(**series):
    """One run per position of the metrics' value lists."""
    count = len(next(iter(series.values())))
    return [
        {"workloads": {"w": {"metrics": {
            name: {"value": values[k], "q1": values[k], "q3": values[k]}
            for name, values in series.items()
        }}}}
        for k in range(count)
    ]


def verdicts(a, b):
    return {row["metric"]: row["verdict"] for row in compare.compare(a, b, BENCHMARK)}


def test_same_better_worse():
    base = runs(lat_ms=[10.0, 10.1, 9.9], ops_per_s=[1000.0, 1010.0, 990.0],
                layer_us=[5.0, 5.0, 5.0])
    assert verdicts(base, base) == {"lat_ms": "same", "ops_per_s": "same", "layer_us": "-"}
    faster = runs(lat_ms=[8.0, 8.1, 7.9], ops_per_s=[1300.0, 1310.0, 1290.0],
                  layer_us=[4.0, 4.0, 4.0])
    assert verdicts(base, faster) == {"lat_ms": "better", "ops_per_s": "better", "layer_us": "-"}
    assert verdicts(faster, base) == {"lat_ms": "worse", "ops_per_s": "worse", "layer_us": "-"}


def test_within_bound_is_same_in_both_directions():
    base = runs(lat_ms=[10.0, 10.2, 9.8], ops_per_s=[1000.0, 1020.0, 980.0], layer_us=[1.0] * 3)
    slower = runs(lat_ms=[10.5, 10.7, 10.3], ops_per_s=[960.0, 980.0, 940.0], layer_us=[1.0] * 3)
    assert verdicts(base, slower)["lat_ms"] == "same"
    assert verdicts(base, slower)["ops_per_s"] == "same"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = runs(lat_ms=[8.0, 10.0, 14.0], ops_per_s=[1000.0] * 3, layer_us=[1.0] * 3)
    steady = runs(lat_ms=[10.0, 10.0, 10.0], ops_per_s=[1000.0] * 3, layer_us=[1.0] * 3)
    assert verdicts(noisy, steady)["lat_ms"] == "unresolved"
    assert verdicts(steady, noisy)["lat_ms"] == "unresolved"


def test_single_runs_fall_back_on_segment_quartiles():
    a = [{"workloads": {"w": {"metrics": {
        "lat_ms": {"value": 10.0, "q1": 8.0, "q3": 12.0}}}}}]
    b = [{"workloads": {"w": {"metrics": {
        "lat_ms": {"value": 10.0, "q1": 9.9, "q3": 10.1}}}}}]
    assert verdicts(a, b) == {"lat_ms": "unresolved"}
    assert verdicts(b, b) == {"lat_ms": "same"}


def test_ratio_is_reported_with_base_a():
    rows = compare.compare(runs(lat_ms=[10.0] * 3), runs(lat_ms=[12.0] * 3), BENCHMARK)
    assert rows[0]["ratio"] == 1.2 and rows[0]["verdict"] == "worse"
    assert "base A" in compare.render(rows)
