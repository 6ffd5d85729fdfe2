"""BENCHMARK.json and run.py agree; a smoke run passes its correctness gate."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench import run as bench_run  # noqa: E402
from bench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["bench"]
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60


def test_workloads_match_run_py():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_metric_tables_match_run_py():
    end_to_end = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]}
    assert end_to_end == END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert per_layer == PER_LAYER
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in BENCHMARK["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in BENCHMARK["per_layer"])
    assert END_TO_END["setup_s"][:2] == ("s", "lower")
    assert END_TO_END["setup_s"][2] == max(bound for _, _, bound in END_TO_END.values())


def test_names_units_and_bounds_are_well_formed():
    names = list(WORKLOADS) + list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for unit, better, bound in END_TO_END.values():
        assert UNIT.fullmatch(unit) and better in ("lower", "higher") and 0 < bound <= 0.25
    for unit, better in PER_LAYER.values():
        assert UNIT.fullmatch(unit) and better in ("lower", "higher")


#: Runs its arguments as a command whose orphans are re-parented to this
#: script (``PR_SET_CHILD_SUBREAPER``), and fails if the command left one.
ADOPTING = """
import ctypes, os, subprocess, sys
assert ctypes.CDLL(None).prctl(36, 1, 0, 0, 0) == 0
code = subprocess.run(sys.argv[1:]).returncode
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit("the command left a process behind")
"""


def test_smoke_run_emits_every_end_to_end_metric_and_passes_its_gate():
    """``--smoke``: tree8_mem, 1 s phases, through the real command line;
    when it returns, every process it started has ended."""
    done = subprocess.run(
        [sys.executable, "-c", ADOPTING,
         sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(END_TO_END)
    for name, cell in result["metrics"].items():
        assert set(cell) == {"value", "unit"}
        assert cell["unit"] == END_TO_END[name][0] and cell["value"] > 0


def test_traced_pass_emits_every_per_layer_metric(tmp_path):
    """The simulator's traced pass, tiny: ladder, stage trace, every name."""
    outcome = bench_run.run_pass("sim_rand16_chaos", seed=2, seconds=0.25, trace=1,
                                 out_dir=str(tmp_path))
    assert outcome.violations == [] and outcome.failed == 0
    assert list(outcome.metrics) == list(PER_LAYER)
    line = json.loads(bench_run.contract_line(outcome))
    assert line["correct"] is True and set(line["metrics"]) == set(PER_LAYER)
    assert (tmp_path / "spans.jsonl").exists()
    assert outcome.metrics["core.issue_us_per_write"].value > 0
    assert outcome.metrics["obs.chain_coverage"].value > 0.99
