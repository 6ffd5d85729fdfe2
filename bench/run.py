#!/usr/bin/env python3
"""The benchmark's one command.

Contract form (what ``BENCHMARK.json`` names; one workload, one pass)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` is the measured run (tracing off) and prints every
end-to-end metric; ``--trace 1`` is the traced pass — a shorter measured
run, the layer ladder, and a repeat under the public tracing flag — and
prints every per-layer metric.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Full form (no ``--trace``): both passes of every workload (or the one
named), every metric printed by name and unit, the result written to
``bench/results/<run>/result.json`` and one row appended to
``bench/ledger.jsonl``::

    python3 bench/run.py [--seed N] [--seconds S] [--workload NAME] [--runs K]

Any correctness failure — the verify pass's full consistency check, or a
linear-time check of a measured run — prints the violations, writes no
result and exits non-zero.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench/run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
# The repository is driven from outside: its package is found by path, and
# the spawned node processes inherit this sys.path.
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro._speedups import active_core  # noqa: E402
from repro.net.runtime import contiguous_placement  # noqa: E402

from bench import ladder, live, simrun, stages  # noqa: E402
from bench.metrics import END_TO_END, PER_LAYER, Pass, unit  # noqa: E402
from bench.stats import Reduced  # noqa: E402
from bench.workloads import (  # noqa: E402
    INFLIGHT_PER_CONNECTION,
    NODES,
    PACED_RATE,
    WORKLOADS,
    LiveWorkload,
    Plan,
    arrivals,
)

RESULTS = ROOT / "bench" / "results"
LEDGER = ROOT / "bench" / "ledger.jsonl"
#: Arrivals pushed through the layer ladder per second of budget.
LADDER_OPS_PER_BUDGET_SECOND = 2000
DEFAULT_SECONDS = 10
#: ``prctl`` option: orphaned descendants are re-parented to this process.
PR_SET_CHILD_SUBREAPER = 36
#: A pass that has not ended by now is killed (the contract allows 180 s).
WORKER_LIMIT_S = 170
#: How long what a finished pass left behind may take to end by itself.
STRAGGLER_GRACE_S = 2.0


def _select(found: Dict[str, Reduced], names: Sequence[str], outcome: Pass,
            default: Optional[float]) -> None:
    """Copy the registered ``names`` out of ``found``; a missing one takes
    ``default`` (a layer with no meaning on this workload) or, with no
    default, is a violation."""
    for name in names:
        if name in found:
            outcome.metrics[name] = found[name]
        elif default is not None:
            outcome.metrics[name] = Reduced.exact(default, samples=0)
        else:
            outcome.violations.append(f"end-to-end metric {name} was not measured")


def _verified(measured: Pass, check_s: float, violations: Sequence[str]):
    """The pass's outcome so far and everything found, after its verify pass."""
    outcome = Pass(attempted=measured.attempted, failed=measured.failed,
                   violations=measured.violations + list(violations))
    found = dict(measured.metrics)
    found["core.consistency.check_s"] = Reduced.exact(check_s)
    return outcome, found


def _end_to_end(outcome: Pass, found: Dict[str, Reduced], setups: Sequence[float]) -> Pass:
    """Close a measured run: ``setup_s`` is the median of its set-ups."""
    found["setup_s"] = Reduced.of(setups, samples=len(setups))
    _select(found, list(END_TO_END), outcome, default=None)
    return outcome


# ----------------------------------------------------------------------
# Live workloads
# ----------------------------------------------------------------------

def run_live(workload: LiveWorkload, seed: int, seconds: float, trace: int,
             out_dir: str) -> Pass:
    print(f"{workload.name}: {NODES} node processes x 4 replicas, loopback TCP, no injected "
          f"delay; 1 single-threaded generator, 1 connection per node; paced = open loop "
          f"{PACED_RATE:.0f} ops/s, sat = closed loop {NODES * INFLIGHT_PER_CONNECTION} in flight")
    graph = workload.graph()
    plan = Plan.for_budget(seconds if trace == 0 else seconds / 2)
    pool = workload.pool(graph, plan, seed)
    # The pool is a few hundred thousand long-lived objects: keep the
    # collector from walking them in the middle of a latency measurement.
    gc.collect()
    gc.freeze()

    measured = live.measured_pass(workload, graph, pool, plan, out_dir, "measured")
    verify_setup, check_s, violations = live.verify_pass(workload, graph, pool, out_dir)
    outcome, found = _verified(measured, check_s, violations)
    if trace == 0:
        return _end_to_end(outcome, found, [
            measured.setup_s, verify_setup, live.bare_boot(workload, graph, out_dir)])

    costs = ladder.run(
        graph, pool[:int(LADDER_OPS_PER_BUDGET_SECOND * seconds)],
        live.replica_nodes(contiguous_placement(graph, NODES)),
        round(measured.metrics["net.node.batch_fill"].value), out_dir,
    )
    found.update(costs)
    if "sat_cpu_us_per_op" in measured.metrics:
        floor = ladder.node_floor_us_per_op(costs, measured.counters, workload.durable)
        found["net.node.residual_us_per_op"] = Reduced.exact(
            measured.metrics["sat_cpu_us_per_op"].value - floor)

    traced = live.measured_pass(workload, graph, pool, plan, out_dir, "traced", tracing=True)
    outcome.violations += traced.violations
    found.update(stages.stage_metrics(traced.trace_events, to_ms=1e3))
    if "sat_ops_per_s" in traced.metrics and "sat_ops_per_s" in measured.metrics:
        found["obs.trace_overhead"] = Reduced.exact(
            traced.metrics["sat_ops_per_s"].value / measured.metrics["sat_ops_per_s"].value)
    _select(found, list(PER_LAYER), outcome, default=0.0)
    return outcome


# ----------------------------------------------------------------------
# The simulator workload
# ----------------------------------------------------------------------

def run_sim(workload: Any, seed: int, seconds: float, trace: int, out_dir: str) -> Pass:
    graph = workload.graph()
    budget = seconds if trace == 0 else seconds / 2
    ops = int(workload.ops_per_budget_second * budget)
    # The timed synchronous calls feed per-layer metrics only.
    calls = int(simrun.CALLS_PER_BUDGET_SECOND * budget) if trace else 0

    measured = simrun.measured_pass(workload, graph, seed, ops, calls)
    verify_setup, check_s, violations = simrun.verify_pass(workload, graph, seed)
    outcome, found = _verified(measured, check_s, violations)
    if trace == 0:
        return _end_to_end(outcome, found, [
            measured.setup_s, verify_setup, simrun.bare_build(workload, graph, seed)])

    # The simulator has no nodes: every channel crosses the wire.
    ladder_ops = arrivals(graph, int(LADDER_OPS_PER_BUDGET_SECOND * seconds),
                          workload.write_fraction, seed)
    found.update(ladder.run(
        graph, ladder_ops, {rid: rid for rid in graph.replica_ids},
        round(measured.metrics["sim.engine.batch_fill"].value), out_dir,
    ))
    traced = simrun.measured_pass(workload, graph, seed, ops // 2, calls // 2, tracing=True)
    outcome.violations += traced.violations
    found.update(stages.stage_metrics(traced.trace_events, to_ms=1.0))
    found["obs.trace_overhead"] = Reduced.exact(
        traced.metrics["sat_ops_per_s"].value / measured.metrics["sat_ops_per_s"].value)
    _select(found, list(PER_LAYER), outcome, default=0.0)
    return outcome


def run_pass(name: str, seed: int, seconds: float, trace: int, out_dir: str) -> Pass:
    os.makedirs(out_dir, exist_ok=True)
    workload = WORKLOADS[name]
    if isinstance(workload, LiveWorkload):
        return run_live(workload, seed, seconds, trace, out_dir)
    return run_sim(workload, seed, seconds, trace, out_dir)


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def print_table(name: str, record: Dict[str, Any]) -> None:
    print(f"== {name}: {record['attempted']} operations attempted, {record['failed']} failed")
    print(f"   {'metric':38s} {'value':>14s} {'unit':6s} {'q1':>12s} {'q3':>12s} "
          f"{'samples':>8s} {'segs':>4s}")
    for metric, cell in record["metrics"].items():
        print(f"   {metric:38s} {cell['value']:14.4f} {cell['unit']:6s} "
              f"{cell['q1']:12.4f} {cell['q3']:12.4f} {cell['samples']:8d} "
              f"{cell['segments']:4d}")


def contract_line(outcome: Pass) -> str:
    return json.dumps({
        "correct": not outcome.violations,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": reduced.value, "unit": unit(name)}
            for name, reduced in outcome.metrics.items()
        },
    })


def fail(name: str, violations: Sequence[str]) -> None:
    print(f"CORRECTNESS FAILURE on {name}:", file=sys.stderr)
    for violation in violations:
        print(f"  - {violation}", file=sys.stderr)
    sys.exit(1)


def environment() -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        import uvloop  # noqa: F401
        has_uvloop = True
    except ImportError:
        has_uvloop = False
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "core": active_core(),
        "uvloop": has_uvloop,
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg()[0],
    }


def pass_dir(name: str, trace: int, seed: int) -> Path:
    return RESULTS / f"{name}-t{trace}-s{seed}"


def pass_record(outcome: Pass) -> Dict[str, Any]:
    """One pass in full: every metric with its quartiles and sample counts."""
    return {
        "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": {
            metric: {"value": r.value, "q1": r.q1, "q3": r.q3,
                     "samples": r.samples, "segments": r.segments, "unit": unit(metric)}
            for metric, r in outcome.metrics.items()
        },
    }


def full_run(names: Sequence[str], seed: int, seconds: float) -> Dict[str, Any]:
    """Both passes of each workload, merged into one record.

    Each pass is the contract form in a process of its own — exactly what
    the driver runs — so no pass inherits another's heap, frozen garbage
    or peak memory; its ``pass.json`` is read back for the quartiles.
    """
    record: Dict[str, Any] = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"), "seed": seed, "seconds": seconds,
        **environment(), "workloads": {},
    }
    for name in names:
        merged: Dict[str, Any] = {"metrics": {}}
        for trace in (0, 1):
            done = subprocess.run([
                sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ], stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                sys.exit(f"{name} --trace {trace} failed (exit {done.returncode}); no result written")
            with open(pass_dir(name, trace, seed) / "pass.json") as handle:
                found = json.load(handle)
            merged["metrics"].update(found["metrics"])
            if trace == 0:
                merged["attempted"], merged["failed"] = found["attempted"], found["failed"]
        print_table(name, merged)
        record["workloads"][name] = merged
    return record


def ledger_row(record: Dict[str, Any]) -> Dict[str, Any]:
    """The run's ledger line: environment, and value + quartiles per metric."""
    row = {key: value for key, value in record.items() if key != "workloads"}
    row["workloads"] = {
        name: {metric: [m["value"], m["q1"], m["q3"]] for metric, m in entry["metrics"].items()}
        for name, entry in record["workloads"].items()
    }
    return row


def supervised(argv: Sequence[str]) -> int:
    """Run one pass in a child session and leave no process behind.

    A pass starts processes that outlive it when left alone: the node
    processes if it dies hard, and always ``multiprocessing``'s resource
    tracker, which only ends once its parent is gone.  So the pass runs as
    a worker in a session of its own, with this process the reaper of its
    orphans (``PR_SET_CHILD_SUBREAPER``): once the worker has ended, every
    process it left is given ``STRAGGLER_GRACE_S`` to end by itself (the
    tracker does, and unlinks what the worker leaked), then killed, and
    each is waited for.  This returns only when none is left.
    """
    if ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        sys.exit(f"bench/run.py: prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(ctypes.get_errno())}")
    # Asked to stop: leave through the ``finally`` below, not past it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    worker = subprocess.Popen([sys.executable, __file__, *argv, "--worker"],
                              start_new_session=True)
    code, grace_ends = 1, time.monotonic()  # no grace unless the worker ends by itself
    try:
        code = worker.wait(timeout=WORKER_LIMIT_S)
        grace_ends = time.monotonic() + STRAGGLER_GRACE_S
    except subprocess.TimeoutExpired:
        print(f"bench/run.py: pass not done after {WORKER_LIMIT_S} s; killed", file=sys.stderr)
    finally:
        _reap_session(worker.pid, grace_ends)
    return code


def _reap_session(session: int, grace_ends: float) -> None:
    """Wait until every process of ``session`` has ended, killing them all
    once ``grace_ends`` has passed.  They are this process's children: the
    worker by birth, the ones it orphaned by adoption."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() >= grace_ends:
                try:
                    os.killpg(session, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.005)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring budget per pass (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="contract form: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tree8_mem only, 1 s phases: a gate check, not a measurement")
    parser.add_argument("--runs", type=int, default=1,
                        help="full form: repeat with seeds seed..seed+runs-1 into one result")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.workload, args.seconds = "tree8_mem", 2.0
        if args.trace is None:
            args.trace = 0
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        if not args.worker:
            return supervised(argv)
        out_dir = pass_dir(args.workload, args.trace, args.seed)
        outcome = run_pass(args.workload, args.seed, args.seconds, args.trace, str(out_dir))
        if outcome.violations:
            fail(args.workload, outcome.violations)
        record = pass_record(outcome)
        with open(out_dir / "pass.json", "w") as handle:
            json.dump(record, handle, indent=1)
        print_table(args.workload, record)
        print(contract_line(outcome))
        return 0

    names = [args.workload] if args.workload else list(WORKLOADS)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    out_dir = RESULTS / f"run-{stamp}-s{args.seed}"
    runs = []
    os.makedirs(out_dir, exist_ok=True)
    for index in range(args.runs):
        record = full_run(names, args.seed + index, args.seconds)
        runs.append(record)
        with open(LEDGER, "a") as handle:
            handle.write(json.dumps(ledger_row(record)) + "\n")
    result_path = out_dir / "result.json"
    with open(result_path, "w") as handle:
        json.dump({"runs": runs}, handle, indent=1)
    print(f"result: {result_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
