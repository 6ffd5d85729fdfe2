"""The linear-time checks flag each doctored trace and pass the clean one."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from repro.core.protocol import EventKind  # noqa: E402
from repro.core.share_graph import ShareGraph  # noqa: E402
from repro.sim.cluster import Cluster  # noqa: E402

from bench import checks  # noqa: E402


@pytest.fixture
def run():
    """A small real execution: one writer per register, fully drained."""
    graph = ShareGraph.from_dict({1: {"x", "y"}, 2: {"x", "z"}, 3: {"y", "z"}})
    cluster = Cluster(graph, seed=5)
    last_written = {}
    for index in range(30):
        replica_id, register = [(1, "x"), (1, "y"), (2, "z")][index % 3]
        cluster.write(replica_id, register, f"v{index}")
        last_written[register] = f"v{index}"
    cluster.run_until_quiescent()
    events = {rid: list(evs) for rid, evs in cluster.events_by_replica().items()}
    # First-receipt streams, as a live node would report them: a sender's
    # updates are applied at a destination in issue order.
    streams = {}
    for replica_id, trace in events.items():
        for event in trace:
            if event.kind is EventKind.APPLY:
                streams.setdefault((event.update.uid[0], replica_id), []).append(event.update.uid)
    final_state = {r: dict(cluster.values(r)) for r in graph.placement.registers}
    return graph, events, final_state, last_written, streams


def test_clean_run_passes(run):
    assert checks.check_run(*run) == []


def test_doctored_final_state_is_flagged(run):
    graph, events, final_state, last_written, streams = run
    final_state["x"][2] = "stale"
    violations = checks.check_run(graph, events, final_state, last_written, streams)
    assert len(violations) == 1 and "'x' at replica 2" in violations[0]


def test_reordered_stream_is_flagged(run):
    graph, events, final_state, last_written, streams = run
    stream = streams[(1, 2)]
    stream[3], stream[4] = stream[4], stream[3]
    violations = checks.check_run(graph, events, final_state, last_written, streams)
    assert len(violations) == 1 and "channel (1, 2) position 3" in violations[0]


def test_dropped_apply_is_flagged(run):
    graph, events, final_state, last_written, streams = run
    victim = next(e for e in events[3] if e.kind is EventKind.APPLY)
    events[3].remove(victim)
    violations = checks.check_run(graph, events, final_state, last_written, streams)
    assert any(f"{victim.update.uid} " in v and "never applied at replica 3" in v
               for v in violations)


def test_gap_in_a_stream_is_flagged(run):
    graph, events, final_state, last_written, streams = run
    del streams[(2, 3)][2]
    violations = checks.check_run(graph, events, final_state, last_written, streams)
    assert any("channel (2, 3) carried" in v for v in violations)
