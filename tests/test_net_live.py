"""Live-runtime integration tests: real processes, real sockets, real kills.

The headline here is the crash test the fault subsystem (PR 2) earned in
simulation, replayed against the real runtime: SIGKILL a replica process
mid-run — no flush, no goodbye — restart it from its durable snapshot, and
assert the resync protocol converges the cluster back to a causally
consistent, state-agreed execution.
"""

from __future__ import annotations

import os

import pytest

from repro.core.share_graph import ShareGraph
from repro.net import LiveCluster, wal
from repro.net.client import OpenLoopClient
from repro.net.runtime import LiveRuntimeError
from repro.sim.topologies import pairwise_clique_placement
from repro.sim.workloads import single_writer_workload


def _graph():
    return ShareGraph.from_placement(pairwise_clique_placement(4))


def _phase(graph, seed):
    return single_writer_workload(
        graph, rate=3.0, duration=30.0, write_fraction=0.6, seed=seed
    )


class TestKillRestart:
    def test_sigkill_restart_resyncs_and_stays_consistent(self, tmp_path):
        """The crash/kill integration test (ISSUE 5 satellite).

        Three workload phases: healthy → replica 2 SIGKILLed → restarted.
        The killed replica loses every in-memory queue; recovery rides its
        durable snapshot + sent-log and the SYNC exchange on reconnect.
        """
        graph = _graph()
        with LiveCluster(graph, durable_dir=str(tmp_path)) as cluster:
            healthy = OpenLoopClient(cluster).run(
                _phase(graph, seed=1), time_scale=0.0005
            )
            assert healthy.ok and healthy.rejected == 0

            cluster.kill(2)
            assert not cluster.alive(2)
            degraded = OpenLoopClient(cluster).run(
                _phase(graph, seed=2), time_scale=0.0005
            )
            # Operations addressed to the dead replica are rejected — the
            # availability cost of the crash, as in the simulator.
            assert degraded.rejected > 0
            assert degraded.completed == degraded.submitted

            cluster.restart(2)
            assert cluster.alive(2)
            recovered = OpenLoopClient(cluster).run(
                _phase(graph, seed=3), time_scale=0.0005
            )
            assert recovered.rejected == 0

            cluster.drain(timeout=60.0)
            result = cluster.collect(
                operation_latencies=(
                    healthy.latencies + degraded.latencies + recovered.latencies
                ),
                rejected_operations=degraded.rejected,
            )

        report = result.check_consistency()
        assert report.is_causally_consistent, (
            f"safety: {report.safety_violations[:3]}, "
            f"liveness: {report.liveness_violations[:3]}"
        )
        # The restarted node recovered from its durable snapshot, and the
        # launcher-side fault accounting filled the same RunMetrics fields
        # the simulator's fault analyses consume.
        assert result.reports[2]["recovered"]
        assert result.metrics.crashes == 1
        assert result.metrics.restarts == 1
        assert result.metrics.rejected_operations == degraded.rejected
        assert len(result.metrics.downtime[2]) == 1
        down_at, up_at = result.metrics.downtime[2][0]
        assert 0 <= down_at < up_at
        availability = result.metrics.availability(
            result.wall_duration or up_at, graph.replica_ids
        )
        assert availability[2] < 1.0
        assert all(availability[rid] == 1.0 for rid in (1, 3, 4))
        # Resync converged: every register agrees across its storing
        # replicas (single-writer workload ⇒ the final state is unique).
        for register, values in result.final_state().items():
            assert len(set(values.values())) == 1, (
                f"register {register} diverged after recovery: {values}"
            )

    def test_restart_requires_durable_snapshots(self):
        graph = _graph()
        with LiveCluster(graph) as cluster:  # diskless
            cluster.kill(1)
            with pytest.raises(LiveRuntimeError):
                cluster.restart(1)

    def test_kill_twice_is_an_error(self, tmp_path):
        graph = _graph()
        with LiveCluster(graph, durable_dir=str(tmp_path)) as cluster:
            cluster.kill(3)
            with pytest.raises(LiveRuntimeError):
                cluster.kill(3)
            cluster.restart(3)
            cluster.drain(timeout=30.0)


class TestMultiTenant:
    def test_multi_tenant_kill_restart_recovers_all_tenants(self, tmp_path):
        """The scale-out crash test (ISSUE 8): SIGKILL a *node* hosting
        several replicas; the restarted process replays each tenant's
        checkpoint + WAL tail and the stream resync converges the cluster.
        """
        graph = ShareGraph.from_placement(pairwise_clique_placement(6))
        with LiveCluster(
            graph, nodes=3, durable_dir=str(tmp_path), wal_compact_bytes=256
        ) as cluster:
            hosted = cluster.placement["n1"]
            assert len(hosted) == 2
            healthy = OpenLoopClient(cluster).run(
                _phase(graph, seed=1), time_scale=0.0005
            )
            assert healthy.ok

            # Kill by hosted replica id: the whole node goes down.
            cluster.kill(hosted[0])
            assert not cluster.alive("n1")
            assert all(not cluster.alive(rid) for rid in hosted)
            # The recovery below folds a multi-record checkpoint: the
            # killed node's one log had compacted at least twice, and
            # every record holds each of its tenants.
            path = os.path.join(str(tmp_path), "node-n1.ckpt")
            with open(path, "rb") as handle:
                records, _ = wal._parse_records(handle.read())
            assert len(records) >= 2, len(records)
            for _, payload in records:
                tails, _ = wal.decode_checkpoint_history(payload)
                assert {part[0] for part in tails} == set(hosted)
            degraded = OpenLoopClient(cluster).run(
                _phase(graph, seed=2), time_scale=0.0005
            )
            assert degraded.rejected > 0

            cluster.restart("n1")
            assert all(cluster.alive(rid) for rid in hosted)
            recovered = OpenLoopClient(cluster).run(
                _phase(graph, seed=3), time_scale=0.0005
            )
            assert recovered.rejected == 0

            cluster.drain(timeout=60.0)
            result = cluster.collect(rejected_operations=degraded.rejected)

        report = result.check_consistency()
        assert report.is_causally_consistent, (
            f"safety: {report.safety_violations[:3]}, "
            f"liveness: {report.liveness_violations[:3]}"
        )
        # Every tenant of the killed node recovered from its own durable
        # pair; downtime was booked per replica.
        for rid in hosted:
            assert result.reports[rid]["recovered"]
            assert len(result.metrics.downtime[rid]) == 1
        assert result.metrics.crashes == 1 and result.metrics.restarts == 1
        # Compaction work is reported beside the compaction count.
        transports = [r["transport"] for r in result.node_reports.values()]
        assert sum(t["wal_compactions"] for t in transports) >= 2
        for transport in transports:
            assert (transport["wal_checkpoint_bytes"] > 0) == (
                transport["wal_compactions"] > 0)
            assert transport["wal_checkpoint_seconds"] >= 0.0
        # Resync converged: single-writer ⇒ unique final state.
        for register, values in result.final_state().items():
            assert len(set(values.values())) == 1

    def test_transport_footprint_scales_with_nodes_not_edges(self, tmp_path):
        """8 pairwise-clique replicas = 56 directed edges; on 2 nodes the
        transport opens at most 2 ordered host pairs' worth of streams."""
        graph = ShareGraph.from_placement(pairwise_clique_placement(8))
        workload = single_writer_workload(
            graph, rate=4.0, duration=20.0, write_fraction=0.6, seed=6
        )
        with LiveCluster(graph, nodes=2) as cluster:
            OpenLoopClient(cluster).run(workload, time_scale=0.0005)
            cluster.drain(timeout=30.0)
            result = cluster.collect()
        assert len(result.reports) == 8
        hosts = len(result.node_reports)
        assert hosts == 2
        outbound = sum(
            r["transport"]["peer_streams"] for r in result.node_reports.values()
        )
        assert 0 < outbound <= hosts * (hosts - 1)
        assert outbound < len(graph.edges)
        assert result.check_consistency().is_causally_consistent
        # The per-tenant ledger holds for co-hosted replicas too: the
        # short-circuit path books intra-node copies through the same
        # counters the wire path uses.
        for report in result.reports.values():
            counters = report["counters"]
            assert counters["delivered"] == (
                counters["received"] - counters["duplicates"]
            )

    def test_explicit_placement_and_bad_placement_rejected(self, tmp_path):
        from repro.core.errors import ConfigurationError

        graph = _graph()
        placement = {"left": (1, 2), "right": (3, 4)}
        with LiveCluster(graph, placement=placement) as cluster:
            assert cluster.placement == {"left": (1, 2), "right": (3, 4)}
            outcome = OpenLoopClient(cluster).run(
                _phase(graph, seed=5), time_scale=0.0005
            )
            cluster.drain(timeout=30.0)
            result = cluster.collect()
        assert outcome.ok
        assert result.check_consistency().is_causally_consistent
        with pytest.raises(ConfigurationError):
            LiveCluster(graph, placement={"only": (1, 2)})  # not a partition
        with pytest.raises(ConfigurationError):
            LiveCluster(graph, placement={"a": (1, 2, 3), "b": (3, 4)})


class TestControlLinkShutdown:
    """ISSUE 8 satellite: close() joins the reader and keeps late frames."""

    def _serve_once(self, behaviour):
        """One-shot fake node: accept a connection, run ``behaviour``."""
        import socket
        import threading

        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)

        def run():
            conn, _ = server.accept()
            try:
                behaviour(conn)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
                server.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return server.getsockname(), thread

    def test_close_surfaces_report_racing_the_shutdown(self):
        """A REPORT flushed by the node as it exits must land in the
        report queue even when close() is already underway — joining the
        reader guarantees every frame sent before EOF is dispatched."""
        import pickle as pickle_mod
        import time as time_mod

        from repro.net import frames
        from repro.net.framing import encode_frame
        from repro.net.runtime import ControlLink

        def behaviour(conn):
            conn.recv(65536)  # the CONTROL_HELLO
            time_mod.sleep(0.2)  # close() is already joining by now
            conn.sendall(encode_frame(
                frames.REPORT, pickle_mod.dumps({"late": True})
            ))
            conn.sendall(encode_frame(99, b"future-vocabulary"))

        address, thread = self._serve_once(behaviour)
        link = ControlLink(address)
        link.close(timeout=5.0)
        thread.join(timeout=5.0)
        assert not link._reader.is_alive()
        assert pickle_mod.loads(link._reports.get_nowait()) == {"late": True}
        # Unknown kinds are surfaced, not silently dropped.
        assert link.unclaimed == [(99, b"future-vocabulary")]

    def test_close_bounded_when_node_never_hangs_up(self):
        """A wedged node that neither answers nor closes cannot hang
        stop(): close() forces the socket shut after its timeout."""
        import threading
        import time as time_mod

        from repro.net.runtime import ControlLink

        release = threading.Event()

        def behaviour(conn):
            release.wait(10.0)  # hold the connection open, send nothing

        address, thread = self._serve_once(behaviour)
        link = ControlLink(address)
        started = time_mod.monotonic()
        link.close(timeout=0.3)
        elapsed = time_mod.monotonic() - started
        assert elapsed < 5.0
        assert not link._reader.is_alive()
        release.set()
        thread.join(timeout=5.0)


class TestLiveBasics:
    def test_reads_observe_local_writes(self, tmp_path):
        """A read at the writer observes its own write (session order)."""
        graph = _graph()
        workload = single_writer_workload(
            graph, rate=4.0, duration=30.0, write_fraction=0.5, seed=9
        )
        with LiveCluster(graph, durable_dir=str(tmp_path)) as cluster:
            client = OpenLoopClient(cluster)
            outcome = client.run(workload, time_scale=0.0005)
            cluster.drain(timeout=30.0)
            result = cluster.collect(operation_latencies=outcome.latencies)
        assert outcome.ok
        # Cross-check the client's read results against the final state:
        # the last read of each register at its single writer saw either
        # the final value or an earlier one from the same totally-ordered
        # write sequence — never a value outside the written set.
        written = {
            arrival.operation.register: set()
            for arrival in workload.arrivals
            if arrival.operation.kind == "write"
        }
        for arrival in workload.arrivals:
            operation = arrival.operation
            if operation.kind == "write":
                written[operation.register].add(operation.value)
        for _, register, value in outcome.read_results:
            if value is not None:
                assert value in written.get(register, set())
        report = result.check_consistency()
        assert report.is_causally_consistent

    def test_duplicate_suppression_counts_are_reported(self, tmp_path):
        """Reports expose the reliability layer's bookkeeping."""
        graph = _graph()
        workload = single_writer_workload(
            graph, rate=4.0, duration=20.0, seed=4
        )
        with LiveCluster(graph, durable_dir=str(tmp_path)) as cluster:
            outcome = OpenLoopClient(cluster).run(workload, time_scale=0.0005)
            cluster.drain(timeout=30.0)
            result = cluster.collect(operation_latencies=outcome.latencies)
        for report in result.reports.values():
            counters = report["counters"]
            # First receipts + suppressed duplicates account for every
            # message read off the wire — exactly-once at the protocol
            # layer, whatever the reconnects re-sent.
            assert counters["delivered"] == counters["received"] - counters["duplicates"]


class TestQuietShutdown:
    def test_repeated_start_stop_leaves_stderr_empty(self, capfd):
        """Node processes inherit this process's stderr: a handler task that
        dies cancelled at loop teardown would print its traceback there."""
        graph = _graph()
        for seed in range(10):
            with LiveCluster(graph, nodes=2) as cluster:
                assert OpenLoopClient(cluster).run(
                    _phase(graph, seed=seed), time_scale=0.0005).ok
        assert capfd.readouterr().err == ""
