"""Open-loop client load against a live cluster.

An open-loop client fires operations at their scheduled wall-clock times —
derived from an :class:`~repro.sim.workloads.OpenLoopWorkload` by scaling
simulated time units to seconds — *without* waiting for replies, so queues
in the system can genuinely build up, exactly as in the simulator's
open-loop runs.  Replies stream back asynchronously on the control links'
reader threads; each reply closes its operation's latency sample
(submit → durably-applied-and-answered round trip): the operation
latencies :meth:`~repro.net.runtime.LiveCluster.run_open_loop` reports.

Operations addressed to a dead node (its control link is down, e.g. after
:meth:`~repro.net.runtime.LiveCluster.kill`) are *rejected* and counted,
mirroring the simulator's availability accounting for crashed replicas.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from . import frames


@dataclass
class ClientOutcome:
    """What one open-loop drive observed."""

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    #: Submit → reply round-trip per completed operation, in seconds.
    latencies: List[float] = field(default_factory=list)
    #: Values returned by completed reads: ``(replica_id, register, value)``.
    read_results: List[Tuple[Any, Any, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """``True`` when every submitted operation was answered."""
        return self.completed == self.submitted


class OpenLoopClient:
    """Drives an :class:`~repro.sim.workloads.OpenLoopWorkload` live.

    One client instance drives one run; construct a fresh one per run.
    """

    def __init__(self, cluster: Any) -> None:
        self.cluster = cluster

    def run(self, workload: Any, time_scale: float = 0.001,
            reply_timeout: float = 30.0) -> ClientOutcome:
        """Fire every arrival on schedule; wait for the replies; summarise.

        ``time_scale`` converts workload time units to seconds (the default
        compresses 1 simulated unit to 1 ms, keeping tests fast while
        preserving the arrival *order and proportions* of the schedule).
        A scale of 0 fires the whole schedule as fast as the sockets
        accept it — maximum pressure, still per-replica FIFO.
        """
        outcome = ClientOutcome()
        #: op_id -> (link, replica_id, operation) for reply matching.
        in_flight: Dict[int, Tuple[Any, Any, Any]] = {}
        start = time.perf_counter()
        for arrival in workload.arrivals:
            if time_scale > 0:
                target = start + arrival.time * time_scale
                delay = target - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            operation = arrival.operation
            link = self.cluster.link(operation.replica_id)
            if link is None:
                outcome.rejected += 1
                continue
            op_id = self.cluster.next_op_id()
            try:
                link.submit_op(
                    op_id, operation.replica_id, operation.kind,
                    operation.register, operation.value,
                )
            except OSError:
                outcome.rejected += 1
                continue
            outcome.submitted += 1
            in_flight[op_id] = (link, operation.replica_id, operation)

        deadline = time.monotonic() + reply_timeout
        while in_flight and time.monotonic() < deadline:
            done = [
                op_id for op_id, (link, _, _) in in_flight.items()
                if op_id in link.op_replies or not link.alive
            ]
            if not done:
                time.sleep(0.01)
                continue
            for op_id in done:
                link, replica_id, operation = in_flight.pop(op_id)
                reply = link.op_replies.pop(op_id, None)
                if reply is None:
                    # The link died before answering: the node was killed
                    # with the operation in flight.  Count it rejected —
                    # whether it executed is exactly the ambiguity a real
                    # client faces, and the consistency checker judges
                    # whatever the durable trace says actually happened.
                    outcome.submitted -= 1
                    outcome.rejected += 1
                    continue
                latency, status, value = reply
                if status == frames.OP_OK:
                    outcome.completed += 1
                    outcome.latencies.append(latency)
                    if operation.kind == "read":
                        outcome.read_results.append(
                            (replica_id, operation.register, value)
                        )
                else:
                    outcome.submitted -= 1
                    outcome.rejected += 1
        return outcome
