"""Dynamic membership under open-loop load: join, leave, edge change.

Demonstrates the reconfiguration subsystem (``repro.sim.reconfig``) end to
end on a growing tree:

1. a **join** — replica 7 attaches to the tree mid-run through a fresh
   shared register; every surviving replica recomputes its timestamp graph
   for the new share graph and projects its timestamp across the epoch;
2. a **group join with state transfer** — replica 8 joins the replication
   group of an *existing* register, and the coordinator replays that
   register's update history to it as a gated bootstrap stream through the
   transport;
3. a **leave** — a replica exits; its trace stays part of the checked
   execution and survivors garbage-collect the edges that left with it;
4. an **edge change** — an existing register is placed at a second replica,
   which receives its history the same way a joiner would.

Throughout, client operations keep arriving open-loop against the changing
replica set; operations addressed to a replica inside a migration window
are rejected (the availability cost the E17 experiment measures), and the
epoch-aware consistency checker validates the whole multi-epoch execution.

Run with::

    PYTHONPATH=src python examples/reconfiguration.py
"""

from __future__ import annotations

from repro import ShareGraph
from repro.sim import (
    Cluster,
    ReconfigManager,
    ReconfigSchedule,
    UniformDelay,
    add_edge,
    join,
    leave,
    poisson_workload_dynamic,
    run_open_loop,
)
from repro.sim.topologies import tree_placement


def timeline(host) -> None:
    print("reconfiguration timeline:")
    for record in host.metrics.reconfig_timeline:
        print(f"  t={record.time:6.1f}  {record.kind:<18} {record.detail}")


def main() -> None:
    placement = tree_placement(6)
    graph = ShareGraph.from_placement(placement)
    print(graph.describe())
    print()

    cluster = Cluster(graph, delay_model=UniformDelay(1, 10), seed=42,
                      wire_accounting=True)
    manager = ReconfigManager(cluster, window=4.0)

    schedule = ReconfigSchedule(
        "join-leave-edge",
        (
            # Leaf join through a fresh register granted to the anchor.
            join(40.0, 7, {"wing_7"}, grants={3: {"wing_7"}}),
            # Group join: replica 8 also joins tree_1_2's replication
            # group, so it receives that register's history.
            join(80.0, 8, {"wing_8", "tree_1_2"}, grants={5: {"wing_8"}}),
            # A leaf leaves; its registers' other copies survive.
            leave(120.0, 6),
            # Edge change: replica 4 starts storing tree_1_3 as well.
            add_edge(150.0, 3, 4, register="tree_1_3"),
        ),
    )
    manager.install(schedule)

    placements = schedule.placements_over(placement, window=4.0)
    workload = poisson_workload_dynamic(placements, rate=0.6, duration=200.0,
                                        seed=42)
    result = run_open_loop(cluster, workload)

    timeline(cluster)
    print()
    print(f"epochs committed : {cluster.metrics.reconfigs} "
          f"(final epoch {cluster.epoch})")
    print(f"final members    : {list(cluster.share_graph.replica_ids)}")
    print(f"rejected ops     : {cluster.metrics.rejected_operations} "
          f"(inside migration windows)")
    print(f"forced applies   : {cluster.metrics.reconfig_forced_applies}")
    print(f"stale frames     : "
          f"{cluster.network.stats.messages_rejected_stale_epoch}")
    print()
    print("per-epoch traffic (timestamp bytes follow the configuration):")
    for segment in manager.epoch_segments():
        graph_r = segment.replicas
        messages = segment.messages
        ts_bytes = segment.timestamp_bytes
        per_message = ts_bytes / messages if messages else 0.0
        print(f"  epoch {segment.epoch}: R={graph_r:<2} "
              f"msgs={messages:<4} ts bytes={ts_bytes:<6} "
              f"ts B/msg={per_message:.1f}")
    print()
    print(f"metadata sizes   : {cluster.metadata_sizes()}")
    print(f"causally consistent across all epochs: {result.consistent}")
    assert result.consistent


if __name__ == "__main__":
    main()
