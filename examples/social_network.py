#!/usr/bin/env python3
"""A geo-partitioned social network on causally consistent partial replication.

This is the classic motivating scenario for causal consistency (the "remove
boss from ACL, then post" example) played out on a *partially replicated*
deployment: three datacenters each store only their local users' data plus a
couple of globally replicated control registers.

The example shows:

* the storage saving of partial replication versus full replication,
* the metadata (timestamp) each datacenter must maintain,
* that the causally dependent pair (ACL change ↪ post) is never observed out
  of order, even under heavy message reordering,
* and that the independent checker agrees the whole execution is causally
  consistent.

Run with::

    python examples/social_network.py
"""

from __future__ import annotations

from repro import Cluster, ShareGraph
from repro.analysis import render_table
from repro.core.registers import RegisterPlacement
from repro.sim.delays import UniformDelay
from repro.sim.metrics import edge_indexed_profile, full_replication_profile


def build_placement() -> RegisterPlacement:
    """Three datacenters; walls are regional, the ACL and feed index are global.

    * DC 1 (eu) hosts Alice's wall and profile.
    * DC 2 (us) hosts Bob's (the boss's) wall and profile.
    * DC 3 (ap) hosts Carol's wall and profile.
    * ``acl_alice`` and ``feed_index`` are replicated everywhere.
    * Neighbouring regions additionally share a "regional timeline".
    """
    return RegisterPlacement.from_dict(
        {
            1: {"wall_alice", "profile_alice", "timeline_eu_us", "acl_alice", "feed_index"},
            2: {"wall_bob", "profile_bob", "timeline_eu_us", "timeline_us_ap", "acl_alice", "feed_index"},
            3: {"wall_carol", "profile_carol", "timeline_us_ap", "acl_alice", "feed_index"},
        }
    )


def main() -> None:
    placement = build_placement()
    graph = ShareGraph.from_placement(placement)

    print("Storage and metadata: partial replication vs full replication")
    partial = edge_indexed_profile(graph)
    full = full_replication_profile(graph)
    rows = [
        (
            partial.protocol,
            partial.total_storage,
            f"{partial.mean_counters:.1f}",
            partial.max_counters,
        ),
        (
            full.protocol,
            full.total_storage,
            f"{full.mean_counters:.1f}",
            full.max_counters,
        ),
    ]
    print(render_table(["scheme", "register copies", "mean counters", "max counters"], rows))
    print()

    cluster = Cluster(graph, delay_model=UniformDelay(1, 25), seed=42)

    # ------------------------------------------------------------------
    # The anomaly causal consistency exists to prevent:
    # Alice removes her boss from the ACL, *then* posts a complaint.
    # Whoever sees the post must already have seen the ACL change.
    # ------------------------------------------------------------------
    print("Scenario: Alice removes her boss from the ACL, then posts.")
    cluster.write(1, "acl_alice", {"friends": ["carol"], "blocked": ["bob"]})
    cluster.write(1, "wall_alice", "My boss is the worst!  (visible to friends only)")
    cluster.write(1, "feed_index", {"latest": "wall_alice"})

    # Meanwhile the other datacenters generate unrelated traffic.
    cluster.write(2, "wall_bob", "Quarterly numbers look great.")
    cluster.write(3, "wall_carol", "Holiday photos!")
    cluster.write(2, "timeline_us_ap", "bob+carol shared timeline entry")

    cluster.run_until_quiescent()

    # Every datacenter that stores the ACL sees the blocked list before (or
    # together with) the feed index entry that references Alice's post.
    acl_at_dc2 = cluster.read(2, "acl_alice")
    feed_at_dc2 = cluster.read(2, "feed_index")
    print("DC 2 (boss's datacenter) sees ACL:", acl_at_dc2)
    print("DC 2 sees feed index:", feed_at_dc2)
    assert acl_at_dc2 is not None and "bob" in acl_at_dc2["blocked"]
    print("=> the ACL change is visible wherever the post announcement is visible")
    print()

    # A longer causally chained conversation across regions.
    cluster.write(3, "acl_alice", {"friends": ["carol", "dave"], "blocked": ["bob"]})
    cluster.write(3, "timeline_us_ap", "carol comments on alice's situation")
    cluster.run_until_quiescent()
    cluster.write(2, "timeline_eu_us", "bob (unaware) posts to the eu/us timeline")
    cluster.run_until_quiescent()

    report = cluster.check_consistency()
    print("Checker verdict:", report.summary())
    assert report.is_causally_consistent

    print()
    print("Network traffic:", cluster.network.stats.messages_sent, "messages,",
          cluster.total_metadata_counters_sent(), "metadata counters shipped")
    print("Per-datacenter metadata (counters):", cluster.metadata_sizes())


if __name__ == "__main__":
    main()
