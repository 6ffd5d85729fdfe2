"""Client–server architecture (Section 6 and Appendix E).

Augmented share graphs, augmented ``(i, e_jk)``-loops and timestamp graphs,
the client/server halves of the generalized algorithm, and a simulated
client–server cluster.
"""

from .augmented import (
    AugmentedShareGraph,
    ClientAssignment,
    ClientId,
    augmented_loop_conditions,
    augmented_timestamp_edges,
    build_all_augmented_timestamp_edges,
    client_index_edges,
    has_augmented_loop,
)
from .client import ClientAgent, ClientSessionRecord
from .cluster import ClientServerCluster
from .server import ClientRequest, ClientServerReplica

__all__ = [
    "AugmentedShareGraph",
    "ClientAgent",
    "ClientAssignment",
    "ClientId",
    "ClientRequest",
    "ClientServerCluster",
    "ClientServerReplica",
    "ClientSessionRecord",
    "augmented_loop_conditions",
    "augmented_timestamp_edges",
    "build_all_augmented_timestamp_edges",
    "client_index_edges",
    "has_augmented_loop",
]
