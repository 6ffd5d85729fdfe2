"""Core machinery: the paper's primary contribution.

This subpackage contains the combinatorial objects (share graph,
``(i, e_jk)``-loops, timestamp graphs), the edge-indexed timestamp algorithm
of Section 3.3, the causality model and the execution checker, plus the
Hélary–Milani hoop machinery the paper corrects.
"""

from .causal import (
    CausalDependencyGraph,
    CausalPast,
    HappenedBefore,
    causal_past_of,
    dependency_graph_of,
)
from .consistency import (
    ConsistencyChecker,
    ConsistencyReport,
    LivenessViolation,
    SafetyViolation,
    check_execution,
)
from .errors import (
    ConfigurationError,
    ConsistencyViolationError,
    LivenessViolationError,
    ProtocolError,
    RegisterNotStoredError,
    ReproError,
    SimulationError,
    UnknownRegisterError,
    UnknownReplicaError,
)
from .hoops import (
    Hoop,
    HoopComparison,
    compare_with_theorem8,
    hoop_tracked_edges,
    hoop_tracked_registers,
    is_minimal_hoop,
    iter_hoops,
    minimal_hoops,
    must_transmit,
)
from .loops import Loop, find_loop, has_loop, iter_loops, loop_edges, loops_by_edge
from .protocol import (
    CausalReplica,
    EventKind,
    ReplicaEvent,
    ReplicaTrace,
    Update,
    UpdateId,
    UpdateMessage,
)
from .registers import Register, RegisterPlacement, ReplicaId
from .replica import EdgeIndexedReplica
from .share_graph import Edge, ShareGraph, edge, reverse
from .timestamp_graph import (
    TimestampGraph,
    build_all_timestamp_graphs,
    metadata_summary,
    timestamp_edges,
)
from .timestamps import (
    EdgeTimestamp,
    VectorTimestamp,
    advance,
    delivery_predicate,
    merge,
)

__all__ = [
    "CausalDependencyGraph",
    "CausalPast",
    "CausalReplica",
    "ConfigurationError",
    "ConsistencyChecker",
    "ConsistencyReport",
    "ConsistencyViolationError",
    "Edge",
    "EdgeIndexedReplica",
    "EdgeTimestamp",
    "EventKind",
    "HappenedBefore",
    "Hoop",
    "HoopComparison",
    "LivenessViolation",
    "LivenessViolationError",
    "Loop",
    "ProtocolError",
    "Register",
    "RegisterNotStoredError",
    "RegisterPlacement",
    "ReplicaEvent",
    "ReplicaId",
    "ReplicaTrace",
    "ReproError",
    "SafetyViolation",
    "ShareGraph",
    "SimulationError",
    "TimestampGraph",
    "UnknownRegisterError",
    "UnknownReplicaError",
    "Update",
    "UpdateId",
    "UpdateMessage",
    "VectorTimestamp",
    "advance",
    "build_all_timestamp_graphs",
    "causal_past_of",
    "check_execution",
    "compare_with_theorem8",
    "delivery_predicate",
    "dependency_graph_of",
    "edge",
    "find_loop",
    "has_loop",
    "hoop_tracked_edges",
    "hoop_tracked_registers",
    "is_minimal_hoop",
    "iter_hoops",
    "iter_loops",
    "loop_edges",
    "loops_by_edge",
    "merge",
    "metadata_summary",
    "minimal_hoops",
    "must_transmit",
    "reverse",
    "timestamp_edges",
]
