"""repro — Partially replicated causally consistent shared memory.

A from-scratch Python implementation of the algorithm, lower bounds and
optimizations of *"Partially Replicated Causally Consistent Shared Memory:
Lower Bounds and An Algorithm"* (Xiang & Vaidya), together with a
discrete-event simulation substrate, baselines, and an evaluation harness
that regenerates every worked example, counterexample and bound in the
paper.

Quickstart
----------
>>> from repro import Cluster, RegisterPlacement, ShareGraph
>>> placement = RegisterPlacement.from_dict(
...     {1: {"x"}, 2: {"x", "y"}, 3: {"y", "z"}, 4: {"z"}})
>>> graph = ShareGraph.from_placement(placement)
>>> cluster = Cluster(graph, seed=7)
>>> cluster.write(2, "x", "hello")
>>> cluster.run_until_quiescent()
>>> cluster.read(1, "x")
'hello'

See ``examples/`` for complete, runnable scenarios and ``EXPERIMENTS.md`` for
the per-experiment reproduction index.
"""

from .core import (
    CausalReplica,
    ConsistencyChecker,
    ConsistencyReport,
    EdgeIndexedReplica,
    EdgeTimestamp,
    HappenedBefore,
    RegisterPlacement,
    ShareGraph,
    TimestampGraph,
    Update,
    UpdateMessage,
    VectorTimestamp,
    build_all_timestamp_graphs,
    check_execution,
    timestamp_edges,
)
from .sim import (
    BatchingConfig,
    Cluster,
    EventKernel,
    SimulationHost,
    poisson_workload,
    run_open_loop,
    run_workload,
)
from .sim.topologies import (
    clique_placement,
    counterexample1_placement,
    counterexample2_placement,
    figure3_placement,
    figure5_placement,
    random_partial_placement,
    ring_placement,
    star_placement,
    tree_placement,
)
from .wire import MessageBatch, WireSizes

__version__ = "1.0.0"

__all__ = [
    "BatchingConfig",
    "CausalReplica",
    "Cluster",
    "ConsistencyChecker",
    "ConsistencyReport",
    "EdgeIndexedReplica",
    "EdgeTimestamp",
    "EventKernel",
    "SimulationHost",
    "HappenedBefore",
    "MessageBatch",
    "RegisterPlacement",
    "ShareGraph",
    "TimestampGraph",
    "Update",
    "UpdateMessage",
    "VectorTimestamp",
    "WireSizes",
    "__version__",
    "build_all_timestamp_graphs",
    "check_execution",
    "clique_placement",
    "counterexample1_placement",
    "counterexample2_placement",
    "figure3_placement",
    "figure5_placement",
    "poisson_workload",
    "random_partial_placement",
    "ring_placement",
    "run_open_loop",
    "run_workload",
    "star_placement",
    "timestamp_edges",
    "tree_placement",
]
