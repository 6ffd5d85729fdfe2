"""The stage trace: a lifecycle trace reduced by ``repro.obs.analyze``.

The traced pass runs with the existing public tracing flag
(``LiveCluster(tracing=True)`` / ``Cluster.enable_tracing()``) — never in
a measured run — and its trace goes through the repository's own
``stage_breakdown``: where, between issue and remote apply, the time goes.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from repro.obs import analyze

from .stats import Reduced

#: ``stage_breakdown`` hop label -> metric name stem.
HOPS = {
    "issue→send": "issue_send",
    "batch window": "send_wire",
    "transport": "wire_deliver",
    "pending wait": "deliver_apply",
}


def stage_metrics(events: Sequence[Any], to_ms: float) -> Dict[str, Reduced]:
    """``obs.stage.*`` and ``obs.chain_coverage``.

    ``to_ms`` converts the trace's clock to milliseconds: 1e3 for a live
    trace (seconds), 1.0 for the simulator's (already milliseconds).
    """
    spans = analyze.assemble_spans(events)
    complete, applied = analyze.coverage(spans)
    breakdown = analyze.stage_breakdown(analyze.complete_chains(spans))
    out = {
        "obs.chain_coverage": Reduced.exact(complete / max(applied, 1), samples=applied),
    }
    for label, stem in HOPS.items():
        summary = breakdown[label]
        out[f"obs.stage.{stem}_p50_ms"] = Reduced.exact(summary.p50 * to_ms, summary.count)
        out[f"obs.stage.{stem}_p99_ms"] = Reduced.exact(summary.p99 * to_ms, summary.count)
    return out
