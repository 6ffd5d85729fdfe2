"""Unit tests for the analysis/evaluation harness (repro.analysis)."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis import (
    AdaptiveRow,
    DummyTradeoffRow,
    FaultToleranceRow,
    LowerBoundRow,
    ObservabilityRow,
    OpenLoopRow,
    PlacementRow,
    ReconfigurationRow,
    edge_label,
    exp_compression,
    exp_conflict_bound,
    exp_figure5,
    exp_helary_milani,
    exp_lower_bounds,
    exp_ring_breaking,
    oblivious_factory,
    protocol_suite,
    render_compression,
    render_figure5,
    render_helary_milani,
    render_mapping,
    render_ring_breaking,
    render_rows,
    render_table,
    standard_topologies,
)
from repro.analysis.experiments import WireOverheadRow
from repro.core.share_graph import ShareGraph
from repro.core.timestamp_graph import timestamp_edges
from repro.sim.metrics import ComparisonRow
from repro.sim.topologies import figure5_placement


class TestTables:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], ["long-cell", {3, 1}]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "2.50" in text
        assert "1, 3" in text

    def test_render_mapping(self):
        text = render_mapping("title", {"k": 1})
        assert text.startswith("title")
        assert "k" in text

    def test_edge_label(self):
        assert edge_label((4, 3)) == "e_43"


class TestExperimentHarness:
    def test_standard_topologies_all_connected(self):
        topologies = standard_topologies()
        assert len(topologies) >= 10
        for placement in topologies.values():
            assert ShareGraph.from_placement(placement).is_connected()

    def test_protocol_suite_contains_paper_and_baselines(self):
        suite = protocol_suite()
        assert "edge-indexed (paper)" in suite
        assert len(suite) >= 5

    def test_exp_figure5_and_render(self):
        result = exp_figure5()
        assert result.replica1_edges == timestamp_edges(
            ShareGraph.from_placement(figure5_placement()), 1
        )
        text = render_figure5(result)
        assert "e_43" in text

    def test_exp_helary_milani_and_render(self):
        results = exp_helary_milani()
        assert len(results) == 2
        text = render_helary_milani(results)
        assert "counterexample 1" in text and "counterexample 2" in text

    def test_exp_lower_bounds_tight_and_render(self):
        rows = exp_lower_bounds(max_updates=8)
        for row in rows:
            assert row.algorithm_bits == pytest.approx(row.lower_bound_bits)
        assert "ring6" in render_rows(LowerBoundRow, rows)

    def test_exp_conflict_bound_matches_closed_form(self):
        result = exp_conflict_bound(max_updates=2)
        assert result.bits == pytest.approx(result.closed_form_bits)

    def test_exp_compression_and_render(self):
        result = exp_compression()
        assert result["clique4"] == (48, 16)
        assert "clique4" in render_compression(result)

    def test_exp_ring_breaking_and_render(self):
        rows = exp_ring_breaking(sizes=(4, 5))
        assert rows[0]["counters before"] == 32
        assert "ring size" in render_ring_breaking(rows)

    def test_oblivious_factory_drops_requested_edges_only(self):
        graph = ShareGraph.from_placement(figure5_placement())
        factory = oblivious_factory({1: frozenset({(4, 3)})})
        replica1 = factory(graph, 1)
        replica2 = factory(graph, 2)
        assert (4, 3) not in replica1.timestamp_graph.edges
        assert replica1.timestamp_graph.edges == timestamp_edges(graph, 1) - {(4, 3)}
        assert replica2.timestamp_graph.edges == timestamp_edges(graph, 2)


GOLDEN = Path(__file__).resolve().parent / "golden"

#: Each row type rendered by ``render_rows`` and the golden E-table it fills.
ROW_TABLES = {
    ComparisonRow: "e07_metadata_overhead",
    LowerBoundRow: "e06_lower_bounds",
    DummyTradeoffRow: "e09_dummy_registers",
    OpenLoopRow: "e14_open_loop",
    FaultToleranceRow: "e15_fault_tolerance",
    WireOverheadRow: "e16_wire",
    ReconfigurationRow: "e17_reconfiguration",
    ObservabilityRow: "e19_observability",
    PlacementRow: "e21_placement",
    AdaptiveRow: "e22_adaptive",
}


def _cells(line: str):
    """The cells of one fixed-width table line (cells hold single spaces)."""
    return re.split(r"\s{2,}", line.strip())


def _golden_table(name: str):
    """The header cells and the row lines of a golden file's one table."""
    lines = (GOLDEN / f"{name}.txt").read_text().splitlines()
    rule = next(i for i, line in enumerate(lines) if set(line) == {"-", " "})
    return _cells(lines[rule - 1]), lines[rule + 1:]


class TestRenderRows:
    @pytest.mark.parametrize("row_type", list(ROW_TABLES), ids=lambda t: t.__name__)
    def test_empty_sweep_renders_its_header_and_rule(self, row_type):
        headers, _ = _golden_table(ROW_TABLES[row_type])
        assert render_rows(row_type, []).splitlines() == [
            "  ".join(headers),
            "  ".join("-" * len(header) for header in headers),
        ]

    def test_property_columns_render_as_the_golden_shows_them(self):
        # The E16 cell "clique4 / full replication (vector) / 8/4": its
        # ``delta saved`` (a percentage) and ``ts B/msg`` are properties.
        row = WireOverheadRow(
            topology="clique4", protocol="full replication (vector)", window="8/4",
            messages=144, batches=46, header_bytes=1238, timestamp_bytes=918,
            payload_bytes=702, timestamp_bytes_full=1584, counters_sent=576,
            bytes_per_counter=918 / 576, bound_bytes_per_message=2.0, consistent=True,
        )
        _, golden_rows = _golden_table("e16_wire")
        rendered = _cells(render_rows(WireOverheadRow, [row]).splitlines()[2])
        assert rendered in [_cells(line) for line in golden_rows]
        assert rendered[9] == "42%" and rendered[13] == "6.4"

    def test_boolean_columns_render_their_words(self):
        row = AdaptiveRow(
            policy="adaptive", adaptive=True, reconfigs=34, plans=15,
            compressed=True, messages=802, ts_bytes_per_msg=7.2,
            apply_p99=2.37, apply_mean=1.46, consistent=True,
        )
        _, golden_rows = _golden_table("e22_adaptive")
        assert _cells(render_rows(AdaptiveRow, [row]).splitlines()[2]) == _cells(golden_rows[-1])
        static = AdaptiveRow(
            policy="random", adaptive=False, reconfigs=0, plans=0, compressed=False,
            messages=1, ts_bytes_per_msg=1.0, apply_p99=1.0, apply_mean=1.0,
            consistent=False,
        )
        cells = _cells(render_rows(AdaptiveRow, [static]).splitlines()[2])
        assert (cells[1], cells[4], cells[-1]) == ("no", "no", "NO")
