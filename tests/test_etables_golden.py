"""Golden E-tables: every simulator-backed experiment table, byte for byte.

Renders each table of ``benchmarks/etables.py`` at the CI smoke size
(the ``REPRO_BENCH_TINY=1`` parameters, kept there once) and compares it
with ``tests/golden/<name>.txt``.  The tables come from seeded simulator
runs, so any moved cell is a behaviour change: a mismatch fails with a
unified diff naming it.  This test never writes the files; after a change
that is meant to move a table, rewrite them with
``python tools/regen_etables.py`` and say why they moved.
"""

from __future__ import annotations

import difflib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def _etables():
    spec = importlib.util.spec_from_file_location(
        "etables", ROOT / "benchmarks" / "etables.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TABLES = _etables().TABLES


def test_every_table_has_a_golden_file_and_nothing_else_does():
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == sorted(TABLES)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_matches_its_golden_file(name):
    path = GOLDEN / f"{name}.txt"
    expected = path.read_text(encoding="utf-8")
    actual = TABLES[name]()
    if actual != expected:
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True), actual.splitlines(keepends=True),
            fromfile=f"tests/golden/{name}.txt", tofile=f"{name} (this run)",
        ))
        pytest.fail(f"E-table {name} moved:\n{diff}", pytrace=False)
