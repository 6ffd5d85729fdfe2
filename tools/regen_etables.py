#!/usr/bin/env python3
"""Rewrite the golden E-tables under ``tests/golden/``.

Renders every table of ``benchmarks/etables.py`` at the CI smoke size and
writes it to ``tests/golden/<name>.txt``, which
``tests/test_etables_golden.py`` compares byte for byte.  Run it after a
change that is meant to move a table, and say in the change why it moved::

    python tools/regen_etables.py            # every table
    python tools/regen_etables.py e16_wire   # named ones
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from etables import TABLES  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="tables to rewrite (default: all)")
    names = parser.parse_args(argv).names or list(TABLES)
    unknown = sorted(set(names) - set(TABLES))
    if unknown:
        parser.error(f"no such table: {', '.join(unknown)}; known: {', '.join(TABLES)}")
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in names:
        path = GOLDEN / f"{name}.txt"
        text = TABLES[name]()
        changed = not path.exists() or path.read_text(encoding="utf-8") != text
        path.write_text(text, encoding="utf-8")
        print(f"{'rewrote' if changed else 'unchanged'} {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
