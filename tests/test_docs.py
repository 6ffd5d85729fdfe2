"""The glossary's code snippets run as doctests against the real library,
so the page cannot drift from the code it explains."""

from __future__ import annotations

import doctest
from pathlib import Path

GLOSSARY = Path(__file__).resolve().parents[1] / "docs" / "GLOSSARY.md"


def test_glossary_snippets_pass_as_doctests():
    result = doctest.testfile(str(GLOSSARY), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0, f"{result.failed} glossary doctest(s) failed"
