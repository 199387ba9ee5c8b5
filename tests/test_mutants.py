"""The rows of tools/mutants.py cannot rot: each names text that occurs once in its file."""

from __future__ import annotations

import importlib
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_each_mutant_names_source_text_once_in_its_file(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    tool = importlib.import_module("mutants")
    assert len({mutant.name for mutant in tool.MUTANTS}) == len(tool.MUTANTS)
    for mutant in tool.MUTANTS:
        source = (tool.ROOT / mutant.path).read_text()
        assert source.count(mutant.old) == 1, f"{mutant.name}: {mutant.old!r}"
        assert mutant.new != mutant.old and mutant.why, mutant.name
