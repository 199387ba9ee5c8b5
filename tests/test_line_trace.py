"""The table of tools/line_trace.py cannot rot: each row names source that exists, once."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_each_listed_row_names_source_text_once_in_its_file(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    tool = importlib.import_module("line_trace")
    for name, text, cls in tool.LISTED:
        source = (tool.PACKAGE / name).read_text()
        assert source.count(text) == 1, f"{name}: {text!r} occurs {source.count(text)} times"
        assert isinstance(tool.row_span(ast.parse(source), source, text), tuple), (name, text)
        assert cls in tool.CLASSES, (name, text, cls)
