"""Count the code lines of Python sources, per file and in total.

A code line is a physical line that holds at least one token other than a
comment, outside docstrings. Blank lines, comment-only lines and the lines of
a module, class or function docstring do not count; the lines a multi-line
string spans count when that string is not a docstring.

Usage: python3 tools/code_lines.py [PATH]   (PATH: a file or a directory,
default src/gravidec; directories are searched for *.py recursively)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that hold no code of their own.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    source = path.read_bytes()
    skip = _docstring_lines(ast.parse(source, filename=str(path)))
    lines: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/gravidec")
    files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
    total = 0
    for path in files:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
