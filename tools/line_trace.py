"""Trace which statements and ``if`` sides of ``src/gravidec`` the project's traffic runs.

Usage: python3 tools/line_trace.py [--tests] [--check]

The traffic is what the program is for, run in this process under
``sys.settrace``, from an empty temporary directory:

* each ```python block of README.md, in its own namespace;
* each ``gravidec ...`` example of README.md's ``sh`` blocks, through
  ``gravidec.cli.main``;
* one in-process pass of each workload in ``perfbench/workloads.py``: every
  operation of ``build(SEED, True)`` runs, and its check judges it.

``--tests`` adds a second traced pass, Tier-1 through ``pytest.main``, and
splits what the traffic misses into what only Tier-1 reaches and what
nothing reaches.

A statement is reached when a line event falls on one of its own lines: a
simple statement's lines, or a compound statement's header (an ``if``'s
test, a ``for``'s target and iterable, a ``def``'s signature). Statements
with no bytecode of their own, such as docstrings, are not counted. The true side of
an ``if`` is reached when a line event passes from its test into its first
body statement; the false side, when it passes into its first ``else``
statement (an ``elif`` included), or, with no ``else``, anywhere else, the
frame's return included. A line reached by an exception is not counted as
an ``if`` side.

Every statement and ``if`` side that the traffic misses is deleted from
``src/`` or accounted for, in one of two ways:

* a refusal block, found without a row: the body of an ``if``, ``else`` or
  ``except`` whose last statement raises one of ``REFUSALS``. The block,
  and the ``if`` side that enters it, are class "refusal".
* one row of ``LISTED``: (file, text, class). The text occurs exactly once
  in the file; the row covers the statement or ``except`` clause that
  begins on the text's line (the outermost one), or else the innermost
  statement that holds it, and everything inside: a true side when the
  first body statement is covered, a false side when the first ``else``
  statement is, or, with no ``else``, when the ``if`` itself or the
  statement after it is.

The report gives, per file, each statement and ``if`` side that the traffic
misses, with its class or ``UNLISTED``, then the totals. ``--check`` exits 1
when anything the traffic misses is unlisted; when a row's text does not
occur exactly once, its class is not one of ``CLASSES``, or it covers nothing
the traffic misses; when a traffic check or Tier-1 fails; and, with
``--tests``, when anything nothing reaches has a class outside
``UNREACHABLE``: every refusal and every listed path is reached by a Tier-1
test, except what no traced in-process run can reach.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import re
import shlex
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from same_bytes import readme_examples  # the script's own directory is on sys.path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gravidec"

#: Errors whose raise ends a refusal block.
REFUSALS = ("ConfigError", "DomainError", "NumericalInstabilityError")

#: Why a statement or ``if`` side that the traffic misses is kept.
CLASSES = {
    "refusal": "refuses an input outside the domain, or maps a refusal to its exit code",
    "documented flag": "a path that a flag, value or input table the README documents selects",
    "library input": "a path that a public function takes for an input the CLI never gives, "
                     "or a degenerate one the README and the benchmark never give (T = 0)",
    "float64 edge": "a path taken only where a value leaves float64's range",
    "platform": "a path that depends on the host",
    "entry point": "runs only when the package is run as a command",
    "named by perfbench": "a public name that perfbench/ binds by name; it goes when that does",
}

#: The seed of the benchmark workloads the traffic runs; one, so that a tree
#: has one verdict.
SEED = 1

#: Classes whose rows may cover what no traced in-process run reaches.
UNREACHABLE = ("platform", "entry point")

#: (file in src/gravidec, text that occurs once in it, class).
LISTED: tuple[tuple[str, str, str], ...] = (
    ("__init__.py", "if name not in __all__:", "library input"),
    ("_tables.py", "def read_table(", "documented flag"),
    ("_tables.py", "def linear_interpolant(", "documented flag"),
    ("cli.py", "def _load_config(", "documented flag"),
    ("cli.py", "def _check_config_value(", "documented flag"),
    ("cli.py", "if isinstance(value, float) and math.isinf(value):", "float64 edge"),
    ("cli.py", "def _long_flags(", "refusal"),
    ("cli.py", 'if params["frequencies_csv"] is not None:', "documented flag"),
    ("cli.py", 'temperature = params["temperature"]', "documented flag"),
    ("cli.py", 'if law == "exact-product":', "documented flag"),
    ("cli.py", 'if lam is None or ham_kind == "free_plus_linear":', "documented flag"),
    ("cli.py", "if lam is None:", "documented flag"),
    ("cli.py", 'if params["snapshots"]:', "documented flag"),
    ("cli.py", 'if params["emission_csv"]:', "documented flag"),
    ("cli.py", 'if kind == "radius":', "documented flag"),
    ("cli.py", 'if params["trajectories"]:', "documented flag"),
    ("cli.py", 'if kind == "homogeneous":', "documented flag"),
    ("cli.py", "if has_state:", "documented flag"),
    ("cli.py", "if verbose:", "documented flag"),
    ("cli.py", "if issubclass(w.category, UserWarning):", "float64 edge"),
    ("cli.py", "return None", "refusal"),
    ("cli.py", 'joined[-1] += "=" + token', "documented flag"),
    ("cli.py", "except BrokenPipeError:", "platform"),
    ("cli.py", "except ConfigError as exc:", "refusal"),
    ("cli.py", "except OSError as exc:", "refusal"),
    ("cli.py", "except DomainError as exc:\n        print", "refusal"),
    ("cli.py", "except NumericalInstabilityError as exc:", "refusal"),
    ("cli.py", "def console(", "entry point"),
    ("cli.py", 'if __name__ == "__main__":', "entry point"),
    ("constants.py", "except OverflowError:", "float64 edge"),
    ("emission.py", "def tabulated_emission_model(", "documented flag"),
    ("emission.py", "def emission_model_from_csv(", "documented flag"),
    ("emission.py", 'if axis1_kind == "radius":', "documented flag"),
    ("emission.py", "if sigma0 == 0:", "documented flag"),
    ("emission.py", "if integral == 0.0:", "library input"),
    ("internal_state.py", "def from_frequency_csv(", "documented flag"),
    ("internal_state.py", "def thermal_occupation(", "named by perfbench"),
    ("internal_state.py", "if temperature > 0:", "library input"),
    ("internal_state.py", "if log_theta is not None:", "float64 edge"),
    ("master_equation.py", 'if ham.kind == "free_plus_linear":\n        h = h', "documented flag"),
    ("master_equation.py", 'if ham.kind == "free_plus_linear":\n        exponent.imag',
     "documented flag"),
    ("oracles.py", "def mc_visibility(", "named by perfbench"),
    ("oracles.py", "if temperature == 0.0:", "library input"),
    ("oracles.py", 'skipped.append(f"mc: {exc}")', "documented flag"),
    ("proper_time.py", "class TabulatedPotential:", "documented flag"),
    ("proper_time.py", 'def from_csv(cls, path: str) -> "TrajectoryPair":', "documented flag"),
    ("timescales.py", "if self.radius < 10.0 * r_s:", "documented flag"),
    ("timescales.py", "def _quotient(", "library input"),
    ("timescales.py", "g = g / sw.radius / sw.radius", "float64 edge"),
    ("timescales.py", "if numerator == 0.0:", "float64 edge"),
    ("timescales.py", "return numerator / (8.0 * math.pi) /", "float64 edge"),
    ("visibility.py", "if np.any(np.isinf(theta)):", "float64 edge"),
)


# ------------------------------------------------------------------ tracing

@dataclass
class Hits:
    """Line events and line-to-line arcs of one traced pass, by file.

    An arc ends at line 0 when the frame returns.
    """

    lines: defaultdict
    arcs: defaultdict

    @classmethod
    def empty(cls) -> "Hits":
        return cls(defaultdict(set), defaultdict(set))


@contextlib.contextmanager
def traced(hits: Hits):
    """Record hits in the package's files."""
    prefix = str(PACKAGE) + os.sep

    def call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        lines, arcs = hits.lines[path], hits.arcs[path]
        last = 0

        def local(frame, event, arg):
            nonlocal last
            if event == "line":
                lines.add(frame.f_lineno)
                if last is not None:
                    arcs.add((last, frame.f_lineno))
                last = frame.f_lineno
            elif event == "return" and last is not None:
                arcs.add((last, 0))
            elif event == "exception":
                last = None
            return local

        return local

    sys.settrace(call)
    try:
        yield
    finally:
        sys.settrace(None)


def trace_traffic() -> tuple[Hits, list[str]]:
    """Hits of the traffic, and each failure it met, run in an empty temporary directory."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    hits, failures, home = Hits.empty(), [], os.getcwd()
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    with tempfile.TemporaryDirectory(prefix="line-trace-") as work, traced(hits), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        os.chdir(work)
        try:
            import gravidec.cli
            import workloads

            for block in blocks:
                exec(compile(block, "README.md", "exec"), {})
            for args in readme_examples(ROOT / "README.md"):
                code = gravidec.cli.main(args)
                if code != 0:
                    failures.append(f"gravidec {shlex.join(args)} exited {code}")
            for name, workload in workloads.WORKLOADS.items():
                for k, op in enumerate(workload.build(SEED, True)):
                    path = os.path.join(work, f"{name}-{k}.out")
                    failures += [f"{name} {op.name}: {bad}" for bad in op.check(op.run(path), path)]
        finally:
            os.chdir(home)
    return hits, failures


def trace_tests() -> tuple[Hits, list[str]]:
    """Hits of Tier-1, and its failures and summary line if it failed."""
    import pytest

    hits, home, out = Hits.empty(), os.getcwd(), io.StringIO()
    os.chdir(ROOT)
    try:
        with traced(hits), contextlib.redirect_stdout(out):
            code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        os.chdir(home)
    lines = out.getvalue().splitlines()
    return hits, [] if code == 0 else [f"Tier-1: {line}" for line in lines
                                       if line.startswith(("FAILED", "ERROR"))] + lines[-1:]


# ------------------------------------------------------------------ source model

@dataclass(frozen=True)
class Item:
    """A statement or an ``if`` side.

    A span covers the item when it holds one of its ``anchors``: a
    statement's first line, the first statement a side enters, or, for a
    false side with no ``else``, its ``if`` and the statement after it.
    """

    line: int
    kind: str  # "statement", "true side" or "false side"
    anchors: tuple
    own: frozenset = frozenset()  # a statement's executable lines
    test: frozenset = frozenset()  # an if side's test lines
    into: tuple = ()  # the (first, last) lines the side enters, or () for any outside body
    body: tuple = ()  # a false side with no else: the (first, last) lines it does not enter

    def reached(self, lines: set, arcs: set) -> bool:
        if self.kind == "statement":
            return not self.own.isdisjoint(lines)
        for src, dst in arcs:
            if src not in self.test or dst in self.test:
                continue
            if self.into and self.into[0] <= dst <= self.into[1]:
                return True
            if not self.into and not self.body[0] <= dst <= self.body[1]:
                return True
        return False


def _executable_lines(source: str, path: str) -> set[int]:
    found, todo = set(), [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        found.update(line for _, _, line in code.co_lines() if line is not None)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return found


def _is_docstring(node: ast.AST, parent: ast.AST) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def _following(parent: ast.AST, node: ast.stmt) -> ast.stmt | None:
    """The statement after ``node`` in its block, or None."""
    for block in (getattr(parent, field, None) for field in ("body", "orelse", "finalbody")):
        if isinstance(block, list) and node in block:  # AST nodes compare by identity
            rest = block[block.index(node) + 1:]
            return rest[0] if rest else None
    return None


def source_items(tree: ast.Module, executable: set[int]) -> list[Item]:
    """The counted statements and ``if`` sides of one file."""
    items = []
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.stmt) or _is_docstring(node, parent):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            if isinstance(node, ast.If):
                last = node.test.end_lineno
            elif getattr(node, "body", None):
                last = max(node.body[0].lineno - 1, node.lineno)
            else:
                last = node.end_lineno
            own = frozenset(range(first, last + 1)) & executable
            if own:
                items.append(Item(first, "statement", (first,), own=own))
            if isinstance(node, ast.If):
                test = frozenset(range(node.lineno, last + 1))
                items.append(Item(node.lineno, "true side", (node.body[0].lineno,), test=test,
                                  into=(node.body[0].lineno, node.body[0].end_lineno)))
                if node.orelse:
                    items.append(Item(node.lineno, "false side", (node.orelse[0].lineno,),
                                      test=test,
                                      into=(node.orelse[0].lineno, node.orelse[0].end_lineno)))
                else:
                    after = _following(parent, node)
                    items.append(Item(node.lineno, "false side",
                                      (node.lineno,) + ((after.lineno,) if after else ()),
                                      test=test,
                                      body=(node.body[0].lineno, node.body[0].end_lineno)))
    return sorted(items, key=lambda item: (item.line, item.kind))


def refusal_blocks(tree: ast.Module) -> list[tuple[int, int]]:
    """Spans of the ``if``, ``else`` and ``except`` bodies that end in a refusal."""
    blocks = []
    for node in ast.walk(tree):
        if isinstance(node, ast.If):
            bodies = [node.body, node.orelse]
        elif isinstance(node, ast.ExceptHandler):
            bodies = [node.body]
        else:
            continue
        for body in bodies:
            end = body[-1] if body else None
            if isinstance(end, ast.Raise) and isinstance(end.exc, ast.Call) \
                    and getattr(end.exc.func, "id", None) in REFUSALS:
                blocks.append((body[0].lineno, end.end_lineno))
    return blocks


def row_span(tree: ast.Module, source: str, text: str) -> tuple[int, int] | str:
    """The (first, last) lines a row covers, or why it covers none."""
    if source.count(text) != 1:
        return f"occurs {source.count(text)} times"
    line = source[:source.index(text)].count("\n") + 1
    nodes = [n for n in ast.walk(tree) if isinstance(n, (ast.stmt, ast.ExceptHandler))]
    starting = [n for n in nodes if n.lineno == line]
    holding = [n for n in nodes if n.lineno <= line <= n.end_lineno]
    if starting:
        node = max(starting, key=lambda n: n.end_lineno)
    elif holding:
        node = min(holding, key=lambda n: n.end_lineno - n.lineno)
    else:
        return "lies outside every statement"
    return node.lineno, node.end_lineno


# ------------------------------------------------------------------ report

def report(traffic: Hits, tests: Hits | None) -> int:
    """Print what the traffic misses, file by file, and the totals; return the problems."""
    problems, totals, sides_taken = 0, Counter(), Counter()
    rows = defaultdict(list)
    for name, text, cls in LISTED:
        rows[name].append((text, cls))
    for path in sorted(PACKAGE.glob("*.py")):
        key, source = str(path), path.read_text()
        tree, text_lines = ast.parse(source), source.splitlines()
        spans, out = [(span, None, "refusal") for span in refusal_blocks(tree)], []
        for text, cls in rows.pop(path.name, []):
            span = row_span(tree, source, text)
            if isinstance(span, str) or cls not in CLASSES:
                out.append(f"row {text!r} " + (span if isinstance(span, str) else f"has class {cls!r}"))
                problems += 1
            else:
                spans.append((span, text, cls))
        used = set()
        for item in source_items(tree, _executable_lines(source, key)):
            totals[item.kind] += 1
            reached = item.reached(traffic.lines[key], traffic.arcs[key])
            if item.kind != "statement":
                sides_taken[key, item.line] += reached
            if reached:
                continue
            by_tests = tests is not None and item.reached(tests.lines[key], tests.arcs[key])
            covering = [(text, cls) for (lo, hi), text, cls in spans
                        if any(lo <= anchor <= hi for anchor in item.anchors)]
            used.update(text for text, _ in covering)
            tag = covering[0][1] if covering else "UNLISTED"
            totals[item.kind, "missed"] += 1
            totals[item.kind, by_tests] += 1
            if not covering or tests is not None and not by_tests and tag not in UNREACHABLE:
                problems += 1
                tag += ", a problem"
            reach = "" if tests is None else ("Tier-1  " if by_tests else "nothing ")
            out.append(f"{item.line:5d} {item.kind:10s} {reach}[{tag}]  "
                       f"{text_lines[item.line - 1].strip()[:64]}")
        for _, text, cls in spans:
            if text is not None and text not in used:
                out.append(f"row {text!r} ({cls}) covers nothing the traffic misses")
                problems += 1
        if out:
            print(f"{path.relative_to(ROOT)}:\n" + "\n".join("  " + line for line in out))
    for name, stale in rows.items():
        print(f"{len(stale)} rows name {name}, which is not a file of the package")
        problems += len(stale)
    taken = Counter(sides_taken.values())
    print(f"{totals['statement']} statements and {totals['true side']} ifs in src/gravidec; "
          f"the traffic takes one side only of {taken[1]} ifs and neither side of {taken[0]}")
    for kind in ("statement", "true side", "false side"):
        print(f"{kind}s the traffic misses: {totals[kind, 'missed']}" + (
            "" if tests is None else f", {totals[kind, True]} only Tier-1 reaches, "
            f"{totals[kind, False]} nothing reaches"))
    print(f"{len(LISTED)} listed rows")
    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tests", action="store_true", help="also trace Tier-1")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on anything unlisted, a bad row, or a failing run")
    args = parser.parse_args(argv)
    traffic, failures = trace_traffic()
    tests = None
    if args.tests:
        tests, failed = trace_tests()
        failures += failed
    problems = report(traffic, tests) + len(failures)
    for failure in failures:
        print(f"failed: {failure}")
    print(f"{problems} problems")
    return int(args.check and problems > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
