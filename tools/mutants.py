"""Run Tier-1 against each recorded mutant of the package, in a copy of the tree.

Usage: python3 tools/mutants.py [--tests NODE]... [NAME ...]
(default: every row of MUTANTS against the whole suite)

Each row of ``MUTANTS`` names a file, the exact text that the mutant
replaces (it must occur once), the new text, and why the mutant matters.
For each row the script copies ``src/``, ``tests/`` and ``tools/``, with the
``README.md``, ``pyproject.toml`` and ``perfbench/`` that the tests read, to
a temporary directory, applies the edit there and runs
``python -m pytest -q -x`` in it, on the given test files or node ids if
``--tests`` names any. It prints one line per row: ``killed`` with the first
failing test and its message, or ``survived``. The working tree is never
edited. Exit status: 0 when every row is killed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

#: What the copy holds: the code, and every file the tests read.
COPIED = ("src", "tests", "tools", "perfbench", "README.md", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    why: str


MUTANTS = [
    Mutant("se_mc x 0.5", "src/gravidec/oracles.py",
           "replace(cases[index], v_mc=v_mc, se_mc=se_mc,",
           "replace(cases[index], v_mc=v_mc, se_mc=0.5 * se_mc,",
           "an oracle that understates its error passes a biased estimate; "
           "the standard preset's sum z^2 check must trip"),
    Mutant("se_mc x 1.5", "src/gravidec/oracles.py",
           "replace(cases[index], v_mc=v_mc, se_mc=se_mc,",
           "replace(cases[index], v_mc=v_mc, se_mc=1.5 * se_mc,",
           "an oracle that overstates its error widens its own gate; "
           "the se_mc <= plain-sample se check must trip"),
    Mutant("left-Riemann emission sum", "src/gravidec/emission.py",
           "total = float(0.5 * np.sum((f[1:] + f[:-1]) * np.diff(k)))",
           "total = float(np.sum(f[:-1] * np.diff(k)))",
           "a first-order quadrature converges to the same rate; only an order test sees it"),
    Mutant("Lie splitting", "src/gravidec/master_equation.py",
           "_kinetic(state[:, :m], half if step == 0 else full, state)",
           "_kinetic(state[:, :m], full, state)",
           "a full kinetic step first makes Strang first order in dt"),
    Mutant("RK4 weight 1/3 on k1", "src/gravidec/master_equation.py",
           "(rho + (dt / 6.0) * k1)",
           "(rho + (dt / 3.0) * k1)",
           "a wrong stage weight makes Lawson RK4 first order in dt"),
    Mutant("energy variance x (1 + 1e-9)", "src/gravidec/internal_state.py",
           "return float(np.sum(np.where(nbar > 0, terms, 0.0)))",
           "return float(np.sum(np.where(nbar > 0, terms, 0.0))) * (1.0 + 1e-9)",
           "moments near 1e-42 J^2 hide under an absolute tolerance; the checks must be relative"),
    Mutant("one-sided trapezoid end", "src/gravidec/proper_time.py",
           "np.add(f[1:], f[:-1], out=out)",
           "np.add(f[:-1], f[:-1], out=out)",
           "the left end doubled is the left-Riemann sum: first order in the step"),
    Mutant("MC nbar/2", "src/gravidec/oracles.py",
           "np.array([q / (1.0 - q) for q in qs])",
           "np.array([0.5 * q / (1.0 - q) for q in qs])",
           "a mis-scaled |alpha|^2 draw samples a colder state; the MC window must trip"),
    Mutant("MC bias x 1.002", "src/gravidec/oracles.py",
           "mean = complex(np.sum(sums)) / n_main",
           "mean = 1.002 * complex(np.sum(sums)) / n_main",
           "a 0.2% bias is several standard errors at 1e6 samples; the MC window must trip"),
    Mutant("Fock bound halved", "src/gravidec/oracles.py",
           "return math.exp(log_v), 2.0 * tail",
           "return math.exp(log_v), tail",
           "the discarded mass alone is no bound on the error; the standard battery's "
           "Fock-bound check must trip"),
]


def run(mutant: Mutant, tests: list[str]) -> str:
    """Apply one mutant to a fresh copy and report what the tests make of it."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(ROOT / name, copy / name)
        target = copy / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"not applied: its old text occurs {text.count(mutant.old)} times"
        target.write_text(text.replace(mutant.old, mutant.new))
        # COLUMNS: wide enough that pytest keeps the failure's message on its summary line
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *tests], cwd=copy,
                              env=dict(os.environ, PYTHONPATH=str(copy / "src"), COLUMNS="160"),
                              capture_output=True, text=True)
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    if failed:
        return "killed: " + failed[0]
    return "survived" if proc.returncode == 0 else f"killed: pytest exit {proc.returncode}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tests", action="append", default=[], metavar="NODE",
                        help="a test file or node id to run, repeatable (default: the whole suite)")
    parser.add_argument("names", nargs="*", metavar="NAME", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(sorted(unknown))}")
    survivors = 0
    for mutant in MUTANTS:
        if args.names and mutant.name not in args.names:
            continue
        verdict = run(mutant, args.tests)
        survivors += not verdict.startswith("killed")
        print(f"{mutant.name}: {verdict}", flush=True)
    return int(survivors > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
