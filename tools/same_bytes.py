"""Check that a revision and the working tree give the same bytes.

Usage: python3 tools/same_bytes.py REV

REV is exported with ``git archive`` into a temporary directory. One
fixed list of CLI invocations then runs on that tree and on the working tree,
each as ``python -m gravidec.cli`` in a fresh empty directory, with
``OPENBLAS_NUM_THREADS=1`` and that tree's ``src`` alone on ``PYTHONPATH``.
The list is:

* every ``gravidec ...`` example in the working tree's README (the files they
  write, such as ``curve.csv``, included);
* ``oracle-check --preset standard`` at ``--mc-seed 0`` and ``7``, with its
  JSON report written to a file, and ``oracle-check --seed 137 --cases 8
  --samples 200001``: 18 sets, one skipped by Monte Carlo, each of four
  shards with a short last one; and ``oracle-check --cases 1 --samples 64``,
  whose one case draws fewer main samples than its pilot;
* ``evolve`` in both forms, for every Hamiltonian kind, at 2 and 64 grid
  points, and with the tilt at 256 (the benchmark's largest Strang grid),
  with snapshots: its CSV prints every coherence with ``repr``, so equal
  files mean equal coherence bits, and the snapshot file is raw bytes;
* two runs the CLI refuses because a given flag goes unread: ``evolve`` at 64
  grid points with ``--store-every`` but no ``--snapshots``, and ``tau`` with
  ``--g`` beside ``--central-mass`` inside 10 R_s, whose discarded timescale
  warns;
* runs refused for a value out of range: ``oracle-check`` with a negative
  ``--seed`` or ``--mc-seed``, or ``--atol -1``, and
  ``evolve`` with more time steps than ``EvolutionConfig`` allows;
* every output mode of the one writer: ``--format json`` on ``visibility``,
  ``evolve`` and ``regime``, ``--format csv`` on ``tau`` and ``propertime``,
  ``oracle-check --verbose``, ``oracle-check --format json`` to stdout and
  ``oracle-check --format csv`` (refused), and an ``--output`` (JSON, and CSV
  beside ``--snapshots``) inside a missing directory;
* runs at the edge of float64: ``visibility --dtau 1e300`` over the modes of
  ``modes.csv`` (w dtau overflows), ``tau`` with a timescale past float64's
  range and with one that is inf / inf (N = 1e-320), ``tau`` near a mass
  where 8 pi k_B G M underflows to 0 (``--hawking``), where R^2 overflows and
  where it underflows to 0, ``evolve`` on a grid
  whose squared span overflows, ``evolve`` in both forms and for every
  Hamiltonian kind where lambda (x_i - x_j)^2 t dt overflows inside a step,
  ``propertime`` whose integral overflows (alone and with ``modes.csv``), and
  ``visibility`` curves whose dtau, theta or t / tau_dec overflow (the
  exact-product, high-T and Gaussian laws), the high-T law at N = 0 where
  theta overflows and at N = 1 where only theta^2 does, and the Gaussian law
  where tau_dec underflows to 0; and ``regime`` where dx^2 overflows, with
  and without emission, and where r^3, a temperature's blackbody
  wavenumbers, the power-law cross-section or the emission integrand leave
  float64's range, the last two also at ``--sigma0 0``, where a zero
  cross-section leaves no emission (tau_em = inf); ``regime`` at ``--alpha
  -4`` and ``-5``, where the stand-in's emission integral diverges in the
  infrared (refused); and a power of a Python float past float64's range,
  through a ``"constants"`` file: c^2 in ``tau``
  and in ``visibility`` at c = 1e200, c^3 in the README's ``tau --hawking``
  at c = 1e120, (hbar c^2)^2 in ``evolve`` at hbar = 1e150, and (k_B T)^2 in
  ``evolve --T 1e200``; and ``"constants"`` whose powers underflow to 0: c^2
  in the README's ``tau --hawking`` and in ``visibility`` at c = 1e-200, and
  (hbar c^2)^2 in ``evolve --N --T`` at hbar = 1e-300;
* the routes that hbar = 1e-300 leaves open or closes one by one: the
  README's ``tau --hawking``, ``visibility --law high-T``, ``visibility
  --law exact-product`` over ``modes.csv`` (4 nbar (nbar + 1) overflows) and
  ``evolve --lambda-coefficient``; and ``evolve --form full_memory`` with
  free flight at hbar = 1e150, whose kinetic energy overflows on the grid;
* a frequency table one mode past ``DEFAULT_MODE_LIMIT`` on each route to
  the mode product: ``visibility --law exact-product``, ``visibility
  --dtau`` and ``propertime`` with a state; and a table of modes at 1e-150
  and 1e-200 rad/s, whose 4 nbar (nbar + 1) overflows at 300 K, on the same
  three routes;
* ``tau`` at ``--T -0`` and at ``--N -0``, signed zeros that mean no
  decoherence (tau_dec = inf);
* ``evolve --x1 -1e-3``, a negative flag value in scientific notation;
* ``--help`` of the program and of every subcommand.

Every invocation starts in a directory that holds only the ``INPUTS`` it
names: a three-mode frequency table, one of 10^6 + 1 modes, one of two
modes near 0 rad/s, and five ``"constants"`` files; these inputs are not
compared.

For each invocation the exit codes, stdout, stderr and every file written are
compared, and one line is printed: ``identical``, or ``DIFFERS`` with the
first output that differs and each of its changed runs of lines (``-`` REV,
``+`` working tree). A ``DIFFERS`` line is followed by one line per differing
output that parses alike on both trees: the largest absolute difference in
each numeric column of a CSV, in each JSON number (list indices folded into
``[]``), or in the times and entries of a snapshot file. Each tree's own path
is replaced by ``<tree>`` in stdout and stderr, so a source path in a warning
or traceback does not count as a difference. The exported tree is removed at
the end. Exit status: 0 when every invocation is identical, 1 otherwise.
"""

from __future__ import annotations

import difflib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

SUBCOMMANDS = ("tau", "visibility", "evolve", "regime", "propertime", "oracle-check")

#: Input tables written into each invocation's directory before it runs.
INPUTS = {"modes.csv": "# rad/s\n1e13\n2e13\n5e13\n",
          "many-modes.csv": "1e13\n" * (10**6 + 1),
          "tiny-modes.csv": "# rad/s\n1e-150\n1e-200\n",
          "c200.json": '{"constants": {"c": 1e200}}\n',
          "c120.json": '{"constants": {"c": 1e120}}\n',
          "hbar150.json": '{"constants": {"hbar": 1e150}}\n',
          "c-200.json": '{"constants": {"c": 1e-200}}\n',
          "hbar-300.json": '{"constants": {"hbar": 1e-300}}\n'}


def readme_examples(readme: Path) -> list[list[str]]:
    """The ``gravidec`` command lines of the README's ``sh`` blocks, continuations joined."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme.read_text(), flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words[:1] == ["gravidec"]:
                commands.append(words[1:])
    return commands


def invocations() -> list[list[str]]:
    runs = readme_examples(ROOT / "README.md")
    runs += [["oracle-check", "--preset", "standard", "--mc-seed", seed, "--output", "report.json"]
             for seed in ("0", "7")]
    runs.append(["oracle-check", "--seed", "137", "--cases", "8", "--samples", "200001",
                 "--output", "report.json"])
    runs.append(["oracle-check", "--cases", "1", "--samples", "64"])
    for form in ("markovian", "full_memory"):
        for kind in ("none", "free", "free_plus_linear"):
            for m in ("2", "64", "256")[:3 if kind == "free_plus_linear" else 2]:
                mass = [] if kind == "none" else ["--mass", "1e-25"]
                runs.append(["evolve", "--form", form, "--hamiltonian", kind, *mass,
                             "--x1", "0", "--x2", "1e-6", "--n-points", m,
                             "--lambda-coefficient", "2e24", "--dt", "1e-8", "--t-final", "1e-6",
                             "--store-every", "10", "--snapshots", "run.snap",
                             "--output", "evolve.csv"])
    runs.append(["evolve", "--x1", "0", "--x2", "1e-6", "--n-points", "64",
                 "--lambda-coefficient", "2e24", "--dt", "1e-8", "--t-final", "1e-6",
                 "--store-every", "10", "--output", "evolve.csv"])
    runs.append(["tau", "--N", "1e23", "--dx", "1e-9", "--central-mass", "9.945e30",
                 "--radius", "1.5e4", "--T", "300", "--g", "3"])
    runs += [["oracle-check", "--cases", "1", "--samples", "64", flag, value,
              "--output", "report.json"]
             for flag, value in (("--seed", "-1"), ("--mc-seed", "-5"), ("--atol", "-1"))]
    runs.append(["evolve", "--x1", "0", "--x2", "1e-9", "--N", "1e-6", "--T", "1e23",
                 "--dt", "1e-300", "--t-final", "1e-2", "--output", "evolve.csv"])
    base = {"visibility": ["visibility", "--law", "high-T", "--N", "1e23", "--T", "300",
                           "--dx", "1e-3", "--t-final", "2e-6", "--n-times", "5"],
            "evolve": ["evolve", "--x1", "0", "--x2", "1e-3", "--n-points", "2", "--N", "1e23",
                       "--T", "300", "--dt", "1e-7", "--t-final", "1e-6"],
            "regime": ["regime", "--axis1", "delta-x", "--axis1-min", "1e-6", "--axis1-max",
                       "1e-2", "--n-axis1", "3", "--t-min", "100", "--t-max", "600",
                       "--n-temps", "2", "--n-modes", "1e23", "--sigma0", "3e-22", "--k0", "1e7"],
            "tau": ["tau", "--N", "1e23", "--T", "300", "--dx", "1e-3"],
            "propertime": ["propertime", "--x1", "0", "--x2", "1", "--t-final", "1",
                           "--N", "1e20", "--T", "300"]}
    runs += [[*base[c], "--format", "json"] for c in ("visibility", "evolve", "regime")]
    runs += [[*base[c], "--format", "csv"] for c in ("tau", "propertime")]
    oracle = ["oracle-check", "--cases", "3", "--samples", "20000"]
    runs += [[*oracle, "--verbose"], [*oracle, "--format", "json"], [*oracle, "--format", "csv"]]
    runs.append([*base["tau"], "--output", "missing/tau.json"])
    runs.append([*base["evolve"], "--store-every", "5", "--snapshots", "run.snap",
                 "--output", "missing/evolve.csv"])
    runs.append(["visibility", "--dtau", "1e300", "--frequencies-csv", "modes.csv", "--T", "300"])
    runs.append(["tau", "--N", "1e-300", "--T", "1e-300", "--dx", "9.945e30"])
    runs.append(["evolve", "--x1", "0", "--x2", "1e300", "--n-points", "2",
                 "--lambda-coefficient", "1", "--dt", "1", "--t-final", "3"])
    for form in ("markovian", "full_memory"):
        for kind in ("none", "free", "free_plus_linear"):
            mass = [] if kind == "none" else ["--mass", "1e-25"]
            runs.append(["evolve", "--form", form, "--hamiltonian", kind, *mass, "--x1", "0",
                         "--x2", "1e154", "--n-points", "2", "--lambda-coefficient", "1",
                         "--dt", "1", "--t-final", "3"])
    runs.append(["tau", "--N", "1e-320", "--T", "1e300", "--dx", "1e300"])
    near = ["tau", "--N", "1e23", "--dx", "1e-9", "--central-mass"]
    runs += [[*near, "1e-300", "--radius", "1", "--hawking"],
             [*near, "1", "--radius", "1e200", "--T", "300"],
             [*near, "1e-250", "--radius", "1e-250", "--hawking"]]
    edge = ["--x1", "0", "--x2", "1e300", "--t-final", "1e300"]
    runs += [["propertime", *edge], ["propertime", *edge, "--frequencies-csv", "modes.csv",
                                     "--T", "300"]]
    edge = ["--T", "300", "--dx", "1e300", "--t-final", "1e300"]
    runs += [["visibility", "--law", "exact-product", "--frequencies-csv", "modes.csv", *edge],
             ["visibility", "--law", "high-T", "--N", "1e20", *edge],
             ["visibility", "--law", "gaussian", "--N", "1e20", *edge],
             ["visibility", "--law", "high-T", "--N", "0", *edge, "--n-times", "3"],
             ["visibility", "--law", "high-T", "--N", "1", "--T", "300", "--dx", "1e100",
              "--t-final", "1e100", "--n-times", "3"],
             ["visibility", "--law", "gaussian", "--N", "1e20", "--T", "1e300", "--dx", "1e300",
              "--t-final", "1", "--n-times", "3"]]
    edge = ["regime", "--n-axis1", "3", "--n-temps", "2", "--axis1-min", "1e-6"]
    separations = [*edge, "--axis1", "delta-x", "--n-modes", "1e23"]
    runs += [[*separations, "--sigma0", sigma0, "--k0", "1e7", "--axis1-max", "1e300",
              "--t-min", "100", "--t-max", "600"] for sigma0 in ("3e-22", "0")]
    runs += [[*separations, "--sigma0", "3e-22", "--k0", k0, "--alpha", alpha,
              "--axis1-max", "1e-2", "--t-min", t_min, "--t-max", t_max]
             for k0, alpha, t_min, t_max in (("1e7", "0", "100", "1e300"),
                                             ("1e7", "0", "1e-300", "600"),
                                             ("1e7", "0", "100", "1e100"),
                                             ("1e-300", "2", "100", "600"))]
    runs += [[*separations, "--sigma0", "0", "--k0", k0, "--alpha", alpha,
              "--axis1-max", "1e-2", "--t-min", "100", "--t-max", t_max]
             for k0, alpha, t_max in (("1e7", "0", "1e100"), ("1e-300", "2", "600"))]
    runs += [["regime", "--axis1", "delta-x", "--axis1-min", "1e-6", "--axis1-max", "1e-6",
              "--n-axis1", "1", "--t-min", "300", "--t-max", "300", "--n-temps", "1",
              "--n-modes", "1e23", "--sigma0", "3e-22", "--k0", "1e7", "--alpha", alpha]
             for alpha in ("-4", "-5")]
    runs.append([*edge, "--sigma0", "3e-22", "--k0", "1e7", "--axis1", "radius",
                 "--axis1-max", "1e200", "--mode-density", "1e28", "--delta-x", "1e-3",
                 "--t-min", "100", "--t-max", "600"])
    runs += [[*base["tau"], "--config", "c200.json"],
             ["visibility", "--law", "high-T", "--N", "1e23", "--T", "300", "--dx", "1e-3",
              "--t-final", "1e-6", "--config", "c200.json"],
             [*near, "9.945e30", "--radius", "1.5e4", "--hawking", "--config", "c120.json"]]
    powers = ["evolve", "--x1", "0", "--x2", "1e-3", "--n-points", "2", "--N", "1e23",
              "--dt", "1e-8", "--t-final", "1e-6"]
    runs += [[*powers, "--T", "1e200"], [*powers, "--T", "300", "--config", "hbar150.json"]]
    runs += [[*near, "9.945e30", "--radius", "1.5e4", "--hawking", "--config", "c-200.json"],
             ["visibility", "--law", "high-T", "--N", "1e23", "--T", "300", "--dx", "1e-3",
              "--t-final", "1e-6", "--n-times", "3", "--config", "c-200.json"],
             [*powers, "--T", "300", "--config", "hbar-300.json"]]
    small_hbar = ["--config", "hbar-300.json"]
    runs += [[*near, "9.945e30", "--radius", "1.5e4", "--hawking", *small_hbar],
             [*base["visibility"], *small_hbar],
             ["visibility", "--law", "exact-product", "--frequencies-csv", "modes.csv", "--T", "300",
              "--dx", "1e-3", "--t-final", "2e-6", "--n-times", "5", *small_hbar],
             ["evolve", "--x1", "0", "--x2", "1e-3", "--n-points", "2", "--lambda-coefficient",
              "2e24", "--dt", "1e-8", "--t-final", "1e-6", *small_hbar],
             ["evolve", "--form", "full_memory", "--hamiltonian", "free", "--mass", "1e-25",
              "--x1", "0", "--x2", "1e-6", "--n-points", "4", "--lambda-coefficient", "2e24",
              "--dt", "1e-8", "--t-final", "1e-7", "--config", "hbar150.json"]]
    for table, dtau in (("many-modes.csv", "1e-15"), ("tiny-modes.csv", "1e-9")):
        modes = ["--T", "300", "--frequencies-csv", table]
        runs += [["visibility", "--law", "exact-product", "--dx", "1e-3", "--t-final", "1e-6",
                  *modes],
                 ["visibility", "--dtau", dtau, *modes],
                 ["propertime", "--x1", "0", "--x2", "1", "--t-final", "1", *modes]]
    runs += [["tau", "--N", "1e23", "--T", "-0", "--dx", "1e-3"],
             ["tau", "--N", "-0", "--T", "300", "--dx", "1e-3"]]
    runs.append(["evolve", "--x1", "-1e-3", "--x2", "1e-3", "--N", "1e23", "--T", "300",
                 "--dt", "1e-8", "--t-final", "1e-7"])
    runs.append(["--help"])
    runs += [[command, "--help"] for command in SUBCOMMANDS]
    return runs


def export(rev: str, tree: Path) -> None:
    """Write the files of ``rev`` into the new directory ``tree`` (``git archive``)."""
    tree.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)


def run(tree: Path, args: list[str], workdir: Path) -> dict[str, bytes]:
    """Every output of one invocation on one tree, by stream or file name."""
    workdir.mkdir(parents=True)
    for name, text in INPUTS.items():
        if name in args:
            (workdir / name).write_text(text)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "gravidec.cli", *args], cwd=workdir, env=env,
                          capture_output=True)
    here = str(tree).encode()
    outputs = {"exit code": str(proc.returncode).encode(),
               "stdout": proc.stdout.replace(here, b"<tree>"),
               "stderr": proc.stderr.replace(here, b"<tree>")}
    for path in sorted(workdir.iterdir()):
        if path.name not in INPUTS:
            outputs[f"file {path.name}"] = path.read_bytes()
    return outputs


def _clip(line: bytes) -> str:
    text = repr(line.decode(errors="replace"))
    return text if len(text) <= 90 else text[:87] + "...'"


def first_difference(old: dict[str, bytes], new: dict[str, bytes]) -> str | None:
    """The first output that differs and its changed lines; None if all are equal."""
    for name in list(old) + [k for k in new if k not in old]:
        if name not in new or name not in old:
            return f"{name}: only {'in REV' if name in old else 'in the working tree'}"
        if old[name] == new[name]:
            continue
        a, b = old[name].split(b"\n"), new[name].split(b"\n")
        hunks = []
        matcher = difflib.SequenceMatcher(None, a, b, autojunk=False)
        for tag, i1, i2, j1, j2 in matcher.get_opcodes():
            if tag != "equal":
                lines = [f"-{_clip(x)}" for x in a[i1:i2]] + [f"+{_clip(x)}" for x in b[j1:j2]]
                hunks.append(f"line {i1 + 1}: " + " ".join(lines))
        return f"{name}: " + " | ".join(hunks)
    return None


def _json_numbers(value, path: str = "", found: dict | None = None) -> dict[str, list[float]]:
    """Every number in a parsed JSON value, keyed by its path with list indices folded."""
    found = {} if found is None else found
    if isinstance(value, dict):
        for key, item in value.items():
            _json_numbers(item, f"{path}.{key}" if path else key, found)
    elif isinstance(value, list):
        for item in value:
            _json_numbers(item, f"{path}[]", found)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        found.setdefault(path, []).append(float(value))
    return found


def _csv_columns(text: str) -> dict[str, list[float]] | None:
    """The numeric columns of a CSV after its ``#`` comments, or None if it is not one."""
    rows = [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]
    if len(rows) < 2 or any(len(row) != len(rows[0]) for row in rows):
        return None
    columns = {}
    for k, name in enumerate(rows[0]):
        try:
            columns[name] = [float(row[k]) for row in rows[1:]]
        except ValueError:
            continue
    return columns


def _snapshot_parts(data: bytes) -> dict[str, np.ndarray] | None:
    """Times and entries of a snapshot file (see ``save_snapshots``), or None."""
    if data[:8] != b"GDSNAP01" or len(data) < 40:
        return None
    n, m = (int(v) for v in np.frombuffer(data[8:24], dtype="<i8"))
    if len(data) != 40 + n * (8 + 16 * m * m):
        return None
    rows = np.frombuffer(data[40:], dtype="<f8").reshape(n, 1 + 2 * m * m)
    return {"times": rows[:, 0], "entries": rows[:, 1:].view("<c16")}


def largest_differences(old: bytes, new: bytes) -> str | None:
    """Largest |new - old| of each number in one output, if both parse alike."""
    parts = [_snapshot_parts(old), _snapshot_parts(new)]
    if None in parts:
        try:
            parts = [_json_numbers(json.loads(old)), _json_numbers(json.loads(new))]
        except ValueError:
            parts = [_csv_columns(old.decode(errors="replace")),
                     _csv_columns(new.decode(errors="replace"))]
    a, b = parts
    if a is None or b is None or a.keys() != b.keys():
        return None
    cells = []
    for name in a:
        x, y = np.asarray(a[name]), np.asarray(b[name])
        if x.shape != y.shape:
            return None
        with np.errstate(invalid="ignore"):
            gap = np.abs(y - x)
        # equal non-finite values (inf, or nan in both) are no difference
        gap[(x == y) | (np.isnan(x) & np.isnan(y))] = 0.0
        cells.append(f"{name or 'value'} {float(gap.max(initial=0.0)):.3g}")
    return ", ".join(cells)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    scratch = Path(tempfile.mkdtemp(prefix="same-bytes-"))
    tree = scratch / "tree"
    export(argv[0], tree)
    try:
        runs, differing = invocations(), 0
        for k, args in enumerate(runs):
            old = run(tree, args, scratch / "rev" / str(k))
            new = run(ROOT, args, scratch / "work" / str(k))
            diff = first_difference(old, new)
            differing += diff is not None
            print(f"identical  gravidec {shlex.join(args)}" if diff is None
                  else f"DIFFERS  gravidec {shlex.join(args)}  {diff}", flush=True)
            changed = [name for name in old if diff is not None and new.get(name) != old[name]]
            for name in changed:
                gaps = largest_differences(old[name], new.get(name, b""))
                if gaps is not None:
                    print(f"    max |difference| in {name}: {gaps}", flush=True)
        print(f"{differing} of {len(runs)} invocations differ from {argv[0]}")
        return int(differing > 0)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
