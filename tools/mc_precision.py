"""Print the Monte Carlo oracle's precision on ``oracle-check --preset standard``.

Usage: python3 tools/mc_precision.py [--mc-seed K]

Runs ``oracle-check --preset standard --mc-seed K`` (default 0) in-process
from this tree's ``src``, with its JSON report written to a temporary file.
For each case that Monte Carlo sampled it prints one line: the main samples
it drew, the ratio of its reported ``se_mc`` to the standard error of the
preset's plain samples, and z = (v_mc - v_exact) / se_mc. The
plain standard error is the closed form sqrt((E|w|^2 - V^2) / (n - 1)), with
E|w|^2 = prod 1 / (1 + 2 nbar (1 - cos d)) and V = prod |1 / (1 + nbar
(1 - e^{-i d}))|. It is computed here, so the oracle module stays free of
closed forms. A last line gives the case count, the total main samples
drawn against the cases times n that plain sampling drew, the largest
ratio, and the sum of z^2. Exit status: 0 when every ratio is at most 1, 1
otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gravidec.cli import main as gravidec_main  # noqa: E402


def plain_se(case: dict, consts: dict, n: int) -> float:
    """Standard error of the mean of n plain samples of the case's weight."""
    freqs = np.array(case["frequencies"])
    nbars = 1.0 / np.expm1(consts["hbar"] * freqs / (consts["k_B"] * case["temperature"]))
    deltas = freqs * case["delta_tau"]
    v = float(np.prod(1.0 / np.abs(1.0 + nbars * (1.0 - np.exp(-1j * deltas)))))
    second = float(np.prod(1.0 / (1.0 + 2.0 * nbars * (1.0 - np.cos(deltas)))))
    return math.sqrt((second - v * v) / (n - 1))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mc-seed", type=int, default=0)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "report.json")
        with contextlib.redirect_stdout(io.StringIO()):
            gravidec_main(["oracle-check", "--preset", "standard",
                           "--mc-seed", str(args.mc_seed), "--output", path])
        with open(path) as fh:
            report = json.load(fh)
    n = report["parameters"]["samples"]
    rows = [case for case in report["cases"] if case["v_mc"] is not None]
    drawn, ratios, sum_z2 = 0, [], 0.0
    print("case    samples  se/plain_se       z")
    for case in rows:
        ratio = case["se_mc"] / plain_se(case, report["constants"], n)
        z = (case["v_mc"] - case["v_exact"]) / case["se_mc"]
        drawn, sum_z2 = drawn + case["n_samples"], sum_z2 + z * z
        ratios.append(ratio)
        print(f"{case['index']:4d}  {case['n_samples']:9d}  {ratio:11.4f}  {z:+7.3f}")
    print(f"{len(rows)} cases: {drawn} samples drawn (plain: {len(rows) * n}), "
          f"largest se/plain_se {max(ratios):.4f}, sum z^2 {sum_z2:.2f}")
    return int(max(ratios) > 1.0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
