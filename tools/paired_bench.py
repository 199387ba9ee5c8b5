"""Compare a revision and the working tree on the benchmark, in alternating pairs.

Usage: python3 tools/paired_bench.py REV --pairs N --seconds S
                                     [--first-seed K] [--workload W ...]

REV is exported with ``git archive`` into a temporary directory. For
each workload declared in the working tree's ``BENCHMARK.json`` (or each
``--workload`` given), N pairs of runs follow. Pair i uses seed K + i on both
trees; REV runs first in odd pairs (the first, third, ...) and the working
tree runs first in even ones. Each run is

    python3 perfbench/run.py --workload W --seed K+i --seconds S --trace 0

started from that tree's root, and its last stdout line is read as the
result JSON. A run that exits non-zero, or whose result reads
``"correct": false``, is printed with its tree and seed.

For each workload and end-to-end metric one line is printed: the median and
the quartiles of REV's runs and of the working tree's, the relative change
of the medians, how many pairs the working tree won (by the metric's
``better`` direction), and the metric's bound with whether the change of the
medians stays inside it. A second line applies the rule for claiming a gain
on that metric: the working tree wins at least nine pairs in ten, and the
gap between the medians, in the better direction, exceeds the distance
between REV's quartiles (its IQR). The exported tree is removed at the end.
Exit status: 0 when every run succeeded and read correct, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from same_bytes import export  # the script's own directory is on sys.path

ROOT = Path(__file__).resolve().parents[1]


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result JSON of one ``perfbench/run.py`` run, or None if it exited non-zero."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        print(f"  run exited {proc.returncode}: {tail}", flush=True)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(workload: str, metric: dict, old: list[float], new: list[float]) -> str:
    """Two summary lines for a workload and metric over paired runs: the
    change against the metric's bound, and the claim rule."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
    wins = sum(sign * (b - a) < 0 for a, b in zip(old, new))
    change = (nm - om) / om if om else float("inf")
    inside = sign * change <= metric["bound"]
    gap, most_pairs = sign * (om - nm), wins >= 0.9 * len(old)
    claim = gap > o3 - o1 and most_pairs
    return (f"{workload} {metric['name']} ({metric['unit']}, {metric['better']} is better): "
            f"REV {om:.6g} [{o1:.6g}, {o3:.6g}] -> working tree {nm:.6g} [{n1:.6g}, {n3:.6g}] "
            f"({change:+.1%}); working tree better in {wins} of {len(old)} pairs; "
            f"bound {metric['bound']:.0%}: {'inside' if inside else 'OUTSIDE'}\n"
            f"  claim rule: gain of the medians {gap:.6g} "
            f"{'exceeds' if gap > o3 - o1 else 'does not exceed'} REV's IQR {o3 - o1:.6g}; "
            f"{wins} of {len(old)} pairs {'is' if most_pairs else 'is not'} at least nine in "
            f"ten; a gain {'can' if claim else 'cannot'} be claimed")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="default: every declared workload")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be >= 2 (quartiles need two runs)")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    scratch = Path(tempfile.mkdtemp(prefix="paired-bench-"))
    tree = scratch / "tree"
    export(args.rev, tree)
    ok = True
    try:
        lines = []
        for workload in workloads:
            values = {"rev": [], "work": []}
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("rev", "work") if i % 2 == 0 else ("work", "rev")
                results = {}
                for side in order:
                    print(f"{workload} pair {i + 1} seed {seed}: {side}", flush=True)
                    results[side] = bench_run(tree if side == "rev" else ROOT, workload, seed,
                                              args.seconds)
                for side, res in results.items():
                    if res is None or not res["correct"]:
                        ok = False
                        what = ("exited non-zero" if res is None else
                                f"{res['failed']} of {res['attempted']} operations failed")
                        print(f"NOT CORRECT {workload} seed {seed} "
                              f"{'REV' if side == 'rev' else 'working tree'}: {what}", flush=True)
                if all(res is not None for res in results.values()):
                    for side in values:
                        values[side].append(results[side]["metrics"])
            if len(values["rev"]) < 2:
                lines.append(f"{workload}: fewer than two complete pairs; no summary")
                continue
            for metric in bench["end_to_end"]:
                name = metric["name"]
                lines.append(report(workload, metric, [m[name]["value"] for m in values["rev"]],
                                    [m[name]["value"] for m in values["work"]]))
        print("\n".join(lines))
        return 0 if ok else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
