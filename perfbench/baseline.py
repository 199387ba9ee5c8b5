"""Record the benchmark baseline: end-to-end spread over seeds, the traced
per-layer breakdown, and the timings quoted in ROADMAP.md re-measured.

Run from the repository root; it calls run.py with the arguments of
BENCHMARK.json, one run at a time:

    python3 perfbench/baseline.py --out perfbench/baseline.json

It makes RUNS rounds. Each round runs every workload untraced once, with the
round's seed (1..RUNS), and then times the configurations whose timings
ROADMAP.md quotes without a recorded harness in a fresh process (median of
REPEATS after a warm-up). For each workload it reports each end-to-end
metric's median, quartiles and spread, the distance between the quartiles
over the median, against a third of the metric's bound (setup_s is not held
to its spread). Then one traced run per workload (seed 1). Each ROADMAP
figure is flagged if it differs from the median over the rounds by more than
their run-to-run spread: the distance between the quartiles of the RUNS
per-process medians.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent

#: ROADMAP "Unrecorded baseline" table (2 cores, OpenBLAS), in seconds.
ROADMAP_S = {
    "markovian_100_steps_m64": 0.026,
    "markovian_100_steps_m256": 0.546,
    "full_memory_100_steps_m64": 1.38,
    "full_memory_100_steps_m256": 5.24,
    "regime_map_64x64": 0.271,
    "exact_product_1e4_modes_200_points": 1.17,
    "highT_curve_1e5_points": 0.064,
    "cli_startup": 0.200,
}
#: Rounds of seed runs, and of ROADMAP timing processes.
RUNS = 10
#: Timed repetitions of each ROADMAP configuration in one process.
REPEATS = 3


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    out = last_json(proc.stdout)
    out["run_s"] = time.perf_counter() - t0
    out["env"] = dict(line[len("# env "):].split(" = ", 1) for line in proc.stdout.splitlines()
                      if line.startswith("# env "))
    print(f"{workload} seed={seed} trace={trace} {out['run_s']:.1f}s correct={out['correct']} "
          + " ".join(f"{k}={v['value']:.5g}" for k, v in out["metrics"].items() if trace == 0),
          file=sys.stderr, flush=True)
    return out


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def roadmap_timings() -> dict:
    """Time the ROADMAP's configurations in this (fresh) process."""
    import numpy as np

    import gravidec as gd
    import workloads as wl

    c = gd.default_constants()
    rng = np.random.default_rng(0)
    jobs = {}
    for form in ("markovian", "full_memory"):
        for m in (64, 256):
            p = wl.me_params(rng, form, "free_plus_linear", m, 100)
            jobs[f"{form}_100_steps_m{m}"] = lambda p=p: wl.evolution(p, 0)
    sigma = gd.power_law_cross_section(3e-22, 1e7, 0.0)
    jobs["regime_map_64x64"] = lambda: gd.regime_scan(
        "delta_x", np.geomspace(1e-6, 1e-2, 64), np.geomspace(100.0, 600.0, 64),
        lambda t: gd.blackbody_emission_model(t, sigma, c), c.g_earth, c, n_modes=1e23)
    freqs = (c.k_B * 300.0 / c.hbar) * np.exp(rng.uniform(np.log(0.05), np.log(5.0), 10_000))
    jobs["exact_product_1e4_modes_200_points"] = lambda: gd.visibility_curve(
        "exact-product", np.linspace(0.0, 1e-3, 200), 1e4, 300.0, 1e-3, c.g_earth, c,
        frequencies=freqs)
    jobs["highT_curve_1e5_points"] = lambda: gd.visibility_curve(
        "high-T", np.linspace(0.0, 2e-6, 100_000), 1e23, 300.0, 1e-3, c.g_earth, c)
    cli = [sys.executable, "-m", "gravidec.cli", "tau", "--N", "1e23", "--T", "300", "--dx", "1e-3"]
    jobs["cli_startup"] = lambda: subprocess.run(cli, capture_output=True, check=True)
    out = {}
    for name, job in jobs.items():
        job()  # warm-up
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            job()
            times.append(time.perf_counter() - t0)
        out[name] = times
    return out


def roadmap_process() -> dict:
    """Run roadmap_timings in a fresh process; each configuration's median time."""
    threads = str(run.BLAS_THREADS)
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, str(HERE / "baseline.py"), "--roadmap-timings"],
                          env=env, capture_output=True, text=True, check=True)
    return {name: statistics.median(times) for name, times in json.loads(proc.stdout).items()}


def compare_roadmap(medians: dict[str, list[float]]) -> dict:
    rows = {"spread_basis": f"quartiles of the medians of {RUNS} separate processes, "
                            "one after each round of seed runs"}
    for name, quoted in ROADMAP_S.items():
        s = spread(medians[name])
        gap = s["median"] - quoted
        rows[name] = {"roadmap_s": quoted, "median_s": s["median"], "q1_s": s["q1"],
                      "q3_s": s["q3"], "ratio": s["median"] / quoted,
                      "flag": abs(gap) > s["q3"] - s["q1"]}
    return rows


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out")
    ap.add_argument("--roadmap-timings", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.roadmap_timings:
        json.dump(roadmap_timings(), sys.stdout)
        return

    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {name: [] for name in names}
    roadmap = {name: [] for name in ROADMAP_S}
    for seed in range(1, RUNS + 1):
        for name in names:
            runs[name].append(bench_run(name, seed, bench["run_seconds"], 0))
        for name, median in roadmap_process().items():
            roadmap[name].append(median)
    record = {"run_seconds": bench["run_seconds"],
              "environment": {k: v for k, v in runs[names[0]][0]["env"].items() if k != "seed"},
              "workloads": {}}
    steady = True
    for name in names:
        e2e = {}
        for metric, bound in bounds.items():
            s = spread([r["metrics"][metric]["value"] for r in runs[name]])
            s["bound"] = bound
            s["steady"] = metric == "setup_s" or s["spread"] < bound / 3.0
            steady &= s["steady"]
            e2e[metric] = s
            print(f"  {name} {metric}: median {s['median']:.5g} spread {s['spread']:.4f} "
                  f"(bound/3 {bound / 3:.4f}){'' if s['steady'] else '  NOT STEADY'}",
                  file=sys.stderr, flush=True)
        traced = bench_run(name, 1, bench["run_seconds"], 1)
        record["workloads"][name] = {
            "end_to_end": e2e,
            "attempted": sum(r["attempted"] for r in runs[name]),
            "failed": sum(r["failed"] for r in runs[name]),
            "max_run_s": max(r["run_s"] for r in runs[name]),
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_failed": traced["failed"],
        }
    record["steady"] = steady
    record["roadmap_comparison"] = compare_roadmap(roadmap)
    for row, r in record["roadmap_comparison"].items():
        if row != "spread_basis":
            print(f"  roadmap {row}: {r['roadmap_s']:.4g} s quoted, {r['median_s']:.4g} s "
                  f"measured{'  FLAG' if r['flag'] else ''}", file=sys.stderr)
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
