"""gravidec benchmark: one workload, one seed, one run.

Run from the repository root (the package is used from ``src/``, not
installed):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metrics and bounds are declared in BENCHMARK.json. Each run
measures set-up time over several fresh interpreters, then starts one worker
process (perfbench/worker.py) that times passes over the workload's fixed
list of operations and checks every output against a physics reference.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, one pass's
steady-state wall time; ``setup_s``, the median start of a fresh interpreter
that imports gravidec and warms each layer the workload uses (``import
gravidec.cli`` alone for cli_readme); and ``peak_rss_mb``, the worker's peak
resident memory (the largest CLI child for cli_readme). On cli_readme it
also prints ``cmd_p50_ms``, the median over the command list of each
command's median wall time; it is not in the result line, because wall_s
there is the sum of the same medians. Failed over attempted operations is
printed as ``fail_frac``; it is 0 on a correct run, so it is not a gated
metric.

``--trace 1`` runs the worker twice for half the time each, untraced and
then with every public layer function rebound to a span recorder
(perfbench/tracing.py), and reports the per-layer metrics plus the tracing
overhead; the spans of the last traced run are kept in
``.perfbench/spans-<workload>.json``. Both runs call the CLI in-process on
cli_readme, so that they differ only by tracing.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit, the failure fraction, and the environment.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Fresh interpreters timed per run for setup_s and the cli.* start-up metrics.
PROBES = 9

#: BLAS threads of every process the benchmark starts (at most nproc). The
#: m = 64 matmuls and the Monte Carlo matrix-vector products are too small to
#: gain from a second thread: on a shared 2-core VM the m = 64 full-memory
#: run took 0.7-1.1 s with one thread and 0.8-2.1 s with two.
BLAS_THREADS = 1

#: Upper limit on one worker process, inside the 180 s limit of a whole run.
WORKER_TIMEOUT_S = 150


class Runner:
    def __init__(self, root: Path, workdir: str) -> None:
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # Import from cached bytecode, as an installed package would.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def call(self, cmd: list[str]) -> subprocess.CompletedProcess:
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"run.py: {' '.join(cmd[1:3])} exited {proc.returncode}")
        return proc

    def timed(self, cmd: list[str]) -> float:
        t0 = time.perf_counter()
        self.call(cmd)
        return time.perf_counter() - t0

    def worker(self, workload: str, *extra: str) -> dict:
        result = os.path.join(self.workdir, "result.json")
        self.call([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                   "--workdir", self.workdir, "--result", result, *extra])
        with open(result) as fh:
            return json.load(fh)


def environment(root: Path, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    init = ast.parse((root / "src" / "gravidec" / "__init__.py").read_text())
    exported = next(node.value for node in init.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    sha = "unknown"
    if (root / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True).stdout.strip() or sha
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": sha,
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((root / "src").rglob("*.py"))),
        "all_size": len(exported.elts),
    }


def steady_wall(op_s: list[list[float]]) -> float:
    """A pass's steady-state wall time, taken op by op: each operation's
    median over the passes, summed over the workload's fixed list."""
    return sum(statistics.median(times) for times in zip(*op_s))


def end_to_end(run: Runner, workload: str, args, cli: bool) -> tuple[dict, dict]:
    if cli:
        setup = [run.timed([sys.executable, "-c", "import gravidec.cli"]) for _ in range(PROBES)]
    else:
        setup = [run.timed([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                            "--setup-only", "--workdir", run.workdir]) for _ in range(PROBES)]
    res = run.worker(workload, "--seed", str(args.seed), "--seconds", str(args.seconds))
    rss_kb = res["children_maxrss_kb"] if cli else res["ru_maxrss_kb"]
    metrics = {
        "wall_s": steady_wall(res["op_s"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    if cli:
        p50 = statistics.median(statistics.median(t) for t in zip(*res["op_s"]))
        print(f"cmd_p50_ms = {1e3 * p50:.6g} ms")
    return metrics, res


def per_layer(run: Runner, workload: str, args) -> tuple[dict, dict]:
    half = ["--seed", str(args.seed), "--seconds", str(args.seconds / 2.0), "--min-passes", "1"]
    base = run.worker(workload, *half, "--in-process")
    traced = run.worker(workload, *half, "--trace", "1")
    shutil.copy(os.path.join(run.workdir, "spans.json"),
                run.root / ".perfbench" / f"spans-{workload}.json")
    metrics = {name: statistics.median(p[name] for p in traced["layers"])
               for name in traced["layers"][0]}
    start = ("import time; t = time.perf_counter(); import gravidec.cli; "
             "print(time.perf_counter() - t)")
    metrics["cli.import_s"] = statistics.median(
        float(run.call([sys.executable, "-c", start]).stdout) for _ in range(PROBES))
    metrics["cli.python_start_s"] = statistics.median(
        run.timed([sys.executable, "-c", "pass"]) for _ in range(PROBES))
    metrics["cli.output_bytes"] = statistics.median(traced["output_bytes"])
    metrics["trace.overhead_frac"] = steady_wall(traced["op_s"]) / steady_wall(base["op_s"]) - 1.0
    metrics["trace.coverage_frac"] = statistics.median(
        p["top_level_s"] / w for p, w in zip(traced["layers"], traced["walls"]))
    merged = {
        "attempted": base["attempted"] + traced["attempted"],
        "failed": base["failed"] + traced["failed"],
        "failures": base["failures"] + traced["failures"],
    }
    for key, digest in traced["digests"].items():
        if base["digests"].get(key) != digest:
            merged["failed"] += 1
            merged["failures"].append(f"{key}: traced output differs from the untraced run's")
    return metrics, merged


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "gravidec" / "__init__.py").is_file():
        print("run.py: no src/gravidec here; run from the repository root", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    (root / ".perfbench").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=root / ".perfbench")
    try:
        run = Runner(root, workdir)
        if args.trace:
            values, res = per_layer(run, args.workload, args)
        else:
            values, res = end_to_end(run, args.workload, args, args.workload == "cli_readme")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"run.py: no value for {', '.join(missing)}", file=sys.stderr)
        return 2
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    for key, value in environment(root, args.seed).items():
        print(f"# env {key} = {value}")
    for m in declared:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    failed, attempted = res["failed"], res["attempted"]
    print(f"fail_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
