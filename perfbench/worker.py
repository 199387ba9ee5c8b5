"""One workload in one fresh process: warm up, time passes, check outputs.

Started by run.py with PYTHONPATH=src and the BLAS thread count already set:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR --result FILE
    python3 perfbench/worker.py --workload NAME --setup-only --workdir DIR

``--setup-only`` is the set-up probe: import gravidec and make one small
call per layer the workload uses, then exit. Otherwise the worker runs
passes over the workload's operations until the next pass would overrun
``--seconds`` (at least ``--min-passes``), checks every operation's output
outside the timed region, and writes a JSON result to ``--result``. One
untimed pass comes first, so that first-touch costs (heap growth, page
faults, numpy's lazy set-up) stay out of the timed passes. With ``--trace 1``
that pass is the counting pass, with the hot helpers' call counters bound;
the timed passes that give the spans run without them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--min-passes", type=int, default=2)
    ap.add_argument("--in-process", action="store_true",
                    help="call gravidec.cli.main instead of starting CLI subprocesses")
    args = ap.parse_args()

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    wl.warm_up(args.workdir)
    if args.setup_only:
        return

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ops = wl.build(args.seed, args.in_process or bool(args.trace))

    passes = []
    failures: list[str] = []
    digests: dict[str, str] = {}
    tally = {"attempted": 0, "failed": 0}

    def one_pass(label: str, counting: bool = False) -> dict:
        record = {"op_s": [], "output_bytes": 0}
        for k, op in enumerate(ops):
            path = os.path.join(args.workdir, f"{label}-{k}")
            if tracer is not None:
                tracer.op_id = k
                tracer.recording = not counting
                tracer.counting = counting
            t0 = time.perf_counter()
            try:
                out = op.run(path)
                bad = None
            except Exception as exc:  # an operation that raises is a failed operation
                bad = [f"{op.name}: raised {type(exc).__name__}: {exc}"]
            record["op_s"].append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.recording = tracer.counting = False
            if bad is None:
                try:
                    bad = op.check(out, path)
                except Exception as exc:  # unreadable output fails its check
                    bad = [f"{op.name}: output check raised {type(exc).__name__}: {exc}"]
            if op.writes and os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
                record["output_bytes"] += len(data)
                digest = hashlib.sha256(data).hexdigest()
                if digests.setdefault(op.name, digest) != digest:
                    bad.append(f"{op.name}: output differs from an identical earlier call")
            if os.path.exists(path):
                os.remove(path)
            tally["attempted"] += 1
            if bad:
                tally["failed"] += 1
                failures.extend(bad)
        return record

    counts: dict[str, int] = {}
    if tracer is not None:
        with tracing.counters_installed(tracer):
            one_pass("count", counting=True)
        counts = dict(tracer.counts)
    else:
        one_pass("warm")

    started = time.perf_counter()
    while True:
        first_span = len(tracer.spans) if tracer is not None else 0
        record = one_pass(f"p{len(passes)}")
        if tracer is not None:
            record["span_range"] = (first_span, len(tracer.spans))
        passes.append(record)
        walls = [sum(p["op_s"]) for p in passes]
        elapsed = time.perf_counter() - started
        if len(passes) >= args.min_passes and elapsed + statistics.median(walls) > args.seconds:
            break

    result = {
        "walls": walls,
        "op_s": [p["op_s"] for p in passes],
        "output_bytes": [p["output_bytes"] for p in passes],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "failures": failures[:50],
        "digests": digests,
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        own = tracing.self_times(tracer.spans)
        result["layers"] = [
            tracing.layer_metrics(tracer.spans, own, *p["span_range"], counts) for p in passes
        ]
        with open(os.path.join(args.workdir, "spans.json"), "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op", "ok", "work"],
                       "spans": tracer.spans}, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
