"""Regenerate reference.json: converged visibilities for master-equation runs (a) and (b).

Each run's parameters are drawn here once; the benchmark seed then picks one
entry per run. The reference is the Richardson extrapolation of the same
run at dt/4 and dt/8 (order 2 for Strang splitting, 4 for RK4), so it is
the dt -> 0 value that any converged integrator must reproduce, not the
output of the present one. Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys

import numpy as np

import workloads as wl

ENTRIES = 8
RUNS = {
    "a": ("markovian", 256, 200, 2),
    "b": ("full_memory", 64, 400, 4),
}


def visibility_at(p: dict, refine: int) -> np.ndarray:
    q = dict(p, dt=p["dt"] / refine, steps=p["steps"] * refine)
    result, _ = wl.evolution(q, 0)
    return wl.raw_visibility(result)[[refine * i for i in wl.checkpoints(p["steps"])]]


def main() -> None:
    rng = np.random.default_rng(20240811)
    out = {}
    for run, (form, m, steps, order) in RUNS.items():
        out[run] = []
        for k in range(ENTRIES):
            p = wl.me_params(rng, form, "free_plus_linear", m, steps)
            v1, v4, v8 = (visibility_at(p, r) for r in (1, 4, 8))
            ref = v8 + (v8 - v4) / (2**order - 1)
            entry = {
                "params": p,
                "v_ref": ref.tolist(),
                "err_dt": float(np.max(np.abs(v1 - ref))),
                "err_ref": float(np.max(np.abs(v8 - v4))) / (2**order - 1),
            }
            print(run, k, entry["err_dt"], entry["err_ref"], ref[-1], file=sys.stderr, flush=True)
            out[run].append(entry)
    with open(wl.HERE / "reference.json", "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
