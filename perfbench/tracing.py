"""In-memory span tracing of gravidec's public functions.

Only the traced benchmark process imports this. :func:`install` rebinds each
listed function, in every ``gravidec`` module namespace that holds it, to a
wrapper that records a span (name, start, end, parent span, operation id)
and, where the layer has one, a work count computed from the call's inputs.
Hot scalar helpers get a call counter and no span. The counters are bound
only for a separate counting pass (:func:`counters_installed`), so their own
cost is never charged to the self time of the spans. Nothing inside the
library is changed: the rebinding lives in the traced process only.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
from collections import defaultdict

def _mc_samples(out, spec, delta_tau, cfg, consts):
    return {"samples": cfg.n_samples * len(spec.frequencies)}


def _joint_states(out, spec, x1, x2, t, g, cfg, consts, mass=0.0):
    # The oracle's per-mode Fock cutoff: the smallest c with q^(c+1) <= tail_epsilon.
    dim = 1
    for w in spec.frequencies:
        if spec.temperature > 0:
            q = math.exp(-consts.hbar * w / (consts.k_B * spec.temperature))
            dim *= max(math.ceil(math.log(cfg.tail_epsilon) / math.log(q)) - 1, 0) + 1
    return {"joint_states": dim}


def _attempts(out, *args, **kwargs):
    return {"attempts": len(out)}


def _exact_modes(out, spec, delta_tau, consts, *args, **kwargs):
    live = spec.frequencies is not None and spec.temperature != 0 and delta_tau != 0
    return {"mode_evals": len(spec.frequencies) if live else 0}


def _chi_modes(out, spec, delta_tau, consts):
    live = spec.frequencies is not None and spec.temperature != 0
    return {"mode_evals": len(spec.frequencies) if live else 0}


def _curve_points(out, law, times, *args, **kwargs):
    return {"points": len(times)}


def _pt_samples(out, pair, potential, consts):
    return {"samples": pair.times.size}


def _regime_cells(out, axis1_kind, axis1, temperatures, *args, **kwargs):
    return {"cells": len(axis1) * len(temperatures)}


def _k_points(out, model, consts):
    return {"k_points": model.k_grid.size}


def _markovian_work(out, rho0, ham, cfg, consts):
    m = rho0.x.size
    steps = cfg.n_steps
    # Two kinetic half-steps per step, each an FFT and an inverse FFT along
    # both axes: 8 passes over the m x m matrix, 16 bytes per element.
    ffts = 8 * steps if ham.kind != "none" else 0
    return {"m": m, "steps": steps, "ffts_computed": ffts, "bytes_computed": ffts * m * m * 16}


def _full_memory_work(out, rho0, ham, cfg, consts):
    m = rho0.x.size
    steps = cfg.n_steps
    # Per RK4 stage with a Hamiltonian: H rho, rho H, and the four products of
    # the eigenbasis sandwich, each a complex m x m matmul of 8 m^3 flops.
    flops = 4 * steps * 6 * 8 * m**3 if ham.kind != "none" else 0
    return {"m": m, "steps": steps, "rhs_evals": 4 * steps, "flops_computed": flops}


def _snapshot_bytes(out, path, times, x, snapshots):
    n, m = len(times), len(x)
    return {"bytes": 8 + 32 + n * (8 + 16 * m * m)}


#: (module, function, work-count function, keys it returns): recorded as spans.
SPANNED = [
    ("oracles", "mc_visibility", _mc_samples, ("samples",)),
    ("oracles", "fock_visibility", None, ()),
    ("oracles", "two_point_unitary_oracle", _joint_states, ("joint_states",)),
    ("oracles", "run_oracle_battery", _attempts, ("attempts",)),
    ("visibility", "exact_visibility", _exact_modes, ("mode_evals",)),
    ("visibility", "visibility_curve", _curve_points, ("points",)),
    ("internal_state", "mean_internal_energy", None, ()),
    ("internal_state", "internal_energy_variance", None, ()),
    ("proper_time", "proper_time_difference", _pt_samples, ("samples",)),
    ("proper_time", "internal_characteristic_function", _chi_modes, ("mode_evals",)),
    ("emission", "regime_scan", _regime_cells, ("cells",)),
    ("emission", "emission_rate_integral", _k_points, ("k_points",)),
    ("master_equation", "evolve_markovian", _markovian_work,
     ("steps", "ffts_computed", "bytes_computed")),
    ("master_equation", "evolve_full_memory", _full_memory_work,
     ("steps", "rhs_evals", "flops_computed")),
    ("master_equation", "extract_visibility", None, ()),
    ("master_equation", "save_snapshots", _snapshot_bytes, ("bytes",)),
    ("cli", "main", None, ()),
]

#: Hot scalar helpers: counted, not spanned (a span each would dominate them),
#: and counted in a pass of their own (a counter each would still inflate the
#: self time of the span that calls them: ~2.6e6 calls per library pass).
COUNTED = [
    ("internal_state", "thermal_occupation"),
    ("visibility", "highT_visibility"),
    ("visibility", "gaussian_visibility"),
    ("emission", "blackbody_emission_model"),
]


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, op id, ok, work dict]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.op_id = -1
        self.recording = False
        self.counting = False

    def spanned(self, name, fn, work):
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                   self.op_id, False, None]
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                rec[5] = True
                return out
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
                if work is not None and rec[5]:
                    rec[6] = work(out, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.counting:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def _original(mod: str, fn: str):
    return getattr(sys.modules[f"gravidec.{mod}"], fn)


def _rebind(wrappers) -> list[tuple]:
    """Put each wrapper wherever a gravidec module holds the function it wraps;
    return (module, attribute, original) for every rebinding."""
    modules = [m for n, m in sys.modules.items() if n == "gravidec" or n.startswith("gravidec.")]
    undo = []
    for wrapper in wrappers:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is wrapper.__wrapped__:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, value))
    return undo


def install(tracer: Tracer) -> None:
    """Rebind every spanned function wherever a gravidec module imported it."""
    import gravidec  # noqa: F401  (loads every submodule the package imports)
    import gravidec.cli  # noqa: F401

    _rebind([tracer.spanned(f"{mod}.{fn}", _original(mod, fn), work)
             for mod, fn, work, _ in SPANNED])


@contextlib.contextmanager
def counters_installed(tracer: Tracer):
    """Bind the call counters of the hot helpers for the duration of the block."""
    undo = _rebind([tracer.counted(f"{mod}.{fn}", _original(mod, fn)) for mod, fn in COUNTED])
    try:
        yield
    finally:
        for module, attr, value in undo:
            setattr(module, attr, value)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            own[rec[3]] -= rec[2] - rec[1]
    return own


#: (form, grid size) of every master-equation run the workloads make.
STEP_RUNS = [("markovian", 256), ("full_memory", 64), ("markovian", 2),
             ("full_memory", 2), ("markovian", 128)]

_FORMS = {"master_equation.evolve_markovian": "markovian",
          "master_equation.evolve_full_memory": "full_memory"}


def layer_metrics(spans: list[list], own: list[float], lo: int, hi: int,
                  counts: dict[str, int]) -> dict[str, float]:
    """Per-layer totals of the spans ``spans[lo:hi]`` (one pass), with the
    helper call counts ``counts`` of the counting pass."""
    out: dict[str, float] = {}
    for mod, fn, _, keys in SPANNED:
        name = f"{mod}.{fn}"
        for key in ("calls", "ok_calls", "self_s") + keys:
            out[f"{name}.{key}"] = 0
    step_time = {run: [0.0, 0] for run in STEP_RUNS}
    top = 0.0
    for rec, t_self in zip(spans[lo:hi], own[lo:hi]):
        name = rec[0]
        out[f"{name}.calls"] += 1
        out[f"{name}.ok_calls"] += rec[5]
        out[f"{name}.self_s"] += t_self
        if rec[3] < 0:
            top += rec[2] - rec[1]
        for key, value in (rec[6] or {}).items():
            if key != "m":
                out[f"{name}.{key}"] += value
        if name in _FORMS and rec[6]:
            acc = step_time[(_FORMS[name], rec[6]["m"])]
            acc[0] += rec[2] - rec[1]
            acc[1] += rec[6]["steps"]
    for mod, fn, _, _ in SPANNED:
        name = f"{mod}.{fn}"
        calls = out[f"{name}.calls"]
        out[f"{name}.accept_ratio"] = out[f"{name}.ok_calls"] / calls if calls else 0.0
    for mod, fn in COUNTED:
        out[f"{mod}.{fn}.calls"] = counts.get(f"{mod}.{fn}", 0)
    for (form, m), (dur, steps) in step_time.items():
        out[f"master_equation.{form}.m{m}.step_us"] = 1e6 * dur / steps if steps else 0.0
    out["top_level_s"] = top
    return out
