"""The two workloads: inputs drawn from the seed, the fixed list of
operations one pass makes, and the check each operation's output must pass.

``library`` is the oracle battery, then the master-equation runs, then the
closed-form calls, each group built by its own builder below. It reaches
gravidec only through ``gravidec.<name>`` looked up at call time, so the
traced process sees its rebound functions. ``cli_readme``
runs ``python -m gravidec.cli`` as a fresh subprocess per command, except for
the traced run and its untraced twin, which call ``gravidec.cli.main``
in-process so that the two differ only by tracing.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import gravidec as gd

import checks

HERE = Path(__file__).resolve().parent
C = gd.default_constants()
CONSTS = {"hbar": C.hbar, "c": C.c, "k_B": C.k_B, "G": C.G, "g_earth": C.g_earth}


@dataclass
class Op:
    """One timed call. ``run(path)`` may write ``path``; ``check`` judges the result.

    With ``writes=True``, every call of ops with the same name must write
    byte-identical ``path`` files.
    """

    name: str
    run: Callable[[str], Any]
    check: Callable[[Any, str], list[str]]
    writes: bool = False


@dataclass
class Workload:
    build: Callable[[int, bool], list[Op]]
    warm_up: Callable[[str], None]


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _cli_main(args: list[str]) -> int:
    """``gravidec.cli.main``, looked up at call time so the traced process sees
    its rebinding; imported on first use, so that importing this module (as
    make_reference.py and baseline.py do) does not import the CLI."""
    import gravidec.cli

    return gravidec.cli.main(args)


# ------------------------------------------------------- library: oracle battery

#: Parameter-set seed of ``oracle-check --preset standard``, which draws 70
#: sets with 175 modes in all. The benchmark seed picks the Monte Carlo
#: streams only: other parameter seeds draw 68-85 sets with 171-219 modes,
#: which would move a pass's work by about 8% from seed to seed.
BATTERY_SEED = 20240811


def _oracle_build(seed: int, in_process: bool) -> list[Op]:
    mc_seed = int(_rng(seed, 1).integers(0, 2**31 - 1))
    args = ["oracle-check", "--preset", "standard", "--seed", str(BATTERY_SEED),
            "--mc-seed", str(mc_seed)]

    def run(path: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return _cli_main(args + ["--output", path])

    def check(code: int, path: str) -> list[str]:
        # Exit 1 is the CLI's all-or-nothing 3-sigma gate, which trips on
        # ~17% of fresh streams; the report is judged by checks.oracle_report.
        if code not in (0, 1):
            return [f"oracle-check exited {code}"]
        with open(path) as fh:
            return checks.oracle_report(json.load(fh))

    return [Op("oracle_check", run, check, writes=True)]


def _oracle_warm_up(workdir: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        _cli_main(["oracle-check", "--cases", "1", "--samples", "64",
                   "--output", os.path.join(workdir, "warm.json")])


# ------------------------------------------------------ library: master equation

#: |omega dt| bound of every run with a Hamiltonian, omega the spectral
#: radius of H / hbar on the grid: RK4 and Strang are then converged far
#: below REF_ATOL (reference.json records each run's dt error, <= 1.1e-8).
OMEGA_DT = 0.05


def me_params(rng, form: str, kind: str, m: int, steps: int) -> dict:
    """Draw one evolution run; dt keeps |omega dt| <= OMEGA_DT on the grid."""
    temperature = _log_uniform(rng, 100.0, 1000.0)
    decay = float(rng.uniform(0.5, 2.0))  # dephasing exponent reached at t_final
    if kind == "none":
        mass, sep = 0.0, _log_uniform(rng, 1e-4, 1e-2)
        t_final = _log_uniform(rng, 1e-7, 1e-5)
        dt = t_final / steps
    else:
        mass, sep = _log_uniform(rng, 3e-25, 3e-24), _log_uniform(rng, 5e-7, 2e-6)
        spacing = sep / round(sep / (2.0 * sep / (m - 1)))  # two_point_superposition's
        omega = (C.hbar * (math.pi / spacing) ** 2 / (2.0 * mass)
                 + mass * C.g_earth * (m - 1) * spacing / C.hbar)
        dt = OMEGA_DT / omega
        t_final = steps * dt
    lam = 2.0 * decay / (sep * t_final) ** 2
    n_modes = lam / checks.dephasing_lambda(1.0, temperature, C.g_earth, CONSTS)
    return {"form": form, "kind": kind, "m": m, "steps": steps, "dt": dt, "mass": mass,
            "sep": sep, "temperature": temperature, "n_modes": n_modes}


def evolution(p: dict, store_every: int):
    """evolve + extract_visibility for one run; returns (result, curve)."""
    rho0 = gd.DensityMatrixGrid.two_point_superposition(0.0, p["sep"], n_points=p["m"])
    ham = gd.CMHamiltonianSpec(kind=p["kind"], mass=p["mass"], g=C.g_earth)
    cfg = gd.EvolutionConfig(
        dt=p["dt"], t_final=p["steps"] * p["dt"],
        lambda_coefficient=gd.dephasing_coefficient(p["n_modes"], p["temperature"], C.g_earth, C),
        form=p["form"], store_every=store_every,
    )
    result = gd.evolve(rho0, ham, cfg, C)
    return result, gd.extract_visibility(result)


def raw_visibility(result) -> np.ndarray:
    """2|rho_pair(t)|, normalised by its t = 0 value, before any clipping."""
    v = 2.0 * np.abs(result.coherence)
    return v / v[0]


def checkpoints(steps: int) -> list[int]:
    return list(range(0, steps + 1, steps // 8))


def _state_checks(name: str, result, snapshots) -> list[str]:
    """Trace 1, Hermitian, 0 <= V <= 1; and no negative population for the
    Markovian form, whose every step is a positive map. The second-order
    full-memory (TCL) form does not promise positivity, so it is not held
    to it."""
    bad = []
    positive = result.form == "markovian"
    for k, rho in enumerate(snapshots):
        trace = float(np.trace(rho).real)
        herm = float(np.max(np.abs(rho - rho.conj().T)))
        low = float(np.min(rho.diagonal().real))
        if abs(trace - 1.0) > 1e-10 or herm > 1e-12 or (positive and low < -1e-12):
            bad.append(f"{name}: snapshot {k} trace-1={trace - 1:.3g} herm={herm:.3g} "
                       f"min diag={low:.3g}")
    v = raw_visibility(result)
    if not (np.all(np.isfinite(v)) and np.min(v) >= 0.0 and np.max(v) <= 1.0 + 1e-12):
        bad.append(f"{name}: visibility leaves [0, 1]: max {np.max(v)!r}")
    return bad


#: Absolute tolerance on V at the checkpoints of runs (a) and (b) against the
#: converged references; reference.json records each run's own dt error.
REF_ATOL = 1e-6

#: V of a kind="none" run against exp(-Lambda dx^2 t^2 / 2).
GAUSS_ATOL = 1e-12


def _me_build(seed: int, in_process: bool) -> list[Op]:
    rng = _rng(seed, 2)
    with open(HERE / "reference.json") as fh:
        refs = json.load(fh)
    ops = []

    def stored(run: str) -> Op:
        entry = refs[run][int(rng.integers(len(refs[run])))]
        p = entry["params"]

        def check(out, path):
            result, _ = out
            bad = _state_checks(run, result, result.snapshots)
            v = raw_visibility(result)[checkpoints(p["steps"])]
            err = float(np.max(np.abs(v - np.array(entry["v_ref"]))))
            if err > REF_ATOL:
                bad.append(f"{run}: |V - V_ref| = {err:.3g} > {REF_ATOL}")
            return bad

        return Op(f"{run}_{p['form']}_m{p['m']}", lambda path: evolution(p, p["steps"]), check)

    ops.append(stored("a"))
    ops.append(stored("b"))
    for form in ("markovian", "full_memory"):
        p = me_params(rng, form, "none", 2, 20_000)

        def check(out, path, p=p):
            result, _ = out
            bad = _state_checks(f"c_{p['form']}", result, result.snapshots)
            lam = checks.dephasing_lambda(p["n_modes"], p["temperature"], C.g_earth, CONSTS)
            law = np.exp(-0.5 * lam * p["sep"] ** 2 * result.times**2)
            err = float(np.max(np.abs(raw_visibility(result) - law)))
            if err > GAUSS_ATOL:
                bad.append(f"c_{p['form']}: |V - Gaussian law| = {err:.3g} > {GAUSS_ATOL}")
            return bad

        ops.append(Op(f"c_{form}_m2", lambda path, p=p: evolution(p, p["steps"]), check))

    p_d = me_params(rng, "markovian", "free_plus_linear", 128, 300)

    def run_d(path):
        result, curve = evolution(p_d, 3)
        gd.save_snapshots(path, result.snapshot_times, result.x, result.snapshots)
        return result, curve

    def check_d(out, path):
        result, _ = out
        bad = _state_checks("d", result, result.snapshots)
        n, m = result.snapshots.shape[:2]
        with open(path, "rb") as fh:
            head = fh.read(24)
        if os.path.getsize(path) != 40 + n * (8 + 16 * m * m) or head[:8] != b"GDSNAP01" \
                or struct.unpack("<qq", head[8:24]) != (n, m):
            bad.append(f"d: snapshot file {os.path.getsize(path)} B does not hold {n} x {m}^2")
        if n != 101:
            bad.append(f"d: {n} snapshots stored, expected 101")
        return bad

    ops.append(Op("d_markovian_m128_snapshots", run_d, check_d))
    return ops


def _me_warm_up(workdir: str) -> None:
    rng = _rng(0, 0)
    for form in ("markovian", "full_memory"):
        evolution(me_params(rng, form, "free_plus_linear", 8, 2), 1)


# --------------------------------------------------------- library: closed forms

def _cf_build(seed: int, in_process: bool) -> list[Op]:
    rng = _rng(seed, 3)
    g = C.g_earth
    temperature = _log_uniform(rng, 100.0, 1000.0)
    freqs = (C.k_B * temperature / C.hbar) * np.exp(
        rng.uniform(math.log(0.05), math.log(5.0), 10_000))
    spec = gd.InternalStateSpec.from_frequencies(freqs, temperature)
    n = checks.nbar(freqs, temperature, CONSTS)
    # small-angle estimate: V(dtau_final) ~ exp(-decay)
    dtau_final = math.sqrt(2.0 * rng.uniform(1.0, 2.0) / float(np.sum(n * (n + 1) * freqs**2)))
    dx = _log_uniform(rng, 1e-4, 1e-2)
    times = np.linspace(0.0, dtau_final * C.c**2 / (g * dx), 200)
    dtaus = np.linspace(0.0, dtau_final, 50)
    n_modes = _log_uniform(rng, 1e22, 1e24)
    t_hi = np.linspace(0.0, 3.0 * checks.tau_dec(n_modes, temperature, dx, g, CONSTS), 100_000)
    ops = []

    def check_exact(curve, path):
        idx = np.linspace(0, times.size - 1, 8).astype(int)
        bad = []
        for i in idx:
            chi = abs(gd.internal_characteristic_function(spec, times[i] * g * dx / C.c**2, C))
            if checks.rel_err(curve.values[i], chi) > checks.REL_CLOSED_FORM:
                bad.append(f"exact-product V({times[i]:.3g}) = {curve.values[i]!r}, "
                           f"|chi| = {chi!r}")
        return bad

    ops.append(Op("exact_product_curve", lambda path: gd.visibility_curve(
        "exact-product", times, float(freqs.size), temperature, dx, g, C, frequencies=freqs),
        check_exact))

    def check_semi(values, path):
        ref = checks.product_law(freqs, temperature, dtaus, CONSTS)
        err = max(checks.rel_err(v, r) for v, r in zip(values, ref))
        return [] if err <= 1e-10 else [f"semiclassical vs product law: rel err {err:.3g}"]

    ops.append(Op("semiclassical_50", lambda path: [
        gd.semiclassical_visibility(spec, float(d), C) for d in dtaus], check_semi))

    th = checks.theta(temperature, g, dx, t_hi, CONSTS)
    log_gauss = -((t_hi / checks.tau_dec(n_modes, temperature, dx, g, CONSTS)) ** 2)

    def check_highT(curve, path):
        # ln V_highT - ln V_gauss = -N/2 (log1p(th^2) - th^2), |.| <= N th^4 / 4
        gap = np.abs(np.log(curve.values) - log_gauss)
        allowed = n_modes * th**4 / 4.0 + checks.REL_CLOSED_FORM * (1.0 + np.abs(log_gauss))
        worst = int(np.argmax(gap - allowed))
        if gap[worst] > allowed[worst]:
            return [f"high-T vs Gaussian at theta={th[worst]:.3g}: "
                    f"{gap[worst]:.3g} > {allowed[worst]:.3g}"]
        return []

    def check_gauss(curve, path):
        err = float(np.max(np.abs(curve.values - np.exp(log_gauss))))
        return [] if err <= checks.REL_CLOSED_FORM else [f"gaussian curve off by {err:.3g}"]

    ops.append(Op("highT_curve", lambda path: gd.visibility_curve(
        "high-T", t_hi, n_modes, temperature, dx, g, C), check_highT))
    ops.append(Op("gaussian_curve", lambda path: gd.visibility_curve(
        "gaussian", t_hi, n_modes, temperature, dx, g, C), check_gauss))

    n_regime = 1e23 * rng.uniform(0.5, 1.0)
    sigma = gd.power_law_cross_section(3e-22 * rng.uniform(1.0, 3.0), 1e7, 0.0)
    seps = np.geomspace(1e-6, 1e-2, 64)
    temps = np.geomspace(100.0, 600.0, 64)

    def run_regime(path):
        return gd.regime_scan("delta_x", seps, temps,
                              lambda t: gd.blackbody_emission_model(t, sigma, C), g, C,
                              n_modes=n_regime)

    def check_regime(rmap, path):
        bad = []
        for j, temp in enumerate(temps):
            flags = list(rmap.flags[:, j])
            switch = [i for i in range(1, len(flags)) if flags[i] != flags[i - 1]]
            star = gd.crossover_separation(
                n_regime, float(temp), g, gd.blackbody_emission_model(float(temp), sigma, C), C)
            # time dilation wins below the crossover, emission above it
            if (len(switch) != 1 or flags[0] != "time_dilation" or flags[-1] != "emission"
                    or not seps[switch[0] - 1] <= star * (1 + 1e-9)
                    or not star * (1 - 1e-9) <= seps[switch[0]]):
                bad.append(f"regime column T={temp:.4g}: switches at {switch}, "
                           f"crossover {star:.4g}")
        return bad

    ops.append(Op("regime_64x64", run_regime, check_regime))

    def check_kernel(k, path):
        e0 = float(np.sum(C.hbar * freqs * n))
        var = float(np.sum((C.hbar * freqs) ** 2 * n * (n + 1)))
        got = (k.mean_energy, k.energy_variance, k.decoherence)
        want = (e0, var, var / (C.hbar * C.c**2) ** 2)
        return [f"memory kernel {a!r} vs {b!r}" for a, b in zip(got, want)
                if checks.rel_err(a, b) > checks.REL_CLOSED_FORM]

    ops.append(Op("memory_kernel_1e4", lambda path: gd.memory_kernel_coefficients(spec, C),
                  check_kernel))

    samples = 1_000_000
    t_pt = float(rng.uniform(0.5, 2.0))
    d_pt = float(rng.uniform(0.5, 2.0))
    t = np.linspace(0.0, t_pt, samples)
    static = gd.TrajectoryPair.static(0.0, d_pt, t_pt, samples)
    fall = -0.5 * g * t * t
    homog = gd.TrajectoryPair(t, fall, -g * t, d_pt + fall, -g * t)
    earth = 5.972e24
    r0 = 6.371e6 + float(rng.uniform(0.0, 1e5))
    acc = C.G * earth / r0**2
    x_a = r0 - 0.5 * acc * t * t
    schw = gd.TrajectoryPair(t, x_a, -acc * t, x_a + d_pt, -acc * t)
    lab = g * d_pt * t_pt / C.c**2
    # Reference for the Schwarzschild arms: Gauss-Legendre on GM dx / (x_a x_b),
    # free of the cancellation in phi(x_b) - phi(x_a) that costs the
    # trapezoid ~eps r0 / dx of relative accuracy.
    nodes, weights = np.polynomial.legendre.leggauss(64)
    tq = 0.5 * t_pt * (nodes + 1.0)
    xq = r0 - 0.5 * acc * tq * tq
    integrand = C.G * earth * d_pt / (xq * (xq + d_pt))
    schw_ref = float(0.5 * t_pt * np.sum(weights * integrand)) / C.c**2
    schw_tol = 8.0 * np.finfo(float).eps * r0 / d_pt + 1e-12

    def pt_op(name, pair, potential, ref, tol):
        def check(dtau, path):
            err = checks.rel_err(dtau, ref)
            if err <= tol:
                return []
            return [f"{name}: dtau {dtau!r} vs {ref!r} (rel {err:.3g} > {tol:.3g})"]

        return Op(name, lambda path: gd.proper_time_difference(pair, potential, C), check)

    ops.append(pt_op("propertime_static", static, gd.HomogeneousPotential(g), lab, 1e-12))
    ops.append(pt_op("propertime_falling_homogeneous", homog, gd.HomogeneousPotential(g),
                     lab, 1e-12))
    ops.append(pt_op("propertime_falling_schwarzschild", schw,
                     gd.SchwarzschildWeakPotential(earth), schw_ref, schw_tol))
    return ops


def _cf_warm_up(workdir: str) -> None:
    spec = gd.InternalStateSpec.from_frequencies((3e11, 7e11), 120.0)
    gd.visibility_curve("exact-product", np.linspace(0, 1e-3, 4), 2.0, 120.0, 1e-3,
                        C.g_earth, C, frequencies=spec.frequencies)
    gd.visibility_curve("high-T", np.linspace(0, 1e-6, 4), 1e23, 300.0, 1e-3, C.g_earth, C)
    gd.semiclassical_visibility(spec, 1e-13, C)
    gd.memory_kernel_coefficients(spec, C)
    sigma = gd.power_law_cross_section(3e-22, 1e7, 0.0)
    gd.regime_scan("delta_x", np.geomspace(1e-6, 1e-2, 2), np.array([300.0]),
                   lambda t: gd.blackbody_emission_model(t, sigma, C), C.g_earth, C,
                   n_modes=1e23)
    gd.proper_time_difference(gd.TrajectoryPair.static(6.4e6, 6.4e6 + 1.0, 1.0, 4),
                              gd.SchwarzschildWeakPotential(5.972e24 / 1e6), C)


# ------------------------------------------------------------------- cli_readme

#: Passes repeat the command list this many times; repeats must match bytes.
CLI_REPEATS = 3


def cli_commands(seed: int) -> list[tuple[str, list[str]]]:
    """README examples; the seed orders them and scales the physical inputs
    of all but the two tau examples (the first must give ~1.04e-6 s)."""
    rng = _rng(seed, 4)
    n = repr(1e23 * rng.uniform(0.5, 1.0))
    temp = repr(300.0 * rng.uniform(0.8, 1.25))
    cmds = [
        ("tau", ["tau", "--N", "1e23", "--T", "300", "--dx", "1e-3"]),
        ("tau_hawking", ["tau", "--N", "1e23", "--dx", "1e-9", "--central-mass", "9.945e30",
                         "--radius", "1.5e4", "--hawking"]),
        ("visibility_point", ["visibility", "--dtau", "0", "--N", n, "--T", temp]),
        ("visibility_curve", ["visibility", "--law", "high-T", "--N", n, "--T", temp,
                              "--dx", "1e-3", "--t-final", "2e-6"]),
        ("evolve", ["evolve", "--x1", "0", "--x2", repr(1e-3 * rng.uniform(0.5, 1.5)),
                    "--n-points", "2", "--N", n, "--T", temp, "--dt", "1e-8",
                    "--t-final", "1e-6"]),
        ("regime", ["regime", "--axis1", "delta-x", "--axis1-min", "1e-6", "--axis1-max", "1e-2",
                    "--t-min", "100", "--t-max", "600", "--n-modes", n,
                    "--sigma0", repr(3e-22 * rng.uniform(1.0, 3.0)), "--k0", "1e7"]),
        ("propertime", ["propertime", "--x1", "0", "--x2", repr(rng.uniform(0.5, 2.0)),
                        "--t-final", repr(rng.uniform(0.5, 2.0))]),
    ]
    order = rng.permutation(len(cmds))
    return [cmds[i] for i in order]


def _param(args: list[str], flag: str) -> float:
    return float(args[args.index(flag) + 1])


def check_cli_output(name: str, args: list[str], text: str) -> list[str]:
    """Parse one command's output and compare it with the law it reports,
    evaluated with the constants the output records."""
    if args[0] in ("tau", "propertime"):
        doc = json.loads(text)
        res, k = doc["results"], doc["constants"]
    else:
        meta, header, rows = checks.parse_csv(text)
        k = meta["constants"]
        cols = {h: [r[i] for r in rows] for i, h in enumerate(header)}
    if name == "tau":
        tau = res["tau_dec"]
        ref = checks.tau_dec(1e23, 300.0, 1e-3, k["g_earth"], k)
        if checks.rel_err(tau, ref) > checks.REL_CLOSED_FORM or checks.rel_err(tau, 1.04e-6) > 5e-3:
            return [f"tau {tau!r}: formula {ref!r}, README ~1.04e-6 s"]
    elif name == "tau_hawking":
        mass, radius = 9.945e30, 1.5e4
        t_h = k["hbar"] * k["c"] ** 3 / (8 * math.pi * k["k_B"] * k["G"] * mass)
        r_s = 2 * k["G"] * mass / k["c"] ** 2
        ref = math.sqrt(8 / 1e23) * k["hbar"] * radius**2 / (k["k_B"] * t_h * r_s * 1e-9)
        if checks.rel_err(res["tau_dec"], ref) > checks.REL_CLOSED_FORM:
            return [f"hawking tau {res['tau_dec']!r} vs {ref!r}"]
    elif name == "visibility_point":
        if [float(v) for v in cols["visibility"]] != [1.0]:
            return [f"V(dtau=0) = {cols['visibility']}"]
    elif name == "visibility_curve":
        t = np.array(cols["t"], dtype=float)
        v = np.array(cols["visibility"], dtype=float)
        n_modes = _param(args, "--N")
        th = checks.theta(_param(args, "--T"), k["g_earth"], 1e-3, t, k)
        ref = np.exp(-0.5 * n_modes * np.log1p(th * th))
        if t.size != 200 or np.max(np.abs(v - ref) / ref) > checks.REL_CLOSED_FORM:
            return [f"high-T curve: {t.size} rows, max rel err {np.max(np.abs(v - ref) / ref):.3g}"]
    elif name == "evolve":
        t = np.array(cols["t"], dtype=float)
        v = np.array(cols["visibility"], dtype=float)
        lam = checks.dephasing_lambda(_param(args, "--N"), _param(args, "--T"), k["g_earth"], k)
        ref = np.exp(-0.5 * lam * _param(args, "--x2") ** 2 * t * t)
        if t.size != 101 or np.max(np.abs(v - ref)) > GAUSS_ATOL:
            return [f"evolve: {t.size} rows, max |V - Gaussian law| {np.max(np.abs(v - ref)):.3g}"]
    elif name == "regime":
        a1 = np.array(cols["axis1"], dtype=float)
        a2 = np.array(cols["axis2"], dtype=float)
        td = np.array(cols["tau_dec"], dtype=float)
        te = np.array(cols["tau_em"], dtype=float)
        flags = cols["flag"]
        bad = []
        n_modes = _param(args, "--n-modes")
        ref = np.array([checks.tau_dec(n_modes, b, a, k["g_earth"], k) for a, b in zip(a1, a2)])
        if a1.size != 256 or np.max(np.abs(td - ref) / ref) > checks.REL_CLOSED_FORM:
            bad.append("regime: tau_dec off the Gaussian-timescale law")
        if any(f != ("time_dilation" if d < e else "emission") for f, d, e in zip(flags, td, te)):
            bad.append("regime: a flag disagrees with its own timescales")
        for temp in sorted(set(a2)):
            col = [f for f, b in zip(flags, a2) if b == temp]
            if sum(col[i] != col[i - 1] for i in range(1, len(col))) > 1:
                bad.append(f"regime: column T={temp:.4g} crosses over more than once")
        return bad
    elif name == "propertime":
        ref = k["g_earth"] * _param(args, "--x2") * _param(args, "--t-final") / k["c"] ** 2
        if checks.rel_err(res["delta_tau"], ref) > checks.REL_CLOSED_FORM:
            return [f"propertime dtau {res['delta_tau']!r} vs {ref!r}"]
    return []


def _cli_build(seed: int, in_process: bool) -> list[Op]:
    ops = []
    for name, args in cli_commands(seed):
        def run(path, args=args):
            if in_process:
                return _cli_main(args + ["--output", path])
            proc = subprocess.run([sys.executable, "-m", "gravidec.cli", *args, "--output", path],
                                  capture_output=True, text=True)
            return proc.returncode

        def check(code, path, name=name, args=args):
            if code != 0:
                return [f"{name} exited {code}"]
            with open(path) as fh:
                return check_cli_output(name, args, fh.read())

        ops.append(Op(name, run, check, writes=True))
    return ops * CLI_REPEATS


def _cli_warm_up(workdir: str) -> None:
    subprocess.run([sys.executable, "-m", "gravidec.cli", "tau", "--N", "1e23", "--T", "300",
                    "--dx", "1e-3", "--output", os.path.join(workdir, "warm.json")],
                   capture_output=True, check=True)


def _library_build(seed: int, in_process: bool) -> list[Op]:
    return (_oracle_build(seed, in_process) + _me_build(seed, in_process)
            + _cf_build(seed, in_process))


def _library_warm_up(workdir: str) -> None:
    _oracle_warm_up(workdir)
    _me_warm_up(workdir)
    _cf_warm_up(workdir)


WORKLOADS = {
    "library": Workload(_library_build, _library_warm_up),
    "cli_readme": Workload(_cli_build, _cli_warm_up),
}
