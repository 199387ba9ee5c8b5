"""End-to-end acceptance gate.

One test per headline requirement, named so that ``pytest -v`` emits a single
pass/fail line per criterion. Each test prints the measured quantities it
judged, so a verbose run doubles as a numerical report.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from gravidec import (
    CMHamiltonianSpec,
    DensityMatrixGrid,
    EvolutionConfig,
    HomogeneousPotential,
    InternalStateSpec,
    OracleConfig,
    SOLAR_MASS,
    SchwarzschildSpec,
    TrajectoryPair,
    blackbody_emission_model,
    crossover_separation,
    decoherence_time,
    decoherence_time_schwarzschild,
    default_constants,
    dephasing_coefficient,
    dominant_mechanism,
    evolve_full_memory,
    evolve_markovian,
    exact_visibility,
    gaussian_visibility,
    highT_visibility,
    power_law_cross_section,
    proper_time_difference,
    run_oracle_battery,
    semiclassical_visibility,
    tau_emission,
    two_point_unitary_oracle,
    visibility_curve,
)
from gravidec.emission import tabulated_emission_model
from gravidec.oracles import tally_verdicts

CONSTS = default_constants()
NO_HAMILTONIAN = CMHamiltonianSpec(kind="none")


def test_criterion_01_lab_timescale_near_one_microsecond():
    tau = decoherence_time(1e23, 300.0, 1e-3, 9.81, CONSTS)
    print(f"tau_dec(N=1e23, T=300 K, dx=1 mm, g=9.81) = {tau:.12e} s")
    assert 0.9e-6 <= tau <= 1.1e-6
    assert math.isclose(tau, 1.04317944179253e-06, rel_tol=1e-3)


def test_criterion_02_horizon_scale_timescale_near_one_nanosecond():
    mass = 5.0 * SOLAR_MASS
    r_s = SchwarzschildSpec(mass, 1e12).schwarzschild_radius(CONSTS)
    with pytest.warns(UserWarning):
        tau = decoherence_time_schwarzschild(
            1e23, 1.0, 1e-9, SchwarzschildSpec(mass, r_s), CONSTS
        )
    print(f"tau_dec at R = R_s = {r_s:.6f} m: {tau:.12e} s")
    assert 0.5e-9 <= tau <= 2.0e-9


def test_criterion_03_oracle_equivalence_on_fifty_sets():
    start = time.perf_counter()
    cases = run_oracle_battery(50, OracleConfig(n_samples=1_000_000, seed=0), CONSTS)
    elapsed = time.perf_counter() - start

    summary, per_case = tally_verdicts(cases, mc_sigmas=3.0, det_atol=1e-6)
    for case, (verdicts, case_ok) in zip(cases, per_case):
        assert case_ok, (verdicts, case.frequencies, case.temperature, case.delta_tau)
    valid = {name: row["valid"] for name, row in summary.items()}
    print(
        f"{len(cases)} sets in {elapsed:.1f} s; valid per oracle {valid}; "
        f"max |error| mc={summary['mc']['max_abs_err']:.3e} "
        f"fock={summary['fock']['max_abs_err']:.3e} "
        f"tensor={summary['tensor']['max_abs_err']:.3e}"
    )
    assert min(valid.values()) >= 50
    assert elapsed < 120.0


def test_criterion_04_high_temperature_collapse():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(20):
        n_modes = int(rng.integers(1, 5))
        temperature = float(10 ** rng.uniform(1.0, 3.0))
        # hbar w / k_B T <= 1e-3 and |w dtau| <= 1e-3 for every mode
        xs = 10 ** rng.uniform(-5.0, -3.0, n_modes)
        freqs = tuple(float(x * CONSTS.k_B * temperature / CONSTS.hbar) for x in xs)
        delta_tau = float(rng.uniform(0.1, 1.0) * 1e-3 / max(freqs))
        spec = InternalStateSpec.from_frequencies(freqs, temperature)
        marker = InternalStateSpec.high_temperature_limit(float(n_modes), temperature)
        ln_exact = math.log(exact_visibility(spec, delta_tau, CONSTS))
        ln_hight = math.log(semiclassical_visibility(marker, delta_tau, CONSTS))
        rel = abs(ln_exact - ln_hight) / abs(ln_hight)
        worst = max(worst, rel)
        assert rel <= 1e-2, (freqs, temperature, delta_tau, rel)
    print(f"20-point sweep: worst relative log-visibility gap = {worst:.3e}")


def test_criterion_05_markovian_decay_is_gaussian():
    n, temperature, g, separation = 1e23, 300.0, 9.81, 1e-3
    lam = dephasing_coefficient(n, temperature, g, CONSTS)
    for m in (2, 256):
        grid = DensityMatrixGrid.two_point_superposition(0.0, separation, n_points=m)
        i, j = grid.pair
        sep_actual = float(grid.x[j] - grid.x[i])
        tau = math.sqrt(2.0 / lam) / sep_actual
        dt = tau / 100.0
        cfg = EvolutionConfig(dt=dt, t_final=200 * dt, lambda_coefficient=lam)
        result = evolve_markovian(grid, NO_HAMILTONIAN, cfg, CONSTS)
        v = 2.0 * np.abs(result.coherence)
        t = result.times
        minus_ln = -np.log(v[1:])
        reference = (t[1:] / tau) ** 2
        rel = np.max(np.abs(minus_ln - reference) / reference)
        slope = np.polyfit(np.log(t[1:]), np.log(minus_ln), 1)[0]
        print(f"M={m:3d}: max rel error in -ln V = {rel:.3e}, exponent = {slope:.6f}")
        assert rel <= 1e-3
        assert abs(slope - 2.0) <= 0.02


def test_criterion_06_memory_kernel_matches_markovian():
    n, temperature, g, separation = 1e23, 300.0, 9.81, 1e-3
    lam = dephasing_coefficient(n, temperature, g, CONSTS)
    tau = math.sqrt(2.0 / lam) / separation
    dt = tau / 200.0
    grid = DensityMatrixGrid.two_point_superposition(0.0, separation)
    cfg_m = EvolutionConfig(dt=dt, t_final=400 * dt, lambda_coefficient=lam)
    cfg_f = EvolutionConfig(dt=dt, t_final=400 * dt, lambda_coefficient=lam,
                            form="full_memory")
    v_m = 2.0 * np.abs(evolve_markovian(grid, NO_HAMILTONIAN, cfg_m, CONSTS).coherence)
    v_f = 2.0 * np.abs(evolve_full_memory(grid, NO_HAMILTONIAN, cfg_f, CONSTS).coherence)
    rel = np.max(np.abs(np.log(v_f[1:]) - np.log(v_m[1:])) / np.abs(np.log(v_m[1:])))
    print(f"dt = tau/200: max rel difference in -ln V = {rel:.3e}")
    assert rel <= 1e-3


def test_criterion_07_off_diagonal_phase():
    w = math.log(2.0) * CONSTS.k_B * 300.0 / CONSTS.hbar  # nbar = 1 at 300 K
    cold = InternalStateSpec.from_frequencies((w,), 0.0)
    mass, g, dx, t = 1e-26, 9.81, 1e-3, 1e-6
    v0, phase0 = two_point_unitary_oracle(cold, 0.0, dx, 0.0, g, OracleConfig(), CONSTS,
                                          mass=mass)
    assert v0 == pytest.approx(1.0, abs=1e-12) and phase0 == 0.0

    v, phase = two_point_unitary_oracle(cold, 0.0, dx, t, g, OracleConfig(), CONSTS,
                                        mass=mass)
    expected = mass * g * dx * t / CONSTS.hbar
    diff = (phase - expected + math.pi) % (2.0 * math.pi) - math.pi
    print(f"phase = {phase:.12f} rad, m g dx t / hbar = {expected:.12f} rad, "
          f"wrapped difference = {diff:.3e}")
    assert v == pytest.approx(1.0, abs=1e-12)
    assert abs(diff) <= 1e-9


def test_criterion_08_exact_scaling_ratios():
    rng = np.random.default_rng(83)
    k_grid = np.linspace(1e6, 2e6, 64)
    model = tabulated_emission_model(
        k_grid, np.ones_like(k_grid), 1e-30 / k_grid**2, label="flat-rate"
    )
    for _ in range(25):
        n = float(10 ** rng.uniform(10, 25))
        temperature = float(10 ** rng.uniform(0.5, 3))
        g = float(10 ** rng.uniform(-1, 2))
        dx = float(10 ** rng.uniform(-9, -2))
        assert (
            decoherence_time(n, temperature, dx, g, CONSTS)
            / decoherence_time(n, temperature, 2.0 * dx, g, CONSTS)
            == 2.0
        )
        assert (
            decoherence_time(n, temperature, dx, g, CONSTS)
            / decoherence_time(4.0 * n, temperature, dx, g, CONSTS)
            == 2.0
        )
        assert tau_emission(dx, model, CONSTS) / tau_emission(2.0 * dx, model, CONSTS) == 4.0
    print("25 random parameter sets: tau(dx)/tau(2dx) == 2, tau(N)/tau(4N) == 2, "
          "tau_em(dx)/tau_em(2dx) == 4, all exact")


def test_criterion_09_proper_time_integrator():
    g, dx, t_final = 9.81, 1e-3, 0.5
    pair = TrajectoryPair.static(0.0, dx, t_final, 401)
    dtau = proper_time_difference(pair, HomogeneousPotential(g), CONSTS)
    expected = g * dx * t_final / CONSTS.c**2
    static_rel = abs(dtau - expected) / expected
    assert static_rel <= 1e-12

    amp, omega, t_end = 0.01, 2.0 * math.pi, 0.37  # partial period: h^2 term visible
    pot = HomogeneousPotential(g)

    def oscillating(n: int) -> float:
        t = np.linspace(0.0, t_end, n)
        x_b = amp * np.sin(omega * t)
        v_b = amp * omega * np.cos(omega * t)
        z = np.zeros_like(t)
        return proper_time_difference(TrajectoryPair(t, z, z, x_b, v_b), pot, CONSTS)

    reference = oscillating(40001)
    errors = [abs(oscillating(n) - reference) for n in (101, 201, 401, 801)]
    ratios = [errors[k] / errors[k + 1] for k in range(len(errors) - 1)]
    print(f"static arms: rel error = {static_rel:.3e}; "
          f"halving ratios = {[f'{r:.2f}' for r in ratios]}")
    assert all(r >= 3.5 for r in ratios)


def test_criterion_10_unique_crossover_and_consistent_flags():
    sigma = power_law_cross_section(3e-22, 1e7, 0.0)
    n, g = 1e23, 9.81
    separations = np.geomspace(1e-6, 1e-2, 24)
    temperatures = np.geomspace(100.0, 600.0, 5)
    n_flips = 0
    for temperature in temperatures:
        model = blackbody_emission_model(float(temperature), sigma, CONSTS)
        flags, tau_d, tau_e = [], [], []
        for dx in separations:
            flag, td, te = dominant_mechanism(n, float(temperature), float(dx), g,
                                              model, CONSTS)
            flags.append(flag)
            tau_d.append(td)
            tau_e.append(te)
            if flag != "boundary":  # flags must mirror the stored timescales
                assert flag == ("time_dilation" if td < te else "emission")
        flips = [k for k in range(1, len(flags)) if flags[k] != flags[k - 1]]
        assert len(flips) <= 1
        if flips:
            n_flips += 1
            k = flips[0]
            assert flags[0] == "time_dilation" and flags[-1] == "emission"
            dx_star = crossover_separation(n, float(temperature), g, model, CONSTS)
            assert separations[k - 1] < dx_star < separations[k]
            print(f"T = {temperature:7.2f} K: unique crossover at dx* = {dx_star:.4e} m")
    assert n_flips >= 1


def test_criterion_11_invariant_suite():
    rng = np.random.default_rng(97)

    # closed-form laws: V in [0, 1], V(0) = 1, even in the sign of dtau
    for _ in range(60):
        n_modes = int(rng.integers(1, 5))
        temperature = float(10 ** rng.uniform(0.5, 3))
        freqs = tuple(
            float(10 ** rng.uniform(11, 13)) for _ in range(n_modes)
        )
        spec = InternalStateSpec.from_frequencies(freqs, temperature)
        dtau = float(rng.uniform(-1.0, 1.0) / max(freqs))
        v = exact_visibility(spec, dtau, CONSTS)
        assert 0.0 <= v <= 1.0
        assert exact_visibility(spec, 0.0, CONSTS) == 1.0
        n_eff = float(10 ** rng.uniform(3, 23))
        t = float(rng.uniform(0.0, 1e-5))
        for law in (highT_visibility, gaussian_visibility):
            value = law(n_eff, temperature, 1e-3, 9.81, t, CONSTS)
            assert 0.0 <= value <= 1.0
            assert law(n_eff, temperature, 1e-3, 9.81, 0.0, CONSTS) == 1.0

    # degenerate parameters switch decoherence off entirely
    times = np.linspace(0.0, 1.0, 7)
    for n_modes, temperature, delta_x in ((0.0, 300.0, 1e-3), (1e23, 0.0, 1e-3),
                                          (1e23, 300.0, 0.0)):
        assert decoherence_time(n_modes, temperature, delta_x, 9.81, CONSTS) == math.inf
        curve = visibility_curve("high-T", times, n_modes, temperature, delta_x,
                                 9.81, CONSTS)
        assert np.all(curve.values == 1.0)
    cold = InternalStateSpec.from_frequencies((1e12, 3e12), 0.0)
    assert exact_visibility(cold, 1e-6, CONSTS) == 1.0

    # dephasing preserves trace and Hermiticity and never moves population
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    grid = DensityMatrixGrid(x=np.linspace(0.0, 5e-3, 6), rho=rho, pair=(0, 5))
    cfg = EvolutionConfig(dt=1e-2, t_final=0.5, lambda_coefficient=3e5, store_every=10)
    result = evolve_markovian(grid, NO_HAMILTONIAN, cfg, CONSTS)
    for snap in result.snapshots:
        assert abs(np.sum(snap.diagonal()).real - 1.0) < 1e-12
        assert np.max(np.abs(snap - snap.conj().T)) < 1e-12
        assert np.max(np.abs(snap.diagonal() - rho.diagonal())) < 1e-14
    print("60 random closed-form sets, 3 degenerate limits, and a 6-point "
          "dephasing run all satisfy the invariants")
