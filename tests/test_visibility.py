from __future__ import annotations

import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import SOLAR_MASS

import gravidec.internal_state as internal_state_module
from gravidec import (
    InternalStateSpec,
    PhysicalConstants,
    SchwarzschildSpec,
    VisibilityCurve,
    decoherence_time,
    decoherence_time_schwarzschild,
    default_constants,
    exact_visibility,
    gaussian_visibility,
    hawking_temperature,
    highT_visibility,
    internal_characteristic_function,
    thermal_occupation,
    visibility_curve,
)
from gravidec.errors import DomainError
from gravidec.visibility import proper_time_lab

CONSTS = default_constants()


def _omega_for_nbar(nbar: float, temperature: float) -> float:
    """Angular frequency at which a thermal mode has the requested occupation."""
    return math.log1p(1.0 / nbar) * CONSTS.k_B * temperature / CONSTS.hbar


def test_exact_visibility_single_mode_frozen():
    # nbar = 1, omega*dtau = 0.2: V = (1 + 8 sin^2 0.1)^(-1/2)
    w = _omega_for_nbar(1.0, 300.0)
    spec = InternalStateSpec.from_frequencies((w,), 300.0)
    v = exact_visibility(spec, 0.2 / w, CONSTS)
    assert math.isclose(v, 0.9623691086642649, rel_tol=1e-12)


def test_exact_visibility_three_modes_frozen():
    """Product of single-mode factors at (nbar, phase) = (.5,.1), (1,.2), (2,.3)."""
    t = 300.0
    product = 1.0
    for nbar, delta in ((0.5, 0.1), (1.0, 0.2), (2.0, 0.3)):
        w = _omega_for_nbar(nbar, t)
        spec = InternalStateSpec.from_frequencies((w,), t)
        product *= exact_visibility(spec, delta / w, CONSTS)
    assert math.isclose(product, 0.7736245429834346, rel_tol=1e-12)


def test_exact_visibility_factorizes_over_modes():
    t = 120.0
    freqs = (3e11, 7e11, 1.9e12)
    dtau = 2e-13
    v = exact_visibility(InternalStateSpec.from_frequencies(freqs, t), dtau, CONSTS)
    product = 1.0
    for w in freqs:
        product *= exact_visibility(InternalStateSpec.from_frequencies((w,), t), dtau, CONSTS)
    assert math.isclose(v, product, rel_tol=1e-12)


def test_exact_visibility_is_even_and_bounded():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n_modes = int(rng.integers(1, 5))
        t = float(10 ** rng.uniform(0.5, 3))
        freqs = tuple(
            float(_omega_for_nbar(10 ** rng.uniform(-2, 0.7), t)) for _ in range(n_modes)
        )
        spec = InternalStateSpec.from_frequencies(freqs, t)
        dtau = float(rng.uniform(0.0, 0.5) / max(freqs))
        v = exact_visibility(spec, dtau, CONSTS)
        assert 0.0 <= v <= 1.0
        assert v == exact_visibility(spec, -dtau, CONSTS)
    assert exact_visibility(spec, 0.0, CONSTS) == 1.0


def test_exact_visibility_zero_temperature():
    spec = InternalStateSpec.from_frequencies((1e12,), 0.0)
    assert exact_visibility(spec, 123.0, CONSTS) == 1.0


def test_exact_visibility_rejects_marker_and_mode_limit(monkeypatch):
    marker = InternalStateSpec.high_temperature_limit(10.0, 300.0)
    with pytest.raises(DomainError):
        exact_visibility(marker, 1e-12, CONSTS)
    spec = InternalStateSpec.from_frequencies((1e12, 2e12, 3e12), 300.0)
    monkeypatch.setattr(internal_state_module, "DEFAULT_MODE_LIMIT", 2)
    with pytest.raises(DomainError):
        exact_visibility(spec, 1e-12, CONSTS)
    with pytest.raises(DomainError):
        visibility_curve("exact-product", [0.0, 1.0], 3.0, 300.0, 1e-3, 9.81, CONSTS,
                         frequencies=spec.frequencies)


def test_mode_product_at_scale_matches_fsum_reference(monkeypatch):
    """1e4 modes, per-mode phases up to ~1e-3, log V ~ -1: every route to the
    mode product agrees with a per-mode fsum of the sin^2 / atan2 factors."""
    t = 300.0
    rng = np.random.default_rng(7)
    x = np.exp(rng.uniform(math.log(0.01), math.log(0.07), 10_000))
    freqs = CONSTS.k_B * t / CONSTS.hbar * x
    spec = InternalStateSpec.from_frequencies(freqs, t)
    nbar = [thermal_occupation(w, t, CONSTS) for w in spec.frequencies]

    def reference(dtau):
        log_mod, phase = [], []
        for n, w in zip(nbar, spec.frequencies):
            phi = w * dtau
            s2 = math.sin(0.5 * phi) ** 2
            log_mod.append(0.5 * math.log1p(4.0 * n * (n + 1.0) * s2))
            phase.append(math.atan2(n * math.sin(phi), 1.0 + 2.0 * n * s2))
        return math.exp(-math.fsum(log_mod)), -math.fsum(phase)

    dtau_max = math.sqrt(2.0 / sum(n * (n + 1.0) * w * w for n, w in zip(nbar, spec.frequencies)))
    assert 5e-4 < max(freqs) * dtau_max < 2e-3
    g, dx = 9.81, 1e-3
    times = np.linspace(0.0, dtau_max * CONSTS.c**2 / (g * dx), 9)
    curve = visibility_curve("exact-product", times, float(freqs.size), t, dx, g, CONSTS,
                             frequencies=freqs)
    assert curve.values[0] == 1.0
    assert exact_visibility(spec, 0.0, CONSTS) == 1.0
    assert math.isclose(math.log(curve.values[-1]), -1.0, rel_tol=0.05)
    for time, v_curve in zip(times[1:], curve.values[1:]):
        dtau = proper_time_lab(dx, g, time, CONSTS)
        v_ref, phase_ref = reference(dtau)
        chi = internal_characteristic_function(spec, dtau, CONSTS)
        for v in (v_curve, exact_visibility(spec, dtau, CONSTS), abs(chi)):
            assert math.isclose(v, v_ref, rel_tol=1e-13)
        # the summed phase is ~1e2 rad, so compare it modulo 2 pi
        assert abs(cmath.phase(chi * cmath.exp(-1j * phase_ref))) <= 1e-13 * abs(phase_ref)
        assert internal_characteristic_function(spec, -dtau, CONSTS) == chi.conjugate()
    # blocks that split the mode axis as well as the time axis change nothing
    monkeypatch.setattr(internal_state_module, "_CHUNK_ELEMENTS", 999)
    split = visibility_curve("exact-product", times, float(freqs.size), t, dx, g, CONSTS,
                             frequencies=freqs)
    np.testing.assert_allclose(split.values, curve.values, rtol=1e-13)
    cold = InternalStateSpec.from_frequencies(freqs, 0.0)
    assert exact_visibility(cold, dtau_max, CONSTS) == 1.0
    assert internal_characteristic_function(cold, dtau_max, CONSTS) == 1.0


def test_high_t_visibility_convergence_to_inverse_e():
    """At N theta^2 = 2 the high-T law approaches 1/e with error ~ 1/N."""
    nat = PhysicalConstants(hbar=1.0, c=1.0, k_B=1.0, G=1.0, g_earth=1.0)
    prev = None
    for n in (1e2, 1e4, 1e6):
        v = highT_visibility(n, 1.0, 1.0, 1.0, math.sqrt(2.0 / n), nat)
        err = abs(v - math.exp(-1.0)) / math.exp(-1.0)
        assert err < 2.0 / n
        if prev is not None:
            assert err < prev
        prev = err


def test_high_t_visibility_at_decoherence_time():
    # lab-scale parameters: V(tau_dec) = 1/e to high accuracy at N = 1e23
    n, t, dx, g = 1e23, 300.0, 1e-3, 9.81
    tau = decoherence_time(n, t, dx, g, CONSTS)
    v = highT_visibility(n, t, dx, g, tau, CONSTS)
    assert math.isclose(v, math.exp(-1.0), rel_tol=1e-6)


def test_high_t_visibility_monotone_noninc():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = 10 ** rng.uniform(1, 20)
        t = 10 ** rng.uniform(0, 3)
        dx = 10 ** rng.uniform(-9, -2)
        g = 10 ** rng.uniform(-1, 2)
        tt = 10 ** rng.uniform(-8, 0)
        base = highT_visibility(n, t, dx, g, tt, CONSTS)
        k = float(rng.uniform(1.1, 4.0))
        assert highT_visibility(n, t, dx, g, k * tt, CONSTS) <= base
        assert highT_visibility(n, k * t, dx, g, tt, CONSTS) <= base
        assert highT_visibility(n, t, k * dx, g, tt, CONSTS) <= base
        assert highT_visibility(n, t, dx, k * g, tt, CONSTS) <= base
        assert highT_visibility(k * n, t, dx, g, tt, CONSTS) <= base


def test_high_t_visibility_even_in_delta_x():
    v_pos = highT_visibility(1e10, 300.0, 1e-4, 9.81, 1e-3, CONSTS)
    v_neg = highT_visibility(1e10, 300.0, -1e-4, 9.81, 1e-3, CONSTS)
    assert v_pos == v_neg


def test_gaussian_matches_high_t_at_small_theta():
    n, t, dx, g = 1e23, 300.0, 1e-3, 9.81
    tau = decoherence_time(n, t, dx, g, CONSTS)
    for frac in (0.1, 0.5, 1.0, 2.0):
        vg = gaussian_visibility(n, t, dx, g, frac * tau, CONSTS)
        vh = highT_visibility(n, t, dx, g, frac * tau, CONSTS)
        assert math.isclose(vg, vh, rel_tol=1e-10)
        assert math.isclose(vg, math.exp(-(frac**2)), rel_tol=1e-12)


def test_decoherence_time_frozen_value():
    tau = decoherence_time(1e23, 300.0, 1e-3, 9.81, CONSTS)
    assert math.isclose(tau, 1.04317944179253e-06, rel_tol=1e-13)


def test_decoherence_time_degenerate_inputs_tagged_infinite():
    assert decoherence_time(0.0, 300.0, 1e-3, 9.81, CONSTS) == math.inf
    assert decoherence_time(1e23, 0.0, 1e-3, 9.81, CONSTS) == math.inf
    assert decoherence_time(1e23, 300.0, 0.0, 9.81, CONSTS) == math.inf
    assert decoherence_time(1e23, 300.0, 1e-3, 0.0, CONSTS) == math.inf
    # and the laws report no decoherence there
    assert highT_visibility(0.0, 300.0, 1e-3, 9.81, 1.0, CONSTS) == 1.0
    assert gaussian_visibility(1e23, 0.0, 1e-3, 9.81, 1.0, CONSTS) == 1.0


def test_array_laws_match_scalar_math_reference():
    """One numpy call per law against a per-point ``math`` evaluation.

    tau_dec uses the same correctly rounded operations, so it is exact. V may
    differ where numpy's exp or log1p rounds 1 ulp away from math's, and ln V
    amplifies an argument difference: the Gaussian law (exp alone) holds
    |dV| <= 2^-52 (1 + |ln V|) V; the high-T law, whose ln V is also a
    rounded product taken after log1p, holds twice that.
    """
    rng = np.random.default_rng(29)
    cases = []
    for _ in range(20):
        n, temp, dx, g = (float(10 ** rng.uniform(lo, hi))
                          for lo, hi in ((0, 24), (-1, 4), (-9, -1), (-1, 2)))
        tau = math.sqrt(2.0 / n) * CONSTS.hbar * CONSTS.c**2 / (CONSTS.k_B * temp * g * dx)
        assert decoherence_time(n, temp, dx, g, CONSTS) == tau
        cases.append((n, temp, dx, tau))
        t = np.linspace(0.0, 3.0 * tau, 500)
        theta_scale = CONSTS.k_B * temp * g * dx
        den = CONSTS.hbar * CONSTS.c**2
        for law, ref, ulp in (
            (highT_visibility,
             [math.exp(-0.5 * n * math.log1p((theta_scale * s / den) ** 2)) for s in t.tolist()],
             2.0**-51),
            (gaussian_visibility, [math.exp(-((s / tau) ** 2)) for s in t.tolist()], 2.0**-52),
        ):
            ref = np.array(ref)
            got = law(n, temp, dx, g, t, CONSTS)
            assert got.shape == t.shape
            assert np.all(np.abs(got - ref) <= ulp * (1.0 + np.abs(np.log(ref))) * ref)
    n, temp, dx, tau = (np.array(col) for col in zip(*cases))
    g = CONSTS.g_earth
    tau_g = np.array([math.sqrt(2.0 / a) * CONSTS.hbar * CONSTS.c**2 / (CONSTS.k_B * b * g * c)
                      for a, b, c in zip(n, temp, dx)])
    assert np.array_equal(decoherence_time(n, temp, dx, g, CONSTS), tau_g)
    grid = decoherence_time(n[:, None], temp[None, :], dx[:, None], g, CONSTS)
    assert grid.shape == (20, 20) and np.array_equal(np.diagonal(grid), tau_g)


def test_scalar_inputs_give_python_floats():
    args = (1e23, 300.0, 1e-3, 9.81)
    assert type(highT_visibility(*args, 1e-6, CONSTS)) is float
    assert type(gaussian_visibility(*args, 1e-6, CONSTS)) is float
    assert type(decoherence_time(*args, CONSTS)) is float
    assert type(decoherence_time(0.0, 300.0, 1e-3, 9.81, CONSTS)) is float
    # numpy scalars and 0-d arrays too, with the bits of the Python floats
    tau = decoherence_time(*args, CONSTS)
    for kind in (np.float64, np.array):
        value = decoherence_time(*map(kind, args), CONSTS)
        assert type(value) is float and value == tau
    assert type(decoherence_time(*map(np.float32, args), CONSTS)) is float
    assert type(decoherence_time(np.int64(10**18), np.int64(300), 1e-3, 9.81, CONSTS)) is float


def test_degenerate_arrays_give_no_decoherence_without_warnings():
    t = np.linspace(0.0, 1.0, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, temp, dx, g in ((0.0, 300.0, 1e-3, 9.81), (1e23, 0.0, 1e-3, 9.81),
                               (1e23, 300.0, 0.0, 9.81), (1e23, 300.0, 1e-3, 0.0)):
            assert np.all(highT_visibility(n, temp, dx, g, t, CONSTS) == 1.0)
            assert np.all(gaussian_visibility(n, temp, dx, g, t, CONSTS) == 1.0)
            assert decoherence_time(n, temp, dx, g, CONSTS) == math.inf
        tau = decoherence_time(np.array([0.0, 1e23, 1e23, 0.0]), np.array([300.0, 0.0, 300.0, 0.0]),
                               np.array([1e-3, 1e-3, 0.0, 0.0]), 9.81, CONSTS)
        assert np.all(tau == math.inf)
        assert np.all(decoherence_time(np.full(3, 1e23), 300.0, 1e-3, 0.0, CONSTS) == math.inf)


def test_decoherence_time_rejects_negative():
    with pytest.raises(DomainError):
        decoherence_time(-1.0, 300.0, 1e-3, 9.81, CONSTS)
    with pytest.raises(DomainError):
        decoherence_time(1e23, -300.0, 1e-3, 9.81, CONSTS)


def test_decoherence_time_has_the_bits_of_the_numpy_formula():
    # the reference is the array formula the scalar law replaced, with a -0 N
    # or T read as the zero it is: its IEEE quotients keep every bit, signed
    # zeros and infinities included, and a NaN there is a refusal here
    edges = [0.0, -0.0, 5e-324, 1e-310, 1e-300, 1.0, 1e23, 1e300, 1.7e308, math.inf, math.nan]
    n, t, dx, g = (a.ravel() for a in np.meshgrid(edges, edges, edges, edges, indexing="ij"))
    c = CONSTS
    with np.errstate(all="ignore"):
        ref = (np.sqrt(2.0 / np.abs(n)) * c.hbar * c.c**2
               / (c.k_B * np.abs(t) * np.abs(g) * np.abs(dx)))
    for *args, want in zip(n.tolist(), t.tolist(), dx.tolist(), g.tolist(), ref.tolist()):
        if math.isnan(want):
            with pytest.raises(DomainError, match="is inf / inf in float64"):
                decoherence_time(*args, c)
        else:
            got = decoherence_time(*args, c)
            assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want)), args
    ok = ~np.isnan(ref)
    assert np.array_equal(decoherence_time(n[ok], t[ok], dx[ok], g[ok], c).view(np.int64),
                          ref[ok].view(np.int64))


def test_decoherence_time_at_a_signed_zero_is_inf():
    # a -0 N or T means no decoherence, as +0 does, for a scalar and in a cell
    for n, t in ((-0.0, 300.0), (1e23, -0.0), (-0.0, -0.0)):
        assert decoherence_time(n, t, 1e-3, 9.81, CONSTS) == math.inf
    tau = decoherence_time(1e23, 300.0, 1e-3, 9.81, CONSTS)
    cells = decoherence_time(np.array([-0.0, 1e23]), np.array([[300.0], [-0.0]]), 1e-3, 9.81,
                             CONSTS)
    assert cells.tolist() == [[math.inf, tau], [math.inf, math.inf]]


def test_decoherence_time_refuses_inf_over_inf_in_any_cell():
    # N = 1e-320 makes sqrt(2/N) inf, and T dx = 1e600 makes the denominator
    # inf; a negative cell anywhere is refused first, as a negative scalar is
    n = np.array([1e23, 1e-320])
    for args in ((1e-320, 1e300, 1e300), (n, 1e300, 1e300),
                 (n[:, None], [300.0, 1e300], 1e300)):
        with pytest.raises(DomainError, match="is inf / inf in float64"):
            decoherence_time(*args, 9.81, CONSTS)
    with pytest.raises(DomainError, match="must be >= 0"):
        decoherence_time(np.array([1e-320, -1.0]), 1e300, 1e300, 9.81, CONSTS)
    # N = inf and T = 0 make it 0 / 0, NaN as well, which the same check refuses
    with pytest.raises(DomainError, match="in float64"):
        decoherence_time(math.inf, 0.0, 1e-3, 9.81, CONSTS)


def test_decoherence_time_sign_independent():
    a = decoherence_time(1e23, 300.0, 1e-3, 9.81, CONSTS)
    assert decoherence_time(1e23, 300.0, -1e-3, 9.81, CONSTS) == a
    assert decoherence_time(1e23, 300.0, 1e-3, -9.81, CONSTS) == a


def test_scaling_ratios_exact():
    # linear in 1/dx and in 1/sqrt(N): the ratios are exact in float arithmetic
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = 10 ** rng.uniform(2, 23)
        t = 10 ** rng.uniform(0, 3)
        dx = 10 ** rng.uniform(-9, -2)
        g = 10 ** rng.uniform(-1, 2)
        assert decoherence_time(n, t, dx, g, CONSTS) / decoherence_time(
            n, t, 2 * dx, g, CONSTS
        ) == 2.0
        assert decoherence_time(n, t, dx, g, CONSTS) / decoherence_time(
            4 * n, t, dx, g, CONSTS
        ) == 2.0


def test_natural_units_identity():
    nat = PhysicalConstants(hbar=1.0, c=1.0, k_B=1.0, G=1.0, g_earth=1.0)
    # exact with power-of-two inputs
    tau = decoherence_time(8.0, 4.0, 0.5, 2.0, nat)
    assert tau * 4.0 * 2.0 * 0.5 * math.sqrt(8.0 / 2.0) == 1.0
    rng = np.random.default_rng(23)
    for _ in range(20):
        n, t, dx, g = (float(10 ** rng.uniform(-2, 6)) for _ in range(4))
        tau = decoherence_time(n, t, dx, g, nat)
        assert math.isclose(tau * t * g * dx * math.sqrt(n / 2.0), 1.0, rel_tol=1e-12)


def test_schwarzschild_frozen_values():
    sw = SchwarzschildSpec(5 * SOLAR_MASS, 14770.632775277025)
    assert math.isclose(sw.schwarzschild_radius(CONSTS), 14770.632775277025, rel_tol=1e-15)
    with pytest.warns(UserWarning):
        tau = decoherence_time_schwarzschild(1e23, 1.0, 1e-9, sw, CONSTS)
    assert math.isclose(tau, 1.0091064278082099e-09, rel_tol=1e-12)


def test_schwarzschild_matches_local_acceleration_form():
    m = 5 * SOLAR_MASS
    r = 1e9  # comfortably weak-field
    sw = SchwarzschildSpec(m, r)
    g_local = CONSTS.G * m / r**2
    a = decoherence_time_schwarzschild(1e20, 4.0, 1e-6, sw, CONSTS)
    b = decoherence_time(1e20, 4.0, 1e-6, g_local, CONSTS)
    assert math.isclose(a, b, rel_tol=1e-12)


def test_schwarzschild_domain():
    sw = SchwarzschildSpec(5 * SOLAR_MASS, 1.0)  # inside the horizon
    with pytest.raises(DomainError):
        decoherence_time_schwarzschild(1e23, 1.0, 1e-9, sw, CONSTS)
    with pytest.raises(DomainError):
        SchwarzschildSpec(0.0, 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="^central_mass must be finite"):
            SchwarzschildSpec(bad, 1e4)
        with pytest.raises(DomainError, match="^radius must be finite"):
            SchwarzschildSpec(5 * SOLAR_MASS, bad)


def test_hawking_temperature_frozen():
    assert math.isclose(
        hawking_temperature(SOLAR_MASS, CONSTS), 6.168429712630827e-08, rel_tol=1e-13
    )
    # twice the mass, half the temperature
    assert math.isclose(
        hawking_temperature(2 * SOLAR_MASS, CONSTS),
        0.5 * hawking_temperature(SOLAR_MASS, CONSTS),
        rel_tol=1e-15,
    )
    with pytest.raises(DomainError, match="^mass must be > 0"):
        hawking_temperature(0.0, CONSTS)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="^mass must be finite"):
            hawking_temperature(bad, CONSTS)


def test_hawking_temperature_where_its_denominator_underflows():
    # 8 pi k_B G M ~ 2e-332 is 0 in float64: at the SI constants T_H is past
    # float64's range, and with a small enough hbar it is a normal float
    assert hawking_temperature(1e-300, CONSTS) == math.inf
    small = PhysicalConstants(hbar=1e-300)
    exact = (Fraction(small.hbar) * Fraction(small.c) ** 3
             / (8 * Fraction(math.pi) * Fraction(small.k_B) * Fraction(small.G) * Fraction(1e-300)))
    assert math.isclose(hawking_temperature(1e-300, small), float(exact), rel_tol=1e-14)


def test_proper_time_lab_frozen():
    dtau = proper_time_lab(1.0, 9.81, 1.0, CONSTS)
    assert math.isclose(dtau, 1.0915097049885998e-16, rel_tol=1e-15)


def test_high_t_collapse_pointwise():
    # one spot check of the frequency-independence; the acceptance suite sweeps it
    t = 300.0
    w = 1e-3 * CONSTS.k_B * t / CONSTS.hbar
    n_modes = 3
    spec = InternalStateSpec.from_frequencies((w, 0.7 * w, 0.4 * w), t)
    dtau = 1e-3 / w
    v_exact = exact_visibility(spec, dtau, CONSTS)
    theta = CONSTS.k_B * t * dtau / CONSTS.hbar
    v_high = math.exp(-0.5 * n_modes * math.log1p(theta * theta))
    assert abs(math.log(v_exact) - math.log(v_high)) / abs(math.log(v_high)) < 1e-2


def test_visibility_curve_validation():
    with pytest.raises(DomainError):
        VisibilityCurve(times=np.array([0.0, 1.0]), values=np.array([1.0, 0.5]), law="nope")
    with pytest.raises(DomainError):
        VisibilityCurve(times=np.array([1.0, 0.0]), values=np.array([0.5, 1.0]), law="high-T")
    with pytest.raises(DomainError):
        VisibilityCurve(times=np.array([0.0, 1.0]), values=np.array([1.0, 1.5]), law="high-T")
    with pytest.raises(DomainError):
        VisibilityCurve(times=np.array([0.0, 1.0]), values=np.array([0.9, 0.5]), law="high-T")


def test_visibility_curve_laws():
    times = np.linspace(0.0, 2e-6, 20)
    for law in ("high-T", "gaussian"):
        curve = visibility_curve(law, times, 1e23, 300.0, 1e-3, 9.81, CONSTS)
        assert curve.law == law
        assert curve.values[0] == 1.0
        assert np.all(np.diff(curve.values) <= 0)
    w = _omega_for_nbar(0.5, 300.0)
    curve = visibility_curve(
        "exact-product", times, 1.0, 300.0, 1e-3, 9.81, CONSTS, frequencies=(w,)
    )
    assert curve.law == "exact-product"
    with pytest.raises(DomainError):
        visibility_curve("exact-product", times, 1.0, 300.0, 1e-3, 9.81, CONSTS)
    with pytest.raises(DomainError):
        visibility_curve("master-equation", times, 1.0, 300.0, 1e-3, 9.81, CONSTS)
