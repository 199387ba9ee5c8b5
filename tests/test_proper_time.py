from __future__ import annotations

import math

import numpy as np
import pytest

from gravidec import (
    HomogeneousPotential,
    InternalStateSpec,
    SchwarzschildWeakPotential,
    TabulatedPotential,
    TrajectoryPair,
    default_constants,
    exact_visibility,
    highT_visibility,
    internal_characteristic_function,
    proper_time_difference,
    semiclassical_visibility,
)
from gravidec.errors import DomainError
from gravidec.proper_time import gamma_coupling

CONSTS = default_constants()


def test_static_pair_closed_form():
    """Static arms dx apart for time t accumulate dtau = g dx t / c^2."""
    g, dx, t_final = 9.81, 1e-3, 2.0
    pair = TrajectoryPair.static(0.0, dx, t_final, 51)
    dtau = proper_time_difference(pair, HomogeneousPotential(g), CONSTS)
    expected = g * dx * t_final / CONSTS.c**2
    assert math.isclose(dtau, expected, rel_tol=1e-15)


def test_static_pair_sign():
    pair = TrajectoryPair.static(1e-3, 0.0, 1.0, 11)
    dtau = proper_time_difference(pair, HomogeneousPotential(9.81), CONSTS)
    assert dtau < 0  # second arm lower, its clock runs slower


def test_trapezoid_second_order_convergence():
    # oscillating arm b over a partial period (a full one would make the
    # trapezoid rule spectrally accurate and hide the h^2 term)
    g, amp, omega, t_final = 9.81, 0.01, 2 * math.pi, 0.37
    pot = HomogeneousPotential(g)

    def pair_with(n):
        t = np.linspace(0.0, t_final, n)
        x_b = amp * np.sin(omega * t)
        v_b = amp * omega * np.cos(omega * t)
        z = np.zeros_like(t)
        return TrajectoryPair(t, z, z, x_b, v_b)

    ref = proper_time_difference(pair_with(40001), pot, CONSTS)
    errors = []
    for n in (101, 201, 401, 801):
        errors.append(abs(proper_time_difference(pair_with(n), pot, CONSTS) - ref))
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 3.5  # second order: ratio ~ 4 per halving


def test_gamma_coupling_circular_orbit():
    """On a circular orbit v^2 = GM/x, so gamma = -(3/2) GM/x."""
    m = 5.972e24
    x = 7e6
    v = math.sqrt(CONSTS.G * m / x)
    gamma = gamma_coupling(x, v, SchwarzschildWeakPotential(m), CONSTS)
    assert math.isclose(float(gamma), -1.5 * CONSTS.G * m / x, rel_tol=1e-12)


def test_velocity_bound_enforced():
    t = np.linspace(0.0, 1.0, 5)
    z = np.zeros_like(t)
    fast = np.full_like(t, 0.01 * CONSTS.c)
    pair = TrajectoryPair(t, z, z, z, fast)
    with pytest.raises(DomainError):
        proper_time_difference(pair, HomogeneousPotential(9.81), CONSTS)


def test_trajectory_pair_validation():
    t = np.array([0.0, 1.0, 0.5])
    z = np.zeros_like(t)
    with pytest.raises(DomainError):
        TrajectoryPair(t, z, z, z, z)  # times not increasing
    with pytest.raises(DomainError):
        TrajectoryPair(np.array([0.0, 1.0]), z, z, z, z)  # length mismatch
    names = ("times", "x_a", "v_a", "x_b", "v_b")
    for k, name in enumerate(names):
        arrays = [np.array([0.0, 1.0, 2.0])] + [np.zeros(3)] * 4
        arrays[k] = arrays[k].copy()
        arrays[k][1] = np.nan
        with pytest.raises(DomainError, match=f"{name} has non-finite"):
            TrajectoryPair(*arrays)


def test_trajectory_pair_csv_roundtrip(tmp_path):
    t = np.linspace(0.0, 1.0, 9)
    x_a = 0.1 * t
    v_a = np.full_like(t, 0.1)
    x_b = -0.2 * t
    v_b = np.full_like(t, -0.2)
    path = tmp_path / "pair.csv"
    rows = np.column_stack([t, x_a, v_a, x_b, v_b])
    np.savetxt(path, rows, delimiter=",", header="t,x_a,v_a,x_b,v_b")
    pair = TrajectoryPair.from_csv(str(path))
    assert np.allclose(pair.x_b, x_b)
    bad = tmp_path / "bad.csv"
    np.savetxt(bad, rows[:, :4], delimiter=",")
    with pytest.raises(DomainError):
        TrajectoryPair.from_csv(str(bad))


def test_tabulated_potential(tmp_path):
    x = np.linspace(0.0, 10.0, 11)
    phi = 9.81 * x
    pot = TabulatedPotential(x, phi)
    assert pot.phi(np.array([2.5]), CONSTS)[0] == pytest.approx(9.81 * 2.5, rel=1e-12)
    with pytest.raises(DomainError):
        pot.phi(np.array([-1.0]), CONSTS)
    for bad_x, bad_phi, name in ((np.where(x == 5.0, np.inf, x), phi, "x"),
                                 (x, np.where(x == 5.0, np.nan, phi), "phi")):
        with pytest.raises(DomainError, match=f"tabulated {name} has non-finite"):
            TabulatedPotential(bad_x, bad_phi)
    path = tmp_path / "pot.csv"
    np.savetxt(path, np.column_stack([x, phi]), delimiter=",")
    pot2 = TabulatedPotential.from_csv(str(path))
    assert pot2.phi(np.array([7.0]), CONSTS)[0] == pytest.approx(9.81 * 7.0, rel=1e-12)


def test_semiclassical_matches_product_law():
    """The characteristic-function route reproduces the mode-product law."""
    t = 250.0
    freqs = (4e11, 9e11, 2.2e12)
    spec = InternalStateSpec.from_frequencies(freqs, t)
    for dtau in (1e-14, 3e-13, 2e-12):
        assert math.isclose(
            semiclassical_visibility(spec, dtau, CONSTS),
            exact_visibility(spec, dtau, CONSTS),
            rel_tol=1e-12,
        )


def test_semiclassical_high_t_marker():
    # marker spec: |chi| = (1 + (k_B T dtau / hbar)^2)^(-N/2), the high-T law
    n, temp, g, dx, t_hold = 1e20, 300.0, 9.81, 1e-4, 0.01
    spec = InternalStateSpec.high_temperature_limit(n, temp)
    dtau = g * dx * t_hold / CONSTS.c**2
    assert math.isclose(
        semiclassical_visibility(spec, dtau, CONSTS),
        highT_visibility(n, temp, dx, g, t_hold, CONSTS),
        rel_tol=1e-10,
    )


def test_characteristic_function_basics():
    spec = InternalStateSpec.from_frequencies((1e12,), 300.0)
    assert internal_characteristic_function(spec, 0.0, CONSTS) == 1.0
    chi = internal_characteristic_function(spec, 3e-13, CONSTS)
    assert abs(chi) <= 1.0
    conj = internal_characteristic_function(spec, -3e-13, CONSTS)
    assert math.isclose(abs(chi - conj.conjugate()), 0.0, abs_tol=1e-15)


def test_schwarzschild_weak_potential_domain():
    pot = SchwarzschildWeakPotential(5.972e24)
    with pytest.raises(DomainError):
        pot.phi(np.array([0.0]), CONSTS)
