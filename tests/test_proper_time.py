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
from gravidec.proper_time import _BLOCK, gamma_coupling

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
        for bad in (np.nan, np.inf, -np.inf):
            arrays = [np.array([0.0, 1.0, 2.0])] + [np.zeros(3)] * 4
            arrays[k] = arrays[k].copy()
            arrays[k][1] = bad
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


B = _BLOCK
SIZES = [2, 3, B, B + 1, B + 2, 3 * B + 5, 10**6]
CASES = ["static", "homogeneous_fall", "schwarzschild_fall", "tabulated", "random", "from_csv"]


def _proper_time_difference_unblocked(pair, potential, consts):
    """proper_time_difference as it ran before the blocked pass: the whole
    integrand and dt arrays at once. The blocked pass must match it bit for bit."""
    vmax = max(np.max(np.abs(pair.v_a)), np.max(np.abs(pair.v_b)))
    if vmax > 1e-3 * consts.c:
        raise DomainError(f"|v| reaches {vmax:.6g} m/s, above the 0.001 c validity bound")
    f = gamma_coupling(pair.x_b, pair.v_b, potential, consts) - gamma_coupling(
        pair.x_a, pair.v_a, potential, consts
    )
    dt = np.diff(pair.times)
    return float(0.5 * np.sum((f[1:] + f[:-1]) * dt) / consts.c**2)


def _pair_and_potential(case, n, rng, tmp_path):
    t_final, d = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
    g = 9.81
    t = np.linspace(0.0, t_final, n)
    fall = -0.5 * g * t * t
    if case == "static":
        return TrajectoryPair.static(0.0, d, t_final, n), HomogeneousPotential(g)
    if case == "homogeneous_fall":
        return TrajectoryPair(t, fall, -g * t, d + fall, -g * t), HomogeneousPotential(g)
    if case == "schwarzschild_fall":
        earth = 5.972e24
        r0 = 6.371e6 + float(rng.uniform(0.0, 1e5))
        acc = CONSTS.G * earth / r0**2
        x_a = r0 - 0.5 * acc * t * t
        return (TrajectoryPair(t, x_a, -acc * t, x_a + d, -acc * t),
                SchwarzschildWeakPotential(earth))
    # random times, positions and velocities (well inside the velocity bound)
    t = np.cumsum(rng.uniform(0.5, 1.5, n)) * (t_final / n)
    x_a, x_b = rng.uniform(-4.0, 4.0, (2, n))
    v_a, v_b = rng.normal(0.0, 10.0, (2, n))
    if case == "tabulated":
        grid = np.linspace(-5.0, 5.0, 37)
        return (TrajectoryPair(t, x_a, v_a, x_b, v_b),
                TabulatedPotential(grid, g * grid + 0.3 * np.sin(grid)))
    if case == "random":
        return TrajectoryPair(t, x_a, v_a, x_b, v_b), HomogeneousPotential(g)
    rows = np.column_stack([t, x_a, v_a, x_b, v_b])
    if n > 3 * B + 5:
        # a 10^6-row CSV takes seconds to write and read: the columns of the
        # stacked rows are the same strided views that from_csv returns
        return TrajectoryPair(*rows.T), HomogeneousPotential(g)
    path = tmp_path / "pair.csv"
    np.savetxt(path, rows, delimiter=",", fmt="%.17g")
    return TrajectoryPair.from_csv(str(path)), HomogeneousPotential(g)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("case", CASES)
def test_blocked_trapezoid_is_bit_identical_to_unblocked(case, n, tmp_path):
    pair, potential = _pair_and_potential(case, n, np.random.default_rng([n, CASES.index(case)]), tmp_path)
    if case == "from_csv":
        assert pair.x_a.strides == (40,)  # columns are strided views
    if case == "static":
        assert all(a.strides == (0,) for a in (pair.x_a, pair.v_a, pair.x_b, pair.v_b))
    assert proper_time_difference(pair, potential, CONSTS) == _proper_time_difference_unblocked(
        pair, potential, CONSTS
    )


def test_static_pair_stores_only_its_times(traced_peak):
    pair, peak = traced_peak(lambda: TrajectoryPair.static(0.0, 1.0, 2.0, 10**6))
    # the arms are stride-0 views: only the times grow with n
    assert peak <= pair.times.nbytes + (1 << 16), peak - pair.times.nbytes


@pytest.mark.parametrize("case", ["static", "homogeneous_fall", "schwarzschild_fall", "tabulated"])
def test_proper_time_difference_holds_one_row_of_terms(case, traced_peak, tmp_path):
    n = 10**6
    pair, potential = _pair_and_potential(case, n, np.random.default_rng(3), tmp_path)
    _, peak = traced_peak(lambda: proper_time_difference(pair, potential, CONSTS))
    # one row of n - 1 terms plus a few blocks, not n-length temporaries
    assert peak <= (n - 1) * 8 + 8 * B * 8, (peak - (n - 1) * 8) / (B * 8)


def _falling_pair(n, shift_last=0.0):
    """Arms falling in a uniform field from x = 1 and 2; the last sample of
    arm b is displaced by ``shift_last``."""
    t = np.linspace(0.0, 0.1, n)
    fall = 1.0 - 0.5 * 9.81 * t * t
    x_b = 1.0 + fall
    x_b[-1] += shift_last
    return TrajectoryPair(t, fall, -9.81 * t, x_b, -9.81 * t)


@pytest.mark.parametrize("n", [B + 2, 3 * B + 5])
def test_domain_error_in_the_last_block_reads_as_before(n):
    grid = np.linspace(0.0, 2.5, 11)
    cases = [(_falling_pair(n, shift_last=1.0), TabulatedPotential(grid, 9.81 * grid)),
             (_falling_pair(n, shift_last=-10.0), SchwarzschildWeakPotential(5.972e24))]
    for pair, potential in cases:
        with pytest.raises(DomainError) as before:
            _proper_time_difference_unblocked(pair, potential, CONSTS)
        with pytest.raises(DomainError) as now:
            proper_time_difference(pair, potential, CONSTS)
        assert str(now.value) == str(before.value)
        assert "domain" in str(now.value) or "x > 0" in str(now.value)


class _RecordingPotential:
    def __init__(self):
        self.calls = 0

    def phi(self, x, consts):
        self.calls += 1
        raise DomainError("potential evaluated")


def test_velocity_bound_is_checked_before_any_potential():
    n = 2 * B + 7
    t = np.linspace(0.0, 1.0, n)
    z = np.zeros(n)
    v = np.zeros(n)
    v[-1] = -0.002 * CONSTS.c  # in the last block, and negative
    pair = TrajectoryPair(t, z, z, z, v)
    potential = _RecordingPotential()
    with pytest.raises(DomainError, match="validity bound") as now:
        proper_time_difference(pair, potential, CONSTS)
    assert potential.calls == 0
    with pytest.raises(DomainError) as before:
        _proper_time_difference_unblocked(pair, potential, CONSTS)
    assert str(now.value) == str(before.value)


def test_static_arms_are_read_only():
    pair = TrajectoryPair.static(0.0, 1.0, 1.0, 11)
    for name in ("x_a", "v_a", "x_b", "v_b"):
        with pytest.raises(ValueError):
            getattr(pair, name)[3] = 5.0
    assert pair.x_b[3] == 1.0 and pair.v_a[3] == 0.0


@pytest.mark.parametrize("k", [1, B - 1, B, B + 1, 2 * B + 2])
def test_time_order_is_checked_across_block_boundaries(k):
    t = np.linspace(0.0, 1.0, 2 * B + 3)
    t[k] = t[k - 1]
    z = np.zeros_like(t)
    with pytest.raises(DomainError, match="strictly increasing"):
        TrajectoryPair(t, z, z, z, z)
