from __future__ import annotations

import math

import numpy as np
import pytest

from gravidec import (
    InternalStateSpec,
    default_constants,
    internal_energy_variance,
    mean_internal_energy,
)
from gravidec.errors import DomainError
from gravidec.internal_state import _log_mode_product, thermal_occupation

CONSTS = default_constants()


def test_thermal_occupation_frozen_value():
    # 1 THz mode at room temperature
    n = thermal_occupation(2 * math.pi * 1e12, 300.0, CONSTS)
    assert math.isclose(n, 5.76431128884411, rel_tol=1e-13)


def test_thermal_occupation_limits():
    assert thermal_occupation(1e13, 0.0, CONSTS) == 0.0
    # hbar*w/k_B T huge: must underflow to zero, not overflow
    assert thermal_occupation(1e30, 1e-10, CONSTS) == 0.0
    # classical limit nbar -> k_B T / hbar w
    w, t = 1e9, 300.0
    classical = CONSTS.k_B * t / (CONSTS.hbar * w)
    assert math.isclose(thermal_occupation(w, t, CONSTS), classical, rel_tol=1e-4)


def test_thermal_occupation_monotonicity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        w = 10 ** rng.uniform(9, 14)
        t = 10 ** rng.uniform(0, 3)
        assert thermal_occupation(2 * w, t, CONSTS) < thermal_occupation(w, t, CONSTS)
        assert thermal_occupation(w, 2 * t, CONSTS) > thermal_occupation(w, t, CONSTS)


def test_thermal_occupation_rejects_bad_inputs():
    with pytest.raises(DomainError):
        thermal_occupation(-1.0, 300.0, CONSTS)
    with pytest.raises(DomainError):
        thermal_occupation(1e12, -1.0, CONSTS)
    with pytest.raises(DomainError, match="omega"):
        thermal_occupation(math.nan, 300.0, CONSTS)
    with pytest.raises(DomainError, match="temperature"):
        thermal_occupation(1e12, math.nan, CONSTS)


@pytest.mark.parametrize("x", [709.0, 709.9, 720.0, 745.0, 746.0])
def test_occupation_past_expm1_overflow_is_zero_without_warning(x):
    """hbar w / k_B T past log(float max) ~ 709.78 overflows expm1; the
    occupation there is below 1.4e-308 and reads 0, with no overflow warning
    (which the test configuration would turn into an error)."""
    t = 10.0
    w = x * CONSTS.k_B * t / CONSTS.hbar
    expected = 1.0 / math.expm1(CONSTS.hbar * w / (CONSTS.k_B * t)) if x < 709.5 else 0.0
    assert thermal_occupation(w, t, CONSTS) == expected
    spec = InternalStateSpec.from_frequencies((w,), t)
    assert mean_internal_energy(spec, CONSTS) == CONSTS.hbar * w * expected


def test_high_temperature_marker():
    spec = InternalStateSpec.high_temperature_limit(1e23, 300.0)
    assert spec.is_high_temperature
    assert spec.frequencies is None
    assert spec.n_modes == 1e23


def test_explicit_frequencies():
    spec = InternalStateSpec.from_frequencies((1e12, 2e12), 77.0)
    assert not spec.is_high_temperature
    assert spec.n_modes == 2.0
    assert spec.frequencies == (1e12, 2e12)


def test_frequencies_are_held_once_as_a_read_only_array():
    # the array that validation made is kept beside the tuple and is no
    # field: equality and hashing still see the tuple alone, and the
    # caller's array stays its own and writable
    given = np.array([1e12, 2.5e12])
    spec = InternalStateSpec.from_frequencies(given, 77.0)
    assert spec._omega.dtype == np.float64 and spec._omega.tolist() == list(spec.frequencies)
    assert not spec._omega.flags.writeable and given.flags.writeable
    assert not np.shares_memory(spec._omega, given)
    twin = InternalStateSpec.from_frequencies((1e12, 2.5e12), 77.0)
    assert spec == twin and hash(spec) == hash(twin)
    assert InternalStateSpec.high_temperature_limit(1e23, 300.0)._omega is None


@pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
def test_mode_product_without_its_phase_is_the_real_part_bit_for_bit(shape):
    rng = np.random.default_rng(11)
    t = 300.0
    freqs = CONSTS.k_B * t / CONSTS.hbar * np.exp(rng.uniform(-3.0, 3.0, 40))
    spec = InternalStateSpec.from_frequencies(freqs, t)
    dtau = rng.uniform(-20.0, 20.0, shape) / freqs.max()
    log_chi = _log_mode_product(spec, dtau, CONSTS)
    log_v = _log_mode_product(spec, dtau, CONSTS, phase=False)
    assert log_chi.dtype == complex and log_v.dtype == float and log_v.shape == shape
    assert log_v.tobytes() == log_chi.real.tobytes()


def test_from_frequencies_validation():
    with pytest.raises(DomainError):
        InternalStateSpec.from_frequencies((1e12, -1e12), 300.0)
    with pytest.raises(DomainError):
        InternalStateSpec.from_frequencies((1e12,), -5.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="frequencies has non-finite"):
            InternalStateSpec.from_frequencies((bad, 1e13), 300.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="^temperature must be finite"):
            InternalStateSpec.from_frequencies((1e13,), bad)
        with pytest.raises(DomainError, match="^n_modes must be finite"):
            InternalStateSpec.high_temperature_limit(bad, 300.0)
        with pytest.raises(DomainError, match="^temperature must be finite"):
            InternalStateSpec.high_temperature_limit(1e23, bad)
    with pytest.raises(DomainError):
        # length must match n_modes when both are given explicitly
        InternalStateSpec(n_modes=3, temperature=300.0, frequencies=(1e12, 2e12))


def test_from_frequency_csv(tmp_path):
    path = tmp_path / "freqs.csv"
    path.write_text("# rad/s\n1e12\n2.5e12\n3e12\n")
    spec = InternalStateSpec.from_frequency_csv(str(path), 300.0)
    assert spec.frequencies == (1e12, 2.5e12, 3e12)
    assert spec.n_modes == 3.0


def test_high_t_moments_closed_form():
    """Marker-state energy moments are N k_B T and N (k_B T)^2."""
    spec = InternalStateSpec.high_temperature_limit(1e23, 300.0)
    assert mean_internal_energy(spec, CONSTS) == pytest.approx(414.1947, rel=1e-12, abs=0)
    assert internal_energy_variance(spec, CONSTS) == pytest.approx(
        1e23 * (CONSTS.k_B * 300.0) ** 2, rel=1e-12, abs=0
    )


def test_explicit_moments_single_mode():
    w, t = 3e12, 250.0
    spec = InternalStateSpec.from_frequencies((w,), t)
    n = thermal_occupation(w, t, CONSTS)
    e = CONSTS.hbar * w
    assert mean_internal_energy(spec, CONSTS) == pytest.approx(e * n, rel=1e-12, abs=0)
    assert internal_energy_variance(spec, CONSTS) == pytest.approx(
        e * e * n * (n + 1.0), rel=1e-12, abs=0
    )


def test_explicit_moments_approach_high_t():
    # deep equipartition regime: hbar w / k_B T = 1e-4 per mode
    t = 300.0
    w = 1e-4 * CONSTS.k_B * t / CONSTS.hbar
    spec = InternalStateSpec.from_frequencies((w,) * 5, t)
    marker = InternalStateSpec.high_temperature_limit(5, t)
    assert mean_internal_energy(spec, CONSTS) == pytest.approx(
        mean_internal_energy(marker, CONSTS), rel=1e-3, abs=0
    )
    assert internal_energy_variance(spec, CONSTS) == pytest.approx(
        internal_energy_variance(marker, CONSTS), rel=1e-3, abs=0
    )
