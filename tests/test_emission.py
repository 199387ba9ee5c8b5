from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from gravidec import (
    EmissionModel,
    RegimeMap,
    blackbody_emission_model,
    crossover_separation,
    decoherence_time,
    default_constants,
    emission_model_from_csv,
    emission_rate_integral,
    power_law_cross_section,
    regime_scan,
    tabulated_emission_model,
)
from gravidec.emission import compare_timescales
from gravidec.errors import DomainError

CONSTS = default_constants()


def _constant_rate_model(k_min: float, k_max: float, s0: float, n: int = 64) -> EmissionModel:
    """sigma = s0 / k^2 makes the integrand k^2 c g sigma exactly constant."""
    k = np.linspace(k_min, k_max, n)
    return tabulated_emission_model(k, np.ones_like(k), s0 / k**2, label="flat-rate")


def _cell(model: EmissionModel, delta_x: float, n_modes: float = 1e23,
          temperature: float = 300.0, g: float = 9.81) -> tuple[str, float, float]:
    """(flag, tau_dec, tau_em) of the one-cell separation grid regime_scan charts."""
    rm = regime_scan("delta_x", np.array([delta_x]), np.array([temperature]),
                     lambda temp: model, g, CONSTS, n_modes=n_modes)
    return str(rm.flags[0, 0]), float(rm.tau_dec[0, 0]), float(rm.tau_em[0, 0])


def test_rate_integral_constant_integrand_closed_form():
    k_min, k_max, s0 = 1e6, 2e6, 1e-30
    model = _constant_rate_model(k_min, k_max, s0)
    integral = emission_rate_integral(model, CONSTS)
    assert math.isclose(integral, CONSTS.c * s0 * (k_max - k_min), rel_tol=1e-12)

    dx = 1e-4
    tau = _cell(model, dx)[2]
    assert math.isclose(tau, 1.0 / (dx**2 * integral), rel_tol=1e-15)


def test_rate_integral_quadratic_integrand_closed_form():
    # constant g and sigma: integral = c g0 s0 (k2^3 - k1^3) / 3
    k_min, k_max, g0, s0 = 1e6, 2e6, 2.5, 1e-30
    k = np.linspace(k_min, k_max, 20001)
    model = tabulated_emission_model(k, np.full_like(k, g0), np.full_like(k, s0))
    integral = emission_rate_integral(model, CONSTS)
    expected = CONSTS.c * g0 * s0 * (k_max**3 - k_min**3) / 3.0
    assert math.isclose(integral, expected, rel_tol=1e-6)


def test_zero_cross_section_means_no_emission_channel():
    k = np.linspace(1e6, 2e6, 16)
    model = tabulated_emission_model(k, np.ones_like(k), np.zeros_like(k))
    assert emission_rate_integral(model, CONSTS) == 0.0
    assert _cell(model, 1e-3)[2] == math.inf
    assert _cell(_constant_rate_model(1e6, 2e6, 1e-30), 0.0)[2] == math.inf


def test_a_zero_cross_section_is_zero_where_its_terms_overflow():
    # sigma0 (k/k0)^alpha was 0 * inf = NaN, and k^2 c g times sigma = 0 was inf * 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma = power_law_cross_section(0.0, 1e-300, 2.0)
        assert sigma(np.array([1.0, 1e200])).tolist() == [0.0, 0.0]
        hot = blackbody_emission_model(1e100, power_law_cross_section(0.0, 1e7, 0.0), CONSTS)
        assert emission_rate_integral(hot, CONSTS) == 0.0


def test_emission_time_quarter_at_double_separation():
    model = _constant_rate_model(1e6, 2e6, 1e-30)
    dx = 1e-3
    rm = regime_scan("delta_x", np.array([dx, 2.0 * dx]), np.array([300.0]),
                     lambda temp: model, 9.81, CONSTS, n_modes=1e23)
    assert rm.tau_em[0, 0] / rm.tau_em[1, 0] == 4.0


def test_blackbody_grid_refinement_is_converged():
    sigma = power_law_cross_section(1e-28, 1e7, 0.5)
    model = blackbody_emission_model(300.0, sigma, CONSTS)
    k = model.k_grid
    refined = EmissionModel(
        spectral_density=model.spectral_density, cross_section=model.cross_section,
        k_grid=np.geomspace(k[0], k[-1], 2 * k.size), label=model.label,
    )
    coarse = emission_rate_integral(model, CONSTS)
    fine = emission_rate_integral(refined, CONSTS)
    assert abs(coarse - fine) <= 1e-4 * abs(fine)
    assert model.label == "blackbody-standin"


def test_compare_timescales_covers_all_outcomes():
    tau_dec = [1.0, 2.0, 1.0, 1.0, math.inf, 1.0, math.inf]
    tau_em = [2.0, 1.0, 1.0, 1.0 + 1e-12, 1.0, math.inf, math.inf]
    flags = compare_timescales(tau_dec, tau_em)
    assert isinstance(flags, np.ndarray)
    assert flags.tolist() == ["time_dilation", "emission", "boundary", "boundary",
                              "emission", "time_dilation", "boundary"]
    assert compare_timescales(1.0, 2.0).shape == ()  # a 0-d input gives a 0-d array
    with pytest.raises(DomainError):
        compare_timescales(-1.0, 1.0)


def test_dominant_mechanism_extremes():
    k = np.linspace(1e6, 2e6, 16)
    silent = tabulated_emission_model(k, np.ones_like(k), np.zeros_like(k))
    flag, tau_d, tau_e = _cell(silent, 1e-3)
    assert flag == "time_dilation" and math.isinf(tau_e) and math.isfinite(tau_d)

    loud = _constant_rate_model(1e6, 2e6, 1e-10)
    flag, tau_d, tau_e = _cell(loud, 1e-3, n_modes=0.0)
    assert flag == "emission" and math.isinf(tau_d) and math.isfinite(tau_e)


def test_engineered_tie_lands_on_boundary():
    n, t, g, dx = 1e23, 300.0, 9.81, 1e-4
    tau_d = decoherence_time(n, t, g, dx, CONSTS)
    k_min, k_max = 1e6, 2e6
    s0 = 1.0 / (tau_d * dx**2 * CONSTS.c * (k_max - k_min))
    model = _constant_rate_model(k_min, k_max, s0)
    flag, got_d, got_e = _cell(model, dx, n, t, g)
    assert flag == "boundary"
    assert math.isclose(got_d, got_e, rel_tol=1e-12)


def test_crossover_is_unique_along_separation():
    model = blackbody_emission_model(
        300.0, power_law_cross_section(3e-22, 1e7, 0.0), CONSTS
    )
    n, t, g = 1e23, 300.0, 9.81
    dx_star = crossover_separation(n, t, g, model, CONSTS)
    assert 1e-6 < dx_star < 1e-2

    separations = np.geomspace(1e-6, 1e-2, 25)
    flags = list(regime_scan("delta_x", separations, np.array([t]), lambda temp: model, g,
                             CONSTS, n_modes=n).flags[:, 0])
    # time dilation loses ground as dx grows; exactly one flip, bracketing dx*
    flips = [i for i in range(1, len(flags)) if flags[i] != flags[i - 1]]
    assert len(flips) == 1
    i = flips[0]
    assert flags[0] == "time_dilation" and flags[-1] == "emission"
    assert separations[i - 1] < dx_star < separations[i]

    # at the crossover itself neither channel is declared dominant
    assert _cell(model, dx_star, n, t, g)[0] == "boundary"
    # with no time-dilation decoherence (N = 0) emission wins at every separation
    assert crossover_separation(0.0, t, g, model, CONSTS) == 0.0


@pytest.mark.parametrize("n, sigma0, dx_star, flag", [
    (0.0, 3e-22, 0.0, "emission"),  # tau_dec = inf, I > 0
    (0.0, 0.0, math.inf, "boundary"),  # both timescales inf
    (1e300, 3e-22, math.inf, "time_dilation"),  # tau_dec underflows to 0: A I is below float64
], ids=["no-time-dilation", "neither", "no-crossover-in-float64"])
def test_crossover_agrees_with_regime_scan_at_the_degenerate_ends(n, sigma0, dx_star, flag):
    # it returned inf where tau_dec was inf, and divided by zero where A I underflowed
    model = blackbody_emission_model(300.0, power_law_cross_section(sigma0, 1e7, 0.0), CONSTS)
    t, g = (300.0, 9.81) if n == 0.0 else (1e300, 1e300)
    assert crossover_separation(n, t, g, model, CONSTS) == dx_star
    separations = np.geomspace(1e-100, 1e100, 9)
    rm = regime_scan("delta_x", separations, np.array([t]), lambda temp: model, g, CONSTS,
                     n_modes=n)
    assert set(rm.flags[:, 0]) == {flag}


def test_regime_scan_matches_pointwise_calls():
    def factory(temp):
        return blackbody_emission_model(temp, power_law_cross_section(1e-28, 1e7, 0.0), CONSTS)

    n, g = 1e23, 9.81
    temps = np.array([150.0, 250.0, 400.0])
    # dx = 0 makes both timescales infinite; the 250 K crossover is a tie
    star = crossover_separation(n, 250.0, g, factory(250.0), CONSTS)
    seps = np.array([0.0, 1e-6, 1e-4, star, 1e-2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rm = regime_scan("delta_x", seps, temps, factory, g, CONSTS, n_modes=n)
    # the cell-by-cell reference: the closed form, 1 / (dx^2 I) and the comparison
    tau_d = np.array([[decoherence_time(n, float(t), float(dx), g, CONSTS) for t in temps]
                      for dx in seps])
    integrals = [emission_rate_integral(factory(float(t)), CONSTS) for t in temps]
    with np.errstate(divide="ignore"):
        tau_e = np.array([[1.0 / (np.float64(dx) ** 2 * i) for i in integrals] for dx in seps])
    flags = np.array([[str(compare_timescales(d, e)) for d, e in zip(row_d, row_e)]
                      for row_d, row_e in zip(tau_d, tau_e)])
    assert np.array_equal(rm.flags, flags)
    assert np.array_equal(rm.tau_dec, tau_d)
    assert np.array_equal(rm.tau_em, tau_e)
    assert np.all(np.isinf(rm.tau_dec[0])) and np.all(np.isinf(rm.tau_em[0]))
    assert np.all(rm.flags[0] == "boundary")
    assert rm.flags[3, 1] == "boundary"
    assert set(rm.flags.ravel()) == {"time_dilation", "emission", "boundary"}


def test_regime_scan_silent_emitter_is_uniform():
    k = np.linspace(1e6, 2e6, 16)
    silent = tabulated_emission_model(k, np.ones_like(k), np.zeros_like(k))
    rm = regime_scan(
        "delta_x",
        np.geomspace(1e-6, 1e-3, 4),
        np.geomspace(10.0, 1000.0, 5),
        lambda temp: silent,
        9.81,
        CONSTS,
        n_modes=1e23,
    )
    assert np.all(rm.flags == "time_dilation")
    assert np.all(np.isinf(rm.tau_em))


def test_regime_scan_temperature_boundary_moves_with_radius():
    factory = lambda temp: blackbody_emission_model(
        temp, power_law_cross_section(1e-28, 1e7, 0.0), CONSTS
    )
    rm = regime_scan(
        "radius",
        np.geomspace(1e-8, 1e-6, 5),
        np.geomspace(10.0, 1000.0, 8),
        factory,
        9.81,
        CONSTS,
        mode_density=1e27,
        delta_x=1e-6,
    )
    # every row goes time_dilation -> emission once, and more internal modes
    # (bigger radius) push the takeover to higher temperature
    flips = []
    for i in range(rm.axis1.size):
        row = list(rm.flags[i])
        j = row.index("emission") if "emission" in row else len(row)
        assert all(f == "time_dilation" for f in row[:j])
        assert all(f == "emission" for f in row[j:])
        flips.append(j)
    assert flips == sorted(flips)
    assert flips[0] < 8  # at least one row actually flips
    # flags are consistent with the stored timescales everywhere
    finite = np.isfinite(rm.tau_dec) & np.isfinite(rm.tau_em)
    wins = rm.tau_dec < rm.tau_em
    assert np.all((rm.flags == "time_dilation")[finite] == wins[finite])


def test_regime_scan_argument_validation():
    factory = lambda temp: _constant_rate_model(1e6, 2e6, 1e-30)
    axis = np.array([1e-6, 1e-5])
    temps = np.array([100.0])
    with pytest.raises(DomainError, match="mode_density"):
        regime_scan("radius", axis, temps, factory, 9.81, CONSTS)
    with pytest.raises(DomainError, match="n_modes"):
        regime_scan("delta_x", axis, temps, factory, 9.81, CONSTS)
    with pytest.raises(DomainError, match="axis1_kind"):
        regime_scan("mass", axis, temps, factory, 9.81, CONSTS, n_modes=1e20)
    with pytest.raises(DomainError, match="non-empty"):
        regime_scan("delta_x", np.array([]), temps, factory, 9.81, CONSTS, n_modes=1e20)


def test_regime_map_shape_validation():
    with pytest.raises(DomainError, match="shape"):
        RegimeMap(
            axis1_kind="delta_x",
            axis1=np.array([1.0, 2.0]),
            temperatures=np.array([1.0]),
            tau_dec=np.zeros((1, 1)),
            tau_em=np.zeros((2, 1)),
            flags=np.full((2, 1), "emission", dtype=object),
        )
    with pytest.raises(DomainError, match="axis1_kind"):
        RegimeMap(
            axis1_kind="mass",
            axis1=np.array([1.0]),
            temperatures=np.array([1.0]),
            tau_dec=np.zeros((1, 1)),
            tau_em=np.zeros((1, 1)),
            flags=np.full((1, 1), "emission", dtype=object),
        )


def test_number_of_modes_from_radius():
    # a one-cell radius grid holds the time-dilation timescale of
    # N = 4/3 pi r^3 rho_N, to the bit (r^3 as numpy cubes an array, which
    # differs from Python's float pow in the last bit at this r)
    model = _constant_rate_model(1e6, 2e6, 1e-20)
    radius = np.array([2.5e-3])
    rm = regime_scan("radius", radius, np.array([300.0]), lambda temp: model, 9.81,
                     CONSTS, mode_density=3.3e28, delta_x=1e-3)
    n = float((4.0 / 3.0 * math.pi * radius**3 * 3.3e28)[0])
    assert rm.tau_dec[0, 0] == decoherence_time(n, 300.0, 1e-3, 9.81, CONSTS)
    for radius, density in ((0.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 0.0)):
        with pytest.raises(DomainError, match="^radius and mode_density must be > 0$"):
            regime_scan("radius", np.array([1.0, radius]), np.array([300.0]),
                        lambda temp: model, 9.81, CONSTS, mode_density=density, delta_x=1e-3)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rate_integral_refuses_non_finite_integrand(bad):
    k = np.linspace(1e6, 2e6, 8)
    model = EmissionModel(
        spectral_density=lambda q: np.where(q == k[2], bad, 1.0),
        cross_section=lambda q: np.ones_like(q),
        k_grid=k,
        label="custom-model",
    )
    with pytest.raises(DomainError, match="'custom-model': integrand negative or not finite"):
        emission_rate_integral(model, CONSTS)


def test_tabulated_model_validation_and_range():
    k = np.linspace(1e6, 2e6, 8)
    with pytest.raises(DomainError, match="1-D"):
        tabulated_emission_model(k, np.ones(4), np.ones(8))
    with pytest.raises(DomainError, match=">= 0"):
        tabulated_emission_model(k, -np.ones_like(k), np.ones_like(k))
    for name, bad in (("k", np.where(k == k[3], np.inf, k)),
                      ("g", np.where(k == k[3], np.nan, 1.0)),
                      ("sigma", np.where(k == k[3], np.nan, 1.0))):
        arrays = {"k": k, "g": np.ones_like(k), "sigma": np.ones_like(k), name: bad}
        with pytest.raises(DomainError, match=f"tabulated {name} has non-finite"):
            tabulated_emission_model(arrays["k"], arrays["g"], arrays["sigma"])
    model = tabulated_emission_model(k, np.ones_like(k), np.ones_like(k))
    with pytest.raises(DomainError, match="outside"):
        model.cross_section(np.array([5e5]))
    with pytest.raises(DomainError, match="k_grid"):
        EmissionModel(
            spectral_density=lambda q: q,
            cross_section=lambda q: q,
            k_grid=np.array([2.0, 1.0]),
            label="bad",
        )


def test_emission_model_from_csv(tmp_path):
    k = np.linspace(1e6, 2e6, 12)
    path = tmp_path / "spectrum.csv"
    rows = ["# k,g,sigma"] + [f"{float(ki)!r},{1.0!r},{1e-30!r}" for ki in k]
    path.write_text("\n".join(rows) + "\n")
    model = emission_model_from_csv(str(path))
    assert model.label == str(path)
    direct = tabulated_emission_model(k, np.ones_like(k), np.full_like(k, 1e-30))
    assert math.isclose(
        emission_rate_integral(model, CONSTS),
        emission_rate_integral(direct, CONSTS),
        rel_tol=1e-15,
    )

    bad = tmp_path / "short.csv"
    bad.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(DomainError, match="three columns"):
        emission_model_from_csv(str(bad))
