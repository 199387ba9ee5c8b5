"""Every public function that takes ``consts``, at edge constants and edge frequencies.

Each call runs with warnings as errors. Its outcome must be a value that
holds no NaN, or a package error (``DomainError`` or
``NumericalInstabilityError``). The constant sets are the SI defaults and
hbar = 1e-300, c = 1e200 and hbar = 1e150, whose powers leave float64's
range in each direction; c = 1e-150, whose hbar c^2 underflows to 0, is
refused when it is built. The routes through the mode product also run at
modes of 1e-150 rad/s (4 nbar (nbar + 1) overflows at 300 K) and 1e-4 rad/s
(the Boltzmann factor exp(-hbar w / k_B T) rounds to 1).
"""

from __future__ import annotations

import dataclasses
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

import gravidec
from gravidec import (
    CMHamiltonianSpec,
    DensityMatrixGrid,
    EvolutionConfig,
    HomogeneousPotential,
    InternalStateSpec,
    OracleConfig,
    PhysicalConstants,
    SchwarzschildSpec,
    SchwarzschildWeakPotential,
    TabulatedPotential,
    TrajectoryPair,
    blackbody_emission_model,
    power_law_cross_section,
)
from gravidec.errors import DomainError, NumericalInstabilityError

pytestmark = pytest.mark.filterwarnings("error")

CONSTANTS = {"si": {}, "hbar=1e-300": {"hbar": 1e-300}, "c=1e200": {"c": 1e200},
             "hbar=1e150": {"hbar": 1e150}}

#: Mode tables for the routes through the mode product.
MODES = {"modes": (1e13, 2e13, 5e13), "w=1e-150": (1e-150,), "w=1e-4": (1e-4,)}

T, DX, G, DTAU = 300.0, 1e-3, 9.81, 1e-15
TIMES = np.linspace(0.0, 1e-6, 3)
ORACLE = OracleConfig(n_samples=64)


def _model(consts):
    return blackbody_emission_model(T, power_law_cross_section(3e-22, 1e7, 0.0), consts)


def _evolve(name, form="markovian"):
    def run(consts):
        rho0 = DensityMatrixGrid.two_point_superposition(0.0, 1e-6, n_points=4)
        cfg = EvolutionConfig(dt=1e-8, t_final=1e-7, lambda_coefficient=2e24, form=form)
        ham = CMHamiltonianSpec("free_plus_linear", 1e-25, G, 1e-20)
        return getattr(gravidec, name)(rho0, ham, cfg, consts)
    return run


#: One call per public function or method that takes ``consts`` and no mode table.
CALLS = {
    "blackbody_emission_model": lambda consts: _model(consts).k_grid,
    "CMHamiltonianSpec.gravitational_weight":
        lambda consts: CMHamiltonianSpec("free", 1e-25, G, 1e-20).gravitational_weight(consts),
    "crossover_separation":
        lambda consts: gravidec.crossover_separation(1e23, T, G, _model(consts), consts),
    "decoherence_time": lambda consts: gravidec.decoherence_time(1e23, T, DX, G, consts),
    "decoherence_time_schwarzschild": lambda consts: gravidec.decoherence_time_schwarzschild(
        1e23, T, 1e-9, SchwarzschildSpec(9.945e30, 1.5e6), consts),
    "dephasing_coefficient": lambda consts: gravidec.dephasing_coefficient(1e23, T, G, consts),
    "emission_rate_integral":
        lambda consts: gravidec.emission_rate_integral(_model(consts), consts),
    "evolve": _evolve("evolve"),
    "evolve_markovian": _evolve("evolve_markovian"),
    "evolve_full_memory": _evolve("evolve_full_memory", "full_memory"),
    "gaussian_visibility":
        lambda consts: gravidec.gaussian_visibility(1e23, T, DX, G, TIMES, consts),
    "hawking_temperature": lambda consts: gravidec.hawking_temperature(9.945e30, consts),
    "highT_visibility": lambda consts: gravidec.highT_visibility(1e23, T, DX, G, TIMES, consts),
    "HomogeneousPotential.phi": lambda consts: HomogeneousPotential(G).phi(TIMES, consts),
    "proper_time_difference": lambda consts: gravidec.proper_time_difference(
        TrajectoryPair.static(0.0, 1.0, 1.0, 11), HomogeneousPotential(G), consts),
    "regime_scan": lambda consts: gravidec.regime_scan(
        "delta_x", np.geomspace(1e-6, 1e-2, 3), np.array([100.0, 600.0]),
        lambda temperature: _model(consts), G, consts, n_modes=1e23),
    "run_oracle_battery": lambda consts: gravidec.run_oracle_battery(1, ORACLE, consts),
    "SchwarzschildSpec.schwarzschild_radius":
        lambda consts: SchwarzschildSpec(9.945e30, 1.5e6).schwarzschild_radius(consts),
    "SchwarzschildSpec.validate_weak_field":
        lambda consts: SchwarzschildSpec(9.945e30, 1.5e6).validate_weak_field(consts),
    "SchwarzschildWeakPotential.phi":
        lambda consts: SchwarzschildWeakPotential(5.972e24).phi(np.array([6.4e6]), consts),
    "TabulatedPotential.phi": lambda consts: TabulatedPotential(
        np.array([0.0, 1.0]), np.array([0.0, G])).phi(np.array([0.5]), consts),
    "TrajectoryPair.validate_velocities":
        lambda consts: TrajectoryPair.static(0.0, 1.0, 1.0, 11).validate_velocities(consts),
}

#: One call per public function that takes ``consts`` and a spec of explicit modes.
MODE_CALLS = {
    "exact_visibility": lambda spec, consts: gravidec.exact_visibility(spec, DTAU, consts),
    "fock_visibility":
        lambda spec, consts: gravidec.fock_visibility(spec, DTAU, ORACLE, consts),
    "internal_characteristic_function":
        lambda spec, consts: gravidec.internal_characteristic_function(spec, DTAU, consts),
    "internal_energy_variance":
        lambda spec, consts: gravidec.internal_energy_variance(spec, consts),
    "mc_visibility": lambda spec, consts: gravidec.mc_visibility(spec, DTAU, ORACLE, consts),
    "mean_internal_energy": lambda spec, consts: gravidec.mean_internal_energy(spec, consts),
    "memory_kernel_coefficients":
        lambda spec, consts: gravidec.memory_kernel_coefficients(spec, consts),
    "semiclassical_visibility":
        lambda spec, consts: gravidec.semiclassical_visibility(spec, DTAU, consts),
    "thermal_occupation":
        lambda spec, consts: gravidec.internal_state.thermal_occupation(
            spec.frequencies[0], T, consts),
    "two_point_unitary_oracle": lambda spec, consts: gravidec.two_point_unitary_oracle(
        spec, 0.0, 1.0, 1.0, G, ORACLE, consts),
    "visibility_curve": lambda spec, consts: gravidec.visibility_curve(
        "exact-product", TIMES, 0.0, T, DX, G, consts, frequencies=spec.frequencies),
}


def _numbers(value):
    """Every numeric array or number inside a result, its dataclasses and sequences included."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _numbers(getattr(value, field.name))
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float, complex, np.ndarray, np.generic)):
        array = np.asarray(value)
        if array.dtype.kind in "fc":
            yield array


def _check_outcome(call, *args):
    """The call returns a value with no NaN, or raises a package error; anything else propagates."""
    try:
        result = call(*args)
    except (DomainError, NumericalInstabilityError):
        return
    assert not any(np.isnan(a).any() for a in _numbers(result)), result


def test_the_sweep_covers_every_public_function_that_takes_consts():
    taking = set()
    for name in gravidec.__all__:
        obj = getattr(gravidec, name)
        members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
        for member, fn in members:
            if inspect.isfunction(fn) and "consts" in inspect.signature(fn).parameters:
                taking.add(name if member is None else f"{name}.{member}")
    # thermal_occupation is not public but keeps its sweep row: perfbench counts its calls
    assert taking | {"thermal_occupation"} == set(CALLS) | set(MODE_CALLS)


@pytest.mark.parametrize("overrides", CONSTANTS.values(), ids=CONSTANTS)
@pytest.mark.parametrize("name", CALLS)
def test_each_call_gives_a_value_or_a_package_error(name, overrides):
    _check_outcome(CALLS[name], PhysicalConstants(**overrides))


@pytest.mark.parametrize("modes", MODES.values(), ids=MODES)
@pytest.mark.parametrize("overrides", CONSTANTS.values(), ids=CONSTANTS)
@pytest.mark.parametrize("name", MODE_CALLS)
def test_each_mode_call_gives_a_value_or_a_package_error(name, overrides, modes):
    spec = InternalStateSpec.from_frequencies(modes, T)
    _check_outcome(MODE_CALLS[name], spec, PhysicalConstants(**overrides))


def test_a_zero_divisor_is_refused_by_name():
    # schwarzschild_radius divided by c^2 = 0, and memory_kernel_coefficients
    # by (hbar c^2)^2 = 0: each raised ZeroDivisionError
    with pytest.raises(DomainError, match=r"^constant c = 1e-200: c\^2 underflows to 0 "
                                          r"in float64$"):
        SchwarzschildSpec(9.945e30, 1.5e6).schwarzschild_radius(PhysicalConstants(c=1e-200))
    with pytest.raises(DomainError, match=r"^constants hbar = 1e-300 and c = 2.99792e\+08: "
                                          r"\(hbar c\^2\)\^2 underflows to 0 in float64$"):
        gravidec.memory_kernel_coefficients(InternalStateSpec.high_temperature_limit(1e23, T),
                                            PhysicalConstants(hbar=1e-300))
    with pytest.raises(DomainError, match=r"^constants hbar = 1.05457e-34 and c = 1e-150: "
                                          r"hbar c\^2 underflows to 0 in float64$"):
        PhysicalConstants(c=1e-150)


@pytest.mark.parametrize("omega", [1e-140, 1e-126], ids=["square-0", "square-subnormal"])
def test_energy_variance_holds_where_the_quantum_squared_underflows(omega):
    # (hbar w)^2 is 0 at 1e-140 rad/s and subnormal at 1e-126 rad/s, where
    # the mode's term read 0 and a few digits. hbar w / k_B T is below 1e-138,
    # so the exact variance (k_B T)^2 (1 - (hbar w / k_B T)^2 / 12 + ...) is
    # (k_B T)^2 in float64, and memory_kernel_coefficients' Lambda is not 0.
    consts = PhysicalConstants()
    spec = InternalStateSpec.from_frequencies((omega,), T)
    assert math.isclose(gravidec.internal_energy_variance(spec, consts), (consts.k_B * T) ** 2,
                        rel_tol=1e-12)
    assert gravidec.memory_kernel_coefficients(spec, consts).decoherence > 0.0


def test_hawking_temperature_holds_where_hbar_c_cubed_underflows():
    # at c = 1e-120, hbar c^3 and 8 pi k_B G M both underflow to 0 at
    # M = 1e-300 kg; the temperature is the exact quotient, correctly
    # rounded, within the few ulps that seven float64 operations leave
    consts = PhysicalConstants(c=1e-120)
    exact = float(Fraction(consts.hbar) * Fraction(consts.c) ** 3
                  / (8 * Fraction(math.pi) * Fraction(consts.k_B) * Fraction(consts.G)
                     * Fraction(1e-300)))
    assert math.isclose(exact, 4.5535e-63, rel_tol=1e-4)
    assert abs(gravidec.hawking_temperature(1e-300, consts) - exact) <= 4 * math.ulp(exact)
