"""Which-path information carried away by emitted radiation, and regime maps.

A superposition of separation dx also decoheres when the particle emits or
scatters quanta that resolve the two positions. In the long-wavelength limit
the rate is quadratic in the separation,

    1/tau_em = dx^2 * integral dk k^2 c g(k) sigma_eff(k),

with g(k) the spectral number density of available modes and sigma_eff the
effective coupling cross-section. This scales as dx^-2 against the dx^-1 of
the time-dilation channel, so for fixed internal content the two timescales
cross at exactly one separation; :func:`regime_scan` charts which channel
wins where.

The built-in spectral density is a thermal (blackbody) stand-in,
g(k) = (k^2 / pi^2) / (exp(hbar c k / k_B T) - 1); measured spectra and
cross-sections can be supplied as tables instead.

The timescales and the classification are array functions: a regime map is
one call of each over the whole grid, and :func:`regime_scan` is the one
route to tau_em and the dominance flags (a single point is a one-cell grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._tables import linear_interpolant, read_table
from .constants import PhysicalConstants
from .errors import DomainError
from .timescales import decoherence_time

#: Relative timescale difference below which neither channel is called dominant.
BOUNDARY_RTOL = 1e-9

#: Wavenumbers on the blackbody stand-in's grid. Doubling them moves the emission
#: rate of a power-law cross-section (exponent 0 to 2) by under 1e-6 relative.
BLACKBODY_K_POINTS = 4096


@dataclass(frozen=True)
class EmissionModel:
    """Spectral density g(k) and cross-section sigma(k) with an integration grid."""

    spectral_density: Callable[[np.ndarray], np.ndarray]
    cross_section: Callable[[np.ndarray], np.ndarray]
    k_grid: np.ndarray
    label: str

    def __post_init__(self) -> None:
        k = np.asarray(self.k_grid, dtype=float)
        object.__setattr__(self, "k_grid", k)
        if k.ndim != 1 or k.size < 2:
            raise DomainError("k_grid needs at least two points")
        if k[0] <= 0 or not np.all(np.diff(k) > 0):
            raise DomainError("k_grid must be positive and strictly increasing")


def blackbody_spectral_density(
    temperature: float, consts: PhysicalConstants
) -> Callable[[np.ndarray], np.ndarray]:
    """Thermal photon-number spectrum (k^2/pi^2) / (exp(hbar c k / k_B T) - 1)."""

    def g(k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        x = consts.hbar * consts.c * k / (consts.k_B * temperature)
        return k**2 / math.pi**2 / np.expm1(x)

    return g


def power_law_cross_section(
    sigma0: float, k0: float, alpha: float
) -> Callable[[np.ndarray], np.ndarray]:
    """sigma(k) = sigma0 * (k/k0)^alpha; exactly 0 at sigma0 = 0, where (k/k0)^alpha is inf too."""
    if sigma0 < 0 or k0 <= 0:
        raise DomainError("need sigma0 >= 0 and k0 > 0")

    def sigma(k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        if sigma0 == 0:
            return np.zeros_like(k)
        return sigma0 * (k / k0) ** alpha

    return sigma


def blackbody_emission_model(
    temperature: float,
    cross_section: Callable[[np.ndarray], np.ndarray],
    consts: PhysicalConstants,
) -> EmissionModel:
    """Thermal stand-in model on a grid spanning the occupied band.

    The grid is ``BLACKBODY_K_POINTS`` geometrically spaced wavenumbers
    covering hbar c k / k_B T from 1e-3 to 40. With a power-law
    cross-section k^alpha, :func:`emission_rate_integral` on this grid is
    within about 1.1e-6 of the exact Gamma(5 + alpha) zeta(5 + alpha) rate
    for alpha from 0 to 10, at any temperature. Outside that range the band
    edges cut off the integrand: the rate is 2.7% low at alpha = -3.5 and
    19% low at alpha = 30. A temperature
    whose grid leaves float64's range, where hbar c k is subnormal or k^2
    overflows, is refused by name.
    """
    if temperature <= 0:
        raise DomainError("temperature must be > 0")
    k_thermal = consts.k_B * temperature / (consts.hbar * consts.c)
    if not (1e-3 * consts.k_B * temperature >= np.finfo(float).tiny
            and 40.0 * k_thermal < math.sqrt(np.finfo(float).max)):
        raise DomainError(
            f"temperature {temperature:.6g} K is outside the blackbody stand-in's float64 range: "
            "on its wavenumbers, 1e-3 to 40 times k_B T / (hbar c), hbar c k is subnormal or "
            "k^2 overflows"
        )
    k_grid = np.geomspace(1e-3 * k_thermal, 40.0 * k_thermal, BLACKBODY_K_POINTS)
    return EmissionModel(
        spectral_density=blackbody_spectral_density(temperature, consts),
        cross_section=cross_section,
        k_grid=k_grid,
        label="blackbody-standin",
    )


def tabulated_emission_model(
    k: np.ndarray, g: np.ndarray, sigma: np.ndarray, label: str = "tabulated"
) -> EmissionModel:
    """Model interpolated linearly from measured (k, g, sigma) samples."""
    k, g, sigma = (np.asarray(a, dtype=float) for a in (k, g, sigma))
    spectral_density = linear_interpolant(k, g, ("k", "g"))
    cross_section = linear_interpolant(k, sigma, ("k", "sigma"))
    if np.any(g < 0) or np.any(sigma < 0):
        raise DomainError("spectral density and cross-section must be >= 0")
    return EmissionModel(
        spectral_density=spectral_density, cross_section=cross_section, k_grid=k, label=label
    )


def emission_model_from_csv(path: str) -> EmissionModel:
    """Load a tabulated model from CSV columns k,g,sigma."""
    return tabulated_emission_model(*read_table(path, ("k", "g", "sigma")).T, label=path)


def emission_rate_integral(model: EmissionModel, consts: PhysicalConstants) -> float:
    """Trapezoid integral int dk k^2 c g(k) sigma(k) over the model's grid.

    A negative or non-finite g or sigma is the model's fault; an integrand or
    integral past float64's range from finite ones is refused as an overflow.
    The integrand is exactly 0 wherever sigma is, even where k^2 c g overflows.
    """
    k = model.k_grid
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below
        g, sigma = model.spectral_density(k), model.cross_section(k)
    if not (0 <= g.min() <= g.max() < np.inf and 0 <= sigma.min() <= sigma.max() < np.inf):
        raise DomainError(f"emission model {model.label!r}: integrand negative or not finite")
    with np.errstate(over="ignore", invalid="ignore"):  # inf refused below; inf * 0 masked
        f = np.where(sigma == 0, 0.0, k**2 * consts.c * g * sigma)
        total = float(0.5 * np.sum((f[1:] + f[:-1]) * np.diff(k)))
    if not total < math.inf:
        raise DomainError(f"emission model {model.label!r}: the integrand k^2 c g sigma or its "
                          "integral overflows float64")
    return total


def compare_timescales(tau_dec, tau_em):
    """Shorter timescale wins, element by element; ties are "boundary".

    A tie is |tau_dec - tau_em| <= BOUNDARY_RTOL * min, or equality, which
    makes two infinite timescales a tie. Returns an array of flags, one of
    "time_dilation", "emission" or "boundary" per element.
    """
    tau_dec, tau_em = np.asarray(tau_dec, dtype=float), np.asarray(tau_em, dtype=float)
    if not (np.all(tau_dec >= 0) and np.all(tau_em >= 0)):  # NaN fails too
        raise DomainError("timescales must be >= 0 and not NaN")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN; the equality catches inf == inf
        tie = (tau_dec == tau_em) | (
            np.abs(tau_dec - tau_em) <= BOUNDARY_RTOL * np.minimum(tau_dec, tau_em)
        )
    return np.where(tie, "boundary", np.where(tau_dec < tau_em, "time_dilation", "emission"))


AXIS_KINDS = ("radius", "delta_x")


@dataclass(frozen=True)
class RegimeMap:
    """Timescales and winning mechanisms over (radius or separation) x temperature."""

    axis1_kind: str
    axis1: np.ndarray
    temperatures: np.ndarray
    tau_dec: np.ndarray
    tau_em: np.ndarray
    flags: np.ndarray

    def __post_init__(self) -> None:
        if self.axis1_kind not in AXIS_KINDS:
            raise DomainError(f"axis1_kind must be one of {AXIS_KINDS}")
        shape = (self.axis1.size, self.temperatures.size)
        for name in ("tau_dec", "tau_em", "flags"):
            if getattr(self, name).shape != shape:
                raise DomainError(f"{name} must have shape {shape}")


def regime_scan(
    axis1_kind: str,
    axis1: np.ndarray,
    temperatures: np.ndarray,
    model_factory: Callable[[float], EmissionModel],
    g: float,
    consts: PhysicalConstants,
    mode_density: float | None = None,
    delta_x: float | None = None,
    n_modes: float | None = None,
) -> RegimeMap:
    """Chart the dominant decoherence channel over a 2-D parameter grid.

    ``axis1_kind`` picks the first axis: "radius" converts each radius r to
    the mode count (4/3) pi r^3 ``mode_density`` (both must be > 0) and holds
    ``delta_x`` fixed, "delta_x" scans the separation at fixed ``n_modes``.
    The second axis is always temperature, and ``model_factory(T)`` supplies
    the emission model per column (thermal spectra move with T; a fixed
    tabulated model can ignore the argument), whose rate integral I is
    evaluated once for the column. The timescales and flags of all cells are
    then one call each: tau_dec takes each cell from the one scalar law of
    :func:`decoherence_time`, and tau_em = 1 / (dx^2 I), +inf where dx or I
    is 0.
    """
    axis1 = np.asarray(axis1, dtype=float)
    temperatures = np.asarray(temperatures, dtype=float)
    if axis1.ndim != 1 or temperatures.ndim != 1 or not axis1.size or not temperatures.size:
        raise DomainError("axis grids must be non-empty 1-D arrays")
    if axis1_kind == "radius":
        if mode_density is None or delta_x is None:
            raise DomainError("radius axis needs mode_density and a fixed delta_x")
        if np.any(axis1 <= 0) or mode_density <= 0:
            raise DomainError("radius and mode_density must be > 0")
        with np.errstate(over="ignore"):
            n_of = (4.0 / 3.0 * math.pi * axis1**3 * mode_density)[:, None]
        if np.any(np.isinf(n_of)):
            radius = float(axis1[np.isinf(n_of[:, 0])][0])
            raise DomainError(f"radius {radius:.6g} m: r^3, or the mode count (4/3) pi r^3 "
                              "mode_density, overflows float64")
        dx_of = np.full((axis1.size, 1), float(delta_x))
    elif axis1_kind == "delta_x":
        if n_modes is None:
            raise DomainError("delta_x axis needs a fixed n_modes")
        n_of = float(n_modes)
        dx_of = axis1[:, None]
    else:
        raise DomainError(f"axis1_kind must be one of {AXIS_KINDS}")

    integrals = np.array(
        [emission_rate_integral(model_factory(float(temp)), consts) for temp in temperatures]
    )
    tau_d = decoherence_time(n_of, temperatures, dx_of, g, consts)
    # 1 / (dx^2 I) from the mantissas and exponents of dx and I, so that no
    # product leaves float64's range before the quotient does. In the normal
    # range these are the plain quotient's bits; a zero dx or I gives +inf.
    (m_dx, e_dx), (m_i, e_i) = np.frexp(dx_of), np.frexp(integrals)
    with np.errstate(divide="ignore", over="ignore"):
        tau_e = np.ldexp(1.0 / (m_dx * m_dx * m_i), -(2 * e_dx + e_i))
    return RegimeMap(
        axis1_kind=axis1_kind,
        axis1=axis1,
        temperatures=temperatures,
        tau_dec=tau_d,
        tau_em=tau_e,
        flags=compare_timescales(tau_d, tau_e),
    )


def crossover_separation(
    n_modes: float,
    temperature: float,
    g: float,
    model: EmissionModel,
    consts: PhysicalConstants,
) -> float:
    """Separation where the two channels tie: dx* = 1 / (A * I).

    A = tau_dec * dx is the separation-free part of the time-dilation law and
    I the emission rate integral. Since tau_dec = A / dx while
    tau_em = 1 / (dx^2 I), time dilation wins below dx* and emission above.
    With no emission (I = 0) time dilation wins everywhere and dx* is inf;
    with no time-dilation decoherence (A = inf, as at N = 0) emission wins
    everywhere and dx* is 0. Where A I falls below float64's range, dx* is
    past it and inf too.
    """
    a = decoherence_time(n_modes, temperature, 1.0, g, consts)
    integral = emission_rate_integral(model, consts)
    if integral == 0.0:
        return math.inf
    with np.errstate(divide="ignore"):
        return float(1.0 / np.float64(a * integral))
