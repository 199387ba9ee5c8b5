"""Closed-form visibility laws and decoherence timescales.

For a particle held in a two-point vertical superposition, the internal
thermal modes dephase the centre of mass. The exact interferometric
visibility is a product over modes,

    V = | prod_i [1 + nbar_i (1 - exp(-i w_i dtau))]^-1 |,

with dtau the proper-time difference between the two arms (dtau =
t*g*dx/c^2 for static arms in a homogeneous field). In the high-temperature
limit the frequencies drop out and V collapses to a closed form in (N, T)
alone, with the Gaussian decay exp(-(t/tau_dec)^2) as its small-angle limit.

The laws are array functions: the high-T and Gaussian laws take an array of
times, :func:`decoherence_time` arrays of N, T and dx, and each evaluates a
whole grid in one numpy expression (scalar inputs give a Python float). All
products are accumulated in log space; nothing here ever materializes 1e23
factors. Degenerate no-decoherence inputs (N, T, dx or g equal to 0) yield an
infinite timescale and V = 1 rather than an exception: these are physically
meaningful regimes the CLI reports as such.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants
from .errors import DomainError
from .internal_state import InternalStateSpec, _highT_log_modulus, _log_mode_product

#: Laws a VisibilityCurve can be tagged with.
VISIBILITY_LAWS = ("exact-product", "high-T", "gaussian", "master-equation")

#: Explicit-frequency mode counts above this refuse to evaluate the product.
DEFAULT_MODE_LIMIT = 10**6


@dataclass(frozen=True)
class SchwarzschildSpec:
    """Central mass M and the distance R of the particle from its centre."""

    central_mass: float
    radius: float

    def __post_init__(self) -> None:
        if self.central_mass <= 0:
            raise DomainError("central_mass must be > 0")
        if self.radius <= 0:
            raise DomainError("radius must be > 0")

    def schwarzschild_radius(self, consts: PhysicalConstants) -> float:
        return 2.0 * consts.G * self.central_mass / consts.c**2

    def validate_weak_field(self, consts: PhysicalConstants) -> None:
        """Reject R below the horizon; warn where the weak-field form is marginal."""
        r_s = self.schwarzschild_radius(consts)
        if self.radius < r_s:
            raise DomainError(
                f"radius {self.radius} m lies inside the Schwarzschild radius {r_s:.6g} m"
            )
        if self.radius < 10.0 * r_s:
            warnings.warn(
                "weak-field timescale used at R < 10 R_s; treat as an order-of-magnitude estimate",
                stacklevel=2,
            )


@dataclass(frozen=True)
class VisibilityCurve:
    """Time series of interferometric visibility with the law that produced it."""

    times: np.ndarray
    values: np.ndarray
    law: str

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if self.law not in VISIBILITY_LAWS:
            raise DomainError(f"unknown visibility law {self.law!r}")
        if times.shape != values.shape or times.ndim != 1:
            raise DomainError("times and values must be 1-D arrays of equal length")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise DomainError("times must be strictly increasing")
        if np.any(values < -1e-12) or np.any(values > 1.0 + 1e-12):
            raise DomainError("visibility values must lie in [0, 1]")
        if times.size and times[0] == 0.0 and not math.isclose(values[0], 1.0, rel_tol=0, abs_tol=1e-9):
            raise DomainError("visibility at t = 0 must be 1")


def _exact_log_visibility(spec: InternalStateSpec, delta_tau, consts: PhysicalConstants):
    """log V at each delta_tau, refusing the high-T marker and oversized specs."""
    if spec.is_high_temperature:
        raise DomainError("exact_visibility requires explicit frequencies; "
                          "use highT_visibility for the high-T marker")
    if len(spec.frequencies) > DEFAULT_MODE_LIMIT:
        raise DomainError(
            f"{len(spec.frequencies)} modes exceeds DEFAULT_MODE_LIMIT={DEFAULT_MODE_LIMIT}"
        )
    return _log_mode_product(spec, delta_tau, consts).real


def exact_visibility(spec: InternalStateSpec, delta_tau: float, consts: PhysicalConstants) -> float:
    """Exact product-formula visibility for an explicit-frequency thermal spec.

    Even in ``delta_tau``; equals 1 at delta_tau = 0 and at T = 0. Accumulated
    as exp(-sum log|z_i|) so arbitrarily small visibilities do not underflow
    intermediate products. Specs with more than DEFAULT_MODE_LIMIT explicit
    modes are refused (the high-temperature law exists precisely to avoid them).
    """
    return math.exp(_exact_log_visibility(spec, delta_tau, consts))


def highT_visibility(n_modes, temperature, delta_x, g, t, consts: PhysicalConstants):
    """High-temperature visibility (1 + theta^2)^(-N/2), theta = k_B*T*g*dx*t/(hbar*c^2).

    Evaluated at every entry of ``t`` (any arguments may be arrays that
    broadcast together); scalar inputs give a float.
    """
    _require_nonnegative(n_modes, temperature, t)
    theta = consts.k_B * temperature * g * delta_x * np.asarray(t, dtype=float) / (
        consts.hbar * consts.c**2
    )
    return _scalar_or_array(np.exp(_highT_log_modulus(n_modes, theta)))


def gaussian_visibility(n_modes, temperature, delta_x, g, t, consts: PhysicalConstants):
    """Gaussian decay exp(-(t/tau_dec)^2), the small-angle limit of the high-T law.

    Evaluated at every entry of ``t``; an infinite tau_dec gives V = 1, and
    scalar inputs give a float.
    """
    _require_nonnegative(n_modes, temperature, t)
    tau = decoherence_time(n_modes, temperature, delta_x, g, consts)
    return _scalar_or_array(np.exp(-((np.asarray(t, dtype=float) / tau) ** 2)))


def decoherence_time(n_modes, temperature, delta_x, g, consts: PhysicalConstants):
    """Time at which the Gaussian law reaches 1/e: sqrt(2/N) hbar c^2 / (k_B T g |dx|).

    Takes arrays of N, T and dx that broadcast together; scalar inputs give
    a float. Degenerate inputs (N, T, dx or g equal to 0) mean no
    decoherence and give inf. The sign of the separation (and of g) is
    irrelevant.
    """
    n_modes, temperature, delta_x = (
        np.asarray(a, dtype=float) for a in (n_modes, temperature, delta_x)
    )
    if np.any(n_modes < 0) or np.any(temperature < 0):
        raise DomainError("n_modes and temperature must be >= 0")
    # A zero N or denominator divides to exactly +inf, the no-decoherence
    # answer; the numerator sqrt(2/N) hbar c^2 is never 0, so no NaN arises.
    with np.errstate(divide="ignore"):
        tau = (
            np.sqrt(2.0 / n_modes)
            * consts.hbar
            * consts.c**2
            / (consts.k_B * temperature * abs(g) * np.abs(delta_x))
        )
    return _scalar_or_array(tau)


def decoherence_time_schwarzschild(
    n_modes: float,
    temperature: float,
    delta_x: float,
    sw: SchwarzschildSpec,
    consts: PhysicalConstants,
) -> float:
    """Decoherence time sqrt(8/N) hbar R^2 / (k_B T R_s |dx|) near a mass M.

    This is :func:`decoherence_time` at the local acceleration g = G M / R^2,
    after the weak-field check.
    """
    sw.validate_weak_field(consts)
    g = consts.G * sw.central_mass / sw.radius**2
    return decoherence_time(n_modes, temperature, delta_x, g, consts)


def hawking_temperature(mass: float, consts: PhysicalConstants) -> float:
    """Hawking temperature hbar c^3 / (8 pi k_B G M) of a mass M."""
    if mass <= 0:
        raise DomainError("mass must be > 0")
    return consts.hbar * consts.c**3 / (8.0 * math.pi * consts.k_B * consts.G * mass)


def proper_time_lab(delta_x: float, g: float, t: float, consts: PhysicalConstants) -> float:
    """Proper-time difference t*g*dx/c^2 between static arms in a homogeneous field."""
    return t * g * delta_x / consts.c**2


def visibility_curve(
    law: str,
    times: np.ndarray,
    n_modes: float,
    temperature: float,
    delta_x: float,
    g: float,
    consts: PhysicalConstants,
    frequencies=None,
) -> VisibilityCurve:
    """Evaluate one of the closed-form laws on a time grid.

    ``law`` is one of "exact-product" (requires ``frequencies``), "high-T",
    or "gaussian".
    """
    times = np.asarray(times, dtype=float)
    if law == "exact-product":
        if frequencies is None:
            raise DomainError("exact-product law requires explicit frequencies")
        spec = InternalStateSpec.from_frequencies(frequencies, temperature)
        dtau = proper_time_lab(delta_x, g, times, consts)
        values = np.exp(_exact_log_visibility(spec, dtau, consts))
    elif law == "high-T":
        values = highT_visibility(n_modes, temperature, delta_x, g, times, consts)
    elif law == "gaussian":
        values = gaussian_visibility(n_modes, temperature, delta_x, g, times, consts)
    else:
        raise DomainError(f"unknown closed-form law {law!r}")
    return VisibilityCurve(times=times, values=values, law=law)


def _require_nonnegative(n_modes, temperature, t) -> None:
    if any(np.any(np.asarray(a) < 0) for a in (n_modes, temperature, t)):
        raise DomainError("n_modes, temperature and t must be >= 0")


def _scalar_or_array(values):
    """A Python float for a 0-d result, else the array itself."""
    return float(values) if np.ndim(values) == 0 else values
