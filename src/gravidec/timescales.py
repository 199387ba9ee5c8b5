"""Decoherence timescales and the Hawking temperature, in ``math`` alone.

tau_dec = sqrt(2/N) hbar c^2 / (k_B T g |dx|) is the time at which the
Gaussian visibility law reaches 1/e; outside a mass M at a distance R it is
taken at the local acceleration g = G M / R^2. These are the laws that
``gravidec tau`` runs, so this module imports no numpy: an array input
imports it and maps the one scalar law over the broadcast cells.

Every quotient is taken as IEEE 754 and numpy take it: a nonzero number over
a signed zero is a signed inf, and 0 / 0 is NaN. Degenerate no-decoherence
inputs (N, T, dx or g equal to 0) so give an infinite timescale rather than
an exception.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .constants import PhysicalConstants
from .errors import DomainError

_INF_OVER_INF = "tau_dec = sqrt(2/N) hbar c^2 / (k_B T g |dx|) is inf / inf in float64"


@dataclass(frozen=True)
class SchwarzschildSpec:
    """Central mass M and the distance R of the particle from its centre."""

    central_mass: float
    radius: float

    def __post_init__(self) -> None:
        for name in ("central_mass", "radius"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite")
            if value <= 0:
                raise DomainError(f"{name} must be > 0")

    def schwarzschild_radius(self, consts: PhysicalConstants) -> float:
        return 2.0 * consts.G * self.central_mass / consts.c2

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


def _quotient(a: float, b: float) -> float:
    """a / b in IEEE 754: +-inf for a nonzero a over +-0, NaN for 0 / 0 and NaN / 0."""
    if b:
        return a / b
    if a and not math.isnan(a):
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return math.nan


def _tau(n_modes: float, temperature: float, delta_x: float, g: float,
         consts: PhysicalConstants) -> float:
    """tau_dec of one cell; NaN where it is inf / inf."""
    if n_modes < 0 or temperature < 0:
        raise DomainError("n_modes and temperature must be >= 0")
    # A zero N or denominator divides to exactly +inf, the no-decoherence
    # answer; abs makes a -0 N or T that zero, and changes no other value.
    # A timescale past float64's range (say N = T = 1e-300) overflows to the
    # same +inf on purpose: no time a float64 holds shows decoherence. The
    # numerator sqrt(2/N) hbar c^2 is 0 only at N = inf or where sqrt(2/N)
    # hbar underflows (PhysicalConstants refuses a zero hbar c^2), so NaN
    # arises only where it and the denominator are both 0 (T, g or dx = 0
    # there) or both inf (N = 0 or below 1.1e-308, or c^2 past float64's
    # range).
    root = math.sqrt(_quotient(2.0, abs(n_modes)))
    return _quotient(root * consts.hbar * consts.c2,
                     consts.k_B * abs(temperature) * abs(g) * abs(delta_x))


def decoherence_time(n_modes, temperature, delta_x, g, consts: PhysicalConstants):
    """Time at which the Gaussian law reaches 1/e: sqrt(2/N) hbar c^2 / (k_B T g |dx|).

    Scalar inputs (Python or numpy numbers) give a Python float. Arrays of
    N, T, dx and g that broadcast together give an array, cell by cell the
    scalar's value, with numpy imported only then. Degenerate inputs (N, T,
    dx or g equal to 0) mean no decoherence and give inf. The sign of the
    separation (and of g) is irrelevant. A negative N or T is refused, and
    so is a timescale that is inf / inf.
    """
    args = (n_modes, temperature, delta_x, g)
    if not any(hasattr(a, "__len__") for a in args):
        tau = _tau(*map(float, args), consts)
        if tau != tau:
            raise DomainError(_INF_OVER_INF)
        return tau
    import numpy as np

    cells = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    tau = np.array([_tau(*cell, consts) for cell in zip(*(a.ravel().tolist() for a in cells))],
                   dtype=float)
    if np.isnan(tau).any():
        raise DomainError(_INF_OVER_INF)
    return float(tau[0]) if cells[0].ndim == 0 else tau.reshape(cells[0].shape)


def decoherence_time_schwarzschild(
    n_modes: float,
    temperature: float,
    delta_x: float,
    sw: SchwarzschildSpec,
    consts: PhysicalConstants,
) -> float:
    """Decoherence time sqrt(8/N) hbar R^2 / (k_B T R_s |dx|) near a mass M.

    This is :func:`decoherence_time` at the local acceleration g = G M / R^2,
    after the weak-field check. Where R^2 leaves float64's range, g is
    G M / R / R, which may itself be 0 or inf.
    """
    sw.validate_weak_field(consts)
    g = consts.G * sw.central_mass
    try:
        g /= sw.radius**2
    except (OverflowError, ZeroDivisionError):  # R^2 overflows, or underflows to 0
        g = g / sw.radius / sw.radius
    return decoherence_time(n_modes, temperature, delta_x, g, consts)


def hawking_temperature(mass: float, consts: PhysicalConstants) -> float:
    """Hawking temperature hbar c^3 / (8 pi k_B G M) of a mass M.

    Where 8 pi k_B G M underflows to 0, the factors divide one at a time,
    which gives the float64 value (inf, at the SI constants). Where hbar c^3
    underflows to 0 (c below about 2.8e-97 at the SI hbar), each factor of c
    follows a divisor, so the quotient stays in range while its value is.
    """
    if not math.isfinite(mass):
        raise DomainError("mass must be finite")
    if mass <= 0:
        raise DomainError("mass must be > 0")
    numerator = consts.hbar * consts.c3
    if numerator == 0.0:
        c = consts.c
        return consts.hbar / (8.0 * math.pi) / consts.k_B * c / consts.G * c / mass * c
    try:
        return numerator / (8.0 * math.pi * consts.k_B * consts.G * mass)
    except ZeroDivisionError:  # each factor is > 0, so no quotient below divides by 0
        return numerator / (8.0 * math.pi) / consts.k_B / consts.G / mass
