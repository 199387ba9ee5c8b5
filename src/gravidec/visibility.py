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
times and evaluate a whole grid in one numpy expression (scalar inputs give a
Python float). The timescale tau_dec lives in :mod:`gravidec.timescales`. All
products are accumulated in log space; nothing here ever materializes 1e23
factors. Degenerate no-decoherence inputs (N, T, dx or g equal to 0) yield an
infinite timescale and V = 1 rather than an exception: these are physically
meaningful regimes the CLI reports as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants
from .errors import DomainError
from .internal_state import InternalStateSpec, _highT_log_modulus, _log_mode_product
from .timescales import decoherence_time

#: Laws a VisibilityCurve can be tagged with.
VISIBILITY_LAWS = ("exact-product", "high-T", "gaussian", "master-equation")


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
    """log V at each delta_tau, refusing the high-T marker."""
    if spec.is_high_temperature:
        raise DomainError("exact_visibility requires explicit frequencies; "
                          "use highT_visibility for the high-T marker")
    return _log_mode_product(spec, delta_tau, consts, phase=False)


def exact_visibility(spec: InternalStateSpec, delta_tau: float, consts: PhysicalConstants) -> float:
    """Exact product-formula visibility for an explicit-frequency thermal spec.

    Even in ``delta_tau``; equals 1 at delta_tau = 0 and at T = 0. Accumulated
    as exp(-sum log|z_i|) so arbitrarily small visibilities do not underflow
    intermediate products. Specs with more than
    ``internal_state.DEFAULT_MODE_LIMIT`` explicit modes are refused (the
    high-temperature law exists precisely to avoid them).
    """
    return math.exp(_exact_log_visibility(spec, delta_tau, consts))


def highT_visibility(n_modes, temperature, delta_x, g, t, consts: PhysicalConstants):
    """High-temperature visibility (1 + theta^2)^(-N/2), theta = k_B*T*g*dx*t/(hbar*c^2).

    Evaluated at every entry of ``t`` (any arguments may be arrays that
    broadcast together); scalar inputs give a float.
    """
    _require_nonnegative(n_modes, temperature, t)
    # theta^2 past float64's range is taken as 2 log theta in the log
    # modulus; where theta itself overflows, log theta is the sum of its
    # factors' logs, so V = theta^-N keeps its value down to the least
    # subnormal float64 (it is nonzero there while N <= 1.05).
    with np.errstate(over="ignore"):
        theta = (consts.k_B * temperature * g * delta_x * np.asarray(t, dtype=float)
                 / consts.hbar_c2)
        log_theta = None
        if np.any(np.isinf(theta)):
            with np.errstate(divide="ignore"):  # a zero factor's entries keep a finite theta
                log_theta = (math.log(consts.k_B) + np.log(temperature) + np.log(np.abs(g))
                             + np.log(np.abs(delta_x)) + np.log(t)
                             - math.log(consts.hbar) - 2.0 * math.log(consts.c))
        return _scalar_or_array(np.exp(_highT_log_modulus(n_modes, theta, log_theta)))


def gaussian_visibility(n_modes, temperature, delta_x, g, t, consts: PhysicalConstants):
    """Gaussian decay exp(-(t/tau_dec)^2), the small-angle limit of the high-T law.

    Evaluated at every entry of ``t``; an infinite tau_dec gives V = 1, and
    scalar inputs give a float.
    """
    _require_nonnegative(n_modes, temperature, t)
    tau = decoherence_time(n_modes, temperature, delta_x, g, consts)
    if np.any(np.asarray(tau) == 0.0):
        raise DomainError("tau_dec = sqrt(2/N) hbar c^2 / (k_B T g |dx|) underflows to 0 in "
                          "float64, so the Gaussian law's t / tau_dec is 0 / 0 at t = 0")
    # t / tau, or its square, past float64's range gives exp(-inf) = 0, V's
    # float64 value: exp(-(t/tau)^2) underflows to 0 once t/tau > 27.3.
    with np.errstate(over="ignore"):
        return _scalar_or_array(np.exp(-((np.asarray(t, dtype=float) / tau) ** 2)))


def proper_time_lab(delta_x: float, g: float, t: float, consts: PhysicalConstants) -> float:
    """Proper-time difference t*g*dx/c^2 between static arms in a homogeneous field."""
    # A product past float64's range is inf; the mode product refuses w * inf by name.
    with np.errstate(over="ignore"):
        return t * g * delta_x / consts.c2


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
