"""Proper time along centre-of-mass trajectories and the semiclassical picture.

To lowest relevant order the coupling of internal dynamics to the centre of
mass enters through gamma(x, v) = phi(x) - v^2/2 per unit mass: proper time
along one arm ticks at rate 1 + gamma/c^2. The proper-time difference between
two interferometer arms is therefore

    dtau = tau_b - tau_a = (1/c^2) * integral (gamma_b(t) - gamma_a(t)) dt,

so an arm b held above arm a in a uniform field accumulates dtau = g dx t / c^2
with dx = x_b - x_a,

evaluated here by the trapezoid rule on sampled trajectories. The visibility
of the recombined superposition is the modulus of the characteristic function
of the internal energy distribution evaluated at dtau/hbar; for a thermal
state this reproduces the mode-product law exactly, which is the content of
the semiclassical picture.

Everything is non-relativistic and weak-field: trajectories are validated
against |v| <= 1e-3 c, and potentials are plain Newtonian phi(x).

Static arms are read-only stride-0 views of their one value, and the
trapezoid runs block by block into one row of n - 1 terms that is summed once
(see proper_time_difference; a potential's phi must act elementwise). A
static pair thus costs about 16 B per sample, its times and that row, and dtau
is bit-identical to an unblocked pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._tables import linear_interpolant, read_table
from .constants import PhysicalConstants
from .errors import DomainError
from .internal_state import InternalStateSpec, _highT_log_modulus, _log_mode_product

#: Trajectories faster than this fraction of c are outside the model's validity.
VELOCITY_BOUND = 1e-3

#: Samples per block of the trapezoid pass and of the time-order check.
_BLOCK = 1 << 14


def _all_finite(a: np.ndarray) -> bool:
    """np.all(np.isfinite(a)) with no n-sized temporary: NaN propagates
    through min and max, +inf shows in the max and -inf in the min."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


class HomogeneousPotential:
    """Linearized potential phi(x) = g * x of a uniform field."""

    def __init__(self, g: float) -> None:
        self.g = g

    def phi(self, x: np.ndarray, consts: PhysicalConstants) -> np.ndarray:
        return self.g * np.asarray(x, dtype=float)


class SchwarzschildWeakPotential:
    """Newtonian potential phi(x) = -G M / x of a central mass, x > 0."""

    def __init__(self, central_mass: float) -> None:
        if central_mass <= 0:
            raise DomainError("central_mass must be > 0")
        self.central_mass = central_mass

    def phi(self, x: np.ndarray, consts: PhysicalConstants) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise DomainError("SchwarzschildWeakPotential requires x > 0")
        return -consts.G * self.central_mass / x


class TabulatedPotential:
    """Potential interpolated linearly from (x, phi) samples.

    Queries outside the tabulated domain raise DomainError rather than
    extrapolating silently.
    """

    def __init__(self, x: np.ndarray, phi_values: np.ndarray) -> None:
        self._phi = linear_interpolant(x, phi_values, ("x", "phi"))

    @classmethod
    def from_csv(cls, path: str) -> "TabulatedPotential":
        return cls(*read_table(path, ("x", "phi")).T)

    def phi(self, x: np.ndarray, consts: PhysicalConstants) -> np.ndarray:
        return self._phi(x)


@dataclass(frozen=True)
class TrajectoryPair:
    """Sampled centre-of-mass trajectories of the two interferometer arms."""

    times: np.ndarray
    x_a: np.ndarray
    v_a: np.ndarray
    x_b: np.ndarray
    v_b: np.ndarray

    def __post_init__(self) -> None:
        arrays = {}
        for name in ("times", "x_a", "v_a", "x_b", "v_b"):
            arrays[name] = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arrays[name])
            if not _all_finite(arrays[name]):
                raise DomainError(f"{name} has non-finite entries")
        t = arrays["times"]
        if t.ndim != 1 or t.size < 2:
            raise DomainError("need at least two time samples")
        if any(a.shape != t.shape for a in arrays.values()):
            raise DomainError("all trajectory arrays must share the time grid's shape")
        # w[1:] > w[:-1] is np.diff(w) > 0 for finite w; windows share a sample
        windows = (t[s:s + _BLOCK + 1] for s in range(0, t.size - 1, _BLOCK))
        if not all(np.all(w[1:] > w[:-1]) for w in windows):
            raise DomainError("times must be strictly increasing")

    @classmethod
    def from_csv(cls, path: str) -> "TrajectoryPair":
        return cls(*read_table(path, ("t", "x_a", "v_a", "x_b", "v_b")).T)

    @classmethod
    def static(cls, x_a: float, x_b: float, t_final: float, n_samples: int) -> "TrajectoryPair":
        """Arms held fixed at x_a and x_b for a duration t_final.

        Only the times are stored: x_a, x_b and the shared zero velocity are
        read-only stride-0 views of one float64 each, so writing into an arm
        raises ValueError.
        """
        if t_final <= 0 or n_samples < 2:
            raise DomainError("need t_final > 0 and n_samples >= 2")
        t = np.linspace(0.0, t_final, n_samples)

        def arm(value: float) -> np.ndarray:
            return np.broadcast_to(np.float64(value), t.shape)

        zeros = arm(0.0)
        return cls(t, arm(x_a), zeros, arm(x_b), zeros)

    def validate_velocities(self, consts: PhysicalConstants) -> None:
        # max|v| sits at an extreme of v: min and max give it with no |v| array
        vmax = max(max(abs(v.min()), abs(v.max())) for v in (self.v_a, self.v_b))
        if vmax > VELOCITY_BOUND * consts.c:
            raise DomainError(
                f"|v| reaches {vmax:.6g} m/s, above the {VELOCITY_BOUND:g} c validity bound"
            )


def gamma_coupling(x: np.ndarray, v: np.ndarray, potential, consts: PhysicalConstants) -> np.ndarray:
    """Per-unit-mass coupling gamma(x, v) = phi(x) - v^2/2."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return potential.phi(x, consts) - 0.5 * v * v


def proper_time_difference(pair: TrajectoryPair, potential, consts: PhysicalConstants) -> float:
    """Trapezoid-rule dtau = tau_b - tau_a = (1/c^2) * integral (gamma_b - gamma_a) dt.

    Second-order accurate in the sampling step; exact whenever the integrand
    is piecewise linear in t (static or uniformly falling arms).

    The velocity bound is checked before any potential is evaluated. The
    integrand f = gamma_b - gamma_a is then evaluated in blocks of _BLOCK + 1
    samples, consecutive blocks sharing one sample, and each block writes
    (f[1:] + f[:-1]) * (t[1:] - t[:-1]) into its slice of one (n - 1) row.
    One np.sum over that row gives the same pairwise-summation tree, and so
    the same bits, as the unblocked pass; the extra memory is that row plus a
    few _BLOCK-sized temporaries. An integral past float64's range is a
    DomainError.
    """
    pair.validate_velocities(consts)
    terms = np.empty(pair.times.size - 1)
    # An integrand, term or sum past float64's range is refused below: an
    # intermediate inf does not say whether dtau itself would fit.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, terms.size, _BLOCK):
            block = slice(start, start + _BLOCK + 1)  # its last sample starts the next block
            f = gamma_coupling(pair.x_b[block], pair.v_b[block], potential, consts)
            f -= gamma_coupling(pair.x_a[block], pair.v_a[block], potential, consts)
            out = terms[start:start + _BLOCK]
            np.add(f[1:], f[:-1], out=out)
            np.multiply(out, np.diff(pair.times[block]), out=out)
        total = np.sum(terms)
    if not np.isfinite(total):
        raise DomainError("proper-time integral overflows float64: a term or their sum is inf")
    return float(0.5 * total / consts.c2)


def internal_characteristic_function(
    spec: InternalStateSpec, delta_tau: float, consts: PhysicalConstants
) -> complex:
    """Thermal characteristic function E[exp(-i E0 dtau / hbar)] of the excitation energy.

    Per explicit mode this is the geometric sum (1-q) / (1 - q e^{-i w dtau})
    with q = exp(-hbar w / k_B T); its modulus reproduces the mode-product
    visibility factor exactly. For the high-temperature marker the energy
    distribution of each mode is exponential with mean k_B T, giving
    (1 + i k_B T dtau / hbar)^{-N}.
    """
    if spec.is_high_temperature:
        # (1 + i theta)^-N in log space: N can be 1e23, but the power stays
        # representable only through exp(-N log(1 + i theta)).
        theta = consts.k_B * spec.temperature * delta_tau / consts.hbar
        log_chi = _highT_log_modulus(spec.n_modes, theta) - 1j * spec.n_modes * np.arctan(theta)
    else:
        log_chi = _log_mode_product(spec, delta_tau, consts)
    return complex(np.exp(log_chi))


def semiclassical_visibility(
    spec: InternalStateSpec, delta_tau: float, consts: PhysicalConstants
) -> float:
    """Visibility |chi(dtau)| from the internal energy distribution alone."""
    return abs(internal_characteristic_function(spec, delta_tau, consts))
