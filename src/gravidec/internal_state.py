"""Thermal internal structure of a composite particle.

A particle's internal degrees of freedom are modelled as N independent
harmonic modes in thermal equilibrium at temperature T. Either the mode
frequencies are listed explicitly, or the spec carries a high-temperature
marker (``frequencies=None``) in which case the frequencies drop out of
every derived quantity and only N and T matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import PhysicalConstants
from .errors import DomainError

# exp argument beyond which 1/expm1(x) underflows to 0 in float64
_EXP_UNDERFLOW = 745.0

# Most (delta_tau x mode) elements the mode-product kernel holds in one temporary.
_CHUNK_ELEMENTS = 2**16


@dataclass(frozen=True)
class InternalStateSpec:
    """N thermal harmonic modes standing in for the particle's internal structure.

    ``frequencies=None`` is the high-temperature marker: frequencies drop out
    and closed forms in (N, T) are used. With explicit frequencies, ``n_modes``
    must equal the list length. ``n_modes`` is a float so that closed-form
    evaluations at N ~ 1e23 stay representable.
    """

    n_modes: float
    temperature: float
    frequencies: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("n_modes", "temperature"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite")
            if value < 0:
                raise DomainError(f"{name} must be >= 0")
        if self.frequencies is not None:
            freqs = np.asarray(self.frequencies, dtype=float)
            n_modes_ok = self.n_modes == int(self.n_modes) == freqs.size
            if freqs.ndim != 1 or not n_modes_ok:
                raise DomainError("explicit frequency list length must equal n_modes")
            object.__setattr__(self, "frequencies", tuple(freqs.tolist()))
            if not np.all(np.isfinite(freqs)):
                raise DomainError("frequencies has non-finite entries")
            if np.any(freqs <= 0):
                raise DomainError("all mode frequencies must be > 0")

    @property
    def is_high_temperature(self) -> bool:
        return self.frequencies is None

    @classmethod
    def high_temperature_limit(cls, n_modes: float, temperature: float) -> "InternalStateSpec":
        return cls(n_modes=n_modes, temperature=temperature, frequencies=None)

    @classmethod
    def from_frequencies(cls, frequencies, temperature: float) -> "InternalStateSpec":
        freqs = np.asarray(frequencies, dtype=float)
        return cls(n_modes=len(freqs), temperature=temperature, frequencies=freqs)

    @classmethod
    def from_frequency_csv(cls, path: str | Path, temperature: float) -> "InternalStateSpec":
        """Load a single-column CSV of angular frequencies (rad/s, one per line)."""
        freqs = np.loadtxt(path, ndmin=1, dtype=float)
        if freqs.ndim != 1:
            raise DomainError(f"{path}: expected a single column of frequencies")
        return cls.from_frequencies(freqs, temperature)


def thermal_occupation(omega: float, temperature: float, consts: PhysicalConstants) -> float:
    """Mean occupation 1/(exp(hbar*omega/k_B*T) - 1) of a harmonic mode.

    Returns 0 at T = 0 (no thermal excitation at absolute zero).
    """
    if omega <= 0:
        raise DomainError("omega must be > 0")
    if temperature < 0:
        raise DomainError("temperature must be >= 0")
    if temperature == 0:
        return 0.0
    x = consts.hbar * omega / (consts.k_B * temperature)
    if x > _EXP_UNDERFLOW:
        return 0.0
    return 1.0 / math.expm1(x)


def _mode_occupations(
    spec: InternalStateSpec, consts: PhysicalConstants
) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies and occupations of an explicit spec, as :func:`thermal_occupation` gives them."""
    omega = np.asarray(spec.frequencies, dtype=float)
    nbar = np.zeros_like(omega)
    if spec.temperature > 0:
        x = consts.hbar * omega / (consts.k_B * spec.temperature)
        live = x <= _EXP_UNDERFLOW
        nbar[live] = 1.0 / np.expm1(x[live])
    return omega, nbar


def _log_mode_product(
    spec: InternalStateSpec, delta_tau, consts: PhysicalConstants
) -> np.ndarray:
    """log chi(dtau) = -sum_i log(1 + nbar_i (1 - exp(-i w_i dtau))) at every dtau.

    The single mode-product kernel behind every analytic route: the real part
    is log V, the imaginary part the phase of the characteristic function.
    Each factor is taken in the form 1 + 2 nbar s^2 + i nbar sin(phi), with
    s = sin(phi/2) and phi = w dtau, whose log modulus is
    0.5 log1p(4 nbar (nbar+1) s^2); unlike 1 - exp(-i phi) it keeps the nbar
    term to full precision at small phi. Returns an array shaped like
    ``delta_tau``, built in blocks of at most _CHUNK_ELEMENTS elements.
    """
    omega, nbar = _mode_occupations(spec, consts)
    gain = 4.0 * nbar * (nbar + 1.0)
    dtau = np.asarray(delta_tau, dtype=float)
    flat = dtau.reshape(-1)
    out = np.zeros(flat.size, dtype=complex)
    cols = max(1, min(omega.size, _CHUNK_ELEMENTS))
    rows = max(1, _CHUNK_ELEMENTS // cols)
    for i in range(0, flat.size, rows):
        for j in range(0, omega.size, cols):
            n = nbar[j:j + cols]
            phi = flat[i:i + rows, None] * omega[j:j + cols]
            s2 = np.sin(0.5 * phi) ** 2
            out[i:i + rows] -= 0.5 * np.log1p(gain[j:j + cols] * s2).sum(axis=1)
            out[i:i + rows] -= 1j * np.arctan2(n * np.sin(phi), 1.0 + 2.0 * n * s2).sum(axis=1)
    return out.reshape(dtau.shape)


def _highT_log_modulus(n_modes, theta):
    """log |(1 + i theta)^-N| = -N/2 log1p(theta^2) at every theta.

    The high-temperature limit of the real part of :func:`_log_mode_product`,
    theta being k_B T dtau / hbar; broadcasts over arrays.
    """
    return -0.5 * n_modes * np.log1p(theta * theta)


def mean_internal_energy(spec: InternalStateSpec, consts: PhysicalConstants) -> float:
    """Mean internal energy: N*k_B*T in the high-T limit, else sum of hbar*w*nbar."""
    if spec.is_high_temperature:
        return spec.n_modes * consts.k_B * spec.temperature
    omega, nbar = _mode_occupations(spec, consts)
    return float(np.sum(consts.hbar * omega * nbar))


def internal_energy_variance(spec: InternalStateSpec, consts: PhysicalConstants) -> float:
    """Internal energy variance: N*(k_B*T)^2 in the high-T limit.

    With explicit frequencies the exact thermal-oscillator variance
    (hbar*w)^2 * nbar * (nbar + 1) is summed over the independent modes; the
    high-T closed form is recovered as hbar*w/k_B*T -> 0.
    """
    if spec.is_high_temperature:
        return spec.n_modes * (consts.k_B * spec.temperature) ** 2
    omega, nbar = _mode_occupations(spec, consts)
    return float(np.sum((consts.hbar * omega) ** 2 * nbar * (nbar + 1.0)))
