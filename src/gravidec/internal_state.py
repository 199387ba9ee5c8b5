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

from ._tables import read_table
from .constants import PhysicalConstants, power
from .errors import DomainError

# expm1 overflows float64 from here on; 1/expm1(x) there is below 1.4e-308 and is taken as 0
_EXPM1_OVERFLOW = math.log(np.finfo(float).max)

#: Explicit-frequency mode counts above this refuse to evaluate the product.
DEFAULT_MODE_LIMIT = 10**6

# Most (delta_tau x mode) elements the mode-product kernel holds in one temporary.
_CHUNK_ELEMENTS = 2**16


@dataclass(frozen=True)
class InternalStateSpec:
    """N thermal harmonic modes standing in for the particle's internal structure.

    ``frequencies=None`` is the high-temperature marker: frequencies drop out
    and closed forms in (N, T) are used. With explicit frequencies, ``n_modes``
    must equal the list length. ``n_modes`` is a float so that closed-form
    evaluations at N ~ 1e23 stay representable. The validated frequencies
    are also held once as a read-only float64 array, ``_omega`` (None for
    the marker), which is no field: equality and hashing see the tuple.
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
        object.__setattr__(self, "_omega", None)
        if self.frequencies is not None:
            freqs = np.array(self.frequencies, dtype=float)  # a copy: the caller's stays writable
            n_modes_ok = self.n_modes == int(self.n_modes) == freqs.size
            if freqs.ndim != 1 or not n_modes_ok:
                raise DomainError("explicit frequency list length must equal n_modes")
            freqs.flags.writeable = False
            object.__setattr__(self, "frequencies", tuple(freqs.tolist()))
            object.__setattr__(self, "_omega", freqs)
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
        return cls.from_frequencies(read_table(path, ("frequencies",))[:, 0], temperature)


def thermal_occupation(omega: float, temperature: float, consts: PhysicalConstants) -> float:
    """Mean occupation 1/(exp(hbar*omega/k_B*T) - 1) of a harmonic mode.

    Returns 0 at T = 0 (no thermal excitation at absolute zero). Not public:
    the package computes occupations with :func:`_mode_occupations`, and
    this wrapper stays only because ``perfbench/tracing.py`` counts its
    calls by name (``COUNTED``).
    """
    if not omega > 0:
        raise DomainError("omega must be > 0")
    if not temperature >= 0:
        raise DomainError("temperature must be >= 0")
    return float(_mode_occupations((omega,), temperature, consts)[1][0])


def _mode_occupations(
    frequencies, temperature: float, consts: PhysicalConstants
) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies as an array and their thermal occupations 1/expm1(hbar w / k_B T).

    Occupations are 0 at T = 0 and wherever expm1 would overflow, so no
    overflow warning is raised. An occupation past float64's range (hbar w /
    k_B T below 5.6e-309, or 0 in float64) is a DomainError naming the mode.
    """
    omega = np.asarray(frequencies, dtype=float)
    nbar = np.zeros_like(omega)
    if temperature > 0:
        x = consts.hbar * omega / (consts.k_B * temperature)
        live = x < _EXPM1_OVERFLOW
        with np.errstate(over="ignore", divide="ignore"):
            nbar[live] = 1.0 / np.expm1(x[live])
        if np.isinf(nbar).any():
            raise DomainError(f"mode w = {omega[np.argmax(nbar)]:.6g} rad/s: its occupation "
                              "1 / expm1(hbar w / k_B T) overflows float64")
    return omega, nbar


def _log_mode_product(
    spec: InternalStateSpec, delta_tau, consts: PhysicalConstants, phase: bool = True
) -> np.ndarray:
    """log chi(dtau) = -sum_i log(1 + nbar_i (1 - exp(-i w_i dtau))) at every dtau.

    The single mode-product kernel behind every analytic route: the real part
    is log V, the imaginary part the phase of the characteristic function.
    Each factor is taken in the form 1 + 2 nbar s^2 + i nbar sin(phi), with
    s = sin(phi/2) and phi = w dtau, whose log modulus is
    0.5 log1p(4 nbar (nbar+1) s^2); unlike 1 - exp(-i phi) it keeps the nbar
    term to full precision at small phi. Returns an array shaped like
    ``delta_tau``, built in blocks of at most _CHUNK_ELEMENTS elements: the
    complex log chi, or with ``phase=False`` its real part alone, log V,
    with the same bits and without the phase's arctan2 and sin.
    A spec of more than DEFAULT_MODE_LIMIT modes is a DomainError, and so is
    a phase w dtau past float64's range, checked once on the largest |dtau|
    and w: sin() of it would be NaN. So is a mode whose 4 nbar (nbar + 1)
    overflows (nbar above 6.7e153, hbar w / k_B T below 1.5e-154): it would
    make log1p NaN at dtau = 0, and such a mode is deep in the high-T limit.
    """
    if len(spec.frequencies) > DEFAULT_MODE_LIMIT:
        raise DomainError(
            f"{len(spec.frequencies)} modes exceeds DEFAULT_MODE_LIMIT={DEFAULT_MODE_LIMIT}"
        )
    omega, nbar = _mode_occupations(spec._omega, spec.temperature, consts)
    with np.errstate(over="ignore"):
        gain = 4.0 * nbar * (nbar + 1.0)
    if np.isinf(gain).any():
        raise DomainError(f"mode w = {omega[np.argmax(nbar)]:.6g} rad/s: 4 nbar (nbar + 1) "
                          "overflows float64; a mode this warm is in the high-T limit")
    dtau = np.asarray(delta_tau, dtype=float)
    flat = dtau.reshape(-1)
    dtau_max, omega_max = float(np.abs(flat).max(initial=0.0)), float(omega.max(initial=0.0))
    if not math.isfinite(dtau_max * omega_max):  # a Python product overflows to inf, silently
        raise DomainError(f"mode phase w*dtau overflows float64: max |dtau| = {dtau_max:.6g} s "
                          f"times max w = {omega_max:.6g} rad/s")
    out = np.zeros(flat.size, dtype=complex if phase else float)
    cols = max(1, min(omega.size, _CHUNK_ELEMENTS))
    rows = max(1, _CHUNK_ELEMENTS // cols)
    for i in range(0, flat.size, rows):
        for j in range(0, omega.size, cols):
            phi = flat[i:i + rows, None] * omega[j:j + cols]
            s2 = np.sin(0.5 * phi) ** 2
            out[i:i + rows] -= 0.5 * np.log1p(gain[j:j + cols] * s2).sum(axis=1)
            if phase:
                n = nbar[j:j + cols]
                out[i:i + rows] -= 1j * np.arctan2(n * np.sin(phi), 1.0 + 2.0 * n * s2).sum(axis=1)
    return out.reshape(dtau.shape)


def _highT_log_modulus(n_modes, theta, log_theta=None):
    """log |(1 + i theta)^-N| = -N/2 log1p(theta^2) at every theta.

    The high-temperature limit of the real part of :func:`_log_mode_product`,
    theta being k_B T dtau / hbar; broadcasts over arrays. Where theta^2
    overflows (|theta| > 1.3e154) log1p(theta^2) is 2 log |theta| to float64
    precision, so V = |theta|^-N keeps its value down to the least subnormal.
    Where theta itself overflows to inf, ``log_theta``, when given, is that
    log |theta|, formed by the caller from its factors. N = 0 gives -0.0 at
    every theta, theta = inf included.
    """
    with np.errstate(over="ignore"):
        square = theta * theta
    huge = np.isinf(square)
    log_abs = np.log(np.where(huge, np.abs(theta), 1.0))
    if log_theta is not None:
        log_abs = np.where(np.isinf(theta), log_theta, log_abs)
    log_1p = np.where(huge, 2.0 * log_abs, np.log1p(square))
    return -0.5 * n_modes * np.where(huge & (n_modes == 0), 0.0, log_1p)


def mean_internal_energy(spec: InternalStateSpec, consts: PhysicalConstants) -> float:
    """Mean internal energy: N*k_B*T in the high-T limit, else sum of hbar*w*nbar."""
    if spec.is_high_temperature:
        return spec.n_modes * consts.k_B * spec.temperature
    omega, nbar = _mode_occupations(spec._omega, spec.temperature, consts)
    return float(np.sum(consts.hbar * omega * nbar))


def internal_energy_variance(spec: InternalStateSpec, consts: PhysicalConstants) -> float:
    """Internal energy variance: N*(k_B*T)^2 in the high-T limit.

    With explicit frequencies the exact thermal-oscillator variance
    (hbar*w)^2 * nbar * (nbar + 1) is summed over the independent modes; the
    high-T closed form is recovered as hbar*w/k_B*T -> 0. Where (hbar*w)^2
    underflows below float64's normal range, a mode's term is taken as
    (hbar*w*nbar) * (hbar*w*(nbar + 1)), which stays near (k_B*T)^2.
    """
    if spec.is_high_temperature:
        return spec.n_modes * power(consts.k_B * spec.temperature, 2)
    omega, nbar = _mode_occupations(spec._omega, spec.temperature, consts)
    with np.errstate(over="ignore", invalid="ignore"):  # (hbar w)^2 = inf where nbar is 0
        energy = consts.hbar * omega
        square = energy**2
        # where (hbar w)^2 falls below the normal range it has lost its bits,
        # or all of them at 0; there nbar is about k_B T / hbar w, so the
        # factors (hbar w nbar) and (hbar w (nbar + 1)) are about k_B T
        terms = np.where(square < np.finfo(float).tiny,
                         (energy * nbar) * (energy * (nbar + 1.0)), square * nbar * (nbar + 1.0))
    return float(np.sum(np.where(nbar > 0, terms, 0.0)))
