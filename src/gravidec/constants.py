"""Physical constants and unit conventions.

Everything downstream works in SI and receives a :class:`PhysicalConstants`
value explicitly; there are no module-level globals feeding the formulas.
This keeps formula structure testable in natural units (set
``hbar = c = k_B = 1`` and the decoherence time collapses to
``sqrt(2/N) / (T * g * dx)``) independently of constant precision.

Defaults are CODATA SI values; the surface gravity default is 9.81 m/s^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

#: Solar mass in kg, fixed for reproducibility of astrophysical examples.
SOLAR_MASS = 1.989e30


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants injected into every formula.

    Attributes:
        hbar: reduced Planck constant (J s).
        c: speed of light (m/s).
        k_B: Boltzmann constant (J/K).
        G: Newtonian gravitational constant (m^3 kg^-1 s^-2).
        g_earth: surface gravitational acceleration (m/s^2).
    """

    hbar: float = 1.054571817e-34
    c: float = 2.99792458e8
    k_B: float = 1.380649e-23
    G: float = 6.67430e-11
    g_earth: float = 9.81

    def __post_init__(self) -> None:
        for name in ("hbar", "c", "k_B", "G", "g_earth"):
            if not 0 < getattr(self, name) < math.inf:
                raise DomainError(f"constant {name} must be finite and strictly positive")


def default_constants() -> PhysicalConstants:
    """Return the SI defaults. Pure and deterministic."""
    return PhysicalConstants()
