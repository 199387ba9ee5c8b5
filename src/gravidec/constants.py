"""Physical constants and unit conventions.

Everything downstream works in SI and receives a :class:`PhysicalConstants`
value explicitly; there are no module-level globals feeding the formulas.
This keeps formula structure testable in natural units (set
``hbar = c = k_B = 1`` and the decoherence time collapses to
``sqrt(2/N) / (T * g * dx)``) independently of constant precision.

Defaults are CODATA SI values; the surface gravity default is 9.81 m/s^2.

Every law divides by c^2, so a :class:`PhysicalConstants` value computes its
derived powers once: ``c2``, ``c3`` and ``hbar_c2`` (hbar times c2). They are
attributes, not fields, so equality, hashing and ``asdict`` see the five
constants alone. A set whose c^2 or hbar c^2 underflows to 0 is refused when
it is built; a power that overflows is inf, left to the float64-edge rule of
the formula that meets it.

The names of the master equation's Hamiltonians and evolution forms live here
too, so that the CLI offers them as choices without importing numpy, and so
does :func:`power`. Besides the derived constants, it raises only inputs
(g^2, (k_B T)^2) and (hbar c^2)^2 to a power; R^2 in
``decoherence_time_schwarzschild`` keeps a guard of its own, which falls
back to G M / R / R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

HAMILTONIAN_KINDS = ("none", "free", "free_plus_linear")
EVOLUTION_FORMS = ("markovian", "full_memory")


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants injected into every formula.

    Attributes:
        hbar: reduced Planck constant (J s).
        c: speed of light (m/s).
        k_B: Boltzmann constant (J/K).
        G: Newtonian gravitational constant (m^3 kg^-1 s^-2).
        g_earth: surface gravitational acceleration (m/s^2).

    ``c2``, ``c3`` and ``hbar_c2`` (hbar times c2) are computed once, with
    :func:`power`, and are no fields.
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
        c2 = power(self.c, 2)
        for name, value in (("c2", c2), ("c3", power(self.c, 3)), ("hbar_c2", self.hbar * c2)):
            object.__setattr__(self, name, value)
        # every law divides by c^2 or hbar c^2; an overflow to inf is left to its float64 edge
        if c2 == 0.0:
            raise DomainError(f"constant c = {self.c:g}: c^2 underflows to 0 in float64")
        if self.hbar_c2 == 0.0:
            raise DomainError(f"constants hbar = {self.hbar:g} and c = {self.c:g}: "
                              "hbar c^2 underflows to 0 in float64")


def power(x: float, n: int) -> float:
    """x**n for a Python float x, but +-inf where it leaves float64's range.

    Python's ``**`` raises OverflowError there; numpy's power and every float
    product give inf, and the float64-edge rule then refuses the run or
    writes the value. Inside the range this is ``x**n``, bit for bit.
    """
    try:
        return x**n
    except OverflowError:
        return math.copysign(math.inf, x) if n % 2 else math.inf


def default_constants() -> PhysicalConstants:
    """Return the SI defaults. Pure and deterministic."""
    return PhysicalConstants()
