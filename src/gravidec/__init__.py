"""Decoherence of composite-particle superpositions under gravitational time dilation.

Internal thermal motion makes a composite particle a clock ensemble; holding
it in a spatial superposition across a gravitational potential difference
entangles those clocks with the path, and the interferometric visibility
decays. This package provides the closed-form visibility laws and
timescales, proper-time integration along arbitrary arm trajectories, a
position-basis master equation (time-local and with the full memory kernel),
independent brute-force oracles, and the competing photon-emission channel,
plus a deterministic CLI over all of it.

Importing the package loads neither numpy nor the modules that use it, so
that a command such as ``gravidec tau`` runs without numpy. Those modules are
registered unloaded with importlib's ``LazyLoader`` and run on their first
attribute access, a ``from`` import of them included. ``__all__`` is the one
list of public names. The first lookup here of a name in it that is not bound
at import (PEP 562) tries the deferred modules in the order ``_tables``,
``internal_state``, ``visibility``, ``proper_time``, ``emission``,
``master_equation``, ``oracles``, loading each it tries, and keeps the value
of the first that holds the name: ``gravidec.evolve`` so also loads
``visibility``, ``proper_time`` and ``emission``. Any other name is refused
with ``AttributeError`` before anything loads. ``gravidec.cli`` is never
deferred: ``python -m gravidec.cli`` would load it once before running it as
``__main__``.
"""

import importlib.util
import sys

from .constants import PhysicalConstants, default_constants
from .errors import DomainError, NumericalInstabilityError
from .timescales import (
    SchwarzschildSpec,
    decoherence_time,
    decoherence_time_schwarzschild,
    hawking_temperature,
)

__version__ = "0.1.0"

#: The submodules that import numpy, in import order: a deferred public name
#: is looked up in each in turn.
_DEFERRED = ("_tables", "internal_state", "visibility", "proper_time", "emission",
             "master_equation", "oracles")


def _defer(module: str):
    """Register the submodule ``module`` unloaded, to run on its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    sys.modules[spec.name] = lazy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lazy)
    return lazy


for _module in _DEFERRED:
    globals()[_module] = _defer(_module)
del _module


def __getattr__(name: str):
    """A deferred public name, from the first deferred module that holds it, kept here."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = next(module for module in map(globals().get, _DEFERRED) if hasattr(module, name))
    value = globals()[name] = getattr(home, name)
    return value


__all__ = [
    "blackbody_emission_model",
    "CMHamiltonianSpec",
    "crossover_separation",
    "decoherence_time",
    "decoherence_time_schwarzschild",
    "default_constants",
    "DensityMatrixGrid",
    "dephasing_coefficient",
    "DomainError",
    "emission_model_from_csv",
    "emission_rate_integral",
    "EmissionModel",
    "EvolutionConfig",
    "EvolutionResult",
    "evolve",
    "evolve_full_memory",
    "evolve_markovian",
    "exact_visibility",
    "extract_visibility",
    "fock_visibility",
    "gaussian_visibility",
    "hawking_temperature",
    "highT_visibility",
    "HomogeneousPotential",
    "internal_characteristic_function",
    "internal_energy_variance",
    "InternalStateSpec",
    "load_snapshots",
    "mc_visibility",
    "mean_internal_energy",
    "memory_kernel_coefficients",
    "MemoryKernelCoefficients",
    "NumericalInstabilityError",
    "OracleCase",
    "OracleConfig",
    "PhysicalConstants",
    "power_law_cross_section",
    "proper_time_difference",
    "regime_scan",
    "RegimeMap",
    "run_oracle_battery",
    "save_snapshots",
    "SchwarzschildSpec",
    "SchwarzschildWeakPotential",
    "semiclassical_visibility",
    "tabulated_emission_model",
    "TabulatedPotential",
    "TrajectoryPair",
    "two_point_unitary_oracle",
    "visibility_curve",
    "VisibilityCurve",
]
