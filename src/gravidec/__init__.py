"""Decoherence of composite-particle superpositions under gravitational time dilation.

Internal thermal motion makes a composite particle a clock ensemble; holding
it in a spatial superposition across a gravitational potential difference
entangles those clocks with the path, and the interferometric visibility
decays. This package provides the closed-form visibility laws and
timescales, proper-time integration along arbitrary arm trajectories, a
position-basis master equation (time-local and with the full memory kernel),
independent brute-force oracles, and the competing photon-emission channel,
plus a deterministic CLI over all of it.
"""

from .constants import SOLAR_MASS, PhysicalConstants, default_constants
from .emission import (
    EmissionModel,
    RegimeMap,
    blackbody_emission_model,
    crossover_separation,
    dominant_mechanism,
    emission_model_from_csv,
    emission_rate_integral,
    power_law_cross_section,
    regime_scan,
    tabulated_emission_model,
    tau_emission,
)
from .errors import DomainError, NumericalInstabilityError
from .internal_state import (
    InternalStateSpec,
    internal_energy_variance,
    mean_internal_energy,
    thermal_occupation,
)
from .master_equation import (
    CMHamiltonianSpec,
    DensityMatrixGrid,
    EvolutionConfig,
    EvolutionResult,
    MemoryKernelCoefficients,
    dephasing_coefficient,
    evolve,
    evolve_full_memory,
    evolve_markovian,
    extract_visibility,
    load_snapshots,
    memory_kernel_coefficients,
    save_snapshots,
)
from .oracles import (
    OracleCase,
    OracleConfig,
    fock_visibility,
    mc_visibility,
    run_oracle_battery,
    two_point_unitary_oracle,
)
from .proper_time import (
    HomogeneousPotential,
    SchwarzschildWeakPotential,
    TabulatedPotential,
    TrajectoryPair,
    internal_characteristic_function,
    proper_time_difference,
    semiclassical_visibility,
)
from .visibility import (
    SchwarzschildSpec,
    VisibilityCurve,
    decoherence_time,
    exact_visibility,
    gaussian_visibility,
    hawking_temperature,
    highT_visibility,
    decoherence_time_schwarzschild,
    visibility_curve,
)

__version__ = "0.1.0"

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
    "dominant_mechanism",
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
    "SOLAR_MASS",
    "tabulated_emission_model",
    "TabulatedPotential",
    "tau_emission",
    "thermal_occupation",
    "TrajectoryPair",
    "two_point_unitary_oracle",
    "visibility_curve",
    "VisibilityCurve",
]
