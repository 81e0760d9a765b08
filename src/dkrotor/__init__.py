"""Double-kicked rotor transport: classical cantorus leakage, quantum
localization, decoherence, and toroidal Wigner diagnostics."""

__version__ = "0.1.0"

from .classical import (ClassicalEnsemble, MomentumHistogram, PhasePoint,
                        PropagationResult, free_step, kick_cycle,
                        momentum_bin_edges, pendulum_step, propagate_ensemble,
                        sample_initial)
from .decoherence import (ANTI_ZENO, EmissionModel, MCResult, OperatorCache,
                          anti_zeno_map, mc_wavefunction_run, run_decohered,
                          spontaneous_emission_map)
from .diffusion import (DiffusionFit, decay_rate, fit_flux, flux_from_rate,
                        model_inside, model_outside)
from .floquet import (FloquetDecomposition, asymptotic_distribution,
                      asymptotic_from_density, asymptotic_matrix, decompose)
from .pulses import (KickConfig, PulseProfile, fourier_coefficient,
                     pulse_value, reconstruct_profile)
from .quantum import (EvolutionResult, MomentumBasis, PeriodOperator,
                      build_period_operator, edge_population, evolve_density,
                      initial_density, momentum_distribution,
                      unitarity_defect)
from .wigner import (WidthCalibration, WignerGrid, calibrate_packet_width,
                     gaussian_packet, strangeness, strangeness_sweep,
                     two_packet_mixture, two_packet_superposition,
                     wigner_transform)

__all__ = [
    "__version__",
    "ANTI_ZENO", "ClassicalEnsemble", "DiffusionFit", "EmissionModel",
    "EvolutionResult", "FloquetDecomposition", "KickConfig", "MCResult",
    "MomentumBasis", "MomentumHistogram", "OperatorCache", "PeriodOperator",
    "PhasePoint", "PropagationResult", "PulseProfile",
    "WidthCalibration", "WignerGrid",
    "anti_zeno_map", "asymptotic_distribution", "asymptotic_from_density",
    "asymptotic_matrix", "build_period_operator", "calibrate_packet_width",
    "decay_rate", "decompose", "edge_population", "evolve_density",
    "fit_flux", "flux_from_rate", "fourier_coefficient", "free_step",
    "gaussian_packet", "initial_density", "kick_cycle", "mc_wavefunction_run",
    "model_inside", "model_outside", "momentum_bin_edges",
    "momentum_distribution", "pendulum_step",
    "propagate_ensemble", "pulse_value", "reconstruct_profile",
    "run_decohered", "sample_initial", "spontaneous_emission_map",
    "strangeness", "strangeness_sweep", "two_packet_mixture",
    "two_packet_superposition", "unitarity_defect", "wigner_transform",
]
