"""Double-kicked rotor transport: classical cantorus leakage, quantum
localization, decoherence, and toroidal Wigner diagnostics."""

__version__ = "0.1.0"

from .classical import (ClassicalEnsemble, MomentumHistogram, PhasePoint,
                        PropagationResult, free_step, kick_cycle,
                        momentum_bin_edges, pendulum_step, propagate_ensemble,
                        sample_initial)
from .decoherence import (ANTI_ZENO, EmissionModel, MCResult, OperatorCache,
                          mc_wavefunction_run, run_decohered)
from .diffusion import DiffusionFit, fit_flux, flux_from_rate
from .floquet import FloquetDecomposition, asymptotic_matrix, decompose
from .pulses import Barrier, KickConfig, barrier, fourier_coefficient
from .quantum import (EvolutionResult, MomentumBasis, PeriodOperator,
                      build_period_operator, density_after, edge_population,
                      evolve_density, initial_density, unitarity_defect)
from .wigner import (WidthCalibration, WignerGrid, calibrate_packet_width,
                     gaussian_packet, strangeness, two_packet_mixture,
                     two_packet_superposition, wigner_transform)

__all__ = [
    "__version__", "ANTI_ZENO", "Barrier", "ClassicalEnsemble", "DiffusionFit",
    "EmissionModel", "EvolutionResult", "FloquetDecomposition", "KickConfig",
    "MCResult", "MomentumBasis", "MomentumHistogram", "OperatorCache",
    "PeriodOperator", "PhasePoint", "PropagationResult", "WidthCalibration",
    "WignerGrid", "asymptotic_matrix", "barrier", "build_period_operator",
    "calibrate_packet_width", "decompose", "density_after", "edge_population",
    "evolve_density", "fit_flux", "flux_from_rate", "fourier_coefficient",
    "free_step", "gaussian_packet", "initial_density", "kick_cycle",
    "mc_wavefunction_run", "momentum_bin_edges", "pendulum_step",
    "propagate_ensemble", "run_decohered", "sample_initial", "strangeness",
    "two_packet_mixture", "two_packet_superposition", "unitarity_defect",
    "wigner_transform",
]
