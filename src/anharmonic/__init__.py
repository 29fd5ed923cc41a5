"""Phase-space laboratory for fractional anharmonic oscillator semigroups.

The package builds discrete oscillators (fractional Laplacian plus the
potential |x|^(2k)), diagonalises them on staggered periodic grids, and
measures modulation-space norms of spectral flows: heat smoothing
rates, Sobolev equivalence bands, algebra ratios, singular initial data,
small-data nonlinear evolution, and the Gaussian-conjugated
Ornstein-Uhlenbeck picture.
"""

__version__ = "0.1.0"

from .errors import (AnharmonicError, BoundaryMassWarning, DiscardedMassWarning,
                     InvalidSpecError, NonConvergenceError, NumericalError,
                     OffSpanWarning, ProbeSkipWarning, SchemaError, TruncationError)
from .model import (INF, MixedNormParams, OscillatorSpec, check_exponent, evaluate_potential,
                    hermite_oscillator, is_inf, submultiplicativity_defect, weight_value)
from .spectral import FieldSample, Grid, SpectralDecomposition, decompose
from .calculus import apply_spectral_function, heat_semigroup, sobolev_norm
from .phasespace import PhaseSpaceField, mixed_norm, modulation_norm, modulation_norms, stft
from .estimators import (EquivalenceBand, LogLinearFit, SingularWeightResult,
                         WeightQuotientParams, algebra_ratio, algebra_ratios,
                         eigenfunction_probes, eigenvalue_growth_fit, fit_decay_exponent,
                         gaussian_probe_fields, growth_target, ou_probe_rate,
                         sigma_exponent, singular_weight_norm, smoothing_decay_run,
                         sobolev_modulation_equivalence, standard_probe_family,
                         weight_quotient_norm)
from .nlheat import (NonlinearProblemSpec, Trajectory, duhamel_residual, etd_evolve,
                     picard_solve)
from .ougauss import (GaussianConjugation, apply_conjugation, conjugation_discarded_mass,
                      gaussian_half_density, ou_semigroup)

__all__ = [
    "__version__",
    # errors and warnings
    "AnharmonicError", "InvalidSpecError", "NumericalError", "TruncationError",
    "NonConvergenceError", "SchemaError", "BoundaryMassWarning", "OffSpanWarning",
    "ProbeSkipWarning", "DiscardedMassWarning",
    # model
    "INF", "is_inf", "check_exponent", "OscillatorSpec", "evaluate_potential",
    "hermite_oscillator", "weight_value",
    "submultiplicativity_defect", "MixedNormParams",
    # spectral
    "Grid", "FieldSample", "SpectralDecomposition", "decompose",
    # calculus
    "apply_spectral_function", "heat_semigroup", "sobolev_norm",
    # phasespace
    "PhaseSpaceField", "stft", "mixed_norm", "modulation_norm", "modulation_norms",
    # estimators
    "LogLinearFit", "growth_target", "eigenvalue_growth_fit", "sigma_exponent",
    "WeightQuotientParams", "weight_quotient_norm", "fit_decay_exponent",
    "smoothing_decay_run", "gaussian_probe_fields", "eigenfunction_probes",
    "standard_probe_family", "ou_probe_rate", "algebra_ratio",
    "algebra_ratios",
    "SingularWeightResult", "singular_weight_norm", "EquivalenceBand",
    "sobolev_modulation_equivalence",
    # nlheat
    "NonlinearProblemSpec", "Trajectory", "picard_solve",
    "etd_evolve", "duhamel_residual",
    # ougauss
    "GaussianConjugation", "gaussian_half_density", "conjugation_discarded_mass",
    "apply_conjugation", "ou_semigroup",
]
