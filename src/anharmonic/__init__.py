"""Phase-space laboratory for fractional anharmonic oscillator semigroups.

The package builds discrete oscillators (fractional Laplacian plus a strictly
positive even-degree potential), diagonalises them on staggered periodic
grids, and measures modulation-space norms of spectral flows: heat smoothing
rates, long-time decay, Sobolev equivalence bands, algebra ratios, singular
initial data, small-data nonlinear evolution, and the Gaussian-conjugated
Ornstein-Uhlenbeck picture.
"""

__version__ = "0.1.0"

from .errors import (AnharmonicError, BoundaryMassWarning, DiscardedMassWarning,
                     InvalidSpecError, NonConvergenceError, NumericalError,
                     OffSpanWarning, ProbeSkipWarning, SchemaError, TruncationError)
from .model import (INF, MixedNormParams, OscillatorSpec, PotentialSpec, WeightSpec,
                    check_exponent, evaluate_potential, exponent_from_json,
                    hermite_oscillator, is_inf, oscillator, oscillator_from_dict,
                    potential_from_dict, submultiplicativity_defect, weight_value)
from .spectral import (FieldSample, Grid, GrowthFit, SpectralDecomposition,
                       assemble_operator, decompose, eigendecompose, eigenvalue_growth_fit,
                       field_from_function, growth_target)
from .calculus import (SemigroupQuery, apply_spectral_function, fractional_power,
                       heat_semigroup, project, sobolev_norm)
from .phasespace import (PhaseSpaceField, WindowSpec, gaussian_half_density,
                         gaussian_stft, mixed_norm, modulation_norm, modulation_norms,
                         stft, window_values)
from .estimators import (DecayFitResult, EquivalenceBand, LongtimeRateResult,
                         SingularWeightResult, WeightQuotientParams, algebra_ratio,
                         algebra_ratios, eigenfunction_probes, fit_decay_exponent,
                         gaussian_probe_fields, longtime_rate, multilinear_ratio,
                         probe_operator_bound, sigma_exponent, singular_weight_norm,
                         smoothing_decay_run, sobolev_modulation_equivalence,
                         spectral_sum_bound, standard_probe_family, weight_quotient_norm)
from .nlheat import (NonlinearProblemSpec, ThresholdResult, Trajectory,
                     apply_nonlinearity, duhamel_residual, etd_evolve, picard_solve,
                     replace_u0, smallness_threshold)
from .ougauss import (GaussianConjugation, OuRateResult, apply_conjugation,
                      conjugation_discarded_mass, gaussian_modulation_norm,
                      ou_probe_rate, ou_semigroup)

__all__ = [
    "__version__",
    # errors and warnings
    "AnharmonicError", "InvalidSpecError", "NumericalError", "TruncationError",
    "NonConvergenceError", "SchemaError", "BoundaryMassWarning", "OffSpanWarning",
    "ProbeSkipWarning", "DiscardedMassWarning",
    # model
    "INF", "is_inf", "check_exponent", "PotentialSpec", "evaluate_potential",
    "OscillatorSpec", "oscillator", "hermite_oscillator", "WeightSpec", "weight_value",
    "submultiplicativity_defect", "MixedNormParams", "exponent_from_json",
    "potential_from_dict", "oscillator_from_dict",
    # spectral
    "Grid", "FieldSample", "field_from_function", "assemble_operator",
    "SpectralDecomposition", "eigendecompose", "decompose", "GrowthFit", "growth_target",
    "eigenvalue_growth_fit",
    # calculus
    "SemigroupQuery", "apply_spectral_function", "heat_semigroup", "fractional_power",
    "project", "sobolev_norm",
    # phasespace
    "WindowSpec", "window_values", "PhaseSpaceField", "stft", "gaussian_half_density",
    "gaussian_stft", "mixed_norm", "modulation_norm", "modulation_norms",
    # estimators
    "sigma_exponent", "WeightQuotientParams", "weight_quotient_norm", "DecayFitResult",
    "fit_decay_exponent", "smoothing_decay_run", "gaussian_probe_fields",
    "eigenfunction_probes", "standard_probe_family", "probe_operator_bound",
    "LongtimeRateResult", "longtime_rate", "spectral_sum_bound", "algebra_ratio",
    "algebra_ratios", "multilinear_ratio", "SingularWeightResult", "singular_weight_norm",
    "EquivalenceBand", "sobolev_modulation_equivalence",
    # nlheat
    "NonlinearProblemSpec", "apply_nonlinearity", "Trajectory", "picard_solve",
    "etd_evolve", "duhamel_residual", "ThresholdResult", "smallness_threshold",
    "replace_u0",
    # ougauss
    "GaussianConjugation", "conjugation_discarded_mass", "apply_conjugation",
    "ou_semigroup", "gaussian_modulation_norm", "OuRateResult", "ou_probe_rate",
]
