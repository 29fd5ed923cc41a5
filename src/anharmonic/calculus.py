"""Functions of the operator through its eigendecomposition.

All operations act on the retained-mode component of a field; when a field
has more than a sliver of energy outside that span, an OffSpanWarning is
emitted with the discarded fraction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, OffSpanWarning
from .spectral import FieldSample, SpectralDecomposition

_OFFSPAN_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class SemigroupQuery:
    """One heat-semigroup evaluation request: exp(-t H^beta)."""

    decomposition: SpectralDecomposition
    beta: float
    t: float

    def __post_init__(self):
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "t", float(self.t))
        if not np.isfinite(self.beta) or self.beta <= 0:
            raise ValueError("beta must be a positive real")
        if not np.isfinite(self.t) or self.t < 0:
            raise ValueError("t must be finite and nonnegative")


def _warn_off_span(dec, f, context, coeffs=None):
    frac = dec.span_residual_fraction(f, coeffs)
    if frac > _OFFSPAN_TOL:
        warnings.warn(
            f"{context}: {frac:.3e} of the field's L2 mass lies outside the "
            f"retained {dec.m} modes and is dropped",
            OffSpanWarning, stacklevel=3)
    return frac


def apply_spectral_function(dec: SpectralDecomposition, phi, f: FieldSample) -> FieldSample:
    """Sum of phi(lambda_j) <f, Phi_j> Phi_j over retained modes."""
    coeffs = dec.coefficients(f)
    _warn_off_span(dec, f, "apply_spectral_function", coeffs)
    try:
        vals = np.asarray(phi(dec.eigenvalues), dtype=float)
        if vals.shape != dec.eigenvalues.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(phi(lam)) for lam in dec.eigenvalues])
    if not np.all(np.isfinite(vals)):
        j = int(np.argmin(np.isfinite(vals)))
        raise NumericalError(
            f"spectral function is not finite at mode {j} "
            f"(lambda={dec.eigenvalues[j]:.6e}, phi={vals[j]!r})")
    return dec.reconstruct(vals * coeffs)


def heat_semigroup(query: SemigroupQuery, f: FieldSample) -> FieldSample:
    """exp(-t H^beta) f; the exact spectral identity on the span at t=0.

    Mode-wise exp(-t lambda^beta) underflows to exact zero for deep modes,
    which only sharpens the decay.
    """
    dec = query.decomposition
    t, beta = query.t, query.beta
    return apply_spectral_function(dec, lambda lam: np.exp(-t * lam ** beta), f)


def fractional_power(dec: SpectralDecomposition, beta: float, f: FieldSample) -> FieldSample:
    """H^beta f on the retained span. beta=0 is the spectral identity."""
    beta = float(beta)
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    return apply_spectral_function(dec, lambda lam: lam ** beta, f)


def project(dec: SpectralDecomposition, j: int, f: FieldSample) -> FieldSample:
    """Projection onto the degeneracy cluster containing mode j.

    Projecting onto a full cluster is the only grid-stable notion for
    numerically degenerate eigenvalues.
    """
    if not isinstance(j, (int, np.integer)) or not 0 <= j < dec.m:
        raise ValueError(f"mode index {j} outside [0, {dec.m})")
    start, stop = dec.cluster_of(int(j))
    coeffs = dec.coefficients(f)
    keep = np.zeros_like(coeffs)
    keep[start:stop] = coeffs[start:stop]
    return dec.reconstruct(keep)


def sobolev_norm(dec: SpectralDecomposition, s: float, f: FieldSample) -> float:
    """Spectral Sobolev norm (sum of lambda^s |<f, Phi_j>|^2)^(1/2)."""
    s = float(s)
    coeffs = dec.coefficients(f)
    if s > 0:
        _warn_off_span(dec, f, "sobolev_norm", coeffs)
    return float(np.sqrt(np.sum(dec.eigenvalues ** s * np.abs(coeffs) ** 2)))
