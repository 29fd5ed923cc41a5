"""Functions of the operator through its eigendecomposition.

``apply_spectral_function`` is the one entry point for phi(H) f: the heat
semigroup exp(-t H^beta), whose beta is its own argument, is its
exponential case, and a fractional power H^b f is one call with
phi = lambda ** b. Sobolev norms read the coefficients.

All operations act on the retained-mode component of a field; when a field
has more than a sliver of energy outside that span, an OffSpanWarning is
emitted with the discarded fraction.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, OffSpanWarning, _warn
from .spectral import FieldSample, SpectralDecomposition

_OFFSPAN_TOL = 1e-6


def _warn_off_span(dec, f, context, coeffs=None):
    """Warn when more than ``_OFFSPAN_TOL`` of f's L2 mass lies off the span;
    like every package warning, through ``errors._warn``, so it names the
    line that called into the package."""
    frac = dec.span_residual_fraction(f, coeffs)
    if frac > _OFFSPAN_TOL:
        _warn(OffSpanWarning,
              f"{context}: {frac:.3e} of the field's L2 mass lies outside the "
              f"retained {dec.m} modes and is dropped")


def apply_spectral_function(dec: SpectralDecomposition, phi, f: FieldSample) -> FieldSample:
    """Sum of phi(lambda_j) <f, Phi_j> Phi_j over retained modes.

    ``phi`` is called once on the eigenvalue array: an output not shaped like
    ``dec.eigenvalues`` raises ValueError, a non-finite value NumericalError.
    """
    coeffs = dec.coefficients(f)
    _warn_off_span(dec, f, "apply_spectral_function", coeffs)
    vals = np.asarray(phi(dec.eigenvalues), dtype=float)
    if vals.shape != dec.eigenvalues.shape:
        raise ValueError(f"spectral function returned shape {vals.shape}, "
                         f"not the eigenvalue shape {dec.eigenvalues.shape}")
    if not np.all(np.isfinite(vals)):
        j = int(np.argmin(np.isfinite(vals)))
        raise NumericalError(
            f"spectral function is not finite at mode {j} "
            f"(lambda={dec.eigenvalues[j]:.6e}, phi={vals[j]!r})")
    return dec.reconstruct(vals * coeffs)


def heat_semigroup(dec: SpectralDecomposition, beta: float, t: float,
                   f: FieldSample) -> FieldSample:
    """exp(-t H^beta) f, H the decomposed oscillator; the exact spectral
    identity on the span at t=0. The arguments come in the order of
    ``ougauss.ou_semigroup``. ValueError unless beta is a positive real and
    t is finite and nonnegative.

    Mode-wise exp(-t lambda^beta) underflows to exact zero for deep modes,
    which only sharpens the decay.
    """
    beta, t = float(beta), float(t)
    if not np.isfinite(beta) or beta <= 0:
        raise ValueError("beta must be a positive real")
    if not np.isfinite(t) or t < 0:
        raise ValueError("t must be finite and nonnegative")
    return apply_spectral_function(dec, lambda lam: np.exp(-t * lam ** beta), f)


def sobolev_norm(dec: SpectralDecomposition, s: float, f: FieldSample,
                 coeffs: np.ndarray | None = None) -> float:
    """Spectral Sobolev norm (sum of lambda^s |<f, Phi_j>|^2)^(1/2).

    ``coeffs`` are f's coefficients when the caller has them already; an s
    that is not finite raises ValueError.
    """
    s = float(s)
    if not np.isfinite(s):
        raise ValueError("s must be a finite real")
    if coeffs is None:
        coeffs = dec.coefficients(f)
    if s > 0:
        _warn_off_span(dec, f, "sobolev_norm", coeffs)
    return float(np.sqrt(np.sum(dec.eigenvalues ** s * np.abs(coeffs) ** 2)))
