"""Functions of the operator through its eigendecomposition.

``apply_spectral_function`` is the one entry point for phi(H) f: the heat
semigroup exp(-t H^beta), whose beta is its own argument, is its
exponential case, and a fractional power H^b f is one call with
phi = lambda ** b. Sobolev norms read the coefficients.

All operations act on the retained-mode component of a field: a field with
more than a sliver of energy outside that span warns (OffSpanWarning, with
the discarded fraction). A field is finite by construction (``FieldSample``).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidSpecError, NumericalError, OffSpanWarning, _warn
from .model import _real
from .spectral import FieldSample, SpectralDecomposition, _scaled_l2, _unframed

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


def _spectral_values(dec: SpectralDecomposition, phi, name: str) -> np.ndarray:
    """phi(lambda) on the eigenvalues of ``dec``, phi called once on the array:
    the one rule for every phi. A wrong shape raises ValueError, a non-finite
    value (an overflow or a NaN too) NumericalError naming the mode (``name``, phi's)."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite phi raises below
        vals = np.asarray(phi(dec.eigenvalues), dtype=float)
    if vals.shape != dec.eigenvalues.shape:
        raise ValueError(f"{name} returned shape {vals.shape}, "
                         f"not the eigenvalue shape {dec.eigenvalues.shape}")
    if not np.all(np.isfinite(vals)):
        j = int(np.argmin(np.isfinite(vals)))
        raise NumericalError(
            f"{name} is not finite at mode {j} "
            f"(lambda={dec.eigenvalues[j]:.6e}, phi={float(vals[j])!r})")
    return vals


def apply_spectral_function(dec: SpectralDecomposition, phi, f: FieldSample) -> FieldSample:
    """Sum of phi(lambda_j) <f, Phi_j> Phi_j over retained modes.

    ``phi`` is called once on the eigenvalue array: an output not shaped like
    ``dec.eigenvalues`` raises ValueError, a non-finite value NumericalError.
    """
    coeffs = dec.coefficients(f)
    _warn_off_span(dec, f, "apply_spectral_function", coeffs)
    return dec.reconstruct(_spectral_values(dec, phi, "spectral function") * coeffs)


def heat_semigroup(dec: SpectralDecomposition, beta: float, t: float,
                   f: FieldSample) -> FieldSample:
    """exp(-t H^beta) f, H the decomposed oscillator; the exact spectral
    identity on the span at t=0. The arguments come in the order of
    ``ougauss.ou_semigroup``. InvalidSpecError unless beta is a positive
    real and t a nonnegative one.

    Mode-wise exp(-t lambda^beta) underflows to exact zero for deep modes,
    which only sharpens the decay.
    """
    beta, t = _real(beta, "beta", True), _real(t, "t")
    if t < 0:
        raise InvalidSpecError("t must be finite and nonnegative", field="t")
    return apply_spectral_function(dec, _heat_phi(beta, t), f)


def _heat_phi(beta, t):  # exp(-t lambda^beta), of heat_semigroup and a flow's propagator
    return (lambda lam: np.exp(-t * lam ** beta)) if t else np.ones_like  # t = 0: the identity


def sobolev_norm(dec: SpectralDecomposition, s: float, f: FieldSample,
                 coeffs: np.ndarray | None = None) -> float:
    """Spectral Sobolev norm (sum of lambda^s |<f, Phi_j>|^2)^(1/2) by
    ``spectral._scaled_l2``: norm(2^k f) = 2^k norm(f) bit for bit.

    ``coeffs`` are f's coefficients when the caller has them already; an s
    that is not a finite real raises InvalidSpecError. The weights lambda^s
    go through the rule ``apply_spectral_function`` applies to phi(lambda):
    one that overflows raises NumericalError naming the mode. For s < 0 they
    are (lambda / lambda_0)^s; lambda_0^(s/2) scales the norm back in its exponent.
    """
    s = _real(s, "s")
    if coeffs is None:
        coeffs = dec.coefficients(f)
    if s > 0:
        _warn_off_span(dec, f, "sobolev_norm", coeffs)
    base = dec.eigenvalues[0] if s < 0 else 1.0
    weights = _spectral_values(dec, lambda lam: (lam / base) ** s,
                               f"Sobolev weight lambda^{s!r}")
    r, e = _scaled_l2([coeffs], 1.0, weights)
    k, frac = divmod(s / 2.0 * np.log2(base), 1.0)  # lambda_0^(s/2) = 2^(k + frac)
    return _unframed(r * 2.0 ** frac, e + int(k))
