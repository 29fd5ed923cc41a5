"""Gaussian conjugation: the multiplier and the Ornstein-Uhlenbeck semigroup
obtained by intertwining with the harmonic heat flow.

The Gaussian modulation norm of f is the modulation norm of the multiplied
field, ``modulation_norm(apply_conjugation(c, "forward", f), ...)``; the
``ou`` and ``selftest`` runs check its p = q = 2 value against the
L^2(gamma) norm of f. That check is the lattice Moyal identity, and it is
why the OU rate (``estimators.ou_probe_rate``) takes its flat p = q = 2
norms as the lattice L^2 norm of the multiplied field, without an STFT.

The OU semigroup is never discretized directly; it is defined as
M^(-1) exp(-t H^beta) M with M the Gaussian half-density multiplier and H
the harmonic oscillator, which is the defining relation; beta is an
argument of each semigroup call. The inverse multiplier grows like
e^(|x|^2/2), so it is truncated outside a safe radius with explicit mass
accounting. Its l^2 norms (``spectral._scaled_l2``) are scale-exact:
norm(2^k f) = 2^k norm(f) bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import heat_semigroup
from .errors import DiscardedMassWarning, InvalidSpecError, _warn
from .model import _real
from .spectral import FieldSample, Grid, SpectralDecomposition, _scaled_l2

_DISCARD_TOL = 1e-10


@dataclass(frozen=True)
class GaussianConjugation:
    """The multiplier M f = gamma^(1/2) f with gamma the standard Gaussian
    density pi^(-d/2) e^(-|x|^2) at d = 1, and its inverse truncated beyond
    ``safe_radius``."""

    safe_radius: float = 8.0

    def __post_init__(self):
        object.__setattr__(self, "safe_radius", _real(self.safe_radius, "safe_radius", True))

    def density(self, grid) -> np.ndarray:
        r2 = grid.nodes() ** 2
        return np.pi ** -0.5 * np.exp(-r2)


def gaussian_half_density(grid: Grid) -> np.ndarray:
    """pi^(-d/4) e^(-|x|^2 / 2) at d = 1 on the nodes; the Gaussian
    multiplier's symbol."""
    r2 = grid.nodes() ** 2
    return np.pi ** -0.25 * np.exp(-r2 / 2.0)


def conjugation_discarded_mass(c: GaussianConjugation, f: FieldSample) -> float:
    """Relative L2 mass of f outside the safe radius (lost by the inverse),
    both norms by ``spectral._scaled_l2``: that of 2^k f is that of f, bit for bit."""
    outside = f.values * (np.abs(f.grid.nodes()) > c.safe_radius)
    (total, lost), e = _scaled_l2((f.values, outside), f.grid.h)
    return 0.0 if total == 0.0 else float(np.ldexp(lost / total, e[1] - e[0]))


def apply_conjugation(c: GaussianConjugation, direction: str, f: FieldSample) -> FieldSample:
    """Multiply by gamma^(1/2) (forward) or gamma^(-1/2) (inverse).

    The inverse zeroes values outside the safe radius; when that discards
    more than 1e-10 of the field's relative L2 mass a DiscardedMassWarning
    reports the fraction, so silent corruption is impossible. Through
    ``errors._warn``, it names the line that called into the package, also
    when that call was ``ou_semigroup`` or ``ou_probe_rate``.
    """
    half = gaussian_half_density(f.grid)
    if direction == "forward":
        return FieldSample(f.grid, f.values * half)
    if direction != "inverse":
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    mask = np.abs(f.grid.nodes()) <= c.safe_radius
    vals = np.zeros_like(f.values)
    with np.errstate(over="ignore"):  # a quotient that overflows is inf, which FieldSample refuses
        vals[mask] = f.values[mask] / half[mask]
    lost = conjugation_discarded_mass(c, f)
    if lost > _DISCARD_TOL:
        _warn(DiscardedMassWarning,
              f"inverse conjugation discarded {lost:.3e} of the field's relative "
              f"L2 mass beyond |x| = {c.safe_radius}")
    return FieldSample(f.grid, vals)


def ou_semigroup(c: GaussianConjugation, dec: SpectralDecomposition, beta: float,
                 t: float, f: FieldSample) -> FieldSample:
    """exp(-t L^beta) f via the intertwining with the harmonic heat flow.

    A field on another grid than ``dec``'s fails in ``dec.coefficients``.
    """
    osc = dec.oscillator
    if osc.k != 1 or osc.l != 1:
        raise InvalidSpecError(
            "the intertwining needs the harmonic decomposition (k = l = 1, V = |x|^2)")
    return apply_conjugation(c, "inverse",
                             heat_semigroup(dec, beta, t, apply_conjugation(c, "forward", f)))
