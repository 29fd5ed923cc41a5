"""Gaussian conjugation: multiplier, Gaussian modulation norms, and the
Ornstein-Uhlenbeck semigroup obtained by intertwining with the harmonic
heat flow.

The OU semigroup is never discretized directly; it is defined as
M^(-1) exp(-t H^beta) M with M the Gaussian half-density multiplier and H
the harmonic oscillator, which is the defining relation. The inverse
multiplier grows like e^(|x|^2/2), so it is truncated outside a safe radius
with explicit mass accounting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .calculus import SemigroupQuery, heat_semigroup
from .errors import DiscardedMassWarning, InvalidSpecError
from .estimators import _loglinear_fit, _probe_ratios
from .model import MixedNormParams, OscillatorSpec, WeightSpec
from .phasespace import WindowSpec, gaussian_half_density, modulation_norm
from .spectral import FieldSample, SpectralDecomposition

_DISCARD_TOL = 1e-10


@dataclass(frozen=True)
class GaussianConjugation:
    """The multiplier M f = gamma^(1/2) f with gamma the standard Gaussian
    density pi^(-d/2) e^(-|x|^2), and its truncated inverse."""

    dimension: int = 1
    safe_radius: float = 8.0

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise InvalidSpecError("dimension must be 1 or 2")
        r = float(self.safe_radius)
        if not np.isfinite(r) or r <= 0:
            raise InvalidSpecError("safe_radius must be a positive real")
        object.__setattr__(self, "safe_radius", r)

    def density(self, grid) -> np.ndarray:
        r2 = np.sum(grid.nodes() ** 2, axis=1)
        return np.pi ** (-self.dimension / 2.0) * np.exp(-r2)


def conjugation_discarded_mass(c: GaussianConjugation, f: FieldSample) -> float:
    """Relative L2 mass of f outside the safe radius (lost by the inverse)."""
    total = f.norm_l2()
    if total == 0.0:
        return 0.0
    radii = np.linalg.norm(f.grid.nodes(), axis=1)
    outside = f.values * (radii > c.safe_radius)
    lost = float(np.sqrt(f.grid.cell_volume * np.sum(np.abs(outside) ** 2)))
    return lost / total


def apply_conjugation(c: GaussianConjugation, direction: str, f: FieldSample) -> FieldSample:
    """Multiply by gamma^(1/2) (forward) or gamma^(-1/2) (inverse).

    The inverse zeroes values outside the safe radius; when that discards
    more than 1e-10 of the field's relative L2 mass a DiscardedMassWarning
    reports the fraction, so silent corruption is impossible.
    """
    if f.grid.dimension != c.dimension:
        raise InvalidSpecError("conjugation and field dimensions differ")
    half = gaussian_half_density(f.grid)
    if direction == "forward":
        return FieldSample(f.grid, f.values * half)
    if direction != "inverse":
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    radii = np.linalg.norm(f.grid.nodes(), axis=1)
    mask = radii <= c.safe_radius
    vals = np.zeros_like(f.values)
    vals[mask] = f.values[mask] / half[mask]
    lost = conjugation_discarded_mass(c, f)
    if lost > _DISCARD_TOL:
        warnings.warn(
            f"inverse conjugation discarded {lost:.3e} of the field's relative "
            f"L2 mass beyond |x| = {c.safe_radius}",
            DiscardedMassWarning, stacklevel=2)
    return FieldSample(f.grid, vals)


def _require_harmonic(dec: SpectralDecomposition, c: GaussianConjugation):
    osc = dec.oscillator
    if (osc.l != 1 or osc.potential.kind != "iso_power"
            or osc.potential.degree_half != 1):
        raise InvalidSpecError(
            "the intertwining needs the harmonic decomposition (k = l = 1, V = |x|^2)")
    if osc.dimension != c.dimension:
        raise InvalidSpecError("conjugation and decomposition dimensions differ")


def ou_semigroup(c: GaussianConjugation, dec: SpectralDecomposition, beta: float,
                 t: float, f: FieldSample) -> FieldSample:
    """exp(-t L^beta) f via the intertwining with the harmonic heat flow."""
    _require_harmonic(dec, c)
    query = SemigroupQuery(dec, beta, t)
    return apply_conjugation(c, "inverse",
                             heat_semigroup(query, apply_conjugation(c, "forward", f)))


def gaussian_modulation_norm(c: GaussianConjugation, f: FieldSample, window: WindowSpec,
                             ws: WeightSpec, params: MixedNormParams,
                             osc: OscillatorSpec | None = None) -> float:
    """Modulation norm of the Gaussian-multiplied field.

    By definition this is modulation_norm(M f), evaluated through exactly
    that code path, so the conjugation isometry holds bitwise.
    """
    return modulation_norm(apply_conjugation(c, "forward", f), window, ws, osc, params)


@dataclass(frozen=True)
class OuRateResult:
    """Exponential-rate fit of the OU probe bound over a time window."""

    rate: float
    intercept: float
    r_squared: float
    target: float
    rel_deviation: float
    t_window: tuple
    samples: tuple = ()


def ou_probe_rate(c: GaussianConjugation, dec: SpectralDecomposition, beta: float,
                  t_list, probes, window: WindowSpec | None = None,
                  ws: WeightSpec | None = None,
                  params: MixedNormParams | None = None) -> OuRateResult:
    """Fit the decay rate of the worst-case Gaussian-norm ratio of the OU
    flow over a probe corpus; the expected rate is -(dimension)^beta.
    Zero-norm probes are skipped with a warning (ValueError if all are).

    Polynomial weight by default: the Gaussian-space experiments measure
    against it unless told otherwise.
    """
    _require_harmonic(dec, c)
    window = window or WindowSpec()
    ws = ws or WeightSpec("polynomial", 0.0)
    params = params or MixedNormParams(2.0, 2.0)
    ts = [float(t) for t in t_list]
    if len(ts) < 3:
        raise ValueError("need at least 3 time points")

    def norm(f):
        return gaussian_modulation_norm(c, f, window, ws, params, dec.oscillator)

    vals = [max(r) for r in _probe_ratios(
        probes, norm, [lambda f, t=t: norm(ou_semigroup(c, dec, beta, t, f)) for t in ts])]
    rate, intercept, r2 = _loglinear_fit(ts, vals)
    target = -float(c.dimension) ** float(beta)
    return OuRateResult(rate, intercept, r2, target,
                        abs(rate - target) / abs(target), (min(ts), max(ts)),
                        tuple(zip(ts, vals)))
