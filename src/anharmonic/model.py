"""Core domain types: potentials, oscillators, the weight, and norm parameters.

An oscillator is the operator H = (-Laplacian)^l + V alone; a fractional
power H^beta is given where it is used, with its semigroup or quotient.

Everything here is an immutable value object; all operations are pure and
vectorized over trailing point batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError

_SPHERE_SAMPLES = 2000


class _Infinity:
    """Marker for an infinite Lebesgue exponent (sup norm).

    A dedicated singleton rather than float('inf') so norm code never does
    arithmetic with a sentinel float.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __reduce__(self):
        return (_restore_infinity, ())


def _restore_infinity():
    return INF


INF = _Infinity()


def is_inf(p) -> bool:
    """True when ``p`` is the INF exponent marker."""
    return p is INF


def check_exponent(name, p):
    """Validate a Lebesgue exponent: INF, or a finite positive real."""
    if is_inf(p):
        return p
    try:
        p = float(p)
    except (TypeError, ValueError):
        raise InvalidSpecError(f"{name} must be a positive real or INF, got {p!r}")
    if not np.isfinite(p):
        raise InvalidSpecError(f"{name} must be finite; use the INF marker for sup norms")
    if p <= 0:
        raise InvalidSpecError(f"{name} must be strictly positive, got {p}")
    return p


def _unit_sphere_samples(dimension):
    if dimension == 1:
        return np.array([[1.0], [-1.0]])
    theta = 2.0 * np.pi * (np.arange(_SPHERE_SAMPLES) + 0.5) / _SPHERE_SAMPLES
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


@dataclass(frozen=True)
class PotentialSpec:
    """Strictly positive potential V, homogeneous of degree 2k.

    Kinds:
      - ``iso_power``: V(x) = |x|^(2k)
      - ``aniso_sum``: V(x) = sum_j a_j |x_j|^(2k), coefficients a_j > 0
      - ``custom_poly``: sum of monomial terms, each of total degree exactly 2k

    ``dimension`` is 1 or 2, as for ``Grid``. Positivity away from the origin
    is checked on the unit sphere; homogeneity extends the check to R^d.
    """

    kind: str
    degree_half: int
    dimension: int = 1
    coefficients: tuple = ()
    terms: tuple = ()

    def __post_init__(self):
        if self.kind not in ("iso_power", "aniso_sum", "custom_poly"):
            raise InvalidSpecError(f"unknown potential kind {self.kind!r}")
        if not isinstance(self.degree_half, (int, np.integer)) or self.degree_half < 1:
            raise InvalidSpecError("degree_half must be a positive integer")
        if not isinstance(self.dimension, (int, np.integer)) or self.dimension not in (1, 2):
            raise InvalidSpecError("dimension must be 1 or 2")
        object.__setattr__(self, "degree_half", int(self.degree_half))
        object.__setattr__(self, "dimension", int(self.dimension))

        if self.kind == "aniso_sum":
            coeffs = tuple(float(a) for a in self.coefficients)
            if len(coeffs) != self.dimension:
                raise InvalidSpecError("aniso_sum needs one coefficient per axis")
            if any(a <= 0 or not np.isfinite(a) for a in coeffs):
                raise InvalidSpecError("aniso_sum coefficients must be positive finite reals")
            object.__setattr__(self, "coefficients", coeffs)
        elif self.coefficients:
            raise InvalidSpecError("coefficients are only meaningful for aniso_sum")

        if self.kind == "custom_poly":
            cleaned = []
            for entry in self.terms:
                multi, coeff = entry
                multi = tuple(int(m) for m in multi)
                if len(multi) != self.dimension or any(m < 0 for m in multi):
                    raise InvalidSpecError(f"bad multi-index {multi}")
                if sum(multi) != 2 * self.degree_half:
                    raise InvalidSpecError(
                        f"term {multi} has total degree {sum(multi)}, "
                        f"expected {2 * self.degree_half}"
                    )
                cleaned.append((multi, float(coeff)))
            if not cleaned:
                raise InvalidSpecError("custom_poly needs at least one term")
            object.__setattr__(self, "terms", tuple(cleaned))
        elif self.terms:
            raise InvalidSpecError("terms are only meaningful for custom_poly")

        sphere = _unit_sphere_samples(self.dimension)
        vals = _evaluate_on_points(self, sphere)
        if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
            worst = sphere[int(np.argmin(vals))]
            raise InvalidSpecError(
                f"potential is not strictly positive on the unit sphere "
                f"(V({worst}) = {np.min(vals):.3e})"
            )


def _points(x, d):
    """Coerce input to an (..., d) point array; d=1 also accepts bare arrays."""
    x = np.asarray(x, dtype=float)
    if x.ndim >= 1 and x.shape[-1] == d:
        return x
    if d == 1:
        return x[..., None]
    raise InvalidSpecError(f"expected points with last axis {d}, got shape {x.shape}")


def _evaluate_on_points(spec, pts):
    if spec.kind == "iso_power":
        r2 = np.sum(pts * pts, axis=-1)
        return r2 ** spec.degree_half
    if spec.kind == "aniso_sum":
        a = np.asarray(spec.coefficients)
        return np.sum(a * np.abs(pts) ** (2 * spec.degree_half), axis=-1)
    out = np.zeros(pts.shape[:-1])
    for multi, coeff in spec.terms:
        term = np.full(pts.shape[:-1], coeff)
        for axis, power in enumerate(multi):
            if power:
                # numpy's pow can round x^n and (-x)^n apart; the power of |x|
                # with the sign restored for odd n keeps every factor exactly
                # even or odd, so a monomial of even total degree is exactly even
                coord = pts[..., axis]
                mag = np.abs(coord) ** power
                term = term * (mag if power % 2 == 0 else np.copysign(mag, coord))
        out = out + term
    return out


def evaluate_potential(spec: PotentialSpec, x):
    """Evaluate V at one point or a batch of points.

    For dimension 1 any array is treated elementwise; otherwise the last
    axis must have length d.
    """
    pts = _points(x, spec.dimension)
    if not np.all(np.isfinite(pts)):
        raise InvalidSpecError("potential evaluation needs finite coordinates")
    vals = _evaluate_on_points(spec, pts)
    if vals.ndim == 0:
        return float(vals)
    return vals


@dataclass(frozen=True)
class OscillatorSpec:
    """The oscillator H = (-Laplacian)^l + V, and nothing else.

    Its dimension is the potential's (``dimension``). A fractional power
    H^beta is not part of H: each use of it (a heat semigroup, the decay
    quotient) carries its own beta. ``q1`` is the additive offset in the
    adapted weight; q1 >= 1 keeps the combined symbol bounded below by 1.
    """

    l: int
    potential: PotentialSpec
    q1: float = 1.0

    def __post_init__(self):
        if not isinstance(self.l, (int, np.integer)) or self.l < 1:
            raise InvalidSpecError("l must be a positive integer")
        if not isinstance(self.potential, PotentialSpec):
            raise InvalidSpecError("potential must be a PotentialSpec")
        object.__setattr__(self, "l", int(self.l))
        object.__setattr__(self, "q1", float(self.q1))
        if not np.isfinite(self.q1) or self.q1 < 1.0:
            raise InvalidSpecError("q1 must be >= 1 so the symbol stays >= 1")

    @property
    def dimension(self) -> int:
        return self.potential.dimension

    @property
    def degree_half(self) -> int:
        return self.potential.degree_half


def oscillator(k: int, l: int, dimension: int = 1, *, q1: float = 1.0) -> OscillatorSpec:
    """Isotropic-power oscillator with V(x) = |x|^(2k)."""
    return OscillatorSpec(l, PotentialSpec("iso_power", k, dimension), q1)


def hermite_oscillator(dimension: int = 1) -> OscillatorSpec:
    """The harmonic special case k = l = 1, V(x) = |x|^2."""
    return oscillator(1, 1, dimension)


def weight_value(s: float, osc, x, omega):
    """The symbol-adapted weight v_s = (q1 + V(x)^(1/2) + |omega|^l)^s at
    (x, omega), batched over trailing point axes; omega is the angular
    frequency of the operator symbol, 2 pi times a cycle frequency.

    The one phase-space weight: s = 0 is the flat weight and needs no
    oscillator; any other s needs one for V, l and q1. A non-finite s raises
    InvalidSpecError.
    """
    s = float(s)
    if not np.isfinite(s):
        raise InvalidSpecError("weight exponent must be finite")
    if s != 0.0 and osc is None:
        raise InvalidSpecError("a weight with s != 0 needs an OscillatorSpec")
    d = osc.dimension if osc is not None else 1
    xp = _points(x, d)
    wp = _points(omega, d)
    if s == 0.0:
        shape = np.broadcast_shapes(xp.shape[:-1], wp.shape[:-1])
        return 1.0 if shape == () else np.ones(shape)
    base = (osc.q1
            + np.sqrt(_evaluate_on_points(osc.potential, xp))
            + np.linalg.norm(wp, axis=-1) ** osc.l)
    vals = base ** s
    return float(vals) if vals.ndim == 0 else vals


def submultiplicativity_defect(s: float, osc, samples) -> float:
    """Max over sampled pairs (X, Y) of v_s(X+Y) / (v_s(X) v_s(Y)).

    ``samples`` is a sequence of pairs ((x, omega), (y, eta)); points are
    scalars in dimension 1 or length-d sequences. Symmetric in X and Y by
    construction of the quotient's max.
    """
    if s < 0:
        raise ValueError("defect is only meaningful for s >= 0")
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample pair")
    d = osc.dimension if osc is not None else 1

    def stack(component):
        return np.array([np.atleast_1d(np.asarray(p, dtype=float)) for p in component]).reshape(len(samples), d)

    x = stack([p[0][0] for p in samples])
    omega = stack([p[0][1] for p in samples])
    y = stack([p[1][0] for p in samples])
    eta = stack([p[1][1] for p in samples])

    num = weight_value(s, osc, x + y, omega + eta)
    den = np.asarray(weight_value(s, osc, x, omega)) * np.asarray(weight_value(s, osc, y, eta))
    return float(np.max(np.asarray(num) / den))


@dataclass(frozen=True)
class MixedNormParams:
    """Inner/outer Lebesgue exponents for the phase-space mixed norm."""

    p: object = 2.0
    q: object = 2.0

    def __post_init__(self):
        object.__setattr__(self, "p", check_exponent("p", self.p))
        object.__setattr__(self, "q", check_exponent("q", self.q))

