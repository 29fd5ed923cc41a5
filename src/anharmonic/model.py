"""Core domain types: the oscillator, the weight, and norm parameters.

An oscillator is the operator H = (-Laplacian)^l + |x|^(2k) alone, named by
(k, l, d); a fractional power H^beta is given where it is used, with its
semigroup or quotient.

Everything here is an immutable value object; all operations are pure and
vectorized over trailing point batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError


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


@dataclass(frozen=True)
class OscillatorSpec:
    """The oscillator H = (-Laplacian)^l + |x|^(2k) on R^d, and nothing else.

    k and l are positive integers and the dimension d is 1 or 2, as for
    ``Grid``. Any strictly positive V homogeneous of degree 2k lies between
    two multiples of |x|^(2k), so it defines the same weighted spaces, and in
    d = 1 a dilation of x turns (-Laplacian)^l + c |x|^(2k) into c^(l/(k+l)) H.
    A fractional power H^beta is not part of H: each use of it (a heat
    semigroup, the decay quotient) carries its own beta.
    """

    k: int
    l: int
    dimension: int = 1

    def __post_init__(self):
        for name in ("k", "l"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise InvalidSpecError(f"{name} must be a positive integer")
            object.__setattr__(self, name, int(value))
        if not isinstance(self.dimension, (int, np.integer)) or self.dimension not in (1, 2):
            raise InvalidSpecError("dimension must be 1 or 2")
        object.__setattr__(self, "dimension", int(self.dimension))


def _points(x, d):
    """Coerce input to an (..., d) point array; d=1 also accepts bare arrays."""
    x = np.asarray(x, dtype=float)
    if x.ndim >= 1 and x.shape[-1] == d:
        return x
    if d == 1:
        return x[..., None]
    raise InvalidSpecError(f"expected points with last axis {d}, got shape {x.shape}")


def _potential(osc, pts):
    return np.sum(pts * pts, axis=-1) ** osc.k


def evaluate_potential(osc: OscillatorSpec, x):
    """Evaluate V = |x|^(2k) at one point or a batch of points.

    For dimension 1 any array is treated elementwise; otherwise the last
    axis must have length d.
    """
    pts = _points(x, osc.dimension)
    if not np.all(np.isfinite(pts)):
        raise InvalidSpecError("potential evaluation needs finite coordinates")
    vals = _potential(osc, pts)
    if vals.ndim == 0:
        return float(vals)
    return vals


def hermite_oscillator(dimension: int = 1) -> OscillatorSpec:
    """The harmonic special case k = l = 1, V(x) = |x|^2."""
    return OscillatorSpec(1, 1, dimension)


def weight_value(s: float, osc, x, omega):
    """The symbol-adapted weight v_s = (1 + V(x)^(1/2) + |omega|^l)^s at
    (x, omega), batched over trailing point axes; omega is the angular
    frequency of the operator symbol, 2 pi times a cycle frequency.

    The one phase-space weight: s = 0 is the flat weight and needs no
    oscillator; any other s needs one for V and l. A non-finite s raises
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
    base = 1.0 + np.sqrt(_potential(osc, xp)) + np.linalg.norm(wp, axis=-1) ** osc.l
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

