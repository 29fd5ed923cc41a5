"""Core domain types: the oscillator, the weight, and norm parameters.

An oscillator is the operator H = (-Laplacian)^l + |x|^(2k) on the line
alone, named by (k, l); a fractional power H^beta is given where it is used,
with its semigroup or quotient. The paper states its results on R^d; every
run here is d = 1, as on ``spectral.Grid``.

Everything here is an immutable value object, and all operations are pure.
"""

from __future__ import annotations

import math
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


def _count(value, name, low=1) -> int:
    """The rule of every count: an int or numpy integer, not a bool, >= ``low``,
    returned as an int; else InvalidSpecError with ``field`` ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise InvalidSpecError(f"{name} must be an integer >= {low}", field=name)
    return int(value)


def _real(value, name, positive=False) -> float:
    """The rule of every real: an int, float or numpy number, not a bool,
    finite, and > 0 if ``positive``, returned as a float; else
    InvalidSpecError with ``field`` ``name``. Any other range is the site's."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not math.isfinite(value) or (positive and value <= 0)):
        raise InvalidSpecError(f"{name} must be a {'positive' if positive else 'finite'} real",
                               field=name)
    return float(value)


def check_exponent(name, p):
    """Validate a Lebesgue exponent: INF, or a positive real (``_real``)."""
    if is_inf(p):
        return p
    if p == math.inf:
        raise InvalidSpecError(f"{name} must be finite; use the INF marker for sup norms",
                               field=name)
    return _real(p, name, positive=True)


@dataclass(frozen=True)
class OscillatorSpec:
    """The oscillator H = (-Laplacian)^l + |x|^(2k) on the line, and nothing else.

    k and l are positive integers. Any strictly positive V homogeneous of
    degree 2k lies between two multiples of |x|^(2k), so it defines the same
    weighted spaces, and a dilation of x turns (-Laplacian)^l + c |x|^(2k)
    into c^(l/(k+l)) H.
    A fractional power H^beta is not part of H: each use of it (a heat
    semigroup, the decay quotient) carries its own beta.
    """

    k: int
    l: int

    def __post_init__(self):
        for name in ("k", "l"):
            object.__setattr__(self, name, _count(getattr(self, name), name))


def _potential(osc, x):
    with np.errstate(over="ignore"):  # an overflowing V is inf, which its readers refuse
        return (x * x) ** osc.k


def evaluate_potential(osc: OscillatorSpec, x):
    """Evaluate V = |x|^(2k) at a point or elementwise on an array of points."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidSpecError("potential evaluation needs finite coordinates")
    vals = _potential(osc, x)
    if vals.ndim == 0:
        return float(vals)
    return vals


def hermite_oscillator() -> OscillatorSpec:
    """The harmonic special case k = l = 1, V(x) = |x|^2."""
    return OscillatorSpec(1, 1)


def weight_value(s: float, osc, x, omega):
    """The symbol-adapted weight v_s = (1 + V(x)^(1/2) + |omega|^l)^s at
    (x, omega), elementwise over broadcast arrays; omega is the angular
    frequency of the operator symbol, 2 pi times a cycle frequency.

    The one phase-space weight: s = 0 is the flat weight and needs no
    oscillator; any other s needs one for V and l. An s that is not a
    finite real raises InvalidSpecError (``_real``).
    """
    s = _real(s, "s")
    if s != 0.0 and osc is None:
        raise InvalidSpecError("a weight with s != 0 needs an OscillatorSpec")
    x = np.asarray(x, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if s == 0.0:
        shape = np.broadcast_shapes(x.shape, omega.shape)
        return 1.0 if shape == () else np.ones(shape)
    base = 1.0 + np.sqrt(_potential(osc, x)) + np.abs(omega) ** osc.l
    vals = base ** s
    return float(vals) if vals.ndim == 0 else vals


def submultiplicativity_defect(s: float, osc, samples) -> float:
    """Max over sampled pairs (X, Y) of v_s(X+Y) / (v_s(X) v_s(Y)).

    ``samples`` is a sequence of pairs ((x, omega), (y, eta)) of reals.
    Symmetric in X and Y by construction of the quotient's max.
    """
    if s < 0:
        raise ValueError("defect is only meaningful for s >= 0")
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample pair")
    (x, omega), (y, eta) = np.array(samples, dtype=float).transpose(1, 2, 0)
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

