"""Randomized identity checks on the algebraic layer.

Each test sweeps a seeded sample of the parameter space and asserts an
identity that must hold everywhere, not just at hand-picked points.
"""

import json

import numpy as np
import pytest

from anharmonic import INF
from anharmonic.cli import validate_manifest
from anharmonic.estimators import sigma_exponent
from anharmonic.model import (OscillatorSpec, PotentialSpec, evaluate_potential, is_inf,
                              oscillator, submultiplicativity_defect, weight_value)
from anharmonic.phasespace import _column_reduce, _outer_reduce
from oracles import mixed_norm_reference

rng = np.random.default_rng(20240814)


def parsed_oscillator(text, dimension=1):
    """The OscillatorSpec that an oscillator block, written as JSON text,
    parses to in a norms manifest on a grid of the given dimension."""
    grid = {"dimension": dimension, "points_per_axis": 16}
    return validate_manifest({"schema": 1, "kind": "norms", "grid": grid,
                              "oscillator": json.loads(text)}).oscillator


def parsed_monitor(text):
    """The (p, q, s) that an nlheat monitor, written as JSON text, parses to."""
    return validate_manifest({"schema": 1, "kind": "nlheat",
                              "params": {"monitor": json.loads(text)}}).params.monitor


def random_potentials(n):
    out = []
    for _ in range(n):
        kind = rng.choice(["iso_power", "aniso_sum", "custom_poly"])
        k = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        if kind == "iso_power":
            out.append(PotentialSpec("iso_power", k, d))
        elif kind == "aniso_sum":
            coeffs = tuple(float(a) for a in rng.uniform(0.2, 3.0, d))
            out.append(PotentialSpec("aniso_sum", k, d, coefficients=coeffs))
        else:
            # even multi-indices with positive coefficients keep every
            # monomial nonnegative; the axis powers anchor positivity on
            # the whole sphere
            if d == 1:
                terms = [((2 * k,), float(rng.uniform(0.1, 2.0)))]
            else:
                terms = [((2 * k, 0), float(rng.uniform(0.1, 2.0))),
                         ((0, 2 * k), float(rng.uniform(0.1, 2.0)))]
                for _ in range(int(rng.integers(0, 3))):
                    a = int(rng.integers(0, k + 1))
                    terms.append(((2 * a, 2 * (k - a)),
                                  float(rng.uniform(0.1, 2.0))))
            out.append(PotentialSpec("custom_poly", k, d, terms=tuple(terms)))
    return out


class TestPotentialHomogeneity:
    def test_degree_scaling(self):
        """V(c x) = c^(2k) V(x) for every kind, exactly in the exponent."""
        for spec in random_potentials(30):
            x = rng.normal(size=spec.dimension) if spec.dimension > 1 else float(rng.normal())
            c = float(rng.uniform(0.1, 5.0))
            scaled = evaluate_potential(spec, np.asarray(x) * c)
            base = evaluate_potential(spec, x)
            assert scaled == pytest.approx(c ** (2 * spec.degree_half) * base,
                                           rel=1e-10)

    def test_strictly_positive_away_from_origin(self):
        for spec in random_potentials(30):
            x = rng.normal(size=spec.dimension)
            x = x / np.linalg.norm(x)
            if spec.dimension == 1:
                x = float(x[0])
            assert evaluate_potential(spec, x) > 0.0


class TestWeightAlgebra:
    def test_exponent_additivity(self):
        """w_{s1+s2} = w_{s1} * w_{s2} pointwise for a shared base."""
        for _ in range(30):
            osc = oscillator(int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                             q1=float(rng.uniform(1.0, 3.0)))
            s1, s2 = rng.uniform(0.0, 3.0, 2)
            x, xi = rng.normal(scale=3.0, size=2)
            combined = weight_value(s1 + s2, osc, x, xi)
            split = weight_value(s1, osc, x, xi) * weight_value(s2, osc, x, xi)
            assert combined == pytest.approx(split, rel=1e-12)

    def test_harmonic_weight_is_submultiplicative(self):
        """For k = l = 1 and q1 >= 1, q1 + |x+y| + |xi+eta| <= (q1 + |x| +
        |xi|)(q1 + |y| + |eta|), so the sampled defect never exceeds 1."""
        for _ in range(20):
            s = float(rng.uniform(0.0, 4.0))
            osc = oscillator(1, 1, q1=float(rng.uniform(1.0, 2.0)))
            pairs = [((float(a), float(b)), (float(c), float(d)))
                     for a, b, c, d in rng.normal(scale=5.0, size=(40, 4))]
            assert submultiplicativity_defect(s, osc, pairs) <= 1.0 + 1e-12

    def test_anharmonic_defect_bounded_by_degree(self):
        """Triangle inequality plus convexity of t^m gives the uniform bound
        2^(s (max(k, l) - 1)) once q1 >= 1."""
        for _ in range(20):
            k = int(rng.integers(1, 4))
            l = int(rng.integers(1, 4))
            s = float(rng.uniform(0.0, 2.5))
            osc = oscillator(k, l, q1=float(rng.uniform(1.0, 2.0)))
            pairs = [((float(a), float(b)), (float(c), float(d)))
                     for a, b, c, d in rng.normal(scale=4.0, size=(40, 4))]
            bound = 2.0 ** (s * (max(k, l) - 1))
            assert submultiplicativity_defect(s, osc, pairs) <= bound * (1 + 1e-12)

    def test_flat_weight_is_one_everywhere(self):
        for _ in range(10):
            x, xi = rng.normal(scale=10.0, size=2)
            assert weight_value(0.0, None, x, xi) == 1.0


class TestExponentArithmetic:
    def test_inf_json_roundtrip(self):
        """Exponents written into manifest JSON parse back unchanged."""
        assert is_inf(parsed_monitor('["inf", 1.0, 2.0]')[0])
        for p in rng.uniform(0.25, 30.0, 20):
            assert parsed_monitor(json.dumps([float(p), 1.0, 2.0]))[0] == float(p)


class TestSerializationRoundtrips:
    """Random manifest blocks, written as JSON text, parse to the spec built directly."""

    def test_potential_roundtrip(self):
        for _ in range(10):
            k = int(rng.integers(1, 4))
            d = int(rng.integers(1, 3))
            coeffs = [float(c) for c in rng.uniform(0.2, 3.0, d)]
            a = int(rng.integers(0, k + 1))
            c0, c1, c2 = (float(c) for c in rng.uniform(0.1, 2.0, 3))
            terms = [[[2 * k, 0], c0], [[0, 2 * k], c1], [[2 * a, 2 * (k - a)], c2]]
            cases = [
                ({"kind": "iso_power", "degree_half": k},
                 PotentialSpec("iso_power", k, d)),
                ({"kind": "aniso_sum", "degree_half": k, "coefficients": coeffs},
                 PotentialSpec("aniso_sum", k, d, coefficients=tuple(coeffs))),
                ({"kind": "custom_poly", "degree_half": k, "terms": terms},
                 PotentialSpec("custom_poly", k, 2,
                               terms=(((2 * k, 0), c0), ((0, 2 * k), c1),
                                      ((2 * a, 2 * (k - a)), c2)))),
            ]
            for block, expected in cases:
                osc = {"l": 1, "potential": block}
                parsed = parsed_oscillator(json.dumps(osc), expected.dimension)
                assert parsed.potential == expected

    def test_oscillator_roundtrip(self):
        for _ in range(20):
            k = int(rng.integers(1, 3))
            c = float(rng.uniform(0.5, 2.0))
            l = int(rng.integers(1, 4))
            q1 = float(rng.uniform(1.0, 2.0))
            block = {"l": l, "q1": q1,
                     "potential": {"kind": "aniso_sum", "degree_half": k,
                                   "coefficients": [1.0, c]}}
            expected = OscillatorSpec(l, PotentialSpec("aniso_sum", k, 2,
                                                       coefficients=(1.0, c)), q1)
            assert parsed_oscillator(json.dumps(block), 2) == expected


def whole_lattice_reduce(w, p, q, cx, cxi):
    """The package's mixed reduction of a whole lattice as one block."""
    return _outer_reduce(_column_reduce(w, p), p, q, cx, cxi)


class TestMixedReduce:
    def cases(self, n):
        for _ in range(n):
            w = rng.uniform(0.0, 2.0, size=(int(rng.integers(2, 12)),
                                            int(rng.integers(2, 12))))
            p = float(rng.uniform(0.5, 4.0))
            q = float(rng.uniform(0.5, 4.0))
            p_inf, q_inf = rng.random(2) < 0.25
            cx, cxi = rng.uniform(0.05, 1.0, 2)
            yield w, INF if p_inf else p, INF if q_inf else q, float(cx), float(cxi)

    def test_absolute_homogeneity(self):
        for w, p, q, cx, cxi in self.cases(25):
            c = float(rng.uniform(0.1, 9.0))
            lhs = whole_lattice_reduce(c * w, p, q, cx, cxi)
            rhs = c * whole_lattice_reduce(w, p, q, cx, cxi)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_pointwise_monotone(self):
        for w, p, q, cx, cxi in self.cases(25):
            bigger = w + rng.uniform(0.0, 1.0, size=w.shape)
            assert (whole_lattice_reduce(bigger, p, q, cx, cxi)
                    >= whole_lattice_reduce(w, p, q, cx, cxi) - 1e-12)

    def test_dispatch_matches_plain_numpy(self):
        """The vectorized reduction agrees with the direct-loop oracle."""
        for w, p, q, cx, cxi in self.cases(25):
            ref = mixed_norm_reference(w, np.ones_like(w),
                                       "inf" if is_inf(p) else p,
                                       "inf" if is_inf(q) else q, cx, cxi)
            assert whole_lattice_reduce(w, p, q, cx, cxi) == pytest.approx(ref, rel=1e-12)


class TestSigmaExponent:
    def test_nonnegative_and_linear_in_dimension(self):
        for _ in range(25):
            k = int(rng.integers(1, 5))
            l = int(rng.integers(1, 5))
            beta = float(rng.uniform(0.5, 3.0))
            pt = float(rng.uniform(1.0, 8.0))
            qt = float(rng.uniform(1.0, 8.0))
            one = sigma_exponent(k, l, beta, 1, pt, qt)
            assert one >= 0.0
            for d in (2, 3):
                assert sigma_exponent(k, l, beta, d, pt, qt) == pytest.approx(d * one, rel=1e-12)

    def test_inf_components_drop_their_term(self):
        for _ in range(15):
            k = int(rng.integers(1, 5))
            l = int(rng.integers(1, 5))
            beta = float(rng.uniform(0.5, 3.0))
            pt = float(rng.uniform(1.0, 8.0))
            with_inf = sigma_exponent(k, l, beta, 1, pt, INF)
            assert with_inf == pytest.approx(1.0 / (2.0 * beta * k * pt), rel=1e-12)
        assert sigma_exponent(2, 3, 1.5, 1, INF, INF) == 0.0

    def test_monotone_in_integrability(self):
        base = sigma_exponent(2, 1, 1.0, 1, 1.0, 1.0)
        assert sigma_exponent(2, 1, 1.0, 1, 2.0, 1.0) < base
        assert sigma_exponent(2, 1, 1.0, 1, 1.0, 2.0) < base

