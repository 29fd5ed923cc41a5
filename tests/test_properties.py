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
from anharmonic.model import (OscillatorSpec, evaluate_potential, hermite_oscillator, is_inf,
                              submultiplicativity_defect, weight_value)
from anharmonic.phasespace import _column_reduce, _outer_reduce
from oracles import mixed_norm_reference

rng = np.random.default_rng(20240814)


def parsed_oscillator(text):
    """The OscillatorSpec that an oscillator block, written as JSON text,
    parses to in a norms manifest."""
    grid = {"points_per_axis": 16}
    return validate_manifest({"schema": 1, "kind": "norms", "grid": grid,
                              "oscillator": json.loads(text)}).oscillator


def parsed_monitor(text):
    """The (p, q, s) that an nlheat monitor, written as JSON text, parses to."""
    return validate_manifest({"schema": 1, "kind": "nlheat",
                              "params": {"monitor": json.loads(text)}}).params.monitor


def random_oscillators(n):
    return [OscillatorSpec(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            for _ in range(n)]


class TestPotentialHomogeneity:
    def test_degree_scaling(self):
        """V(c x) = c^(2k) V(x), exactly in the exponent."""
        for osc in random_oscillators(30):
            x = float(rng.normal())
            c = float(rng.uniform(0.1, 5.0))
            scaled = evaluate_potential(osc, x * c)
            base = evaluate_potential(osc, x)
            assert scaled == pytest.approx(c ** (2 * osc.k) * base, rel=1e-10)

    def test_strictly_positive_away_from_origin(self):
        for osc in random_oscillators(30):
            x = float(rng.normal())
            assert evaluate_potential(osc, x) > 0.0


class TestWeightAlgebra:
    def test_exponent_additivity(self):
        """w_{s1+s2} = w_{s1} * w_{s2} pointwise for a shared base."""
        for _ in range(30):
            osc = OscillatorSpec(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            s1, s2 = rng.uniform(0.0, 3.0, 2)
            x, xi = rng.normal(scale=3.0, size=2)
            combined = weight_value(s1 + s2, osc, x, xi)
            split = weight_value(s1, osc, x, xi) * weight_value(s2, osc, x, xi)
            assert combined == pytest.approx(split, rel=1e-12)

    def test_harmonic_weight_is_submultiplicative(self):
        """For k = l = 1, 1 + |x+y| + |xi+eta| <= (1 + |x| + |xi|)(1 + |y| +
        |eta|), so the sampled defect never exceeds 1."""
        osc = hermite_oscillator()
        for _ in range(20):
            s = float(rng.uniform(0.0, 4.0))
            pairs = [((float(a), float(b)), (float(c), float(d)))
                     for a, b, c, d in rng.normal(scale=5.0, size=(40, 4))]
            assert submultiplicativity_defect(s, osc, pairs) <= 1.0 + 1e-12

    def test_anharmonic_defect_bounded_by_degree(self):
        """Triangle inequality plus convexity of t^m gives the uniform bound
        2^(s (max(k, l) - 1)), given the offset 1 in the weight."""
        for _ in range(20):
            k = int(rng.integers(1, 4))
            l = int(rng.integers(1, 4))
            s = float(rng.uniform(0.0, 2.5))
            osc = OscillatorSpec(k, l)
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

    def test_oscillator_roundtrip(self):
        for _ in range(20):
            k, l = (int(v) for v in rng.integers(1, 4, 2))
            block = {"k": k, "l": l}
            assert parsed_oscillator(json.dumps(block)) == OscillatorSpec(k, l)


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
    def test_nonnegative(self):
        for _ in range(25):
            k = int(rng.integers(1, 5))
            l = int(rng.integers(1, 5))
            beta = float(rng.uniform(0.5, 3.0))
            pt = float(rng.uniform(1.0, 8.0))
            qt = float(rng.uniform(1.0, 8.0))
            assert sigma_exponent(k, l, beta, pt, qt) >= 0.0

    def test_inf_components_drop_their_term(self):
        for _ in range(15):
            k = int(rng.integers(1, 5))
            l = int(rng.integers(1, 5))
            beta = float(rng.uniform(0.5, 3.0))
            pt = float(rng.uniform(1.0, 8.0))
            with_inf = sigma_exponent(k, l, beta, pt, INF)
            assert with_inf == pytest.approx(1.0 / (2.0 * beta * k * pt), rel=1e-12)
        assert sigma_exponent(2, 3, 1.5, INF, INF) == 0.0

    def test_monotone_in_integrability(self):
        base = sigma_exponent(2, 1, 1.0, 1.0, 1.0)
        assert sigma_exponent(2, 1, 1.0, 2.0, 1.0) < base
        assert sigma_exponent(2, 1, 1.0, 1.0, 2.0) < base

