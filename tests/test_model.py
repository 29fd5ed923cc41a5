import json
import math
import pickle

import numpy as np
import pytest

import anharmonic
from anharmonic import (INF, InvalidSpecError, MixedNormParams, OscillatorSpec,
                        PotentialSpec, SchemaError, check_exponent, evaluate_potential,
                        hermite_oscillator, is_inf, oscillator, submultiplicativity_defect,
                        weight_value)
from anharmonic.cli import validate_manifest


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


def test_export_list_names_resolve_once():
    names = anharmonic.__all__
    assert [n for n in names if not hasattr(anharmonic, n)] == []
    assert len(set(names)) == len(names)


class TestInfMarker:
    def test_singleton(self):
        assert INF is type(INF)()

    def test_not_a_float(self):
        assert not isinstance(INF, float)

    def test_is_inf(self):
        assert is_inf(INF)
        assert not is_inf(2.0)
        assert not is_inf(math.inf)

    def test_pickle_roundtrip_preserves_identity(self):
        assert pickle.loads(pickle.dumps(INF)) is INF

    def test_float_inf_rejected(self):
        with pytest.raises(InvalidSpecError, match="INF marker"):
            check_exponent("p", math.inf)

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidSpecError):
            check_exponent("p", 0.0)
        with pytest.raises(InvalidSpecError):
            check_exponent("p", -1.5)

    def test_json_roundtrip(self):
        # manifest exponents as written in JSON text come back as INF or a float
        p, q, _ = parsed_monitor('["inf", "Infinity", 2.0]')
        assert p is INF and q is INF
        assert parsed_monitor("[2.5, 1.0, 2.0]")[0] == 2.5
        with pytest.raises(SchemaError):
            parsed_monitor('["infinite", 1.0, 2.0]')


class TestPotential:
    def test_iso_square(self):
        pot = PotentialSpec("iso_power", 1, 1)
        assert evaluate_potential(pot, 2.0) == 4.0

    def test_iso_quartic(self):
        pot = PotentialSpec("iso_power", 2, 1)
        assert evaluate_potential(pot, 2.0) == 16.0

    def test_aniso_sum(self):
        pot = PotentialSpec("aniso_sum", 1, 2, (1.0, 2.0))
        assert evaluate_potential(pot, (1.0, 1.0)) == 3.0

    def test_homogeneity(self):
        for k in (1, 2, 3):
            pot = PotentialSpec("iso_power", k, 1)
            x = 1.37
            ratio = evaluate_potential(pot, 2 * x) / evaluate_potential(pot, x)
            assert ratio == pytest.approx(2.0 ** (2 * k), rel=1e-12)

    def test_custom_poly_positive(self):
        # x^4 + x^2 y^2 + y^4 is strictly positive on the sphere
        pot = PotentialSpec("custom_poly", 2, 2,
                            terms=(((4, 0), 1.0), ((2, 2), 1.0), ((0, 4), 1.0)))
        assert evaluate_potential(pot, (1.0, 1.0)) == 3.0

    def test_custom_poly_with_odd_factors_is_exactly_even(self):
        # x^3 y and x y^3 flip sign twice under x -> -x; pow alone can round
        # (-x)^3 and -(x^3) apart
        pot = PotentialSpec("custom_poly", 2, 2,
                            terms=(((4, 0), 1.0), ((3, 1), 0.5), ((1, 3), -0.3), ((0, 4), 2.0)))
        x = np.random.default_rng(3).uniform(-5.0, 5.0, (1000, 2))
        assert np.array_equal(evaluate_potential(pot, -x), evaluate_potential(pot, x))

    def test_custom_poly_wrong_degree_rejected(self):
        with pytest.raises(InvalidSpecError):
            PotentialSpec("custom_poly", 2, 2, terms=(((2, 0), 1.0),))

    def test_sign_indefinite_rejected(self):
        # x^4 - 3 x^2 y^2 + y^4 is negative on the diagonal
        with pytest.raises(InvalidSpecError):
            PotentialSpec("custom_poly", 2, 2,
                          terms=(((4, 0), 1.0), ((2, 2), -3.0), ((0, 4), 1.0)))

    @pytest.mark.parametrize("dimension", [0, 3, 1.0])
    def test_dimension_is_one_or_two(self, dimension):
        """The dimensions a Grid discretizes, and no other."""
        with pytest.raises(InvalidSpecError, match="dimension must be 1 or 2"):
            PotentialSpec("iso_power", 1, dimension)

    def test_vectorized_evaluation(self):
        pot = PotentialSpec("iso_power", 1, 2)
        pts = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        np.testing.assert_allclose(evaluate_potential(pot, pts), [1.0, 4.0, 2.0])

    def test_serialization_roundtrip(self):
        """Manifest JSON of each potential kind parses to the spec built directly."""
        blocks = [
            ('{"kind": "iso_power", "degree_half": 2}', PotentialSpec("iso_power", 2, 1)),
            ('{"kind": "aniso_sum", "degree_half": 2, "coefficients": [1.5, 0.5]}',
             PotentialSpec("aniso_sum", 2, 2, (1.5, 0.5))),
            ('{"kind": "custom_poly", "degree_half": 2,'
             ' "terms": [[[4, 0], 1.0], [[2, 2], 1.0], [[0, 4], 1.0]]}',
             PotentialSpec("custom_poly", 2, 2,
                           terms=(((4, 0), 1.0), ((2, 2), 1.0), ((0, 4), 1.0)))),
        ]
        for text, expected in blocks:
            block = '{"l": 1, "potential": %s}' % text
            assert parsed_oscillator(block, expected.dimension).potential == expected


class TestOscillator:
    def test_convenience_matches_manual(self):
        osc = oscillator(2, 1, 1)
        assert osc.potential.degree_half == 2
        assert osc.l == 1
        assert osc.degree_half == 2

    def test_hermite(self):
        osc = hermite_oscillator()
        assert osc.l == 1
        assert osc.potential.degree_half == 1
        assert evaluate_potential(osc.potential, 3.0) == 9.0

    def test_q1_below_one_rejected(self):
        with pytest.raises(InvalidSpecError):
            oscillator(1, 1, 1, q1=0.5)

    def test_dimension_is_the_potentials(self):
        """H carries no dimension of its own, and no beta: a stale positional
        beta after the dimension raises instead of becoming q1."""
        assert OscillatorSpec(1, PotentialSpec("iso_power", 1, 2)).dimension == 2
        assert hermite_oscillator(2).dimension == 2
        assert oscillator(2, 1).dimension == 1
        with pytest.raises(TypeError):
            oscillator(1, 1, 1, 2.0)
        with pytest.raises(InvalidSpecError, match="potential must be a PotentialSpec"):
            OscillatorSpec(1, None)

    def test_serialization_roundtrip(self):
        """Oscillator manifest JSON, default and explicit q1, parses to the spec."""
        pot = '{"kind": "iso_power", "degree_half": 2}'
        default = '{"l": 1, "potential": %s}' % pot
        assert parsed_oscillator(default) == oscillator(2, 1, 1)
        explicit = '{"l": 1, "potential": %s, "q1": 2.0}' % pot
        assert parsed_oscillator(explicit) == oscillator(2, 1, 1, q1=2.0)
        assert parsed_oscillator(default, 2) == oscillator(2, 1, 2)


class TestWeight:
    def test_pinned_anharmonic_value(self):
        # v_1(1,1) = q1 + sqrt(V(1)) + |1| = 3 for the harmonic case
        osc = hermite_oscillator()
        assert weight_value(1.0, osc, 1.0, 1.0) == pytest.approx(3.0, rel=1e-12)

    def test_harmonic_weight_is_the_bracket(self):
        # k = l = 1: (1 + |x| + |omega|)^s, here (1 + 1 + 2)^2
        assert weight_value(2.0, hermite_oscillator(), 1.0, -2.0) == pytest.approx(
            16.0, rel=1e-12)

    def test_flat_is_one(self):
        assert weight_value(0.0, None, 5.0, -7.0) == 1.0

    def test_s_zero_exact_one(self):
        osc = hermite_oscillator()
        vals = weight_value(0.0, osc, np.linspace(-4, 4, 9), np.linspace(-4, 4, 9))
        assert np.all(np.asarray(vals) == 1.0)

    def test_exponent_additivity(self):
        osc = oscillator(2, 1, 1)
        x, xi = 1.3, -0.7
        a = weight_value(1.25, osc, x, xi)
        b = weight_value(0.75, osc, x, xi)
        c = weight_value(2.0, osc, x, xi)
        assert a * b == pytest.approx(c, rel=1e-12)

    def test_nonzero_exponent_needs_oscillator(self):
        with pytest.raises(InvalidSpecError):
            weight_value(1.0, None, 1.0, 1.0)

    @pytest.mark.parametrize("s", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_exponent_rejected(self, s):
        with pytest.raises(InvalidSpecError, match="finite"):
            weight_value(s, hermite_oscillator(), 1.0, 1.0)

    def test_submultiplicativity_scan(self):
        # 10^4 sample pairs; defect must not exceed 1 for q1 >= 1
        osc = hermite_oscillator()
        rng = np.random.default_rng(42)
        pts = rng.uniform(-5, 5, size=(10000, 4))
        samples = [((p[0], p[1]), (p[2], p[3])) for p in pts]
        assert submultiplicativity_defect(1.0, osc, samples) <= 1.0 + 1e-12

    def test_defect_s0_is_one(self):
        osc = hermite_oscillator()
        samples = [((0.5, 0.5), (1.0, -1.0))]
        assert submultiplicativity_defect(0.0, osc, samples) == 1.0


class TestNormParams:
    def test_quasi_norm_exponents_allowed(self):
        params = MixedNormParams(0.5, 0.25)
        assert params.p == 0.5
