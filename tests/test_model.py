import json
import math
import pickle

import numpy as np
import pytest

import anharmonic
from anharmonic import (INF, Grid, InvalidSpecError, MixedNormParams, OscillatorSpec,
                        SchemaError, check_exponent, evaluate_potential, hermite_oscillator,
                        is_inf, submultiplicativity_defect, weight_value)
from anharmonic.cli import validate_manifest


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
        assert evaluate_potential(OscillatorSpec(1, 1), 2.0) == 4.0

    def test_iso_quartic(self):
        assert evaluate_potential(OscillatorSpec(2, 1), 2.0) == 16.0

    def test_homogeneity(self):
        for k in (1, 2, 3):
            osc = OscillatorSpec(k, 1)
            x = 1.37
            ratio = evaluate_potential(osc, 2 * x) / evaluate_potential(osc, x)
            assert ratio == pytest.approx(2.0 ** (2 * k), rel=1e-12)

    def test_vectorized_evaluation(self):
        osc = OscillatorSpec(1, 1)
        pts = np.array([[1.0, 0.0], [-2.0, 0.5]])
        np.testing.assert_array_equal(evaluate_potential(osc, pts), [[1.0, 0.0], [4.0, 0.25]])


class TestOscillator:
    @pytest.mark.parametrize("stale", [lambda: Grid(1, 512, 12.0),
                                       lambda: OscillatorSpec(1, 1, 2),
                                       lambda: hermite_oscillator(2)],
                             ids=["grid", "oscillator", "hermite"])
    def test_no_dimension_argument(self, stale):
        """The line is the only dimension: a call that still passes one is a
        TypeError, not a spec."""
        with pytest.raises(TypeError):
            stale()

    @pytest.mark.parametrize("k,l,name", [(0, 1, "k"), (1.0, 1, "k"), (True, 2, "k"),
                                          (1, 0, "l"), (1, 1.5, "l"), (1, True, "l")])
    def test_k_and_l_are_positive_integers(self, k, l, name):
        with pytest.raises(InvalidSpecError, match=f"{name} must be a positive integer"):
            OscillatorSpec(k, l)

    def test_hermite(self):
        osc = hermite_oscillator()
        assert (osc.k, osc.l) == (1, 1)
        assert evaluate_potential(osc, 3.0) == 9.0

    def test_no_beta_argument(self):
        """H carries no beta: a stale positional beta raises."""
        with pytest.raises(TypeError):
            OscillatorSpec(1, 1, 2.0)

    def test_serialization_roundtrip(self):
        """An oscillator block {k, l} parses to the spec (k, l)."""
        assert parsed_oscillator('{"k": 2, "l": 1}') == OscillatorSpec(2, 1)


class TestWeight:
    def test_pinned_anharmonic_value(self):
        # v_1(1,1) = 1 + sqrt(V(1)) + |1| = 3 for the harmonic case
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
        osc = OscillatorSpec(2, 1)
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
        # 10^4 sample pairs; with the offset 1 the defect must not exceed 1
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
