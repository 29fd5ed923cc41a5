import math
import warnings

import numpy as np
import pytest

from anharmonic import (FieldSample, GaussianConjugation, NumericalError, OffSpanWarning,
                        apply_spectral_function, heat_semigroup, ou_semigroup, sobolev_norm)
from anharmonic.spectral import SpectralDecomposition


def eigenfield(dec, j, scale=1.0):
    c = np.zeros(dec.m, dtype=complex)
    c[j] = scale
    return dec.reconstruct(c)


class TestHeatSemigroup:
    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_beta(self, hermite_dec, gaussian_field, beta):
        with pytest.raises(ValueError, match="beta must be a positive real"):
            heat_semigroup(hermite_dec, beta, 1.0, gaussian_field)

    @pytest.mark.parametrize("t", [-0.1, math.inf, math.nan])
    def test_rejects_bad_time(self, hermite_dec, gaussian_field, t):
        with pytest.raises(ValueError, match="t must be finite and nonnegative"):
            heat_semigroup(hermite_dec, 1.0, t, gaussian_field)

    @pytest.mark.parametrize("j", [0, 5])
    def test_eigenfunction_rate(self, hermite_dec, j):
        f = eigenfield(hermite_dec, j)
        out = heat_semigroup(hermite_dec, 1.0, 0.3, f)
        np.testing.assert_allclose(out.values, np.exp(-0.3 * (2 * j + 1)) * f.values,
                                   rtol=1e-10, atol=1e-13)

    def test_beta_two_rate(self, hermite_dec):
        f = eigenfield(hermite_dec, 3)
        out = heat_semigroup(hermite_dec, 2.0, 0.05, f)
        np.testing.assert_allclose(out.values, np.exp(-0.05 * 7.0 ** 2) * f.values,
                                   rtol=1e-10, atol=1e-13)

    def test_zero_time_is_span_identity(self, hermite_dec, gaussian_field):
        evolved = heat_semigroup(hermite_dec, 1.0, 0.0, gaussian_field)
        span_part = hermite_dec.reconstruct(hermite_dec.coefficients(gaussian_field))
        np.testing.assert_allclose(evolved.values, span_part.values, atol=1e-12)

    def test_composition(self, hermite_dec, gaussian_field):
        two_steps = heat_semigroup(hermite_dec, 1.0, 0.4,
                                   heat_semigroup(hermite_dec, 1.0, 0.6, gaussian_field))
        one_step = heat_semigroup(hermite_dec, 1.0, 1.0, gaussian_field)
        np.testing.assert_allclose(two_steps.values, one_step.values, atol=1e-12)


def power(dec, b, f):
    """H^b f, the spectral function lambda ** b."""
    return apply_spectral_function(dec, lambda lam: lam ** b, f)


class TestFractionalPower:
    def test_eigenvalue_scaling(self, hermite_dec):
        f = eigenfield(hermite_dec, 4)
        out = power(hermite_dec, 0.5, f)
        np.testing.assert_allclose(out.values, 3.0 * f.values, rtol=1e-10, atol=1e-13)

    def test_zero_power_is_span_identity(self, hermite_dec, gaussian_field):
        out = power(hermite_dec, 0.0, gaussian_field)
        span_part = hermite_dec.reconstruct(hermite_dec.coefficients(gaussian_field))
        np.testing.assert_allclose(out.values, span_part.values, atol=1e-12)

    def test_negative_power_inverts(self, hermite_dec):
        f = FieldSample(hermite_dec.grid, eigenfield(hermite_dec, 2).values
                        + eigenfield(hermite_dec, 7, scale=0.5).values)
        back = power(hermite_dec, -1.0, power(hermite_dec, 1.0, f))
        np.testing.assert_allclose(back.values, f.values, rtol=1e-9, atol=1e-12)


class TestSobolevNorm:
    def test_eigenfunction_value(self, hermite_dec):
        f = eigenfield(hermite_dec, 3)
        assert sobolev_norm(hermite_dec, 2.0, f) == pytest.approx(7.0, rel=1e-10)
        assert sobolev_norm(hermite_dec, 0.0, f) == pytest.approx(1.0, rel=1e-10)

    def test_pythagoras_across_modes(self, hermite_dec):
        f = FieldSample(hermite_dec.grid, eigenfield(hermite_dec, 0).values
                        + eigenfield(hermite_dec, 2, scale=2.0).values)
        expected = math.sqrt(1.0 * 1.0 + 4.0 * 5.0 ** 2)
        assert sobolev_norm(hermite_dec, 2.0, f) == pytest.approx(expected, rel=1e-10)

    def test_negative_order_smooths(self, hermite_dec):
        f = eigenfield(hermite_dec, 5)
        assert sobolev_norm(hermite_dec, -2.0, f) == pytest.approx(1.0 / 11.0, rel=1e-10)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_nonfinite_order_raises(self, hermite_dec, s):
        """An order s that is not finite used to return nan, inf or 0
        without a word."""
        with pytest.raises(ValueError, match="finite"):
            sobolev_norm(hermite_dec, s, eigenfield(hermite_dec, 3))


class TestApplySpectralFunction:
    def test_misshapen_output_raises(self, hermite_dec, gaussian_field):
        """phi is applied to the eigenvalue array once; a scalar output is not
        one value per mode."""
        with pytest.raises(ValueError, match="shape"):
            apply_spectral_function(hermite_dec, lambda lam: 1.0, gaussian_field)

    def test_nonfinite_value_raises(self, hermite_dec, gaussian_field):
        with pytest.raises(NumericalError):
            apply_spectral_function(
                hermite_dec, lambda lam: np.where(lam > 10.0, np.inf, 1.0),
                gaussian_field)

    def test_off_span_field_warns(self, small_dec):
        # alternating-sign data is pure grid-scale oscillation, far outside 48 modes
        values = np.cos(np.pi * np.arange(small_dec.grid.points_per_axis))
        f = FieldSample(small_dec.grid, values)
        with pytest.warns(OffSpanWarning):
            apply_spectral_function(small_dec, lambda lam: lam, f)

    def test_projects_once_per_call(self, small_dec, monkeypatch):
        """The off-span residual reuses the result's coefficients: one
        projection per heat_semigroup call, and the warning still fires."""
        calls = []
        original = SpectralDecomposition.coefficients

        def counting(self, f):
            calls.append(f)
            return original(self, f)

        monkeypatch.setattr(SpectralDecomposition, "coefficients", counting)
        heat_semigroup(small_dec, 1.0, 0.1, eigenfield(small_dec, 2))
        assert len(calls) == 1
        values = np.cos(np.pi * np.arange(small_dec.grid.points_per_axis))
        with pytest.warns(OffSpanWarning, match="apply_spectral_function"):
            heat_semigroup(small_dec, 1.0, 0.1, FieldSample(small_dec.grid, values))
        assert len(calls) == 2

    @pytest.mark.parametrize("call", [
        lambda dec, f: apply_spectral_function(dec, lambda lam: lam, f),
        lambda dec, f: heat_semigroup(dec, 1.0, 0.1, f),
        lambda dec, f: sobolev_norm(dec, 1.0, f),
        lambda dec, f: ou_semigroup(GaussianConjugation(), dec, 1.0, 0.1, f),
    ], ids=["apply_spectral_function", "heat_semigroup", "sobolev_norm", "ou_semigroup"])
    def test_warning_names_the_callers_line(self, small_dec, call):
        """Each public function that can warn points the warning at its
        caller's line, not into the library (``ou_semigroup`` warns through
        ``heat_semigroup``)."""
        values = np.cos(np.pi * np.arange(small_dec.grid.points_per_axis))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(small_dec, FieldSample(small_dec.grid, values))
        [record] = [w for w in caught if w.category is OffSpanWarning]
        assert record.filename == __file__

    def test_well_resolved_field_is_silent(self, hermite_dec, gaussian_field):
        with warnings.catch_warnings():
            warnings.simplefilter("error", OffSpanWarning)
            apply_spectral_function(hermite_dec, lambda lam: lam, gaussian_field)
