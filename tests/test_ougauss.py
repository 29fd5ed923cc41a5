import math
import warnings

import numpy as np
import pytest

import anharmonic as ah
from anharmonic import (DiscardedMassWarning, FieldSample, GaussianConjugation,
                        Grid, InvalidSpecError, MixedNormParams, ProbeSkipWarning,
                        WeightSpec, apply_conjugation, conjugation_discarded_mass,
                        decompose, gaussian_half_density, gaussian_probe_fields,
                        modulation_norm, ou_probe_rate, ou_semigroup, stft)
from oracles import mixed_norm_reference

FLAT = WeightSpec("flat", 0.0)
L2 = MixedNormParams(2.0, 2.0)


class TestConjugationSpec:
    def test_validation(self):
        with pytest.raises(InvalidSpecError):
            GaussianConjugation(3)
        with pytest.raises(InvalidSpecError):
            GaussianConjugation(1, safe_radius=0.0)
        with pytest.raises(InvalidSpecError):
            GaussianConjugation(1, safe_radius=math.inf)

    def test_density_formula(self, hermite_grid):
        c = GaussianConjugation(1)
        x = hermite_grid.axis_nodes()
        np.testing.assert_allclose(c.density(hermite_grid),
                                   np.pi ** -0.5 * np.exp(-x ** 2), rtol=1e-14)

    def test_half_density_is_density_square_root(self, hermite_grid):
        c = GaussianConjugation(1)
        np.testing.assert_allclose(gaussian_half_density(hermite_grid),
                                   np.sqrt(c.density(hermite_grid)), rtol=1e-12)

    def test_half_density_is_harmonic_ground_state(self, hermite_dec, hermite_grid):
        phi0 = hermite_dec.eigenfunction(0).values.real
        analytic = gaussian_half_density(hermite_grid)
        if phi0[hermite_grid.size // 2] < 0:
            phi0 = -phi0
        assert np.max(np.abs(phi0 - analytic)) < 1e-8


class TestApplyConjugation:
    def test_roundtrip_inside_safe_radius(self, hermite_grid, gaussian_field):
        c = GaussianConjugation(1)
        back = apply_conjugation(c, "inverse",
                                 apply_conjugation(c, "forward", gaussian_field))
        x = np.abs(hermite_grid.axis_nodes())
        inside = x <= c.safe_radius
        # multiply-then-divide costs a rounding step; deep-tail products may
        # also underflow outright
        np.testing.assert_allclose(back.values[inside],
                                   gaussian_field.values[inside],
                                   rtol=1e-12, atol=1e-200)
        assert np.all(back.values[~inside] == 0)

    def test_forward_is_pointwise_multiplication(self, hermite_grid, gaussian_field):
        c = GaussianConjugation(1)
        out = apply_conjugation(c, "forward", gaussian_field)
        np.testing.assert_array_equal(
            out.values, gaussian_field.values * gaussian_half_density(hermite_grid))

    def test_inverse_warns_on_discarded_mass(self, hermite_grid, gaussian_field):
        c = GaussianConjugation(1, safe_radius=2.0)
        with pytest.warns(DiscardedMassWarning):
            apply_conjugation(c, "inverse", gaussian_field)

    def test_direction_and_dimension_validation(self, hermite_grid, gaussian_field):
        c = GaussianConjugation(1)
        with pytest.raises(ValueError):
            apply_conjugation(c, "sideways", gaussian_field)
        with pytest.raises(InvalidSpecError):
            apply_conjugation(GaussianConjugation(2), "forward", gaussian_field)

    def test_discarded_mass_accounting(self, hermite_grid, gaussian_field):
        zero = FieldSample(hermite_grid, np.zeros(hermite_grid.size))
        assert conjugation_discarded_mass(GaussianConjugation(1), zero) == 0.0
        tight = GaussianConjugation(1, safe_radius=0.25)
        frac = conjugation_discarded_mass(tight, gaussian_field)
        assert 0.5 < frac <= 1.0


class TestOuSemigroup:
    def test_rejects_non_harmonic_decomposition(self, quartic_dec, gaussian_field):
        with pytest.raises(InvalidSpecError):
            ou_semigroup(GaussianConjugation(1), quartic_dec, 1.0, 0.5, gaussian_field)

    def test_rejects_dimension_mismatch(self, hermite_dec, gaussian_field):
        with pytest.raises(InvalidSpecError):
            ou_semigroup(GaussianConjugation(2), hermite_dec, 1.0, 0.5, gaussian_field)

    def test_constant_field_decay_rate(self, hermite_dec, hermite_grid):
        """M maps constants onto the harmonic ground state, so the OU flow
        scales them by exp(-t lambda_0^beta) with lambda_0 = dimension."""
        c = GaussianConjugation(1)
        ones = FieldSample(hermite_grid, np.ones(hermite_grid.size))
        x = np.abs(hermite_grid.axis_nodes())
        for t in (0.1, 0.5, 1.0):
            out = ou_semigroup(c, hermite_dec, 1.0, t, ones)
            err = np.max(np.abs(out.values[x <= 6.0] - math.exp(-t)))
            assert err < 1e-6

    def test_two_dimensional_rate_feels_beta(self):
        grid = Grid(2, 32, 6.0)
        dec = decompose(ah.oscillator(1, 1, 2), grid, 24)
        c = GaussianConjugation(2, safe_radius=5.0)
        ones = FieldSample(grid, np.ones(grid.size))
        radii = np.linalg.norm(grid.nodes(), axis=1)
        for beta in (1.0, 2.0):
            with pytest.warns(DiscardedMassWarning):
                out = ou_semigroup(c, dec, beta, 0.3, ones)
            err = np.max(np.abs(out.values[radii <= 3.0]
                                - math.exp(-0.3 * 2.0 ** beta)))
            assert err < 1e-9


class TestGaussianNorm:
    """The Gaussian norm is the modulation norm of the multiplied field."""

    def test_multiplied_field_meets_closed_form(self, hermite_grid, gaussian_field,
                                                damped_gaussian_abs):
        c = GaussianConjugation(1)
        multiplied = apply_conjugation(c, "forward", gaussian_field)
        # the streamed norm and the full-lattice route are different code:
        # both meet the closed form
        expected = mixed_norm_reference(damped_gaussian_abs, 1.0, 2.0, 2.0,
                                        hermite_grid.cell_volume,
                                        hermite_grid.frequency_cell)
        streamed = modulation_norm(multiplied, FLAT, None, L2)
        assert streamed == pytest.approx(expected, rel=1e-10)
        full = ah.mixed_norm(stft(multiplied), FLAT, None, L2)
        assert full == pytest.approx(expected, rel=1e-10)

    def test_weighted_variant_accepts_oscillator(self, hermite_dec, hermite_grid,
                                                 gaussian_field, damped_gaussian_abs):
        c = GaussianConjugation(1)
        multiplied = apply_conjugation(c, "forward", gaussian_field)
        ws = WeightSpec("anharmonic", 1.0)
        got = modulation_norm(multiplied, ws, hermite_dec.oscillator, L2)
        # q1 + V^(1/2) + |omega| with V = x^2, q1 = 1 and omega = 2 pi xi
        x = hermite_grid.nodes()[:, 0]
        xi = hermite_grid.frequency_nodes()[:, 0]
        weight = 1.0 + np.abs(x)[:, None] + 2.0 * np.pi * np.abs(xi)[None, :]
        expected = mixed_norm_reference(damped_gaussian_abs, weight, 2.0, 2.0,
                                        hermite_grid.cell_volume,
                                        hermite_grid.frequency_cell)
        assert got == pytest.approx(expected, rel=1e-10)


    def test_l2_norm_is_l2_gamma_norm_of_probe(self, hermite_grid):
        """For p = q = 2 and the flat weight, the lattice Moyal identity makes
        the norm of gamma^(1/2) f the L^2(gamma) norm of f, here summed
        directly on the nodes for a modulated off-centre probe."""
        c = GaussianConjugation(1)
        x = hermite_grid.nodes()[:, 0]
        f = FieldSample(hermite_grid, (1.0 + x ** 2) * np.exp(-0.25 * (x - 1.0) ** 2)
                        * np.exp(2j * np.pi * 0.6 * x))
        got = modulation_norm(apply_conjugation(c, "forward", f), FLAT, None, L2)
        gamma = np.exp(-x ** 2) / math.sqrt(math.pi)
        expected = math.sqrt(hermite_grid.cell_volume * np.sum(gamma * np.abs(f.values) ** 2))
        assert got == pytest.approx(expected, rel=1e-9)


class TestOuProbeRate:
    def test_constant_probe_fit_is_exact(self, hermite_dec, hermite_grid):
        c = GaussianConjugation(1)
        ones = FieldSample(hermite_grid, np.ones(hermite_grid.size))
        res = ou_probe_rate(c, hermite_dec, 1.0, (1.0, 2.0, 3.0), [ones])
        assert res.target == -1.0
        assert res.slope == pytest.approx(-1.0, rel=1e-9)
        assert res.rel_deviation < 1e-9
        assert res.r_squared == pytest.approx(1.0, abs=1e-12)
        assert len(res.samples) == 3
        assert res.samples[0][0] == 1.0 and res.samples[0][1] > 0

    def test_gaussian_corpus_recovers_rate(self, hermite_dec, hermite_grid):
        c = GaussianConjugation(1)
        probes = gaussian_probe_fields(hermite_grid, 5, seed=11,
                                       center_range=(-1.5, 1.5),
                                       modulation_range=(-1.0, 1.0))
        res = ou_probe_rate(c, hermite_dec, 1.0, (1.0, 2.0, 3.0, 4.0), probes)
        assert res.rel_deviation < 0.05
        assert res.r_squared > 0.99

    def test_zero_probe_skipped_with_warning(self, hermite_dec, hermite_grid):
        """The skip rule of every probe corpus: a zero-norm probe warns and
        drops out; a corpus of zero probes raises."""
        c = GaussianConjugation(1)
        zero = FieldSample(hermite_grid, np.zeros(hermite_grid.size))
        ones = FieldSample(hermite_grid, np.ones(hermite_grid.size))
        with pytest.warns(ProbeSkipWarning):
            res = ou_probe_rate(c, hermite_dec, 1.0, (1.0, 2.0, 3.0), [zero, ones])
        assert res.slope == pytest.approx(-1.0, rel=1e-9)
        with pytest.warns(ProbeSkipWarning), pytest.raises(ValueError):
            ou_probe_rate(c, hermite_dec, 1.0, (1.0, 2.0, 3.0), [zero])

    def test_needs_three_times(self, hermite_dec, hermite_grid):
        c = GaussianConjugation(1)
        ones = FieldSample(hermite_grid, np.ones(hermite_grid.size))
        with pytest.raises(ValueError):
            ou_probe_rate(c, hermite_dec, 1.0, (1.0, 2.0), [ones])
        # three times but one distinct: no slope is determined
        with pytest.raises(ValueError):
            ou_probe_rate(c, hermite_dec, 1.0, (1.0, 1.0, 1.0), [ones])

    def test_rejects_non_harmonic(self, quartic_dec, hermite_grid):
        c = GaussianConjugation(1)
        ones = FieldSample(quartic_dec.grid, np.ones(quartic_dec.grid.size))
        with pytest.raises(InvalidSpecError):
            ou_probe_rate(c, quartic_dec, 1.0, (1.0, 2.0, 3.0), [ones])
