import math
import warnings

import numpy as np
import pytest

import anharmonic as ah
from anharmonic import (DiscardedMassWarning, FieldSample, GaussianConjugation,
                        Grid, InvalidSpecError, MixedNormParams, NumericalError,
                        ProbeSkipWarning,
                        apply_conjugation, conjugation_discarded_mass,
                        gaussian_half_density, gaussian_probe_fields,
                        modulation_norm, ou_probe_rate, ou_semigroup, stft)
from oracles import mixed_norm_reference

FLAT = 0.0  # the weight exponent of the flat weight
L2 = MixedNormParams(2.0, 2.0)


class TestConjugationSpec:
    def test_validation(self):
        with pytest.raises(InvalidSpecError):
            GaussianConjugation(safe_radius=0.0)
        with pytest.raises(InvalidSpecError):
            GaussianConjugation(safe_radius=math.inf)

    def test_density_formula(self, hermite_grid):
        """pi^(-d/2) e^(-|x|^2) at d = 1."""
        c = GaussianConjugation()
        x = hermite_grid.nodes()
        np.testing.assert_allclose(c.density(hermite_grid),
                                   np.pi ** -0.5 * np.exp(-x ** 2), rtol=1e-14)

    def test_half_density_is_density_square_root(self, hermite_grid):
        c = GaussianConjugation()
        np.testing.assert_allclose(gaussian_half_density(hermite_grid),
                                   np.sqrt(c.density(hermite_grid)), rtol=1e-12)

    def test_half_density_is_harmonic_ground_state(self, hermite_dec, hermite_grid):
        phi0 = hermite_dec.eigenfunction(0).values.real
        analytic = gaussian_half_density(hermite_grid)
        if phi0[hermite_grid.points_per_axis // 2] < 0:
            phi0 = -phi0
        assert np.max(np.abs(phi0 - analytic)) < 1e-8


class TestApplyConjugation:
    def test_roundtrip_inside_safe_radius(self, hermite_grid, gaussian_field):
        c = GaussianConjugation()
        back = apply_conjugation(c, "inverse",
                                 apply_conjugation(c, "forward", gaussian_field))
        x = np.abs(hermite_grid.nodes())
        inside = x <= c.safe_radius
        # multiply-then-divide costs a rounding step; deep-tail products may
        # also underflow outright
        np.testing.assert_allclose(back.values[inside],
                                   gaussian_field.values[inside],
                                   rtol=1e-12, atol=1e-200)
        assert np.all(back.values[~inside] == 0)

    def test_forward_is_pointwise_multiplication(self, hermite_grid, gaussian_field):
        c = GaussianConjugation()
        out = apply_conjugation(c, "forward", gaussian_field)
        np.testing.assert_array_equal(
            out.values, gaussian_field.values * gaussian_half_density(hermite_grid))

    def test_inverse_warns_on_discarded_mass(self, hermite_grid, gaussian_field):
        c = GaussianConjugation(safe_radius=2.0)
        with pytest.warns(DiscardedMassWarning):
            apply_conjugation(c, "inverse", gaussian_field)

    # route -> (call on a field f with mass beyond |x| = 2 under the
    # conjugation c, the number of inverse multiplications that discard mass)
    DISCARD_ROUTES = {
        "apply_conjugation": (lambda c, dec, f: apply_conjugation(c, "inverse", f), 1),
        "ou_semigroup": (lambda c, dec, f: ou_semigroup(c, dec, 1.0, 0.1, f), 1),
        # one inverse per time of the fit
        "ou_probe_rate": (lambda c, dec, f: ou_probe_rate(c, dec, 1.0, (1.0, 2.0, 3.0), [f]), 3),
    }

    @pytest.mark.parametrize("route", list(DISCARD_ROUTES))
    def test_discarded_mass_warns_at_caller(self, small_dec, route):
        """Every public route to the inverse multiplier warns once per inverse
        that discards mass, at its caller's line."""
        call, inverses = self.DISCARD_ROUTES[route]
        x = small_dec.grid.nodes()
        f = FieldSample(small_dec.grid, np.exp(-x ** 2 / 8.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(GaussianConjugation(safe_radius=2.0), small_dec, f)
        records = [w for w in caught if w.category is DiscardedMassWarning]
        assert len(records) == inverses
        assert all(w.filename == __file__ for w in records)

    def test_direction_validation(self, hermite_grid, gaussian_field):
        with pytest.raises(ValueError):
            apply_conjugation(GaussianConjugation(), "sideways", gaussian_field)

    def test_discarded_mass_accounting(self, hermite_grid, gaussian_field):
        zero = FieldSample(hermite_grid, np.zeros(hermite_grid.points_per_axis))
        assert conjugation_discarded_mass(GaussianConjugation(), zero) == 0.0
        tight = GaussianConjugation(safe_radius=0.25)
        frac = conjugation_discarded_mass(tight, gaussian_field)
        assert 0.5 < frac <= 1.0


class TestOuSemigroup:
    def test_rejects_non_harmonic_decomposition(self, quartic_dec, gaussian_field):
        with pytest.raises(InvalidSpecError):
            ou_semigroup(GaussianConjugation(), quartic_dec, 1.0, 0.5, gaussian_field)

    def test_field_on_another_grid_fails(self, hermite_dec):
        grid = Grid(64, 4.0)
        field = FieldSample(grid, np.ones(grid.points_per_axis))
        with pytest.raises(ValueError, match="field grid does not match"):
            ou_semigroup(GaussianConjugation(), hermite_dec, 1.0, 0.5, field)

    def test_constant_field_decay_rate(self, hermite_dec, hermite_grid):
        """M maps constants onto the harmonic ground state, so the OU flow
        scales them by exp(-t lambda_0^beta) with lambda_0 = d = 1."""
        c = GaussianConjugation()
        ones = FieldSample(hermite_grid, np.ones(hermite_grid.points_per_axis))
        x = np.abs(hermite_grid.nodes())
        for t in (0.1, 0.5, 1.0):
            out = ou_semigroup(c, hermite_dec, 1.0, t, ones)
            err = np.max(np.abs(out.values[x <= 6.0] - math.exp(-t)))
            assert err < 1e-6


class TestGaussianNorm:
    """The Gaussian norm is the modulation norm of the multiplied field."""

    def test_multiplied_field_meets_closed_form(self, hermite_grid, gaussian_field,
                                                damped_gaussian_abs):
        c = GaussianConjugation()
        multiplied = apply_conjugation(c, "forward", gaussian_field)
        # the streamed norm and the full-lattice route are different code:
        # both meet the closed form
        expected = mixed_norm_reference(damped_gaussian_abs, 1.0, 2.0, 2.0,
                                        hermite_grid.h,
                                        hermite_grid.frequency_cell)
        streamed = modulation_norm(multiplied, FLAT, None, L2)
        assert streamed == pytest.approx(expected, rel=1e-10)
        full = ah.mixed_norm(stft(multiplied), FLAT, None, L2)
        assert full == pytest.approx(expected, rel=1e-10)

    def test_weighted_variant_accepts_oscillator(self, hermite_dec, hermite_grid,
                                                 gaussian_field, damped_gaussian_abs):
        c = GaussianConjugation()
        multiplied = apply_conjugation(c, "forward", gaussian_field)
        got = modulation_norm(multiplied, 1.0, hermite_dec.oscillator, L2)
        # 1 + V^(1/2) + |omega| with V = x^2 and omega = 2 pi xi
        x = hermite_grid.nodes()
        xi = hermite_grid.frequency_nodes()
        weight = 1.0 + np.abs(x)[:, None] + 2.0 * np.pi * np.abs(xi)[None, :]
        expected = mixed_norm_reference(damped_gaussian_abs, weight, 2.0, 2.0,
                                        hermite_grid.h,
                                        hermite_grid.frequency_cell)
        assert got == pytest.approx(expected, rel=1e-10)


    def test_l2_norm_is_l2_gamma_norm_of_probe(self, hermite_grid):
        """For p = q = 2 and the flat weight, the lattice Moyal identity makes
        the norm of gamma^(1/2) f the L^2(gamma) norm of f, here summed
        directly on the nodes for a modulated off-centre probe."""
        c = GaussianConjugation()
        x = hermite_grid.nodes()
        f = FieldSample(hermite_grid, (1.0 + x ** 2) * np.exp(-0.25 * (x - 1.0) ** 2)
                        * np.exp(2j * np.pi * 0.6 * x))
        got = modulation_norm(apply_conjugation(c, "forward", f), FLAT, None, L2)
        gamma = np.exp(-x ** 2) / math.sqrt(math.pi)
        expected = math.sqrt(hermite_grid.h * np.sum(gamma * np.abs(f.values) ** 2))
        assert got == pytest.approx(expected, rel=1e-9)


class TestOuProbeRate:
    def test_constant_probe_fit_is_exact(self, hermite_dec, hermite_grid):
        c = GaussianConjugation()
        ones = FieldSample(hermite_grid, np.ones(hermite_grid.points_per_axis))
        res = ou_probe_rate(c, hermite_dec, 1.0, (1.0, 2.0, 3.0), [ones])
        assert res.target == -1.0
        assert res.slope == pytest.approx(-1.0, rel=1e-9)
        assert abs(res.slope - res.target) / abs(res.target) < 1e-9
        assert res.r_squared == pytest.approx(1.0, abs=1e-12)
        assert len(res.samples) == 3
        assert res.samples[0][0] == 1.0 and res.samples[0][1] > 0

    def test_hermite_polynomial_samples_match_closed_form(self):
        """OU_t H_n = e^(-(2n+1) t) H_n for the physicists' Hermite
        polynomials, which are orthogonal in L^2(gamma) with
        ||H_n||^2 = 2^n n!. So f = sum a_n H_n has the sample ratio
        sqrt(sum a_n^2 2^n n! e^(-2(2n+1)t) / sum a_n^2 2^n n!). A norm
        without the Gaussian multiplier misses it by orders of magnitude."""
        grid = Grid(256, 10.0)
        dec = ah.decompose(ah.hermite_oscillator(), grid, 128)
        a = np.array([1.0, 0.5, 0.25])
        f = FieldSample(grid, np.polynomial.hermite.hermval(grid.nodes(), a))
        ts = (1.0, 2.0, 3.0)
        res = ou_probe_rate(GaussianConjugation(), dec, 1.0, ts, [f])
        n = np.arange(a.size)
        mass = a ** 2 * 2.0 ** n * np.array([math.factorial(j) for j in n])
        for (t, got), t_in in zip(res.samples, ts):
            expected = math.sqrt(np.sum(mass * np.exp(-2.0 * (2 * n + 1) * t_in))
                                 / np.sum(mass))
            assert t == t_in
            assert got == pytest.approx(expected, rel=1e-10)

    def test_gaussian_corpus_recovers_rate(self, hermite_dec, hermite_grid):
        c = GaussianConjugation()
        probes = gaussian_probe_fields(hermite_grid, 5, seed=11)
        res = ou_probe_rate(c, hermite_dec, 1.0, (1.0, 2.0, 3.0, 4.0), probes)
        assert abs(res.slope - res.target) / abs(res.target) < 0.05
        assert res.r_squared > 0.99

    def test_zero_probe_skipped_with_warning(self, hermite_dec, hermite_grid):
        """The skip rule of every probe corpus: a zero-norm probe warns and
        drops out; a corpus of zero probes raises."""
        c = GaussianConjugation()
        zero = FieldSample(hermite_grid, np.zeros(hermite_grid.points_per_axis))
        ones = FieldSample(hermite_grid, np.ones(hermite_grid.points_per_axis))
        with pytest.warns(ProbeSkipWarning):
            res = ou_probe_rate(c, hermite_dec, 1.0, (1.0, 2.0, 3.0), [zero, ones])
        assert res.slope == pytest.approx(-1.0, rel=1e-9)
        with pytest.warns(ProbeSkipWarning), pytest.raises(ValueError):
            ou_probe_rate(c, hermite_dec, 1.0, (1.0, 2.0, 3.0), [zero])

    def test_needs_three_distinct_times(self, hermite_dec, hermite_grid):
        """Repeated times count once: two times, or three entries with fewer
        than three distinct, raise; a repeat beside three distinct times is
        fitted."""
        c = GaussianConjugation()
        ones = FieldSample(hermite_grid, np.ones(hermite_grid.points_per_axis))
        for t_list in ((1.0, 2.0), (1.0, 1.0, 1.0), (1.0, 1.0, 2.0), (2.0, 2.0, 2.0)):
            with pytest.raises(ValueError, match="3 distinct"):
                ou_probe_rate(c, hermite_dec, 1.0, t_list, [ones])
        res = ou_probe_rate(c, hermite_dec, 1.0, (1.0, 2.0, 2.0, 3.0), [ones])
        assert res.slope == pytest.approx(-1.0, rel=1e-9)
        assert [t for t, _ in res.samples] == [1.0, 2.0, 2.0, 3.0]

    def test_underflowed_bound_raises_numerical(self, hermite_dec, hermite_grid):
        """At t = 800 the constant probe's bound e^(-800) underflows to 0; its
        log must not reach the fit as -inf."""
        c = GaussianConjugation()
        ones = FieldSample(hermite_grid, np.ones(hermite_grid.points_per_axis))
        with pytest.raises(NumericalError):
            ou_probe_rate(c, hermite_dec, 1.0, (1.0, 2.0, 800.0), [ones])

    def test_rejects_non_harmonic(self, quartic_dec, hermite_grid):
        c = GaussianConjugation()
        ones = FieldSample(quartic_dec.grid, np.ones(quartic_dec.grid.points_per_axis))
        with pytest.raises(InvalidSpecError):
            ou_probe_rate(c, quartic_dec, 1.0, (1.0, 2.0, 3.0), [ones])
