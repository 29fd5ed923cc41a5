import ast
import dataclasses
import inspect
import math
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import anharmonic as ah
import anharmonic.cli
from anharmonic import (INF, FieldSample, Grid, InvalidSpecError, MixedNormParams,
                        NumericalError, ProbeSkipWarning, TruncationError,
                        WeightQuotientParams, algebra_ratio, algebra_ratios,
                        eigenfunction_probes, estimators, fit_decay_exponent,
                        gaussian_probe_fields, is_inf, modulation_norm, phasespace,
                        sigma_exponent, singular_weight_norm, smoothing_decay_run,
                        sobolev_modulation_equivalence, sobolev_norm,
                        standard_probe_family, weight_quotient_norm)
from oracles import (auto_n_pow_reference, dense_stft, mixed_norm_reference,
                     quotient_reference)

FLAT = 0.0  # the weight exponent of the flat weight


def at_one_time(params, t):
    """``params`` with the one-point t grid (t,)."""
    return dataclasses.replace(params, t_list=(t,))


class TestSigmaExponent:
    def test_closed_forms(self):
        # exact: 1, 3/8 and 1/8 are binary fractions
        assert sigma_exponent(1, 1, 1.0, 1.0, 1.0) == 1.0
        assert sigma_exponent(2, 1, 1.0, 2.0, 2.0) == 3.0 / 8.0
        assert sigma_exponent(1, 2, 2.0, 2.0, INF) == 1.0 / 8.0

    def test_inf_zeroes_both_terms(self):
        assert sigma_exponent(1, 1, 1.0, INF, INF) == 0.0

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan],
                             ids=["zero", "negative", "inf", "nan"])
    def test_beta_outside_the_positive_reals_raises(self, beta):
        """beta = 0 used to raise ZeroDivisionError, a negative beta gave a
        negative sigma, and inf or NaN a zero or NaN one."""
        with pytest.raises(ValueError, match="beta"):
            sigma_exponent(1, 1, beta, 1.0, 1.0)


class TestQuotientParams:
    def test_auto_power_choices(self):
        assert WeightQuotientParams(ah.OscillatorSpec(1, 1)).n_pow == 6
        assert WeightQuotientParams(ah.OscillatorSpec(2, 1),
                                    p_tilde=2.0, q_tilde=2.0).n_pow == 3
        assert WeightQuotientParams(ah.OscillatorSpec(1, 2), p_tilde=2.0, q_tilde=INF,
                                    beta=2.0).n_pow == 2
        # the smallest N with (2 beta N - s2) p_eff > d + 10: (14 - 2) > 11
        assert WeightQuotientParams(ah.OscillatorSpec(1, 1), s2=2.0).n_pow == 7

    def test_rejects_bad_settings(self):
        osc = ah.OscillatorSpec(1, 1)
        for s2 in (-1.0, math.inf, math.nan):
            with pytest.raises(InvalidSpecError, match="s2 must be a finite real >= 0"):
                WeightQuotientParams(osc, s2=s2)
        for beta in (0.0, math.nan):
            with pytest.raises(InvalidSpecError, match="beta must be a positive real"):
                WeightQuotientParams(osc, beta=beta)
        with pytest.raises(InvalidSpecError, match="no finite power N"):
            WeightQuotientParams(osc, p_tilde=5e-324, q_tilde=5e-324)
        with pytest.raises(InvalidSpecError):
            WeightQuotientParams(osc, form="midpoint")
        with pytest.raises(InvalidSpecError):
            WeightQuotientParams(osc, radius=-3.0)
        with pytest.raises(InvalidSpecError):
            WeightQuotientParams(osc, resolution=16)
        with pytest.raises(InvalidSpecError):
            WeightQuotientParams(osc, resolution=255)  # the fold pairs nodes about 0
        with pytest.raises(InvalidSpecError):
            WeightQuotientParams(osc, t_list=(0.001, 0.01, 0.1))
        with pytest.raises(InvalidSpecError):
            WeightQuotientParams(osc, t_list=(2.0, 0.5))

    def test_closed_form_power_matches_the_count(self):
        """N in closed form equals the count from 1 of the definition, on a
        lattice of exact boundary cases and on random draws."""
        rng = np.random.default_rng(19)
        lattice = [(b, s2, p) for b in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
                   for s2 in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
                   for p in (1.0 / 3.0, 0.5, 1.0, 1.5, 2.0, 4.0)]
        draws = [(rng.uniform(0.1, 4.0), rng.uniform(0.0, 10.0), rng.uniform(0.2, 10.0))
                 for _ in range(2000)]
        for beta, s2, p in lattice + draws:
            assert (estimators._auto_n_pow(beta, s2, p, INF)
                    == auto_n_pow_reference(beta, s2, p)), (beta, s2, p)

    def test_tiny_gaps_build_at_once(self):
        """N comes in closed form, however large: p~ = q~ = 1e-9 gives
        N = floor(11e9 / 2) + 1 with no loop over N."""
        start = time.perf_counter()
        params = WeightQuotientParams(ah.OscillatorSpec(1, 1), p_tilde=1e-9, q_tilde=1e-9)
        assert time.perf_counter() - start < 1.0
        assert params.n_pow == 5_500_000_001


class TestWeightQuotient:
    def test_time_domain(self):
        params = WeightQuotientParams(ah.OscillatorSpec(1, 1), resolution=64)
        with pytest.raises(InvalidSpecError):
            at_one_time(params, 0.0)
        with pytest.raises(InvalidSpecError):
            at_one_time(params, 1.5)

    def test_closed_form_fully_harmonic(self):
        """For k = l = beta = 1, p~ = q~ = 1 the scaled integrand is
        (1 + tau(|x| + |xi|))^(-12) with tau = sqrt(t), whose plane integral
        is 2 / (55 tau^2); the midpoint rule at this resolution sits within
        one percent of it."""
        t = 0.1
        params = WeightQuotientParams(ah.OscillatorSpec(1, 1), resolution=2048,
                                      t_list=(t,))
        [got] = weight_quotient_norm(params)
        closed = 2.0 / (55.0 * t)
        assert got == pytest.approx(closed, rel=2e-2)

    def test_exact_decade_scaling(self):
        # the quadrature box scales with t, so the power law is exact
        params = WeightQuotientParams(ah.OscillatorSpec(1, 1), resolution=512,
                                      t_list=(0.1, 0.01))
        sigma = sigma_exponent(1, 1, 1.0, 1.0, 1.0)
        at_tenth, at_hundredth = weight_quotient_norm(params)
        ratio = at_hundredth / at_tenth
        assert ratio == pytest.approx(10.0 ** sigma, rel=1e-10)

    def test_truncation_guard_raises_with_suggestion(self):
        params = WeightQuotientParams(ah.OscillatorSpec(1, 1), radius=0.5,
                                      resolution=256)
        with pytest.raises(TruncationError) as exc:
            weight_quotient_norm(at_one_time(params, 1.0))
        assert exc.value.suggested_radius == pytest.approx(2.0)

    def test_decay_run_recovers_sigma(self):
        params = WeightQuotientParams(ah.OscillatorSpec(1, 1), resolution=256)
        samples, fit = smoothing_decay_run(params)
        assert len(samples) == len(params.t_list)
        assert fit.target == pytest.approx(-1.0)
        assert abs(fit.slope - fit.target) / abs(fit.target) < 1e-3
        assert fit.r_squared > 0.9999

    def test_nan_guard_raises(self):
        """v^s2 and v^(2 beta N) overflow on the guard lattice, so inf / inf
        cells appear; a NaN guard must not pass as a checked value."""
        params = WeightQuotientParams(ah.OscillatorSpec(1, 1), s2=120, form="weighted",
                                      resolution=256)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError):
                weight_quotient_norm(at_one_time(params, 0.1))

    def test_underflowed_quotient_raises(self):
        """With p~ = 400 every cell of the integrand to the power 400
        underflows at resolution 256; a positive integrand must not read 0."""
        params = WeightQuotientParams(ah.OscillatorSpec(1, 1), p_tilde=400.0, resolution=256)
        with pytest.raises(NumericalError, match="underflowed to 0"):
            weight_quotient_norm(at_one_time(params, 0.1))

    @pytest.mark.parametrize("base,guard", [(1.0, np.inf), (np.inf, np.inf)])
    def test_overflowed_sum_fails_the_guard(self, monkeypatch, base, guard):
        """An overflowed (inf) sum makes the guard's movement inf or NaN;
        either fails the truncation guard."""
        params = WeightQuotientParams(ah.OscillatorSpec(1, 1), resolution=64)
        monkeypatch.setattr(
            estimators, "_quotient_values",
            lambda p, radius, resolution: [base if radius == p.radius else guard] * len(p.t_list))
        with pytest.raises(TruncationError):
            weight_quotient_norm(at_one_time(params, 0.1))


_FOLD_EXPONENTS = [(1.0, 1.0), (2.0, 2.0), (2.0, INF), (INF, 2.0), (INF, INF), (0.5, 0.5)]


class TestQuotientFold:
    """The quotient is reduced on one quadrant; these guard that reduction
    and the symmetry it relies on."""

    @pytest.mark.parametrize("resolution", [64, 128])
    @pytest.mark.parametrize("p_tilde,q_tilde", _FOLD_EXPONENTS,
                             ids=[f"{p}-{q}" for p, q in _FOLD_EXPONENTS])
    @pytest.mark.parametrize("k,l,beta", [(1, 1, 1.0), (2, 1, 1.0), (1, 2, 2.0)])
    @pytest.mark.parametrize("form,s2", [("scaled", 0.0), ("weighted", 0.0),
                                         ("weighted", 1.5)])
    def test_matches_full_lattice_reference(self, form, s2, k, l, beta, p_tilde, q_tilde,
                                            resolution):
        params = WeightQuotientParams(ah.OscillatorSpec(k, l), s2=s2,
                                      p_tilde=p_tilde, q_tilde=q_tilde, form=form,
                                      resolution=resolution, beta=beta)
        for t, radius in ((0.01, 30.0), (1.0, 3.0)):
            [got] = estimators._quotient_values(at_one_time(params, t), radius, resolution)
            ref = quotient_reference(params, t, radius, resolution)
            assert got == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("p_tilde,q_tilde", [(2.0, 2.0), (1.0, INF)],
                             ids=["2-2", "1-inf"])
    @pytest.mark.parametrize("k,l,beta", [(1, 1, 1.0), (2, 1, 1.0), (1, 2, 2.0), (3, 2, 1.5)])
    @pytest.mark.parametrize("form", ["scaled", "weighted"])
    def test_every_run_value_matches_the_reference(self, form, k, l, beta, p_tilde, q_tilde):
        """A run reduces the scaled lattice once for its whole t grid and the
        weighted one per t; each value must still be the quotient at its
        own t, by full-lattice quadrature on that t's box."""
        rng = np.random.default_rng(100 * k + l)
        t_list = tuple(sorted(10.0 ** rng.uniform(-4.0, 0.0, 5), reverse=True))
        params = WeightQuotientParams(ah.OscillatorSpec(k, l), p_tilde=p_tilde,
                                      q_tilde=q_tilde, form=form, resolution=256,
                                      t_list=t_list, beta=beta)
        values = weight_quotient_norm(params)
        assert len(values) == len(t_list)
        for t, got in zip(t_list, values):
            ref = quotient_reference(params, t, params.radius, params.resolution)
            assert got == pytest.approx(ref, rel=1e-12), t

    @pytest.mark.parametrize("form", ["scaled", "weighted"])
    def test_scaled_run_reduces_each_lattice_once(self, form, monkeypatch):
        """The scaled lattice is t-free: a decay run reduces it once for the
        base and once for the guard, however many times it samples. The
        weighted form reduces both per t."""
        params = WeightQuotientParams(ah.OscillatorSpec(1, 1), form=form, resolution=128)
        reduce, calls = estimators._weighted_columns, []

        def counted(*args):
            calls.append(args)
            return reduce(*args)

        monkeypatch.setattr(estimators, "_weighted_columns", counted)
        samples, _ = smoothing_decay_run(params)
        assert len(samples) == len(params.t_list) == 6
        assert len(calls) == (2 if form == "scaled" else 2 * len(params.t_list))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_one_dimensional_potential_is_even(self, k):
        x = np.concatenate([np.random.default_rng(k).uniform(-50.0, 50.0, 500),
                            np.linspace(-3.0, 3.0, 301)])
        osc = ah.OscillatorSpec(k, 1)
        assert np.array_equal(ah.evaluate_potential(osc, -x), ah.evaluate_potential(osc, x))

    @pytest.mark.parametrize("form", ["scaled", "weighted"])
    def test_guard_lattice_is_never_built(self, form):
        """At resolution 2048 the guard lattice is 4096^2 (128 MiB of
        float64); the streamed reduction holds a few row blocks."""
        params = WeightQuotientParams(ah.OscillatorSpec(1, 1), form=form,
                                      resolution=2048)
        tracemalloc.start()
        try:
            weight_quotient_norm(at_one_time(params, 0.1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


class TestDecayFit:
    def test_exact_power_law(self):
        ts = np.logspace(-3, -1, 8)
        samples = [(t, 3.0 * t ** -0.7) for t in ts]
        fit = fit_decay_exponent(samples, target=-0.7)
        assert fit.slope == pytest.approx(-0.7, rel=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert abs(fit.slope - fit.target) / abs(fit.target) == pytest.approx(0.0, abs=1e-12)
        assert [x for x, _ in fit.samples] == np.log(ts).tolist()

    def test_no_target_leaves_deviation_unset(self):
        samples = [(t, t ** -1.0) for t in np.logspace(-3, -1, 6)]
        fit = fit_decay_exponent(samples)
        assert fit.target is None

    def test_input_validation(self):
        good_ts = np.logspace(-3, -1, 6)
        with pytest.raises(ValueError):
            fit_decay_exponent([(t, t) for t in good_ts[:5]])
        with pytest.raises(ValueError):
            fit_decay_exponent([(t, -t) for t in good_ts])
        narrow = np.logspace(-1.5, -1, 6)
        with pytest.raises(ValueError):
            fit_decay_exponent([(t, t) for t in narrow])
        # one distinct x determines no slope
        with pytest.raises(ValueError):
            estimators._loglinear_fit([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestLogLinearFit:
    def test_exact_exponential_is_recovered(self):
        x = [0.5, 1.0, 2.0, 4.0]
        fit = estimators._loglinear_fit(x, [2.0 * math.exp(-1.5 * t) for t in x], -1.5)
        assert fit.slope == pytest.approx(-1.5, rel=1e-12)
        assert fit.intercept == pytest.approx(math.log(2.0), rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert abs(fit.slope - fit.target) / abs(fit.target) == pytest.approx(0.0, abs=1e-12)
        assert [t for t, _ in fit.samples] == x

    def test_two_distinct_x_suffice(self):
        """Repeats are allowed once two distinct x determine the slope: the
        fit goes through the mean log-value at each x."""
        fit = estimators._loglinear_fit([0.0, 0.0, 1.0, 1.0],
                                        [1.0, math.e ** 2, math.e, math.e ** 3])
        assert fit.slope == pytest.approx(1.0, rel=1e-12)
        assert fit.intercept == pytest.approx(1.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(0.2, rel=1e-12)

    def test_constant_values_have_unit_r_squared(self):
        fit = estimators._loglinear_fit([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_zero_target_leaves_deviation_unset(self):
        fit = estimators._loglinear_fit([1.0, 2.0, 3.0], [1.0, 2.0, 4.0], 0.0)
        assert fit.target == 0.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")],
                             ids=["zero", "negative", "nan", "inf"])
    def test_bad_value_raises_numerical(self, bad):
        """An underflowed, signed or non-finite measurement must not reach
        the log as -inf or nan."""
        with pytest.raises(NumericalError):
            estimators._loglinear_fit([1.0, 2.0, 3.0], [1.0, bad, 0.5])


class TestProbeCorpora:
    def test_family_sizes(self, small_dec):
        assert len(standard_probe_family(small_dec)) == 50
        assert len(standard_probe_family(small_dec, 11)) == 50

    def test_gaussian_probes_are_seeded_and_unit(self, small_dec):
        grid = small_dec.grid
        a = gaussian_probe_fields(grid, 5, seed=7)
        b = gaussian_probe_fields(grid, 5, seed=7)
        c = gaussian_probe_fields(grid, 5, seed=8)
        for f, g in zip(a, b):
            np.testing.assert_array_equal(f.values, g.values)
        assert any(not np.array_equal(f.values, g.values) for f, g in zip(a, c))
        for f in a:
            assert f.norm_l2() == pytest.approx(1.0, rel=1e-12)

    def test_eigenfunction_probes_clamped(self, small_dec):
        probes = eigenfunction_probes(small_dec, count=10 ** 6)
        assert len(probes) == small_dec.m


class TestAlgebraRatio:
    def test_scale_invariant(self, hermite_grid, hermite_osc, gaussian_field):
        g = FieldSample(hermite_grid, np.roll(gaussian_field.values, 40))
        params = MixedNormParams(1.0, 1.0)
        base = algebra_ratio(gaussian_field, g, params, 1.0, hermite_osc)
        scaled = algebra_ratio(FieldSample(hermite_grid, 7.0 * gaussian_field.values), g,
                               params, 1.0, hermite_osc)
        assert base > 0
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_zero_factor_gives_nan_and_warns(self, hermite_grid, gaussian_field):
        zero = FieldSample(hermite_grid, np.zeros(hermite_grid.points_per_axis))
        with pytest.warns(ProbeSkipWarning):
            out = algebra_ratio(gaussian_field, zero, MixedNormParams(1.0, 1.0), FLAT)
        assert math.isnan(out)


class TestSingularWeight:
    def test_validation(self, hermite_grid):
        params = MixedNormParams(2.0, 2.0)
        with pytest.raises(ValueError):
            singular_weight_norm(-0.3, params, FLAT, 4.0, grid=hermite_grid)
        with pytest.raises(ValueError):
            singular_weight_norm(0.3, params, -1.0, 4.0, grid=hermite_grid)
        with pytest.raises(ValueError):
            singular_weight_norm(0.3, params, FLAT, 100.0, grid=hermite_grid)

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan],
                             ids=["inf", "-inf", "nan"])
    def test_alpha_outside_the_positive_reals_raises(self, hermite_grid, alpha):
        """alpha = inf or NaN used to run a whole pass, warn from numpy and
        raise NumericalError on the non-finite weighted values."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="alpha"):
                singular_weight_norm(alpha, MixedNormParams(2.0, 2.0), FLAT, 4.0,
                                     grid=hermite_grid)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf],
                             ids=["zero", "negative", "nan", "inf"])
    def test_radius_outside_the_box_raises(self, hermite_grid, radius):
        """A truncation radius must be a real in (0, half_width]: radius 0,
        -1 and NaN used to return value 0.0 and x_growth inf."""
        with pytest.raises(ValueError, match="truncation radius"):
            singular_weight_norm(0.3, MixedNormParams(2.0, 2.0), FLAT, radius,
                                 grid=hermite_grid)

    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (3.0, 1.5), (INF, 2.0)],
                             ids=["p2-q2", "p3-q1.5", "pinf-q2"])
    def test_values_are_the_modulation_norms(self, hermite_osc, p, q):
        """Both values are ``modulation_norm`` of the truncated field bit for
        bit: the full value comes from the same measurement, squared moduli
        at an even p and row pruning at p = q = 2 included."""
        grid = Grid(256, 8.0)
        params = MixedNormParams(p, q)
        res = singular_weight_norm(0.5, params, 0.5, 6.0, grid=grid, osc=hermite_osc)
        r = np.abs(grid.nodes())
        for radius, value in ((6.0, res.value), (3.0, res.value_half)):
            f = FieldSample(grid, np.where(r <= radius, r ** -0.5, 0.0))
            assert value == modulation_norm(f, 0.5, hermite_osc, params)

    def test_admissible_case_is_radius_stable(self, hermite_grid):
        # inner exponent 3 makes the x tail |x|^(-3/2) summable, so doubling
        # the truncation radius barely moves the norm
        res = singular_weight_norm(0.5, MixedNormParams(3.0, 3.0), FLAT, 6.0,
                                   grid=hermite_grid)
        assert res.value > 0 and res.value_half > 0
        assert res.x_growth < 0.05
        # the tail accumulator fills in slowly but stays under the
        # divergence marker used for inadmissible exponents
        assert res.xi_tail_growth < 0.25

    @pytest.mark.parametrize("p,q", [(3.0, 3.0), (3.0, 1.5), (2.0, INF), (INF, 2.0)],
                             ids=["p3-q3", "p3-q1.5", "p2-qinf", "pinf-q2"])
    def test_matches_direct_loop_reference(self, p, q):
        """Value, half-radius value and both xi-tail accumulators against the
        direct-loop mixed norm of the dense transform, weight built here. The
        256-point lattice streams as two blocks."""
        grid = Grid(256, 8.0)
        x = grid.nodes()
        xi = grid.frequency_nodes()
        # the harmonic weight, (1 + |x| + 2 pi |xi|)^s in angular frequency
        weight = (1.0 + np.abs(x)[:, None] + 2.0 * np.pi * np.abs(xi)[None, :]) ** 0.5
        cells = (grid.h, grid.frequency_cell)
        p_ref, q_ref = ("inf" if is_inf(e) else e for e in (p, q))

        def reference(radius, columns=slice(None)):
            vals = np.where(np.abs(x) <= radius, np.abs(x) ** -0.5, 0.0)
            ps = dense_stft(FieldSample(grid, vals))
            return mixed_norm_reference(ps[:, columns], weight[:, columns],
                                        p_ref, q_ref, *cells)

        res = singular_weight_norm(0.5, MixedNormParams(p, q), 0.5, 6.0, grid=grid,
                                   osc=ah.hermite_oscillator())
        assert res.value == pytest.approx(reference(6.0), rel=1e-10)
        assert res.value_half == pytest.approx(reference(3.0), rel=1e-10)
        for xi_max, acc in res.xi_tail:
            band = (np.abs(xi) > 1.0) & (np.abs(xi) <= xi_max)
            expected = reference(6.0, band) ** (1.0 if is_inf(q) else q)
            assert acc == pytest.approx(expected, rel=1e-10)
        assert [xi_max for xi_max, _ in res.xi_tail] == [2.5, 5.0]

    def test_inadmissible_outer_exponent_grows_in_frequency(self, hermite_grid):
        # a strong singularity measured with a tiny outer exponent keeps
        # accumulating tail mass when the frequency window doubles
        res = singular_weight_norm(0.9, MixedNormParams(2.0, 0.25), FLAT, 6.0,
                                   grid=hermite_grid)
        assert res.xi_tail_growth > 0.25


class TestEquivalenceBand:
    def test_zero_order_band_collapses_to_parseval(self, hermite_dec):
        probes = eigenfunction_probes(hermite_dec, 4)
        [band] = sobolev_modulation_equivalence(hermite_dec, [0.0], probes)
        assert band.count == 4
        assert band.spread == pytest.approx(1.0, rel=1e-9)
        assert band.min_ratio == pytest.approx(1.0, rel=1e-9)

    def test_positive_order_band_is_finite(self, hermite_dec):
        probes = (gaussian_probe_fields(hermite_dec.grid, 4)
                  + eigenfunction_probes(hermite_dec, 4))
        [band] = sobolev_modulation_equivalence(hermite_dec, [1.0], probes)
        assert 0 < band.min_ratio <= band.max_ratio
        assert band.spread < 20.0

    def test_all_probes_skipped_raises(self, hermite_dec):
        zero = FieldSample(hermite_dec.grid, np.zeros(hermite_dec.grid.points_per_axis))
        with pytest.warns(ProbeSkipWarning), pytest.raises(ValueError):
            sobolev_modulation_equivalence(hermite_dec, [0.0], [zero])
        with pytest.warns(ProbeSkipWarning), pytest.raises(ValueError):
            sobolev_modulation_equivalence(hermite_dec, (0.0, 1.0, 2.0), [zero, zero])

    def test_no_weight_exponent_gives_no_band(self, hermite_dec):
        probes = eigenfunction_probes(hermite_dec, 2)
        assert sobolev_modulation_equivalence(hermite_dec, [], probes) == []


class TestCorpusBookkeeping:
    """The norms runner's corpora take one STFT pass per distinct field: the
    algebra corpus norms each factor once and each product once, and the
    equivalence bands for every s share one pass per projected probe."""

    GRID = Grid(128, 10.0)
    L2 = MixedNormParams(2.0, 2.0)

    @staticmethod
    def count_passes(monkeypatch):
        calls = []
        original = phasespace._modulation_columns

        def counted(f, *args):
            calls.append(f)
            return original(f, *args)

        monkeypatch.setattr(phasespace, "_modulation_columns", counted)
        return calls

    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (INF, 1.0)], ids=["p2-q2", "pinf-q1"])
    def test_ratios_are_the_direct_quotients(self, p, q, hermite_osc):
        fields = gaussian_probe_fields(self.GRID, 6, 7)
        pairs = [(0, 0), (0, 3), (2, 5), (5, 2), (4, 4)]
        params = MixedNormParams(p, q)

        def norm(values):
            return modulation_norm(FieldSample(self.GRID, values), 2.0, hermite_osc, params)

        expected = [norm(fields[i].values * fields[j].values)
                    / (norm(fields[i].values) * norm(fields[j].values)) for i, j in pairs]
        assert algebra_ratios(fields, pairs, params, 2.0, hermite_osc) == expected

    def test_shipped_corpus_takes_one_pass_per_field(self, monkeypatch, hermite_osc):
        fields = gaussian_probe_fields(self.GRID, 15, 1235)
        pairs = [(i, j) for i in range(15) for j in range(i, 15)][:100]
        calls = self.count_passes(monkeypatch)
        ratios = algebra_ratios(fields, pairs, self.L2, 2.0, hermite_osc)
        assert len(calls) == 15 + 100
        assert len(ratios) == 100 and all(np.isfinite(ratios))

    def test_zero_factor_skips_each_pair(self, monkeypatch):
        f, g = gaussian_probe_fields(self.GRID, 2, 7)
        zero = FieldSample(self.GRID, np.zeros(self.GRID.points_per_axis))
        pairs = [(0, 1), (1, 1), (0, 2), (2, 1)]
        calls = self.count_passes(monkeypatch)
        with pytest.warns(ProbeSkipWarning) as record:
            ratios = algebra_ratios([f, zero, g], pairs, self.L2, FLAT)
        assert len(record) == 3
        assert [math.isnan(r) for r in ratios] == [True, True, False, True]
        assert np.isfinite(ratios[2]) and ratios[2] > 0
        assert len(calls) == 3 + 1  # the skipped products are not normed

    @pytest.mark.filterwarnings("ignore")  # boundary and off-span notes of the probes
    def test_bands_are_the_direct_ratios(self, monkeypatch, small_dec):
        probes = standard_probe_family(small_dec, 11)
        s_values = (0.0, 1.0, 2.0)
        calls = self.count_passes(monkeypatch)
        bands = sobolev_modulation_equivalence(small_dec, s_values, probes)
        assert len(calls) == len(probes) == 50
        spans = [small_dec.reconstruct(small_dec.coefficients(f)) for f in probes]
        for s, band in zip(s_values, bands):
            ratios = [sobolev_norm(small_dec, s, f)
                      / modulation_norm(f, s, small_dec.oscillator, self.L2)
                      for f in spans]
            assert band == ah.EquivalenceBand(min(ratios), max(ratios), 50)
        assert len(bands) == 3

    @pytest.mark.filterwarnings("ignore")  # boundary and off-span notes of the probes
    def test_each_span_is_projected_once(self, monkeypatch, small_dec):
        """One coefficient matvec per probe for its projection and one per
        span that serves all three s: 2P, where a matvec per (s, span) is 4P."""
        probes = standard_probe_family(small_dec, 11)
        calls = []
        original = ah.SpectralDecomposition.coefficients

        def counted(dec, f):
            calls.append(f)
            return original(dec, f)

        monkeypatch.setattr(ah.SpectralDecomposition, "coefficients", counted)
        sobolev_modulation_equivalence(small_dec, (0.0, 1.0, 2.0), probes)
        assert len(calls) == 2 * len(probes) == 100


class TestPublicSurface:
    # exported functions that no run reaches, each with its reason
    UNREACHED = {
        "algebra_ratio": "perfbench/spans.py traces it by name",
    }

    @staticmethod
    def called_names(obj):
        tree = ast.parse(inspect.getsource(obj))
        return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                for node in ast.walk(tree) if isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Name, ast.Attribute))}

    # route -> (call on a nonzero field f and the zero field of a
    # decomposition, the number of probes or pairs it skips)
    PROBE_SKIP_ROUTES = {
        "algebra_ratios": (lambda dec, f, zero: algebra_ratios(
            [f, zero], [(0, 1), (1, 1)], MixedNormParams(2.0, 2.0), FLAT), 2),
        "algebra_ratio": (lambda dec, f, zero: algebra_ratio(
            f, zero, MixedNormParams(2.0, 2.0), FLAT), 1),
        "sobolev_modulation_equivalence": (lambda dec, f, zero: sobolev_modulation_equivalence(
            dec, [FLAT, 1.0], [f, zero]), 2),
        "ou_probe_rate": (lambda dec, f, zero: ah.ou_probe_rate(
            ah.GaussianConjugation(), dec, 1.0, (1.0, 2.0, 3.0), [zero, f]), 1),
    }

    @pytest.mark.parametrize("route", list(PROBE_SKIP_ROUTES))
    def test_probe_skip_warns_at_caller(self, small_dec, route):
        """Every public route to a probe skip warns once per skipped probe or
        pair, at its caller's line."""
        call, skipped = self.PROBE_SKIP_ROUTES[route]
        [f] = gaussian_probe_fields(small_dec.grid, 1, 7)
        zero = FieldSample(small_dec.grid, np.zeros(small_dec.grid.points_per_axis))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(small_dec, f, zero)
        records = [w for w in caught if w.category is ProbeSkipWarning]
        assert len(records) == skipped
        assert all(w.filename == __file__ for w in records)

    def test_only_errors_warns(self):
        """Every warning goes through ``errors._warn``: no other module of the
        package calls ``warnings.warn`` or passes a ``stacklevel``."""
        package = Path(anharmonic.__file__).parent
        found = []
        for path in sorted(package.glob("*.py")):
            if path.name == "errors.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Attribute) and node.attr == "warn"
                        and isinstance(node.value, ast.Name) and node.value.id == "warnings"):
                    found.append(f"{path.name}:{node.lineno} warnings.warn")
                if isinstance(node, ast.ImportFrom) and node.module == "warnings" and any(
                        alias.name == "warn" for alias in node.names):
                    found.append(f"{path.name}:{node.lineno} from warnings import warn")
                if isinstance(node, ast.keyword) and node.arg == "stacklevel":
                    found.append(f"{path.name}:{node.value.lineno} stacklevel")
        assert found == []

    def test_no_module_imports_an_unused_name(self):
        """Every name a module of the package imports is used in it, save in
        ``__init__``, whose imports are its exports: a deletion leaves no
        import behind."""
        package = Path(anharmonic.__file__).parent
        unused = []
        for path in sorted(package.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update((alias.asname or alias.name.split(".")[0], node.lineno)
                                    for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    imported.update((alias.asname or alias.name, node.lineno)
                                    for alias in node.names)
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                       if name not in used]
        assert unused == []

    def test_every_exported_function_serves_a_run(self):
        """Each function in anharmonic.__all__, from every module, is called by
        the runner module or by another exported function or class."""
        exported = {name: getattr(ah, name) for name in ah.__all__}
        functions = [name for name, obj in exported.items() if inspect.isfunction(obj)]
        assert set(self.UNREACHED) <= set(functions)
        calls = {name: self.called_names(obj) for name, obj in exported.items()
                 if inspect.isfunction(obj) or inspect.isclass(obj)}
        runner = self.called_names(anharmonic.cli)
        unreached = [name for name in functions if name not in runner
                     and not any(name in called for other, called in calls.items()
                                 if other != name)]
        assert sorted(unreached) == sorted(self.UNREACHED), \
            f"exported but reached by no run: {sorted(set(unreached) - set(self.UNREACHED))}"
