"""One rule per kind of input: every count and real the library takes goes
through ``model._count`` or ``model._real`` (InvalidSpecError naming the
argument in ``field``), and a ``FieldSample`` is finite by construction
(NumericalError)."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import anharmonic as ah
from anharmonic import InvalidSpecError, NumericalError

L2 = ah.MixedNormParams(2.0, 2.0)


@pytest.fixture(scope="module")
def ctx(small_dec):
    """The objects every call below needs, on the 128-point, 48-mode
    harmonic decomposition."""
    dec = small_dec
    u0 = ah.FieldSample(dec.grid, 0.05 * dec.eigenfunction(0).values)
    return SimpleNamespace(dec=dec, grid=dec.grid, osc=dec.oscillator, f=u0,
                           spec=ah.NonlinearProblemSpec(dec, u0),
                           conj=ah.GaussianConjugation(),
                           probes=[dec.eigenfunction(j) for j in range(3)])


def problem(c, **changes):
    return ah.NonlinearProblemSpec(c.dec, c.f, **changes)


# name -> (the call, given the context and a bad value, the field it names)
ARGUMENTS = {
    "OscillatorSpec.k": (lambda c, v: ah.OscillatorSpec(v, 1), "k"),
    "OscillatorSpec.l": (lambda c, v: ah.OscillatorSpec(1, v), "l"),
    "Grid.points_per_axis": (lambda c, v: ah.Grid(v, 8.0), "points_per_axis"),
    "Grid.half_width": (lambda c, v: ah.Grid(64, v), "half_width"),
    "decompose.m": (lambda c, v: ah.decompose(c.osc, ah.Grid(64, 8.0), v), "m"),
    "eigenfunction.j": (lambda c, v: c.dec.eigenfunction(v), "j"),
    "weight_value.s": (lambda c, v: ah.weight_value(v, c.osc, 0.5, 0.5), "s"),
    "submultiplicativity_defect.s": (
        lambda c, v: ah.submultiplicativity_defect(v, c.osc, [((0.3, -0.7), (1.1, 0.4))]),
        "s"),
    "check_exponent.p": (lambda c, v: ah.check_exponent("p", v), "p"),
    "MixedNormParams.q": (lambda c, v: ah.MixedNormParams(2.0, v), "q"),
    "heat_semigroup.beta": (lambda c, v: ah.heat_semigroup(c.dec, v, 0.1, c.f), "beta"),
    "heat_semigroup.t": (lambda c, v: ah.heat_semigroup(c.dec, 1.0, v, c.f), "t"),
    "sobolev_norm.s": (lambda c, v: ah.sobolev_norm(c.dec, v, c.f), "s"),
    "modulation_norm.s": (lambda c, v: ah.modulation_norm(c.f, v, c.osc, L2), "s"),
    "modulation_norms.s": (lambda c, v: ah.modulation_norms(c.f, [1.0, v], c.osc, L2), "s"),
    "mixed_norm.s": (lambda c, v: ah.mixed_norm(ah.stft(c.f), v, c.osc, L2), "s"),
    "sigma_exponent.k": (lambda c, v: ah.sigma_exponent(v, 1, 1.0, 1.0, 1.0), "k"),
    "sigma_exponent.l": (lambda c, v: ah.sigma_exponent(1, v, 1.0, 1.0, 1.0), "l"),
    "sigma_exponent.beta": (lambda c, v: ah.sigma_exponent(1, 1, v, 1.0, 1.0), "beta"),
    "WeightQuotientParams.beta": (lambda c, v: ah.WeightQuotientParams(c.osc, beta=v), "beta"),
    "WeightQuotientParams.s2": (lambda c, v: ah.WeightQuotientParams(c.osc, s2=v), "s2"),
    "WeightQuotientParams.radius": (lambda c, v: ah.WeightQuotientParams(c.osc, radius=v),
                                    "radius"),
    "WeightQuotientParams.resolution": (
        lambda c, v: ah.WeightQuotientParams(c.osc, resolution=v), "resolution"),
    "fit_decay_exponent.target": (
        lambda c, v: ah.fit_decay_exponent([(10.0 ** -k, 10.0 ** k) for k in range(6)], v),
        "target"),
    "gaussian_probe_fields.count": (lambda c, v: ah.gaussian_probe_fields(c.grid, v), "count"),
    "eigenfunction_probes.count": (lambda c, v: ah.eigenfunction_probes(c.dec, v), "count"),
    "sobolev_modulation_equivalence.s": (
        lambda c, v: ah.sobolev_modulation_equivalence(c.dec, [v], c.probes), "s"),
    "algebra_ratios.s": (lambda c, v: ah.algebra_ratios(c.probes, [(0, 1)], L2, v, c.osc),
                         "s"),
    "singular_weight_norm.alpha": (
        lambda c, v: ah.singular_weight_norm(v, L2, 0.1, 4.0, grid=c.grid, osc=c.osc),
        "alpha"),
    "singular_weight_norm.s": (
        lambda c, v: ah.singular_weight_norm(0.5, L2, v, 4.0, grid=c.grid, osc=c.osc), "s"),
    "singular_weight_norm.radius": (
        lambda c, v: ah.singular_weight_norm(0.5, L2, 0.1, v, grid=c.grid, osc=c.osc),
        "radius"),
    "GaussianConjugation.safe_radius": (lambda c, v: ah.GaussianConjugation(v), "safe_radius"),
    "ou_semigroup.beta": (lambda c, v: ah.ou_semigroup(c.conj, c.dec, v, 0.1, c.f), "beta"),
    "ou_semigroup.t": (lambda c, v: ah.ou_semigroup(c.conj, c.dec, 1.0, v, c.f), "t"),
    "ou_probe_rate.t_list": (
        lambda c, v: ah.ou_probe_rate(c.conj, c.dec, 1.0, [v, 2.0, 3.0], c.probes), "t_list"),
    "NonlinearProblemSpec.beta": (lambda c, v: problem(c, beta=v), "beta"),
    "NonlinearProblemSpec.nu": (lambda c, v: problem(c, nu=v), "nu"),
    "NonlinearProblemSpec.alpha": (lambda c, v: problem(c, kind="inhomogeneous", alpha=v),
                                   "alpha"),
    "NonlinearProblemSpec.monitor_s": (lambda c, v: problem(c, monitor=(2.0, 1.0, v)), "s"),
    "picard_solve.horizon": (lambda c, v: ah.picard_solve(c.spec, v, 0.005), "horizon"),
    "picard_solve.dt": (lambda c, v: ah.picard_solve(c.spec, 0.01, v), "dt"),
    "picard_solve.tol": (lambda c, v: ah.picard_solve(c.spec, 0.01, 0.005, tol=v), "tol"),
    "picard_solve.max_iter": (lambda c, v: ah.picard_solve(c.spec, 0.01, 0.005, max_iter=v),
                              "max_iter"),
    "picard_solve.checkpoint_stride": (
        lambda c, v: ah.picard_solve(c.spec, 0.01, 0.005, checkpoint_stride=v),
        "checkpoint_stride"),
    "etd_evolve.order": (lambda c, v: ah.etd_evolve(c.spec, 0.01, 0.005, order=v), "order"),
}


class TestCountsAndReals:
    @pytest.mark.parametrize("name", ARGUMENTS)
    def test_a_bool_is_refused_at_its_argument(self, ctx, name):
        """True is an int to Python, so a hand-written check used to run it
        as 1 at many of these arguments; the rules refuse it and name the
        argument."""
        call, field = ARGUMENTS[name]
        with pytest.raises(InvalidSpecError) as exc:
            call(ctx, True)
        assert exc.value.field == field

    @pytest.mark.parametrize("name", ["sigma_exponent.beta", "heat_semigroup.beta",
                                      "Grid.half_width", "NonlinearProblemSpec.monitor_s"])
    def test_text_is_refused_at_its_argument(self, ctx, name):
        """A string is no real, whether or not float() would read it; sigma
        used to raise TypeError on it."""
        call, field = ARGUMENTS[name]
        for text in ("x", "1"):
            with pytest.raises(InvalidSpecError) as exc:
                call(ctx, text)
            assert exc.value.field == field

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf],
                             ids=["zero", "negative", "nan", "inf"])
    def test_beta_reads_one_error_everywhere(self, ctx, value):
        """beta = 0 used to raise ValueError with no field in heat_semigroup
        and InvalidSpecError with none in WeightQuotientParams."""
        for name in ("heat_semigroup.beta", "sigma_exponent.beta",
                     "WeightQuotientParams.beta", "NonlinearProblemSpec.beta"):
            call, field = ARGUMENTS[name]
            with pytest.raises(InvalidSpecError, match="beta must be a positive real") as exc:
                call(ctx, value)
            assert exc.value.field == field

    def test_numpy_numbers_are_accepted(self, ctx):
        assert ah.Grid(np.int64(64), np.float32(8.0)) == ah.Grid(64, 8.0)
        assert ah.OscillatorSpec(np.int32(2), np.int64(1)) == ah.OscillatorSpec(2, 1)
        assert ah.sigma_exponent(np.int64(1), 1, np.float64(2.0), 1.0, 1.0) == 0.5


class TestFiniteFields:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)],
                             ids=["nan", "inf", "-inf", "nan_imag"])
    def test_field_sample_refuses_non_finite_values(self, ctx, bad):
        values = np.ones(ctx.grid.points_per_axis, dtype=complex)
        values[7] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            ah.FieldSample(ctx.grid, values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_reconstruct_refuses_non_finite_coefficients(self, ctx, bad):
        coeffs = np.zeros(ctx.dec.m)
        coeffs[3] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            ctx.dec.reconstruct(coeffs)

    def test_an_overflowing_inverse_conjugation_raises(self, ctx):
        """Dividing 1e300 by the half-density near the safe radius overflows:
        the inverse used to return the inf values as a field. It reports the
        mass beyond the safe radius first, taken scale-exact (its raw
        squares would overflow and read NaN)."""
        f = ah.FieldSample(ctx.grid, np.full(ctx.grid.points_per_axis, 1e300))
        with pytest.raises(NumericalError, match="non-finite"), \
                pytest.warns(ah.DiscardedMassWarning, match="discarded 4.507e-01"):
            ah.apply_conjugation(ctx.conj, "inverse", f)
