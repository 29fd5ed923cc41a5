import csv
import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

import anharmonic as ah
import anharmonic.nlheat
from anharmonic import (BoundaryMassWarning, FieldSample, Grid, InvalidSpecError,
                        NonConvergenceError, NonlinearProblemSpec, OffSpanWarning, decompose,
                        duhamel_residual, etd_evolve, heat_semigroup, picard_solve)
from anharmonic.cli import ReportRecord, emit_plot_data

pytestmark = pytest.mark.filterwarnings(
    "ignore::anharmonic.errors.BoundaryMassWarning")

MONITOR = (2.0, 1.0, 2.0)
# both integrators share one engine, and one recorder for norms, checkpoints
# and the blow-up stop
INTEGRATORS = pytest.mark.parametrize("integrate", [picard_solve, etd_evolve],
                                      ids=lambda f: f.__name__)


@pytest.fixture(scope="module")
def dec():
    return decompose(ah.OscillatorSpec(1, 1), Grid(128, 10.0), 48)


@pytest.fixture(scope="module")
def sector_decs():
    """The decompositions like ``dec`` that keep one parity, by parity."""
    return {parity: decompose(ah.OscillatorSpec(1, 1), Grid(128, 10.0), 48, parity=parity)
            for parity in (1, -1)}


@pytest.fixture()
def small_u0(dec):
    x = dec.grid.nodes()
    return FieldSample(dec.grid, 0.5 * np.exp(-x ** 2 / 2))


@pytest.fixture()
def defocusing(dec, small_u0):
    return NonlinearProblemSpec(dec, small_u0, coupling=-1.0, monitor=MONITOR)


def trajectory_csv_rows(traj, out_dir):
    """Rows of trajectory.csv as the nlheat runner writes it from ``table()``."""
    header, rows = traj.table()
    record = ReportRecord("h", "0", "nlheat", 1,
                          series={"trajectory": {"header": header, "rows": rows}})
    emit_plot_data(record, out_dir)
    with open(out_dir / "trajectory.csv", newline="") as fh:
        return list(csv.reader(fh))


class TestProblemSpec:
    def test_validation(self, dec, small_u0):
        with pytest.raises(InvalidSpecError):
            NonlinearProblemSpec(dec, small_u0, beta=0.0)
        with pytest.raises(InvalidSpecError):
            NonlinearProblemSpec(dec, small_u0, nu=0)
        with pytest.raises(InvalidSpecError):
            NonlinearProblemSpec(dec, small_u0, nu=1.5)
        with pytest.raises(InvalidSpecError):
            NonlinearProblemSpec(dec, small_u0, kind="cubic")
        with pytest.raises(InvalidSpecError):
            NonlinearProblemSpec(dec, small_u0, kind="inhomogeneous", alpha=0.0)
        with pytest.raises(InvalidSpecError):
            NonlinearProblemSpec(dec, small_u0, monitor=(2.0, 1.0))
        for coupling in (complex(np.nan, 0.0), complex(0.0, np.inf)):
            with pytest.raises(InvalidSpecError):
                NonlinearProblemSpec(dec, small_u0, coupling=coupling)
        other = FieldSample(Grid(64, 10.0), np.zeros(64))
        with pytest.raises(InvalidSpecError):
            NonlinearProblemSpec(dec, other)

    @pytest.mark.parametrize("monitor", [
        (0.0, 1.0, 2.0), (2.0, -1.0, 2.0), ("two", 1.0, 2.0), (2.0, math.inf, 2.0),
        (2.0, 1.0, math.inf), (2.0, 1.0, math.nan), (2.0, 1.0, ah.INF), (2.0, 1.0, "s"),
        (2.0, 1.0, 2.0, 0.0)],
        ids=["p_zero", "q_negative", "p_text", "q_float_inf", "s_inf", "s_nan", "s_INF",
             "s_text", "four"])
    def test_bad_monitor_raises_at_construction(self, dec, small_u0, monitor):
        """The monitor is checked when the spec is built, not at the first
        integrator call, by the rule the runner applies to params.monitor."""
        with pytest.raises(InvalidSpecError):
            NonlinearProblemSpec(dec, small_u0, monitor=monitor)

    def test_monitor_is_normalized(self, dec, small_u0):
        """The engine reads the checked triple: floats, with the INF marker
        kept."""
        spec = NonlinearProblemSpec(dec, small_u0, monitor=(ah.INF, 2, 1))
        assert spec.monitor == (ah.INF, 2.0, 1.0)
        assert [type(v) for v in spec.monitor[1:]] == [float, float]
        engine = spec._engine
        assert engine.monitor_params == ah.MixedNormParams(ah.INF, 2.0)
        assert engine.monitor_s == 1.0

    def test_power_kind_zeroes_alpha(self, dec, small_u0):
        spec = NonlinearProblemSpec(dec, small_u0, kind="power", alpha=0.7)
        assert spec.alpha == 0.0

    def test_replace_u0(self, defocusing):
        """The runners swap u0 with dataclasses.replace, which reruns the
        grid check."""
        other = Grid(64, 6.0)
        with pytest.raises(InvalidSpecError):
            dataclasses.replace(defocusing, u0=FieldSample(other, np.zeros(other.points_per_axis)))


# the layout is the decomposition's: the even one runs u0 centred at 0 in its
# parity sector, the full one runs u0 shifted in the full layout
LAYOUTS = pytest.mark.parametrize("layout", ["sector", "full"])


def layout_case(layout, dec, sector_decs):
    """The decomposition and the u0 shift of a ``LAYOUTS`` case."""
    return (sector_decs[1], 0.0) if layout == "sector" else (dec, 0.3)


class TestNonlinearity:
    """The engine's coefficient-space nonlinearity, the one both integrators
    and the residual use, against the projection of the closed form, in
    both engine layouts."""

    @staticmethod
    def engine_and_state(spec, shift):
        """The engine, u0's coefficients and their values on the engine's rows."""
        engine = anharmonic.nlheat._Engine(spec)
        assert engine.sign == (1.0 if shift == 0.0 else 0.0)
        c = engine.to_coeff(spec.u0.values[engine.rows])
        return engine, c, engine.to_values(c)

    @staticmethod
    def u0(dec, shift):
        x = dec.grid.nodes()
        return FieldSample(dec.grid, 0.5 * np.exp(-(x - shift) ** 2 / 2))

    @LAYOUTS
    def test_power_formula(self, dec, sector_decs, layout):
        dec, shift = layout_case(layout, dec, sector_decs)
        spec = NonlinearProblemSpec(dec, self.u0(dec, shift), nu=2, coupling=-0.3 + 0.1j)
        engine, c, u = self.engine_and_state(spec, shift)
        expected = engine.to_coeff((-0.3 + 0.1j) * np.abs(u) ** 4 * u)
        np.testing.assert_allclose(engine.nonlin_coeff(c), expected, rtol=0,
                                   atol=1e-14 * np.max(np.abs(expected)))

    @LAYOUTS
    def test_inhomogeneous_factor(self, dec, sector_decs, layout):
        dec, shift = layout_case(layout, dec, sector_decs)
        spec = NonlinearProblemSpec(dec, self.u0(dec, shift), kind="inhomogeneous",
                                    alpha=0.4)
        engine, c, u = self.engine_and_state(spec, shift)
        x = np.abs(dec.grid.nodes())[engine.rows]
        expected = engine.to_coeff(-1.0 * np.abs(u) ** 2 * u * x ** -0.4)
        out = engine.nonlin_coeff(c)
        np.testing.assert_allclose(out, expected, rtol=0,
                                   atol=1e-14 * np.max(np.abs(expected)))
        assert np.all(np.isfinite(out))  # staggered nodes avoid x = 0


class TestParitySector:
    """A flow on a decomposition that keeps one parity is evolved in that
    parity sector. The reference is the same flow on the full decomposition,
    which the full layout evolves."""

    @staticmethod
    def u0(dec, parity):
        x = dec.grid.nodes()
        gauss = np.exp(-x ** 2 / 2)
        return FieldSample(dec.grid, 0.5 * (gauss if parity == "even" else x * gauss))

    @INTEGRATORS
    @pytest.mark.parametrize("coupling", [-1.0, -1.0 + 0.5j], ids=["real", "complex"])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_agrees_with_the_full_layout(self, dec, sector_decs, parity, coupling, integrate):
        sign = 1 if parity == "even" else -1
        u0 = self.u0(dec, parity)
        spec = NonlinearProblemSpec(sector_decs[sign], u0, coupling=coupling, monitor=MONITOR)
        full = NonlinearProblemSpec(dec, u0, coupling=coupling, monitor=MONITOR)
        assert anharmonic.nlheat._Engine(spec).sign == sign
        assert anharmonic.nlheat._Engine(full).sign == 0.0
        a, b = integrate(spec, 0.05, 0.005), integrate(full, 0.05, 0.005)
        cols = anharmonic.spectral._reflection_parity(dec.eigenvectors) == sign
        np.testing.assert_allclose(a.monitored_norms, b.monitored_norms, rtol=1e-12, atol=0)
        np.testing.assert_allclose(a.final_coeffs, b.final_coeffs[cols], rtol=0,
                                   atol=1e-12 * np.max(np.abs(b.final_coeffs)))
        assert duhamel_residual(a, spec) < 1e-6

    @INTEGRATORS
    def test_a_full_decomposition_takes_the_full_layout(self, dec, integrate):
        """The layout is the decomposition's, not u0's: a bitwise even u0 on
        the full decomposition runs the full layout, and its checkpoints hold
        all m coefficients."""
        spec = NonlinearProblemSpec(dec, self.u0(dec, "even"), monitor=MONITOR)
        assert anharmonic.spectral._field_parity(spec.u0.values) == 1
        assert spec._engine.sign == 0.0
        traj = integrate(spec, 0.02, 0.005)
        assert traj.checkpoint_coeffs.shape == (5, dec.m)

    @INTEGRATORS
    def test_u0_of_a_parity_without_modes_takes_the_full_layout(self, hermite_osc, integrate):
        """An odd u0 on a full decomposition that keeps only the even ground
        state runs the full layout and is all off the span, so it warns."""
        grid = Grid(64, 8.0)
        one_mode = decompose(hermite_osc, grid, 1)
        x = grid.nodes()
        spec = NonlinearProblemSpec(one_mode, FieldSample(grid, 0.5 * x * np.exp(-x ** 2 / 2)),
                                    monitor=MONITOR)
        with pytest.warns(OffSpanWarning):
            traj = integrate(spec, 0.02, 0.005)
        assert spec._engine.sign == 0.0
        assert traj.checkpoint_coeffs.shape == (5, 1)

    @INTEGRATORS
    def test_every_pass_of_a_gaussian_run_is_half_rows(self, sector_decs, integrate,
                                                       pass_ranges):
        """The shipped initial data (``cli._gaussian_initial``, scaled) on
        the even decomposition runs every exact monitored norm and Picard
        gap on the rows N/2.., so a silent fall back to the full pass fails
        here. The steps between are bounded, not measured."""
        dec = sector_decs[1]
        base = ah.cli._gaussian_initial(dec.grid)
        u0 = FieldSample(dec.grid, 0.05 * base.values)
        traj = integrate(NonlinearProblemSpec(dec, u0, monitor=MONITOR), 0.02, 0.005)
        n = dec.grid.points_per_axis
        assert len(pass_ranges) >= 2  # the initial state and the last step, at least
        assert set(pass_ranges) == {(n // 2, n)}
        assert np.isnan(traj.monitored_norms[1:-1]).all()


class TestOneParityDecomposition:
    """A flow on a decomposition that keeps one parity (``decompose(...,
    parity=±1)``, as the nlheat runner asks for the even Gaussian) refuses
    u0 off that parity."""

    @pytest.fixture(params=[1, -1], ids=["even", "odd"])
    def sector_dec(self, request, sector_decs):
        return sector_decs[request.param]

    @pytest.mark.parametrize("shape", ["other_parity", "asymmetric", "complex"])
    def test_u0_off_the_sector_is_refused(self, sector_dec, shape):
        x = sector_dec.grid.nodes()
        gauss = 0.5 * np.exp(-x ** 2 / 2)
        same = gauss if sector_dec.parity == 1 else x * gauss
        values = {"other_parity": (x * gauss if sector_dec.parity == 1 else gauss),
                  "asymmetric": 0.5 * np.exp(-(x - 0.3) ** 2 / 2),
                  "complex": (1.0 + 0.5j) * same}[shape]
        name = "even" if sector_dec.parity == 1 else "odd"
        with pytest.raises(InvalidSpecError, match=f"keeps only its {name} modes") as exc:
            NonlinearProblemSpec(sector_dec, FieldSample(sector_dec.grid, values))
        assert exc.value.field == "u0"
        NonlinearProblemSpec(sector_dec, FieldSample(sector_dec.grid, same))


class TestStepValidation:
    def test_step_constraints(self, defocusing):
        with pytest.raises(ValueError):
            picard_solve(defocusing, 0.05, 0.02)
        with pytest.raises(ValueError):
            picard_solve(defocusing, 0.052, 0.005)
        with pytest.raises(ValueError):
            picard_solve(defocusing, -1.0, 0.005)
        with pytest.raises(ValueError):
            picard_solve(defocusing, 0.05, 0.005, tol=1e-12)
        with pytest.raises(ValueError):
            picard_solve(defocusing, 0.05, 0.005, tol=float("nan"))
        with pytest.raises(ValueError):
            picard_solve(defocusing, 0.05, 0.005, max_iter=1)
        with pytest.raises(ValueError):
            etd_evolve(defocusing, 0.05, 0.005, order=3)

    @pytest.mark.parametrize("name,value", [
        ("nu", True), ("nu", 2.0), ("max_iter", True), ("max_iter", 3.5), ("max_iter", "5"),
        ("max_iter", 25.0), ("checkpoint_stride", True), ("checkpoint_stride", 2.0),
        ("order", True), ("order", 2.0)])
    def test_integer_inputs_refuse_bools_and_non_integers(self, defocusing, name, value):
        """Like ``decompose``'s m: an int or numpy integer, never a bool or a
        float, however integral."""
        if name == "nu":
            with pytest.raises(InvalidSpecError) as exc:
                dataclasses.replace(defocusing, nu=value)
            assert exc.value.field == "nu"
            return
        integrate = etd_evolve if name == "order" else picard_solve
        with pytest.raises(ValueError, match=name):
            integrate(defocusing, 0.01, 0.005, **{name: value})

    def test_numpy_integers_are_integer_inputs(self, defocusing):
        assert dataclasses.replace(defocusing, nu=np.int64(2)).nu == 2
        picard_solve(defocusing, 0.01, 0.005, max_iter=np.int64(25),
                     checkpoint_stride=np.int32(2))
        etd_evolve(defocusing, 0.01, 0.005, order=np.int64(1))


class TestLinearConsistency:
    def test_zero_coupling_matches_heat_flow(self, dec, small_u0):
        spec = NonlinearProblemSpec(dec, small_u0, coupling=0.0, monitor=MONITOR)
        traj = picard_solve(spec, 0.05, 0.005)
        exact = heat_semigroup(dec, 1.0, 0.05, small_u0)
        final = dec.reconstruct(traj.final_coeffs)
        np.testing.assert_allclose(final.values, exact.values, rtol=1e-11,
                                   atol=1e-14)
        # nothing to contract against: the correction term is identically zero
        assert traj.max_contraction() == 0.0

    def test_zero_coupling_duhamel_residual_vanishes(self, dec, small_u0):
        spec = NonlinearProblemSpec(dec, small_u0, coupling=0.0, monitor=MONITOR)
        traj = picard_solve(spec, 0.05, 0.005)
        assert duhamel_residual(traj, spec) < 1e-14


class TestPicard:
    def test_defocusing_run_shape(self, defocusing):
        traj = picard_solve(defocusing, 0.2, 0.005)
        assert len(traj.times) == 41
        # 40 windows are one block: _EXACT_STRIDE is 100
        assert len(traj.contraction_factors) == 1
        assert all(len(b) >= 1 for b in traj.contraction_factors)
        assert traj.max_contraction() < 0.5
        assert not traj.blown_up
        assert traj.monitored_norms[-1] < traj.monitored_norms[0]

    def test_duhamel_residual_small(self, defocusing):
        traj = picard_solve(defocusing, 0.2, 0.005)
        assert duhamel_residual(traj, defocusing) < 1e-6

    def test_agrees_with_etd2(self, defocusing):
        a = picard_solve(defocusing, 0.2, 0.005)
        b = etd_evolve(defocusing, 0.2, 0.005, order=2)
        gap = np.max(np.abs(a.final_coeffs - b.final_coeffs))
        assert gap < 1e-5 * np.max(np.abs(a.final_coeffs))

    def test_etd_orders_rank_as_expected(self, defocusing):
        ref = picard_solve(defocusing, 0.1, 0.001)
        e1 = etd_evolve(defocusing, 0.1, 0.005, order=1)
        e2 = etd_evolve(defocusing, 0.1, 0.005, order=2)
        gap1 = np.max(np.abs(e1.final_coeffs - ref.final_coeffs))
        gap2 = np.max(np.abs(e2.final_coeffs - ref.final_coeffs))
        assert gap2 < gap1

    def test_divergent_iteration_raises_with_diagnostics(self, dec):
        x = dec.grid.nodes()
        big = FieldSample(dec.grid, 3.0 * np.exp(-x ** 2 / 2))
        spec = NonlinearProblemSpec(dec, big, coupling=60.0, monitor=MONITOR)
        with pytest.raises(NonConvergenceError) as exc, np.errstate(all="ignore"):
            picard_solve(spec, 0.5, 0.005)
        assert "t" in exc.value.diagnostics

    def test_out_of_iterations_raises(self, dec):
        x = dec.grid.nodes()
        u0 = FieldSample(dec.grid, 1.2 * np.exp(-x ** 2 / 2))
        spec = NonlinearProblemSpec(dec, u0, coupling=-5.0, monitor=MONITOR)
        with pytest.raises(NonConvergenceError) as exc:
            picard_solve(spec, 0.05, 0.005, tol=1e-10, max_iter=2)
        assert exc.value.diagnostics.get("t") is not None

    def test_off_span_initial_data_warns(self, dec):
        rough = FieldSample(dec.grid, np.cos(np.pi * np.arange(dec.grid.points_per_axis)))
        spec = NonlinearProblemSpec(dec, rough, coupling=-1.0, monitor=MONITOR)
        with pytest.warns(OffSpanWarning):
            picard_solve(spec, 0.01, 0.005)


class TestOneEngine:
    """A spec builds its engine once, at the first integrator or residual
    call: the layout, the nonlinearity, the projected initial state
    and its off-span check are shared by every later call."""

    @staticmethod
    def rough_spec(dec):
        rough = FieldSample(dec.grid, np.cos(np.pi * np.arange(dec.grid.points_per_axis)))
        return NonlinearProblemSpec(dec, rough, coupling=-1.0, monitor=MONITOR)

    def test_one_engine_per_spec(self, defocusing, monkeypatch):
        builds = []
        build = anharmonic.nlheat._Engine.__init__

        def counted(engine, spec):
            builds.append(spec)
            build(engine, spec)

        monkeypatch.setattr(anharmonic.nlheat._Engine, "__init__", counted)
        traj = picard_solve(defocusing, 0.02, 0.005)
        etd_evolve(defocusing, 0.02, 0.005)
        duhamel_residual(traj, defocusing)
        picard_solve(defocusing, 0.02, 0.005, checkpoint_stride=4)
        assert builds == [defocusing]

    def test_off_span_check_runs_once(self, dec):
        spec = self.rough_spec(dec)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            picard_solve(spec, 0.01, 0.005)
            etd_evolve(spec, 0.01, 0.005)
        assert [w.category for w in caught].count(OffSpanWarning) == 1

    @pytest.mark.parametrize("call", [
        lambda spec: picard_solve(spec, 0.01, 0.005),
        lambda spec: etd_evolve(spec, 0.01, 0.005),
        lambda spec: duhamel_residual(
            picard_solve(dataclasses.replace(spec), 0.015, 0.005), spec),
    ], ids=["picard_solve", "etd_evolve", "duhamel_residual"])
    def test_warning_names_the_callers_line(self, dec, call):
        """Whichever call builds the engine, its warning points at the
        caller's line (the residual's spec is fresh here, so it builds)."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(self.rough_spec(dec))
        records = [w for w in caught if w.category is OffSpanWarning]
        assert records and all(w.filename == __file__ for w in records)

    def test_initial_coefficients_are_read_only(self, defocusing):
        traj = etd_evolve(defocusing, 0.01, 0.005)
        c0 = defocusing._engine.c0
        np.testing.assert_array_equal(c0, traj.checkpoint_coeffs[0])
        with pytest.raises(ValueError, match="read-only"):
            c0[0] = 1.0


class TestCertifiedStop:
    """Picard records each sweep's gap as its cap C sup_k ||gap_k||_2 over
    the coefficient gaps, which bounds the monitored norm of every endpoint
    gap of the block, and stops the block on it alone."""

    def test_sweep_counts_per_block(self, defocusing, monkeypatch):
        """Amplitude 0.5 over 40 windows: as one block the cap decides the
        stop after 8 sweeps, and the sweep ratios fall, as a waveform
        relaxation converges superlinearly; as four blocks of 10 windows,
        after 6 sweeps each."""
        traj = picard_solve(defocusing, 0.2, 0.005)
        assert [len(b) + 1 for b in traj.contraction_factors] == [8]
        [ratios] = traj.contraction_factors
        assert all(later < earlier for earlier, later in zip(ratios, ratios[1:]))
        monkeypatch.setattr(anharmonic.nlheat, "_EXACT_STRIDE", 10)
        traj = picard_solve(defocusing, 0.2, 0.005)
        assert [len(b) + 1 for b in traj.contraction_factors] == [6] * 4

    def test_small_data_takes_two_sweeps(self, dec, small_u0):
        """At monitored norm 0.05 (the benchmark flow's initial norm) a block
        stops after the two mandatory sweeps."""
        scale = 0.05 / ah.modulation_norm(small_u0, MONITOR[2], dec.oscillator,
                                          ah.MixedNormParams(*MONITOR[:2]))
        u0 = FieldSample(dec.grid, scale * small_u0.values)
        spec = NonlinearProblemSpec(dec, u0, coupling=-1.0, monitor=MONITOR)
        traj = picard_solve(spec, 0.05, 0.005)
        assert [len(b) + 1 for b in traj.contraction_factors] == [2]

    @LAYOUTS
    @pytest.mark.parametrize("imag", [0.0, 1.0], ids=["real", "complex"])
    def test_coefficient_norm_is_the_full_field_norm(self, dec, sector_decs, layout, imag):
        """The retained modes are orthonormal, so ||c||_2 is the L^2 norm of
        the full field of c, the sector's mirrored half included; the cap
        constant times it bounds the exact monitored norm."""
        dec, shift = layout_case(layout, dec, sector_decs)
        x = dec.grid.nodes()
        spec = NonlinearProblemSpec(dec, FieldSample(dec.grid, np.exp(-(x - shift) ** 2 / 2)),
                                    monitor=MONITOR)
        engine = anharmonic.nlheat._Engine(spec)
        assert engine.sign == (1.0 if shift == 0.0 else 0.0)
        rng = np.random.default_rng(3)
        m = len(engine.lam_beta)
        c = rng.standard_normal(m) + imag * 1j * rng.standard_normal(m)
        full = engine.fields(c[:, None])[0]
        norm = float(np.linalg.norm(c))
        assert norm == pytest.approx(math.sqrt(dec.grid.h * np.sum(np.abs(full) ** 2)),
                                     rel=1e-13)
        assert engine.monitored_norm(FieldSample(dec.grid, full)) <= engine.cap_constant() * norm

    def test_overflowing_gap_has_cap_inf(self, defocusing):
        """A gap whose sum of squares overflows has cap inf, which a
        NonConvergenceError reports as last_gap."""
        engine = anharmonic.nlheat._Engine(defocusing)
        huge = np.full((len(engine.lam_beta), 2), 1e200)
        with np.errstate(over="ignore"):
            assert engine.cap_constant() * np.linalg.norm(huge, axis=0).max() == math.inf


class TestSweeps:
    """A Picard block is solved by sweeps over all its windows at once, with
    the fixed point of the windowed iteration."""

    @pytest.mark.parametrize("nu,kind", [(1, "power"), (2, "power"), (1, "inhomogeneous")])
    def test_first_sweep_ratio_is_eps_to_the_2nu(self, hermite_osc, hermite_grid, nu, kind):
        """N is homogeneous of degree 2 nu + 1, so the first gap scales as
        eps^(2 nu + 1) and the second as eps^(4 nu + 1): the first sweep
        ratio of one 100-window block, over initial monitored norms eps,
        fits log-log slope 2 nu. A nonlinearity that is not applied, or not
        of that degree, misses it."""
        dec = ah.decompose(hermite_osc, hermite_grid, 64)
        gauss = np.exp(-hermite_grid.nodes() ** 2 / 2)
        unit = ah.modulation_norm(FieldSample(hermite_grid, gauss), MONITOR[2], hermite_osc,
                                  ah.MixedNormParams(*MONITOR[:2]))
        eps = np.array([0.05, 0.1, 0.2, 0.4])
        kappas = []
        for e in eps:
            spec = NonlinearProblemSpec(dec, FieldSample(hermite_grid, e / unit * gauss), nu=nu,
                                        kind=kind, alpha=0.5 if kind == "inhomogeneous" else 0.0,
                                        monitor=MONITOR)
            traj = picard_solve(spec, 0.5, 0.005, checkpoint_stride=100)
            assert len(traj.contraction_factors) == 1
            kappas.append(traj.contraction_factors[0][0])
        slope = np.polyfit(np.log(eps), np.log(kappas), 1)[0]
        assert abs(slope - 2 * nu) < 1e-3

    def test_zero_coupling_gaps_are_exactly_zero(self, dec, small_u0, monkeypatch):
        """Without a nonlinearity every sweep reproduces the linear flow bit
        for bit: no gap is nonzero, so none is measured, and a block stops
        after the two mandatory sweeps with no ratio."""
        measured = []
        norm = np.linalg.norm

        def counted(x, *args, **kwargs):  # the gap norms that _sweeps takes
            if sys._getframe(1).f_code is anharmonic.nlheat._sweeps.__code__:
                measured.append(x)
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        monkeypatch.setattr(anharmonic.nlheat, "_EXACT_STRIDE", 4)
        spec = NonlinearProblemSpec(dec, small_u0, coupling=0.0, monitor=MONITOR)
        traj = picard_solve(spec, 0.05, 0.005)
        assert measured == []
        assert traj.contraction_factors == ((), (), ())
        picard_solve(dataclasses.replace(spec, coupling=-1.0), 0.05, 0.005)
        assert measured  # the counter sees the gaps of a nonlinear flow

    @pytest.mark.parametrize("kind", ["power", "inhomogeneous"])
    def test_blocks_agree_with_single_windows(self, dec, small_u0, kind, monkeypatch):
        """Blocks of one window are the windowed iteration; both converge to
        the same fixed point, at every checkpoint."""
        spec = NonlinearProblemSpec(dec, small_u0, coupling=-1.0, kind=kind,
                                    alpha=0.4 if kind == "inhomogeneous" else 0.0,
                                    monitor=MONITOR)
        block = picard_solve(spec, 0.2, 0.005)
        monkeypatch.setattr(anharmonic.nlheat, "_EXACT_STRIDE", 1)
        windows = picard_solve(spec, 0.2, 0.005)
        assert len(block.contraction_factors) == 1 and len(windows.contraction_factors) == 40
        scale = np.max(np.abs(windows.checkpoint_coeffs))
        assert np.max(np.abs(block.checkpoint_coeffs - windows.checkpoint_coeffs)) <= 1e-10 * scale

    def test_a_failing_block_is_halved_to_the_failing_window(self, dec, monkeypatch):
        """A block that cannot converge is halved until the window that fails
        is alone, which raises with the windowed iteration's diagnostics;
        the blocks before it converged and were recorded."""
        x = dec.grid.nodes()
        spec = NonlinearProblemSpec(dec, FieldSample(dec.grid, 1.2 * np.exp(-x ** 2 / 2)),
                                    coupling=-5.0, monitor=MONITOR)
        tried = []
        sweeps = anharmonic.nlheat._sweeps

        def counted(engine, c, n, *args):
            tried.append(n)
            return sweeps(engine, c, n, *args)

        monkeypatch.setattr(anharmonic.nlheat, "_sweeps", counted)
        with pytest.raises(NonConvergenceError) as exc:
            picard_solve(spec, 0.05, 0.005, tol=1e-10, max_iter=2)
        assert tried == [10, 5, 2, 1]
        assert exc.value.diagnostics["t"] == pytest.approx(0.005)
        assert set(exc.value.diagnostics) == {"t", "last_gap", "last_contraction"}


class TestBlowup:
    def test_threshold_crossing_truncates(self, defocusing, monkeypatch):
        monkeypatch.setattr(anharmonic.nlheat, "_BLOWUP_NORM", 1e-4)
        traj = picard_solve(defocusing, 0.05, 0.005)
        assert traj.blown_up
        assert traj.blowup_time == pytest.approx(0.005)
        assert len(traj.times) == 2
        assert traj.checkpoint_times[-1] == pytest.approx(0.005)

    @pytest.mark.parametrize("stride", [1, 1000])
    def test_focusing_etd_blows_up_for_real(self, dec, stride):
        """Stride 1 bounds every step and measures the exact norm at t = 0,
        the blow-up step and wherever the bound is above 1e6; at stride 1000
        the l2 guard stops the run between stride points, and the blow-up
        step is still stored as a checkpoint with its monitored norm
        measured."""
        x = dec.grid.nodes()
        big = FieldSample(dec.grid, 3.0 * np.exp(-x ** 2 / 2))
        spec = NonlinearProblemSpec(dec, big, coupling=60.0, monitor=MONITOR)
        with np.errstate(all="ignore"):
            traj = etd_evolve(spec, 0.5, 0.005, checkpoint_stride=stride)
        assert traj.blown_up
        assert traj.blowup_time is not None and traj.blowup_time < 0.5
        assert len(traj.times) < 101
        assert traj.monitored_norms[-1] > 1e6 or math.isinf(traj.monitored_norms[-1])
        assert traj.checkpoint_times[-1] == traj.blowup_time
        if stride == 1:
            assert not np.any(np.isnan(traj.monitored_bounds))
            exact = ~np.isnan(traj.monitored_norms)
            assert exact[0] and exact[-1]
            assert np.all(traj.monitored_bounds[~exact] <= 1e6)
            assert np.all(traj.monitored_norms[exact] <= traj.monitored_bounds[exact])
        else:
            assert 1e6 < traj.l2_norms[-1] < np.inf
            assert np.all(np.isnan(traj.monitored_norms[1:-1]))
            np.testing.assert_allclose(traj.checkpoint_times, [0.0, traj.blowup_time])

    def test_blowup_flag_in_csv(self, defocusing, monkeypatch, tmp_path):
        monkeypatch.setattr(anharmonic.nlheat, "_BLOWUP_NORM", 1e-4)
        traj = picard_solve(defocusing, 0.05, 0.005)
        rows = trajectory_csv_rows(traj, tmp_path)
        assert rows[0] == ["t", "monitored_norm", "monitored_bound", "l2_norm", "blowup"]
        assert [r[4] for r in rows[1:]] == ["0", "1"]

    def test_bound_above_the_guard_hands_the_step_to_the_exact_norm(self, defocusing,
                                                                    monkeypatch):
        """With the guard between a step's exact norm and its bound, the
        bound cannot rule out blow-up there: the exact norm runs at that
        step and decides, and the flow is not blown up."""
        first = picard_solve(defocusing, 0.05, 0.005)
        norm, bound = first.monitored_norms[0], first.monitored_bounds[0]
        assert norm < bound
        monkeypatch.setattr(anharmonic.nlheat, "_BLOWUP_NORM", math.sqrt(norm * bound))
        traj = picard_solve(dataclasses.replace(defocusing), 0.05, 0.005)
        assert not traj.blown_up and len(traj.times) == 11
        # the norm decays by 6 % and the bound stays 1.5 times above it, so
        # every bound is above the guard and every step is measured
        assert np.all(traj.monitored_bounds > anharmonic.nlheat._BLOWUP_NORM)
        assert not np.isnan(traj.monitored_norms).any()
        assert np.all(traj.monitored_norms <= anharmonic.nlheat._BLOWUP_NORM)
        np.testing.assert_array_equal(traj.monitored_norms[[0, -1]],
                                      first.monitored_norms[[0, -1]])


class TestTrajectoryRecord:
    @INTEGRATORS
    def test_checkpoint_stride(self, defocusing, integrate):
        traj = integrate(defocusing, 0.05, 0.005, checkpoint_stride=3)
        np.testing.assert_allclose(traj.checkpoint_times,
                                   [0.0, 0.015, 0.03, 0.045, 0.05])
        assert traj.checkpoint_coeffs.shape[0] == 5

    @INTEGRATORS
    def test_stride_dividing_steps_has_no_duplicate_endpoint(self, defocusing, integrate):
        traj = integrate(defocusing, 0.05, 0.005, checkpoint_stride=5)
        np.testing.assert_allclose(traj.checkpoint_times, [0.0, 0.025, 0.05])

    @INTEGRATORS
    @pytest.mark.parametrize("stride", [1, 3])
    def test_blowup_checkpoint_has_no_duplicate(self, defocusing, integrate, stride,
                                                monkeypatch):
        """The blow-up step is stored once, on a stride point (1) or between (3)."""
        monkeypatch.setattr(anharmonic.nlheat, "_BLOWUP_NORM", 1e-4)
        traj = integrate(defocusing, 0.05, 0.005, checkpoint_stride=stride)
        assert traj.blown_up and traj.blowup_time == pytest.approx(0.005)
        np.testing.assert_allclose(traj.checkpoint_times, [0.0, 0.005])
        assert traj.checkpoint_coeffs.shape[0] == 2

    @INTEGRATORS
    @pytest.mark.parametrize("stride", [0, -1, 1.5])
    def test_bad_stride_rejected_up_front(self, defocusing, integrate, stride):
        with pytest.raises(ValueError, match="checkpoint_stride"):
            integrate(defocusing, 0.05, 0.005, checkpoint_stride=stride)

    def test_csv_round_trip_values(self, defocusing, tmp_path):
        """Every step carries its bound; the exact norm is written at the
        ends and as nan between them."""
        traj = picard_solve(defocusing, 0.02, 0.005)
        rows = trajectory_csv_rows(traj, tmp_path)
        assert len(rows) == 1 + len(traj.times)
        assert float(rows[1][1]) == traj.monitored_norms[0]
        assert float(rows[-1][1]) == traj.monitored_norms[-1]
        assert [r[1] for r in rows[2:-1]] == ["nan"] * (len(traj.times) - 2)
        assert [float(r[2]) for r in rows[1:]] == list(traj.monitored_bounds)
        assert float(rows[-1][0]) == traj.times[-1]

    def test_monitored_norm_only_at_checkpoints(self, defocusing, monkeypatch):
        """A full-stride run bounds and measures the monitored norm at its two
        ends only; stride 1 bounds every step and measures the exact norm
        only at t = 0 and the last step (and every 100th, which a 10-step
        run has none of). The initial state's values are measured once per
        spec: a second run of the same spec reads them."""
        calls = {"monitored_norm": 0, "monitored_bound": 0}
        norm, bounds = (anharmonic.nlheat._Engine.monitored_norm,
                        anharmonic.nlheat._Engine.monitored_bounds)

        def counted_norm(engine, field):
            calls["monitored_norm"] += 1
            return norm(engine, field)

        def counted_bounds(engine, frame):  # a batch: count its states
            calls["monitored_bound"] += len(frame[1])
            return bounds(engine, frame)

        monkeypatch.setattr(anharmonic.nlheat._Engine, "monitored_norm", counted_norm)
        monkeypatch.setattr(anharmonic.nlheat._Engine, "monitored_bounds", counted_bounds)
        steps = 10
        traj = etd_evolve(defocusing, 0.05, 0.005, checkpoint_stride=steps)
        assert calls == {"monitored_norm": 2, "monitored_bound": 2}
        assert np.isnan(traj.monitored_norms[1:-1]).all()
        assert np.isnan(traj.monitored_bounds[1:-1]).all()
        assert np.isfinite(traj.monitored_norms[[0, -1]]).all()
        assert np.all(traj.monitored_norms[[0, -1]] <= traj.monitored_bounds[[0, -1]])
        calls.update(monitored_norm=0, monitored_bound=0)
        again = picard_solve(defocusing, 0.05, 0.005)
        assert calls == {"monitored_norm": 1, "monitored_bound": steps}
        assert again.monitored_norms[0] == traj.monitored_norms[0]
        assert np.isnan(again.monitored_norms[1:-1]).all()
        assert np.isfinite(again.monitored_bounds).all()
        calls.update(monitored_norm=0, monitored_bound=0)
        picard_solve(dataclasses.replace(defocusing), 0.05, 0.005)
        assert calls == {"monitored_norm": 2, "monitored_bound": steps + 1}

    @INTEGRATORS
    @pytest.mark.parametrize("stride", [1, 2])
    def test_boundary_mass_warns_at_every_checkpoint(self, dec, integrate, stride):
        """A flow with mass at the box boundary warns once per checkpoint,
        from the caller's line: the exact norm's own check, or the check a
        state left to its bound gets from its block's frame."""
        x = dec.grid.nodes()
        spec = NonlinearProblemSpec(dec, FieldSample(dec.grid, 0.5 * np.exp(-(x / 4) ** 2 / 2)),
                                    monitor=MONITOR)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traj = integrate(spec, 0.03, 0.005, checkpoint_stride=stride)
        found = [w for w in caught if w.category is BoundaryMassWarning]
        assert len(found) == len(traj.checkpoint_times) == 6 // stride + 1
        assert all(w.filename == __file__ for w in found)

    @pytest.mark.filterwarnings("ignore::anharmonic.errors.OffSpanWarning")
    def test_no_boundary_warning_after_a_blowup_inside_a_block(self, dec, monkeypatch):
        """A flow with mass at the box boundary, recorded every third step of
        a ten-window Picard block, blows up at step 3 under a guard that the
        bound of step 9 is below: it warns for t = 0 and step 3 alone, not
        for step 9, which the block would have left to its bound."""
        x = dec.grid.nodes()
        u0 = 0.5 * np.exp(-(x / 4) ** 2 / 2) + dec.eigenvectors[:, 30]
        spec = NonlinearProblemSpec(dec, FieldSample(dec.grid, u0), monitor=MONITOR)
        first = picard_solve(spec, 0.05, 0.005, checkpoint_stride=3)
        assert len(first.contraction_factors) == 1
        norm3 = picard_solve(spec, 0.015, 0.005).monitored_norms[-1]
        bound9 = first.monitored_bounds[9]
        assert bound9 < norm3 < first.monitored_bounds[3]  # the norm decays
        monkeypatch.setattr(anharmonic.nlheat, "_BLOWUP_NORM", math.sqrt(norm3 * bound9))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traj = picard_solve(dataclasses.replace(spec), 0.05, 0.005, checkpoint_stride=3)
        assert traj.blowup_time == pytest.approx(0.015)
        found = [w for w in caught if w.category is BoundaryMassWarning]
        assert len(found) == len(traj.checkpoint_times) == 2

    def test_exact_norm_every_hundredth_step(self, defocusing, monkeypatch):
        """A stride-1 record runs the exact norm every ``_EXACT_STRIDE`` steps
        (here made 4) besides t = 0 and the last step, and bounds the rest."""
        monkeypatch.setattr(anharmonic.nlheat, "_EXACT_STRIDE", 4)
        traj = picard_solve(dataclasses.replace(defocusing), 0.05, 0.005)
        np.testing.assert_array_equal(np.flatnonzero(~np.isnan(traj.monitored_norms)),
                                      [0, 4, 8, 10])
        assert np.isfinite(traj.monitored_bounds).all()

    def test_residual_needs_three_checkpoints(self, defocusing):
        traj = picard_solve(defocusing, 0.02, 0.005, checkpoint_stride=100)
        assert len(traj.checkpoint_times) == 2
        with pytest.raises(ValueError):
            duhamel_residual(traj, defocusing)
