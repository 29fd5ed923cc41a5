import csv
import dataclasses
import math

import numpy as np
import pytest

import anharmonic as ah
import anharmonic.nlheat
from anharmonic import (FieldSample, Grid, InvalidSpecError, NonConvergenceError,
                        NonlinearProblemSpec, OffSpanWarning, decompose, duhamel_residual,
                        etd_evolve, heat_semigroup, picard_solve)
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

    def test_power_kind_zeroes_alpha(self, dec, small_u0):
        spec = NonlinearProblemSpec(dec, small_u0, kind="power", alpha=0.7)
        assert spec.alpha == 0.0

    def test_replace_u0(self, defocusing):
        """The runners swap u0 with dataclasses.replace, which reruns the
        grid check."""
        other = Grid(64, 6.0)
        with pytest.raises(InvalidSpecError):
            dataclasses.replace(defocusing, u0=FieldSample(other, np.zeros(other.points_per_axis)))


# u0 centred at 0 is bitwise even and runs in its parity sector; shifted, it
# takes the full layout
LAYOUTS = pytest.mark.parametrize("shift", [0.0, 0.3], ids=["sector", "full"])


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
    def test_power_formula(self, dec, shift):
        spec = NonlinearProblemSpec(dec, self.u0(dec, shift), nu=2, coupling=-0.3 + 0.1j)
        engine, c, u = self.engine_and_state(spec, shift)
        expected = engine.to_coeff((-0.3 + 0.1j) * np.abs(u) ** 4 * u)
        np.testing.assert_allclose(engine.nonlin_coeff(c), expected, rtol=0,
                                   atol=1e-14 * np.max(np.abs(expected)))

    @LAYOUTS
    def test_inhomogeneous_factor(self, dec, shift):
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
    """A real u0 that is bitwise even or odd is evolved in its parity sector.
    The reference is the same flow from a copy of u0 with one node moved by
    one ulp, which the full layout evolves."""

    @staticmethod
    def u0(dec, parity):
        x = dec.grid.nodes()
        gauss = np.exp(-x ** 2 / 2)
        return FieldSample(dec.grid, 0.5 * (gauss if parity == "even" else x * gauss))

    @staticmethod
    def nudged(u0):
        vals = np.array(u0.values.real)
        k = u0.grid.points_per_axis // 2 + 3
        vals[k] = np.nextafter(vals[k], np.inf)
        return FieldSample(u0.grid, vals)

    @INTEGRATORS
    @pytest.mark.parametrize("coupling", [-1.0, -1.0 + 0.5j], ids=["real", "complex"])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_agrees_with_the_full_layout(self, dec, parity, coupling, integrate):
        spec = NonlinearProblemSpec(dec, self.u0(dec, parity), coupling=coupling,
                                    monitor=MONITOR)
        full = dataclasses.replace(spec, u0=self.nudged(spec.u0))
        assert anharmonic.nlheat._Engine(spec).sign == (1.0 if parity == "even" else -1.0)
        assert anharmonic.nlheat._Engine(full).sign == 0.0
        a, b = integrate(spec, 0.05, 0.005), integrate(full, 0.05, 0.005)
        np.testing.assert_allclose(a.monitored_norms, b.monitored_norms, rtol=1e-12, atol=0)
        np.testing.assert_allclose(a.final_coeffs, b.final_coeffs, rtol=0,
                                   atol=1e-12 * np.max(np.abs(b.final_coeffs)))

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_checkpoints_hold_zeros_in_the_other_parity(self, dec, parity):
        spec = NonlinearProblemSpec(dec, self.u0(dec, parity), monitor=MONITOR)
        traj = picard_solve(spec, 0.02, 0.005)
        vecs = dec.eigenvectors
        other = ~np.all(vecs == (1.0 if parity == "even" else -1.0) * vecs[::-1], axis=0)
        assert traj.checkpoint_coeffs.shape == (5, dec.m)
        assert 0 < np.count_nonzero(other) < dec.m
        assert np.all(traj.checkpoint_coeffs[:, other] == 0.0)
        assert np.all(traj.checkpoint_coeffs[:, ~other] != 0.0)
        assert duhamel_residual(traj, spec) < 1e-6

    @INTEGRATORS
    def test_every_pass_of_a_gaussian_run_is_half_rows(self, dec, integrate, pass_starts):
        """The shipped initial data (``cli._gaussian_initial``, scaled) runs
        every monitored norm and Picard gap on the rows N/2.., so a silent
        fall back to the full pass fails here."""
        base = ah.cli._gaussian_initial(dec.grid)
        u0 = FieldSample(dec.grid, 0.05 * base.values)
        integrate(NonlinearProblemSpec(dec, u0, monitor=MONITOR), 0.02, 0.005)
        assert len(pass_starts) >= 5  # the initial state and four steps, at least
        assert set(pass_starts) == {dec.grid.points_per_axis // 2}


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
        assert len(traj.contraction_factors) == 40
        assert all(len(w) >= 1 for w in traj.contraction_factors)
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


class TestCertifiedStop:
    """Picard records each gap as its cap C ||gap||_{L^2}, which bounds the
    monitored norm; the exact STFT gap norm runs only when the cap is at or
    above tol, so every window takes the iterations the exact gap gives."""

    @staticmethod
    def exact_gap_calls(monkeypatch):
        calls = []
        exact = anharmonic.nlheat._Engine.gap_norm

        def counted(engine, coeffs):
            calls.append(1)
            return exact(engine, coeffs)

        monkeypatch.setattr(anharmonic.nlheat._Engine, "gap_norm", counted)
        return calls

    def test_fallback_keeps_the_exact_iteration_counts(self, defocusing, monkeypatch):
        """Amplitude 0.5 needs 3-4 passes per window, so the cap cannot
        decide every stop: the exact norm runs on two passes of each window.
        The counts were taken while every gap was measured exactly."""
        calls = self.exact_gap_calls(monkeypatch)
        traj = picard_solve(defocusing, 0.2, 0.005)
        assert [len(w) + 1 for w in traj.contraction_factors] == [4] * 25 + [3] * 15
        assert len(calls) == 80

    def test_small_data_takes_no_exact_gap(self, dec, small_u0, monkeypatch):
        """At monitored norm 0.05 (the benchmark flow's initial norm) the cap
        decides every stop, after the two mandatory passes."""
        scale = 0.05 / ah.modulation_norm(small_u0, MONITOR[2], dec.oscillator,
                                          ah.MixedNormParams(*MONITOR[:2]))
        u0 = FieldSample(dec.grid, scale * small_u0.values)
        spec = NonlinearProblemSpec(dec, u0, coupling=-1.0, monitor=MONITOR)
        calls = self.exact_gap_calls(monkeypatch)
        traj = picard_solve(spec, 0.05, 0.005)
        assert [len(w) + 1 for w in traj.contraction_factors] == [2] * 10
        assert calls == []

    @LAYOUTS
    def test_field_l2_is_the_full_field_norm(self, dec, shift):
        """The sector layout's doubled cell carries the mirrored half."""
        x = dec.grid.nodes()
        spec = NonlinearProblemSpec(dec, FieldSample(dec.grid, np.exp(-(x - shift) ** 2 / 2)),
                                    monitor=MONITOR)
        engine = anharmonic.nlheat._Engine(spec)
        c = np.random.default_rng(3).standard_normal(len(engine.lam_beta))
        full = engine.field(c).values
        expected = math.sqrt(dec.grid.h * np.sum(np.abs(full) ** 2))
        assert engine.field_l2(c) == pytest.approx(expected, rel=1e-13)

    def test_overflowing_gap_has_cap_inf(self, defocusing):
        """A gap whose sum of squares overflows has cap inf, which a
        NonConvergenceError reports as last_gap."""
        engine = anharmonic.nlheat._Engine(defocusing)
        huge = np.full(len(engine.lam_beta), 1e200)
        with np.errstate(over="ignore"):
            assert engine.cap_constant() * engine.field_l2(huge) == math.inf


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
        """Stride 1 measures every step; at stride 1000 the l2 guard stops the
        run between stride points, and the blow-up step is still stored as a
        checkpoint with its monitored norm measured."""
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
            assert not np.any(np.isnan(traj.monitored_norms))
        else:
            assert 1e6 < traj.l2_norms[-1] < np.inf
            assert np.all(np.isnan(traj.monitored_norms[1:-1]))
            np.testing.assert_allclose(traj.checkpoint_times, [0.0, traj.blowup_time])
            assert traj.sup_monitored_norm() == traj.monitored_norms[-1]

    def test_blowup_flag_in_csv(self, defocusing, monkeypatch, tmp_path):
        monkeypatch.setattr(anharmonic.nlheat, "_BLOWUP_NORM", 1e-4)
        traj = picard_solve(defocusing, 0.05, 0.005)
        rows = trajectory_csv_rows(traj, tmp_path)
        assert rows[0] == ["t", "monitored_norm", "l2_norm", "blowup"]
        assert [r[3] for r in rows[1:]] == ["0", "1"]


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
        traj = picard_solve(defocusing, 0.02, 0.005)
        rows = trajectory_csv_rows(traj, tmp_path)
        assert len(rows) == 1 + len(traj.times)
        assert float(rows[1][1]) == traj.monitored_norms[0]
        assert float(rows[-1][0]) == traj.times[-1]

    def test_monitored_norm_only_at_checkpoints(self, defocusing, monkeypatch):
        """A full-stride run measures the monitored norm at its two ends only;
        stride 1 measures every step."""
        calls = []
        measure = anharmonic.nlheat._Engine.monitored_norm

        def counted(engine, coeffs):
            calls.append(1)
            return measure(engine, coeffs)

        monkeypatch.setattr(anharmonic.nlheat._Engine, "monitored_norm", counted)
        steps = 10
        traj = etd_evolve(defocusing, 0.05, 0.005, checkpoint_stride=steps)
        assert len(calls) == 2
        assert np.isnan(traj.monitored_norms[1:-1]).all()
        assert np.isfinite(traj.monitored_norms[[0, -1]]).all()
        calls.clear()
        picard_solve(defocusing, 0.05, 0.005)
        assert len(calls) == steps + 1

    def test_residual_needs_three_checkpoints(self, defocusing):
        traj = picard_solve(defocusing, 0.02, 0.005, checkpoint_stride=100)
        assert len(traj.checkpoint_times) == 2
        with pytest.raises(ValueError):
            duhamel_residual(traj, defocusing)
