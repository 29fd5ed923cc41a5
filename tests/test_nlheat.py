import csv
import dataclasses
import math

import numpy as np
import pytest

import anharmonic as ah
import anharmonic.nlheat
from anharmonic import (FieldSample, Grid, InvalidSpecError, NonConvergenceError,
                        NonlinearProblemSpec, OffSpanWarning, SemigroupQuery,
                        decompose, duhamel_residual, etd_evolve, heat_semigroup,
                        picard_solve)
from anharmonic.cli import ReportRecord, emit_plot_data

pytestmark = pytest.mark.filterwarnings(
    "ignore::anharmonic.errors.BoundaryMassWarning")

MONITOR = (2.0, 1.0, 2.0)


@pytest.fixture(scope="module")
def dec():
    return decompose(ah.oscillator(1, 1, 1), Grid(1, 128, 10.0), 48)


@pytest.fixture()
def small_u0(dec):
    x = dec.grid.axis_nodes()
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
        other = FieldSample(Grid(1, 64, 10.0), np.zeros(64))
        with pytest.raises(InvalidSpecError):
            NonlinearProblemSpec(dec, other)

    def test_power_kind_zeroes_alpha(self, dec, small_u0):
        spec = NonlinearProblemSpec(dec, small_u0, kind="power", alpha=0.7)
        assert spec.alpha == 0.0

    def test_replace_u0(self, defocusing):
        """The runners swap u0 with dataclasses.replace, which reruns the
        grid check."""
        other = Grid(1, 64, 6.0)
        with pytest.raises(InvalidSpecError):
            dataclasses.replace(defocusing, u0=FieldSample(other, np.zeros(other.size)))


class TestNonlinearity:
    """The engine's coefficient-space nonlinearity, the one both integrators
    and the residual use, against the projection of the closed form."""

    @staticmethod
    def engine_and_state(spec):
        engine = anharmonic.nlheat._Engine(spec)
        c = engine.to_coeff(spec.u0.values)
        return engine, c, engine.to_values(c)

    def test_power_formula(self, dec, small_u0):
        spec = NonlinearProblemSpec(dec, small_u0, nu=2, coupling=-0.3 + 0.1j)
        engine, c, u = self.engine_and_state(spec)
        expected = engine.to_coeff((-0.3 + 0.1j) * np.abs(u) ** 4 * u)
        np.testing.assert_allclose(engine.nonlin_coeff(c), expected, rtol=0,
                                   atol=1e-14 * np.max(np.abs(expected)))

    def test_inhomogeneous_factor(self, dec, small_u0):
        spec = NonlinearProblemSpec(dec, small_u0, kind="inhomogeneous", alpha=0.4)
        engine, c, u = self.engine_and_state(spec)
        x = np.abs(dec.grid.axis_nodes())
        expected = engine.to_coeff(-1.0 * np.abs(u) ** 2 * u * x ** -0.4)
        out = engine.nonlin_coeff(c)
        np.testing.assert_allclose(out, expected, rtol=0,
                                   atol=1e-14 * np.max(np.abs(expected)))
        assert np.all(np.isfinite(out))  # staggered nodes avoid x = 0


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
        exact = heat_semigroup(SemigroupQuery(dec, 1.0, 0.05), small_u0)
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
        x = dec.grid.axis_nodes()
        big = FieldSample(dec.grid, 3.0 * np.exp(-x ** 2 / 2))
        spec = NonlinearProblemSpec(dec, big, coupling=60.0, monitor=MONITOR)
        with pytest.raises(NonConvergenceError) as exc, np.errstate(all="ignore"):
            picard_solve(spec, 0.5, 0.005)
        assert "t" in exc.value.diagnostics

    def test_out_of_iterations_raises(self, dec):
        x = dec.grid.axis_nodes()
        u0 = FieldSample(dec.grid, 1.2 * np.exp(-x ** 2 / 2))
        spec = NonlinearProblemSpec(dec, u0, coupling=-5.0, monitor=MONITOR)
        with pytest.raises(NonConvergenceError) as exc:
            picard_solve(spec, 0.05, 0.005, tol=1e-10, max_iter=2)
        assert exc.value.diagnostics.get("t") is not None

    def test_off_span_initial_data_warns(self, dec):
        rough = FieldSample(dec.grid, np.cos(np.pi * np.arange(dec.grid.size)))
        spec = NonlinearProblemSpec(dec, rough, coupling=-1.0, monitor=MONITOR)
        with pytest.warns(OffSpanWarning):
            picard_solve(spec, 0.01, 0.005)


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
        x = dec.grid.axis_nodes()
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


# both integrators share one recorder for norms, checkpoints and the blow-up stop
INTEGRATORS = pytest.mark.parametrize("integrate", [picard_solve, etd_evolve],
                                      ids=lambda f: f.__name__)


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
