import ast
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import anharmonic as ah
from anharmonic import phasespace
from anharmonic import (INF, BoundaryMassWarning, FieldSample, Grid,
                        InvalidSpecError, MixedNormParams, NumericalError,
                        PhaseSpaceField, apply_conjugation, mixed_norm,
                        modulation_norm, modulation_norms, stft, weight_value)
from anharmonic.estimators import gaussian_probe_fields
from anharmonic.phasespace import (_column_reduce, _frame, _gaussian_window_values,
                                   _kept_rows, _l2_cap, _modulation_columns, _outer_reduce,
                                   _state_bound, _state_bounds, _weight_lattice, _weighted_columns)
from oracles import (dense_stft, gaussian_lattice_stft_abs, gaussian_window_transform_abs,
                     mixed_norm_reference)

FLAT = 0.0  # the weight exponent of the flat weight
HARMONIC = ah.hermite_oscillator()


def own_scale_frame(f):
    """The ``_frame`` of f at its own scale, e = 0, as ``modulation_norms``
    measures a field again: its layout, with f unscaled."""
    _, e, real, first_row, peak = _frame(f)
    return f, 0, real, first_row, math.ldexp(peak, e)


def harmonic_lattice(grid, s):
    """(1 + |x| + 2 pi |xi|)^s: the k = l = 1 weight in angular frequency."""
    x = grid.nodes()
    xi = grid.frequency_nodes()
    return (1.0 + np.abs(x)[:, None] + 2.0 * np.pi * np.abs(xi)[None, :]) ** s


def quartic_lattice(grid, s):
    """(1 + x^2 + 2 pi |xi|)^s: quartic V = x^4 and l = 1 in angular frequency."""
    x = grid.nodes()
    xi = grid.frequency_nodes()
    return (1.0 + x[:, None] ** 2 + 2.0 * np.pi * np.abs(xi)[None, :]) ** s


def unit_gaussian(grid):
    x = grid.nodes()
    return FieldSample(grid, 2.0 ** 0.25 * np.exp(-np.pi * x ** 2))


class TestWindow:
    def test_gaussian_is_unit_norm(self, hermite_grid):
        g = _gaussian_window_values(hermite_grid)
        norm = np.sqrt(hermite_grid.h * np.sum(np.abs(g) ** 2))
        assert norm == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("grid", [Grid(64, 4.0), Grid(256, 8.0)], ids=["64", "256"])
    def test_gaussian_is_unit_norm_on_other_grids(self, grid):
        g = _gaussian_window_values(grid)
        norm = np.sqrt(grid.h * np.sum(np.abs(g) ** 2))
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_wrapped_layout_peaks_at_origin(self, hermite_grid):
        g = _gaussian_window_values(hermite_grid)
        assert np.argmax(np.abs(g)) == 0

    def test_too_coarse_grid_rejected(self):
        # h = 1/8 samples the unit gaussian too coarsely: its discrete norm is
        # off by 2.4e-4, far past the window-norm tolerance
        grid = Grid(16, 1.0)
        f = FieldSample(grid, np.exp(-60.0 * grid.nodes() ** 2))
        with pytest.raises(NumericalError, match="window norm"):
            stft(f)


class TestStft:
    def test_gaussian_pair_closed_form(self, hermite_grid):
        """Transforming the unit gaussian against the gaussian window has the
        explicit magnitude exp(-pi (x^2 + xi^2) / 2)."""
        out = stft(unit_gaussian(hermite_grid))
        x = hermite_grid.nodes()
        xi = hermite_grid.frequency_nodes()
        expected = gaussian_window_transform_abs(x, xi)
        assert np.max(np.abs(np.abs(out.values) - expected)) < 1e-12

    def test_flat_l2_isometry(self, hermite_grid, gaussian_field):
        # discrete orthogonality makes the p=q=2 flat norm the exact L2 norm
        out = stft(gaussian_field)
        norm = mixed_norm(out, FLAT, None, MixedNormParams(2.0, 2.0))
        assert norm == pytest.approx(gaussian_field.norm_l2(), rel=1e-12)

    def test_modulated_shift_moves_peak(self, hermite_grid):
        x = hermite_grid.nodes()
        f = FieldSample(hermite_grid,
                        2.0 ** 0.25 * np.exp(-np.pi * (x - 2.0) ** 2)
                        * np.exp(2j * np.pi * 1.5 * x))
        out = stft(f)
        i, n = np.unravel_index(np.argmax(np.abs(out.values)), out.values.shape)
        assert hermite_grid.nodes()[i] == pytest.approx(2.0, abs=hermite_grid.h)
        assert hermite_grid.frequency_nodes()[n] == pytest.approx(
            1.5, abs=hermite_grid.frequency_cell)

    def test_boundary_mass_warns(self):
        grid = Grid(128, 6.0)
        f = FieldSample(grid, np.ones(grid.points_per_axis))
        with pytest.warns(BoundaryMassWarning):
            stft(f)

    def test_interior_field_is_silent(self, hermite_grid, gaussian_field):
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoundaryMassWarning)
            stft(gaussian_field)

    def test_gaussian_variant_is_plain_stft_of_damped_field(self, hermite_grid,
                                                            gaussian_field,
                                                            damped_gaussian_abs):
        """The forward conjugation is the damping by the half-density, and the
        transform of the damped field meets the closed form."""
        half = ah.gaussian_half_density(hermite_grid)
        damped = FieldSample(hermite_grid, gaussian_field.values * half)
        conj = apply_conjugation(ah.GaussianConjugation(), "forward", gaussian_field)
        np.testing.assert_array_equal(conj.values, damped.values)
        got = np.abs(stft(conj).values)
        np.testing.assert_allclose(got, damped_gaussian_abs, rtol=0.0, atol=1e-14)


class TestDenseStftOracle:
    """``oracles.dense_stft``, the reference of the streamed norms, against
    the aliased closed form of a modulated, shifted Gaussian, within 1e-14
    of the peak (round-off is about 1e-15)."""

    @pytest.mark.parametrize("grid", [Grid(128, 10.0), Grid(512, 12.0)],
                             ids=["128", "512"])
    @pytest.mark.parametrize("amp,a,b,c", [(2.0 ** 0.25, np.pi, 0.5, 1.25),
                                           (2.0, 2.0, 0.75, 0.0)], ids=["complex", "real"])
    def test_against_aliased_closed_form(self, grid, amp, a, b, c):
        x = grid.nodes()
        f = FieldSample(grid, amp * np.exp(-a * (x - b) ** 2) * np.exp(2j * np.pi * c * x))
        expected = gaussian_lattice_stft_abs(x, grid.frequency_nodes(), amp, a, b, c, grid.h)
        got = np.abs(dense_stft(f))
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-14 * expected.max())


class TestPhaseSpaceField:
    def test_shape_validated(self, hermite_grid):
        with pytest.raises(InvalidSpecError):
            PhaseSpaceField(hermite_grid, np.zeros((3, 3)))


class TestMixedNorm:
    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0),
                                     (0.5, 3.0), ("inf", 2.0), (2.0, "inf"),
                                     ("inf", "inf")])
    def test_against_direct_loops(self, p, q):
        grid = Grid(8, 4.0)
        rng = np.random.default_rng(7)
        vals = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        field = PhaseSpaceField(grid, vals)
        expected = mixed_norm_reference(vals, harmonic_lattice(grid, 1.5), p, q,
                                        grid.h, grid.frequency_cell)
        params = MixedNormParams(INF if p == "inf" else p, INF if q == "inf" else q)
        got = mixed_norm(field, 1.5, HARMONIC, params)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (2.0, 1.0), ("inf", 1.0),
                                     (1.0, "inf")])
    @pytest.mark.parametrize("k,s", [(2, 1.0), (1, 2.0)])
    def test_point_mass_value(self, p, q, k, s):
        """A single lattice point carries |c| w(x_i, xi_n) h^(1/p) (1/2L)^(1/q);
        the weight reads the frequency in angular scale."""
        grid = Grid(16, 4.0)
        i, n = 11, 5
        vals = np.zeros((16, 16), dtype=complex)
        vals[i, n] = 2.0 - 1.0j
        field = PhaseSpaceField(grid, vals)
        osc = ah.OscillatorSpec(k, 1)
        x = grid.nodes()[i]
        xi = grid.frequency_nodes()[n]
        wf = weight_value(s, osc, x, 2.0 * np.pi * xi)
        expected = abs(2.0 - 1.0j) * wf
        if p != "inf":
            expected *= grid.h ** (1.0 / p)
        if q != "inf":
            expected *= grid.frequency_cell ** (1.0 / q)
        params = MixedNormParams(INF if p == "inf" else p, INF if q == "inf" else q)
        assert mixed_norm(field, s, osc, params) == pytest.approx(expected, rel=1e-12)

    def test_weighted_norm_needs_oscillator(self):
        grid = Grid(8, 4.0)
        field = PhaseSpaceField(grid, np.ones((8, 8)))
        with pytest.raises(InvalidSpecError):
            mixed_norm(field, 1.0, None, MixedNormParams(1.0, 1.0))

    def test_nonfinite_values_raise(self):
        grid = Grid(8, 4.0)
        vals = np.ones((8, 8), dtype=complex)
        vals[3, 3] = np.inf
        field = PhaseSpaceField(grid, vals)
        with pytest.raises(NumericalError):
            mixed_norm(field, FLAT, None, MixedNormParams(1.0, 1.0))

    def test_zero_order_weight_ignores_the_oscillator(self, hermite_grid, gaussian_field):
        out = stft(gaussian_field)
        a = mixed_norm(out, 0.0, HARMONIC, MixedNormParams(1.0, 2.0))
        b = mixed_norm(out, FLAT, None, MixedNormParams(1.0, 2.0))
        assert a == b


class TestModulationNorm:
    def test_unit_gaussian_integral(self, hermite_grid):
        """The flat M^{1,1} norm of the unit gaussian equals the closed-form
        phase-space integral, which is exactly 2."""
        norm = modulation_norm(unit_gaussian(hermite_grid), FLAT, None,
                               MixedNormParams(1.0, 1.0))
        assert norm == pytest.approx(2.0, rel=1e-12)

    def test_ground_state_regression(self, hermite_grid):
        x = hermite_grid.nodes()
        phi0 = FieldSample(hermite_grid, np.pi ** -0.25 * np.exp(-x ** 2 / 2))
        norm = modulation_norm(phi0, FLAT, None, MixedNormParams(1.0, 1.0))
        assert norm == pytest.approx(2.410630853130538, rel=1e-9)

    def test_ground_state_stable_under_refinement(self, hermite_grid):
        fine = Grid(1024, 12.0)
        vals = []
        for grid in (hermite_grid, fine):
            x = grid.nodes()
            phi0 = FieldSample(grid, np.pi ** -0.25 * np.exp(-x ** 2 / 2))
            vals.append(modulation_norm(phi0, FLAT, None, MixedNormParams(1.0, 1.0)))
        assert vals[1] == pytest.approx(vals[0], rel=1e-2)

    def test_gaussian_route_matches_manual_damping(self, hermite_grid, gaussian_field,
                                                   damped_gaussian_abs):
        """The full stft lattice of the conjugated field and the streamed norm
        of the damped field run different code, so each is held to the closed
        form."""
        half = ah.gaussian_half_density(hermite_grid)
        damped = FieldSample(hermite_grid, gaussian_field.values * half)
        conj = apply_conjugation(ah.GaussianConjugation(), "forward", gaussian_field)
        params = MixedNormParams(2.0, 1.0)
        expected = mixed_norm_reference(damped_gaussian_abs,
                                        harmonic_lattice(hermite_grid, 1.0), 2.0, 1.0,
                                        hermite_grid.h,
                                        hermite_grid.frequency_cell)
        via_route = mixed_norm(stft(conj), 1.0, HARMONIC, params)
        by_hand = modulation_norm(damped, 1.0, HARMONIC, params)
        assert via_route == pytest.approx(expected, rel=1e-10)
        assert by_hand == pytest.approx(expected, rel=1e-10)


ORACLE_EXPONENTS = [1.0, 2.0, 6.0, INF]


def _oracle_exponent(p):
    return "inf" if p is INF else p


def _exponent_id(p):
    return str(_oracle_exponent(p))


def _unit_gaussian_oracle(grid, weight, p, q):
    x = grid.nodes()
    xi = grid.frequency_nodes()
    return mixed_norm_reference(gaussian_window_transform_abs(x, xi), weight,
                                _oracle_exponent(p), _oracle_exponent(q),
                                grid.h, grid.frequency_cell)


def _oracle_weight(kind, grid, quartic_osc):
    """(weight exponent, oscillator, lattice built here from the weight's formula)."""
    if kind == "flat":
        return FLAT, None, 1.0
    if kind == "harmonic":
        return 1.5, HARMONIC, harmonic_lattice(grid, 1.5)
    return 0.75, quartic_osc, quartic_lattice(grid, 0.75)


class TestStreamedNormOracle:
    """The streamed modulation_norm of the unit gaussian against direct loops
    over the closed form |V_g g| = exp(-pi (|x|^2 + |xi|^2) / 2), with the
    weight lattice built here from its formula. Tolerance 1e-10 relative;
    the agreement seen is at round-off level."""

    GRID = Grid(256, 8.0)  # two row blocks of the streamed pass

    # p = 3 and 4 take the repeated-squaring powers of the column reducer
    @pytest.mark.parametrize("p", ORACLE_EXPONENTS + [3.0, 4.0], ids=_exponent_id)
    @pytest.mark.parametrize("q", ORACLE_EXPONENTS, ids=_exponent_id)
    @pytest.mark.parametrize("kind", ["flat", "harmonic", "anharmonic"])
    def test_one_dimension(self, kind, p, q, quartic_osc):
        grid = self.GRID
        s, osc, weight = _oracle_weight(kind, grid, quartic_osc)
        expected = _unit_gaussian_oracle(grid, weight, p, q)
        got = modulation_norm(unit_gaussian(grid), s, osc, MixedNormParams(p, q))
        assert got == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("p,q", [(1.0, 6.0), (2.0, INF), (6.0, 1.0), (INF, 2.0)],
                             ids=_exponent_id)
    def test_complex_field_route(self, p, q):
        """A complex field takes the full-spectrum path: the shifted,
        modulated unit gaussian against its closed form, harmonic weight."""
        grid = self.GRID
        x = grid.nodes()
        xi = grid.frequency_nodes()
        b, c = 0.5, 1.25
        mag = gaussian_lattice_stft_abs(x, xi, 2.0 ** 0.25, np.pi, b, c, grid.h)
        expected = mixed_norm_reference(mag, harmonic_lattice(grid, 1.5), _oracle_exponent(p),
                                        _oracle_exponent(q), grid.h,
                                        grid.frequency_cell)
        f = FieldSample(grid, 2.0 ** 0.25 * np.exp(-np.pi * (x - b) ** 2)
                        * np.exp(2j * np.pi * c * x))
        got = modulation_norm(f, 1.5, HARMONIC, MixedNormParams(p, q))
        assert got == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("shift", [0, 3, -5], ids=["m0", "m3", "m-5"])
    @pytest.mark.parametrize("p,q", [(1.0, 2.0), (2.0, 6.0), (6.0, INF), (INF, 1.0)],
                             ids=_exponent_id)
    def test_lattice_modulation_permutes_the_columns(self, p, q, shift):
        """Modulating by a lattice frequency permutes the frequency bins
        cyclically, so the flat norm of the complex field is the unit
        gaussian's oracle; one row block on 64 points."""
        grid = Grid(64, 4.0)
        expected = _unit_gaussian_oracle(grid, 1.0, p, q)
        x = grid.nodes()
        values = 2.0 ** 0.25 * np.exp(-np.pi * x ** 2)
        if shift:
            values = values * np.exp(2j * np.pi * shift * grid.frequency_cell * x)
        got = modulation_norm(FieldSample(grid, values), FLAT, None, MixedNormParams(p, q))
        assert got == pytest.approx(expected, rel=1e-10)


class TestRealStateNorm:
    """A real field takes the half-spectrum (rfft)
    path of the streamed norm. The oracle is the off-centre real Gaussian
    2 e^{-2 (t - 0.75)^2}, not symmetric in x, with its lattice aliases: on
    this grid the Nyquist node carries 2e-6 of the peak, so both the Nyquist
    bin and the mirror into negative xi are weighed by the tolerance."""

    GRID = Grid(256, 24.0)  # two row blocks of the streamed pass
    AMP, A, B = 2.0, 2.0, 0.75

    def field(self):
        x = self.GRID.nodes()
        return FieldSample(self.GRID, self.AMP * np.exp(-self.A * (x - self.B) ** 2))

    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (2.0, 1.0), (6.0, 2.0), (INF, 2.0),
                                     (2.0, INF), (0.5, 0.5)], ids=_exponent_id)
    @pytest.mark.parametrize("kind", ["flat", "harmonic", "anharmonic"])
    def test_against_aliased_closed_form(self, kind, p, q, quartic_osc):
        grid = self.GRID
        s, osc, weight = _oracle_weight(kind, grid, quartic_osc)
        mag = gaussian_lattice_stft_abs(grid.nodes(), grid.frequency_nodes(),
                                        self.AMP, self.A, self.B, 0.0, grid.h)
        expected = mixed_norm_reference(mag, weight, _oracle_exponent(p),
                                        _oracle_exponent(q), grid.h,
                                        grid.frequency_cell)
        f = self.field()
        params = MixedNormParams(p, q)
        got = modulation_norm(f, s, osc, params)
        assert got == pytest.approx(expected, rel=1e-10)
        # an imaginary part far below round-off sends the same field down the
        # full-spectrum path
        vals = np.array(f.values)
        vals[grid.points_per_axis // 3] += 1e-300j
        full = modulation_norm(FieldSample(grid, vals), s, osc, params)
        assert got == pytest.approx(full, rel=1e-13)


class TestHalfRowPass:
    """A real field that is bitwise even or odd reduces only the rows
    x > 0 of the pass and doubles the finite-p column sums (the column max
    for p = INF is kept). The reference is the full lattice,
    ``mixed_norm(stft(f), ...)``, which runs every row, and direct loops
    over the dense transform of ``oracles.dense_stft``, which shares no code
    with the pass."""

    @staticmethod
    def field(grid, parity):
        x = grid.nodes()
        even = np.exp(-x ** 2 / 2) * (1.0 + 0.3 * x ** 2)
        return FieldSample(grid, even if parity == "even" else x * even)

    # on 128 points one block would span every row, so the half start must
    # also shrink the block
    @pytest.mark.parametrize("grid", [Grid(128, 10.0), Grid(512, 12.0)],
                             ids=["128", "512"])
    @pytest.mark.parametrize("p,q", [(2.0, 1.0), (6.0, 2.0), (INF, 2.0), (0.5, INF)],
                             ids=_exponent_id)
    @pytest.mark.parametrize("s", [FLAT, 1.5], ids=["s0", "s1.5"])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_matches_full_lattice(self, parity, s, p, q, grid, pass_ranges):
        f = self.field(grid, parity)
        params = MixedNormParams(p, q)
        expected = mixed_norm(stft(f), s, HARMONIC, params)
        got = modulation_norm(f, s, HARMONIC, params)
        n = grid.points_per_axis
        assert pass_ranges == [(0, n), (n // 2, n)]  # stft runs every row
        assert got == pytest.approx(expected, rel=1e-13)
        dense = mixed_norm_reference(dense_stft(f), harmonic_lattice(grid, s),
                                     _oracle_exponent(p), _oracle_exponent(q), grid.h,
                                     grid.frequency_cell)
        assert got == pytest.approx(dense, rel=1e-12)

    def test_perturbed_node_takes_the_full_pass(self, pass_ranges):
        """One node moved by one ulp breaks the symmetry: every row is run and
        the value is the full pass's, bit for bit (pinned before the half-row
        pass existed)."""
        grid = Grid(512, 12.0)
        vals = np.array(self.field(grid, "even").values.real)
        k = grid.points_per_axis // 4
        vals[k] = np.nextafter(vals[k], np.inf)
        got = modulation_norm(FieldSample(grid, vals), 1.5, HARMONIC,
                              MixedNormParams(2.0, 1.0))
        assert pass_ranges == [(0, grid.points_per_axis)]
        assert got == 15.81629462367387


class TestColumnOrder:
    """``_modulation_columns`` gives one column per xi node in ascending
    order, whatever order its pass reduces in: the column sums of p-th
    powers (column max for INF) of the weighted |V_g f| of the dense
    ``oracles.dense_stft``. A rough field
    keeps every column far above round-off, so a column out of place shows."""

    @staticmethod
    def field(kind):
        grid = Grid(128, 10.0)
        rng = np.random.default_rng(7)
        envelope = np.exp(-2.0 * grid.nodes() ** 2)
        re, im = rng.standard_normal((2, grid.points_per_axis)) * envelope
        vals = {"even": re + re[::-1], "odd": re - re[::-1], "real": re}.get(kind, re + 1j * im)
        return FieldSample(grid, vals)

    @pytest.mark.parametrize("p", [2.0, INF], ids=_exponent_id)
    @pytest.mark.parametrize("s", [FLAT, 1.5], ids=["s0", "s1.5"])
    @pytest.mark.parametrize("kind", ["even", "odd", "real", "complex"])
    def test_columns_are_ascending_xi(self, kind, s, p):
        f = self.field(kind)
        grid = f.grid
        osc = ah.hermite_oscillator()
        weights = weight_value(s, osc, grid.nodes()[:, None],
                               2.0 * np.pi * grid.frequency_nodes()[None, :])
        w = np.abs(dense_stft(f)) * weights
        expected = w.max(axis=0) if p is INF else (w ** p).sum(axis=0)
        [got] = _modulation_columns(own_scale_frame(f), [s], osc, p)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


class TestStreamedNormGuards:
    def test_nonfinite_field_raises(self, hermite_grid):
        vals = np.array(unit_gaussian(hermite_grid).values)
        vals[200] = np.nan
        with pytest.raises(NumericalError):
            modulation_norm(FieldSample(hermite_grid, vals), FLAT, None,
                            MixedNormParams(2.0, 1.0))

    @pytest.mark.parametrize("p", [2.0, INF], ids=_exponent_id)
    def test_overflowing_weight_raises(self, hermite_grid, p):
        # (1 + |x| + 2 pi |xi|)^400 overflows to inf away from the origin
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
            modulation_norm(unit_gaussian(hermite_grid), 400.0, HARMONIC,
                            MixedNormParams(p, 1.0))

    # route -> (call on a field f with boundary mass on a decomposition's
    # grid, the number of fields with boundary mass that the call measures)
    BOUNDARY_ROUTES = {
        "stft": (lambda dec, f, params: stft(f), 1),
        "modulation_norm": (lambda dec, f, params: modulation_norm(f, FLAT, None, params), 1),
        # truncated at the half-width, |x|^(-1/2) reaches the box edge
        "singular_weight_norm": (lambda dec, f, params: ah.singular_weight_norm(
            0.5, params, FLAT, dec.grid.half_width, grid=dec.grid), 1),
        "algebra_ratios": (lambda dec, f, params: ah.algebra_ratios(
            [f, unit_gaussian(dec.grid)], [(0, 1)], params, FLAT), 1),
        "algebra_ratio": (lambda dec, f, params: ah.algebra_ratio(f, f, params, FLAT), 3),
        # the span of f keeps boundary mass: the top modes reach the box edge
        "sobolev_modulation_equivalence": (
            lambda dec, f, params: ah.sobolev_modulation_equivalence(dec, [FLAT, 1.0], [f]), 1),
        # one monitored state per checkpoint, at t = 0, 0.005 and 0.01
        "picard_solve": (lambda dec, f, params: ah.picard_solve(
            ah.NonlinearProblemSpec(dec, f), 0.01, 0.005), 3),
        "etd_evolve": (lambda dec, f, params: ah.etd_evolve(
            ah.NonlinearProblemSpec(dec, f), 0.01, 0.005), 3),
    }

    @pytest.mark.parametrize("route", list(BOUNDARY_ROUTES))
    def test_boundary_mass_warns_at_caller(self, small_dec, route):
        """Every public route to the boundary check warns once per field it
        measures, at its caller's line."""
        call, fields = self.BOUNDARY_ROUTES[route]
        f = FieldSample(small_dec.grid, np.ones(small_dec.grid.points_per_axis))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(small_dec, f, MixedNormParams(2.0, 2.0))
        records = [w for w in caught if w.category is BoundaryMassWarning]
        assert len(records) == fields
        assert all(w.filename == __file__ for w in records)

    def test_streamed_norm_never_holds_the_full_lattice(self, hermite_grid, quartic_osc):
        """One warm 512-point norm allocates less than one (size, size) complex
        lattice (4 MiB); building the phase-space field would take three times that."""
        f = unit_gaussian(hermite_grid)
        args = (2.0, quartic_osc, MixedNormParams(2.0, 1.0))
        modulation_norm(f, *args)  # fills the window-table and weight-lattice caches
        tracemalloc.start()
        try:
            modulation_norm(f, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < hermite_grid.points_per_axis ** 2 * 16

    def test_first_norm_builds_no_shift_table(self):
        """The shifted windows are views of one doubled window, so even the
        first norm on a grid, with every cache cold, allocates less than half
        an (N, N) real array (1 MiB at 512 points); a cached (N, N) shift
        table took 4 MiB to build."""
        grid = Grid(512, 12.5)  # no other test uses this grid
        f = unit_gaussian(grid)
        tracemalloc.start()
        try:
            modulation_norm(f, FLAT, None, MixedNormParams(2.0, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.points_per_axis ** 2 * 8 / 2


class TestSharedPass:
    """``modulation_norms`` reduces one STFT pass under several weights. Each
    value must be the one-weight ``modulation_norm`` bit for bit, whatever
    the weight's place in the list: s = 0 reduces the raw magnitudes,
    the others weight a copy of the block, the last one weights it in place."""

    GRID = TestRealStateNorm.GRID  # two row blocks of the streamed pass
    AMP, A, B, C = 2.0, 2.0, 0.75, 0.5

    def case(self, name):
        """(field, oscillator, the two non-zero weight exponents)."""
        grid = self.GRID
        x = grid.nodes()
        real = self.AMP * np.exp(-self.A * (x - self.B) ** 2)
        weighted = (1.5, 0.75)
        osc = ah.OscillatorSpec(2, 1)
        if name == "real":  # the half-spectrum branch
            return FieldSample(grid, real), osc, weighted
        if name in ("even", "odd"):  # the half-row pass as well
            even = self.AMP * np.exp(-self.A * x ** 2)
            return FieldSample(grid, even if name == "even" else x * even), osc, weighted
        return FieldSample(grid, real * np.exp(2j * np.pi * self.C * x)), osc, weighted

    @pytest.mark.parametrize("p,q", [(2.0, 1.0), (INF, 2.0), (0.5, INF)], ids=_exponent_id)
    @pytest.mark.parametrize("flat_at", [0, 1, 2], ids=["flat_first", "flat_mid", "flat_last"])
    @pytest.mark.parametrize("name", ["real", "complex", "even", "odd"])
    def test_each_value_is_the_one_weight_norm(self, name, flat_at, p, q):
        f, osc, weighted = self.case(name)
        weights = list(weighted)
        weights.insert(flat_at, FLAT)
        params = MixedNormParams(p, q)
        got = modulation_norms(f, weights, osc, params)
        assert got == [modulation_norm(f, s, osc, params) for s in weights]

    @pytest.mark.parametrize("name", ["real", "complex"])
    def test_against_aliased_closed_form(self, name, quartic_osc):
        grid = self.GRID
        f, _, _ = self.case(name)
        c = self.C if name == "complex" else 0.0
        mag = gaussian_lattice_stft_abs(grid.nodes(), grid.frequency_nodes(),
                                        self.AMP, self.A, self.B, c, grid.h)
        specs = [(1.5, quartic_lattice(grid, 1.5)), (FLAT, 1.0),
                 (0.75, quartic_lattice(grid, 0.75))]
        params = MixedNormParams(6.0, 2.0)
        got = modulation_norms(f, [s for s, _ in specs], quartic_osc, params)
        for value, (_, weight) in zip(got, specs):
            expected = mixed_norm_reference(mag, weight, 6.0, 2.0, grid.h,
                                            grid.frequency_cell)
            assert value == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("p", [2.0, INF], ids=_exponent_id)
    @pytest.mark.parametrize("at", [0, 1, 2])
    @pytest.mark.parametrize("name", ["real", "complex"])
    def test_overflowing_weight_raises_in_any_place(self, name, at, p):
        f, osc, _ = self.case(name)
        weights = [FLAT, 1.5]
        # (1 + x^2 + 2 pi |xi|)^400 overflows to inf away from the origin
        weights.insert(at, 400.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
            modulation_norms(f, weights, osc, MixedNormParams(p, 1.0))

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 6.0, 0.5, INF], ids=_exponent_id)
    def test_raw_reduction_leaves_the_shared_block(self, p):
        """A None lattice reduces the block that later weights receive: its
        p-th power must go to new arrays, so the next weight reduces the
        same magnitudes."""
        rng = np.random.default_rng(7)
        mag = rng.uniform(0.0, 3.0, (16, 24))
        kept = mag.copy()
        lattice = rng.uniform(0.5, 2.0, (16, 24))
        raw, again, weighted = _weighted_columns([(0, mag)], [None, None, lattice], p)
        assert np.array_equal(raw, again)
        if p is INF:
            assert np.array_equal(raw, kept.max(axis=0))
            assert np.array_equal(weighted, (kept * lattice).max(axis=0))
        else:
            assert raw == pytest.approx((kept ** p).sum(axis=0), rel=1e-14)
            assert weighted == pytest.approx(((kept * lattice) ** p).sum(axis=0), rel=1e-14)

    @pytest.mark.parametrize("p", [2.0, INF], ids=_exponent_id)
    def test_blocks_of_any_size(self, p):
        """A pruned pass clips its first block, so blocks differ in size, and
        a weight that is not the last weights a new product of each block,
        leaving the block for the last. Each weight's columns are, bit for
        bit, its per-block reductions added in order."""
        rng = np.random.default_rng(5)
        mag = rng.uniform(0.0, 3.0, (19, 24))
        lattices = [rng.uniform(0.5, 2.0, (19, 24)) for _ in range(2)]
        cuts = [(0, 5), (5, 13), (13, 19)]  # the first block is shorter than the second
        got = _weighted_columns([(lo, mag[lo:hi].copy()) for lo, hi in cuts], lattices, p)
        for lattice, columns in zip(lattices, got):
            parts = [_column_reduce(mag[lo:hi] * lattice[lo:hi], p) for lo, hi in cuts]
            expected = parts[0]
            for part in parts[1:]:
                expected = np.maximum(expected, part) if p is INF else expected + part
            assert np.array_equal(columns, expected)

    @pytest.mark.parametrize("p", [2.0, 4.0, 6.0], ids=_exponent_id)
    def test_raw_reduction_of_squared_moduli(self, p):
        """The same for squared moduli (``squared``, an even p): a None
        lattice reduces m^2 at the power p/2, and the next weight reduces
        the same block, weighted twice."""
        rng = np.random.default_rng(7)
        mag = rng.uniform(0.0, 3.0, (16, 24))
        lattice = rng.uniform(0.5, 2.0, (16, 24))
        raw, again, weighted = _weighted_columns([(0, mag ** 2)], [None, None, lattice], p,
                                                 squared=True)
        assert np.array_equal(raw, again)
        assert raw == pytest.approx((mag ** p).sum(axis=0), rel=1e-14)
        assert weighted == pytest.approx(((mag * lattice) ** p).sum(axis=0), rel=1e-14)

    @pytest.mark.parametrize("v,raises", [(1e300, False), (1e305, True)],
                             ids=["overflowing_sum", "overflowing_cell"])
    def test_cells_are_tested_when_the_sums_are_not_finite(self, v, raises):
        """Magnitudes 1e4 under the weight v: at v = 1e300 every weighted
        cell is finite and only the squares overflow, so the columns are
        inf; at v = 1e305 the weighted cells overflow and NumericalError is
        raised. Squared moduli are never tested: their inf columns are the
        caller's to measure again from magnitudes."""
        mag = np.full((2, 3), 1e4)
        lattice = np.full((2, 3), v)
        with np.errstate(over="ignore"):
            if raises:
                with pytest.raises(NumericalError):
                    _weighted_columns([(0, mag.copy())], [lattice], 2.0)
            else:
                [columns] = _weighted_columns([(0, mag.copy())], [lattice], 2.0)
                assert np.all(columns == np.inf)
            [squared] = _weighted_columns([(0, mag ** 2)], [lattice], 2.0, squared=True)
        assert np.all(squared == np.inf)

    @pytest.mark.parametrize("p", [2.0, 4.0, 6.0], ids=_exponent_id)
    def test_squared_blocks_of_any_size(self, p):
        """Squared blocks of differing rows, each weighted in a new product
        for every weight but the last: each weight's columns are, bit for
        bit, its per-block reductions of (m^2 v) v at the power p/2 added in
        order."""
        rng = np.random.default_rng(5)
        squares = rng.uniform(0.0, 9.0, (19, 24))
        lattices = [rng.uniform(0.5, 2.0, (19, 24)) for _ in range(2)]
        cuts = [(0, 5), (5, 13), (13, 19)]  # the first block is shorter than the second
        got = _weighted_columns([(lo, squares[lo:hi].copy()) for lo, hi in cuts], lattices, p,
                                squared=True)
        for lattice, columns in zip(lattices, got):
            parts = [_column_reduce(squares[lo:hi] * lattice[lo:hi] * lattice[lo:hi], p / 2.0)
                     for lo, hi in cuts]
            assert np.array_equal(columns, parts[0] + parts[1] + parts[2])

    def test_boundary_mass_warns_once_per_field(self):
        grid = Grid(128, 6.0)
        f = FieldSample(grid, np.ones(grid.points_per_axis))
        with pytest.warns(BoundaryMassWarning) as record:
            modulation_norms(f, [FLAT, 1.0, 2.0], HARMONIC, MixedNormParams(2.0, 2.0))
        assert len(record) == 1
        assert record[0].filename == __file__

    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (2.0, 1.0)], ids=_exponent_id)
    def test_no_weight_exponent_runs_no_pass(self, p, q, pass_ranges):
        assert modulation_norms(unit_gaussian(self.GRID), [], HARMONIC,
                                MixedNormParams(p, q)) == []
        assert pass_ranges == []


@pytest.mark.filterwarnings("ignore::anharmonic.errors.BoundaryMassWarning")
class TestL2Cap:
    """``_l2_cap`` C caps every modulation norm by the L^2 norm of the field:
    Cauchy-Schwarz gives |V_g f| <= ||f||_2 ||g||_2 on the lattice, and the
    lattice (quasi-)norm is monotone, so ||V_g f . v_s||_{L^{p,q}} <= C ||f||_2
    with C = ||g||_2 ||v_s||_{L^{p,q}}, for all 0 < p, q <= INF."""

    GRID = Grid(128, 10.0)

    @staticmethod
    def l2(f):
        return float(np.sqrt(f.grid.h * np.sum(np.abs(f.values) ** 2)))

    @staticmethod
    def field(kind):
        """Seeded noise over the whole box: its high frequencies meet the
        large weights, so a cap that dropped the weight would fall below the
        weighted norm."""
        grid = TestL2Cap.GRID
        re, im = np.random.default_rng(11).standard_normal((2, grid.points_per_axis))
        vals = {"even": re + re[::-1], "odd": re - re[::-1], "real": re}.get(kind, re + 1j * im)
        return FieldSample(grid, vals)

    @pytest.mark.parametrize("p,q", [(0.5, 0.5), (1.0, 0.5), (1.0, 1.0), (2.0, 1.0),
                                     (6.0, 2.0), (INF, INF)], ids=_exponent_id)
    @pytest.mark.parametrize("s", [FLAT, 0.02, 2.0], ids=["s0", "s0.02", "s2"])
    @pytest.mark.parametrize("kind", ["real", "complex", "even", "odd"])
    def test_bounds_the_exact_norm(self, kind, s, p, q):
        f = self.field(kind)
        params = MixedNormParams(p, q)
        exact = modulation_norm(f, s, HARMONIC, params)
        assert 0.0 < exact <= _l2_cap(s, HARMONIC, f.grid, params) * self.l2(f)

    @pytest.mark.parametrize("node,freq", [(0, 64), (37, 75), (90, 0), (127, 20)])
    def test_sharp_for_a_modulated_shifted_window(self, node, freq):
        """f = g(. - x_i) e^{2 pi i xi_n .} gives |V_g f(x_i, xi_n)| = ||g||_2^2
        = ||g||_2 ||f||_2, so at p = q = INF and s = 0 the cap is attained.
        It rounds up: never below the exact norm, and within 1e-12 of it.
        (freq 64 is xi = 0, a real field.)"""
        grid = self.GRID
        xi = grid.frequency_nodes()[freq]
        vals = np.roll(_gaussian_window_values(grid), node) * np.exp(2j * np.pi * xi * grid.nodes())
        f = FieldSample(grid, vals.real if xi == 0.0 else vals)
        params = MixedNormParams(INF, INF)
        exact = modulation_norm(f, FLAT, None, params)
        cap = _l2_cap(FLAT, None, grid, params) * self.l2(f)
        assert exact <= cap <= exact * (1.0 + 1e-12)

    def test_reduces_the_weight_lattice_in_blocks(self, hermite_grid, quartic_osc):
        """With the weight lattice cached, the constant allocates less than
        one (size, size) real lattice (2 MiB at 512 points)."""
        args = (2.0, quartic_osc, hermite_grid)
        _weight_lattice(*args)
        tracemalloc.start()
        try:
            _l2_cap.__wrapped__(*args, MixedNormParams(2.0, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < hermite_grid.points_per_axis ** 2 * 8 / 2


class TestPrunedRows:
    """A p = q = 2 norm runs only the x-shift rows of ``_kept_rows``. By DFT
    Parseval row i of the pass has squared norm N h^2 sum_j |f_j|^2
    g(z_j - x_i)^2, so with the weight's row min and max the rows left out
    carry at most 2^-54 of the squared norm. The references are direct loops
    over the aliased closed form of a Gaussian packet or over the dense
    transform of ``oracles.dense_stft``, and the full lattice
    ``mixed_norm(stft(f), ...)``, which runs every row."""

    GRID = Grid(512, 12.0)  # 64-row blocks: a kept range clips its first and last
    L2 = MixedNormParams(2.0, 2.0)
    # (a, b, c) of 2 e^{-a (t - b)^2} e^{2 pi i c t}
    PACKETS = {("narrow", "even"): (8.0, 0.0, 0.0), ("wide", "even"): (0.5, 0.0, 0.0),
               ("narrow", "real"): (8.0, 0.75, 0.0), ("wide", "real"): (0.5, -1.25, 0.0),
               ("narrow", "complex"): (8.0, 0.75, 1.5), ("wide", "complex"): (0.5, -1.25, -0.5)}

    def packet(self, width, kind):
        grid = self.GRID
        a, b, c = self.PACKETS[width, kind]
        x = grid.nodes()
        vals = 2.0 * np.exp(-a * (x - b) ** 2)
        f = FieldSample(grid, vals * np.exp(2j * np.pi * c * x) if c else vals)
        mag = gaussian_lattice_stft_abs(x, grid.frequency_nodes(), 2.0, a, b, c, grid.h)
        return f, mag

    def reference(self, mag, s):
        grid = self.GRID
        return mixed_norm_reference(mag, harmonic_lattice(grid, s), 2.0, 2.0, grid.h,
                                    grid.frequency_cell)

    def tail_packet(self):
        """A low-frequency core and, at x = 6, a high-frequency packet 1e-7
        as large: the rows of the packet carry tiny energy, but meet weights
        up to (1 + 6 + 2 pi 8)^4 at s = 2, so a bound that left out the
        weight's row max would drop them."""
        x = self.GRID.nodes()
        return FieldSample(self.GRID, np.exp(-x ** 2 / 2.0)
                           + 1e-7 * np.exp(-4.0 * (x - 6.0) ** 2) * np.cos(16.0 * np.pi * x))

    @pytest.mark.parametrize("kind", ["even", "real", "complex"])
    @pytest.mark.parametrize("width", ["narrow", "wide"])
    def test_against_the_closed_form(self, width, kind, pass_ranges):
        f, mag = self.packet(width, kind)
        n = self.GRID.points_per_axis
        s_values = [FLAT, 1.0, 2.0]
        shared = modulation_norms(f, s_values, HARMONIC, self.L2)
        for s, value in zip(s_values, shared):
            alone = modulation_norm(f, s, HARMONIC, self.L2)
            assert value == pytest.approx(self.reference(mag, s), rel=1e-14)
            assert abs(alone - value) <= 2 * np.spacing(value)
        first_row = n // 2 if kind == "even" else 0
        assert len(pass_ranges) == 1 + len(s_values)
        for start, stop in pass_ranges:  # rows left out (an even field's start is x = 0)
            assert first_row <= start < stop < n
            assert kind == "even" or start > 0

    @pytest.mark.parametrize("s", [-2.0, -1.0])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_negative_weight_exponent(self, kind, s):
        """For s < 0 the weight's row min sits at the highest frequency: the
        kept rows' lower bound must take it there."""
        f, mag = self.packet("narrow", kind)
        got = modulation_norm(f, s, HARMONIC, self.L2)
        assert got == pytest.approx(self.reference(mag, s), rel=1e-14)

    @pytest.mark.parametrize("s", [FLAT, 1.0, 2.0])
    def test_tail_rows_under_a_large_weight(self, s, pass_ranges):
        f = self.tail_packet()
        got = modulation_norm(f, s, HARMONIC, self.L2)
        expected = mixed_norm(stft(f), s, HARMONIC, self.L2)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(self.reference(dense_stft(f), s), rel=1e-14)
        [(start, stop), _] = pass_ranges
        assert 0 < start and stop < self.GRID.points_per_axis

    def test_tail_rows_are_kept(self):
        """The certificate keeps the rows of the tail packet (around row 384)
        that its energy alone would let go."""
        f = self.tail_packet()
        _, stop = _kept_rows(own_scale_frame(f), [2.0], HARMONIC)
        assert stop > 400

    def test_zero_field(self, pass_ranges):
        f = FieldSample(self.GRID, np.zeros(self.GRID.points_per_axis))
        assert modulation_norms(f, [FLAT, 2.0], HARMONIC, self.L2) == [0.0, 0.0]
        assert pass_ranges == [(self.GRID.points_per_axis // 2, self.GRID.points_per_axis)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_field_raises(self, bad):
        f, _ = self.packet("narrow", "complex")
        vals = np.array(f.values)
        vals[200] = bad
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            modulation_norm(FieldSample(self.GRID, vals), 2.0, HARMONIC, self.L2)

    def test_overflowing_weight_raises(self):
        f, _ = self.packet("narrow", "complex")
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
            modulation_norms(f, [FLAT, 400.0], HARMONIC, self.L2)

    def test_overflowing_norm_keeps_every_row(self, pass_ranges):
        """A field whose norm exceeds the double range gives inf, as the full
        pass does: 1e305 times the wide real packet, whose s = 4 norm is
        2.08e3 and whose largest weighted cell is 1.39e3, so every cell is
        finite and the norm, 2.1e308, is not. Its frame's pruned pass scales
        back to inf, and the magnitudes of the field itself are measured
        again over every row. A field whose norm is finite, 1e300 times the
        narrow packet (2.08e302), is measured."""
        f, _ = self.packet("narrow", "complex")
        large = modulation_norm(FieldSample(self.GRID, 1e300 * f.values), 2.0, HARMONIC,
                                self.L2)
        assert large == pytest.approx(2.0805347647963648e+302, rel=1e-14)
        f, _ = self.packet("wide", "real")
        huge = FieldSample(self.GRID, 1e305 * f.values)
        with np.errstate(over="ignore"):
            assert modulation_norm(huge, 4.0, HARMONIC, self.L2) == np.inf
        n = self.GRID.points_per_axis
        assert (0, n) not in pass_ranges[:2] and pass_ranges[2:] == [(0, n)]

    def test_boundary_mass_warns_and_keeps_every_row(self, pass_ranges):
        x = self.GRID.nodes()
        f = FieldSample(self.GRID, np.exp(-(x - 0.5) ** 2 / 50.0) * np.cos(x))
        with pytest.warns(BoundaryMassWarning):
            got = modulation_norm(f, 1.0, HARMONIC, self.L2)
        assert pass_ranges == [(0, self.GRID.points_per_axis)]
        with pytest.warns(BoundaryMassWarning):
            full = stft(f)
        assert got == pytest.approx(mixed_norm(full, 1.0, HARMONIC, self.L2), rel=1e-14)
        assert got == pytest.approx(self.reference(dense_stft(f), 1.0), rel=1e-14)

    @pytest.mark.parametrize("p,q", [(2.0, 1.0), (1.0, 2.0), (6.0, 2.0), (2.0, INF)],
                             ids=_exponent_id)
    def test_other_exponents_run_every_row(self, p, q, pass_ranges):
        f, _ = self.packet("narrow", "complex")
        modulation_norm(f, 2.0, HARMONIC, MixedNormParams(p, q))
        assert pass_ranges == [(0, self.GRID.points_per_axis)]

    def test_gap_columns_run_every_row(self, pass_ranges):
        """The unpruned column pass (the singular weight's) runs every row,
        whatever the exponents; ``modulation_norm`` at p = q = 2 takes the
        pruned rows."""
        f, _ = self.packet("narrow", "complex")
        [columns] = _modulation_columns(own_scale_frame(f), [2.0], HARMONIC, 2.0)
        full = _outer_reduce(columns, 2.0, 2.0, self.GRID.h, self.GRID.frequency_cell)
        assert pass_ranges == [(0, self.GRID.points_per_axis)]
        assert modulation_norm(f, 2.0, HARMONIC, self.L2) == pytest.approx(full, rel=1e-15)

    def test_probe_corpus_keeps_under_sixty_percent(self, pass_ranges):
        """The saving stays: the 15 seeded probes of the shipped algebra check,
        at s = 2, transform at most 60 % of their rows (about 40 % at this
        seed)."""
        fields = gaussian_probe_fields(self.GRID, 15, 1235)
        for f in fields:
            modulation_norm(f, 2.0, HARMONIC, self.L2)
        rows = sum(stop - start for start, stop in pass_ranges)
        assert len(pass_ranges) == 15
        assert rows <= 0.6 * 15 * self.GRID.points_per_axis


class TestBlockGrid:
    """``_stft_blocks`` runs any row range on one grid of max(1, 2^15 / N)
    rows from row 0, its first and last block clipped to the range. Interior
    block edges on that grid keep a norm's column sums in the order of the
    full pass, and every block holds the full pass's rows bit for bit."""

    @pytest.mark.parametrize("n", [128, 256, 512, 1024])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_ranges_run_on_one_grid(self, kind, n, pass_ranges):
        grid = Grid(n, 12.0)
        x = grid.nodes()
        vals = 2.0 * np.exp(-8.0 * (x - 0.75) ** 2)
        real = kind == "real"
        f = FieldSample(grid, vals if real else vals * np.exp(3j * np.pi * x))
        kept = _kept_rows(own_scale_frame(f), [FLAT], None)
        assert 0 < kept[0] and kept[1] < n  # clipped at both ends
        full = np.concatenate([b for _, b in phasespace._stft_blocks(f, real, (0, n))])
        for rows in [(n // 2, n), kept]:
            for lo, block in phasespace._stft_blocks(f, real, rows):
                assert block.tobytes() == full[lo:lo + block.shape[0]].tobytes()
        assert pass_ranges == [(0, n), (n // 2, n), kept]
        height = max(1, 2 ** 15 // n)
        for blocks in pass_ranges.blocks:
            assert all(rows <= height for _, rows in blocks)
            assert all(lo % height == 0 for lo, _ in blocks[1:])


PASS_PAIRS = [(0.5, 0.5), (1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (3.0, 3.0), (6.0, 2.0),
              (INF, 1.0), (2.0, INF)]


class TestSquaredModulusPass:
    """The streamed norms reduce the squared moduli of unscaled FFT blocks,
    with h applied to the column sums once. The reference is the dense
    transform of ``oracles.dense_stft`` reduced by the direct loops of
    ``mixed_norm_reference``, neither of which shares code with the pass."""

    GRID = Grid(256, 8.0)  # two row blocks of the streamed pass
    WEIGHTS = [FLAT, 0.02, 2.0]

    @classmethod
    def field(cls, family, kind):
        """A seeded noise field, whose transform is of the order of its peak
        in every cell, or a Gaussian packet, which decays to round-off; each
        complex, real, or real and bitwise even or odd."""
        x = cls.GRID.nodes()
        if family == "noise":
            rng = np.random.default_rng(11)
            values = rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
        else:
            values = 1.5 * np.exp(-2.0 * (x - 0.75) ** 2) * np.exp(1j * np.pi * x)
        real = values.real
        return FieldSample(cls.GRID, {"complex": values, "real": real,
                                      "even": real + real[::-1],
                                      "odd": real - real[::-1]}[kind])

    # A packet's quasi-norm at p = q = 1/2 is set by the round-off of its
    # far cells, raised to the power 1/2: the streamed and the dense
    # transform differ there by 1e-7 to 1e-6, which no reduction can
    # change, so the packets take the exponents from 1 up and the noise
    # fields all.
    CASES = [(family, kind, p, q) for family in ("noise", "packet")
             for kind in ("complex", "real", "even", "odd")
             for p, q in PASS_PAIRS if family == "noise" or p != 0.5]

    @pytest.mark.filterwarnings("ignore::anharmonic.errors.BoundaryMassWarning")
    @pytest.mark.parametrize("family,kind,p,q", CASES,
                             ids=[f"{fam}-{kind}-{_exponent_id(p)}-{_exponent_id(q)}"
                                  for fam, kind, p, q in CASES])
    def test_against_the_dense_transform(self, family, kind, p, q):
        grid = self.GRID
        f = self.field(family, kind)
        dense = dense_stft(f)
        params = MixedNormParams(p, q)
        shared = modulation_norms(f, self.WEIGHTS, HARMONIC, params)
        for s, value in zip(self.WEIGHTS, shared):
            expected = mixed_norm_reference(dense, harmonic_lattice(grid, s), _oracle_exponent(p),
                                            _oracle_exponent(q), grid.h, grid.frequency_cell)
            assert value == pytest.approx(expected, rel=1e-12)
            assert modulation_norm(f, s, HARMONIC, params) == pytest.approx(expected,
                                                                             rel=1e-12)

    # A field whose peak is below 1 is measured as 2^-e f with its peak in
    # [1/2, 1), and the norm is scaled back by 2^e: every 2^-k f is measured
    # as the same field, far below where its squared moduli (2^-1200 at
    # k = 600) or its powers would underflow.
    @pytest.mark.parametrize("p,q", [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0), (2.0, 1.0),
                                     (6.0, 2.0), (INF, 1.0), (3.0, INF)], ids=_exponent_id)
    @pytest.mark.parametrize("kind", ["complex", "even"])
    def test_tiny_fields_scale_exactly(self, kind, p, q):
        grid = Grid(512, 12.0)
        x = grid.nodes()
        values = 0.8 * np.exp(-2.0 * x ** 2)
        if kind == "complex":
            values = values * np.exp(2j * np.pi * 0.5 * (x - 0.75))
        params = MixedNormParams(p, q)
        base = modulation_norm(FieldSample(grid, values), 1.0, HARMONIC, params)
        for k in (1, 100, 520, 600, 700):
            tiny = np.ldexp(values.real, -k) + 1j * np.ldexp(values.imag, -k)
            got = modulation_norm(FieldSample(grid, tiny), 1.0, HARMONIC, params)
            assert got == math.ldexp(base, -k), k

    # The unit Gaussian on 512 points, and 2^-600 times it, under v_s of
    # exponent s = 90 to 150: the norms of the magnitude reduction (np.abs,
    # h on every cell), to 1e-13, inf where they are inf and NumericalError
    # where a weighted cell is not finite. The pass weights by v_s itself,
    # twice for an even p; a lattice of v_{s p} would overflow here (v_180
    # does), and the norms would come out NaN. The small field is measured
    # scaled to its peak in [1/2, 1), which overflows at s = 100 and 120
    # although its magnitudes do not, so it is measured again from them.
    LARGE_WEIGHTS = {
        ("harmonic", 90.0, 0): [3.622538243880981e+148, 2.5090557750166657e+148,
                                3.932764337668386e+148, 3.1204726487323316e+148],
        ("harmonic", 100.0, 0): [np.inf, np.inf, 8.269167761035274e+166,
                                 6.536920583622063e+166],
        ("harmonic", 150.0, 0): [np.inf, np.inf, 4.016953195879142e+258,
                                 3.137426403563682e+258],
        ("quartic", 90.0, 0): [3.4617142248017845e+148, 2.4002662278971946e+148,
                               3.157730130417974e+148, 4.083416046614128e+148],
        ("quartic", 100.0, 0): [np.inf, np.inf, 7.03800482400054e+166,
                                1.1005738923456827e+167],
        ("quartic", 150.0, 0): [NumericalError] * 4,
        ("harmonic", 100.0, 600): [1.8874335889997583e-14, 1.2544355716927593e-14,
                                   1.9928031655187246e-14, 1.575345477107075e-14],
        ("quartic", 120.0, 600): [2.800510781147678e+23, 1.7421834753349176e+23,
                                  1.5309306055809605e+23, 4.271654839619002e+23],
        ("quartic", 150.0, 600): [NumericalError] * 4,
    }

    @pytest.mark.parametrize("osc,s,k", list(LARGE_WEIGHTS),
                             ids=[f"{o}-{s:g}-{k}" for o, s, k in LARGE_WEIGHTS])
    def test_large_weight_exponents(self, osc, s, k, quartic_osc):
        grid = Grid(512, 12.0)
        f = FieldSample(grid, np.ldexp(unit_gaussian(grid).values.real, -k))
        oscillator = HARMONIC if osc == "harmonic" else quartic_osc
        pairs = [(2.0, 2.0), (2.0, 1.0), (INF, 1.0), (1.0, 1.0)]
        for (p, q), expected in zip(pairs, self.LARGE_WEIGHTS[osc, s, k]):
            with np.errstate(over="ignore", invalid="ignore"):
                if expected is NumericalError:
                    with pytest.raises(NumericalError):
                        modulation_norm(f, s, oscillator, MixedNormParams(p, q))
                    continue
                got = modulation_norm(f, s, oscillator, MixedNormParams(p, q))
            assert got == pytest.approx(expected, rel=1e-13), (p, q)

    # s = 90..100 in steps of 1/4 crosses the overflow of the unit
    # Gaussian's (2, 2) norm on 512 points (between s = 92.25 and 92.5).
    # Squared moduli and h^p on the column sums overflow below s = 92.25
    # too (the sums of (|V_g f| v_s)^2 stand 1/h^2 above those of
    # (h |V_g f| v_s)^2), and so does the field 2^-600 times the Gaussian,
    # measured scaled to peak 1/2; each such norm must be measured again
    # from the magnitudes |h V_g f| of the same pass. (At these weights the
    # norm is set by the round-off of the far cells, so a dense transform,
    # with its own round-off, differs from the pass by up to 5 %.)
    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (6.0, 2.0), (4.0, 4.0), (1.0, 1.0)],
                             ids=_exponent_id)
    @pytest.mark.parametrize("k", [0, 600])
    def test_overflow_edge_follows_the_magnitudes(self, k, p, q):
        grid = Grid(512, 12.0)
        f = FieldSample(grid, np.ldexp(unit_gaussian(grid).values.real, -k))
        params, prune = MixedNormParams(p, q), (p, q) == (2.0, 2.0)
        outcomes = []
        for s in np.arange(90.0, 100.125, 0.25):
            with np.errstate(over="ignore", invalid="ignore"):
                [columns] = _modulation_columns(own_scale_frame(f), [s], HARMONIC, p, prune)
                expected = _outer_reduce(columns, p, q, grid.h, grid.frequency_cell)
                got = modulation_norm(f, s, HARMONIC, params)
            if np.isfinite(expected):
                assert got == pytest.approx(expected, rel=1e-13), s
            else:
                assert got == expected, s
            outcomes.append(np.isfinite(expected))
        if k == 0 and p == 2.0:  # the edge is inside the scan
            assert outcomes[0] and not outcomes[-1]


BOUND_PAIRS = [(0.5, 0.5), (1.0, 0.5), (1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (6.0, 2.0),
               (INF, 1.0), (INF, INF)]


class TestStateBound:
    """``_state_bound`` certifies a state's modulation norm from O(N) sums:
    every cell is at most min(r_i, c_n), the triangle inequality over the
    samples and after the DFT convolution theorem, plus the FFT round-off
    floor of its row; the lattice (quasi-)norm is monotone, so the reduced
    cell bounds bound the norm for every 0 < p, q <= INF."""

    GRID = Grid(128, 10.0)

    @staticmethod
    def field(kind):
        """Seeded fields over the whole box. Noise meets the large weights at
        the high frequencies and leaves the bound loose; for a nonnegative
        field the row bound is the xi = 0 column itself, so there the bound
        is tight up to the round-off that its floor and slack cover."""
        grid = TestStateBound.GRID
        re, im = np.random.default_rng(17).standard_normal((2, grid.points_per_axis))
        x = grid.nodes()
        bumps = np.exp(-(x - 1.5) ** 2) + 0.5 * np.exp(-2.0 * (x + 2.0) ** 2)
        return FieldSample(grid, {"real": re, "complex": re + 1j * im, "even": re + re[::-1],
                                  "odd": re - re[::-1], "nonnegative": np.abs(re),
                                  "bumps": bumps, "even bumps": bumps + bumps[::-1]}[kind])

    @pytest.mark.parametrize("p,q", BOUND_PAIRS, ids=_exponent_id)
    @pytest.mark.parametrize("s", [FLAT, 0.02, 2.0], ids=["s0", "s0.02", "s2"])
    @pytest.mark.parametrize("kind", ["real", "complex", "even", "odd", "nonnegative",
                                      "bumps", "even bumps"])
    def test_bounds_the_exact_norm(self, kind, s, p, q):
        f = self.field(kind)
        params = MixedNormParams(p, q)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryMassWarning)
            exact = modulation_norm(f, s, HARMONIC, params)
        bound = _state_bound(f, s, HARMONIC, params)
        assert 0.0 < exact <= bound

    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_tight_for_nonnegative_fields_at_the_sup(self, n):
        """For a nonnegative field at p = q = INF and s = 0 the largest cell
        bound is a row bound r_i, which the pass forms as its xi = 0 bin by
        FFT: the two tie up to round-off, which the floor and the slack
        cover, and the bound stays within 1e-12 of the norm."""
        grid = Grid(n, 10.0)
        params = MixedNormParams(INF, INF)
        for seed in range(10):
            f = FieldSample(grid, np.abs(np.random.default_rng(seed).standard_normal(n)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BoundaryMassWarning)
                exact = modulation_norm(f, FLAT, None, params)
            assert exact <= _state_bound(f, FLAT, None, params) <= exact * (1.0 + 1e-12)

    @pytest.mark.parametrize("p,q", BOUND_PAIRS, ids=_exponent_id)
    @pytest.mark.parametrize("s", [FLAT, 2.0, 10.0], ids=["s0", "s2", "s10"])
    def test_bounds_the_closed_form(self, s, p, q):
        """The Gaussian e^{-x^2/2} against direct loops over its aliased
        lattice transform, under the harmonic weight built here."""
        grid = Grid(128, 8.0)
        x = grid.nodes()
        mag = gaussian_lattice_stft_abs(x, grid.frequency_nodes(), 1.0, 0.5, 0.0, 0.0, grid.h)
        expected = mixed_norm_reference(mag, harmonic_lattice(grid, s), _oracle_exponent(p),
                                        _oracle_exponent(q), grid.h, grid.frequency_cell)
        bound = _state_bound(FieldSample(grid, np.exp(-x ** 2 / 2.0)), s, HARMONIC,
                             MixedNormParams(p, q))
        assert expected <= bound

    @pytest.mark.parametrize("monitor,ratio", [((2.0, 1.0, 2.0), 1.5302),
                                               ((6.0, 2.0, 0.02), 1.0773)],
                             ids=["power", "inhomogeneous"])
    @pytest.mark.parametrize("scale", [0.05, 1.0, 2.0 ** -600])
    def test_tight_on_the_shipped_monitors(self, monitor, ratio, scale):
        """On the flows' grid and initial shape the bound stands a fixed
        factor above the exact norm (a field of peak below 1 is bounded at
        a power-of-two scale, as it is measured)."""
        grid = Grid(512, 12.0)
        p, q, s = monitor
        f = FieldSample(grid, scale * np.exp(-grid.nodes() ** 2 / 2.0))
        params = MixedNormParams(p, q)
        exact = modulation_norm(f, s, HARMONIC, params)
        assert _state_bound(f, s, HARMONIC, params) / exact == pytest.approx(ratio, abs=1e-4)

    @pytest.mark.parametrize("p,q", BOUND_PAIRS, ids=_exponent_id)
    @pytest.mark.parametrize("s", [FLAT, 2.0], ids=["s0", "s2"])
    def test_a_batch_is_each_field_alone(self, s, p, q):
        """``_state_bounds`` over one batch of every seeded kind (three
        layouts), a zero and a non-finite field gives each field the bound
        ``_state_bound`` gives it alone, bit for bit, and each bounds the
        exact norm."""
        kinds = ["real", "complex", "even", "odd", "nonnegative", "bumps", "even bumps"]
        fields = [self.field(kind) for kind in kinds]
        n = self.GRID.points_per_axis
        bad = np.ones(n)
        bad[3] = np.nan
        batch = np.array([f.values for f in fields] + [np.zeros(n), bad], dtype=complex)
        params = MixedNormParams(p, q)
        bounds = _state_bounds(_frame(batch), self.GRID, s, HARMONIC, params)
        alone = [_state_bound(FieldSample(self.GRID, v), s, HARMONIC, params) for v in batch]
        assert list(bounds) == alone
        assert bounds[-2] == 0.0 and bounds[-1] == np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryMassWarning)
            exact = [modulation_norm(f, s, HARMONIC, params) for f in fields]
        assert np.all(np.array(exact) <= bounds[:-2])

    def test_zero_and_non_finite_fields(self):
        n = self.GRID.points_per_axis
        params = MixedNormParams(2.0, 1.0)
        assert _state_bound(FieldSample(self.GRID, np.zeros(n)), 2.0, HARMONIC, params) == 0.0
        for bad in (np.inf, np.nan):
            vals = np.ones(n)
            vals[5] = bad
            assert _state_bound(FieldSample(self.GRID, vals), 2.0, HARMONIC, params) == np.inf

    def test_overflow_gives_inf(self):
        """A bound that overflows is inf, with no NumericalError and no
        numpy warning: the flow then takes the exact norm. The bound of
        e^{-x^2} is 16.7 under (6, 2, s = 2), so at 1e308 times it the bound
        overflows and at 1e300 times it is finite."""
        gaussian = np.exp(-self.GRID.nodes() ** 2)
        params = MixedNormParams(6.0, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _state_bound(FieldSample(self.GRID, 1e308 * gaussian), 2.0, HARMONIC,
                                params) == np.inf
            large = _state_bound(FieldSample(self.GRID, 1e300 * gaussian), 2.0, HARMONIC,
                                 params)
        assert large == pytest.approx(1.665e301, rel=1e-3)


FRAME_PAIRS = [(0.5, 0.5), (1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (3.0, 3.0), (6.0, 2.0),
               (INF, 1.0)]


class TestOneFrame:
    """Every streamed norm and bound measures a field in one frame, 2^-e f
    with its peak in [1/2, 1), and scales the value back once, so both are
    homogeneous bit for bit under any power of two, tiny or large, wherever
    the scaled value is finite. A square-overflow gate used to send a large
    field to the magnitudes, whose power sums overflowed: the unit Gaussian
    read inf from 2^168 under (6, 2, s = 2) (norm 4.9e51), from 2^336
    under (3, 3) and from 2^508 at p = 2."""

    GRID = Grid(512, 12.0)
    POWERS = sorted(set(range(-700, 1001, 50)) | {168, 336, 508})

    @pytest.mark.parametrize("p,q", FRAME_PAIRS, ids=_exponent_id)
    @pytest.mark.parametrize("s", [FLAT, 2.0], ids=["s0", "s2"])
    def test_powers_of_two_scale_exactly(self, s, p, q):
        values = np.exp(-self.GRID.nodes() ** 2 / 2.0)
        params = MixedNormParams(p, q)
        measures = [lambda f: modulation_norm(f, s, HARMONIC, params),
                    lambda f: _state_bound(f, s, HARMONIC, params)]
        bases = [measure(FieldSample(self.GRID, values)) for measure in measures]
        for k in self.POWERS:
            f = FieldSample(self.GRID, np.ldexp(values, k))
            for measure, base in zip(measures, bases):
                try:
                    expected = math.ldexp(base, k)
                except OverflowError:
                    continue
                assert measure(f) == expected, k

    def test_only_the_frame_reads_the_scale(self):
        """``math.frexp`` is the scale rule of ``phasespace._frame``, and
        nothing else under src/ reads an exponent: a second scale rule
        would measure some field at another scale."""
        found = []
        for path in sorted(Path(ah.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            frames = [node for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef) and node.name == "_frame"]
            inside = {id(node) for frame in frames for node in ast.walk(frame)}
            found += [(path.name, id(node) in inside) for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr == "frexp"
                      or isinstance(node, ast.Name) and node.id == "frexp"]
        assert found == [("phasespace.py", True)]

    def test_one_frame_per_measured_value(self, monkeypatch):
        """A measured value derives its field's scale, peak and layout once:
        one ``_frame`` and one ``_reflection_parity`` for a norm (its
        boundary-mass check included), a list of norms from one pass, a
        transform (for its boundary-mass check) and a state bound, and two
        for the singular weight's pair of truncations.
        The pass, its row pruning and the singular weight used to frame the
        field a second time."""
        calls = []

        def counted(name, function):
            def wrapper(*args):
                calls.append(name)
                return function(*args)
            return wrapper

        monkeypatch.setattr(phasespace, "_reflection_parity",
                            counted("parity", phasespace._reflection_parity))
        framed = counted("frame", phasespace._frame)
        monkeypatch.setattr(phasespace, "_frame", framed)
        f = FieldSample(self.GRID, np.exp(-self.GRID.nodes() ** 2 / 2.0))  # real and even
        l2 = MixedNormParams(2.0, 2.0)
        measures = {
            "modulation_norm": lambda: modulation_norm(f, 2.0, HARMONIC, l2),
            "modulation_norms": lambda: modulation_norms(f, [FLAT, 1.0, 2.0], HARMONIC, l2),
            "stft": lambda: stft(f),
            "state_bound": lambda: _state_bound(f, 2.0, HARMONIC, l2),
            "singular_weight_norm": lambda: ah.singular_weight_norm(
                0.3, MixedNormParams(3.0, 3.0), 0.5, 6.0, grid=self.GRID, osc=HARMONIC),
        }
        counts = {}
        for name, measure in measures.items():
            calls.clear()
            measure()
            counts[name] = (calls.count("frame"), calls.count("parity"))
        assert counts == {"modulation_norm": (1, 1), "modulation_norms": (1, 1),
                          "stft": (1, 1), "state_bound": (1, 1),
                          "singular_weight_norm": (2, 2)}
