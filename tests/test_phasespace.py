import tracemalloc
import warnings

import numpy as np
import pytest

import anharmonic as ah
from anharmonic import (INF, BoundaryMassWarning, FieldSample, Grid,
                        InvalidSpecError, MixedNormParams, NumericalError,
                        PhaseSpaceField, apply_conjugation, mixed_norm,
                        modulation_norm, modulation_norms, stft, weight_value)
from anharmonic.phasespace import (_gaussian_conj_table, _gaussian_window_values, _l2_cap,
                                   _modulation_columns, _weight_lattice, _weighted_columns)
from oracles import (gaussian_lattice_stft_abs, gaussian_window_transform_abs,
                     mixed_norm_reference)

FLAT = 0.0  # the weight exponent of the flat weight
HARMONIC = ah.hermite_oscillator()


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
    ``mixed_norm(stft(f), ...)``, which runs every row."""

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
    def test_matches_full_lattice(self, parity, s, p, q, grid, pass_starts):
        f = self.field(grid, parity)
        params = MixedNormParams(p, q)
        expected = mixed_norm(stft(f), s, HARMONIC, params)
        got = modulation_norm(f, s, HARMONIC, params)
        assert pass_starts == [0, grid.points_per_axis // 2]  # stft runs every row
        assert got == pytest.approx(expected, rel=1e-13)

    def test_perturbed_node_takes_the_full_pass(self, pass_starts):
        """One node moved by one ulp breaks the symmetry: every row is run and
        the value is the full pass's, bit for bit (pinned before the half-row
        pass existed)."""
        grid = Grid(512, 12.0)
        vals = np.array(self.field(grid, "even").values.real)
        k = grid.points_per_axis // 4
        vals[k] = np.nextafter(vals[k], np.inf)
        got = modulation_norm(FieldSample(grid, vals), 1.5, HARMONIC,
                              MixedNormParams(2.0, 1.0))
        assert pass_starts == [0]
        assert got == 15.81629462367387


class TestColumnOrder:
    """``_modulation_columns`` gives one column per xi node in ascending
    order, whatever order its pass reduces in: the column sums of p-th
    powers (column max for INF) of the weighted |stft(f)|. A rough field
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
        w = np.abs(stft(f).values) * weights
        expected = w.max(axis=0) if p is INF else (w ** p).sum(axis=0)
        [got] = _modulation_columns(f, [s], osc, p)
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

    @pytest.mark.parametrize("transform", ["stft", "modulation_norm", "singular_weight_norm"])
    def test_boundary_mass_warns_at_caller(self, transform):
        grid = Grid(128, 6.0)
        f = FieldSample(grid, np.ones(grid.points_per_axis))
        params = MixedNormParams(2.0, 2.0)
        with pytest.warns(BoundaryMassWarning) as record:
            if transform == "stft":
                stft(f)
            elif transform == "modulation_norm":
                modulation_norm(f, FLAT, None, params)
            else:
                # truncated at the half-width, |x|^(-1/2) reaches the box edge
                ah.singular_weight_norm(0.5, params, FLAT, 6.0, grid=grid)
        assert len(record) == 1
        assert record[0].filename == __file__

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

    def test_boundary_mass_warns_once_per_field(self):
        grid = Grid(128, 6.0)
        f = FieldSample(grid, np.ones(grid.points_per_axis))
        with pytest.warns(BoundaryMassWarning) as record:
            modulation_norms(f, [FLAT, 1.0, 2.0], HARMONIC, MixedNormParams(2.0, 2.0))
        assert len(record) == 1
        assert record[0].filename == __file__


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
        vals = _gaussian_conj_table(grid)[node] * np.exp(2j * np.pi * xi * grid.nodes())
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
