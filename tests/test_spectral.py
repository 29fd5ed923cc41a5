import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

import anharmonic as ah
from anharmonic import (FieldSample, Grid, InvalidSpecError, NonConvergenceError, NumericalError,
                        OscillatorSpec, bohr_sommerfeld_eigenvalues, decompose,
                        evaluate_potential, growth_target, spectral)
from anharmonic.spectral import real_matmul

from oracles import (QUARTIC_LAMBDA0, dense_operator, hermite_function,
                     parity_blocks_by_gather, symbol_sublevel_area)


class TestGrid:
    def test_staggered_nodes_exclude_origin(self, hermite_grid):
        x = hermite_grid.nodes()
        assert np.min(np.abs(x)) > 0
        assert x[0] == pytest.approx(-12.0 + hermite_grid.h / 2)

    @pytest.mark.parametrize("half_width", [12.0, 7.77, 0.1, np.pi])
    def test_nodes_mirror_exactly(self, half_width):
        x = Grid(64, half_width).nodes()
        assert np.array_equal(x[::-1], -x)
        h = 2.0 * half_width / 64
        np.testing.assert_allclose(x, -half_width + (np.arange(64) + 0.5) * h,
                                   rtol=0, atol=4e-16 * half_width)

    def test_cell_width(self, hermite_grid):
        assert hermite_grid.h == pytest.approx(24.0 / 512)

    def test_frequency_lattice(self, hermite_grid):
        xi = hermite_grid.frequency_nodes()
        assert len(xi) == 512
        assert xi[1] - xi[0] == pytest.approx(1.0 / 24.0)
        assert np.all(np.diff(xi) > 0)

    def test_power_of_two_required(self):
        with pytest.raises(InvalidSpecError):
            Grid(500, 12.0)

    def test_nodes_are_one_axis(self):
        g = Grid(16, 5.0)
        assert g.nodes().shape == (16,) and g.frequency_nodes().shape == (16,)



REFLECTION_CASES = {
    "iso_power_d1": (ah.hermite_oscillator(), Grid(64, 7.77)),
    "quartic_d1": (OscillatorSpec(2, 1), Grid(64, 5.3)),
    "k3_l2_d1": (OscillatorSpec(3, 2), Grid(64, 0.1)),
    "l2_d1": (OscillatorSpec(1, 2), Grid(64, 4.3)),
    "k2_l2_d1": (OscillatorSpec(2, 2), Grid(16, np.pi)),
    "l3_d1": (OscillatorSpec(1, 3), Grid(32, 5.3)),
}


def _nodal_potential(osc, grid):
    return np.asarray(evaluate_potential(osc, grid.nodes()), dtype=float)


class TestGridOperator:
    """decompose builds the parity blocks and applies H by FFT; the dense
    matrix of tests/oracles.py is the reference for both."""

    @pytest.mark.parametrize("name", list(REFLECTION_CASES))
    def test_commutes_with_reflection(self, name):
        """Reversing the node index is x -> -x; the half-widths are not
        dyadic, so the nodes and the potential must be symmetric bit for bit."""
        osc, grid = REFLECTION_CASES[name]
        v = _nodal_potential(osc, grid)
        assert np.array_equal(v, v[::-1])
        a = dense_operator(osc, grid)
        assert np.array_equal(a, a[::-1, ::-1])

    @pytest.mark.parametrize("name", list(REFLECTION_CASES))
    def test_blocks_are_cut_from_the_dense_operator(self, name):
        """E = A11 + A12 J and O = A11 - A12 J bit for bit, each symmetric."""
        osc, grid = REFLECTION_CASES[name]
        a = dense_operator(osc, grid)
        half = grid.points_per_axis // 2
        a11, a12j = a[:half, :half], a[:half, half:][:, ::-1]
        even, odd = spectral._parity_blocks(spectral._kinetic_multiplier(osc, grid),
                                            _nodal_potential(osc, grid), grid)
        assert np.array_equal(even, a11 + a12j) and np.array_equal(odd, a11 - a12j)
        assert np.array_equal(even, even.T) and np.array_equal(odd, odd.T)

    @pytest.mark.parametrize("k,l,n,half_width", [
        (1, 1, 512, 12.0), (2, 1, 512, 12.0), (1, 2, 128, 10.0), (3, 1, 64, 7.77),
        (1, 1, 8, 3.0)])
    def test_blocks_match_the_index_gather(self, k, l, n, half_width):
        """Each yielded block, copied from strided views of the kernel, equals
        the index-array gather of tests/oracles.py bit for bit."""
        osc, grid = OscillatorSpec(k, l), Grid(n, half_width)
        args = (spectral._kinetic_multiplier(osc, grid), _nodal_potential(osc, grid), grid)
        for got, expected in zip(spectral._parity_blocks(*args),
                                 parity_blocks_by_gather(*args), strict=True):
            assert got.flags.c_contiguous and np.array_equal(got, expected)

    @pytest.mark.parametrize("name", list(REFLECTION_CASES))
    def test_fft_application_matches_the_dense_operator(self, name):
        osc, grid = REFLECTION_CASES[name]
        a = dense_operator(osc, grid)
        x = np.random.default_rng(3).standard_normal((grid.points_per_axis, 5))
        got = spectral._apply_operator(spectral._kinetic_multiplier(osc, grid),
                                       _nodal_potential(osc, grid), grid, x)
        expected = a @ x
        np.testing.assert_allclose(got, expected, rtol=0,
                                   atol=1e-12 * np.max(np.abs(expected)))

    def test_kinetic_block_is_circulant_with_known_spectrum(self, hermite_osc):
        # subtracting the potential diagonal leaves the kinetic circulant,
        # whose eigenvalues are exactly the multiplier values |pi n / L|^2
        grid = Grid(64, 8.0)
        a = dense_operator(hermite_osc, grid)
        x = grid.nodes()
        kin = a - np.diag(x ** 2)
        eig = np.sort(np.linalg.eigvalsh(kin))
        n = np.fft.fftfreq(64, d=1.0 / 64)
        expected = np.sort((np.pi * n / 8.0) ** 2)
        np.testing.assert_allclose(eig, expected, atol=1e-9)

    def test_size_cap(self, hermite_osc):
        with pytest.raises(InvalidSpecError):
            decompose(hermite_osc, Grid(8192, 12.0))

    @pytest.mark.parametrize("m,message", [(0, "m must be an integer >= 1"),
                                           (65, r"mode count m=65 outside \[1, 64\]"),
                                           (1.5, "m must be an integer >= 1"),
                                           (True, "m must be an integer >= 1")],
                             ids=["0", "65", "1.5", "True"])
    def test_mode_count_is_an_integer_in_range(self, hermite_osc, m, message):
        """m lies in [1, n]; a bool is not a count, though it subclasses int."""
        with pytest.raises(ValueError, match=message) as exc:
            decompose(hermite_osc, Grid(64, 8.0), m)
        assert exc.value.field == "m"

    def test_potential_evaluated_once(self, hermite_osc, monkeypatch):
        calls = []
        evaluate = spectral.evaluate_potential

        def counted(*args):
            calls.append(1)
            return evaluate(*args)

        monkeypatch.setattr(spectral, "evaluate_potential", counted)
        decompose(hermite_osc, Grid(64, 8.0), 16)
        assert len(calls) == 1


def scale_test_values(grid):
    """A complex Gaussian packet with a little mass off 48 harmonic modes."""
    x = grid.nodes()
    return np.exp(-x ** 2 / 2.0) * (1.0 + 0.3j * np.sin(7.0 * x))


class TestDecomposition:
    def test_hermite_eigenvalues(self, hermite_dec):
        j = np.arange(21)
        np.testing.assert_allclose(hermite_dec.eigenvalues[:21], 2 * j + 1,
                                   rtol=1e-6)

    def test_refinement_stability(self, hermite_dec, hermite_dec_fine):
        a = hermite_dec.eigenvalues[:21]
        b = hermite_dec_fine.eigenvalues[:21]
        assert np.max(np.abs(a - b) / a) <= 1e-6

    def test_eigenfunctions_match_hermite_functions(self, hermite_dec, hermite_grid):
        """The sign gauge (largest entry on x > 0 is positive) is the sign of
        the Hermite function, so no sign is fixed up here."""
        x = hermite_grid.nodes()
        for j in range(20):
            ref = hermite_function(j, x)
            got = hermite_dec.eigenfunction(j).values.real
            assert np.max(np.abs(got - ref)) < 1e-9, j

    def test_orthonormality(self, hermite_dec, hermite_grid):
        phi = hermite_dec.eigenvectors[:, :50]
        gram = hermite_grid.h * (phi.T @ phi)
        np.testing.assert_allclose(gram, np.eye(50), atol=1e-9)

    def test_coefficients_reconstruct_roundtrip(self, hermite_dec, gaussian_field):
        c = hermite_dec.coefficients(gaussian_field)
        rec = hermite_dec.reconstruct(c)
        # the Gaussian probe lies in the retained span up to 1e-6
        gap = FieldSample(hermite_dec.grid, rec.values - gaussian_field.values)
        assert gap.norm_l2() <= 1e-6 * gaussian_field.norm_l2()

    def test_span_residual_small_for_gaussian(self, hermite_dec, gaussian_field):
        assert hermite_dec.span_residual_fraction(gaussian_field) <= 1e-6

    @pytest.mark.parametrize("scale", [1e160, 1e-300], ids=["overflow", "underflow"])
    def test_span_residual_at_extreme_scales(self, small_dec, scale):
        """A grid-scale oscillation lies off the 48 modes (fraction 1.0 at
        scale 1). At 1e160 its raw squares overflow and the fraction read
        NaN with no OffSpanWarning; at 1e-300 they underflow and it read
        0.0. In the field's frame it reads 1.0 and warns at either end."""
        values = np.cos(np.pi * np.arange(small_dec.grid.points_per_axis))
        base = small_dec.span_residual_fraction(FieldSample(small_dec.grid, values))
        f = FieldSample(small_dec.grid, scale * values)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            frac = small_dec.span_residual_fraction(f)
            ah.heat_semigroup(small_dec, 1.0, 0.1, f)
        assert frac == pytest.approx(base, rel=1e-12) and base == pytest.approx(1.0, abs=1e-9)
        assert [w.category for w in caught] == [ah.OffSpanWarning]

    @pytest.mark.parametrize("k", [-560, 540])
    def test_norm_l2_keeps_its_bits_under_powers_of_two(self, small_dec, k):
        """The norm is taken in the field's frame, so at 2^k f it is 2^k
        times that of f bit for bit; its raw squares used to underflow to
        0 at 2^-560 and overflow to inf at 2^540."""
        values = scale_test_values(small_dec.grid)
        base = FieldSample(small_dec.grid, values).norm_l2()
        scaled = FieldSample(small_dec.grid, np.ldexp(values.view(float), k).view(complex))
        assert scaled.norm_l2() == math.ldexp(base, k)

    @pytest.mark.parametrize("k", [-1000, -600, 1, 600, 1000])
    def test_span_residual_keeps_its_bits_under_powers_of_two(self, small_dec, k):
        """The fraction is taken in the field's frame, an exact scale, so at
        2^k f it is the fraction of f bit for bit."""
        values = scale_test_values(small_dec.grid)
        base = small_dec.span_residual_fraction(FieldSample(small_dec.grid, values))
        assert 0.0 < base < 1e-3
        scaled = FieldSample(small_dec.grid,
                             np.ldexp(values.real, k) + 1j * np.ldexp(values.imag, k))
        assert small_dec.span_residual_fraction(scaled) == base

    @pytest.mark.parametrize("extra", [(), (3,)], ids=["vector", "columns"])
    def test_real_matmul_matches_complex_product(self, hermite_dec, extra):
        rng = np.random.default_rng(5)
        phi = hermite_dec.eigenvectors
        for a in (phi, phi.T):
            shape = (a.shape[1],) + extra
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            expected = a.astype(complex) @ x
            got = real_matmul(a, x)
            assert got.shape == expected.shape and got.dtype == np.complex128
            np.testing.assert_allclose(got, expected, rtol=0,
                                       atol=1e-13 * np.max(np.abs(expected)))
            np.testing.assert_array_equal(real_matmul(a, x.real), a @ x.real)

    def test_matvecs_do_not_copy_the_eigenvectors(self, hermite_dec, gaussian_field):
        """coefficients and reconstruct run real GEMM: no complex copy of the
        (size, m) eigenvector matrix is made."""
        c = hermite_dec.coefficients(gaussian_field)
        tracemalloc.start()
        try:
            hermite_dec.reconstruct(hermite_dec.coefficients(gaussian_field))
            hermite_dec.reconstruct(c.real)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < hermite_dec.eigenvectors.size * 16

    def test_positivity(self, hermite_dec, quartic_dec):
        assert hermite_dec.eigenvalues[0] > 0
        assert quartic_dec.eigenvalues[0] > 0

    def test_quartic_ground_level_matches_shooting(self, quartic_dec):
        """The ground level of -d^2 + x^4 against the independent ODE-shooting
        value, within 1e-6 relative at 512 points on half-width 12."""
        assert quartic_dec.eigenvalues[0] == pytest.approx(QUARTIC_LAMBDA0, rel=1e-6)


def _exact_parity(v):
    return np.array_equal(v[::-1], v) or np.array_equal(v[::-1], -v)


PARITY_CASES = {
    "hermite": (ah.hermite_oscillator(), Grid(512, 12.0), 384),
    "quartic": (OscillatorSpec(2, 1), Grid(512, 12.0), 384),
    "l2": (OscillatorSpec(1, 2), Grid(512, 60.0), 384),
    "hermite_small": (ah.hermite_oscillator(), Grid(32, 7.0), 24),
    "k3_l2": (OscillatorSpec(3, 2), Grid(128, 5.0), 96),
}


class TestParitySolve:
    """decompose solves the even and odd blocks; the dense matrix of
    tests/oracles.py is solved here only as the independent reference."""

    @pytest.fixture(scope="class", params=sorted(PARITY_CASES))
    def case(self, request):
        osc, grid, m = PARITY_CASES[request.param]
        return dense_operator(osc, grid), grid, decompose(osc, grid, m)

    def test_matches_full_eigh(self, case):
        a, grid, dec = case
        w, v = scipy.linalg.eigh(a)  # every eigenpair of the full matrix
        v /= np.sqrt(grid.h)
        m = dec.m
        np.testing.assert_allclose(dec.eigenvalues, w[:m], rtol=1e-10, atol=0)
        # each vector lies in the reference eigenspace of its level: for a
        # simple level that is the overlap with the one reference vector
        for j in range(m):
            level = np.abs(w - w[j]) <= 1e-6 * (1.0 + w[j])
            coeffs = grid.h * (v[:, level].T @ dec.eigenvectors[:, j])
            assert np.linalg.norm(coeffs) >= 1.0 - 1e-9, j

    def test_every_column_exactly_even_or_odd(self, case):
        _, _, dec = case
        assert all(_exact_parity(dec.eigenvectors[:, j]) for j in range(dec.m))

    def test_levels_are_simple_within_each_parity(self, case):
        """The premise that a mode is one column: inside one parity block
        the retained levels are far apart (at least 3.73 over these cases),
        so each eigenpair is unique up to sign."""
        _, _, dec = case
        parity = spectral._reflection_parity(dec.eigenvectors)
        assert np.all(parity != 0.0)
        for sign in (1.0, -1.0):
            assert np.all(np.diff(dec.eigenvalues[parity == sign]) > 1.0), sign

    def test_blocks_are_solved_in_full(self, hermite_osc, monkeypatch):
        """Each block goes whole to numpy's dsyevd, one (n/2)² block per
        call, and keeps the lowest k = min(m, n/2); the eigenvalues are the
        dense matrix's."""
        eigh = np.linalg.eigh
        shapes = []

        def spy(a, *args, **kwargs):
            shapes.append((a.shape, args, kwargs))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        grid = Grid(64, 8.0)
        dec = decompose(hermite_osc, grid, 7)
        assert shapes == [((32, 32), (), {}), ((32, 32), (), {})]
        reference = scipy.linalg.eigvalsh(dense_operator(hermite_osc, grid))
        np.testing.assert_allclose(dec.eigenvalues, reference[:7], rtol=1e-10, atol=0)

    def test_mixed_block_vectors_fail_the_orthonormality(self, hermite_osc, monkeypatch):
        """Nothing re-orthonormalizes the solver's vectors: an even vector
        carrying 1e-6 of its even neighbour (what a degenerate level could
        return) exits through the 1e-9 orthonormality gate."""
        eigh = np.linalg.eigh
        calls = []

        def mixed(a):
            w, u = eigh(a)
            if not calls:  # the even block is solved first
                u[:, 3] += 1e-6 * u[:, 4]
            calls.append(1)
            return w, u

        monkeypatch.setattr(np.linalg, "eigh", mixed)
        with pytest.raises(NumericalError, match="orthonormality"):
            decompose(hermite_osc, Grid(64, 8.0), 16)
        assert len(calls) == 2

    def test_solver_failure_is_nonconvergence(self, hermite_osc, monkeypatch):
        """A LinAlgError from the block solver ends in NonConvergenceError,
        with the block size and the modes kept per block."""
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NonConvergenceError, match="did not converge") as exc:
            decompose(hermite_osc, Grid(64, 8.0), 40)
        assert exc.value.diagnostics == {"matrix_size": 32, "modes": 32}

    @staticmethod
    def _faulty_solve(monkeypatch, fault):
        """Patch _parity_solve so ``fault`` edits its (vals, vecs) in place."""
        solve = spectral._parity_solve

        def faulty(*args):
            vals, vecs = solve(*args)
            fault(vals, vecs)
            return vals, vecs

        monkeypatch.setattr(spectral, "_parity_solve", faulty)

    @pytest.mark.parametrize("i,j", [(3, 70), (383, 0)])
    def test_vectors_mixed_across_column_blocks_fail_the_orthonormality(
            self, hermite_osc, hermite_grid, monkeypatch, i, j):
        """The Gram matrix is formed 64 columns at a time; vectors i and j sit
        in different column blocks, and the 1e-6 overlap still exits through
        the 1e-9 orthonormality gate."""
        def mix(vals, vecs):
            vecs[:, i] += 1e-6 * vecs[:, j]

        self._faulty_solve(monkeypatch, mix)
        with pytest.raises(NumericalError, match="orthonormality"):
            decompose(hermite_osc, hermite_grid, 384)

    @pytest.mark.parametrize("c", [0, 63, 64, 383])
    def test_scaled_eigenvalue_fails_the_residual(self, hermite_osc, hermite_grid,
                                                  monkeypatch, c):
        """One eigenvalue scaled by 1 + 1e-6, at either edge of a 64-column
        block of the residual gate, leaves the vectors orthonormal; the
        residual against H applied by FFT catches it."""
        def scale(vals, vecs):
            vals[c] *= 1.0 + 1e-6

        self._faulty_solve(monkeypatch, scale)
        with pytest.raises(NumericalError, match=f"residual .* at mode {c} "):
            decompose(hermite_osc, hermite_grid, 384)

    @pytest.mark.parametrize("parity,i,j", [(1, 3, 70), (1, 192, 0), (-1, 5, 130),
                                            (-1, 190, 2)])
    def test_sector_vectors_mixed_across_column_blocks_fail_the_orthonormality(
            self, hermite_osc, hermite_grid, monkeypatch, parity, i, j):
        """In a one-parity decomposition every column has the same parity, and
        a 1e-6 mix of two of them in different 64-column blocks still exits
        through the 1e-9 orthonormality gate."""
        widths = []

        def mix(vals, vecs):
            widths.append(vecs.shape[1])
            vecs[:, i] += 1e-6 * vecs[:, j]

        self._faulty_solve(monkeypatch, mix)
        with pytest.raises(NumericalError, match="orthonormality"):
            decompose(hermite_osc, hermite_grid, 384, parity=parity)
        assert widths == [193 if parity == 1 else 191]

    @pytest.mark.parametrize("parity,c", [(1, 0), (1, 64), (1, 192), (-1, 63), (-1, 190)])
    def test_sector_scaled_eigenvalue_fails_the_residual(self, hermite_osc, hermite_grid,
                                                         monkeypatch, parity, c):
        """The residual gate reads the kept parity's pairs as it reads the
        full decomposition's."""
        widths = []

        def scale(vals, vecs):
            widths.append(vecs.shape[1])
            vals[c] *= 1.0 + 1e-6

        self._faulty_solve(monkeypatch, scale)
        with pytest.raises(NumericalError, match=f"residual .* at mode {c} "):
            decompose(hermite_osc, hermite_grid, 384, parity=parity)
        assert widths == [193 if parity == 1 else 191]

    @pytest.mark.parametrize("m", [1, 255, 256, 257, 384, 512])
    def test_merge_keeps_the_lowest_m(self, hermite_osc, hermite_grid, m):
        w = scipy.linalg.eigvalsh(dense_operator(hermite_osc, hermite_grid))
        dec = decompose(hermite_osc, hermite_grid, m)
        np.testing.assert_allclose(dec.eigenvalues, w[:m], rtol=1e-10, atol=0)
        # the harmonic levels alternate even, odd, even, ...
        odd = np.array([np.array_equal(dec.eigenvectors[::-1, j], -dec.eigenvectors[:, j])
                        for j in range(min(m, 20))])
        np.testing.assert_array_equal(odd, np.arange(min(m, 20)) % 2 == 1)
        # gauge: on x > 0 the largest entry outweighs the most negative one
        right = dec.eigenvectors[hermite_grid.points_per_axis // 2:]
        assert np.all(right.max(axis=0) >= -right.min(axis=0))

    def test_bumped_block_fails_the_residual(self, hermite_osc, monkeypatch):
        """A symmetric one-entry fault in E passes the orthonormality and
        positivity gates; the residual against H applied by FFT catches it."""
        blocks = spectral._parity_blocks

        def bumped(*args):
            even, odd = blocks(*args)
            even[3, 10] += 1e-6 * np.max(np.abs(even))
            even[10, 3] = even[3, 10]
            return even, odd

        monkeypatch.setattr(spectral, "_parity_blocks", bumped)
        with pytest.raises(NumericalError, match="residual"):
            decompose(hermite_osc, Grid(64, 8.0), 16)

    def test_scaled_kernel_fails_the_residual(self, hermite_osc, hermite_grid, monkeypatch):
        """A kinetic kernel scaled by 1 + 1e-6 keeps both blocks symmetric and
        the operator reflection-invariant, and moves the harmonic levels by
        5e-7 relative, under the 1e-6 spectrum tolerance; a residual against
        the faulty operator itself would pass it."""
        blocks = spectral._parity_blocks
        monkeypatch.setattr(spectral, "_parity_blocks", lambda mult, v_nodes, grid:
                            blocks(mult * (1.0 + 1e-6), v_nodes, grid))
        with pytest.raises(NumericalError, match="residual"):
            decompose(hermite_osc, hermite_grid, 384)

    def test_residual_gate_scales_with_the_operator(self):
        """(1, 3) on 1024 points at L = 60: the largest kinetic multiplier,
        (pi N / 2L)^6 = 3.7e8, lets a backward-stable solve leave about
        eps ||H|| = 8.2e-8 per mode. Mode 0 reads 3.8 eps ||H||, above
        1e-8 (1 + lambda_0) = 2.1e-8 alone; the gate's 16 eps ||H|| term
        admits it, and the faults above still fail."""
        dec = decompose(OscillatorSpec(1, 3), Grid(1024, 60.0), 384)
        assert dec.m == 384 and np.all(np.diff(dec.eigenvalues) > 0)

    @pytest.mark.parametrize("osc,grid,m,mib", [
        (ah.hermite_oscillator(), Grid(512, 12.0), 384, 4.0),
        (OscillatorSpec(2, 1), Grid(1024, 12.0), 512, 12.5),
    ], ids=["d1_512", "quartic_1024"])
    def test_traced_peak(self, osc, grid, m, mib):
        """The whole decomposition stays under ``mib`` MiB traced: one (n/2)²
        parity block at a time, the two block solutions and the (n, m)
        vectors; the gauge, the Gram matrix and the FFT residual run over
        64-column blocks, so no other (n, m) temporary is formed, and never
        the n x n operator."""
        tracemalloc.start()
        try:
            decompose(osc, grid, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2 ** 20


# (k, l, points, half_width, m) of the one-parity decompositions checked
# against the full one; the last keeps every mode (m = n)
SECTOR_CASES = {
    "hermite_512_384": (1, 1, 512, 12.0, 384),
    "quartic_512_300": (2, 1, 512, 12.0, 300),
    "hermite_128_48": (1, 1, 128, 12.0, 48),
    "hermite_128_all": (1, 1, 128, 12.0, 128),
}


class TestOneParity:
    """decompose(..., parity=±1) solves that parity's block for its pairs
    and the other block for its eigenvalues alone, which only choose the
    modes kept among the lowest m."""

    @pytest.fixture(scope="class", params=sorted(SECTOR_CASES))
    def full(self, request):
        k, l, n, half_width, m = SECTOR_CASES[request.param]
        return decompose(OscillatorSpec(k, l), Grid(n, half_width), m)

    @pytest.mark.parametrize("parity", [1, -1])
    def test_sector_is_the_columns_of_its_parity(self, full, parity):
        """Eigenvalues and gauged vectors equal, bit for bit, the columns of
        that parity in the full decomposition, in the same order."""
        dec = decompose(full.oscillator, full.grid, full.m, parity=parity)
        cols = spectral._reflection_parity(full.eigenvectors) == parity
        assert dec.parity == parity and full.parity is None
        assert dec.m == np.count_nonzero(cols)
        assert np.array_equal(dec.eigenvalues, full.eigenvalues[cols])
        assert np.array_equal(dec.eigenvectors, full.eigenvectors[:, cols])

    def test_sector_sizes_follow_the_merge_not_half_of_m(self, hermite_osc, hermite_grid):
        """At 512 points on half-width 12 the levels alternate in parity up
        to j = 266 only; from j = 267 on the box decides. The lowest 384
        modes are 193 even and 191 odd, so a sector cut to ceil(m/2) modes
        would be wrong."""
        parity = spectral._reflection_parity(
            decompose(hermite_osc, hermite_grid, 384).eigenvectors)
        alternating = np.where(np.arange(384) % 2 == 0, 1.0, -1.0)
        assert np.flatnonzero(parity != alternating)[0] == 267
        sizes = [decompose(hermite_osc, hermite_grid, 384, parity=p).m for p in (1, -1)]
        assert sizes == [193, 191]

    def test_other_block_gets_eigenvalues_alone(self, hermite_osc, monkeypatch):
        """One eigh, on the kept parity's block, and one eigvalsh, on the
        other's; E is built first in both cases."""
        solves = []
        for name in ("eigh", "eigvalsh"):
            def spy(a, _name=name, _solve=getattr(np.linalg, name)):
                solves.append((_name, a[0, 1]))
                return _solve(a)
            monkeypatch.setattr(np.linalg, name, spy)
        grid = Grid(64, 8.0)
        even, odd = spectral._parity_blocks(spectral._kinetic_multiplier(hermite_osc, grid),
                                            _nodal_potential(hermite_osc, grid), grid)
        decompose(hermite_osc, grid, 16, parity=1)
        decompose(hermite_osc, grid, 16, parity=-1)
        assert solves == [("eigh", even[0, 1]), ("eigvalsh", odd[0, 1]),
                          ("eigvalsh", even[0, 1]), ("eigh", odd[0, 1])]

    @pytest.mark.parametrize("parity", [True, False, 0, 0.5, float("nan"), 2, "1"])
    def test_parity_is_none_or_plus_minus_one(self, hermite_osc, parity):
        """A bool is not a parity, though True == 1."""
        with pytest.raises(ValueError, match="parity .* is not None, 1 or -1"):
            decompose(hermite_osc, Grid(64, 8.0), 16, parity=parity)

    def test_a_parity_with_no_mode_among_the_lowest_m_is_refused(self, hermite_osc):
        """The ground state is even: m = 1 holds no odd mode, and an empty
        decomposition is refused, not returned."""
        grid = Grid(64, 8.0)
        assert decompose(hermite_osc, grid, 1, parity=1).m == 1
        with pytest.raises(ValueError, match="no mode of parity -1 among the lowest 1"):
            decompose(hermite_osc, grid, 1, parity=-1)
        assert decompose(hermite_osc, grid, 2, parity=-1).m == 1

    @pytest.mark.parametrize("m,parity", [(16, 2), (1, -1)], ids=["not_a_parity", "no_mode"])
    def test_parity_errors_name_the_parity(self, hermite_osc, m, parity):
        """Both parity errors are the package's argument error, with
        ``field`` set, as every other bad argument of ``decompose``."""
        with pytest.raises(InvalidSpecError) as exc:
            decompose(hermite_osc, Grid(64, 8.0), m, parity=parity)
        assert exc.value.field == "parity"

    def test_eigenvalue_solver_failure_is_nonconvergence(self, hermite_osc, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NonConvergenceError, match="did not converge") as exc:
            decompose(hermite_osc, Grid(64, 8.0), 40, parity=-1)
        assert exc.value.diagnostics == {"matrix_size": 32, "modes": 32}


# the three cases of configs/spectrum.json: (k, l, half_width), 512 points, 384 modes
SPECTRUM_CASES = {"hermite": (1, 1, 25.0), "quartic": (2, 1, 12.0), "l2": (1, 2, 60.0)}


class TestAgainstDenseSolver:
    """decompose against scipy's eigh of the dense n x n operator: another
    LAPACK, another matrix and no parity split."""

    @pytest.fixture(scope="class", params=sorted(SPECTRUM_CASES))
    def case(self, request):
        k, l, half_width = SPECTRUM_CASES[request.param]
        osc, grid = OscillatorSpec(k, l), Grid(512, half_width)
        w, v = scipy.linalg.eigh(dense_operator(osc, grid))
        return grid, w, v / np.sqrt(grid.h), decompose(osc, grid, 384)

    def test_eigenvalues(self, case):
        _, w, _, dec = case
        np.testing.assert_allclose(dec.eigenvalues, w[:384], rtol=1e-11, atol=0)

    def test_gauged_eigenvectors(self, case):
        """Each vector, in the same sign gauge, within 1e-12 in h-L^2 of the
        reference, plus the reference's own error: a computed vector is off
        by about eps ||A|| / gap, and an even and an odd level of the box
        tail lie as close as 4e-4 (4 eps ||A|| / gap, which covers the
        measured 1.9 at most)."""
        grid, w, v, dec = case
        half = grid.points_per_axis // 2
        ref = v[:, :384].copy()
        ref *= np.sign(ref[half + np.argmax(np.abs(ref[half:]), axis=0), np.arange(384)])
        gap = np.minimum(w[1:385] - w[:384], np.r_[np.inf, np.diff(w[:384])])
        bound = 1e-12 + 4.0 * np.finfo(float).eps * np.max(np.abs(w)) / gap
        err = np.sqrt(grid.h * np.sum((dec.eigenvectors - ref) ** 2, axis=0))
        assert np.all(err <= bound), int(np.argmax(err / bound))
        # a level apart from both neighbours by 1e-3 (1 + lambda) meets 1e-12
        # alone (measured: 4.0e-13 at most)
        apart = gap >= 1e-3 * (1.0 + w[:384])
        assert np.count_nonzero(apart) >= 250
        assert np.max(err[apart]) <= 1e-12


class TestDilation:
    @pytest.mark.parametrize("c", [0.5, 3.0])
    @pytest.mark.parametrize("k,l,half_width", [(1, 1, 12.0), (2, 1, 8.0), (1, 2, 20.0)])
    def test_scaled_potential_is_a_dilated_oscillator(self, k, l, half_width, c):
        """x = a y with a = c^(-1/(2(k+l))) turns (-Lap)^l + c |x|^(2k) into
        c^(l/(k+l)) ((-Lap)^l + |y|^(2k)) on the box widened by 1/a; the
        staggered nodes and the multiplier scale the same way on the grid, so
        one spectrum is the other to rounding. This is why |x|^(2k) stands
        for every potential c |x|^(2k) of d = 1."""
        osc = OscillatorSpec(k, l)
        scaled = scipy.linalg.eigvalsh(
            dense_operator(osc, Grid(256, half_width), c))[:100]
        dilated = decompose(osc, Grid(256, c ** (1.0 / (2 * (k + l))) * half_width), 100)
        np.testing.assert_allclose(c ** (l / (k + l)) * dilated.eigenvalues, scaled,
                                   rtol=1e-9, atol=0)


class TestGrowthFit:
    def test_targets(self):
        assert growth_target(OscillatorSpec(1, 1)) == pytest.approx(1.0)
        assert growth_target(OscillatorSpec(2, 1)) == pytest.approx(4.0 / 3.0)
        assert growth_target(OscillatorSpec(1, 2)) == pytest.approx(4.0 / 3.0)


class TestBohrSommerfeld:
    N = np.array([0, 1, 2, 5, 30, 150, 383])

    @pytest.mark.parametrize("k,l", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)])
    def test_level_encloses_its_quantized_area(self, k, l):
        """The sublevel set of the symbol at lambda_n^BS has area
        2 pi (n + 1/2), by quadrature rather than the Gamma closed form."""
        lam = bohr_sommerfeld_eigenvalues(OscillatorSpec(k, l), self.N)
        area = np.array([symbol_sublevel_area(k, l, v) for v in lam])
        np.testing.assert_allclose(area, 2.0 * np.pi * (self.N + 0.5), rtol=1e-12, atol=0)

    def test_harmonic_levels_are_odd_integers(self):
        n = np.arange(400)
        np.testing.assert_allclose(bohr_sommerfeld_eigenvalues(OscillatorSpec(1, 1), n),
                                   2.0 * n + 1.0, rtol=1e-14, atol=0)

    def test_fourier_duality(self):
        """The Fourier transform carries H_{2,1} to H_{1,2}, so they have one
        spectrum; the boxes of configs/spectrum.json resolve both through
        n = 150, where their eigenvalues agree to 1e-10 relative."""
        low = {}
        for k, l, half_width in (SPECTRUM_CASES["quartic"], SPECTRUM_CASES["l2"]):
            low[k, l] = decompose(OscillatorSpec(k, l), Grid(512, half_width),
                                  384).eigenvalues[:151]
        np.testing.assert_allclose(low[2, 1], low[1, 2], rtol=1e-10, atol=0)

