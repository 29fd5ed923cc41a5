import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import anharmonic as ah
from anharmonic import (FieldSample, Grid, InvalidSpecError, NumericalError, OscillatorSpec,
                        PotentialSpec, decompose, eigenvalue_growth_fit, evaluate_potential,
                        growth_target, spectral)
from anharmonic.spectral import real_matmul

from oracles import QUARTIC_LAMBDA0, dense_operator, hermite_function

# x^4 + x^3 y / 2 - 3 x y^3 / 10 + 2 y^4: odd powers of each axis, even overall
ODD_FACTOR_POLY = PotentialSpec("custom_poly", 2, 2, terms=(
    ((4, 0), 1.0), ((3, 1), 0.5), ((1, 3), -0.3), ((0, 4), 2.0)))


class TestGrid:
    def test_staggered_nodes_exclude_origin(self, hermite_grid):
        x = hermite_grid.axis_nodes()
        assert np.min(np.abs(x)) > 0
        assert x[0] == pytest.approx(-12.0 + hermite_grid.h / 2)

    @pytest.mark.parametrize("half_width", [12.0, 7.77, 0.1, np.pi])
    def test_nodes_mirror_exactly(self, half_width):
        x = Grid(1, 64, half_width).axis_nodes()
        assert np.array_equal(x[::-1], -x)
        h = 2.0 * half_width / 64
        np.testing.assert_allclose(x, -half_width + (np.arange(64) + 0.5) * h,
                                   rtol=0, atol=4e-16 * half_width)

    def test_cell_volume(self, hermite_grid):
        assert hermite_grid.cell_volume == pytest.approx(24.0 / 512)

    def test_frequency_lattice(self, hermite_grid):
        xi = hermite_grid.axis_frequencies()
        assert len(xi) == 512
        assert xi[1] - xi[0] == pytest.approx(1.0 / 24.0)
        assert np.all(np.diff(xi) > 0)

    def test_power_of_two_required(self):
        with pytest.raises(InvalidSpecError):
            Grid(1, 500, 12.0)

    def test_dimension_cap(self):
        with pytest.raises(InvalidSpecError):
            Grid(3, 16, 5.0)

    def test_2d_nodes_shape(self):
        g = Grid(2, 16, 5.0)
        assert g.nodes().shape == (256, 2)


REFLECTION_CASES = {
    "iso_power_d1": (ah.oscillator(1, 1, 1), Grid(1, 64, 7.77)),
    "aniso_sum_d1": (OscillatorSpec(1, PotentialSpec("aniso_sum", 2, 1, (2.5,))),
                     Grid(1, 64, 5.3)),
    "custom_poly_d1": (OscillatorSpec(2, PotentialSpec("custom_poly", 3, 1, terms=(((6,), 0.7),))),
                       Grid(1, 64, 0.1)),
    "iso_power_d2": (ah.oscillator(2, 1, 2), Grid(2, 16, 4.3)),
    "aniso_sum_d2": (OscillatorSpec(1, PotentialSpec("aniso_sum", 1, 2, (1.0, 2.5))),
                     Grid(2, 16, np.pi)),
    "custom_poly_odd_factors_d2": (OscillatorSpec(1, ODD_FACTOR_POLY), Grid(2, 16, 5.3)),
}


def _nodal_potential(osc, grid):
    return np.asarray(evaluate_potential(osc.potential, grid.nodes()), dtype=float).ravel()


class TestGridOperator:
    """decompose builds the parity blocks and applies H by FFT; the dense
    matrix of tests/oracles.py is the reference for both."""

    @pytest.mark.parametrize("name", list(REFLECTION_CASES))
    def test_commutes_with_reflection(self, name):
        """Reversing the flat index is x -> -x; the half-widths are not
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
        half = grid.size // 2
        a11, a12j = a[:half, :half], a[:half, half:][:, ::-1]
        even, odd = spectral._parity_blocks(spectral._kinetic_multiplier(osc, grid),
                                            _nodal_potential(osc, grid), grid)
        assert np.array_equal(even, a11 + a12j) and np.array_equal(odd, a11 - a12j)
        assert np.array_equal(even, even.T) and np.array_equal(odd, odd.T)

    @pytest.mark.parametrize("name", list(REFLECTION_CASES))
    def test_fft_application_matches_the_dense_operator(self, name):
        osc, grid = REFLECTION_CASES[name]
        a = dense_operator(osc, grid)
        x = np.random.default_rng(3).standard_normal((grid.size, 5))
        got = spectral._apply_operator(spectral._kinetic_multiplier(osc, grid),
                                       _nodal_potential(osc, grid), grid, x)
        expected = a @ x
        np.testing.assert_allclose(got, expected, rtol=0,
                                   atol=1e-12 * np.max(np.abs(expected)))

    def test_kinetic_block_is_circulant_with_known_spectrum(self, hermite_osc):
        # subtracting the potential diagonal leaves the kinetic circulant,
        # whose eigenvalues are exactly the multiplier values |pi n / L|^2
        grid = Grid(1, 64, 8.0)
        a = dense_operator(hermite_osc, grid)
        x = grid.axis_nodes()
        kin = a - np.diag(x ** 2)
        eig = np.sort(np.linalg.eigvalsh(kin))
        n = np.fft.fftfreq(64, d=1.0 / 64)
        expected = np.sort((np.pi * n / 8.0) ** 2)
        np.testing.assert_allclose(eig, expected, atol=1e-9)

    def test_size_cap(self, hermite_osc):
        with pytest.raises(InvalidSpecError):
            decompose(hermite_osc, Grid(1, 8192, 12.0))

    def test_potential_evaluated_once(self, hermite_osc, monkeypatch):
        calls = []
        evaluate = spectral.evaluate_potential

        def counted(*args):
            calls.append(1)
            return evaluate(*args)

        monkeypatch.setattr(spectral, "evaluate_potential", counted)
        decompose(hermite_osc, Grid(1, 64, 8.0), 16)
        assert len(calls) == 1


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
        x = hermite_grid.axis_nodes()
        for j in range(20):
            ref = hermite_function(j, x)
            got = hermite_dec.eigenfunction(j).values.real
            assert np.max(np.abs(got - ref)) < 1e-9, j

    def test_orthonormality(self, hermite_dec, hermite_grid):
        phi = hermite_dec.eigenvectors[:, :50]
        gram = hermite_grid.cell_volume * (phi.T @ phi)
        np.testing.assert_allclose(gram, np.eye(50), atol=1e-9)

    def test_coefficients_reconstruct_roundtrip(self, hermite_dec, gaussian_field):
        c = hermite_dec.coefficients(gaussian_field)
        rec = hermite_dec.reconstruct(c)
        # the Gaussian probe lies in the retained span up to 1e-6
        gap = FieldSample(hermite_dec.grid, rec.values - gaussian_field.values)
        assert gap.norm_l2() <= 1e-6 * gaussian_field.norm_l2()

    def test_span_residual_small_for_gaussian(self, hermite_dec, gaussian_field):
        assert hermite_dec.span_residual_fraction(gaussian_field) <= 1e-6

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

    def test_2d_hermite_eigenvalues(self):
        osc = ah.hermite_oscillator(2)
        dec = decompose(osc, Grid(2, 32, 8.0), 16)
        # 2d harmonic spectrum: 2(j1+j2)+2 with multiplicities 1,2,3,...
        np.testing.assert_allclose(dec.eigenvalues[:6], [2, 4, 4, 6, 6, 6],
                                   rtol=1e-6)

    def test_cluster_of_degenerate_pair(self):
        osc = ah.hermite_oscillator(2)
        dec = decompose(osc, Grid(2, 32, 8.0), 16)
        start, stop = dec.cluster_of(1)
        assert (start, stop) == (1, 3)


def _exact_parity(v):
    return np.array_equal(v[::-1], v) or np.array_equal(v[::-1], -v)


PARITY_CASES = {
    "hermite": (ah.hermite_oscillator(), Grid(1, 512, 12.0), 384),
    "quartic": (ah.oscillator(2, 1, 1), Grid(1, 512, 12.0), 384),
    "l2": (ah.oscillator(1, 2, 1), Grid(1, 512, 60.0), 384),
    "aniso_sum_d2": (OscillatorSpec(1, PotentialSpec("aniso_sum", 1, 2, (1.0, 2.5))),
                     Grid(2, 32, 7.0), 120),
    "custom_poly_odd_factors_d2": (OscillatorSpec(1, ODD_FACTOR_POLY), Grid(2, 32, 5.0), 120),
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
        v /= np.sqrt(grid.cell_volume)
        m = dec.m
        np.testing.assert_allclose(dec.eigenvalues, w[:m], rtol=1e-10, atol=0)
        gaps = np.minimum(np.diff(w, prepend=-np.inf), np.diff(w, append=np.inf))[:m]
        simple = gaps > 1e-6 * (1.0 + w[:m])
        assert simple.sum() >= m // 2
        overlap = np.abs(grid.cell_volume * np.sum(v[:, :m] * dec.eigenvectors, axis=0))
        assert np.all(overlap[simple] >= 1.0 - 1e-9)

    def test_every_column_exactly_even_or_odd(self, case):
        _, _, dec = case
        assert all(_exact_parity(dec.eigenvectors[:, j]) for j in range(dec.m))

    def test_degenerate_clusters_keep_exact_parity(self):
        osc = ah.hermite_oscillator(2)
        dec = decompose(osc, Grid(2, 32, 8.0), 40)
        # levels 2n + 2 of multiplicity n + 1: clusters of 2, 3, 4, ... modes
        assert max(stop - start for start, stop in map(dec.cluster_of, range(dec.m))) >= 4
        assert all(_exact_parity(dec.eigenvectors[:, j]) for j in range(dec.m))
        gram = dec.grid.cell_volume * (dec.eigenvectors.T @ dec.eigenvectors)
        np.testing.assert_allclose(gram, np.eye(dec.m), rtol=0, atol=1e-12)

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
        right = dec.eigenvectors[hermite_grid.size // 2:]
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
            decompose(hermite_osc, Grid(1, 64, 8.0), 16)

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

    @pytest.mark.parametrize("osc,grid,m,mib", [
        (ah.hermite_oscillator(), Grid(1, 512, 12.0), 384, 6.6),
        (ah.hermite_oscillator(2), Grid(2, 32, 8.0), 400, 14.0),
    ], ids=["d1_512", "d2_32"])
    def test_traced_peak(self, osc, grid, m, mib):
        """The whole decomposition stays under ``mib`` MiB traced: no n x n
        array is formed (at 32² the dense operator alone is 8 MiB), only the
        two (n/2)² blocks, the (n, m) vectors and the FFT residual."""
        tracemalloc.start()
        try:
            decompose(osc, grid, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2 ** 20


class TestGrowthFit:
    def test_targets(self):
        assert growth_target(ah.oscillator(1, 1, 1)) == pytest.approx(1.0)
        assert growth_target(ah.oscillator(2, 1, 1)) == pytest.approx(4.0 / 3.0)
        assert growth_target(ah.oscillator(1, 2, 1)) == pytest.approx(4.0 / 3.0)

    def test_fit_window_validation(self, hermite_dec):
        with pytest.raises(ValueError):
            eigenvalue_growth_fit(hermite_dec, 5, 150)
        with pytest.raises(ValueError):
            eigenvalue_growth_fit(hermite_dec, 30, 380)

