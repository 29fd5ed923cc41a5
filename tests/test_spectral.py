import tracemalloc

import numpy as np
import pytest

import anharmonic as ah
from anharmonic import (Grid, InvalidSpecError, assemble_operator, decompose,
                        eigenvalue_growth_fit, field_from_function, growth_target)
from anharmonic.spectral import real_matmul

from oracles import hermite_function


class TestGrid:
    def test_staggered_nodes_exclude_origin(self, hermite_grid):
        x = hermite_grid.axis_nodes()
        assert np.min(np.abs(x)) > 0
        assert x[0] == pytest.approx(-12.0 + hermite_grid.h / 2)

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


class TestAssembly:
    def test_matrix_symmetric(self, hermite_osc, hermite_grid):
        a = assemble_operator(hermite_osc, hermite_grid)
        assert np.max(np.abs(a - a.T)) <= 1e-12 * np.max(np.abs(a))

    def test_kinetic_block_is_circulant_with_known_spectrum(self, hermite_osc):
        # subtracting the potential diagonal leaves the kinetic circulant,
        # whose eigenvalues are exactly the multiplier values |pi n / L|^2
        grid = Grid(1, 64, 8.0)
        a = assemble_operator(hermite_osc, grid)
        x = grid.axis_nodes()
        kin = a - np.diag(x ** 2)
        eig = np.sort(np.linalg.eigvalsh(kin))
        n = np.fft.fftfreq(64, d=1.0 / 64)
        expected = np.sort((np.pi * n / 8.0) ** 2)
        np.testing.assert_allclose(eig, expected, atol=1e-9)

    def test_size_cap(self, hermite_osc):
        with pytest.raises(InvalidSpecError):
            assemble_operator(hermite_osc, Grid(1, 8192, 12.0))


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
        x = hermite_grid.axis_nodes()
        for j in (0, 1, 4, 9):
            ref = hermite_function(j, x)
            got = hermite_dec.eigenfunction(j).values.real
            # fix the sign gauge against the analytic function
            if np.dot(got, ref) < 0:
                got = -got
            assert np.max(np.abs(got - ref)) < 1e-9

    def test_orthonormality(self, hermite_dec, hermite_grid):
        phi = hermite_dec.eigenvectors[:, :50]
        gram = hermite_grid.cell_volume * (phi.T @ phi)
        np.testing.assert_allclose(gram, np.eye(50), atol=1e-9)

    def test_coefficients_reconstruct_roundtrip(self, hermite_dec, gaussian_field):
        c = hermite_dec.coefficients(gaussian_field)
        rec = hermite_dec.reconstruct(c)
        # the Gaussian probe lies in the retained span up to 1e-6
        assert (rec - gaussian_field).norm_l2() <= 1e-6 * gaussian_field.norm_l2()

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

    def test_field_from_function(self, hermite_grid):
        # one dimension hands the callable the bare axis, no trailing index
        f = field_from_function(hermite_grid, lambda x: np.exp(-x ** 2))
        assert f.values.shape == (512,)
        x0 = hermite_grid.axis_nodes()[0]
        assert f.values[0] == pytest.approx(np.exp(-x0 ** 2))


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

