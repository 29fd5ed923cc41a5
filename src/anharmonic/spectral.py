"""Periodic pseudospectral discretization of the oscillator and its spectrum.

The kinetic part is the exact Fourier multiplier |omega|^(2l) on a staggered
grid (nodes offset by half a cell, so the origin is never a node); the
potential is diagonal. The assembled dense matrix is real symmetric and
positive definite by construction: the multiplier is nonnegative and the
nodal potential is strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidSpecError, NonConvergenceError, NumericalError
from .model import OscillatorSpec, evaluate_potential

_CLUSTER_GAP = 1e-8
_ORTHO_TOL = 1e-9
_RESIDUAL_TOL = 1e-8
_MAX_DENSE = 4096


@dataclass(frozen=True)
class Grid:
    """Staggered periodic grid on [-L, L]^d with N points per axis."""

    dimension: int = 1
    points_per_axis: int = 512
    half_width: float = 12.0

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise InvalidSpecError("grid dimension must be 1 or 2")
        n = self.points_per_axis
        if not isinstance(n, (int, np.integer)) or n < 8 or (n & (n - 1)) != 0:
            raise InvalidSpecError("points_per_axis must be a power of two, at least 8")
        object.__setattr__(self, "points_per_axis", int(n))
        L = float(self.half_width)
        if not np.isfinite(L) or L <= 0:
            raise InvalidSpecError("half_width must be a positive real")
        object.__setattr__(self, "half_width", L)

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def size(self) -> int:
        return self.points_per_axis ** self.dimension

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dimension

    def axis_nodes(self) -> np.ndarray:
        """Nodes -L + (i + 1/2) h, formed so that node n-1-i is exactly -(node i)."""
        n = self.points_per_axis
        return (np.arange(n) + 0.5 - n // 2) * self.h

    def nodes(self) -> np.ndarray:
        """All nodes as a (size, d) array, C-order over axes."""
        a = self.axis_nodes()
        if self.dimension == 1:
            return a[:, None]
        g1, g2 = np.meshgrid(a, a, indexing="ij")
        return np.stack([g1.ravel(), g2.ravel()], axis=-1)

    def axis_frequencies(self) -> np.ndarray:
        """Frequency lattice n/(2L) in ascending order (DFT bins, shifted)."""
        n = self.points_per_axis
        return np.arange(-n // 2, n // 2) / (2.0 * self.half_width)

    def frequency_nodes(self) -> np.ndarray:
        f = self.axis_frequencies()
        if self.dimension == 1:
            return f[:, None]
        g1, g2 = np.meshgrid(f, f, indexing="ij")
        return np.stack([g1.ravel(), g2.ravel()], axis=-1)

    @property
    def frequency_cell(self) -> float:
        return (1.0 / (2.0 * self.half_width)) ** self.dimension

    def wrapped_axis_offsets(self) -> np.ndarray:
        """Signed offsets z_i of the cyclic window table, origin at index 0."""
        n = self.points_per_axis
        return (((np.arange(n) + n // 2) % n) - n // 2) * self.h


@dataclass(frozen=True, eq=False)
class FieldSample:
    """A complex-valued function sampled on a grid, flattened C-order."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.complex128).copy()
        if v.ndim != 1 or v.shape[0] != self.grid.size:
            raise InvalidSpecError(
                f"field needs {self.grid.size} flat values, got shape {np.shape(self.values)}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def norm_l2(self) -> float:
        return float(np.sqrt(self.grid.cell_volume * np.sum(np.abs(self.values) ** 2)))


def _kinetic_multiplier(osc: OscillatorSpec, grid: Grid) -> np.ndarray:
    n = grid.points_per_axis
    k = np.fft.fftfreq(n, d=1.0 / n)  # integer bin indices in FFT order
    w = np.pi * k / grid.half_width
    if grid.dimension == 1:
        return np.abs(w) ** (2 * osc.l)
    w2 = w[:, None] ** 2 + w[None, :] ** 2
    return w2 ** osc.l


def assemble_operator(osc: OscillatorSpec, grid: Grid) -> np.ndarray:
    """Dense real symmetric matrix of (-Laplacian)^l + V on the grid.

    Positivity is certified exactly: the Fourier multiplier is nonnegative
    and the strictly positive nodal potential is checked (the staggered
    grid excludes the origin, so min V over nodes is positive for any valid
    potential). A nodal potential that overflows (a finite but huge
    coefficient) raises NumericalError before the matrix is built.

    The matrix commutes exactly with the reflection x -> -x, which reverses
    the flat index in d = 1 and d = 2: ``a[::-1, ::-1]`` equals ``a``
    bitwise, and eigendecompose relies on it. The kinetic entry depends on
    the index difference i - j, and the reflection turns it into j - i,
    which is the transposed entry; the final 0.5 (a + a^T) makes both the
    same sum. The diagonal is the potential on the nodes, which are
    symmetric about 0 bit for bit (see Grid.axis_nodes), and every potential
    kind is evaluated exactly even: an even power is taken of |x_j|, and a
    monomial of even total degree has its odd powers in pairs whose sign
    flips cancel.
    """
    if osc.dimension != grid.dimension:
        raise InvalidSpecError("oscillator and grid dimensions differ")
    if grid.size > _MAX_DENSE:
        raise InvalidSpecError(
            f"dense operator would be {grid.size}^2; cap is {_MAX_DENSE}^2")

    nodes = grid.nodes()
    v_nodes = evaluate_potential(osc.potential, nodes)
    if not np.all(np.isfinite(v_nodes)):
        raise NumericalError("nodal potential is not finite; a coefficient overflows")
    v_min = float(np.min(v_nodes))
    if v_min <= 0:
        raise NumericalError(f"nodal potential minimum {v_min:.3e} is not positive")

    mult = _kinetic_multiplier(osc, grid)
    n = grid.points_per_axis
    if grid.dimension == 1:
        kern = np.fft.ifft(mult).real
        idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        a = kern[idx]
    else:
        kern = np.fft.ifft2(mult).real
        di = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        a = kern[di[:, None, :, None], di[None, :, None, :]].reshape(grid.size, grid.size)
    a = a + np.diag(np.asarray(v_nodes, dtype=float).ravel())
    a = 0.5 * (a + a.T)
    return a


def real_matmul(a: np.ndarray, x) -> np.ndarray:
    """``a @ x`` for a real matrix ``a`` and a real or complex ``x`` (1-d or 2-d).

    numpy would cast ``a`` to complex on every call; here a complex ``x`` is
    viewed as interleaved real and imaginary columns, so one real GEMM does
    the product and ``a`` is never copied.
    """
    x = np.asarray(x)
    if not np.iscomplexobj(x):
        return a @ x
    x = np.ascontiguousarray(x, dtype=np.complex128)
    pairs = x.reshape(x.shape[0], -1).view(np.float64)
    return (a @ pairs).view(np.complex128).reshape(a.shape[:1] + x.shape[1:])


@dataclass(eq=False)
class SpectralDecomposition:
    """Retained eigenpairs of the discretized oscillator.

    ``eigenvectors`` has shape (grid.size, m) and is orthonormal in the
    h-weighted inner product. Each column is exactly even or odd under
    x -> -x (the reversed flat index), and its sign gauge is: the entry of
    largest modulus on the second half of the flat index (x > 0, or x_1 > 0
    in d = 2) is positive. For the harmonic oscillator that is the sign of
    the Hermite function.
    """

    oscillator: OscillatorSpec
    grid: Grid
    m: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues = np.ascontiguousarray(self.eigenvalues, dtype=float)
        self.eigenvectors = np.ascontiguousarray(self.eigenvectors, dtype=float)
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)
        self._clusters = _cluster_ranges(self.eigenvalues)

    def coefficients(self, f: FieldSample) -> np.ndarray:
        if f.grid != self.grid:
            raise ValueError("field grid does not match decomposition grid")
        return self.grid.cell_volume * real_matmul(self.eigenvectors.T, f.values)

    def reconstruct(self, coeffs: np.ndarray) -> FieldSample:
        return FieldSample(self.grid, real_matmul(self.eigenvectors, coeffs))

    def eigenfunction(self, j: int) -> FieldSample:
        if not 0 <= j < self.m:
            raise ValueError(f"mode index {j} outside [0, {self.m})")
        return FieldSample(self.grid, self.eigenvectors[:, j])

    def span_residual_fraction(self, f: FieldSample, coeffs: np.ndarray | None = None) -> float:
        """Relative L2 mass of f outside the retained-mode span.

        ``coeffs`` are f's coefficients when the caller has them already.
        """
        nf = f.norm_l2()
        if nf == 0.0:
            return 0.0
        if coeffs is None:
            coeffs = self.coefficients(f)
        rec = real_matmul(self.eigenvectors, coeffs)
        res = float(np.sqrt(self.grid.cell_volume * np.sum(np.abs(f.values - rec) ** 2)))
        return res / nf

    def cluster_of(self, j: int):
        """(start, stop) of the numerically degenerate cluster containing j."""
        for start, stop in self._clusters:
            if start <= j < stop:
                return start, stop
        raise ValueError(f"mode index {j} outside [0, {self.m})")


def _cluster_ranges(eigenvalues):
    ranges = []
    start = 0
    for j in range(1, len(eigenvalues) + 1):
        if j == len(eigenvalues) or eigenvalues[j] - eigenvalues[j - 1] >= _CLUSTER_GAP:
            ranges.append((start, j))
            start = j
    return ranges


def _parity_solve(a: np.ndarray, m: int, hd: float):
    """Lowest m eigenpairs of a reflection-invariant a from its two parity blocks.

    With J the reversal of a half-length index, a = [[A11, A12], [J A12 J,
    J A11 J]], so [u; Ju] and [u; -Ju] are eigenvectors of a exactly when u
    is one of E = A11 + A12 J or O = A11 - A12 J, with the same eigenvalue.
    Returns the merged eigenvalues and the (n, m) vectors, h-normalized and
    each exactly even or odd; the block arrays die with this frame.
    """
    n = a.shape[0]
    half = n // 2
    k = min(m, half)
    a11, a12j = a[:half, :half], a[:half, half:][:, ::-1]
    blocks = []
    for combine in (np.add, np.subtract):
        try:
            blocks.append(scipy.linalg.eigh(combine(a11, a12j), subset_by_index=(0, k - 1),
                                            overwrite_a=True))
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare driver failure
            raise NonConvergenceError(f"dense symmetric eigensolver failed: {exc}",
                                      {"matrix_size": half, "modes": k})

    # no block holds more than k of the lowest m, so the lowest m of the two
    # lists are the lowest m overall; a tie puts the even mode first
    order = np.argsort(np.concatenate([blocks[0][0], blocks[1][0]]), kind="stable")[:m]
    odd = order >= k
    vals = np.empty(m)
    vecs = np.empty((n, m))
    norm = 1.0 / np.sqrt(2.0 * hd)
    for parity, (block_vals, u), cols in zip((1.0, -1.0), blocks,
                                             (np.flatnonzero(~odd), np.flatnonzero(odd))):
        block_vals, u = block_vals[:len(cols)], u[:, :len(cols)]
        # even and odd vectors are exactly orthogonal, so degenerate clusters
        # are re-orthonormalized inside each block only
        for start, stop in _cluster_ranges(block_vals):
            if stop - start > 1:
                u[:, start:stop] = np.linalg.qr(u[:, start:stop])[0]
        u *= norm
        vals[cols] = block_vals
        vecs[:half, cols] = u
        vecs[half:, cols] = parity * u[::-1]
    return vals, vecs


def eigendecompose(a: np.ndarray, m: int, *, osc: OscillatorSpec, grid: Grid) -> SpectralDecomposition:
    """Lowest m eigenpairs of the assembled operator, solved by parity, checked and gauged.

    The operator commutes with the reflection x -> -x, which on the staggered
    grid reverses the flat index in d = 1 and d = 2 (see assemble_operator).
    So the n = grid.size unknowns split into two (n/2)² parity blocks,
    E = A11 + A12 J and O = A11 - A12 J with J the reversal of a half-length
    index. Each block is solved for its lowest min(m, n/2) pairs and the two
    lists are merged by a stable sort that keeps the lowest m; this is
    exact, since no block holds more than min(m, n/2) of the lowest m
    overall. Degenerate clusters are re-orthonormalized inside each block.
    Each block vector u becomes [u; ±Ju] / sqrt(2 h^d) in one (n, m) array,
    so every column is exactly even or odd (``v[::-1] == ±v`` bitwise).

    Sign gauge: the entry of largest modulus on the second half of the flat
    index (x > 0; x_1 > 0 in d = 2) is positive. In the harmonic case that
    is the sign of the Hermite function.

    Raises ValueError for a matrix that is not square, not symmetric or not
    reflection-invariant to 1e-12 relative. Raises NumericalError when the
    full vectors violate the invariants on the full matrix ``a``
    (orthonormality to 1e-9, residual to 1e-8 per unit of (1 + lambda),
    positive ground eigenvalue) and NonConvergenceError when the dense
    solver fails.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("operator must be a square matrix")
    buf = np.abs(a)  # one n² scratch buffer serves the scale and both checks
    scale = float(buf.max())
    for image, fault in ((a.T, "is not symmetric"),
                         (a[::-1, ::-1], "does not commute with the reflection x -> -x")):
        np.subtract(a, image, out=buf)
        if scale > 0 and float(np.abs(buf, out=buf).max()) > 1e-12 * scale:
            raise ValueError(f"operator {fault} to 1e-12 relative")
    del buf
    if not isinstance(m, (int, np.integer)) or not 1 <= m <= a.shape[0]:
        raise ValueError(f"mode count m={m} outside [1, {a.shape[0]}]")
    if a.shape[0] != grid.size:
        raise ValueError("operator size does not match grid")

    hd = grid.cell_volume
    vals, vecs = _parity_solve(a, int(m), hd)

    half = a.shape[0] // 2
    peaks = half + np.argmax(np.abs(vecs[half:]), axis=0)
    signs = np.sign(vecs[peaks, np.arange(m)])
    signs[signs == 0] = 1.0
    vecs *= signs

    ortho_err = float(np.max(np.abs(hd * (vecs.T @ vecs) - np.eye(m))))
    if ortho_err > _ORTHO_TOL:
        raise NumericalError(f"eigenvector orthonormality error {ortho_err:.3e} exceeds {_ORTHO_TOL}")
    if vals[0] <= 0:
        raise NumericalError(f"ground eigenvalue {vals[0]:.6e} is not positive")
    resid = a @ vecs - vecs * vals
    resid_norms = np.sqrt(hd * np.sum(resid ** 2, axis=0))
    bound = _RESIDUAL_TOL * (1.0 + vals)
    if np.any(resid_norms > bound):
        worst = int(np.argmax(resid_norms / bound))
        raise NumericalError(
            f"eigenpair residual {resid_norms[worst]:.3e} at mode {worst} "
            f"exceeds {bound[worst]:.3e}")

    return SpectralDecomposition(osc, grid, int(m), vals, vecs)


def decompose(osc: OscillatorSpec, grid: Grid, m: int | None = None) -> SpectralDecomposition:
    """Assemble and eigendecompose in one step; m defaults to size/2."""
    if m is None:
        m = grid.size // 2
    return eigendecompose(assemble_operator(osc, grid), m, osc=osc, grid=grid)
