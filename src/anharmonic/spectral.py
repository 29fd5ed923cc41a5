"""Periodic pseudospectral discretization of the oscillator and its spectrum.

Everything runs on the line: the paper states its results on R^d, and
every run here is d = 1. The kinetic part is the exact Fourier multiplier
|omega|^(2l) on a staggered grid (nodes offset by half a cell, so the origin
is never a node); the potential |x|^(2k) is diagonal. ``decompose`` is the
one entry: it builds only the even and odd (n/2)² blocks of the real
symmetric, positive definite grid operator (the multiplier is nonnegative
and the nodal potential strictly positive), solves them, and checks the
eigenpairs against H applied from its definition by FFT. Asked for one
parity, it solves that block for its eigenpairs and the other for its
eigenvalues alone, which only choose the modes kept. Its memory is
bounded by the result: one parity block exists at a time, each copied from
strided views of the kernel, and the gauge and the gates run over blocks
of 64 eigenvector columns, so the traced peak is about 2-2.3 times the
(n, m) eigenvector array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidSpecError, NonConvergenceError, NumericalError
from .model import OscillatorSpec, evaluate_potential

_ORTHO_TOL = 1e-9
_RESIDUAL_TOL = 1e-8
_MAX_DENSE = 4096
_GATE_COLUMNS = 64  # eigenvector columns per block of the gauge and the gates


@dataclass(frozen=True)
class Grid:
    """Staggered periodic grid on [-L, L] with N points."""

    points_per_axis: int = 512
    half_width: float = 12.0

    def __post_init__(self):
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

    def nodes(self) -> np.ndarray:
        """Nodes -L + (i + 1/2) h, formed so that node n-1-i is exactly -(node i)."""
        n = self.points_per_axis
        return (np.arange(n) + 0.5 - n // 2) * self.h

    def frequency_nodes(self) -> np.ndarray:
        """Frequency lattice n/(2L) in ascending order (DFT bins, shifted)."""
        n = self.points_per_axis
        return np.arange(-n // 2, n // 2) / (2.0 * self.half_width)

    @property
    def frequency_cell(self) -> float:
        return 1.0 / (2.0 * self.half_width)

    def wrapped_offsets(self) -> np.ndarray:
        """Signed offsets z_i of the cyclic window table, origin at index 0."""
        n = self.points_per_axis
        return (((np.arange(n) + n // 2) % n) - n // 2) * self.h


@dataclass(frozen=True, eq=False)
class FieldSample:
    """A complex-valued function sampled on the nodes of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.complex128, order="C")
        if v.ndim != 1 or v.shape[0] != self.grid.points_per_axis:
            raise InvalidSpecError(
                f"field needs {self.grid.points_per_axis} flat values, "
                f"got shape {np.shape(self.values)}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def norm_l2(self) -> float:
        return float(np.sqrt(self.grid.h * np.sum(np.abs(self.values) ** 2)))


def _kinetic_multiplier(osc: OscillatorSpec, grid: Grid) -> np.ndarray:
    n = grid.points_per_axis
    k = np.fft.fftfreq(n, d=1.0 / n)  # integer bin indices in FFT order
    w = np.pi * k / grid.half_width
    return np.abs(w) ** (2 * osc.l)


def _reflection_parity(v: np.ndarray):
    """Per column (axis 0) of ``v``: 1.0 where it is bitwise even under
    x -> -x (the reversed node index), -1.0 where bitwise odd, 0.0 elsewhere.
    A zero column counts as even."""
    mirror = v[::-1]
    even = (v == mirror).all(axis=0)
    return np.where(even, 1.0, np.where((v == -mirror).all(axis=0), -1.0, 0.0))


def _field_parity(values: np.ndarray) -> int:
    """1 or -1 when the 1-d ``values`` are real and bitwise even or odd under
    x -> -x, else 0: the one parity a decomposition may keep for a flow from
    them."""
    return 0 if values.imag.any() else int(_reflection_parity(values.real))


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
    """Retained eigenpairs of the discretized oscillator, as ``decompose`` returns them.

    ``eigenvectors`` has shape (grid.points_per_axis, m) and is orthonormal in the
    h-weighted inner product. Each column is exactly even or odd under
    x -> -x (the reversed node index), and its sign gauge is: the entry of
    largest modulus at x > 0 (the second half of the nodes) is positive.
    For the harmonic oscillator that is the sign of the Hermite function.
    Within its parity each eigenpair is unique up to that sign, so a mode is
    one column. ``parity`` is 1 or -1 when only the modes of that parity
    among the lowest m were kept (``decompose(..., parity=)``), else None;
    a flow evolves in a parity sector exactly when its decomposition keeps
    one parity (see ``nlheat``).
    """

    oscillator: OscillatorSpec
    grid: Grid
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    parity: int | None = None

    def __post_init__(self):
        self.eigenvalues = np.ascontiguousarray(self.eigenvalues, dtype=float)
        self.eigenvectors = np.ascontiguousarray(self.eigenvectors, dtype=float)
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @property
    def m(self) -> int:
        """The number of retained modes."""
        return len(self.eigenvalues)

    def coefficients(self, f: FieldSample) -> np.ndarray:
        if f.grid != self.grid:
            raise ValueError("field grid does not match decomposition grid")
        return self.grid.h * real_matmul(self.eigenvectors.T, f.values)

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
        res = float(np.sqrt(self.grid.h * np.sum(np.abs(f.values - rec) ** 2)))
        return res / nf


def _parity_blocks(mult: np.ndarray, v_nodes: np.ndarray, grid: Grid):
    """The even and odd blocks E = A11 + A12 J and O = A11 - A12 J of the grid
    operator, yielded one at a time: E, then O.

    A is H on the grid, symmetrized: its entry (i, j) is 0.5 (K[i - j] +
    K[j - i]) with K the inverse transform of ``mult`` (indices mod N), plus
    V at node i on the diagonal. A commutes exactly with the reflection
    x -> -x, which reverses the node index: the nodes are symmetric about 0
    bit for bit (see Grid.nodes), and |x|^(2k) = (x x)^k is exactly even. So
    with J the reversal of a half-length index, A12 J reads the kernel at
    i + j + 1. The half rows are the nodes x < 0.

    Both parts are strided views of the doubled kernel, so each block is one
    copy: A11, the Toeplitz rows at (i - j) mod N, is a reversed sliding
    window; A12 J, the Hankel rows at i + j + 1, a forward one. V goes on
    the diagonal of the copy before the Hankel view is added or subtracted.
    """
    n = grid.points_per_axis
    half = n // 2
    kern = np.fft.ifft(mult).real + 0.0  # every zero entry is +0.0
    sym = 0.5 * (kern + kern[(-np.arange(n)) % n])
    doubled = np.concatenate([sym, sym])
    # row i of the reversed windows starts at doubled[n + i] and runs down
    toeplitz = sliding_window_view(doubled[::-1], half)[n - 1:half - 1:-1]
    hankel = sliding_window_view(doubled, half)[1:half + 1]
    diag = np.arange(half)

    def block(combine):
        out = toeplitz.copy()
        out[diag, diag] += v_nodes[:half]
        return combine(out, hankel, out=out)

    yield block(np.add)
    yield block(np.subtract)


def _parity_solve(mult: np.ndarray, v_nodes: np.ndarray, grid: Grid, m: int,
                  parity: int | None = None):
    """Lowest m eigenpairs of the grid operator from its two parity blocks,
    or, with ``parity`` 1 or -1, those of them that have that parity.

    [u; Ju] and [u; -Ju] are eigenvectors of A exactly when u is one of E or
    O (see _parity_blocks), with the same eigenvalue. Returns the merged
    eigenvalues and the (n, m) vectors, h-normalized and each exactly even or
    odd. E is solved and dropped before O is built.

    Each block is solved for all its pairs by numpy's own LAPACK, dsyevd
    (divide and conquer; Gu and Eisenstat, SIAM J. Matrix Anal. Appl. 16,
    1995), and cut to the lowest k = min(m, n/2). Per harmonic block, one
    BLAS thread on a 2-vCPU box: 0.35 ms at 128 points, 7 ms at 512 and
    284 ms at 2048, against 0.47, 8.0 and 266 ms for MRRR (dsyevr). The
    eigenvalues agree with MRRR's to 2.2e-12 relative and the gauged vectors
    to 1.6e-13 in h-L^2 on the 512-point spectrum cases. dsyevd's
    2 (n/2)^2 workspace and numpy's copy of the block raise the process
    peak at the dense cap (see decompose). A block of the parity left out
    gets its eigenvalues alone (numpy's eigvalsh, about 3 ms against 7 ms
    at 512 points); they only decide which of the lowest m modes are kept.
    """
    n = grid.points_per_axis
    half = n // 2
    k = min(m, half)
    blocks = []
    for sign, block in zip((1, -1), _parity_blocks(mult, v_nodes, grid)):
        try:
            if parity in (None, sign):
                vals, u = np.linalg.eigh(block)
            else:
                vals, u = np.linalg.eigvalsh(block), None
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(f"dense symmetric eigensolver failed: {exc}",
                                      {"matrix_size": half, "modes": k})
        del block  # the loop name would keep E alive while O is built
        if u is not None and k < half:
            u = u[:, :k].copy()
        blocks.append((vals[:k], u))

    # no block holds more than k of the lowest m, so the lowest m of the two
    # lists are the lowest m overall; a tie puts the even mode first
    order = np.argsort(np.concatenate([blocks[0][0], blocks[1][0]]), kind="stable")[:m]
    odd = order >= k
    if parity is not None:
        odd = odd[odd == (parity < 0)]
        if not odd.size:
            raise ValueError(f"no mode of parity {parity} among the lowest {m}")
    vals = np.empty(odd.size)
    vecs = np.empty((n, odd.size))
    norm = 1.0 / np.sqrt(2.0 * grid.h)
    for sign, (block_vals, u), cols in zip((1.0, -1.0), blocks,
                                           (np.flatnonzero(~odd), np.flatnonzero(odd))):
        if u is None:  # the parity left out, which keeps no column
            continue
        block_vals, u = block_vals[:len(cols)], u[:, :len(cols)]
        u *= norm
        vals[cols] = block_vals
        vecs[:half, cols] = u
        vecs[half:, cols] = sign * u[::-1]
    return vals, vecs


def _apply_operator(mult: np.ndarray, v_nodes: np.ndarray, grid: Grid, vecs: np.ndarray):
    """H applied to the columns of ``vecs`` from its definition: the kinetic
    multiplier by real FFT down the columns, plus the nodal potential."""
    n = grid.points_per_axis
    spec = np.fft.rfft(vecs, axis=0)
    spec *= mult[:n // 2 + 1, None]
    out = np.fft.irfft(spec, n=n, axis=0)
    out += v_nodes[:, None] * vecs
    return out


def decompose(osc: OscillatorSpec, grid: Grid, m: int | None = None,
              parity: int | None = None) -> SpectralDecomposition:
    """Lowest m eigenpairs of H on the grid, solved by parity, checked and gauged;
    m defaults to n/2, n = grid.points_per_axis. With ``parity`` 1 (even) or
    -1 (odd), only the modes of that parity among the lowest m are kept.

    H = (-Laplacian)^l + V commutes with the reflection x -> -x, which on the
    staggered grid reverses the node index. So the n unknowns split into
    two (n/2)² parity blocks (see _parity_blocks), built directly from the
    kernel; no n x n matrix is formed. Each block is solved for every pair
    by numpy's LAPACK dsyevd (divide and conquer) and cut to its lowest
    k = min(m, n/2) pairs (see _parity_solve). The two lists are merged by a
    stable sort that keeps the lowest m; this is exact, since no block holds
    more than min(m, n/2) of the lowest m overall. Each block vector u becomes
    [u; ±Ju] / sqrt(2 h) in one (n, m) array, so every column is exactly
    even or odd (``v[::-1] == ±v`` bitwise). Within one parity the levels
    of the line are simple, so the solver's vectors are used as they come:
    a block whose levels ever came out degenerate would fail the
    orthonormality gate below rather than be re-orthonormalized.

    With ``parity`` set, only that block is solved for its vectors; the
    other is built but solved for its eigenvalues alone (eigvalsh). Those
    values are not gated: they only choose, through the same merge, which
    of the lowest m modes are kept. The kept pairs are bit for bit the
    columns of that parity in the full decomposition (unless a level of the
    other parity lies within rounding of the cut at m), and pass the same
    gauge and gates. A flow on such a decomposition evolves in that parity
    sector and reads no other mode (see ``nlheat``), so it needs one eigh,
    not two.

    Memory: E is built and solved before O is built, and the gauge and the
    gates below run over blocks of 64 columns, so besides the two block
    solutions and the returned arrays no temporary of the result's size is
    held (the traced peak is about 2-2.3 times the eigenvector array at
    m >= n/2). Below that, each block's (n/2)² vectors are held until they
    are cut to k columns. The trace does not see LAPACK's workspace: at the
    4096-point cap with 2048 modes, dsyevd's 2 (n/2)² doubles and numpy's
    copy of the block take the process peak from 208 MB (MRRR, which
    overwrote the block) to 230 MB, and the time from about 4.9-5.6 to
    5.2-5.5 s; at 2048 points the peak falls from 96 to 82 MB, since no
    second BLAS is loaded.

    Sign gauge: the entry of largest modulus at x > 0 (the second half of
    the nodes) is positive. In the harmonic case that is the sign of the
    Hermite function.

    Positivity is certified exactly: the multiplier is nonnegative and the
    strictly positive nodal potential is checked (the staggered grid
    excludes the origin). Raises InvalidSpecError for a grid above the dense
    cap, ValueError for m outside [1, n], for a ``parity`` other than None,
    1 or -1, or for one with no mode among the lowest m, and NumericalError for a
    non-finite or non-positive nodal potential or when the vectors violate
    the invariants: orthonormality to 1e-9, a positive ground eigenvalue,
    and the residual against H applied by FFT (see _apply_operator,
    independent of the blocks) to 1e-8 (1 + lambda) + 16 eps ||H||.
    NonConvergenceError when the dense solver fails.
    """
    n = grid.points_per_axis
    if n > _MAX_DENSE:
        raise InvalidSpecError(f"dense operator would be {n}^2; cap is {_MAX_DENSE}^2")
    v_nodes = np.asarray(evaluate_potential(osc, grid.nodes()), dtype=float)
    if not np.all(np.isfinite(v_nodes)):
        raise NumericalError("nodal potential is not finite; |x|^(2k) overflows on the grid")
    v_min = float(np.min(v_nodes))
    if v_min <= 0:
        raise NumericalError(f"nodal potential minimum {v_min:.3e} is not positive")
    if m is None:
        m = n // 2
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or not 1 <= m <= n:
        raise ValueError(f"mode count m={m} outside [1, {n}]")
    if parity is not None and (isinstance(parity, bool) or parity not in (1, -1)):
        raise ValueError(f"parity {parity!r} is not None, 1 or -1")

    m = int(m)
    parity = None if parity is None else int(parity)
    mult = _kinetic_multiplier(osc, grid)
    vals, vecs = _parity_solve(mult, v_nodes, grid, m, parity)
    m = len(vals)

    # gauge and gate the vectors a column block at a time, so no (n, m)
    # temporary is formed; the gates are judged after the loop, in order
    half = n // 2
    ortho_err = 0.0
    resid_norms = np.empty(m)
    for start in range(0, m, _GATE_COLUMNS):
        c = slice(start, min(start + _GATE_COLUMNS, m))
        block = vecs[:, c]
        width = block.shape[1]
        peaks = half + np.argmax(np.abs(block[half:]), axis=0)
        signs = np.sign(block[peaks, np.arange(width)])
        signs[signs == 0] = 1.0
        block *= signs
        # the Gram matrix is symmetric: its rows from this block down suffice,
        # and a column not yet gauged flips only the sign of its entries
        gram = grid.h * (vecs[:, start:].T @ block)
        gram[:width] -= np.eye(width)
        ortho_err = max(ortho_err, float(np.max(np.abs(gram))))
        resid = _apply_operator(mult, v_nodes, grid, block)
        resid -= block * vals[c]
        resid_norms[c] = np.sqrt(grid.h * np.sum(resid ** 2, axis=0))

    if ortho_err > _ORTHO_TOL:
        raise NumericalError(f"eigenvector orthonormality error {ortho_err:.3e} exceeds {_ORTHO_TOL}")
    if vals[0] <= 0:
        raise NumericalError(f"ground eigenvalue {vals[0]:.6e} is not positive")
    h_norm = mult.max() + v_nodes.max()  # a stable solve leaves up to 3.8 eps ||H||
    bound = _RESIDUAL_TOL * (1.0 + vals) + 16.0 * np.finfo(float).eps * h_norm
    if np.any(resid_norms > bound):
        worst = int(np.argmax(resid_norms / bound))
        raise NumericalError(
            f"eigenpair residual {resid_norms[worst]:.3e} at mode {worst} "
            f"exceeds {bound[worst]:.3e}")

    return SpectralDecomposition(osc, grid, vals, vecs, parity)
