"""Short-time Fourier transform and weighted mixed norms on the lattice.

Conventions: frequency variable xi in cycles (kernel e^{-2 pi i xi z}); the
xi lattice is n/(2L) with n ascending in [-N/2, N/2); window shifts are
cyclic, consistent with the periodic grid. Lattice cells are h in x and
1/(2L) in xi, so the p=q=2 flat-weight mixed norm reproduces the L2
norm of the field exactly (discrete orthogonality of the DFT).

Every norm takes the exponent s of the one weight, the symbol-adapted
v_s = (1 + V(x)^(1/2) + |omega|^l)^s of ``model.weight_value``, read at the
angular frequency omega = 2 pi xi; s = 0 is the flat weight and needs no
oscillator. Other weights of the literature, such as the bracket
(1 + |x| + |xi|)^s, are equivalent to it for k = l = 1 and define the same
spaces (Groechenig, Foundations of Time-Frequency Analysis, 2001, ch. 11).

The transform and the streamed norms run on one blocked pass, ``_stft_blocks``:
it yields h FFT(f conj(g(. - x_i))) for consecutive blocks of x-shift rows
(about ``_BLOCK_CELLS`` lattice cells each), columns in FFT order. ``stft``
moves each block into ascending xi order (the fftshift), applies the
staggered-grid phase and fills the full ``PhaseSpaceField``. The norms
reduce in the order the pass yields: the weight lattice is cached with its
columns in FFT order, and a norm moves its column sums to ascending xi once,
at the end (the order of the xi lattice is only a convention). Every norm is
reduced by ``_weighted_columns`` (weighted inner L^p column sums or sups) and
``_outer_reduce`` (outer L^q): ``mixed_norm`` feeds it |field|, put in FFT
order, as one block, ``modulation_norm`` the block magnitudes of the pass,
so a streamed norm holds a few blocks, never the lattice.
``modulation_norms`` reduces one pass for several weight exponents at once:
the transform and its magnitudes, which are most of the cost, are shared,
and each weight adds only its own weighting and column sums. The window g
is the unit Gaussian 2^(1/4) e^(-pi z^2), the one window: it gives one
space over the whole range 0 < p, q <= INF, and other admissible windows
give only equivalent norms (Groechenig, Foundations of Time-Frequency Analysis, 2001,
11.3; Galperin-Samarah, ACHA 16, 2004).
A real field streams half the spectrum: |V_g f(x, -xi)| = |V_g f(x, xi)|
for real f and the real g, and the weight depends on |xi| only, so the
pass runs ``rfft`` on the real windowed product, reduces the bins 0..N/2 (the
leading FFT columns, weighted by the leading lattice columns) and mirrors
their column sums onto the FFT columns N - k. Complex fields take the full
spectrum.
A real field that is also bitwise even or odd (``v == +-v[::-1]``, an
O(N) check; every state of a parity-sector flow in ``nlheat`` is one) streams
half the rows as well. The staggered nodes give -x_i = x_{N-1-i} bit for bit,
so with the even window V_g f(-x, xi) = +-conj(V_g f(x, xi)); the weight
depends on x only through the even V. The pass therefore runs the rows
x > 0 alone (``_stft_blocks`` from row N/2) and doubles the finite-p column
sums; the column sup for p = INF is the same over half the rows. Other
fields run every row. The boundary-mass check runs where a state is
measured, not in the pass, so Picard gaps (round-off noise near
convergence) are reduced without it.
Cauchy-Schwarz caps every norm by the field's L^2 norm: ``_l2_cap`` is the
constant C with ``modulation_norm`` <= C ||f||_{L^2}, cached once per
(s, oscillator, grid, exponents). ``nlheat`` stops its Picard windows on that
cap and takes the exact pass of a gap only when the cap cannot decide.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryMassWarning, InvalidSpecError, NumericalError
from .model import MixedNormParams, OscillatorSpec, is_inf, weight_value
from .spectral import FieldSample, Grid, _reflection_parity

_WINDOW_NORM_TOL = 1e-10
_BOUNDARY_TOL = 1e-8
_BLOCK_CELLS = 1 << 15  # lattice cells per block of the streamed STFT pass
# relative lift of the L^2 cap over an exact norm's FFT round-off (about
# eps log2 N, 2e-15 at 512 points)
_CAP_SLACK = 1e-13


@functools.lru_cache(maxsize=16)
def _gaussian_window_values(grid: Grid) -> np.ndarray:
    """Unit Gaussian window 2^(1/4) e^(-pi z_i^2) at the wrapped offsets."""
    z = grid.wrapped_offsets()
    g = 2.0 ** 0.25 * np.exp(-np.pi * z ** 2)
    norm = np.sqrt(grid.h * np.sum(g ** 2))
    if abs(norm - 1.0) > _WINDOW_NORM_TOL:
        raise NumericalError(
            f"gaussian window norm deviates by {abs(norm - 1.0):.3e}; grid too coarse or small")
    g.setflags(write=False)
    return g


@dataclass(frozen=True, eq=False)
class PhaseSpaceField:
    """STFT values on the (x, xi) lattice.

    ``values[i, n]``: row i indexes the x node, column n the xi lattice
    point in ascending order.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.complex128)
        size = self.grid.points_per_axis
        if v.shape != (size, size):
            raise InvalidSpecError(f"phase-space values must be ({size}, {size})")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def _check_boundary_mass(f: FieldSample, stacklevel: int = 3) -> None:
    grid = f.grid
    amax = float(np.max(np.abs(f.values)))
    if amax == 0.0:
        return
    mask = np.abs(grid.nodes()) >= grid.half_width - 2.0 * grid.h
    edge = float(np.max(np.abs(f.values[mask]))) / amax
    if edge > _BOUNDARY_TOL:
        warnings.warn(
            f"field amplitude near the box boundary is {edge:.3e} of its peak; "
            f"cyclic window wrap-around may contaminate the STFT",
            BoundaryMassWarning, stacklevel=stacklevel)


@functools.lru_cache(maxsize=4)
def _gaussian_conj_table(grid: Grid) -> np.ndarray:
    """Shift table g(z_j - x_i) of the window.

    The gaussian is real, so the table is its own conjugate and is stored
    real: a complex times a real with exact zero imaginary part rounds the
    same as a complex times that real.
    """
    g = _gaussian_window_values(grid)
    n_pts = grid.points_per_axis
    idx = (np.arange(n_pts)[None, :] - np.arange(n_pts)[:, None]) % n_pts
    table = g[idx]
    table.setflags(write=False)
    return table


def _stft_blocks(f: FieldSample, real: bool = False, first_row: int = 0):
    """Yield (lo, block) with block[r] = h FFT(f g(. - x_{lo+r})).

    Rows run over consecutive x shifts from ``first_row`` (0, or N/2 for the
    half-row pass of an even or odd field); the block has shape (rows, N),
    frequencies in FFT order (bin 0 first), the order the weight lattice and
    the norms use, with neither fftshift nor the staggered-grid phase
    applied. Every block has the same number of rows, about ``_BLOCK_CELLS``
    lattice cells and at most the rows to run; the windowed product reuses
    one buffer.
    ``real`` (f real) transforms the real product with ``rfft`` and yields
    only the bins 0..N/2, shape (rows, N/2 + 1).
    """
    grid = f.grid
    size = grid.points_per_axis
    # powers of two: divides size - first_row
    rows = min(size - first_row, max(1, _BLOCK_CELLS // size))
    table = _gaussian_conj_table(grid)
    fv = f.values.real if real else f.values
    prod = np.empty((rows, size), dtype=fv.dtype)
    for lo in range(first_row, size, rows):
        np.multiply(fv, table[lo:lo + rows], out=prod)
        block = np.fft.rfft(prod, axis=1) if real else np.fft.fft(prod, axis=1)
        block *= grid.h
        yield lo, block


def _staggered_phase(grid: Grid) -> np.ndarray:
    # staggered nodes shift the DFT by e^{i pi n (N-1)/N}, n ascending
    n_pts = grid.points_per_axis
    n = np.arange(-n_pts // 2, n_pts // 2)
    return np.exp(1j * np.pi * n * (n_pts - 1) / n_pts)


def stft(f: FieldSample) -> PhaseSpaceField:
    """Windowed Fourier transform h sum_z f(z) g(z - x_i) e^{-2 pi i xi z}.

    One FFT per x shift, the Gaussian g shifted cyclically; each block of the
    shared pass is put in ascending xi order and given the staggered-grid
    phase. Warns when the field carries boundary mass above 1e-8 of its peak.
    """
    _check_boundary_mass(f)
    grid = f.grid
    phase = _staggered_phase(grid)
    n = grid.points_per_axis
    out = np.empty((n, n), dtype=np.complex128)
    for lo, block in _stft_blocks(f):
        rows = block.shape[0]
        out[lo:lo + rows] = np.fft.fftshift(block, axes=1)
        out[lo:lo + rows] *= phase
    return PhaseSpaceField(grid, out)


def gaussian_half_density(grid: Grid) -> np.ndarray:
    """pi^(-d/4) e^(-|x|^2 / 2) at d = 1 on the nodes; the Gaussian
    multiplier's symbol."""
    r2 = grid.nodes() ** 2
    return np.pi ** -0.25 * np.exp(-r2 / 2.0)


@functools.lru_cache(maxsize=8)
def _weight_lattice(s: float, osc: OscillatorSpec | None, grid: Grid):
    """``weight_value`` on the full (x, xi) lattice, columns in the FFT order
    of ``_stft_blocks``, or None for s = 0 (the flat weight, reduced from the
    raw magnitudes).

    Frequency-scale conversion lives here and nowhere else: the transform
    lattice carries cycle frequencies xi = n/(2L), while the operator symbol,
    and hence the weight, uses the angular variable omega = 2*pi*xi.
    """
    if s == 0.0:
        return None
    xi = np.fft.ifftshift(grid.frequency_nodes())
    lattice = weight_value(s, osc, grid.nodes()[:, None], 2.0 * np.pi * xi[None, :])
    lattice.setflags(write=False)
    return lattice


@functools.lru_cache(maxsize=8)
def _l2_cap(s: float, osc: OscillatorSpec | None, grid: Grid, params: MixedNormParams) -> float:
    """The constant C with ``modulation_norm(f, s, osc, params) <= C ||f||_{L^2}``
    for every field f on ``grid``.

    Cauchy-Schwarz on the lattice gives |V_g f(x_i, xi_n)| <= ||f||_2 ||g||_2
    (every cyclic shift of g has the lattice L^2 norm of g), and the lattice
    (quasi-)norm is monotone in |V_g f|, so C = ||g||_2 ||v_s||_{L^{p,q}}
    for all 0 < p, q <= INF, with no triangle inequality (Groechenig,
    Foundations of Time-Frequency Analysis, 2001, ch. 3). The cached weight
    lattice is reduced by ``_column_reduce`` in row blocks of the pass's
    size, never as a whole; the flat weight's column sums are the row count.
    Equality holds at p = q = INF, s = 0 for a window shifted to a node and
    modulated by a lattice frequency; C is lifted by ``_CAP_SLACK`` so that
    it stays above the round-off of the exact norm there.
    """
    n, p = grid.points_per_axis, params.p
    lattice = _weight_lattice(s, osc, grid)
    if lattice is None:
        columns = np.full(n, 1.0 if is_inf(p) else float(n))
    else:
        rows = max(1, _BLOCK_CELLS // n)
        parts = [_column_reduce(lattice[lo:lo + rows], p) for lo in range(0, n, rows)]
        columns = np.max(parts, axis=0) if is_inf(p) else np.sum(parts, axis=0)
    weight = _outer_reduce(columns, p, params.q, grid.h, grid.frequency_cell)
    g = _gaussian_window_values(grid)
    return float(np.sqrt(grid.h * np.dot(g, g))) * weight * (1.0 + _CAP_SLACK)


def _column_reduce(w: np.ndarray, p) -> np.ndarray:
    """Inner reduction over the rows of a magnitude block: the column sup for
    INF, otherwise the column sums of w^p (cell measure not yet applied).
    An integer p is formed by repeated squaring in new arrays rather than
    the general ``pow`` (p = 1 sums w itself, p = 2 is one square); w is
    never written, so a caller may hand the same block to another weight."""
    if is_inf(p):
        return w.max(axis=0)
    p = float(p)
    if not p.is_integer():
        return (w ** p).sum(axis=0)
    n, square, power = int(p), w, None
    while True:
        if n & 1:
            power = square if power is None else power * square
        n >>= 1
        if not n:
            return power.sum(axis=0)
        square = square * square


def _outer_reduce(columns: np.ndarray, p, q, cell_x, cell_xi) -> float:
    """Finish a mixed norm from ``_column_reduce`` output of all rows."""
    if is_inf(p):
        inner = columns
    else:
        p = float(p)
        inner = (columns * cell_x) ** (1.0 / p)
    if is_inf(q):
        return float(inner.max())
    q = float(q)
    return float((np.sum(inner ** q) * cell_xi) ** (1.0 / q))


def _weighted_columns(blocks, lattices, p) -> list:
    """The inner reduction of every phase-space norm, for several weights from
    one pass. Each (lo, mag) block holds the magnitudes of lattice rows lo..,
    columns in FFT order; every entry of ``lattices`` weights it by the
    leading columns of those rows (all of them, or the bins 0..N/2 of an
    ``rfft`` block). A None lattice reduces the raw magnitudes; any other
    weights a copy of the block in one scratch buffer, except the last, which
    overwrites the block in place (so a single lattice costs no copy). Every
    weighted block must be finite. Returns one array per lattice: the column
    sums of the p-th powers (column max for INF), one per block column."""
    last = len(lattices) - 1
    columns = [None] * len(lattices)
    scratch = None
    for lo, mag in blocks:
        rows, width = mag.shape
        for k, lattice in enumerate(lattices):
            weighted = mag
            if lattice is not None:
                weights = lattice[lo:lo + rows, :width]
                if k == last:
                    mag *= weights
                else:
                    if scratch is None:  # the first block is the largest
                        scratch = np.empty_like(mag)
                    weighted = np.multiply(mag, weights, out=scratch[:rows])
            if not np.all(np.isfinite(weighted)):
                raise NumericalError("mixed norm encountered non-finite weighted values")
            part = _column_reduce(weighted, p)
            if columns[k] is None:
                columns[k] = part
            elif is_inf(p):
                np.maximum(columns[k], part, out=columns[k])
            else:
                columns[k] += part
    return columns


def _modulation_columns(f: FieldSample, s_values, osc: OscillatorSpec | None, p) -> list:
    """``_weighted_columns`` of |V_g f| straight from one blocked STFT pass,
    one column array per weight exponent in ``s_values`` (s = 0 reduces the
    raw magnitudes), each with one column per xi node in ascending order. No
    boundary-mass check. A real field reduces only the N/2 + 1 ``rfft``
    bins and mirrors their column sums; if it is also bitwise even or odd,
    only the rows x > 0, with finite-p column sums doubled (see the module
    docstring). Blocks are reduced in FFT order; the columns move to
    ascending xi once, at the end.
    """
    grid = f.grid
    real = not f.values.imag.any()
    first_row = grid.points_per_axis // 2 if real and _reflection_parity(f.values.real) else 0
    blocks = ((lo, np.abs(block).reshape(block.shape[0], -1))
              for lo, block in _stft_blocks(f, real, first_row))
    columns = []
    for sums in _weighted_columns(blocks, [_weight_lattice(s, osc, grid) for s in s_values], p):
        if first_row and not is_inf(p):
            sums *= 2.0  # rows x < 0 repeat the magnitudes of rows x > 0
        if real:  # rfft bin k also stands for -k, at FFT column N - k
            sums = np.concatenate([sums, sums[-2:0:-1]])
        columns.append(np.fft.fftshift(sums))
    return columns


def mixed_norm(field: PhaseSpaceField, s: float, osc: OscillatorSpec | None,
               params: MixedNormParams) -> float:
    """Inner-L^p (x), outer-L^q (xi) lattice norm of |field| weighted by v_s.

    INF exponents take the lattice sup; exponents below 1 use the same
    power-sum formula (quasi-norm). Cell measures are h and 1/(2L).
    |field| is put in the FFT column order of the weight lattice first, and
    its column sums back in ascending xi, as the streamed norm's are.
    """
    grid = field.grid
    [columns] = _weighted_columns([(0, np.fft.ifftshift(np.abs(field.values), axes=1))],
                                  [_weight_lattice(s, osc, grid)], params.p)
    return _outer_reduce(np.fft.fftshift(columns), params.p, params.q,
                         grid.h, grid.frequency_cell)


def modulation_norm(f: FieldSample, s: float, osc: OscillatorSpec | None,
                    params: MixedNormParams) -> float:
    """Weighted modulation norm ||V_g f . v_s||_{L^{p,q}}, g the unit Gaussian.

    Equal to ``mixed_norm(stft(f), s, osc, params)`` up to round-off, but
    streamed: the (size, size) phase-space field is never built. The same
    reducer as ``mixed_norm`` folds each block of x-shift magnitudes from the
    shared STFT pass into the inner L^p column sums (column sup for INF), in
    the FFT order of the pass; the columns move to ascending xi and the outer
    L^q follows once all rows are in. A real field transforms
    only the frequencies xi >= 0 (``rfft``) and mirrors their column sums,
    which is about half the work; if it is also bitwise even or odd
    (``v == +-v[::-1]``), only the x-shift rows x > 0 are run and the
    finite-p column sums doubled, which halves the work again. Either value
    agrees with the full pass to round-off. Raises NumericalError on
    non-finite weighted values. Like ``stft`` it measures a state, so it
    warns when the field carries boundary mass above 1e-8 of its peak; a
    Picard gap goes through ``_modulation_columns`` without that check.
    This is the one-weight case of ``modulation_norms``.
    """
    [value] = _measured_norms(f, [s], osc, params)
    return value


def modulation_norms(f: FieldSample, s_values, osc: OscillatorSpec | None,
                     params: MixedNormParams) -> list:
    """``modulation_norm`` of one field for each weight exponent in ``s_values``,
    from one blocked STFT pass and one boundary-mass check. Each value equals
    the one-weight ``modulation_norm`` bit for bit: the magnitudes of the
    pass are shared and each weight is applied with the same arithmetic. An
    overflowing weight anywhere in the list raises NumericalError.
    """
    return _measured_norms(f, s_values, osc, params)


def _measured_norms(f, s_values, osc, params) -> list:
    _check_boundary_mass(f, stacklevel=4)  # names the caller of the public function
    cells = (f.grid.h, f.grid.frequency_cell)
    return [_outer_reduce(columns, params.p, params.q, *cells)
            for columns in _modulation_columns(f, s_values, osc, params.p)]
