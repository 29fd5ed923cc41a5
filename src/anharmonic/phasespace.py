"""Short-time Fourier transform and weighted mixed norms on the lattice.

Conventions: frequency variable xi in cycles (kernel e^{-2 pi i xi z}); the
xi lattice is n/(2L) with n ascending in [-N/2, N/2); window shifts are
cyclic, consistent with the periodic grid. Lattice cells are h^d in x and
(1/(2L))^d in xi, so the p=q=2 flat-weight mixed norm reproduces the L2
norm of the field exactly (discrete orthogonality of the DFT).

The transform and the streamed norms run on one blocked pass, ``_stft_blocks``:
it yields h^d FFT(f conj(g(. - x_i))) for consecutive blocks of x-shift rows
(about ``_BLOCK_CELLS`` lattice cells each), columns in FFT order. ``stft``
moves each block into ascending xi order (the fftshift), applies the
staggered-grid phase and fills the full ``PhaseSpaceField``. Every norm is
reduced by ``_weighted_columns`` (weighted inner L^p column sums or sups) and
``_outer_reduce`` (outer L^q): ``mixed_norm`` feeds it |field| as one block,
``modulation_norm`` the block magnitudes of the pass, so a streamed norm
holds a few blocks, never the lattice. ``modulation_norms`` reduces one pass
under several weights at once: the transform and its magnitudes, which are
most of the cost, are shared, and each weight adds only its own weighting
and column sums. The window g is the unit Gaussian 2^(d/4) e^(-pi |z|^2),
the only one: it gives one space over the whole range 0 < p, q <= INF, and
other admissible windows give only equivalent norms (Groechenig, Foundations
of Time-Frequency Analysis, 2001, 11.3; Galperin-Samarah, ACHA 16, 2004).
A real d=1 field streams half the spectrum: |V_g f(x, -xi)| = |V_g f(x, xi)|
for real f and the real g, and every weight depends on |xi| only, so the
pass runs ``rfft`` on the real windowed product, reduces the bins xi >= 0 and
mirrors the column sums. Complex fields and d=2 take the full spectrum. The
boundary-mass check runs where a state is measured, not in the pass, so
Picard gaps (round-off noise near convergence) are reduced without it.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryMassWarning, InvalidSpecError, NumericalError
from .model import (MixedNormParams, OscillatorSpec, WeightSpec, evaluate_potential,
                    is_inf)
from .spectral import FieldSample, Grid

_WINDOW_NORM_TOL = 1e-10
_BOUNDARY_TOL = 1e-8
_BLOCK_CELLS = 1 << 15  # lattice cells per block of the streamed STFT pass


@functools.lru_cache(maxsize=16)
def _gaussian_window_values(grid: Grid) -> np.ndarray:
    """Unit Gaussian window g(z_i) at the wrapped offsets, flat C-order."""
    z = grid.wrapped_axis_offsets()
    if grid.dimension == 1:
        g = 2.0 ** 0.25 * np.exp(-np.pi * z ** 2)
    else:
        g1 = 2.0 ** 0.25 * np.exp(-np.pi * z ** 2)
        g = np.outer(g1, g1).ravel()
    norm = np.sqrt(grid.cell_volume * np.sum(g ** 2))
    if abs(norm - 1.0) > _WINDOW_NORM_TOL:
        raise NumericalError(
            f"gaussian window norm deviates by {abs(norm - 1.0):.3e}; grid too coarse or small")
    g = g.astype(np.complex128)
    g.setflags(write=False)
    return g


@dataclass(frozen=True, eq=False)
class PhaseSpaceField:
    """STFT values on the (x, xi) lattice.

    ``values[i, n]``: row i indexes the x node (flat C-order), column n the
    xi lattice point (per-axis ascending, C-order for d=2).
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.complex128)
        size = self.grid.size
        if v.shape != (size, size):
            raise InvalidSpecError(f"phase-space values must be ({size}, {size})")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def _check_boundary_mass(f: FieldSample, stacklevel: int = 3) -> None:
    grid = f.grid
    amax = float(np.max(np.abs(f.values)))
    if amax == 0.0:
        return
    mask = np.any(np.abs(grid.nodes()) >= grid.half_width - 2.0 * grid.h, axis=1)
    edge = float(np.max(np.abs(f.values[mask]))) / amax
    if edge > _BOUNDARY_TOL:
        warnings.warn(
            f"field amplitude near the box boundary is {edge:.3e} of its peak; "
            f"cyclic window wrap-around may contaminate the STFT",
            BoundaryMassWarning, stacklevel=stacklevel)


@functools.lru_cache(maxsize=4)
def _gaussian_conj_table(grid: Grid) -> np.ndarray:
    """Shift table g(z_j - x_i) of the window (d=1).

    The gaussian is real, so the table is its own conjugate and is stored
    real: a complex times a real with exact zero imaginary part rounds the
    same as a complex times that real.
    """
    g = _gaussian_window_values(grid).real
    n_pts = grid.points_per_axis
    idx = (np.arange(n_pts)[None, :] - np.arange(n_pts)[:, None]) % n_pts
    table = g[idx]
    table.setflags(write=False)
    return table


def _stft_blocks(f: FieldSample, real: bool = False):
    """Yield (lo, block) with block[r] = h^d FFT(f g(. - x_{lo+r})).

    Rows run over consecutive x shifts from ``lo``; the block has shape
    (rows, N) for d=1 and (rows, N, N) for d=2, frequencies in FFT order on
    each axis (bin 0 first), with neither fftshift nor the staggered-grid
    phase applied. Every block has the same number of rows, about
    ``_BLOCK_CELLS`` lattice cells; the windowed product reuses one buffer.
    ``real`` (d=1, f real) transforms the real product with ``rfft`` and
    yields only the bins 0..N/2, shape (rows, N/2 + 1).
    """
    grid = f.grid
    n_pts, d, size = grid.points_per_axis, grid.dimension, grid.size
    rows = min(size, max(1, _BLOCK_CELLS // size))  # powers of two: divides size
    axes = tuple(range(1, d + 1))
    if d == 1:
        table = _gaussian_conj_table(grid)
    else:
        ax = np.arange(n_pts)
        g_conj = np.conj(_gaussian_window_values(grid)).reshape((n_pts,) * d)
    fv = f.values.real if real else f.values.reshape((n_pts,) * d)
    prod = np.empty((rows,) + (n_pts,) * d, dtype=fv.dtype)
    for lo in range(0, size, rows):
        if d == 1:
            win = table[lo:lo + rows]
        else:
            shifts = np.arange(lo, lo + rows)
            win = g_conj[(ax[None, :, None] - (shifts // n_pts)[:, None, None]) % n_pts,
                         (ax[None, None, :] - (shifts % n_pts)[:, None, None]) % n_pts]
        np.multiply(fv, win, out=prod)
        block = np.fft.rfft(prod, axis=1) if real else np.fft.fftn(prod, axes=axes)
        block *= grid.cell_volume
        yield lo, block


def _ascending_halves(n_pts: int, d: int):
    """(FFT-order index, ascending-order index) pairs over a (rows, N[, N])
    block: per axis, bins N/2.. (negative frequencies) move to the front."""
    half = n_pts // 2
    low, high = slice(None, half), slice(half, None)
    pairs = []
    for negative in itertools.product((False, True), repeat=d):
        src = (slice(None),) + tuple(high if neg else low for neg in negative)
        dst = (slice(None),) + tuple(low if neg else high for neg in negative)
        pairs.append((src, dst))
    return pairs


def _staggered_phase(grid: Grid) -> np.ndarray:
    # staggered nodes shift the DFT by e^{i pi n (N-1)/N} per axis, n ascending
    n_pts = grid.points_per_axis
    n = np.arange(-n_pts // 2, n_pts // 2)
    phase = np.exp(1j * np.pi * n * (n_pts - 1) / n_pts)
    return phase if grid.dimension == 1 else np.outer(phase, phase).ravel()


def stft(f: FieldSample) -> PhaseSpaceField:
    """Windowed Fourier transform h^d sum_z f(z) g(z - x_i) e^{-2 pi i xi z}.

    One FFT per x shift, the Gaussian g shifted cyclically; each block of the
    shared pass is put in ascending xi order and given the staggered-grid
    phase. Warns when the field carries boundary mass above 1e-8 of its peak.
    """
    _check_boundary_mass(f)
    grid = f.grid
    n_pts, d, size = grid.points_per_axis, grid.dimension, grid.size
    halves = _ascending_halves(n_pts, d)
    phase = _staggered_phase(grid)
    out = np.empty((size, size), dtype=np.complex128)
    out_axes = out.reshape((size,) + (n_pts,) * d)
    for lo, block in _stft_blocks(f):
        rows = block.shape[0]
        target = out_axes[lo:lo + rows]
        for src, dst in halves:
            target[dst] = block[src]
        out[lo:lo + rows] *= phase
    return PhaseSpaceField(grid, out)


def gaussian_half_density(grid: Grid) -> np.ndarray:
    """pi^(-d/4) e^(-|x|^2 / 2) on the nodes; the Gaussian multiplier's symbol."""
    r2 = np.sum(grid.nodes() ** 2, axis=1)
    return np.pi ** (-grid.dimension / 4.0) * np.exp(-r2 / 2.0)


@functools.lru_cache(maxsize=8)
def _weight_lattice(w: WeightSpec, osc: OscillatorSpec | None, grid: Grid):
    """Weight values on the full (x, xi) lattice, or None for trivial weights.

    Frequency-scale conversion lives here and nowhere else: the transform
    lattice carries cycle frequencies xi = n/(2L), while the operator symbol
    (and hence the symbol-adapted weight) uses the angular variable
    omega = 2*pi*xi. The polynomial weight is a plain phase-space bracket in
    the transform's own variables, so it takes xi unconverted.

    Built from per-node separable pieces so the d=2 case never materializes
    (size^2, d) coordinate arrays; agreement with weight_value is covered by
    tests.
    """
    if w.kind == "flat" or w.s == 0.0:
        return None
    nodes = grid.nodes()
    freqs = grid.frequency_nodes()
    if w.kind == "anharmonic":
        if osc is None:
            raise InvalidSpecError("anharmonic weight needs an OscillatorSpec")
        a = np.sqrt(np.asarray(evaluate_potential(osc.potential, nodes), dtype=float).ravel())
        b = (2.0 * np.pi * np.linalg.norm(freqs, axis=1)) ** osc.l
        base = osc.q1 + a[:, None] + b[None, :]
    else:
        base = 1.0 + np.linalg.norm(nodes, axis=1)[:, None] \
            + np.linalg.norm(freqs, axis=1)[None, :]
    lattice = base ** w.s
    lattice.setflags(write=False)
    return lattice


def _column_reduce(w: np.ndarray, p) -> np.ndarray:
    """Inner reduction over the rows of a magnitude block: the column sup for
    INF, otherwise the column sums of w^p (cell measure not yet applied)."""
    return w.max(axis=0) if is_inf(p) else (w ** float(p)).sum(axis=0)


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


def _weighted_columns(blocks, lattices, p, lattice_columns=slice(None)) -> list:
    """The inner reduction of every phase-space norm, for several weights from
    one pass. Each (lo, mag) block holds the magnitudes of lattice rows lo..;
    every entry of ``lattices`` weights those rows of it, taken at
    ``lattice_columns`` (by default all of them, a block in ascending xi). A
    None lattice reduces the raw magnitudes; any other weights a copy of the
    block in one scratch buffer, except the last, which overwrites the block
    in place (so a single lattice costs no copy). Every weighted block must be
    finite. Returns one array per lattice: the column sums of the p-th powers
    (column max for INF), one per block column."""
    last = len(lattices) - 1
    columns = [None] * len(lattices)
    scratch = None
    for lo, mag in blocks:
        rows = mag.shape[0]
        for k, lattice in enumerate(lattices):
            weighted = mag
            if lattice is not None:
                weights = lattice[lo:lo + rows, lattice_columns]
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


def _modulation_columns(f: FieldSample, weights, osc: OscillatorSpec | None, p) -> list:
    """``_weighted_columns`` of |V_g f| straight from one blocked STFT pass,
    one column array per WeightSpec in ``weights`` (flat weights reduce the
    raw magnitudes), each with one column per xi node in ascending order. No
    boundary-mass check. A real d=1 field reduces only the N/2 + 1 ``rfft``
    bins and mirrors their column sums (see the module docstring).
    """
    grid = f.grid
    n_pts = grid.points_per_axis
    lattices = [_weight_lattice(ws, osc, grid) for ws in weights]
    if grid.dimension == 1 and not f.values.imag.any():
        half = n_pts // 2
        # rfft bin k has |xi| = k/(2L), as has lattice column N/2 - k (the
        # Nyquist bin N/2 is column 0, xi = -N/2): a reversed view weighs all
        mirrored = []
        for sums in _weighted_columns(
                ((lo, np.abs(block)) for lo, block in _stft_blocks(f, real=True)),
                lattices, p, slice(half, None, -1)):
            columns = np.empty(n_pts)
            columns[half:] = sums[:half]
            columns[:half] = sums[half:0:-1]  # bin k also stands for -k, at column N/2 - k
            mirrored.append(columns)
        return mirrored

    halves = _ascending_halves(n_pts, grid.dimension)

    def magnitudes():
        mag = None
        for lo, block in _stft_blocks(f):
            if mag is None:
                mag = np.empty(block.shape)
            for src, dst in halves:
                np.abs(block[src], out=mag[dst])
            yield lo, mag.reshape(mag.shape[0], grid.size)

    return _weighted_columns(magnitudes(), lattices, p)


def mixed_norm(field: PhaseSpaceField, w: WeightSpec, osc: OscillatorSpec | None,
               params: MixedNormParams) -> float:
    """Weighted inner-L^p (x), outer-L^q (xi) lattice norm of |field|.

    INF exponents take the lattice sup; exponents below 1 use the same
    power-sum formula (quasi-norm). Cell measures are h^d and (1/(2L))^d.
    """
    grid = field.grid
    [columns] = _weighted_columns([(0, np.abs(field.values))],
                                  [_weight_lattice(w, osc, grid)], params.p)
    return _outer_reduce(columns, params.p, params.q, grid.cell_volume, grid.frequency_cell)


def modulation_norm(f: FieldSample, ws: WeightSpec, osc: OscillatorSpec | None,
                    params: MixedNormParams) -> float:
    """Weighted modulation norm ||V_g f . w||_{L^{p,q}}, g the unit Gaussian.

    Equal to ``mixed_norm(stft(f), ws, osc, params)`` up to round-off, but
    streamed: the (size, size) phase-space field is never built. The same
    reducer as ``mixed_norm`` folds each block of x-shift magnitudes from the
    shared STFT pass into the inner L^p column sums (column sup for INF);
    the outer L^q follows once all rows are in. A real d=1 field transforms
    only the frequencies xi >= 0 (``rfft``) and mirrors their column sums,
    which is about half the work; the value agrees with the full-spectrum
    pass to round-off. Raises NumericalError on
    non-finite weighted values. Like ``stft`` it measures a state, so it
    warns when the field carries boundary mass above 1e-8 of its peak; a
    Picard gap goes through ``_modulation_columns`` without that check.
    This is the one-weight case of ``modulation_norms``.
    """
    [value] = _measured_norms(f, [ws], osc, params)
    return value


def modulation_norms(f: FieldSample, weights, osc: OscillatorSpec | None,
                     params: MixedNormParams) -> list:
    """``modulation_norm`` of one field under each WeightSpec in ``weights``,
    from one blocked STFT pass and one boundary-mass check. Each value equals
    the one-weight ``modulation_norm`` bit for bit: the magnitudes of the
    pass are shared and each weight is applied with the same arithmetic. An
    overflowing weight anywhere in the list raises NumericalError.
    """
    return _measured_norms(f, weights, osc, params)


def _measured_norms(f, weights, osc, params) -> list:
    _check_boundary_mass(f, stacklevel=4)  # names the caller of the public function
    cells = (f.grid.cell_volume, f.grid.frequency_cell)
    return [_outer_reduce(columns, params.p, params.q, *cells)
            for columns in _modulation_columns(f, weights, osc, params.p)]
