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
holds a few blocks, never the lattice. The boundary-mass check runs where a
state is measured, not in the pass, so Picard gaps (round-off noise near
convergence) are reduced without it.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
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


@dataclass(frozen=True, eq=False)
class WindowSpec:
    """STFT window. The default is the unit-norm Gaussian 2^(d/4) e^(-pi |z|^2)."""

    kind: str = "gaussian"
    field: FieldSample | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "custom"):
            raise InvalidSpecError(f"unknown window kind {self.kind!r}")
        if self.kind == "custom":
            if self.field is None:
                raise InvalidSpecError("custom window needs a FieldSample")
        elif self.field is not None:
            raise InvalidSpecError("gaussian window takes no field")


@functools.lru_cache(maxsize=16)
def _gaussian_window_values(grid: Grid) -> np.ndarray:
    """Cyclic window table values g(z_i) with wrapped offsets, flat C-order."""
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


def window_values(w: WindowSpec, grid: Grid) -> np.ndarray:
    """Window samples in wrapped-offset layout (offset zero at index 0)."""
    if w.kind == "gaussian":
        return _gaussian_window_values(grid)
    if w.field.grid != grid:
        raise ValueError("custom window lives on a different grid")
    vals = w.field.values
    norm = np.sqrt(grid.cell_volume * np.sum(np.abs(vals) ** 2))
    if norm == 0:
        raise InvalidSpecError("custom window is identically zero")
    return vals / norm  # normalized so all windows are unit-norm


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

    def xi_lattice(self) -> np.ndarray:
        return self.grid.frequency_nodes()

    def to_csv(self, path) -> None:
        """Rows (x, xi, re, im, abs); d=2 writes per-axis coordinate columns."""
        nodes = self.grid.nodes()
        freqs = self.grid.frequency_nodes()
        d = self.grid.dimension
        header = (["x", "xi"] if d == 1 else ["x1", "x2", "xi1", "xi2"]) + ["re", "im", "abs"]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(self.grid.size):
                for n in range(self.grid.size):
                    v = self.values[i, n]
                    coords = [repr(float(c)) for c in (*nodes[i], *freqs[n])]
                    writer.writerow(coords + [repr(float(v.real)), repr(float(v.imag)),
                                              repr(float(abs(v)))])

    def metadata_sidecar(self, path) -> None:
        meta = {
            "schema": 1,
            "dimension": self.grid.dimension,
            "points_per_axis": self.grid.points_per_axis,
            "half_width": self.grid.half_width,
            "x_cell": self.grid.cell_volume,
            "xi_cell": self.grid.frequency_cell,
            "convention": "kernel exp(-2*pi*i*xi*z), xi lattice n/(2L) ascending",
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _check_boundary_mass(f: FieldSample) -> None:
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
            BoundaryMassWarning, stacklevel=3)


@functools.lru_cache(maxsize=4)
def _gaussian_conj_table(grid: Grid) -> np.ndarray:
    """Shift table g(z_j - x_i) of the default window (d=1).

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


def _stft_blocks(f: FieldSample, w: WindowSpec):
    """Yield (lo, block) with block[r] = h^d FFT(f conj(g(. - x_{lo+r}))).

    Rows run over consecutive x shifts from ``lo``; the block has shape
    (rows, N) for d=1 and (rows, N, N) for d=2, frequencies in FFT order on
    each axis (bin 0 first), with neither fftshift nor the staggered-grid
    phase applied. Every block has the same number of rows, about
    ``_BLOCK_CELLS`` lattice cells; the windowed product reuses one buffer.
    """
    grid = f.grid
    n_pts, d, size = grid.points_per_axis, grid.dimension, grid.size
    rows = min(size, max(1, _BLOCK_CELLS // size))  # powers of two: divides size
    axes = tuple(range(1, d + 1))
    ax = np.arange(n_pts)
    table = _gaussian_conj_table(grid) if d == 1 and w.kind == "gaussian" else None
    if table is None:
        g_conj = np.conj(window_values(w, grid)).reshape((n_pts,) * d)
    fv = f.values.reshape((n_pts,) * d)
    prod = np.empty((rows,) + (n_pts,) * d, dtype=np.complex128)
    for lo in range(0, size, rows):
        shifts = np.arange(lo, lo + rows)
        if table is not None:
            win = table[lo:lo + rows]
        elif d == 1:
            win = g_conj[(ax[None, :] - shifts[:, None]) % n_pts]
        else:
            win = g_conj[(ax[None, :, None] - (shifts // n_pts)[:, None, None]) % n_pts,
                         (ax[None, None, :] - (shifts % n_pts)[:, None, None]) % n_pts]
        np.multiply(fv, win, out=prod)
        block = np.fft.fftn(prod, axes=axes)
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


def stft(f: FieldSample, w: WindowSpec) -> PhaseSpaceField:
    """Windowed Fourier transform h^d sum_z f(z) conj(g(z - x_i)) e^{-2 pi i xi z}.

    One FFT per x shift, window shifted cyclically; each block of the shared
    pass is put in ascending xi order and given the staggered-grid phase.
    Warns when the field carries boundary mass above 1e-8 of its peak.
    """
    _check_boundary_mass(f)
    grid = f.grid
    n_pts, d, size = grid.points_per_axis, grid.dimension, grid.size
    halves = _ascending_halves(n_pts, d)
    phase = _staggered_phase(grid)
    out = np.empty((size, size), dtype=np.complex128)
    out_axes = out.reshape((size,) + (n_pts,) * d)
    for lo, block in _stft_blocks(f, w):
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


def gaussian_stft(f: FieldSample, w: WindowSpec) -> PhaseSpaceField:
    """STFT of the Gaussian-multiplied field; same code path as stft."""
    mf = FieldSample(f.grid, f.values * gaussian_half_density(f.grid))
    return stft(mf, w)


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


def mixed_reduce(w, p, q, cell_x, cell_xi) -> float:
    """Mixed L^p (over rows, the x axis) then L^q (over columns) reduction.

    ``w`` is the nonnegative weighted magnitude lattice, shape (nx, nxi).
    The INF marker takes the sup; finite exponents use the plain power sum
    times the cell measure, which is also the quasi-norm formula below 1.
    """
    return _outer_reduce(_column_reduce(np.asarray(w), p), p, q, cell_x, cell_xi)


def _weighted_columns(blocks, lattice, p) -> np.ndarray:
    """The inner reduction of every phase-space norm. Each (lo, mag) block
    holds the magnitudes of lattice rows lo.. in ascending xi, overwritten
    here: it is weighted by the same rows of ``lattice`` and must be finite.
    Returns the column sums of the p-th powers (column max for INF)."""
    columns = None
    for lo, mag in blocks:
        if lattice is not None:
            mag *= lattice[lo:lo + mag.shape[0]]
        if not np.all(np.isfinite(mag)):
            raise NumericalError("mixed norm encountered non-finite weighted values")
        part = _column_reduce(mag, p)
        if columns is None:
            columns = part
        elif is_inf(p):
            np.maximum(columns, part, out=columns)
        else:
            columns += part
    return columns


def _modulation_columns(f: FieldSample, w: WindowSpec, ws: WeightSpec,
                        osc: OscillatorSpec | None, p) -> np.ndarray:
    """``_weighted_columns`` of |V_g f| straight from the blocked STFT pass,
    one column per xi node in ascending order. No boundary-mass check."""
    grid = f.grid
    halves = _ascending_halves(grid.points_per_axis, grid.dimension)

    def magnitudes():
        mag = None
        for lo, block in _stft_blocks(f, w):
            if mag is None:
                mag = np.empty(block.shape)
            for src, dst in halves:
                np.abs(block[src], out=mag[dst])
            yield lo, mag.reshape(mag.shape[0], grid.size)

    return _weighted_columns(magnitudes(), _weight_lattice(ws, osc, grid), p)


def mixed_norm(field: PhaseSpaceField, w: WeightSpec, osc: OscillatorSpec | None,
               params: MixedNormParams) -> float:
    """Weighted inner-L^p (x), outer-L^q (xi) lattice norm of |field|.

    INF exponents take the lattice sup; exponents below 1 use the same
    power-sum formula (quasi-norm). Cell measures are h^d and (1/(2L))^d.
    """
    grid = field.grid
    columns = _weighted_columns([(0, np.abs(field.values))],
                                _weight_lattice(w, osc, grid), params.p)
    return _outer_reduce(columns, params.p, params.q, grid.cell_volume, grid.frequency_cell)


def modulation_norm(f: FieldSample, w: WindowSpec, ws: WeightSpec,
                    osc: OscillatorSpec | None, params: MixedNormParams) -> float:
    """Weighted modulation norm ||V_g f . w||_{L^{p,q}} of a field.

    Equal to ``mixed_norm(stft(f, w), ws, osc, params)`` up to round-off, but
    streamed: the (size, size) phase-space field is never built. The same
    reducer as ``mixed_norm`` folds each block of x-shift magnitudes from the
    shared STFT pass into the inner L^p column sums (column sup for INF);
    the outer L^q follows once all rows are in. Raises NumericalError on
    non-finite weighted values. Like ``stft`` it measures a state, so it
    warns when the field carries boundary mass above 1e-8 of its peak; a
    Picard gap goes through ``_modulation_columns`` without that check.
    """
    _check_boundary_mass(f)
    grid = f.grid
    columns = _modulation_columns(f, w, ws, osc, params.p)
    return _outer_reduce(columns, params.p, params.q, grid.cell_volume, grid.frequency_cell)
