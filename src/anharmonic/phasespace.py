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
it yields the unscaled FFT(f conj(g(. - x_i))) for consecutive blocks of
x-shift rows (about ``_BLOCK_CELLS`` lattice cells each), columns in FFT
order; the cell factor h is applied by the consumer. The
shifted windows g(z_j - x_i) = g_{(j - i) mod N} form a circulant, read as
rows of one view of the doubled window, so no (N, N) table is built. The
pass runs one range of rows on one block grid from row 0, the first and
last block clipped to the range. ``stft`` moves each block into ascending
xi order (the fftshift), applies h and the staggered-grid phase to that
copy and fills the full ``PhaseSpaceField``. The norms
reduce in the order the pass yields: the weight lattice is cached with its
columns in FFT order, and a norm moves its column sums to ascending xi once,
at the end (the order of the xi lattice is only a convention). Every norm is
reduced by ``_weighted_columns`` (weighted inner L^p column sums or sups) and
``_outer_reduce`` (outer L^q): ``mixed_norm`` feeds it |field|, put in FFT
order, as one block, ``modulation_norm`` the blocks of the pass, so a
streamed norm holds a few blocks, never the lattice, and ``_l2_cap`` row
blocks of the weight lattice. At an even p a streamed norm reduces the
squared moduli m^2 = re^2 + im^2 of the unscaled blocks, with no modulus
and no per-cell h: it weights m^2 twice by v_s, sums ((m^2 v_s) v_s)^(p/2)
and puts h^p on the column sums once. Any other p, and INF, reduce the
magnitudes |h block| (h on every cell), as ``mixed_norm`` does. Finiteness
is judged on each block's column sums: only a block whose sums are not
finite has its weighted magnitudes tested, and a cell h |V_g f| v_s that is
not finite raises NumericalError, while finite cells whose power sums
overflow give an inf norm. Every streamed norm and bound measures f in one
frame, ``_frame``: as 2^-e f, its peak in [1/2, 1), each value scaled back
once by 2^e (inf on overflow). The scale is exact, so the value at 2^k f is
2^k times that at f bit for bit. Only the frame reads a field's peak,
scale and layout: the pass, its row pruning, the boundary-mass check and
``_state_bound`` take it.
Squared moduli and weights can overflow where the magnitudes of f do not,
so a streamed norm that comes out not finite is measured again from those
(the frame at e = 0), which decide between NumericalError, inf and a
finite value (see ``modulation_norms``).
``modulation_norms`` reduces one pass for several weight exponents at once:
the transform and its squared moduli or magnitudes, which are most of the
cost, are shared, and each weight adds only its own weighting and column
sums. The weight lattice is v_s itself for every p, never v_s^p: at
s = 90, v_180 already overflows. The window g
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
A real field that is bitwise even or odd (the frame's ``_reflection_parity``;
every state of a parity-sector flow in ``nlheat`` is one) streams half the
rows as well. The staggered nodes give -x_i = x_{N-1-i} bit for bit, so
with the even window V_g f(-x, xi) = +-conj(V_g f(x, xi)); the weight
depends on x only through the even V. The pass therefore runs the rows
x > 0 alone (the rows [N/2, N) of ``_stft_blocks``) and doubles the finite-p
column sums; the column sup for p = INF is the same over half the rows.
Other fields run every row. The boundary-mass check runs where a state is
measured (``stft``, ``modulation_norm``, ``modulation_norms``, and the
states ``nlheat`` only bounds), not in the pass.
A p = q = 2 norm (``modulation_norm``, ``modulation_norms``) runs only
the x-shift rows that can move its value. By DFT Parseval the row at x_i
has squared l^2 norm N h^2 sum_j |f_j|^2 g(z_j - x_i)^2, bounded without
its FFT from both sides by ``_row_energies``, so the row's share of the
squared norm lies between those bounds times the square of the row min and
of the row max of v_s (Groechenig, Foundations of Time-Frequency
Analysis, 2001, ch. 1 and 3). ``_kept_rows``
drops outermost rows from both ends of the pass's range ([0, N), or
[N/2, N) for the half-row pass) while the upper bounds of the dropped rows
add up to at most 2^-54 of the lower bounds of all rows: the squared norm
moves by at most half an ulp and the norm by at most a quarter. The kept
rows run on the same block grid, the first and last block clipped, and are
summed in the same order. Every other (p, q), ``mixed_norm``, ``stft``,
the column pass of ``singular_weight_norm`` and the L^2 cap run every
row, and so do a zero or non-finite field, a weight that is not finite
and a field whose weighted squared norm could overflow.
Cauchy-Schwarz caps every norm by the field's L^2 norm: ``_l2_cap`` is the
constant C with ``modulation_norm`` <= C ||f||_{L^2}, cached once per
(s, oscillator, grid, exponents). ``nlheat`` stops its Picard sweeps on that
cap.
A state's norm has a much tighter certified bound, ``_state_bound``, that
runs no FFT over the lattice. The triangle inequality over the samples, and
again after the DFT convolution theorem, bounds every cell:
|V_g f(x_i, xi_n)| <= min(r_i, c_n) with r_i = h sum_j |f_j| g(z_j - x_i)
and c_n = (h/N) sum_m |F_m| |G_{n-m}|, F and G the DFTs of f and of the
window (Groechenig, Foundations of Time-Frequency Analysis, 2001, ch. 1
and 3). Both are O(N) banded sums over the window's band and G's matching
band, plus a tail bound. The pass's FFT round-off, at most a small multiple
of eps log2 N sqrt(N) h ||f g(. - x_i)||_2 in a cell of row i (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, ch. 24), is
a floor added per row, from the same row energies as the p = q = 2 pruning,
and a relative slack covers the round-off of the reductions. The lattice
(quasi-)norm is monotone, so the cell bounds, reduced under the same
weight and exponents on the same rows and columns, bound the norm for
every 0 < p, q <= INF. On the shipped flows the bound is 1.53 times the
(2, 1, 2) norm and 1.08 times the (6, 2, 0.02) norm, at a quarter to a
third of the cost of the pass; ``nlheat`` bounds every recorded state with
it, one batch of states at a time (``_state_bounds``), and runs the exact
pass only at some.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BoundaryMassWarning, InvalidSpecError, NumericalError, _warn
from .model import MixedNormParams, OscillatorSpec, is_inf, weight_value
from .spectral import FieldSample, Grid, _reflection_parity

_WINDOW_NORM_TOL = 1e-10
_BOUNDARY_TOL = 1e-8
_BLOCK_CELLS = 1 << 15  # lattice cells per block of the streamed STFT pass
# relative lift of the L^2 cap over an exact norm's FFT round-off (about
# eps log2 N, 2e-15 at 512 points)
_CAP_SLACK = 1e-13
# the share of a p = q = 2 squared norm that its dropped rows may carry: at
# most half an ulp of the square, a quarter of the norm
_ROW_SHARE = 2.0 ** -54
# the row energies take the squared window exactly within this offset (beyond
# it g^2 < 3e-44 of its peak, which bounds the rest)
_BAND_RADIUS = 4.0
_EPS = float(np.finfo(float).eps)
# ``_state_bound`` forms cell bounds only in the columns whose column bound
# is more than this share of the outer sum
_REFINED_SHARE = 2.0 ** -40


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


def _check_boundary_mass(values: np.ndarray, peak, grid: Grid) -> None:
    """Warn for each field (``values``, or each row) of a ``_frame`` whose
    boundary mass is above ``_BOUNDARY_TOL`` of its peak; through
    ``errors._warn``, so the warning names the line that called into the
    package, whichever public function measures the field."""
    mask = np.abs(grid.nodes()) >= grid.half_width - 2.0 * grid.h
    edges = np.max(np.abs(values[..., mask]), axis=-1)
    for edge, top in zip(np.atleast_1d(edges).tolist(), np.atleast_1d(peak).tolist()):
        if edge > _BOUNDARY_TOL * top:
            _warn(BoundaryMassWarning,
                  f"field amplitude near the box boundary is {edge / top:.3e} of its peak; "
                  f"cyclic window wrap-around may contaminate the STFT")


def _stft_blocks(f: FieldSample, real: bool, rows: tuple):
    """Yield (lo, block) with block[r] = FFT(f g(. - x_{lo+r})), unscaled: the
    cell factor h is the caller's to apply.

    ``rows`` = (start, stop) is the range of x shifts to run: (0, N), (N/2, N)
    for the half-row pass of an even or odd field, or a ``_kept_rows`` range.
    The block has shape (rows, N), frequencies in FFT order (bin 0 first),
    the order the weight lattice and the norms use, with neither fftshift
    nor the staggered-grid phase applied. The blocks lie on one grid of
    ``_BLOCK_CELLS`` / N rows (at least one) from row 0, the first and last
    clipped to the range; for a power-of-two N this height divides N/2 or
    exceeds N, so every range starts on the grid or fits in one block. The
    shifted windows are the rows of a circulant, g(z_j - x_i) =
    g_{(j - i) mod N}, read from one view of the doubled window, and the
    windowed product reuses one buffer.
    ``real`` (f real) transforms the real product with ``rfft`` and yields
    only the bins 0..N/2, shape (rows, N/2 + 1).
    """
    grid = f.grid
    size = grid.points_per_axis
    start, stop = rows
    height = max(1, _BLOCK_CELLS // size)
    g = _gaussian_window_values(grid)
    shifts = sliding_window_view(np.concatenate((g, g)), size)[size:0:-1]
    fv = f.values.real if real else f.values
    buf = np.empty((min(height, stop - start), size), dtype=fv.dtype)
    for edge in range(start - start % height, stop, height):
        lo, hi = max(edge, start), min(edge + height, stop)
        prod = np.multiply(fv, shifts[lo:hi], out=buf[:hi - lo])
        yield lo, np.fft.rfft(prod, axis=1) if real else np.fft.fft(prod, axis=1)


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
    scaled, _, _, _, peak = _frame(f)
    grid = f.grid
    _check_boundary_mass(scaled.values, peak, grid)
    phase = _staggered_phase(grid)
    n = grid.points_per_axis
    out = np.empty((n, n), dtype=np.complex128)
    for lo, block in _stft_blocks(f, False, (0, n)):
        rows = out[lo:lo + block.shape[0]]
        np.multiply(np.fft.fftshift(block, axes=1), grid.h, out=rows)
        rows *= phase
    return PhaseSpaceField(grid, out)


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
def _weight_row_bounds(s_values: tuple, osc: OscillatorSpec | None, grid: Grid):
    """(low, high): the squares of the smallest row min and of the largest
    row max of ``_weight_lattice`` over the exponents ``s_values``, two
    N-vectors (the flat weight's rows are ones). A square that overflows is
    inf."""
    ones = np.ones(grid.points_per_axis)
    lattices = [_weight_lattice(s, osc, grid) for s in s_values]
    low = np.min([ones if w is None else w.min(axis=1) for w in lattices], axis=0)
    high = np.max([ones if w is None else w.max(axis=1) for w in lattices], axis=0)
    with np.errstate(over="ignore"):
        bounds = np.square(low), np.square(high)
    for b in bounds:
        b.setflags(write=False)
    return bounds


def _band(values: np.ndarray, k: int):
    """(band, rest): ``values`` at the cyclic offsets m = -k..k, and their
    largest value at any other offset (0 when there is none)."""
    inside = np.arange(-k, k + 1) % len(values)
    outside = np.delete(values, inside)
    band = values[inside]
    band.setflags(write=False)
    return band, float(outside.max()) if outside.size else 0.0


@functools.lru_cache(maxsize=4)
def _window_band(grid: Grid):
    """(band, rest) of ``_band`` for the window g at the offsets within
    ``_BAND_RADIUS``."""
    n = grid.points_per_axis
    return _band(_gaussian_window_values(grid), min(int(_BAND_RADIUS / grid.h), (n - 1) // 2))


@functools.lru_cache(maxsize=4)
def _spectral_window_band(grid: Grid):
    """(band, rest, total): upper bounds of |G_{-m}|, G the DFT of the window,
    at the offsets m of the frequencies within ``_BAND_RADIUS``, of |G| at
    any other offset, and of sum_m |G_m|. Each is read from the computed
    |FFT(g)| plus its round-off bound (``_fft_error``); the band is
    reversed, so that ``_banded_sums`` of |F| against it is the circular
    convolution sum_m |F_{n-m}| |G_m| over the band."""
    n = grid.points_per_axis
    g = _gaussian_window_values(grid)
    spectrum = np.abs(np.fft.fft(g)) + _fft_error(n) * float(np.linalg.norm(g))
    reversed_ = np.roll(spectrum[::-1], 1)  # entry m is |G_{-m}|
    k = min(int(_BAND_RADIUS / grid.frequency_cell), (n - 1) // 2)
    return (*_band(reversed_, k), float(spectrum.sum()))


def _fft_error(n: int) -> float:
    """Bound on the error of any entry of a computed length-n FFT, and of
    the rounding of its input products, per unit l^2 norm of the input:
    4 eps log2 n sqrt(n). The FFT's l^2 error is at most about
    3.3 eps log2 n times the l^2 norm of its output, which is sqrt(n) times
    that of the input (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, ch. 24), and the rounding of the windowed
    product adds at most eps/2 sqrt(n) by Cauchy-Schwarz."""
    return 4.0 * _EPS * math.log2(n) * math.sqrt(n)


def _banded_sums(a: np.ndarray, band: np.ndarray, rows: slice) -> np.ndarray:
    """sum_m a_{(i + m) mod N} band_m over m = -k..k (``band`` holds 2k + 1
    values), for the indices i of ``rows`` along the last axis of a (N,) or
    (K, N) ``a``: a banded circulant product, one ``einsum`` over a sliding
    view of the cyclically padded a, no (N, N) array. Each row of a batch
    gets the sums it gets alone."""
    n, k = a.shape[-1], len(band) // 2
    padded = np.concatenate((a[..., n - k:], a, a[..., :k]), axis=-1)
    # entry i of the view's last two axes is padded[..., i:i + 2k + 1] (a
    # sliding window view, without that function's per-call checks)
    windows = np.ndarray(padded.shape[:-1] + (n, 2 * k + 1), padded.dtype, padded, 0,
                         padded.strides + padded.strides[-1:])
    return np.einsum("...ij,j->...i", windows[..., rows, :], band)


def _row_energies(values, peak, first_row: int, grid: Grid):
    """(E, tail) for the rows first_row..N of the framed field ``values`` of
    peak ``peak`` (or of each row of (K, N) values, peaks (K, 1)), with
    E_i <= sum_j |f_j / peak|^2 g(z_j - x_i)^2 <= E_i + tail.

    By DFT Parseval the row of the pass at x_i has squared l^2 norm
    N h^2 peak^2 times that sum. The shift table is circulant,
    g(z_j - x_i) = g_{(j - i) mod N}, so E_i pairs the squared window within
    ``_BAND_RADIUS`` of the row with |f / peak|^2 read cyclically around node
    i (``_banded_sums``); the terms left out are at most ``tail`` = max g^2
    outside the band times sum_j |f_j / peak|^2. Each E_i is a sum of
    nonnegative terms, so it carries a relative round-off below N eps;
    scaling by the peak max|f| keeps the largest terms from underflowing.
    """
    band, rest = _window_band(grid)
    a = np.square(np.abs(values) / peak)
    return (_banded_sums(a, np.square(band), slice(first_row, None)),
            rest * rest * np.sum(a, axis=-1, keepdims=True))


def _kept_rows(frame, s_values, osc: OscillatorSpec | None):
    """The rows (start, stop) of a p = q = 2 pass over the rows first_row..N
    of the ``_frame`` that can move its value: the outermost rows whose share
    of the squared norm is certified below ``_ROW_SHARE`` are left out.

    Row i adds between E_i min_n v_s(x_i, .)^2 and
    (E_i + tail) max_n v_s(x_i, .)^2 to the squared norm, up to the common
    factor N h^2 peak^2 (see ``_row_energies``), for every s of
    ``s_values`` (``_weight_row_bounds``). Rows are dropped from
    both ends while the upper bounds of the dropped rows add up to at most
    ``_ROW_SHARE`` (1 - slack) times the lower bounds of all rows; the
    slack 4 N eps covers the round-off of E, of the sums and of the FFT
    (and the dropped rows' own share of the total), and an absolute
    N 2^-1072 per dropped row the terms of E that underflow. Among the
    ranges that pass, the one that drops the most rows is kept.
    A zero or non-finite field, a weight that is not finite, and a field
    whose weighted squared norm could overflow keep every row, so every
    NumericalError and inf comes out of the pass as before.
    """
    f, _, _, first_row, peak = frame
    grid = f.grid
    n = grid.points_per_axis
    if not 0.0 < peak < np.inf:
        return first_row, n
    energy, tail = _row_energies(f.values, peak, first_row, grid)
    low, high = (b[first_row:] for b in _weight_row_bounds(tuple(s_values), osc, grid))
    slack = 4.0 * n * np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):
        upper = ((energy + tail) * (1.0 + slack) + n * 2.0 ** -1072) * high
        budget = _ROW_SHARE * (1.0 - slack) * float(np.dot(energy, low))
        scale = peak * peak * n * grid.h * grid.h * float(np.sum(upper))
    if not (budget > 0.0 and np.isfinite(scale)):
        return first_row, n
    front = np.concatenate(([0.0], np.cumsum(upper)))  # sums of the first a rows
    back = np.concatenate(([0.0], np.cumsum(upper[::-1])))  # of the last b rows
    a = np.arange(np.searchsorted(front, budget, side="right"))
    # every row's upper bound is above its lower one, so no row is in both
    b = np.searchsorted(back, budget - front[a], side="right") - 1
    best = int(np.argmax(a + b))
    return first_row + int(a[best]), n - int(b[best])


@functools.lru_cache(maxsize=8)
def _l2_cap(s: float, osc: OscillatorSpec | None, grid: Grid, params: MixedNormParams) -> float:
    """The constant C with ``modulation_norm(f, s, osc, params) <= C ||f||_{L^2}``
    for every field f on ``grid``.

    Cauchy-Schwarz on the lattice gives |V_g f(x_i, xi_n)| <= ||f||_2 ||g||_2
    (every cyclic shift of g has the lattice L^2 norm of g), and the lattice
    (quasi-)norm is monotone in |V_g f|, so C = ||g||_2 ||v_s||_{L^{p,q}}
    for all 0 < p, q <= INF, with no triangle inequality (Groechenig,
    Foundations of Time-Frequency Analysis, 2001, ch. 3). The cached weight
    lattice is reduced by ``_weighted_columns`` in row blocks of the pass's
    size, never as a whole (``_weight_columns``). Equality holds at
    p = q = INF, s = 0 for a window shifted to a node and modulated by a
    lattice frequency; C is lifted by ``_CAP_SLACK`` so that it stays above
    the round-off of the exact norm there.
    """
    weight = _outer_reduce(_weight_columns(s, osc, grid, params.p, 0), params.p, params.q,
                           grid.h, grid.frequency_cell)
    g = _gaussian_window_values(grid)
    return float(np.sqrt(grid.h * np.dot(g, g))) * weight * (1.0 + _CAP_SLACK)


@functools.lru_cache(maxsize=8)
def _weight_columns(s: float, osc: OscillatorSpec | None, grid: Grid, p,
                    first_row: int) -> np.ndarray:
    """``_weighted_columns`` of the weight lattice itself over the rows
    first_row..N: the column sums of v_s^p (column max for INF), columns in
    FFT order. The cached lattice is reduced in row blocks of the pass's
    size, never as a whole; the flat weight's column sums are the row
    count."""
    n = grid.points_per_axis
    lattice = _weight_lattice(s, osc, grid)
    if lattice is None:
        columns = np.full(n, 1.0 if is_inf(p) else float(n - first_row))
    else:
        rows = max(1, _BLOCK_CELLS // n)
        blocks = ((lo, lattice[lo:lo + rows]) for lo in range(first_row, n, rows))
        [columns] = _weighted_columns(blocks, [None], p)
    columns.setflags(write=False)
    return columns


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


def _weighted_columns(blocks, lattices, p, squared=False) -> list:
    """The inner reduction of every phase-space norm, for several weights from
    one pass. Each (lo, block) holds the magnitudes m of lattice rows lo..,
    or (``squared``, at an even p only) their squares m^2, columns in FFT
    order; every entry of ``lattices`` weights it by the leading columns of
    those rows (all of them, or the bins 0..N/2 of an ``rfft`` block). A
    None lattice reduces the block itself; any other weights a new product,
    except the last, which overwrites the block in place (so a single
    lattice costs no copy). Blocks may differ in rows. Squared moduli are
    weighted twice, (m^2 v) v, and reduced at the power p/2, so no cell
    takes a square root; at p = 2 the weighting and the column sum are one
    ``einsum``, with the same products in the same row order.

    Finiteness is judged on each block's column sums (column maxes for
    INF), not on its cells: only a part that is not finite has the weighted
    magnitudes of its block tested, and one that is not finite raises
    NumericalError; if they are all finite, the power sums overflowed and
    the part stays inf. Squared blocks are not tested: a caller of the
    squared reduction measures again from magnitudes whatever does not come
    out finite. Returns one array per lattice: the column sums of the p-th
    powers (column max for INF), one per block column."""
    inner = float(p) / 2.0 if squared else p
    last = len(lattices) - 1
    columns = [None] * len(lattices)
    for lo, block in blocks:
        rows, width = block.shape
        for k, lattice in enumerate(lattices):
            weights = None if lattice is None else lattice[lo:lo + rows, :width]
            if squared and inner == 1.0 and weights is not None:  # p = 2: sum_i (m^2 v) v
                part = np.einsum("ij,ij,ij->j", block, weights, weights)
            else:
                weighted = block
                if weights is not None:
                    weighted = np.multiply(block, weights, out=block if k == last else None)
                    if squared:
                        weighted *= weights
                part = _column_reduce(weighted, inner)
                if not (squared or np.isfinite(part).all() or np.isfinite(weighted).all()):
                    raise NumericalError("mixed norm encountered non-finite weighted values")
            if columns[k] is None:
                columns[k] = part
            elif is_inf(p):
                np.maximum(columns[k], part, out=columns[k])
            else:
                columns[k] += part
    return columns


def _squared_moduli(blocks):
    """(lo, re^2 + im^2) for each (lo, block) of ``_stft_blocks``, in one
    reused buffer that the next block overwrites. The block, which the pass
    does not read again, is squared in place as one real array, so both
    squares run over contiguous memory."""
    buf = None
    for lo, block in blocks:
        rows = block.shape[0]
        if buf is None or len(buf) < rows:
            buf = np.empty(block.shape)
        parts = block.view(np.float64)
        np.square(parts, out=parts)
        yield lo, np.add(parts[:, 0::2], parts[:, 1::2], out=buf[:rows])


def _modulation_columns(frame, s_values, osc: OscillatorSpec | None, p,
                        prune: bool = False, squared: bool = False) -> list:
    """``_weighted_columns`` of |V_g f| straight from one blocked STFT pass,
    one column array per weight exponent in ``s_values`` (s = 0 reduces the
    raw magnitudes), each with one column per xi node in ascending order. No
    boundary-mass check; f is the field of ``frame``, a ``_frame``, whose
    layout decides the pass. A real field reduces only the N/2 + 1 ``rfft``
    bins and mirrors their column sums; if it is also bitwise even or odd,
    only the rows x > 0, with finite-p column sums doubled (see the module
    docstring). Blocks are reduced in
    FFT order; the columns move to ascending xi once, at the end. ``prune``
    (p = 2 with an outer q = 2 only) runs just the rows of ``_kept_rows``.

    The pass reduces the magnitudes |h block|, h on every cell; ``squared``
    (an even p only) reduces the squared moduli of the unscaled blocks
    instead and puts h^p on the column sums once. Only the magnitudes
    decide between NumericalError and inf as ``mixed_norm`` does: squared
    moduli and h^p can overflow where they do not.
    """
    f, _, real, first_row, _ = frame
    grid = f.grid
    n = grid.points_per_axis
    rows = _kept_rows(frame, s_values, osc) if prune else (first_row, n)
    blocks = _stft_blocks(f, real, rows)
    if squared:
        blocks = _squared_moduli(blocks)
    else:
        blocks = ((lo, np.abs(np.multiply(block, grid.h, out=block))) for lo, block in blocks)
    columns = []
    lattices = [_weight_lattice(s, osc, grid) for s in s_values]
    for sums in _weighted_columns(blocks, lattices, p, squared):
        if squared:
            sums *= grid.h ** float(p)
        columns.append(_full_columns(sums, real, first_row, p))
    return columns


def _frame(f):
    """(2^-e f, e, real, first_row, peak): the frame every streamed pass,
    bound and boundary-mass check measures a field f in. 2^-e f has its
    peak in [1/2, 1) (e = 0 for a zero or non-finite f); real, and the first
    x-shift row a pass runs: N/2 for a real f that is bitwise even or odd
    (``_reflection_parity``), else 0. ``f`` is a FieldSample, or a
    C-contiguous complex (K, N) array of K fields: then 2^-e f is a new
    (K, N) array and e, real, first_row and peak are arrays with one entry
    per row, each the one the row gets alone."""
    one = isinstance(f, FieldSample)
    values = f.values[None] if one else f
    peak, e = np.frexp(np.max(np.abs(values), axis=-1))
    scaled = np.ldexp(values.view(float), -e[:, None]).view(complex)
    real = ~values.imag.any(axis=-1)
    first_row = np.where(real & (_reflection_parity(values.real.T) != 0),
                         values.shape[-1] // 2, 0)
    if one:
        return ((FieldSample(f.grid, scaled[0]) if e[0] else f), int(e[0]), bool(real[0]),
                int(first_row[0]), float(peak[0]))
    return scaled, e, real, first_row, peak


def _unframed(value: float, e: int) -> float:
    """value 2^e, a value scaled back from its frame; inf on overflow."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(value, e))


def _full_columns(sums: np.ndarray, real: bool, first_row: int, p) -> np.ndarray:
    """The column sums of every row and xi node, in ascending xi, from those
    of a pass that ran the rows first_row..N and, for a real field, the
    FFT columns 0..N/2."""
    if first_row and not is_inf(p):
        sums *= 2.0  # rows x < 0 repeat the moduli of rows x > 0
    if real:  # rfft bin k also stands for -k, at FFT column N - k
        sums = np.concatenate([sums, sums[-2:0:-1]])
    half = len(sums) // 2
    return np.concatenate((sums[half:], sums[:half]))  # the fftshift


def _state_bound(f: FieldSample, s: float, osc: OscillatorSpec | None,
                 params: MixedNormParams) -> float:
    """A certified upper bound of ``modulation_norm(f, s, osc, params)``: the
    one-field case of ``_state_bounds``."""
    return float(_state_bounds(_frame(f.values[None]), f.grid, s, osc, params)[0])


def _state_bounds(frame, grid: Grid, s: float, osc: OscillatorSpec | None,
                  params: MixedNormParams) -> np.ndarray:
    """Certified upper bounds of ``modulation_norm(f, s, osc, params)`` for
    each field f of the batch ``frame`` (``_frame`` of a (K, N) array), from
    O(N) banded sums and a reduction of cell bounds, with no FFT over the
    lattice. No boundary-mass check; a field that is not finite, or a bound
    that overflows, gives inf.

    Every cell of the transform is at most min(r_i, c_n), the triangle
    inequality before and after the DFT convolution theorem:
    r_i = h sum_j |f_j| g(z_j - x_i) and c_n = (h/N) sum_m |F_m| |G_{n-m}|,
    F and G the DFTs of f and of the window. Both are ``_banded_sums`` over
    the offsets within ``_BAND_RADIUS`` plus the largest term outside the
    band times the total; G's terms and F carry their FFT round-off
    (``_fft_error``). A computed cell exceeds its exact value by at most
    the round-off floor of its row, ``_fft_error`` h ||f g(. - x_i)||_2,
    read from the row energies (``_row_energies``): the floor of row i is
    added to r_i and the largest floor to every c_n, which bounds
    min(r_i, c_n) + floor_i with one operation per cell. The lattice
    (quasi-)norm is monotone in the cells, so the reduction of the cell
    bounds is a bound for every 0 < p, q <= INF.

    The pass's rows and columns are those of the exact pass (half of each
    for a real even or odd field). Since c_n bounds every cell of column n,
    c_n^p times the weight's column sum of v_s^p (``_weight_columns``;
    c_n times the column max for INF) bounds the whole column: the cells
    are formed, and reduced by ``_weighted_columns``, only in the range of
    columns whose such bound is more than ``_REFINED_SHARE`` of the outer
    sum; the other columns keep that bound. The value is lifted by
    8 N eps / (min(p, 1) min(q, 1)), which covers the relative round-off
    of both reductions. Each field is bounded in its frame, as it is
    measured, and its bound scaled back once. The fields of one layout
    (real, first_row) share every O(N) sum and the FFT, each along a row,
    so a field's bound is the one it gets alone; only the reduction of its
    refined cells runs field by field.
    """
    scaled, e, real, first_row, peak = frame
    n, h = grid.points_per_axis, grid.h
    p, q = params.p, params.q
    fft_error = _fft_error(n)
    lattice = _weight_lattice(s, osc, grid)
    bounds = np.where(peak == 0.0, 0.0, math.inf)
    finite = (0.0 < peak) & (peak < np.inf)
    for is_real, first in sorted(set(zip(real[finite].tolist(), first_row[finite].tolist()))):
        rows = np.flatnonzero(finite & (real == is_real) & (first_row == first))
        f, peaks = scaled[rows], peak[rows, None]
        mag = np.abs(f)
        width = n // 2 + 1 if is_real else n
        with np.errstate(over="ignore", invalid="ignore"):
            band, rest = _window_band(grid)
            row_bounds = h * (_banded_sums(mag, band, slice(first, None))
                              + rest * mag.sum(axis=-1, keepdims=True))
            spectrum = np.abs(np.fft.fft(f, axis=-1))
            band, rest, total = _spectral_window_band(grid)
            col_bounds = (h / n) * (
                _banded_sums(spectrum, band, slice(0, width))
                + rest * spectrum.sum(axis=-1, keepdims=True)
                + fft_error * np.linalg.norm(f, axis=-1, keepdims=True) * total)
            energy, tail = _row_energies(f, peaks, first, grid)
            floor = fft_error * h * peaks * np.sqrt(energy + tail)
            # min(r_i + floor_i, c_n + max floor) >= min(r_i, c_n) + floor_i
            row_bounds += floor
            col_bounds += floor.max(axis=-1, keepdims=True)
            # each column's bound from c_n alone, and its share of the outer sum
            columns = _weight_columns(s, osc, grid, p, first)[:width] * (
                col_bounds if is_inf(p) else col_bounds ** float(p))
            share = columns ** ((1.0 if is_inf(p) else 1.0 / float(p))
                                * (1.0 if is_inf(q) else float(q)))
            refined = share > _REFINED_SHARE * share.sum(axis=-1, keepdims=True)
            refined[~(np.isfinite(share).all(axis=-1) & refined.any(axis=-1))] = True
            for row, r_bounds, c_bounds, cols, keep in zip(rows, row_bounds, col_bounds,
                                                           columns, refined):
                lo, hi = int(np.argmax(keep)), width - int(np.argmax(keep[::-1]))
                height = max(1, _BLOCK_CELLS // (hi - lo))
                blocks = ((start, np.minimum.outer(r_bounds[start:start + height],
                                                   c_bounds[lo:hi]))
                          for start in range(0, n - first, height))
                try:
                    [cols[lo:hi]] = _weighted_columns(
                        blocks, [None if lattice is None else lattice[first:, lo:hi]], p)
                except NumericalError:
                    continue
                bounds[row] = _outer_reduce(_full_columns(cols, is_real, first, p), p, q, h,
                                            grid.frequency_cell)
    below_one = [1.0 if is_inf(r) else min(float(r), 1.0) for r in (p, q)]
    with np.errstate(over="ignore"):
        return np.ldexp(bounds * (1.0 + 8.0 * n * _EPS / (below_one[0] * below_one[1])), e)


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
    (``_reflection_parity``), only the x-shift rows x > 0 are run and the
    finite-p column sums doubled, which halves the work again. Either value
    agrees with the full pass to round-off. At p = q = 2 only the rows of
    ``_kept_rows`` are run: the rows left out carry at most 2^-54 of the
    squared norm, certified from their Parseval row energies and the
    weight's row min and max, so the value moves by less than half an ulp
    (see the module docstring). f is measured in its frame, so
    modulation_norm(2^k f) is 2^k modulation_norm(f) bit for bit wherever
    that is finite; a norm that comes out not finite is measured again from
    the magnitudes of f itself: NumericalError where a weighted cell
    h |V_g f| v_s is not finite, else inf. Like ``stft`` it warns when the
    field carries boundary mass above 1e-8 of its peak. This is the
    one-weight case of ``modulation_norms``.
    """
    [value] = modulation_norms(f, [s], osc, params)
    return value


def modulation_norms(f: FieldSample, s_values, osc: OscillatorSpec | None,
                     params: MixedNormParams) -> list:
    """``modulation_norm`` of one field for each weight exponent in ``s_values``,
    from one blocked STFT pass and one boundary-mass check. Each value equals
    the one-weight ``modulation_norm`` bit for bit: the magnitudes of the
    pass are shared and each weight is applied with the same arithmetic. At
    p = q = 2 the shared pass runs the rows that the certificate allows
    for every weight at once (the smallest row min and largest row max of
    the list): the rows it leaves out carry at most 2^-54 of each squared
    norm, as those of a one-weight pass do, but they may be other rows, so
    a value may differ from the one-weight value in the last bit. An
    overflowing weight anywhere in the list raises NumericalError.

    f is measured by the rule of ``_measured_columns``. No weight exponent,
    no pass.
    """
    values, _, _ = _measured_columns(f, s_values, osc, params)
    return values


def _measured_columns(f: FieldSample, s_values, osc: OscillatorSpec | None,
                      params: MixedNormParams):
    """(norms, columns, e): the ``modulation_norms`` of f, the column sums
    of ``_modulation_columns`` that each reduces and the exponent of the
    frame they are measured in, so a norm is 2^e times the outer reduction
    of its columns.

    f is measured in its ``_frame``, which also gives the boundary-mass
    check its peak; an even p reduces the squared moduli. Both can overflow
    where the magnitudes h |V_g f| v_s do not (2^-600 f under s = 100, or
    the sums of (|V_g f| v_s)^p before h^p), so when any norm is not
    finite, or a scaled cell raises, every norm is measured again from the
    magnitudes of f itself (its frame at e = 0), by the rule of
    ``mixed_norm``.
    """
    scaled, e, real, first_row, peak = frame = _frame(f)
    _check_boundary_mass(scaled.values, peak, f.grid)
    if not len(s_values):
        return [], [], e
    p, q = params.p, params.q
    cells = (f.grid.h, f.grid.frequency_cell)
    prune = p == 2.0 and q == 2.0

    def measure(frame, squared):
        columns = _modulation_columns(frame, s_values, osc, p, prune, squared)
        return ([_unframed(_outer_reduce(c, p, q, *cells), frame[1]) for c in columns],
                columns, frame[1])

    squared = not is_inf(p) and float(p) % 2.0 == 0.0
    if squared or e:
        try:
            measured = measure(frame, squared)
            if all(math.isfinite(v) for v in measured[0]):
                return measured
        except NumericalError:
            pass
    return measure((f, 0, real, first_row, math.ldexp(peak, e)), False)
