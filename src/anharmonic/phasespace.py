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
reduce in the order the pass yields, and a norm moves its column sums to
ascending xi once, at the end (the order of the xi lattice is only a
convention). The weight v_s is even in x and in xi (V is even and v_s reads
|omega| only), so ``_weight`` caches only the quarter of its lattice on the
rows x > 0 and the FFT bins 0..N/2, and every reader takes views of it: a
block of rows x < 0 reads the quarter's rows reversed, and the FFT columns
N/2 + 1..N - 1 of a complex block read its columns N/2 - 1..1 reversed
(``_quarter_rows``, ``_column_pieces``). At 512 points a cached weight holds
0.50 MiB, not the 2 MiB of the whole lattice. Every norm is reduced by
``_weighted_columns`` (weighted inner L^p column sums or sups) and
``_outer_reduce`` (outer L^q): ``mixed_norm`` feeds it |field|, put in FFT
order, as one block, ``modulation_norm`` the blocks of the pass, so a
streamed norm holds a few blocks, never the lattice, and ``_l2_cap`` row
blocks of the weight quarter. At an even p a streamed norm reduces the
squared moduli m^2 = re^2 + im^2 of the unscaled blocks, with no modulus
and no per-cell h: it weights m^2 twice by v_s, sums ((m^2 v_s) v_s)^(p/2)
and puts h^p on the column sums once. Any other p, and INF, reduce the
magnitudes |h block| (h on every cell), as ``mixed_norm`` does. Finiteness
is judged on each block's column sums: only a block whose sums are not
finite has its weighted magnitudes tested, and a cell h |V_g f| v_s that is
not finite raises NumericalError, while finite cells whose power sums
overflow give an inf norm. Every streamed norm and bound measures f in one
frame, ``_frame`` of the rows of a (K, N) array: as 2^-e f, its peak in
[1/2, 1), each value scaled back once by 2^e (inf on overflow). The scale
is exact, so the value at 2^k f is 2^k times that at f bit for bit. Only
the frame reads a field's peak, scale and layout; the pass helpers take a
row of it and the grid. Each measured state is framed once: a public norm
or transform at entry, a recorded state of ``nlheat`` in its block's batch.
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
leading FFT columns, weighted by the quarter's columns as they are) and
mirrors their column sums onto the FFT columns N - k. Complex fields take the
full spectrum.
A real field that is bitwise even or odd (the frame's ``_reflection_parity``;
every state of a parity-sector flow in ``nlheat`` is one) streams half the
rows as well. The staggered nodes give -x_i = x_{N-1-i} bit for bit, so
with the even window V_g f(-x, xi) = +-conj(V_g f(x, xi)); the weight
depends on x only through the even V. The pass therefore runs the rows
x > 0 alone (the rows [N/2, N) of ``_stft_blocks``) and doubles the finite-p
column sums; the column sup for p = INF is the same over half the rows.
Other fields run every row. The boundary-mass check runs where a field is
framed (``stft``, ``modulation_norms``, ``singular_weight_norm``, and
``nlheat`` once per recorded state), not in the pass; it reads the framed
field at the four nodes within 2h of the box edge (``_EDGE_NODES``).
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
constant C with ``modulation_norm`` <= C ||f||_{L^2}. ``nlheat`` computes it
once per flow and stops its Picard sweeps on that cap of the coefficient
norms of the sweep gaps, lifted by the Gram bound of its modes.
What a pass reads of its two fixed objects, the window g and the weight v_s,
is kept in three tables, one per key: ``_window`` (grid) holds g and the
bands the bounds read off it, ``_weight`` (s, oscillator, grid) the quarter
of the weight lattice and the squares of the lattice's row min and max, and
``_weight_columns`` (s, oscillator, grid, p, first row) the lattice's own
column sums.
A state's norm has a much tighter certified bound, ``_state_bounds``, that
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
it, one batch of states at a time, and runs the exact pass only at some.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BoundaryMassWarning, InvalidSpecError, NumericalError, _warn
from .model import MixedNormParams, OscillatorSpec, _real, is_inf, weight_value
from .spectral import FieldSample, Grid, _peak_scale, _reflection_parity, _unframed

_WINDOW_NORM_TOL = 1e-10
_BOUNDARY_TOL = 1e-8
# the nodes within 2h of the box edge, |x| >= L - 2h: on the staggered grid
# x_i = -L + (i + 1/2) h always the first two and the last two
_EDGE_NODES = [0, 1, -2, -1]
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
# ``_state_bounds`` forms cell bounds only in the columns whose column bound
# is more than this share of the outer sum
_REFINED_SHARE = 2.0 ** -40


@functools.lru_cache(maxsize=16)
def _window(grid: Grid):
    """(g, band, rest, spectral band, spectral rest, spectral total): the unit
    Gaussian window g = 2^(1/4) e^(-pi z_i^2) at the wrapped offsets, its
    norm checked, and what the bounds read off it.

    (band, rest) is ``_band`` of g. The spectral three are upper bounds of
    |G_{-m}|, G the DFT of g, at the offsets m of the frequencies within
    ``_BAND_RADIUS``, of |G| at any other offset, and of sum_m |G_m|. Each
    is read from the computed |FFT(g)| plus its round-off bound
    (``_fft_error``); the spectral band is reversed, so that
    ``_banded_sums`` of |F| against it is the circular convolution
    sum_m |F_{n-m}| |G_m| over the band."""
    z = grid.wrapped_offsets()
    g = 2.0 ** 0.25 * np.exp(-np.pi * z ** 2)
    norm = np.sqrt(grid.h * np.sum(g ** 2))
    if abs(norm - 1.0) > _WINDOW_NORM_TOL:
        raise NumericalError(
            f"gaussian window norm deviates by {abs(norm - 1.0):.3e}; grid too coarse or small")
    g.setflags(write=False)
    spectrum = np.abs(np.fft.fft(g)) + _fft_error(len(g)) * float(np.linalg.norm(g))
    reversed_ = np.roll(spectrum[::-1], 1)  # entry m is |G_{-m}|
    return (g, *_band(g, grid.h), *_band(reversed_, grid.frequency_cell),
            float(spectrum.sum()))


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


def _check_boundary_mass(values: np.ndarray, peak) -> None:
    """Warn for each field (``values``, or each row) of a ``_frame`` whose
    boundary mass, its largest magnitude at the ``_EDGE_NODES``, is above
    ``_BOUNDARY_TOL`` of its peak; through ``errors._warn``, so the warning
    names the line that called into the package, whichever public function
    measures the field."""
    edges = np.max(np.abs(values[..., _EDGE_NODES]), axis=-1)
    for edge, top in zip(np.atleast_1d(edges).tolist(), np.atleast_1d(peak).tolist()):
        if edge > _BOUNDARY_TOL * top:
            _warn(BoundaryMassWarning,
                  f"field amplitude near the box boundary is {edge / top:.3e} of its peak; "
                  f"cyclic window wrap-around may contaminate the STFT")


def _stft_blocks(f: np.ndarray, grid: Grid, real: bool, rows: tuple):
    """Yield (lo, block) with block[r] = FFT(f g(. - x_{lo+r})), unscaled, for
    the values f on ``grid``: the cell factor h is the caller's to apply.

    ``rows`` = (start, stop) is the range of x shifts to run: (0, N), (N/2, N)
    for the half-row pass of an even or odd field, or a ``_kept_rows`` range.
    The block has shape (rows, N), frequencies in FFT order (bin 0 first),
    the order the norms reduce in, with neither fftshift
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
    size = grid.points_per_axis
    start, stop = rows
    height = max(1, _BLOCK_CELLS // size)
    g = _window(grid)[0]
    shifts = sliding_window_view(np.concatenate((g, g)), size)[size:0:-1]
    fv = f.real if real else f
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
    _framed(f.values[None])  # for the boundary-mass check
    grid = f.grid
    phase = _staggered_phase(grid)
    n = grid.points_per_axis
    out = np.empty((n, n), dtype=np.complex128)
    for lo, block in _stft_blocks(f.values, grid, False, (0, n)):
        rows = out[lo:lo + block.shape[0]]
        np.multiply(np.fft.fftshift(block, axes=1), grid.h, out=rows)
        rows *= phase
    return PhaseSpaceField(grid, out)


@functools.lru_cache(maxsize=8)
def _weight(s: float, osc: OscillatorSpec | None, grid: Grid):
    """(quarter, low, high): ``weight_value`` on the quarter of the (x, xi)
    lattice that holds all of it, the N/2 rows x > 0 (rows N/2..N of the
    pass) by the N/2 + 1 FFT bins 0..N/2, or None for s = 0 (the flat
    weight, reduced from the raw magnitudes); and the squares of the row min
    and of the row max of the whole lattice, two N-vectors (ones for the
    flat weight). The weight is even in x and in xi: the staggered nodes
    give x_{N-1-i} = -x_i bit for bit and V is even, so row i < N/2 is
    quarter row N/2 - 1 - i, and it reads |omega| only, so FFT column
    N - j is column j. Every reader takes views of the quarter
    (``_quarter_rows``), and no (N, N) weight array is formed.

    The quarter is built with overflow ignored: an entry that overflows is
    inf, as is a square of the row bounds that overflows, and whichever
    reader meets it decides between NumericalError and inf.

    Frequency-scale conversion lives here and nowhere else: the transform
    lattice carries cycle frequencies xi = n/(2L), while the operator symbol,
    and hence the weight, uses the angular variable omega = 2*pi*xi.
    """
    if s == 0.0:
        ones = np.ones(grid.points_per_axis)
        ones.setflags(write=False)
        return None, ones, ones
    half = grid.points_per_axis // 2
    xi = np.fft.ifftshift(grid.frequency_nodes())[:half + 1]
    with np.errstate(over="ignore"):  # an entry or bound that overflows is inf; readers decide
        quarter = weight_value(s, osc, grid.nodes()[half:, None], 2.0 * np.pi * xi[None, :])
        bounds = np.square(quarter.min(axis=1)), np.square(quarter.max(axis=1))
    bounds = [np.concatenate((b[::-1], b)) for b in bounds]
    for a in (quarter, *bounds):
        a.setflags(write=False)
    return (quarter, *bounds)


def _quarter_rows(quarter: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The rows lo..hi of the weight lattice whose quarter (``_weight``) is
    ``quarter``, over its N/2 + 1 columns: a view of the quarter, its rows
    reversed for x < 0, or, for rows on both sides of x = 0, a copy."""
    half = len(quarter)
    if lo >= half:
        return quarter[lo - half:hi - half]
    if hi <= half:
        return quarter[half - hi:half - lo][::-1]
    return np.concatenate((quarter[half - lo - 1::-1], quarter[:hi - half]))


def _band(values: np.ndarray, cell: float):
    """(band, rest): ``values`` at the cyclic offsets m = -k..k, the offsets
    of spacing ``cell`` within ``_BAND_RADIUS`` (k at most (N - 1)/2), and
    their largest value at any other offset (0 when there is none)."""
    k = min(int(_BAND_RADIUS / cell), (len(values) - 1) // 2)
    inside = np.arange(-k, k + 1) % len(values)
    outside = np.delete(values, inside)
    band = values[inside]
    band.setflags(write=False)
    return band, float(outside.max()) if outside.size else 0.0


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


def _row_energies(mag, first_row: int, grid: Grid):
    """(E, tail) for the rows first_row..N of a framed field f of magnitudes
    ``mag`` = |f| (or of each row of (K, N) magnitudes), with
    E_i <= sum_j |f_j|^2 g(z_j - x_i)^2 <= E_i + tail.

    By DFT Parseval the row of the pass at x_i has squared l^2 norm
    N h^2 times that sum. The shift table is circulant,
    g(z_j - x_i) = g_{(j - i) mod N}, so E_i pairs the squared window within
    ``_BAND_RADIUS`` of the row with |f|^2 read cyclically around node i
    (``_banded_sums``); the terms left out are at most ``tail`` = max g^2
    outside the band times sum_j |f_j|^2. Each E_i is a sum of nonnegative
    terms, so it carries a relative round-off below N eps; the frame's peak
    in [1/2, 1) keeps the largest terms from underflowing.
    """
    _, band, rest = _window(grid)[:3]
    a = np.square(mag)
    return (_banded_sums(a, np.square(band), slice(first_row, None)),
            rest * rest * np.sum(a, axis=-1, keepdims=True))


def _kept_rows(row, grid: Grid, s_values, osc: OscillatorSpec | None):
    """The rows (start, stop) of a p = q = 2 pass over the rows first_row..N
    of a ``_frame`` row that can move its value: the outermost rows whose
    share of the squared norm is certified below ``_ROW_SHARE`` are left out.

    Row i adds between E_i min_n v_s(x_i, .)^2 and
    (E_i + tail) max_n v_s(x_i, .)^2 to the squared norm, up to the common
    factor N h^2 (see ``_row_energies``), for every s of
    ``s_values``: the row bounds of the weights (``_weight``), folded to the
    smallest row min and largest row max of the list. Rows are dropped from
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
    f, _, _, first_row, peak = row
    n = grid.points_per_axis
    if not 0.0 < peak < np.inf:
        return first_row, n
    weights = [_weight(s, osc, grid) for s in s_values]
    low = functools.reduce(np.minimum, [w[1] for w in weights])[first_row:]
    high = functools.reduce(np.maximum, [w[2] for w in weights])[first_row:]
    slack = 4.0 * n * np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite scale keeps every row
        energy, tail = _row_energies(np.abs(f), first_row, grid)
        upper = ((energy + tail) * (1.0 + slack) + n * 2.0 ** -1072) * high
        budget = _ROW_SHARE * (1.0 - slack) * float(np.dot(energy, low))
        scale = n * grid.h * grid.h * float(np.sum(upper))
    if not (budget > 0.0 and np.isfinite(scale)):
        return first_row, n
    front = np.concatenate(([0.0], np.cumsum(upper)))  # sums of the first a rows
    back = np.concatenate(([0.0], np.cumsum(upper[::-1])))  # of the last b rows
    a = np.arange(np.searchsorted(front, budget, side="right"))
    # every row's upper bound is above its lower one, so no row is in both
    b = np.searchsorted(back, budget - front[a], side="right") - 1
    best = int(np.argmax(a + b))
    return first_row + int(a[best]), n - int(b[best])


def _l2_cap(s: float, osc: OscillatorSpec | None, grid: Grid, params: MixedNormParams) -> float:
    """The constant C with ``modulation_norm(f, s, osc, params) <= C ||f||_{L^2}``
    for every field f on ``grid``.

    Cauchy-Schwarz on the lattice gives |V_g f(x_i, xi_n)| <= ||f||_2 ||g||_2
    (every cyclic shift of g has the lattice L^2 norm of g), and the lattice
    (quasi-)norm is monotone in |V_g f|, so C = ||g||_2 ||v_s||_{L^{p,q}}
    for all 0 < p, q <= INF, with no triangle inequality (Groechenig,
    Foundations of Time-Frequency Analysis, 2001, ch. 3). It is not cached:
    it reads the cached column sums of the weight lattice
    (``_weight_columns``), an O(N) reduction, and ``nlheat`` computes it
    once per flow. Equality holds at p = q = INF, s = 0 for a window shifted
    to a node and modulated by a lattice frequency; C is lifted by
    ``_CAP_SLACK`` so that it stays above the round-off of the exact norm
    there.
    """
    weight = _outer_reduce(_weight_columns(s, osc, grid, params.p, 0), params.p, params.q,
                           grid.h, grid.frequency_cell)
    g = _window(grid)[0]
    return float(np.sqrt(grid.h * np.dot(g, g))) * weight * (1.0 + _CAP_SLACK)


@functools.lru_cache(maxsize=8)
def _weight_columns(s: float, osc: OscillatorSpec | None, grid: Grid, p,
                    first_row: int) -> np.ndarray:
    """``_weighted_columns`` of the weight lattice itself over the rows
    first_row..N: the column sums of v_s^p (column max for INF), columns in
    FFT order. The rows of the cached quarter are reduced in row blocks of
    the pass's size and order (``_quarter_rows``), never as a whole, and
    its N/2 + 1 column sums are mirrored onto the FFT columns N - j; the
    flat weight's column sums are the row count."""
    n = grid.points_per_axis
    quarter = _weight(s, osc, grid)[0]
    if quarter is None:
        columns = np.full(n, 1.0 if is_inf(p) else float(n - first_row))
    else:
        rows = max(1, _BLOCK_CELLS // n)
        blocks = ((lo, _quarter_rows(quarter, lo, min(lo + rows, n)))
                  for lo in range(first_row, n, rows))
        [columns] = _weighted_columns(blocks, [None], p)
        columns = np.concatenate((columns, columns[-2:0:-1]))
    columns.setflags(write=False)
    return columns


def _column_reduce(w: np.ndarray, p) -> np.ndarray:
    """Inner reduction over the rows of a magnitude block: the column sup for
    INF, otherwise the column sums of w^p (cell measure not yet applied).
    An integer p is formed by repeated squaring in new arrays rather than
    the general ``pow`` (p = 1 sums w itself, p = 2 is one square); w is
    never written, so a caller may hand the same block to another weight.
    Power sums that overflow are inf where the caller ignores overflow, as
    ``_weighted_columns`` does, which decides what an inf column means."""
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
    """Finish a mixed norm from ``_column_reduce`` output of all rows; a norm
    that overflows is inf, for its caller to decide."""
    with np.errstate(over="ignore"):  # a norm that overflows is inf; the caller decides
        inner = columns if is_inf(p) else (columns * cell_x) ** (1.0 / float(p))
        if is_inf(q):
            return float(inner.max())
        return float((np.sum(inner ** float(q)) * cell_xi) ** (1.0 / float(q)))


def _weighted_columns(blocks, lattices, p, squared=False, first_column=0) -> list:
    """The inner reduction of every phase-space norm, for several weights from
    one pass. Each (lo, block) holds the magnitudes m of lattice rows lo..,
    or (``squared``, at an even p only) their squares m^2, on the FFT
    columns first_column.. (all N of them, or the bins 0..N/2 of an
    ``rfft`` block). Every entry of ``lattices`` is None or a weight quarter
    (``_weight``), read on those rows and columns as views
    (``_quarter_rows``, ``_column_pieces``): the bins 0..N/2 read the
    quarter's columns, the bins N/2 + 1.. the same columns reversed. A None
    lattice reduces the block itself; any other weights a new product,
    except the last, which overwrites the block in place (so a single
    lattice costs no copy). Blocks may differ in rows. Squared moduli are
    weighted twice, (m^2 v) v, and reduced at the power p/2, so no cell
    takes a square root; at p = 2 the weighting and the column sum are one
    ``einsum`` per column range, with the same products in the same row
    order.

    Finiteness is judged on each block's column sums (column maxes for
    INF), not on its cells: only a part that is not finite has the weighted
    magnitudes of its block tested, and one that is not finite raises
    NumericalError; if they are all finite, the power sums overflowed and
    the part stays inf. Squared blocks are not tested: a caller of the
    squared reduction measures again from magnitudes whatever does not come
    out finite. Blocks are drawn and reduced with overflow and invalid
    ignored, so this test decides. Returns one array per lattice: the
    column sums of the p-th powers (column max for INF), one per block column."""
    inner = float(p) / 2.0 if squared else p
    last = len(lattices) - 1
    columns = [None] * len(lattices)
    pieces = {}  # the ``_column_pieces`` of each block width
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness test below decides
        for lo, block in blocks:
            rows, width = block.shape
            for k, quarter in enumerate(lattices):
                weights = []
                if quarter is not None:
                    if width not in pieces:
                        pieces[width] = _column_pieces(len(quarter), first_column, width)
                    lattice_rows = _quarter_rows(quarter, lo, lo + rows)
                    weights = [(cols, lattice_rows[:, at]) for cols, at in pieces[width]]
                if squared and inner == 1.0 and weights:  # p = 2: sum_i (m^2 v) v
                    part = np.empty(width)
                    for cols, w in weights:
                        np.einsum("ij,ij,ij->j", block[:, cols], w, w, out=part[cols])
                else:
                    weighted = block if k == last or not weights else np.empty_like(block)
                    for cols, w in weights:
                        np.multiply(block[:, cols], w, out=weighted[:, cols])
                        if squared:
                            weighted[:, cols] *= w
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


def _column_pieces(half: int, first: int, width: int) -> list:
    """[(block columns, quarter columns)] for a block on the FFT columns
    first..first + width of a lattice of 2 half points: column c <= N/2
    reads quarter column c, and column c > N/2 (the bin c - N) quarter
    column N - c, a reversed slice."""
    n, stop = 2 * half, first + width
    pieces = []
    if first <= half:
        pieces.append((slice(0, min(stop, half + 1) - first), slice(first, min(stop, half + 1))))
    if stop > half + 1:
        start = max(first, half + 1)
        pieces.append((slice(start - first, width), slice(n - start, n - stop, -1)))
    return pieces


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


def _modulation_columns(row, grid: Grid, s_values, osc: OscillatorSpec | None, p,
                        prune: bool = False, squared: bool = False) -> list:
    """``_weighted_columns`` of |V_g f| straight from one blocked STFT pass,
    one column array per weight exponent in ``s_values`` (s = 0 reduces the
    raw magnitudes), each with one column per xi node in ascending order. No
    boundary-mass check; f is the field of ``row``, one row of a ``_frame``,
    on ``grid``, whose layout decides the pass. A real field reduces only
    the N/2 + 1 ``rfft`` bins and mirrors their column sums; if it is also
    bitwise even or odd, only the rows x > 0, with finite-p column sums
    doubled (see the module docstring). Blocks are reduced in FFT order; the
    columns move to ascending xi once, at the end. ``prune`` (p = 2 with an
    outer q = 2 only) runs just the rows of ``_kept_rows``.

    The pass reduces the magnitudes |h block|, h on every cell; ``squared``
    (an even p only) reduces the squared moduli of the unscaled blocks
    instead and puts h^p on the column sums once. Only the magnitudes
    decide between NumericalError and inf as ``mixed_norm`` does: squared
    moduli and h^p can overflow where they do not.
    """
    f, _, real, first_row, _ = row
    n = grid.points_per_axis
    rows = _kept_rows(row, grid, s_values, osc) if prune else (first_row, n)
    blocks = _stft_blocks(f, grid, real, rows)
    if squared:
        blocks = _squared_moduli(blocks)
    else:
        blocks = ((lo, np.abs(np.multiply(block, grid.h, out=block))) for lo, block in blocks)
    columns = []
    lattices = [_weight(s, osc, grid)[0] for s in s_values]
    with np.errstate(over="ignore"):  # a sum that overflows is inf; the caller measures again
        for sums in _weighted_columns(blocks, lattices, p, squared):
            if squared:
                sums *= grid.h ** float(p)
            columns.append(_full_columns(sums, real, first_row, p))
    return columns


def _frame(values: np.ndarray):
    """(2^-e f, e, real, first_row, peak) for the fields f, the rows of the
    C-contiguous complex (K, N) ``values``: the one frame every streamed
    pass, bound and boundary-mass check measures a state in (a field alone
    is a batch of one). 2^-e f, a new (K, N) array, has its peak in
    [1/2, 1) (e = 0 for a zero or non-finite f); real, and the first x-shift
    row a pass runs: N/2 for a real f that is bitwise even or odd
    (``_reflection_parity``), else 0. e, real, first_row and peak hold one
    entry per row, each the one the row gets alone (``_peak_scale``)."""
    scaled, e, peak = _peak_scale(values)
    real = ~values.imag.any(axis=-1)
    first_row = np.where(real & (_reflection_parity(values.real.T) != 0),
                         values.shape[-1] // 2, 0)
    return scaled, e, real, first_row, peak


def _framed(values: np.ndarray):
    """``_frame`` of ``values`` after the boundary-mass check of each field:
    how a public measurement frames its field, a batch of one."""
    frame = _frame(values)
    _check_boundary_mass(frame[0], frame[4])
    return frame


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
    sum, weighted by views of the weight quarter on those rows and columns
    (``first_column``); the other columns keep that bound. The value is
    lifted by 8 N eps / (min(p, 1) min(q, 1)), which covers the relative
    round-off of both reductions. Each field is bounded in its frame, as it
    is measured, and its bound scaled back once. The fields of one layout
    (real, first_row) share every O(N) sum and the FFT, each along a row,
    so a field's bound is the one it gets alone; only the reduction of its
    refined cells runs field by field.
    """
    scaled, e, real, first_row, peak = frame
    n, h = grid.points_per_axis, grid.h
    p, q = params.p, params.q
    fft_error = _fft_error(n)
    quarter = _weight(s, osc, grid)[0]
    _, band, rest, spectral_band, spectral_rest, total = _window(grid)
    bounds = np.where(peak == 0.0, 0.0, math.inf)
    finite = (0.0 < peak) & (peak < np.inf)
    for is_real, first in sorted(set(zip(real[finite].tolist(), first_row[finite].tolist()))):
        rows = np.flatnonzero(finite & (real == is_real) & (first_row == first))
        f = scaled[rows]
        mag = np.abs(f)
        width = n // 2 + 1 if is_real else n
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves the bound inf
            row_bounds = h * (_banded_sums(mag, band, slice(first, None))
                              + rest * mag.sum(axis=-1, keepdims=True))
            spectrum = np.abs(np.fft.fft(f, axis=-1))
            col_bounds = (h / n) * (
                _banded_sums(spectrum, spectral_band, slice(0, width))
                + spectral_rest * spectrum.sum(axis=-1, keepdims=True)
                + fft_error * np.linalg.norm(f, axis=-1, keepdims=True) * total)
            energy, tail = _row_energies(mag, first, grid)
            floor = fft_error * h * np.sqrt(energy + tail)
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
                blocks = ((first + start, np.minimum.outer(r_bounds[start:start + height],
                                                           c_bounds[lo:hi]))
                          for start in range(0, n - first, height))
                try:
                    [cols[lo:hi]] = _weighted_columns(blocks, [quarter], p, first_column=lo)
                except NumericalError:
                    continue
                bounds[row] = _outer_reduce(_full_columns(cols, is_real, first, p), p, q, h,
                                            grid.frequency_cell)
    below_one = [1.0 if is_inf(r) else min(float(r), 1.0) for r in (p, q)]
    with np.errstate(over="ignore"):  # a bound that overflows when scaled back is inf
        return np.ldexp(bounds * (1.0 + 8.0 * n * _EPS / (below_one[0] * below_one[1])), e)


def mixed_norm(field: PhaseSpaceField, s: float, osc: OscillatorSpec | None,
               params: MixedNormParams) -> float:
    """Inner-L^p (x), outer-L^q (xi) lattice norm of |field| weighted by v_s.

    INF exponents take the lattice sup; exponents below 1 use the same
    power-sum formula (quasi-norm). Cell measures are h and 1/(2L).
    |field| is put in the FFT column order of the pass first, and its
    column sums back in ascending xi, as the streamed norm's are. Its one
    block of every row reads the weight quarter on both sides of x = 0: a
    copy of N by N/2 + 1 weights for the moment of the call.
    """
    grid = field.grid
    [columns] = _weighted_columns([(0, np.fft.ifftshift(np.abs(field.values), axes=1))],
                                  [_weight(_real(s, "s"), osc, grid)[0]], params.p)
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
    values = f.values[None]
    s_values = [_real(s, "s") for s in s_values]
    norms, _, _ = _measured_columns(values, _framed(values), 0, f.grid, s_values, osc, params)
    return norms


def _measured_columns(values: np.ndarray, frame, k: int, grid: Grid, s_values,
                      osc: OscillatorSpec | None, params: MixedNormParams):
    """(norms, columns, e): the ``modulation_norms`` of f = values[k] on
    ``grid``, the column sums of ``_modulation_columns`` that each reduces
    and the exponent of the frame they are measured in, so a norm is 2^e
    times the outer reduction of its columns. No boundary-mass check.

    f is measured in its row of ``frame``, the ``_frame`` of ``values``; an
    even p reduces the squared moduli. Both can overflow where the
    magnitudes h |V_g f| v_s do not (2^-600 f under s = 100, or the sums of
    (|V_g f| v_s)^p before h^p), so when any norm is not finite, or a scaled
    cell raises, every norm is measured again from the magnitudes of f
    itself (its frame at e = 0), by the rule of ``mixed_norm``.
    """
    _, e, real, first_row, peak = row = tuple(a[k] for a in frame)
    if not len(s_values):
        return [], [], e
    p, q = params.p, params.q
    cells = (grid.h, grid.frequency_cell)
    prune = p == 2.0 and q == 2.0

    def measure(row, squared):
        columns = _modulation_columns(row, grid, s_values, osc, p, prune, squared)
        return ([_unframed(_outer_reduce(c, p, q, *cells), row[1]) for c in columns],
                columns, row[1])

    squared = not is_inf(p) and float(p) % 2.0 == 0.0
    if squared or e:
        try:
            measured = measure(row, squared)
            if all(math.isfinite(v) for v in measured[0]):
                return measured
        except NumericalError:
            pass
    return measure((values[k], 0, real, first_row, math.ldexp(peak, int(e))), False)
