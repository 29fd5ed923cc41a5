"""Experiment estimators: the Bohr-Sommerfeld eigenvalues, smoothing-rate
fits, the Ornstein-Uhlenbeck rate, algebra ratios, singular weights, and
norm-equivalence bands. Every slope and rate is one ``LogLinearFit``, and
every phase-space norm is weighted by the symbol-adapted v_s, given by its
exponent s (``model.weight_value``).

Two families of measurements live here. Analytic ones evaluate the weight
quotient that controls the semigroup bound on a dedicated scaled quadrature
box. Probe-based ones drive the spectral semigroup over fixed probe corpora
and report worst-case norm ratios, which are explicit lower bounds for the
operator norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import sobolev_norm
from .errors import InvalidSpecError, NumericalError, ProbeSkipWarning, TruncationError, _warn
from .model import (MixedNormParams, OscillatorSpec, _count, _real, check_exponent,
                    evaluate_potential, is_inf)
from .ougauss import GaussianConjugation, apply_conjugation, ou_semigroup
from .phasespace import (_BLOCK_CELLS, _framed, _measured_columns, _outer_reduce,
                         _weighted_columns, modulation_norm, modulation_norms)
from .spectral import FieldSample, Grid, SpectralDecomposition, _scaled_l2, _unframed

PROBE_SEED = 1234

_GUARD_REL = 5e-3
_DEFAULT_T_GRID = tuple(np.logspace(-1, -3, 6))
_L2 = MixedNormParams(2.0, 2.0)
_TAIL_BULK_RADIUS, _TAIL_RADIUS = 1.0, 2.5  # singular_weight_norm's xi tails
# the ranges of gaussian_probe_fields' centers, widths and modulations
_PROBE_CENTERS, _PROBE_WIDTHS, _PROBE_MODULATIONS = (-3.0, 3.0), (0.5, 2.0), (-2.0, 2.0)


def sigma_exponent(k: int, l: int, beta: float, p_tilde, q_tilde) -> float:
    """Short-time blow-up exponent (d / 2 beta)(1/(k p) + 1/(l q)) at d = 1.

    ``p_tilde`` and ``q_tilde`` are the positive-part exponent gaps; the INF
    marker zeroes the corresponding term. k and l are counts
    (``model._count``) and beta a positive real (``model._real``).
    """
    k, l, beta = _count(k, "k"), _count(l, "l"), _real(beta, "beta", True)
    term_p = 0.0 if is_inf(p_tilde) else 1.0 / (k * float(p_tilde))
    term_q = 0.0 if is_inf(q_tilde) else 1.0 / (l * float(q_tilde))
    return 1.0 / (2.0 * beta) * (term_p + term_q)


def _auto_n_pow(beta: float, s2: float, p_tilde, q_tilde) -> int:
    """The smallest N >= 1 with (2 beta N - s2) p_eff > d + 10 at d = 1
    (integrability needs > d), p_eff the smaller finite gap or 1: in closed
    form, floor(((d + 10) / p_eff + s2) / (2 beta)) + 1."""
    finite = [float(e) for e in (p_tilde, q_tilde) if not is_inf(e)]
    p_eff = min(finite) if finite else 1.0
    bound = (11.0 / p_eff + s2) / (2.0 * beta)
    if not np.isfinite(bound):
        raise InvalidSpecError("the decay exponents give no finite power N")
    return max(1, int(np.floor(bound)) + 1)


@dataclass(frozen=True)
class WeightQuotientParams:
    """Parameters of the weight-quotient functional controlling the bound.

    ``form`` selects the integrand: "weighted" is the literal quotient
    v_s2 / (1 + t^N v~^(2 beta N)); "scaled" is its scale-exact reduction
    (1 + t^(1/(2 beta)) (V^(1/2) + |xi|^l))^(s2 - 2 beta N), which carries
    the exact power-law decay and is the form used for slope acceptance. On
    the scaled box its lattice is the same for every t, so its values obey
    the scaling identity value(t) = value(1) t^(-sigma) by construction: a
    slope fitted to them checks that identity, not a measured rate.
    ``radius`` is the box constant: the quadrature box grows like
    (radius / t^(1/(2 beta)))^(1/k) in x and ^(1/l) in xi, so truncation is
    scale-covariant in t. The truncation guard of weight_quotient_norm
    doubles both ``radius`` and ``resolution``; unless k = l = 1 that also
    refines the lattice, so it tests resolution too. ``resolution`` (cells
    per axis) must be even: the norm is reduced on one quadrant of the
    lattice, which needs the midpoint grids to pair up about 0. The power N,
    ``n_pow``, is derived (``_auto_n_pow``). ``beta`` is the power of
    H^beta whose semigroup the quotient bounds; the oscillator is H alone.
    """

    oscillator: OscillatorSpec
    s2: float = 0.0
    p_tilde: object = 1.0
    q_tilde: object = 1.0
    radius: float = 30.0
    resolution: int = 2048
    form: str = "scaled"
    t_list: tuple = _DEFAULT_T_GRID
    n_pow: int = field(init=False)
    beta: float = field(default=1.0, kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "beta", _real(self.beta, "beta", True))
        object.__setattr__(self, "s2", _real(self.s2, "s2"))
        if self.s2 < 0:
            raise InvalidSpecError("s2 must be a finite real >= 0; s2 < 0 is outside "
                                   "the reduction's validity", field="s2")
        object.__setattr__(self, "p_tilde", check_exponent("p_tilde", self.p_tilde))
        object.__setattr__(self, "q_tilde", check_exponent("q_tilde", self.q_tilde))
        object.__setattr__(self, "t_list", _check_quotient_box(self.radius, self.resolution,
                                                               self.form, self.t_list))
        object.__setattr__(self, "n_pow", _auto_n_pow(self.beta, self.s2, self.p_tilde,
                                                      self.q_tilde))


def _check_quotient_box(radius, resolution, form, t_list=_DEFAULT_T_GRID) -> tuple:
    """WeightQuotientParams' rules for the values that need no oscillator and
    no exponents (a decay run shares them over its tuples); each error names
    its parameter. Returns t_list as a tuple of floats."""
    if form not in ("scaled", "weighted"):
        raise InvalidSpecError(f"unknown quotient form {form!r}", field="form")
    _real(radius, "radius", True)
    if _count(resolution, "resolution", 32) % 2:
        raise InvalidSpecError("resolution must be an even integer >= 32", field="resolution")
    t = tuple(float(v) for v in t_list)
    if not t or any(not (0.0 < v <= 1.0) for v in t):
        raise InvalidSpecError("t_list must contain values in (0, 1]", field="t_list")
    if any(t[i] <= t[i + 1] for i in range(len(t) - 1)):
        raise InvalidSpecError("t_list must be strictly decreasing", field="t_list")
    return t


def _quotient_spacings(params: WeightQuotientParams, t: float, radius: float,
                       resolution: int) -> tuple:
    """Midpoint spacings (dx, dxi) of the resolution^2 lattice over the box at
    time t, which grows like (radius / t^(1/(2 beta)))^(1/k) in x and ^(1/l)
    in xi."""
    tau = t ** (1.0 / (2.0 * params.beta))
    box = radius * (1.0 / tau)
    return (2.0 * box ** (1.0 / params.oscillator.k) / resolution,
            2.0 * box ** (1.0 / params.oscillator.l) / resolution)


def _quotient_columns(params: WeightQuotientParams, t: float, radius: float,
                      resolution: int) -> np.ndarray:
    """Column sums of the p~-th power (column max for INF) of the quotient
    integrand at time t over the positive quadrant of the lattice.

    The four quadrants hold the same values (see weight_quotient_norm), so
    row blocks of the positive one go through the phase-space column reducer
    (with its finiteness check) in one reused buffer. The scaled form is
    t-free and is reduced only on the t = 1 box (``_quotient_values`` passes
    t = 1), so it takes no factor tau = t^(1/(2 beta)).
    """
    osc = params.oscillator
    dx, dxi = _quotient_spacings(params, t, radius, resolution)
    half = resolution // 2
    nodes = np.arange(half) + 0.5
    a = np.sqrt(np.asarray(evaluate_potential(osc, nodes * dx), dtype=float))
    b = (nodes * dxi) ** osc.l
    two_beta_n = 2.0 * params.beta * params.n_pow
    scaled = params.form == "scaled"
    if not scaled:
        a = 1.0 + a
        t_n = t ** params.n_pow
    rows = min(half, max(1, _BLOCK_CELLS // half))
    buf = np.empty((rows, half))
    den = None if scaled else np.empty_like(buf)

    def blocks():
        for lo in range(0, half, rows):
            a_rows = a[lo:lo + rows, None]
            v = buf[:a_rows.shape[0]]
            np.add(a_rows, b, out=v)
            if scaled:  # (1 + a + b)^(s2 - 2 beta N), read on the t = 1 box
                v += 1.0
                np.power(v, params.s2 - two_beta_n, out=v)
            else:  # v^s2 / (1 + t^N v^(2 beta N)), v = 1 + a + b
                d = den[:v.shape[0]]
                with np.errstate(over="ignore", invalid="ignore"):  # the reduction refuses inf
                    np.power(v, two_beta_n, out=d)
                    d *= t_n
                    d += 1.0
                    np.power(v, params.s2, out=v)
                    v /= d
            yield lo, v

    [columns] = _weighted_columns(blocks(), [None], params.p_tilde)
    return columns


def _quotient_values(params: WeightQuotientParams, radius: float, resolution: int):
    """Mixed L^(p~, q~) norms of the quotient integrand at each t of
    ``params.t_list``, in order, on the midpoint lattice of resolution^2
    cells over the box at that t; a generator, so each value is reduced when
    it is asked for.

    Each finite axis gets twice its cell measure, for the quadrant folded
    over four; an INF axis takes the max, and ``_outer_reduce`` does not use
    its cell. The scaled integrand is t-free: t in (0, 1] gives the box
    radius / tau, tau = t^(1/(2 beta)), so tau V^(1/2)(x_i) =
    radius (2 n_i / resolution)^k and tau |xi_j|^l = radius
    (2 n_j / resolution)^l (n the half-integer node indices). Its columns are
    therefore reduced once, on the t = 1 box, and each t only sets the cell
    measures. The weighted integrand carries t^N and is reduced per t.
    """
    p, q = params.p_tilde, params.q_tilde
    scaled = params.form == "scaled"
    columns = _quotient_columns(params, 1.0, radius, resolution) if scaled else None
    for t in params.t_list:
        if not scaled:
            columns = _quotient_columns(params, t, radius, resolution)
        dx, dxi = _quotient_spacings(params, t, radius, resolution)
        yield _outer_reduce(columns, p, q, 2.0 * dx, 2.0 * dxi)


def weight_quotient_norm(params: WeightQuotientParams) -> list:
    """Mixed L^(p~, q~) norm of the quotient integrand at each t of
    ``params.t_list``, one value per t, in order.

    A doubling guard recomputes with both the radius and the resolution
    doubled and raises TruncationError when the value at some t moves by
    0.5% or more. The box grows like radius^(1/k) in x and radius^(1/l) in
    xi, so the guard's spacing is 2^(1/k - 1) times the base spacing in x
    and 2^(1/l - 1) times it in xi: the same only for k = l = 1. The guard
    therefore tests resolution as well as truncation. A guard that cannot
    be compared (an overflowed sum makes the movement NaN) raises too, and
    a base or guard value of 0 (every cell of the positive integrand
    underflowed) raises NumericalError. Every t is checked, in order.

    Both evaluations rely on the integrand taking the same value at
    (+-x, +-xi): V = x^(2k) is even and the midpoint grids are symmetric,
    so one quadrant is reduced in row blocks and no full lattice is built.
    Non-finite integrand values raise NumericalError. The scaled form's
    lattice does not depend on t, so a run reduces it once for the base and
    once for the guard (``_quotient_values``): its values obey the scaling
    identity value(t) = value(1) t^(-sigma) by construction, which the
    scaled rows check rather than measure. The weighted form is reduced
    per t.
    """
    values = []
    for t, base, guard in zip(params.t_list,
                              _quotient_values(params, params.radius, params.resolution),
                              _quotient_values(params, 2.0 * params.radius,
                                               2 * params.resolution)):
        if base == 0.0 or guard == 0.0:  # the integrand is positive: every cell underflowed
            raise NumericalError(
                f"quotient norm underflowed to 0 at t = {t:g} (base {base!r}, guard {guard!r})")
        denom = max(abs(base), abs(guard), np.finfo(float).tiny)
        rel = abs(guard - base) / denom
        if not (rel < _GUARD_REL):  # NaN (inf - inf) must fail as well
            raise TruncationError(
                f"quotient norm moved {rel:.2%} when the box doubled "
                f"(radius {params.radius}); enlarge the truncation radius",
                suggested_radius=4.0 * params.radius)
        values.append(base)
    return values


@dataclass(frozen=True)
class LogLinearFit:
    """Least-squares line through (x, log value): every slope and rate the
    runners check; ``samples`` holds the fitted (x, value) pairs."""

    slope: float
    intercept: float
    r_squared: float
    target: float | None
    samples: tuple


def _loglinear_fit(x, values, target=None) -> LogLinearFit:
    """Fit log(values) against x. R^2 is clamped to [0, 1] and is 1 for
    constant log-values. Fewer than 2 distinct x (no slope is determined)
    raise ValueError; a non-positive or non-finite value (an underflowed or
    overflowed measurement) raises NumericalError."""
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.unique(x).size < 2:
        raise ValueError(f"log-linear fit needs at least 2 distinct x, got {x}")
    if not np.all(np.isfinite(values) & (values > 0)):
        raise NumericalError(f"log-linear fit needs finite positive values, got {values}")
    ly = np.log(values)
    slope, intercept = np.polyfit(x, ly, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else float(min(max(1.0 - ss_res / ss_tot, 0.0), 1.0))
    return LogLinearFit(float(slope), float(intercept), r2,
                        None if target is None else _real(target, "target"),
                        tuple(zip(x.tolist(), values.tolist())))


def growth_target(osc: OscillatorSpec) -> float:
    """The Weyl exponent 2kl / (d (k + l)) at d = 1: lambda_n grows like
    n to this power, the exponent of ``bohr_sommerfeld_eigenvalues``."""
    return 2.0 * osc.k * osc.l / (osc.k + osc.l)


def bohr_sommerfeld_eigenvalues(osc: OscillatorSpec, n) -> np.ndarray:
    """lambda_n^BS = (2 pi (n + 1/2) / C)^growth_target, the level at which
    the sublevel set {omega^(2l) + x^(2k) <= lambda} of the symbol has area
    2 pi (n + 1/2) (Helffer and Robert, Duke Math. J. 49, 1982).

    That area is C lambda^(1/(2k) + 1/(2l)), C the area at lambda = 1:
    C = 4 Gamma(1 + 1/(2k)) Gamma(1 + 1/(2l)) / Gamma(1 + 1/(2k) + 1/(2l));
    k = l = 1 gives C = pi and lambda_n^BS = 2n + 1.
    """
    a, b = 1.0 / (2 * osc.k), 1.0 / (2 * osc.l)
    unit_area = 4.0 * math.gamma(1.0 + a) * math.gamma(1.0 + b) / math.gamma(1.0 + a + b)
    return (2.0 * np.pi * (np.asarray(n, dtype=float) + 0.5) / unit_area) ** growth_target(osc)


def _check_decay_times(ts) -> None:
    """The sampling rule of ``fit_decay_exponent``, which needs no values:
    at least 6 distinct times, all positive, spanning at least 1.5 decades."""
    ts = np.array(ts, dtype=float)
    if len(np.unique(ts)) < 6:
        raise ValueError("need at least 6 samples for a slope fit")
    if np.any(ts <= 0):
        raise ValueError("samples must have positive t and value")
    if np.log10(ts.max() / ts.min()) < 1.5:
        raise ValueError("samples must span at least 1.5 decades of t")


def fit_decay_exponent(samples, target: float | None = None) -> LogLinearFit:
    """Fit log(value) against log(t).

    Needs at least 6 distinct times spanning at least 1.5 decades
    (``_check_decay_times``), and positive values. ``target`` is the
    expected slope (the negated smoothing exponent for semigroup runs); the
    relative deviation is reported against it.
    """
    pts = [(float(t), float(v)) for t, v in samples]
    ts = np.array([p[0] for p in pts])
    vs = np.array([p[1] for p in pts])
    _check_decay_times(ts)
    if np.any(vs <= 0):
        raise ValueError("samples must have positive t and value")
    return _loglinear_fit(np.log(ts), vs, target)


def smoothing_decay_run(params: WeightQuotientParams):
    """Sample the quotient over params.t_list and fit the decay exponent.

    Returns (samples, fit) with the target slope -sigma: the samples hold
    natural t, the fit's own samples log t. For the scaled form the fit
    checks the scaling identity value(t) = value(1) t^(-sigma), which holds
    by construction; only the weighted form measures a rate.
    """
    osc = params.oscillator
    sigma = sigma_exponent(osc.k, osc.l, params.beta, params.p_tilde, params.q_tilde)
    samples = list(zip(params.t_list, weight_quotient_norm(params)))
    return samples, fit_decay_exponent(samples, target=-sigma)


# --- probe corpora ----------------------------------------------------------

def gaussian_probe_fields(grid: Grid, count: int, seed: int = PROBE_SEED):
    """Unit-L2 Gaussian packets with seeded centers, widths, and modulations."""
    rng = np.random.default_rng(seed)
    nodes = grid.nodes()
    probes = []
    for _ in range(_count(count, "count", 0)):
        center, width, mod = (rng.uniform(*span) for span in
                              (_PROBE_CENTERS, _PROBE_WIDTHS, _PROBE_MODULATIONS))
        values = (np.exp(-np.pi * ((nodes - center) / width) ** 2)
                  * np.exp(2j * np.pi * nodes * mod))
        probes.append(FieldSample(grid, values / _unframed(*_scaled_l2(values[None], grid.h))))
    return probes


def eigenfunction_probes(dec: SpectralDecomposition, count: int = 10):
    return [dec.eigenfunction(j) for j in range(min(_count(count, "count", 0), dec.m))]


def standard_probe_family(dec: SpectralDecomposition, seed: int = PROBE_SEED):
    """The fixed probe corpus of the equivalence bands: 40 seeded Gaussians
    plus the first 10 eigenfunctions."""
    return gaussian_probe_fields(dec.grid, 40, seed) + eigenfunction_probes(dec, 10)


def _probe_ratios(probes, source_norm, target_norms) -> list:
    """Per target norm, the ratios target_norm(f) / source_norm(f) over the
    probes, each source norm computed once. A probe with zero source norm is
    skipped with a ProbeSkipWarning; ValueError when every probe is skipped."""
    kept = []
    for i, f in enumerate(probes):
        denom = source_norm(f)
        if denom == 0.0:
            _warn(ProbeSkipWarning, f"probe {i} skipped: zero source norm")
        else:
            kept.append((f, denom))
    if not kept:
        raise ValueError("all probes were skipped")
    return [[norm(f) / denom for f, denom in kept] for norm in target_norms]


def ou_probe_rate(c: GaussianConjugation, dec: SpectralDecomposition, beta: float,
                  t_list, probes) -> LogLinearFit:
    """Fit log of the worst-case Gaussian-norm ratio
    norm(OU_t f) / norm(f) over a probe corpus against t, over at least 3
    distinct times; the expected rate is -d^beta, which is -1 at d = 1. The
    Gaussian norm is the lattice L^2 norm of the multiplied field
    gamma^(1/2) f: by the lattice Moyal identity it is the flat p = q = 2
    modulation norm of that field divided by the window norm, a factor that
    cancels in every ratio. The identity itself is checked through the STFT
    by the ``ou`` row ``gaussian_norm_l2_gamma_rel_err``, the ``norms`` row
    ``moyal_identity_rel_err`` and the ``selftest`` row. Zero-norm probes
    are skipped with a warning (ValueError if all are).
    """
    ts = [_real(t, "t_list") for t in t_list]
    if len(set(ts)) < 3:
        raise ValueError("need at least 3 distinct time points")

    def norm(f):
        return apply_conjugation(c, "forward", f).norm_l2()

    def target_at(t):
        return lambda f: norm(ou_semigroup(c, dec, beta, t, f))

    ratios = _probe_ratios(probes, norm, [target_at(t) for t in ts])
    return _loglinear_fit(ts, [max(r) for r in ratios], -1.0)


def algebra_ratios(fields, pairs, params: MixedNormParams, s: float,
                   osc: OscillatorSpec | None = None) -> list:
    """norm(f_i f_j) / (norm(f_i) norm(f_j)) for each index pair (i, j) into
    ``fields``, with the pointwise grid product.

    Each field is normed once, however many pairs share it, and each product
    once, so a corpus of n fields and m pairs takes n + m norm passes. A pair
    with a vanishing factor norm gives NaN (with a ProbeSkipWarning) and its
    product is not normed, so corpus maxima can skip the pair.
    """
    norms = [modulation_norm(f, s, osc, params) for f in fields]
    ratios = []
    for i, j in pairs:
        if norms[i] == 0.0 or norms[j] == 0.0:
            _warn(ProbeSkipWarning, "algebra pair skipped: zero factor norm")
            ratios.append(float("nan"))
            continue
        product = FieldSample(fields[i].grid, fields[i].values * fields[j].values)
        ratios.append(modulation_norm(product, s, osc, params)
                      / (norms[i] * norms[j]))
    return ratios


def algebra_ratio(f: FieldSample, g: FieldSample, params: MixedNormParams,
                  s: float, osc: OscillatorSpec | None = None) -> float:
    """norm(f g) / (norm(f) norm(g)): the one-pair case of ``algebra_ratios``."""
    [ratio] = algebra_ratios([f, g], [(0, 1)], params, s, osc)
    return ratio


@dataclass(frozen=True)
class SingularWeightResult:
    """Modulation-norm diagnostics of the truncated power singularity."""

    value: float
    value_half: float
    radius: float
    x_growth: float
    xi_tail: tuple
    xi_tail_growth: float


def singular_weight_norm(alpha: float, params: MixedNormParams, s: float,
                         radius: float, *, grid: Grid,
                         osc: OscillatorSpec | None = None) -> SingularWeightResult:
    """Weighted modulation norm of |x|^(-alpha) truncated to |x| <= radius.

    Reports the value at the given radius and at half of it (the x-side
    truncation trend) plus the outer-exponent frequency-tail accumulators
    over 1 < |xi| <= 2.5 and 1 < |xi| <= 5. For admissible exponents the
    value is stable under radius doubling; for inadmissible outer exponents the frequency
    tail keeps growing, which is where divergence shows first: the bulk of
    the norm always dominates a lattice total, so the total-norm trend alone
    cannot expose a slowly divergent tail. Both values are ``modulation_norm``
    bit for bit, and the tails reduce the columns of the full value's pass.
    """
    alpha, s, radius = _real(alpha, "alpha", True), _real(s, "s"), _real(radius, "radius", True)
    if s < 0:
        raise InvalidSpecError("singular-weight runs need s >= 0", field="s")
    if radius > grid.half_width:
        raise InvalidSpecError("truncation radius must be a real in (0, half_width]",
                               field="radius")

    nodes_r = np.abs(grid.nodes())

    def truncated(r):
        return FieldSample(grid, np.where(nodes_r <= r, nodes_r ** (-alpha), 0.0))

    values = truncated(radius).values[None]
    [value], [columns], e = _measured_columns(values, _framed(values), 0, grid, [s], osc, params)
    value_half = modulation_norm(truncated(radius / 2.0), s, osc, params)
    x_growth = abs(value - value_half) / value_half if value_half > 0 else float("inf")
    # outer-exponent tail mass A(Xi): sum over the bulk radius < |xi| <= Xi
    # of inner(xi)^q, or the annulus sup for q = INF
    xi_radii = np.abs(grid.frequency_nodes())
    p, q = params.p, params.q
    cells = (grid.h, grid.frequency_cell)
    tails = []
    for xi_max in (_TAIL_RADIUS, 2.0 * _TAIL_RADIUS):
        mask = (xi_radii > _TAIL_BULK_RADIUS) & (xi_radii <= xi_max)
        acc = 0.0
        if np.any(mask):
            acc = _unframed(_outer_reduce(columns[mask], p, q, *cells), e)
            if not is_inf(q):
                acc = acc ** float(q)
        tails.append((float(xi_max), acc))
    (_, a1), (_, a2) = tails
    tail_growth = (a2 / a1 - 1.0) if a1 > 0 else float("inf")
    return SingularWeightResult(value, value_half, float(radius), float(x_growth),
                                tuple(tails), float(tail_growth))


@dataclass(frozen=True)
class EquivalenceBand:
    """Observed band of spectral-norm to modulation-norm ratios."""

    min_ratio: float
    max_ratio: float
    count: int

    @property
    def spread(self) -> float:
        """max_ratio / min_ratio; inf when min_ratio is 0."""
        return self.max_ratio / self.min_ratio if self.min_ratio > 0 else float("inf")


def sobolev_modulation_equivalence(dec: SpectralDecomposition, s_values, probes) -> list:
    """One band per s in ``s_values`` of the ratios
    sobolev_norm / modulation_norm(p=q=2, anharmonic s).

    Probes are projected onto the retained-mode span first, so the spectral
    norm sees exactly the same object as the lattice norm. Each probe is
    projected once and its span transformed once: ``modulation_norms``
    reduces the pass under every weight, and the projection's coefficients
    serve every s. Per s, a probe with zero modulation norm is skipped with
    a ProbeSkipWarning, and ValueError is raised when all are.
    """
    s_values = [_real(s, "s") for s in s_values]
    span_coeffs = [dec.coefficients(f) for f in probes]
    spans = [dec.reconstruct(c) for c in span_coeffs]
    mod = [modulation_norms(f, s_values, dec.oscillator, _L2) for f in spans]
    bands = []
    for k, s in enumerate(s_values):
        [ratios] = _probe_ratios(
            range(len(spans)), lambda i, k=k: mod[i][k],
            [lambda i, s=s: sobolev_norm(dec, s, spans[i], span_coeffs[i])])
        bands.append(EquivalenceBand(float(min(ratios)), float(max(ratios)), len(ratios)))
    return bands
