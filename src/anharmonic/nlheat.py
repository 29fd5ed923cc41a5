"""Nonlinear heat flows by windowed Picard iteration and exponential stepping.

The solver works in retained-mode coefficient space: the linear semigroup is
diagonal there, and each nonlinearity evaluation is one reconstruction, one
pointwise power, and one projection back, the only form of the nonlinearity.
The runner applies the problem, step, tolerance and ETD-order rules before
it decomposes anything. On every window [t, t + dt] the Picard map iterates the
Duhamel formula with midpoint quadrature; the midpoint state is updated
alongside the endpoint using the averaged input, so both carry second-order
local accuracy. A restart per window is the computable surrogate for the
global fixed-point ball. A problem's engine, with its parity sector, its
nonlinearity and its projected initial state, is built once, at the first
integrator or residual call on the spec, and read by every later one.

Both nonlinearities keep parity, and every retained mode is exactly even or
odd. So a real u0 that is bitwise even or odd (the shipped Gaussian is)
is evolved in its parity sector alone: the coefficients of that parity's
modes, with values on the rows x > 0 and twice the cell measure, about half
of every matvec. Each state, and each Picard gap that takes the exact
norm, is mirrored into a full field before it is measured or bounded, so
it is exactly even or odd and takes the half-row pass of ``phasespace``.
Checkpoint coefficients stay full length m, with exact zeros in the other
parity. Other initial data (not bitwise symmetric, or complex) evolve in
the full layout.

The trajectory certifies the monitored norm of every recorded state with
``phasespace._state_bound``, an upper bound from O(N) sums at a quarter to
a third of the cost of the exact STFT pass, and runs the exact pass only at
t = 0, every ``_EXACT_STRIDE``-th step, the last step and any state whose
bound cannot rule out blow-up (see ``_Recorder``). Every blow-up decision is
the one the exact norm gives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .calculus import _warn_off_span
from .errors import InvalidSpecError, NonConvergenceError
from .model import MixedNormParams
from .phasespace import (_check_boundary_mass, _l2_cap, _measured_norms, _state_bound,
                         modulation_norm)
from .spectral import FieldSample, SpectralDecomposition, _reflection_parity, real_matmul

_BLOWUP_NORM = 1e6
# a stride-1 record runs the exact monitored norm at every this many steps
# (and at t = 0, the last step and wherever the bound cannot decide)
_EXACT_STRIDE = 100


@dataclass(frozen=True, eq=False)
class NonlinearProblemSpec:
    """A semilinear heat problem u_t + H^beta u = N(u), u(0) = u0.

    ``kind`` is "power" for N(u) = coupling |u|^(2 nu) u, or "inhomogeneous"
    for the same with an extra |x|^(-alpha) factor (the staggered grid keeps
    the factor finite). ``monitor`` is the (p, q, s) triple of the
    modulation norm tracked along the flow, measured against the anharmonic
    weight and checked here. ``_engine`` is built at the first integrator or
    residual call and shared by the later ones (a Picard run, its residual,
    its ETD cross-check and the cross-check's Picard rerun).
    """

    decomposition: SpectralDecomposition
    u0: FieldSample
    beta: float = 1.0
    nu: int = 1
    coupling: complex = -1.0
    kind: str = "power"
    alpha: float = 0.0
    monitor: tuple = (2.0, 1.0, 2.0)

    def __post_init__(self):
        checked = _check_problem(self.kind, self.nu, self.beta, self.coupling, self.alpha)
        for name, value in zip(("beta", "nu", "coupling", "alpha"), checked):
            object.__setattr__(self, name, value)
        if self.u0.grid != self.decomposition.grid:
            raise InvalidSpecError("initial data and decomposition grids differ")
        params, s = _check_monitor(self.monitor)
        object.__setattr__(self, "monitor", (params.p, params.q, s))

    @functools.cached_property
    def _engine(self) -> _Engine:
        return _Engine(self)


def _check_problem(kind, nu, beta, coupling, alpha):
    """NonlinearProblemSpec's field rules, which need no decomposition: the
    normalized (beta, nu, coupling, alpha), alpha 0 for the power kind."""
    beta, coupling = float(beta), complex(coupling)
    if not np.isfinite(beta) or beta <= 0:
        raise InvalidSpecError("beta must be a positive real", field="beta")
    if not np.isfinite(coupling):
        raise InvalidSpecError("coupling must be finite", field="coupling")
    if not isinstance(nu, (int, np.integer)) or nu < 1:
        raise InvalidSpecError("nu must be an integer >= 1", field="nu")
    if kind not in ("power", "inhomogeneous"):
        raise InvalidSpecError(f"unknown nonlinearity kind {kind!r}", field="kind")
    alpha = float(alpha)
    if kind == "inhomogeneous" and not (np.isfinite(alpha) and alpha > 0):
        raise InvalidSpecError("inhomogeneous kind needs a finite alpha > 0", field="alpha")
    return beta, int(nu), coupling, alpha if kind == "inhomogeneous" else 0.0


def _check_monitor(monitor, where="monitor"):
    """The checked (MixedNormParams(p, q), s) of a (p, q, s) monitor triple;
    ``where`` names the triple in the message of a bad p or q."""
    if len(monitor) != 3:
        raise InvalidSpecError("monitor must be a (p, q, s) triple")
    p, q, s = monitor
    if not (isinstance(s, (int, float, np.integer, np.floating)) and math.isfinite(s)):
        raise InvalidSpecError("weight exponent must be finite")
    try:
        return MixedNormParams(p, q), float(s)
    except InvalidSpecError as exc:
        raise InvalidSpecError(f"bad exponent at {where}: {exc}") from None


class _Engine:
    """Coefficient-space state of one flow problem, shared by both
    integrators and ``duhamel_residual``. It keeps only what the flow reads,
    with no reference back to the spec.

    In a parity sector (``sign`` 1.0 or -1.0, see the module docstring)
    states are the coefficients of the modes ``cols`` of u0's parity, with
    values on the rows x > 0 (``rows``) and twice the cell measure, mirrored
    into a full field where they are measured or bounded. Otherwise ``sign`` is 0.0 and
    ``cols`` and ``rows`` take every mode and node. ``c0``, the projected
    initial coefficients, is read-only and checked for off-span mass at the
    build; ``initial_values``, the trajectory's t = 0 norm and bound, are
    measured at the first read.
    """

    def __init__(self, spec: NonlinearProblemSpec):
        dec, u0 = spec.decomposition, spec.u0.values
        self.dec = dec
        sign = 0.0 if u0.imag.any() else float(_reflection_parity(u0.real))
        parity = _reflection_parity(dec.eigenvectors) if sign else None
        if sign and np.all(parity):
            self.sign, self.cols = sign, np.flatnonzero(parity == sign)
            self.rows = slice(dec.grid.points_per_axis // 2, None)
            self.phi = np.ascontiguousarray(dec.eigenvectors[self.rows, self.cols])
            self.cell = 2.0 * dec.grid.h
        else:
            self.sign, self.cols, self.rows = 0.0, slice(None), slice(None)
            self.phi, self.cell = dec.eigenvectors, dec.grid.h
        self.lam_beta = dec.eigenvalues[self.cols] ** spec.beta
        self.coupling, self.power = spec.coupling, 2 * spec.nu
        self.sing = (np.abs(dec.grid.nodes()[self.rows]) ** (-spec.alpha)
                     if spec.kind == "inhomogeneous" else None)
        p, q, self.monitor_s = spec.monitor
        self.monitor_params = MixedNormParams(p, q)
        self.c0 = self.to_coeff(u0[self.rows])
        self.c0.setflags(write=False)
        _warn_off_span(dec, spec.u0, "initial data", self.checkpoint(self.c0))

    @functools.cached_property
    def initial_values(self) -> tuple:
        """(monitored norm, bound) of the initial state."""
        field = self.field(self.c0)
        return self.monitored_norm(field), self.monitored_bound(field)

    def propagator(self, dt: float) -> np.ndarray:
        return np.exp(-dt * self.lam_beta)

    def to_coeff(self, values: np.ndarray) -> np.ndarray:
        return self.cell * real_matmul(self.phi.T, values)

    def to_values(self, coeffs: np.ndarray) -> np.ndarray:
        return real_matmul(self.phi, coeffs)

    def nonlin_coeff(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients of N(v) = coupling |v|^(2 nu) v, times |x|^(-alpha)
        for the inhomogeneous kind, v the values of ``coeffs``."""
        v = self.to_values(coeffs)
        nl = self.coupling * np.abs(v) ** self.power * v
        return self.to_coeff(nl if self.sing is None else nl * self.sing)

    def field(self, coeffs: np.ndarray) -> FieldSample:
        """The full field of ``coeffs``; a sector state is mirrored from its
        rows x > 0, so it is exactly even or odd."""
        v = self.to_values(coeffs)
        if self.sign:
            v = np.concatenate((self.sign * v[::-1], v))
        return FieldSample(self.dec.grid, v)

    def checkpoint(self, coeffs: np.ndarray) -> np.ndarray:
        """A copy of ``coeffs`` over all m retained modes, exact zeros in the
        parity a sector run leaves out."""
        full = np.zeros(self.dec.m, dtype=coeffs.dtype)
        full[self.cols] = coeffs
        return full

    def monitored_norm(self, field: FieldSample) -> float:
        """The exact monitored norm of a state's full field: one STFT pass,
        which warns on boundary mass."""
        return modulation_norm(field, self.monitor_s, self.dec.oscillator, self.monitor_params)

    def monitored_bound(self, field: FieldSample) -> float:
        """``phasespace._state_bound`` of a full field: a certified upper
        bound of its monitored norm, from O(N) sums."""
        return _state_bound(field, self.monitor_s, self.dec.oscillator, self.monitor_params)

    def gap_norm(self, coeffs: np.ndarray) -> float:
        """Monitored norm of a difference of Picard iterates, without the
        boundary-mass check of a state: near convergence it is round-off.
        The Picard stop's exact fallback, run when the gap's cap cannot
        decide."""
        [value] = _measured_norms(self.field(coeffs), [self.monitor_s],
                                  self.dec.oscillator, self.monitor_params)
        return value

    def cap_constant(self) -> float:
        """``phasespace._l2_cap`` of the monitor: the monitored norm of any
        field is at most this times its L^2 norm."""
        return _l2_cap(self.monitor_s, self.dec.oscillator, self.dec.grid,
                       self.monitor_params)

    def field_l2(self, coeffs: np.ndarray) -> float:
        """L^2 norm of the full field of ``coeffs``, sqrt(cell sum |v|^2) over
        the engine's rows (a sector field's mirror half is carried by the
        doubled cell). A sum of squares that overflows (norm above about
        1e154) gives inf."""
        v = self.to_values(coeffs)
        return float(np.sqrt(self.cell * np.vdot(v, v).real))

    def l2_norm(self, coeffs: np.ndarray) -> float:
        return float(np.linalg.norm(coeffs))


@dataclass(eq=False)
class Trajectory:
    """Time-stepped solution record.

    ``l2_norms`` (of the coefficients) are per step. Field checkpoints
    (all m retained-mode coefficients; a parity-sector run stores exact
    zeros in the other parity) are stored every ``checkpoint_stride``
    steps plus the final state. ``monitored_bounds`` holds, at exactly
    those steps, a certified upper bound of the monitored norm
    (``phasespace._state_bound``), and NaN between them.
    ``monitored_norms`` holds the exact norm where it was measured and NaN
    elsewhere: at t = 0, at the checkpoints on every 100th step, at the
    last step and at any checkpoint whose bound is not at most 1e6 (see
    ``_Recorder``).
    ``contraction_factors`` holds, per Picard window, the ratios of
    successive gaps in the L^2 norm of the gap field (the cap norm of
    ``picard_solve``; ``max_contraction`` reads them); exponential stepping
    leaves it empty. A blow-up truncates the record instead of raising and
    sets ``blowup_time``; its step is stored as a checkpoint with the
    monitored norm measured. Blow-up is detected at the granularity of the
    stride: at a stride point by the monitored norm (non-finite or above
    1e6; the bound decides where it is at most 1e6, which certifies the
    norm is), between stride points by non-finite coefficients or an l2
    coefficient norm above 1e6. With stride 1 every step is checked.
    """

    times: np.ndarray
    monitored_norms: np.ndarray
    monitored_bounds: np.ndarray
    l2_norms: np.ndarray
    checkpoint_times: np.ndarray
    checkpoint_coeffs: np.ndarray
    contraction_factors: tuple
    blowup_time: float | None = None

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise InvalidSpecError("trajectory times must be strictly increasing")

    @property
    def blown_up(self) -> bool:
        return self.blowup_time is not None

    @property
    def final_coeffs(self) -> np.ndarray:
        return self.checkpoint_coeffs[-1]

    def max_contraction(self) -> float:
        worst = 0.0
        for window in self.contraction_factors:
            for ratio in window:
                worst = max(worst, ratio)
        return worst

    def table(self):
        """CSV header and per-step rows of Python floats and ints (written as
        repr and str): t, the exact norm, its bound, the l2 norm and the
        blow-up flag."""
        rows = [[float(t), float(norm), float(bound), float(l2),
                 int(self.blown_up and t >= self.blowup_time)]
                for t, norm, bound, l2 in zip(self.times, self.monitored_norms,
                                              self.monitored_bounds, self.l2_norms)]
        return ["t", "monitored_norm", "monitored_bound", "l2_norm", "blowup"], rows


class _Recorder:
    """Trajectory bookkeeping shared by the integrators: per-step l2 norms,
    checkpoints every ``stride`` steps plus the last, and the blow-up stop.

    At every checkpoint the state is checked for boundary mass and bounded
    by ``phasespace._state_bound``, O(N) sums and one reduction of the
    cell bounds; between checkpoints both monitored columns are NaN. The
    exact monitored norm (one full STFT pass) runs only at t = 0, at the
    checkpoints on every ``_EXACT_STRIDE``-th step, at the last step (of
    the horizon, or of a blow-up) and at a checkpoint whose bound is not at
    most ``_BLOWUP_NORM``; it is NaN elsewhere. At a stride point or the last
    step the flow has blown up when the monitored norm is non-finite or
    above ``_BLOWUP_NORM``: a bound at most ``_BLOWUP_NORM`` certifies that
    it is not, and any other bound hands the decision to the exact norm, so
    every decision is the one the exact norm gives. Between stride points
    the flow has blown up when the coefficients are non-finite or their l2
    norm is above ``_BLOWUP_NORM``. A blow-up step is always checkpointed,
    with its monitored norm measured (infinite, as its bound, for
    non-finite coefficients).
    """

    def __init__(self, engine, dt, steps, stride):
        self.engine, self.dt, self.steps, self.stride = engine, dt, steps, stride
        norm, bound = engine.initial_values
        self.times = [0.0]
        self.monitored = [norm]
        self.bounds = [bound]
        self.l2s = [engine.l2_norm(engine.c0)]
        self.cp_times = [0.0]
        self.cps = [engine.checkpoint(engine.c0)]
        self.blowup_time = None

    def record(self, step, c) -> bool:
        """Record the state after ``step``; True when the flow has blown up.

        Non-finite coefficients count as infinite norms and bounds rather
        than being handed to the monitored norm.
        """
        t = step * self.dt
        finite = bool(np.all(np.isfinite(c)))
        l2 = self.engine.l2_norm(c) if finite else float("inf")
        on_stride = step % self.stride == 0 or step == self.steps
        norm = bound = float("nan")
        blown = False
        # between stride points only the l2 guard runs; a step it stops is
        # checkpointed and measured all the same
        if on_stride or not l2 <= _BLOWUP_NORM:
            norm = bound = float("inf")
            if finite:
                field = self.engine.field(c)
                bound = self.engine.monitored_bound(field)
                if (step % _EXACT_STRIDE == 0 or step == self.steps or not on_stride
                        or not bound <= _BLOWUP_NORM):
                    norm = self.engine.monitored_norm(field)
                else:  # the boundary-mass check of the exact norm, once per state
                    norm = float("nan")
                    _check_boundary_mass(field)
            # a step left to its bound has a bound, so a norm, at most the guard
            blown = not (on_stride and (math.isnan(norm) or norm <= _BLOWUP_NORM))
            self.cp_times.append(t)
            self.cps.append(self.engine.checkpoint(c))
        self.times.append(t)
        self.monitored.append(norm)
        self.bounds.append(bound)
        self.l2s.append(l2)
        if blown:
            self.blowup_time = t
        return blown

    def trajectory(self, contractions=()) -> Trajectory:
        return Trajectory(
            times=np.array(self.times),
            monitored_norms=np.array(self.monitored),
            monitored_bounds=np.array(self.bounds),
            l2_norms=np.array(self.l2s),
            checkpoint_times=np.array(self.cp_times),
            checkpoint_coeffs=np.array(self.cps),
            contraction_factors=tuple(tuple(w) for w in contractions),
            blowup_time=self.blowup_time,
        )


def _start(spec, horizon, dt, stride):
    """Validated step count, the spec's engine, the initial coefficients and
    a recorder seeded with them."""
    steps = _check_steps(horizon, dt)
    if not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"checkpoint_stride must be an integer >= 1, got {stride!r}")
    engine = spec._engine
    return engine, engine.c0, _Recorder(engine, dt, steps, int(stride))


def _check_steps(horizon, dt):
    if not (np.isfinite(dt) and 0 < dt <= 1e-2):
        raise ValueError("step must satisfy 0 < dt <= 1e-2")
    if not (np.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be a positive real")
    steps = int(round(horizon / dt))
    if steps < 1 or abs(steps * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("horizon must be an integer number of steps")
    return steps


def _check_tol(tol):
    if not (np.isfinite(tol) and tol >= 1e-10):
        raise ValueError("tol must be a finite real >= 1e-10, the finest the window "
                         "quadrature resolves")


def _check_order(order):
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")


def picard_solve(spec: NonlinearProblemSpec, horizon: float, dt: float,
                 tol: float = 1e-8, max_iter: int = 25,
                 checkpoint_stride: int = 1) -> Trajectory:
    """Windowed Picard iteration of the Duhamel formula.

    On each window the endpoint iterate is exp(-dt H^beta) u(t) plus the
    midpoint-quadrature Duhamel increment dt exp(-(dt/2) H^beta) N(u_mid);
    the midpoint state is refreshed from the averaged endpoint data. The
    iteration stops, after at least two passes, when the successive-iterate
    gap in the monitored norm drops below tol.

    Each gap is recorded as its cap C ||gap||_{L^2}, with C the monitor's
    ``phasespace._l2_cap``: one O(N) sum after the reconstruction. The cap
    bounds the monitored norm, so a cap below tol stops the window; only a
    cap at or above tol sends the gap through the exact STFT norm. Every
    window therefore takes the iterations the exact gap alone would give.
    Contraction factors are ratios of successive caps, which are ratios of
    the gaps' L^2 norms. A NonConvergenceError reports the last cap as
    ``last_gap``; a gap whose sum of squares overflows has cap inf.
    Each recorded state is bounded, and measured exactly only where
    ``_Recorder`` says. Blow-up (see ``Trajectory`` for how the checkpoint
    stride sets where it is detected) truncates the trajectory with the
    blow-up flag instead of raising.
    """
    _check_tol(tol)
    if max_iter < 2:
        raise ValueError("max_iter must be at least 2: the contraction factor "
                         "needs two successive-iterate gaps")
    engine, c, rec = _start(spec, horizon, dt, checkpoint_stride)
    e_full = engine.propagator(dt)
    e_half = engine.propagator(dt / 2.0)
    e_quarter = engine.propagator(dt / 4.0)
    cap = engine.cap_constant()
    contractions = []

    for step in range(1, rec.steps + 1):
        t_next = step * dt
        c_mid = e_half * c
        c_end = e_full * c
        gaps = []
        window_ratios = []
        converged = False
        for _ in range(max_iter):
            n_mid = engine.nonlin_coeff(c_mid)
            new_end = e_full * c + dt * (e_half * n_mid)
            n_avg = engine.nonlin_coeff(0.5 * (c + c_mid))
            new_mid = e_half * c + (dt / 2.0) * (e_quarter * n_avg)
            if not (np.all(np.isfinite(new_end)) and np.all(np.isfinite(new_mid))):
                raise NonConvergenceError(
                    f"Picard iterates diverged to non-finite values at t={t_next:.6g}",
                    {"t": t_next, "iterations": len(gaps) + 1,
                     "last_gap": gaps[-1] if gaps else None})
            gap_field = new_end - c_end
            gap = cap * engine.field_l2(gap_field) if np.any(gap_field) else 0.0
            c_end, c_mid = new_end, new_mid
            gaps.append(gap)
            if len(gaps) >= 2 and gaps[-2] > 0:
                window_ratios.append(gaps[-1] / gaps[-2])
            # a second pass is mandatory so the contraction is measured, not
            # assumed, even when the first correction is already below tol;
            # the exact norm runs only where the cap cannot decide
            if len(gaps) >= 2 and (gap < tol or engine.gap_norm(gap_field) < tol):
                converged = True
                break
        if not converged:
            raise NonConvergenceError(
                f"Picard window at t={t_next:.6g} did not converge in {max_iter} iterations",
                {"t": t_next, "last_gap": gaps[-1],
                 "last_contraction": window_ratios[-1] if window_ratios else None})
        contractions.append(window_ratios)
        c = c_end
        if rec.record(step, c):
            break
    return rec.trajectory(contractions)


def etd_evolve(spec: NonlinearProblemSpec, horizon: float, dt: float,
               order: int = 2, checkpoint_stride: int = 1) -> Trajectory:
    """Exponential time differencing cross-check integrator.

    Order 1: u(t + dt) = exp(-dt H^beta)(u + dt N(u)); the linear flow is
    exact. Order 2, the default, is the two-stage variant with a trapezoidal correction.
    Blow-up is recorded as in ``picard_solve``.
    """
    _check_order(order)
    engine, c, rec = _start(spec, horizon, dt, checkpoint_stride)
    e_full = engine.propagator(dt)

    for step in range(1, rec.steps + 1):
        k1 = engine.nonlin_coeff(c)
        if order == 1:
            c = e_full * (c + dt * k1)
        else:
            predictor = e_full * (c + dt * k1)
            k2 = engine.nonlin_coeff(predictor)
            c = e_full * c + (dt / 2.0) * (e_full * k1 + k2)
        if rec.record(step, c):
            break
    return rec.trajectory()


def duhamel_residual(traj: Trajectory, spec: NonlinearProblemSpec) -> float:
    """Max L2 defect of the mild-solution identity over stored checkpoints.

    The Duhamel integral is accumulated segment by segment with the
    trapezoid rule, multiplying by the segment propagator as it goes, so
    each checkpoint's integral carries the exact semigroup kernel. A sector
    run (see ``_Engine``) is checked on its sector's coefficients; the
    others are exact zeros in its checkpoints.
    """
    if len(traj.checkpoint_times) < 3:
        raise ValueError("need at least 3 checkpoints for a residual")
    engine = spec._engine
    times = traj.checkpoint_times
    coeffs = traj.checkpoint_coeffs[:, engine.cols]
    n_hat = np.stack([engine.nonlin_coeff(coeffs[i]) for i in range(len(times))])

    worst = 0.0
    linear = coeffs[0].copy()
    integral = np.zeros_like(linear)
    prop_cache = {}
    for i in range(1, len(times)):
        seg = float(times[i] - times[i - 1])
        key = round(seg, 15)
        if key not in prop_cache:
            prop_cache[key] = engine.propagator(seg)
        e_seg = prop_cache[key]
        linear = e_seg * linear
        integral = e_seg * integral + (seg / 2.0) * (e_seg * n_hat[i - 1] + n_hat[i])
        defect = coeffs[i] - linear - integral
        worst = max(worst, float(np.linalg.norm(defect)))
    return worst

