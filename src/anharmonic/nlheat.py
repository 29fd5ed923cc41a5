"""Nonlinear heat flows by Picard sweeps and exponential stepping.

The solver works in retained-mode coefficient space: the linear semigroup is
diagonal there, and each nonlinearity evaluation is one reconstruction, one
pointwise power, and one projection back, the only form of the nonlinearity
(for a block of states, one GEMM each way). The runner applies the problem,
step, tolerance and ETD-order rules before it decomposes anything. Each
window [t, t + dt] takes the Duhamel formula with midpoint quadrature. The
paper's global well-posedness is one contraction of the Duhamel map over
the time axis; ``picard_solve`` contracts it over blocks of windows at
once. A problem's engine, with its parity sector, its nonlinearity and its
projected initial state, is built once, at the first integrator or
residual call on the spec, and read by every later one.

Both nonlinearities keep parity, and every retained mode is exactly even or
odd. A flow evolves in a parity sector exactly when its decomposition keeps
one parity (``decompose(..., parity=±1)``; the nlheat runner asks for the
parity of its u0, and such a decomposition refuses u0 off that parity). Its
states are then the coefficients of that parity's modes, with values on the
rows x > 0 and twice the cell measure, about half of every matvec. Each
state is mirrored into a full field before it is measured or bounded, so it
is exactly even or odd and takes the half-row pass of ``phasespace``. On a
decomposition of both parities a flow takes the full layout, whatever the
symmetry of u0.

The trajectory certifies the monitored norm of every recorded state with a
batched bound from O(N) sums and runs the exact STFT pass only where the
bound cannot decide (see ``_Recorder``), so every blow-up decision is the
one the exact norm gives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .calculus import _heat_phi, _spectral_values, _warn_off_span
from .errors import InvalidSpecError, NonConvergenceError
from .model import MixedNormParams, _count, _real
from .phasespace import (_check_boundary_mass, _frame, _framed, _l2_cap, _measured_columns,
                         _state_bounds)
from .spectral import _ORTHO_TOL, FieldSample, SpectralDecomposition, _field_parity, real_matmul

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
    its ETD cross-check and the cross-check's Picard rerun). A decomposition
    that keeps one parity needs u0 real and bitwise of that parity, and
    evolves the flow in that parity sector.
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
        parity = self.decomposition.parity
        if parity is not None and _field_parity(self.u0.values) != parity:
            name = "even" if parity == 1 else "odd"
            raise InvalidSpecError(
                f"the decomposition keeps only its {name} modes, so u0 must be real "
                f"and bitwise {name} under x -> -x", field="u0")
        params, s = _check_monitor(self.monitor)
        object.__setattr__(self, "monitor", (params.p, params.q, s))

    @functools.cached_property
    def _engine(self) -> _Engine:
        return _Engine(self)


def _check_problem(kind, nu, beta, coupling, alpha):
    """NonlinearProblemSpec's field rules, which need no decomposition: the
    normalized (beta, nu, coupling, alpha), alpha 0 for the power kind."""
    beta, coupling = _real(beta, "beta", True), complex(coupling)
    if not np.isfinite(coupling):
        raise InvalidSpecError("coupling must be finite", field="coupling")
    nu = _count(nu, "nu")
    if kind not in ("power", "inhomogeneous"):
        raise InvalidSpecError(f"unknown nonlinearity kind {kind!r}", field="kind")
    return beta, nu, coupling, _real(alpha, "alpha", True) if kind == "inhomogeneous" else 0.0


def _check_monitor(monitor, where="monitor"):
    """The checked (MixedNormParams(p, q), s) of a (p, q, s) monitor triple;
    ``where`` names the triple in the message of a bad p or q."""
    if len(monitor) != 3:
        raise InvalidSpecError("monitor must be a (p, q, s) triple")
    p, q, s = monitor
    s = _real(s, "s")
    try:
        return MixedNormParams(p, q), s
    except InvalidSpecError as exc:
        raise InvalidSpecError(f"bad exponent at {where}: {exc}") from None


class _Engine:
    """Coefficient-space state of one flow problem, shared by both
    integrators and ``duhamel_residual``. It keeps only what the flow reads,
    with no reference back to the spec. A state is a coefficient vector,
    a block of states the columns of an (m, K) array.

    The layout is the decomposition's: when it keeps one parity (``sign``
    that parity, 1.0 or -1.0; see the module docstring) states have their
    values on the rows x > 0 (``rows``) with twice the cell measure, and are
    mirrored into a full field where they are measured or bounded. Otherwise
    ``sign`` is 0.0 and ``rows`` takes every node. ``c0``, the projected
    initial coefficients, is read-only and checked for off-span mass at the
    build; ``initial_values``, the trajectory's t = 0 norm and bound, are
    measured at the first read, from one frame of the initial state.
    ``cap_constant``, computed at the build, is the C with monitored norm
    <= C ||c||_2 for the field of any coefficients c: ``phasespace._l2_cap``
    times sqrt(1 + m ``_ORTHO_TOL``), the Gershgorin bound on the Gram matrix
    of the m modes, gated by ``decompose``, that relates ||c||_2 to the
    field's L^2 norm.
    """

    def __init__(self, spec: NonlinearProblemSpec):
        dec, u0 = spec.decomposition, spec.u0.values
        self.dec = dec
        if dec.parity:
            self.sign = float(dec.parity)
            self.rows = slice(dec.grid.points_per_axis // 2, None)
            self.phi = np.ascontiguousarray(dec.eigenvectors[self.rows])
            self.cell = 2.0 * dec.grid.h
        else:
            self.sign, self.rows = 0.0, slice(None)
            self.phi, self.cell = dec.eigenvectors, dec.grid.h
        self.beta = spec.beta
        self.coupling, self.power = spec.coupling, 2 * spec.nu
        self.sing = (np.abs(dec.grid.nodes()[self.rows]) ** (-spec.alpha)
                     if spec.kind == "inhomogeneous" else None)
        p, q, self.monitor_s = spec.monitor
        self.monitor_params = MixedNormParams(p, q)
        self.c0 = self.to_coeff(u0[self.rows])
        self.c0.setflags(write=False)
        _warn_off_span(dec, spec.u0, "initial data", self.c0)
        self.cap_constant = (_l2_cap(self.monitor_s, dec.oscillator, dec.grid, self.monitor_params)
                             * math.sqrt(1.0 + dec.m * _ORTHO_TOL))

    @functools.cached_property
    def initial_values(self) -> tuple:
        """(monitored norm, bound) of the initial state, from its one frame."""
        values = self.fields(self.c0[:, None])
        frame = _framed(values)
        return self.monitored_norm(values, frame, 0), float(self.monitored_bounds(frame)[0])

    def propagator(self, dt: float) -> np.ndarray:
        return _spectral_values(self.dec, _heat_phi(self.beta, dt), "heat propagator")

    def to_coeff(self, values: np.ndarray) -> np.ndarray:
        return self.cell * real_matmul(self.phi.T, values)

    def to_values(self, coeffs: np.ndarray) -> np.ndarray:
        return real_matmul(self.phi, coeffs)

    def nonlin_coeff(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients of N(v) = coupling |v|^(2 nu) v, times |x|^(-alpha)
        for the inhomogeneous kind, v the values of ``coeffs``: of one state,
        or of each column of a block by one GEMM to values and one back."""
        v = self.to_values(coeffs)
        nl = self.coupling * np.abs(v) ** self.power * v
        return self.to_coeff(nl if self.sing is None else (nl.T * self.sing).T)

    def fields(self, coeffs: np.ndarray) -> np.ndarray:
        """The full fields of the columns of ``coeffs``, the rows of a (K, N)
        array as ``phasespace._frame`` takes them; a sector state is mirrored
        from its rows x > 0, so it is exactly even or odd."""
        v = self.to_values(coeffs)
        if self.sign:
            v = np.concatenate((self.sign * v[::-1], v))
        return np.ascontiguousarray(v.T, dtype=complex)

    def monitored_norm(self, values: np.ndarray, frame, k: int) -> float:
        """The exact monitored norm of the full field ``values[k]``, measured
        in its row of ``frame``, the batch ``_frame`` of ``values``: one STFT
        pass, with no boundary-mass check."""
        [norm], _, _ = _measured_columns(values, frame, k, self.dec.grid, [self.monitor_s],
                                         self.dec.oscillator, self.monitor_params)
        return norm

    def monitored_bounds(self, frame) -> np.ndarray:
        """``phasespace._state_bounds`` of the fields of a batch ``frame``:
        certified upper bounds of their monitored norms, from O(N) sums."""
        return _state_bounds(frame, self.dec.grid, self.monitor_s, self.dec.oscillator,
                             self.monitor_params)


@dataclass(eq=False)
class Trajectory:
    """Time-stepped solution record.

    ``l2_norms`` (of the coefficients) are per step. Field checkpoints
    (the coefficients of the decomposition's m retained modes) are stored
    every ``checkpoint_stride`` steps plus the final state.
    ``monitored_bounds`` holds, at exactly
    those steps, a certified upper bound of the monitored norm, and NaN
    between them; ``monitored_norms`` holds the exact norm where it was
    measured and NaN elsewhere (``_Recorder`` says where, and how the stride
    sets where blow-up is detected; with stride 1 every step is checked).
    ``contraction_factors`` holds, per Picard block, the ratios of
    successive sweep caps (see ``picard_solve``; ``max_contraction`` reads
    them); exponential stepping leaves it empty. A blow-up truncates the
    record instead of raising and sets ``blowup_time``; its step is stored
    as a checkpoint with the monitored norm measured.
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
        return max((ratio for block in self.contraction_factors for ratio in block), default=0.0)

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

    It takes a run's states in step order, a block at a time (a converged
    Picard block, or the exponential steps up to a checkpoint). A block's
    checkpoints get their values from one GEMM, their one frame and their
    bounds (``phasespace._state_bounds``) from one batch. Between
    checkpoints both monitored columns are NaN. The exact monitored norm
    (one STFT pass on the state's row of the frame) runs only at t = 0, at
    the checkpoints on every ``_EXACT_STRIDE``-th step, at the last step (of
    the horizon, or of a blow-up) and at a checkpoint whose bound is not at
    most ``_BLOWUP_NORM``; elsewhere it is NaN. One call on the frame, after
    the exact norms, checks the boundary mass of every checkpoint up to the
    end of the record. At a stride point or the last step the flow has blown
    up when the monitored norm is non-finite or above ``_BLOWUP_NORM``: a
    bound at most ``_BLOWUP_NORM`` certifies that it is not, and any other
    bound hands the decision to the exact norm. Between stride points the
    flow has blown up when the coefficients are non-finite or their l2 norm
    is above ``_BLOWUP_NORM``. A blow-up step is always checkpointed, with
    its monitored norm measured (infinite, as its bound, for non-finite
    coefficients), and ends the record.
    """

    def __init__(self, engine, dt, steps, stride):
        self.engine, self.dt, self.steps, self.stride = engine, dt, steps, stride
        norm, bound = engine.initial_values
        self.times = [0.0]
        self.monitored = [norm]
        self.bounds = [bound]
        self.l2s = [float(np.linalg.norm(engine.c0))]
        self.cp_times = [0.0]
        self.cps = [engine.c0]
        self.blowup_time = None

    def record(self, first, states) -> bool:
        """Record the states, the columns of ``states``, after the steps
        first, first + 1, ...; True when the flow has blown up. Non-finite
        coefficients count as infinite norms and bounds rather than being
        handed to the monitored norm.
        """
        engine = self.engine
        steps = np.arange(first, first + states.shape[1])
        finite = np.isfinite(states).all(axis=0)
        with np.errstate(over="ignore", invalid="ignore"):  # an l2 that overflows is a blow-up
            l2 = np.where(finite, np.linalg.norm(states, axis=0), np.inf)
        on_stride = (steps % self.stride == 0) | (steps == self.steps)
        # between stride points only the l2 guard runs; a step it stops is
        # checkpointed and measured all the same
        kept = on_stride | ~(l2 <= _BLOWUP_NORM)
        norms = np.where(kept & ~finite, np.inf, np.nan)
        bounds = norms.copy()
        fielded = np.flatnonzero(kept & finite)
        if fielded.size:
            values = engine.fields(states[:, fielded])
            frame = _frame(values)
            bounds[fielded] = engine.monitored_bounds(frame)
        exact = kept & finite & ((steps % _EXACT_STRIDE == 0) | (steps == self.steps)
                                 | ~on_stride | ~(bounds <= _BLOWUP_NORM))
        # a step left to its bound has a bound, so a norm, at most the guard:
        # only a measured or non-finite step can have blown up
        end = len(steps)
        for k in np.flatnonzero(exact | (kept & ~finite)):
            if exact[k]:
                norms[k] = engine.monitored_norm(values, frame, np.searchsorted(fielded, k))
            if not (on_stride[k] and (math.isnan(norms[k]) or norms[k] <= _BLOWUP_NORM)):
                end = k + 1
                self.blowup_time = float(steps[k] * self.dt)
                break
        if fielded.size:  # the boundary-mass check of every framed state up to the end
            cut = np.searchsorted(fielded, end)
            _check_boundary_mass(frame[0][:cut], frame[4][:cut])
        kept = np.flatnonzero(kept[:end])
        times = steps[:end] * self.dt
        self.times += times.tolist()
        self.monitored += norms[:end].tolist()
        self.bounds += bounds[:end].tolist()
        self.l2s += l2[:end].tolist()
        self.cp_times += times[kept].tolist()
        self.cps += list(states[:, kept].T)
        return self.blowup_time is not None

    def trajectory(self, contractions=()) -> Trajectory:
        return Trajectory(
            times=np.array(self.times),
            monitored_norms=np.array(self.monitored),
            monitored_bounds=np.array(self.bounds),
            l2_norms=np.array(self.l2s),
            checkpoint_times=np.array(self.cp_times),
            checkpoint_coeffs=np.array(self.cps),
            contraction_factors=tuple(tuple(b) for b in contractions),
            blowup_time=self.blowup_time,
        )


def _start(spec, horizon, dt, stride):
    """Validated step count, the spec's engine, the initial coefficients and
    a recorder seeded with them."""
    steps = _check_steps(horizon, dt)
    stride = _count(stride, "checkpoint_stride")
    engine = spec._engine
    return engine, engine.c0, _Recorder(engine, dt, steps, stride)


def _check_steps(horizon, dt):
    if _real(dt, "dt", True) > 1e-2:
        raise InvalidSpecError("step must satisfy 0 < dt <= 1e-2", field="dt")
    horizon = _real(horizon, "horizon", True)
    steps = int(round(horizon / dt))
    if steps < 1 or abs(steps * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise InvalidSpecError("horizon must be an integer number of steps", field="horizon")
    return steps


def _check_tol(tol):
    if _real(tol, "tol") < 1e-10:
        raise InvalidSpecError("tol must be a finite real >= 1e-10", field="tol")


def _check_order(order):
    if _count(order, "order") > 2:
        raise InvalidSpecError("order must be 1 or 2", field="order")


def _sweeps(engine, c, n, dt, tol, max_iter, t_end):
    """Picard sweeps over ``n`` windows from the state ``c`` (the block of
    ``picard_solve``, ending at ``t_end``): the converged endpoints as the
    columns of an (m, n) array, and the ratios of successive sweep caps.
    NonConvergenceError carries the windowed iteration's diagnostics, for
    the window that ends at t_end.
    """
    e_full, e_half, e_quarter = (engine.propagator(dt * share) for share in (1.0, 0.5, 0.25))
    cap = engine.cap_constant
    # N at the midpoints, then at the averaged states; the first pass, with
    # N = 0, is the linear flow, the first iterate
    nonlin = np.zeros((len(c), 2 * n))
    ends, gaps, ratios = None, [], []
    with np.errstate(over="ignore", invalid="ignore"):  # the caller halves a diverging sweep
        for _ in range(max_iter + 1):
            kick = dt * (e_half[:, None] * nonlin[:, :n])
            new_ends = np.empty((len(c), n), np.result_type(c, kick))
            end = c
            for k in range(n):  # the endpoint recurrence, a scan
                end = new_ends[:, k] = e_full * end + kick[:, k]
            starts = np.column_stack((c, new_ends[:, :-1]))
            mids = e_half[:, None] * starts + (dt / 2.0) * (e_quarter[:, None] * nonlin[:, n:])
            if not (np.all(np.isfinite(new_ends)) and np.all(np.isfinite(mids))):
                raise NonConvergenceError(
                    f"Picard iterates diverged to non-finite values at t={t_end:.6g}",
                    {"t": t_end, "iterations": len(gaps) + 1,
                     "last_gap": gaps[-1] if gaps else None})
            if ends is not None:
                gap = new_ends - ends  # a sum of squares that overflows gives inf
                gaps.append(cap * float(np.linalg.norm(gap, axis=0).max()) if np.any(gap) else 0.0)
                if len(gaps) >= 2 and gaps[-2] > 0:
                    ratios.append(gaps[-1] / gaps[-2])
                # a second sweep is mandatory so the contraction is measured,
                # not assumed, even when the first correction is below tol
                if len(gaps) >= 2 and gaps[-1] < tol:
                    return new_ends, ratios
            ends = new_ends
            nonlin = engine.nonlin_coeff(np.concatenate((mids, 0.5 * (starts + mids)), axis=1))
    raise NonConvergenceError(
        f"Picard window at t={t_end:.6g} did not converge in {max_iter} iterations",
        {"t": t_end, "last_gap": gaps[-1],
         "last_contraction": ratios[-1] if ratios else None})


def picard_solve(spec: NonlinearProblemSpec, horizon: float, dt: float,
                 tol: float = 1e-8, max_iter: int = 25,
                 checkpoint_stride: int = 1) -> Trajectory:
    """Picard iteration of the Duhamel formula, swept over blocks of windows.

    On each window [t, t + dt] the endpoint is exp(-dt H^beta) u(t) plus
    dt exp(-(dt/2) H^beta) N(u_mid), and the midpoint is
    exp(-(dt/2) H^beta) u(t) plus (dt/2) exp(-(dt/4) H^beta) N of the
    averaged start and midpoint, so both carry second-order local accuracy.
    A block is the windows up to the next multiple of ``_EXACT_STRIDE``
    steps (at most 100). A sweep evaluates N at every midpoint and averaged
    state of the block (one GEMM pair), runs the endpoint recurrence as a
    scan and refreshes the midpoints: Picard waveform relaxation
    (Lelarasmee, Ruehli and Sangiovanni-Vincentelli, IEEE Trans. CAD 1,
    1982). A block stops, after at least two sweeps, when its cap
    C sup_k ||gap_k||_2 over the coefficient gaps of its endpoints is below
    tol. C, the engine's ``cap_constant``, computed once when the flow's
    engine is built, bounds the monitored norm of every endpoint gap.
    ``contraction_factors`` holds, per block, the ratios of successive caps.

    A block whose sweeps go non-finite or do not converge in ``max_iter`` is
    halved and solved again from its start. A block of one window is the
    windowed iteration, and raises NonConvergenceError with the window's
    ``t`` and the last cap as ``last_gap`` (inf for a sum of squares that
    overflows). Converged blocks are recorded in step order; blow-up (see
    ``Trajectory``) truncates the trajectory instead of raising.
    """
    _check_tol(tol)
    _count(max_iter, "max_iter", 2)  # a contraction factor needs two successive gaps
    engine, c, rec = _start(spec, horizon, dt, checkpoint_stride)
    contractions = []
    done = 0
    while done < rec.steps:
        n = min(rec.steps, (done // _EXACT_STRIDE + 1) * _EXACT_STRIDE) - done
        while True:
            try:
                ends, ratios = _sweeps(engine, c, n, dt, tol, max_iter, (done + n) * dt)
                break
            except NonConvergenceError:
                if n == 1:
                    raise
                n //= 2
        contractions.append(ratios)
        if rec.record(done + 1, ends):
            break
        c = ends[:, -1]
        done += n
    return rec.trajectory(contractions)


def etd_evolve(spec: NonlinearProblemSpec, horizon: float, dt: float,
               order: int = 2, checkpoint_stride: int = 1) -> Trajectory:
    """Exponential time differencing cross-check integrator.

    Order 1: u(t + dt) = exp(-dt H^beta)(u + dt N(u)); the linear flow is
    exact. Order 2, the default, is the two-stage variant with a trapezoidal correction.
    The steps up to each checkpoint are recorded as one block; blow-up is
    recorded as in ``picard_solve``, and the steps after it are dropped.
    """
    _check_order(order)
    engine, c, rec = _start(spec, horizon, dt, checkpoint_stride)
    e_full = engine.propagator(dt)
    block = []
    for step in range(1, rec.steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # the recorder stops a blow-up
            k1 = engine.nonlin_coeff(c)
            if order == 1:
                c = e_full * (c + dt * k1)
            else:
                predictor = e_full * (c + dt * k1)
                k2 = engine.nonlin_coeff(predictor)
                c = e_full * c + (dt / 2.0) * (e_full * k1 + k2)
        block.append(c)
        if step % rec.stride == 0 or step == rec.steps:
            if rec.record(step + 1 - len(block), np.stack(block, axis=1)):
                break
            block = []
    return rec.trajectory()


def duhamel_residual(traj: Trajectory, spec: NonlinearProblemSpec) -> float:
    """Max L2 defect of the mild-solution identity over stored checkpoints.

    The nonlinearity at every checkpoint is one batched evaluation (one
    GEMM to values and one back). The Duhamel integral is accumulated
    segment by segment with the trapezoid rule, multiplying by the segment
    propagator as it goes, so each checkpoint's integral carries the exact
    semigroup kernel. A NaN defect (NaN coefficients) gives a NaN residual.
    """
    if len(traj.checkpoint_times) < 3:
        raise ValueError("need at least 3 checkpoints for a residual")
    engine = spec._engine
    times = traj.checkpoint_times
    coeffs = traj.checkpoint_coeffs
    n_hat = engine.nonlin_coeff(coeffs.T).T

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
        worst = float(np.maximum(worst, np.linalg.norm(defect)))
    return worst
