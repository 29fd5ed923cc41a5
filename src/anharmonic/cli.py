"""Experiment runner: manifest validation, deterministic execution, reports.

A manifest is a JSON document with a versioned schema: ``_TABLE`` gives each
key a type, a default and a range, and ``validate_manifest`` parses it once
into the values the runners read. Reports are a JSON summary (which carries
wall time and the manifest hash) plus one CSV per figure-able series; CSV
bodies contain only deterministically ordered, shortest-round-trip formatted
numbers, so identical manifest and seed give byte-identical CSV files.

Exit codes: 0 all checks passed, 1 some check failed, 2 schema violation or
rejected manifest value (before any decomposition), 3 numerical failure,
4 report write failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import __version__
from .calculus import heat_semigroup
from .errors import NumericalError, SchemaError
from .model import (INF, MixedNormParams, OscillatorSpec, hermite_oscillator, is_inf,
                    submultiplicativity_defect)
from .estimators import (WeightQuotientParams, _check_decay_times, _check_quotient_box,
                         algebra_ratios, bohr_sommerfeld_eigenvalues,
                         gaussian_probe_fields, ou_probe_rate,
                         singular_weight_norm, smoothing_decay_run,
                         sobolev_modulation_equivalence, standard_probe_family)
from .nlheat import (NonlinearProblemSpec, _check_monitor, _check_order, _check_problem,
                     _check_steps, _check_tol, duhamel_residual, etd_evolve, picard_solve)
from .ougauss import GaussianConjugation, apply_conjugation, ou_semigroup
from .phasespace import mixed_norm, modulation_norm, stft
from .spectral import FieldSample, Grid, _field_parity, decompose

_KINDS = ("spectrum", "decay", "norms", "nlheat", "ou", "selftest")
_NORMS_CHECKS = ("moyal", "equivalence", "algebra", "singular")
_FORMATS = ("json", "both")  # report.json alone, or with the series CSVs
_DEFAULT_SEED = 1234
_L2_GAMMA_TOL = 1e-9  # Moyal holds up to the window-norm error, capped at 1e-10
_SINGULAR_RADIUS = 6.0  # the norms singular check truncates |x|^(-alpha) at this radius
_OU_CHECK_RADIUS = 6.0  # the ou constant-field check compares the field on |x| <= this

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_WRITE = 4


# the variables that cap the BLAS and OpenMP thread pools, read by a BLAS
# only when it loads
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _provenance() -> dict:
    """The python and numpy versions and the thread variables as set in the
    environment (None when unset): environment values, not a thread count
    read back from the loaded BLAS."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas_thread_env": {name: os.environ.get(name) for name in _THREAD_VARS}}


@dataclass(eq=False)
class ReportRecord:
    """Assembled run outcome: result rows, series tables, warnings."""

    manifest_hash: str
    version: str
    kind: str
    seed: int
    wall_time_s: float = 0.0
    results: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    series: dict = field(default_factory=dict)

    def all_passed(self) -> bool:
        return all(r["passed"] for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "schema": 3,
            "provenance": _provenance(),
            "manifest_hash": self.manifest_hash,
            "artifact_version": self.version,
            "kind": self.kind,
            "seed": self.seed,
            "wall_time_s": self.wall_time_s,
            "results": self.results,
            "warnings": self.warnings,
            "series_files": sorted(self.series),
            "all_passed": self.all_passed(),
        }


# the verdict rule of every row, for value v and target t: the deviation is
# |v - t| (abs), |v - t| / |t| (rel), v - t (upper, v at most the bound t)
# or t - v (lower, v at least t), and passed <=> deviation <= tolerance
_DEVIATION = {"abs": lambda v, t: abs(v - t), "rel": lambda v, t: abs(v - t) / abs(t),
              "upper": lambda v, t: v - t, "lower": lambda v, t: t - v}


def _result(name: str, kind: str, value: float, target: float, tolerance: float) -> dict:
    """The one way to make a report row: ``_DEVIATION`` judges it, so a NaN
    deviation fails; a non-finite tolerance is a SchemaError."""
    value, target, tolerance = float(value), float(target), float(tolerance)
    if not np.isfinite(tolerance):
        raise SchemaError(f"result {name} lacks a finite tolerance")
    deviation = _DEVIATION[kind](value, target)
    return {"name": str(name), "kind": kind, "value": value, "target": target,
            "deviation": deviation, "tolerance": tolerance, "passed": deviation <= tolerance}


def _require(cond, message, field_name=None):
    if not cond:
        raise SchemaError(message, field=field_name)


@contextmanager
def _rejected_as(field_name, prefix=""):
    """A library check's ValueError inside the block exits 2 as a SchemaError
    at ``field_name``, or at its parameter below that when the error names one."""
    try:
        yield
    except ValueError as exc:
        at = getattr(exc, "field", None)
        raise SchemaError(prefix + str(exc), field=f"{field_name}.{at}" if at else field_name)


# --- the manifest table -----------------------------------------------------

def _is_number(v):  # a JSON number that a float holds; booleans are not numbers
    return type(v) is float or (type(v) is int and abs(v) <= sys.float_info.max)


# each type: (accepts a JSON value, the value a run reads). "[t]" is a list
# of t, and a type named after a block of _TABLE is that block.
_TYPES = {
    "int": (lambda v: type(v) is int, int),
    "float": (_is_number, float),
    "str": (lambda v: isinstance(v, str), str),
    "exponent": (lambda v: _is_number(v)
                 or (isinstance(v, str) and v.lower() in ("inf", "infinity")),
                 lambda v: INF if isinstance(v, str) else float(v)),
    "object": (lambda v: isinstance(v, dict), dict),
}
_REQUIRED = object()  # the default of a key that the manifest must give
# a range: (holds for the parsed value, message[, field]); {field} is the key's path
_SELECTION = (len, "the manifest selects no checks", "params")  # an empty list runs nothing
_FINITE = (np.isfinite, "{field} must be finite")
_POSITIVE = (lambda v: np.isfinite(v) and v > 0, "{field} must be a finite real > 0")
_TIMES = (lambda ts: all(np.isfinite(t) and t >= 0 for t in ts),
          "{field} must be finite times >= 0")

# block -> key -> (type, default, *ranges). A default of None leaves the key
# unset for the block's finish (_FINISH); "params" is walked as params.<kind>.
_TABLE = {
    "": {
        "schema": ("int", _REQUIRED,
                   (lambda v: v == 1, "unsupported schema version; expected 1")),
        "kind": ("str", _REQUIRED, (lambda v: v in _KINDS, f"kind must be one of {_KINDS}")),
        "seed": ("int", _DEFAULT_SEED,
                 (lambda v: 0 <= v < 2 ** 64, "seed must be an unsigned 64-bit integer")),
        "format": ("str", "both",
                   (lambda v: v in _FORMATS, f"format must be one of {_FORMATS}")),
        "output_dir": ("str", "out", (len, "{field} must name a directory")),
        "grid": ("grid", None), "oscillator": ("oscillator", None),
        "params": ("object", {})},
    # every shipped manifest names d = 1, the only one there is
    "grid": {"dimension": ("int", 1, (lambda v: v == 1, "only d = 1 is supported")),
             "points_per_axis": ("int", 512), "half_width": ("float", 12.0)},
    "oscillator": {"k": ("int", _REQUIRED), "l": ("int", _REQUIRED)},
    "params.spectrum": {"cases": ("[params.cases]", [{"k": 1, "l": 1, "half_width": 25.0},
                                                     {"k": 2, "l": 1, "half_width": 12.0},
                                                     {"k": 1, "l": 2, "half_width": 60.0}],
                                  _SELECTION)},
    "params.cases": {"k": ("int", _REQUIRED), "l": ("int", _REQUIRED), "points": ("int", 512),
                     "half_width": ("float", 12.0), "modes": ("int", None),
                     "j_lo": ("int", 30, (lambda v: v >= 0, "{field} must be >= 0")),
                     "j_hi": ("int", 150), "tolerance": ("float", 1e-3, _FINITE)},
    "params.decay": {"tuples": ("[params.tuples]", [
                         {"k": 1, "l": 1, "beta": 1.0, "p_tilde": 1.0, "q_tilde": 1.0},
                         {"k": 2, "l": 1, "beta": 1.0, "p_tilde": 2.0, "q_tilde": 2.0},
                         {"k": 1, "l": 2, "beta": 2.0, "p_tilde": 2.0, "q_tilde": "inf"}],
                         _SELECTION),
                     "form": ("str", "scaled"), "radius": ("float", 30.0),
                     "resolution": ("int", 2048), "t_list": ("[float]", None)},
    "params.tuples": {"k": ("int", _REQUIRED), "l": ("int", _REQUIRED), "beta": ("float", 1.0),
                      "p_tilde": ("exponent", 1.0), "q_tilde": ("exponent", 1.0),
                      "s2": ("float", 0.0), "tolerance": ("float", 0.10, _FINITE),
                      "r2_min": ("float", 0.98, _FINITE)},
    "params.norms": {"checks": ("[str]", list(_NORMS_CHECKS), _SELECTION),
                     "modes": ("int", None)},
    "params.nlheat": {"modes": ("int", None), "kind": ("str", "power"), "nu": ("int", 1),
                      "coupling_re": ("float", -1.0, _FINITE),
                      "coupling_im": ("float", 0.0, _FINITE),
                      "alpha": ("float", None),
                      "monitor": ("[exponent]", [2.0, 1.0, 2.0],
                                  (lambda m: len(m) == 3, "{field} must be [p, q, s]")),
                      "initial_norm": ("float", 0.05, _POSITIVE), "horizon": ("float", 5.0),
                      "dt": ("float", 5e-3), "tol": ("float", 1e-8), "beta": ("float", 1.0),
                      "etd": ("params.etd", None)},
    "params.etd": {"horizon": ("float", 1.0), "dt": ("float", 1e-3), "order": ("int", 2)},
    "params.ou": {"modes": ("int", None),
                  "safe_radius": ("float", 8.0, _POSITIVE,
                                  (lambda r: r >= _OU_CHECK_RADIUS,
                                   f"{{field}} must be at least {_OU_CHECK_RADIUS:g}, the "
                                   "radius of the constant-field check")),
                  "beta": ("float", 1.0, _POSITIVE),
                  "t_check": ("[float]", [0.1, 0.5, 1.0], _TIMES,
                              (len, "{field} must list at least one time")),
                  "gauss_probes": ("int", 30, (lambda n: n >= 1, "{field} must be at least 1")),
                  "rate_t_list": ("[float]", [1, 2, 3, 4, 5], _TIMES,
                                  (lambda ts: len(set(ts)) >= 3,
                                   "need at least 3 distinct time points"))},
    "params.selftest": {},
}
_MODES_CAP = {"norms": 192, "nlheat": 384, "ou": 256}  # default modes: min(size / 2, cap)


def _parse(typ, value, where):
    if typ.startswith("["):
        _require(isinstance(value, list), f"field {where} has wrong type", where)
        return tuple(_parse(typ[1:-1], item, where) for item in value)
    accepts, parse = _TYPES.get(typ, _TYPES["object"])
    _require(accepts(value), f"field {where} has wrong type", where)
    return _walk(typ, value, where) if typ in _TABLE else parse(value)


def _walk(name, data, where):
    """Block ``name`` of the table read from ``data`` at field path ``where``:
    a namespace of parsed, defaulted values, passed through ``_FINISH[name]``."""
    prefix = where + "." if where else ""
    unknown = [prefix + key for key in sorted(set(data) - set(_TABLE[name]))]
    _require(not unknown, f"unknown manifest fields: {unknown}", ",".join(unknown))
    block = SimpleNamespace()
    for key, (typ, default, *ranges) in _TABLE[name].items():
        path = prefix + key
        value = data.get(key, default)
        _require(value is not _REQUIRED, f"missing required field {path}", path)
        if key in data or value is not None:
            value = _parse(typ, value, path)
        for holds, message, *at in ranges if value is not None else ():
            _require(holds(value), message.format(field=path), (at or [path])[0])
        setattr(block, key, value)
    return _FINISH[name](block) if name in _FINISH else block


def _modes(block, kind, grid, where):
    """``block.modes`` or its default on ``grid`` (half the grid, capped per kind;
    a spectrum case keeps 384 from 512 points up); it must fit the grid."""
    n = grid.points_per_axis
    default = ((max(384, n // 2) if n >= 512 else n // 2) if kind == "spectrum"
               else min(n // 2, _MODES_CAP[kind]))
    modes = default if block.modes is None else block.modes
    _require(1 <= modes <= n, f"{where} must lie in [1, {n}]", where)
    return modes


def _finish_manifest(run):  # the grid is parsed before the params
    # the kinds whose default mode count follows the grid are the ones run on it
    if run.kind in _MODES_CAP:
        run.grid = run.grid or _walk("grid", {}, "grid")
    else:
        _require(run.grid is None, f"a {run.kind} run reads no grid block", "grid")
    if run.kind in ("norms", "nlheat"):
        block = run.oscillator
        with _rejected_as("oscillator", "bad oscillator block: "):
            run.oscillator = (hermite_oscillator() if block is None
                              else OscillatorSpec(block.k, block.l))
    else:  # ou runs the harmonic oscillator, which its intertwining needs
        _require(run.oscillator is None, f"a {run.kind} run reads no oscillator block",
                 "oscillator")
    run.params = _walk(f"params.{run.kind}", run.params, "params")
    if run.kind in _MODES_CAP:
        run.params.modes = _modes(run.params, run.kind, run.grid, "params.modes")
    if run.kind == "norms" and "singular" in run.params.checks:
        _require(run.grid.half_width >= _SINGULAR_RADIUS,
                 f"the singular check truncates at radius {_SINGULAR_RADIUS:g}, beyond "
                 f"the grid half-width {run.grid.half_width:g}", "grid.half_width")
    return run


def _require_unique_labels(items, field_name):
    """Each entry's series and rows are named by its label, so a repeated
    label would overwrite an earlier entry's output."""
    seen = set()
    for item in items:
        _require(item.label not in seen, f"two entries of {field_name} have the run label "
                 f"{item.label}; the second would overwrite the first's series", field_name)
        seen.add(item.label)


def _finish_spectrum(p):
    _require_unique_labels(p.cases, "params.cases")
    return p


def _finish_case(case):
    with _rejected_as("params.cases", f"spectrum case k={case.k}, l={case.l}: "):
        case.oscillator = OscillatorSpec(case.k, case.l)
        case.grid = Grid(case.points, case.half_width)
    case.modes = _modes(case, "spectrum", case.grid, "params.cases.modes")
    _require(case.j_lo <= case.j_hi < case.modes, f"spectrum case k={case.k}, l={case.l}: "
             f"the window [{case.j_lo}, {case.j_hi}] must satisfy j_lo <= j_hi < modes = "
             f"{case.modes}", "params.cases.j_hi")
    case.label = f"k{case.k}_l{case.l}"
    return case


def _finish_decay(p):
    t_list = {}
    if p.t_list is not None:  # the default times pass the fit's rule
        t_list["t_list"] = tuple(sorted(set(p.t_list), reverse=True))
        with _rejected_as("params.t_list"):
            _check_decay_times(t_list["t_list"])
    with _rejected_as("params"):  # the values every tuple shares name their own keys
        _check_quotient_box(p.radius, p.resolution, p.form, **t_list)
    for tup in p.tuples:
        _require(not (is_inf(tup.p_tilde) and is_inf(tup.q_tilde)), "decay tuple has both "
                 "gaps infinite, so sigma = 0 and there is no decay slope to check",
                 "params.tuples")
        with _rejected_as("params.tuples", "bad decay tuple: "):
            tup.quotient = WeightQuotientParams(
                OscillatorSpec(tup.k, tup.l), tup.s2, tup.p_tilde, tup.q_tilde,
                p.radius, p.resolution, p.form, **t_list, beta=tup.beta)
        tup.label = f"decay_k{tup.k}_l{tup.l}_b{tup.beta:g}"
    _require_unique_labels(p.tuples, "params.tuples")
    return p


def _finish_norms(p):
    unknown = [c for c in p.checks if c not in _NORMS_CHECKS]
    _require(not unknown, f"unknown norms checks {unknown}; known: {_NORMS_CHECKS}",
             "params.checks")
    return p


def _finish_nlheat(p):
    _require(p.alpha is None or p.kind != "power",
             "params.alpha is read only by the inhomogeneous kind", "params.alpha")
    with _rejected_as("params", "bad nlheat parameters: "):
        p.beta, p.nu, p.coupling, p.alpha = _check_problem(
            p.kind, p.nu, p.beta, complex(p.coupling_re, p.coupling_im), p.alpha or 0.0)
    with _rejected_as("params.monitor"):
        p.monitor_params, _ = _check_monitor(p.monitor, "params.monitor")
    with _rejected_as("params"):
        steps = _check_steps(p.horizon, p.dt)
        _check_tol(p.tol)
    _require(steps >= 2, "params.horizon must span at least 2 steps of params.dt for a "
             "Duhamel residual", "params.horizon")
    if p.etd is not None:
        with _rejected_as("params.etd"):
            p.etd.steps = _check_steps(p.etd.horizon, p.etd.dt)
            _check_order(p.etd.order)
    return p


def _finish_grid(block):
    with _rejected_as("grid", "bad grid block: "):
        return Grid(block.points_per_axis, block.half_width)


_FINISH = {
    "": _finish_manifest, "grid": _finish_grid,
    "params.spectrum": _finish_spectrum, "params.cases": _finish_case,
    "params.decay": _finish_decay, "params.norms": _finish_norms,
    "params.nlheat": _finish_nlheat,
}


def validate_manifest(manifest: dict) -> SimpleNamespace:
    """The parsed, defaulted values of ``manifest`` from one walk of the table,
    with the ``Grid`` and ``OscillatorSpec`` built. SchemaError names the
    field of the first rejected value."""
    _require(isinstance(manifest, dict), "manifest must be a JSON object")
    return _walk("", manifest, "")


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read manifest: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"manifest is not valid JSON (line {exc.lineno}): {exc.msg}")


def _canonical_hash(manifest: dict, seed: int) -> str:
    payload = dict(manifest)
    payload["seed"] = seed
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# --- experiment bodies ------------------------------------------------------

def _run_spectrum(run, record):
    for case in run.params.cases:
        dec = decompose(case.oscillator, case.grid, case.modes)
        exact = bohr_sommerfeld_eigenvalues(case.oscillator, np.arange(dec.m))
        window = slice(case.j_lo, case.j_hi + 1)
        err = np.max(np.abs(dec.eigenvalues[window] / exact[window] - 1.0))
        record.results.append(_result(f"bohr_sommerfeld_{case.label}", "abs", err, 0.0,
                                      case.tolerance))
        rows = [[j, float(dec.eigenvalues[j]), float(exact[j])] for j in range(dec.m)]
        record.series[f"spectrum_{case.label}"] = {
            "header": ["j", "lambda", "bohr_sommerfeld"], "rows": rows}


def _run_decay(run, record):
    for tup in run.params.tuples:
        samples, fit = smoothing_decay_run(tup.quotient)
        record.results += [
            _result(f"{tup.label}_slope", "rel", fit.slope, fit.target, tup.tolerance),
            _result(f"{tup.label}_r2", "lower", fit.r_squared, tup.r2_min, 0.0)]
        rows = [[float(t), float(value), float(np.log10(t)), float(np.log10(value)),
                 float(np.exp(fit.intercept) * t ** fit.slope), fit.target]
                for t, value in samples]
        record.series[tup.label] = {
            "header": ["t", "value", "log10_t", "log10_value", "fitted", "target"],
            "rows": rows}


def _run_norms(run, record):
    checks, grid, osc, seed = run.params.checks, run.grid, run.oscillator, run.seed
    dec = decompose(osc, grid, run.params.modes)
    l2_params = MixedNormParams(2.0, 2.0)

    if "moyal" in checks:
        rng = np.random.default_rng(seed)
        band = min(50, dec.m)
        worst = 0.0
        for _ in range(20):
            coeffs = np.zeros(dec.m, dtype=complex)
            coeffs[:band] = rng.standard_normal(band) + 1j * rng.standard_normal(band)
            f = dec.reconstruct(coeffs)
            norm_mod = modulation_norm(f, 0.0, None, l2_params)
            worst = max(worst, abs(norm_mod - f.norm_l2()) / f.norm_l2())
        record.results.append(_result("moyal_identity_rel_err", "abs", worst, 0.0, 1e-6))

    if "equivalence" in checks:
        probes = standard_probe_family(dec, seed)
        s_values = (0.0, 1.0, 2.0)
        bands = sobolev_modulation_equivalence(dec, s_values, probes)
        for s, band in zip(s_values, bands):
            record.results.append(_result(f"equivalence_spread_s{s:g}", "upper",
                                          band.spread, 20.0, 0.0))

    if "algebra" in checks:
        fields = gaussian_probe_fields(grid, 15, seed + 1)
        pairs = [(i, j) for i in range(len(fields)) for j in range(i, len(fields))][:100]
        ratios = algebra_ratios(fields, pairs, l2_params, 2.0, osc)
        finite = [r for r in ratios if np.isfinite(r)]
        value = max(finite) if finite else float("inf")
        record.results.append(_result("algebra_max_ratio", "upper", value, 0.0, 1e3))

    if "singular" in checks:
        res_adm = singular_weight_norm(0.5, MixedNormParams(3.0, 3.0), 0.1, _SINGULAR_RADIUS,
                                       grid=grid, osc=osc)
        record.results.append(_result("singular_admissible_x_growth", "upper",
                                      res_adm.x_growth, 0.0, 0.02))
        res_bad = singular_weight_norm(0.5, MixedNormParams(3.0, 1.5), 0.1, _SINGULAR_RADIUS,
                                       grid=grid, osc=osc)
        record.results.append(_result("singular_inadmissible_tail_growth", "lower",
                                      res_bad.xi_tail_growth, 0.25, 0.0))


def _gaussian_initial(grid) -> FieldSample:
    r2 = grid.nodes() ** 2
    return FieldSample(grid, np.exp(-r2 / 2.0))


def _run_nlheat(run, record):
    p, grid, osc = run.params, run.grid, run.oscillator
    base = _gaussian_initial(grid)
    base_norm = modulation_norm(base, p.monitor[2], osc, p.monitor_params)
    u0 = FieldSample(grid, base.values * (p.initial_norm / base_norm))
    # the flow keeps u0's parity and reads no mode of the other
    dec = decompose(osc, grid, p.modes, parity=_field_parity(u0.values) or None)
    spec = NonlinearProblemSpec(dec, u0, beta=p.beta, nu=p.nu, coupling=p.coupling,
                                kind=p.kind, alpha=p.alpha, monitor=p.monitor)

    traj = picard_solve(spec, p.horizon, p.dt, tol=p.tol)
    # the scale of the residual and gap bounds: the largest finite measured norm
    measured = traj.monitored_norms[np.isfinite(traj.monitored_norms)]
    scale = float(measured.max()) if measured.size else p.initial_norm
    sup = float("inf") if traj.blown_up else scale
    # every stored step certified: the exact norm where it ran, else the bound
    certified = np.where(np.isnan(traj.monitored_norms), traj.monitored_bounds,
                         traj.monitored_norms)
    sup_bound = float("inf") if traj.blown_up else float(np.nanmax(certified))
    # a flow that blows up before its third checkpoint has no residual to check
    residual = (duhamel_residual(traj, spec) if len(traj.checkpoint_times) >= 3
                else float("inf"))
    record.results += [
        _result("picard_max_contraction", "upper", traj.max_contraction(), 0.0, 0.5),
        _result("sup_monitored_norm", "upper", sup, 2.0 * p.initial_norm, 0.0),
        _result("sup_monitored_bound", "upper", sup_bound, 2.0 * p.initial_norm, 0.0),
        _result("duhamel_residual", "abs", residual, 0.0, 1e-4 * scale)]

    if p.etd is not None:
        # only the final coefficients are read: checkpoint (and measure the
        # monitored norm) at the two ends alone
        e = p.etd
        p_short = picard_solve(spec, e.horizon, e.dt, tol=p.tol, checkpoint_stride=e.steps)
        e_traj = etd_evolve(spec, e.horizon, e.dt, order=e.order, checkpoint_stride=e.steps)
        engine_gap = p_short.final_coeffs - e_traj.final_coeffs
        gap_field = dec.reconstruct(engine_gap)
        gap = modulation_norm(gap_field, p.monitor[2], osc, p.monitor_params)
        record.results.append(_result("picard_etd_gap", "abs", gap, 0.0, 10.0 * e.dt * scale))

    header, rows = traj.table()
    record.series["trajectory"] = {"header": header, "rows": rows}


def _l2_gamma_rel_err(norm, conj, f) -> float:
    """Relative distance of an L^{2,2} modulation norm of gamma^(1/2) f from
    ||f||_{L^2(gamma)}, with gamma taken from ``conj.density``: the lattice
    Moyal identity makes them equal up to the window-norm error."""
    grid = f.grid
    ref = float(np.sqrt(grid.h
                        * np.sum(conj.density(grid) * np.abs(f.values) ** 2)))
    return abs(norm - ref) / ref


def _run_ou(run, record):
    p, grid = run.params, run.grid
    osc = hermite_oscillator()
    dec = decompose(osc, grid, p.modes)
    conj = GaussianConjugation(p.safe_radius)
    l2_params = MixedNormParams(2.0, 2.0)

    ones = FieldSample(grid, np.ones(grid.points_per_axis))
    mask = np.abs(grid.nodes()) <= _OU_CHECK_RADIUS
    worst = 0.0
    for t in p.t_check:
        out = ou_semigroup(conj, dec, p.beta, t, ones)
        expected = np.exp(-t)  # e^(-t d^beta) at d = 1
        worst = max(worst, float(np.max(np.abs(out.values[mask] - expected))))
    record.results.append(_result("ou_constant_field_err", "abs", worst, 0.0, 1e-6))

    probe = gaussian_probe_fields(grid, 1, run.seed + 2)[0]
    norm = modulation_norm(apply_conjugation(conj, "forward", probe), 0.0, osc, l2_params)
    err = _l2_gamma_rel_err(norm, conj, probe)
    record.results.append(_result("gaussian_norm_l2_gamma_rel_err", "abs", err, 0.0,
                                  _L2_GAMMA_TOL))

    probes = gaussian_probe_fields(grid, p.gauss_probes, run.seed)
    rate = ou_probe_rate(conj, dec, p.beta, p.rate_t_list, probes)
    record.results.append(_result("ou_longtime_rate", "rel", rate.slope, rate.target, 0.05))
    record.series["ou_rate"] = {
        "header": ["t", "log_bound", "fitted", "target_rate"],
        "rows": [[float(t), float(np.log(v)), float(rate.slope * t + rate.intercept),
                  float(rate.target)] for t, v in rate.samples]}


def _run_selftest(run, record):
    def row(name, value, target, tolerance, kind="abs"):
        record.results.append(_result(name, kind, value, target, tolerance))

    osc = hermite_oscillator()
    # the defect bound 2^(s (max(k, l) - 1)) is 1 for k = l = 1; it rests on
    # the offset 1 in the weight (without it the first pair reads 1.13)
    samples = [((0.3, -0.7), (1.1, 0.4)), ((2.0, 1.0), (-1.0, 0.5))]
    defect = submultiplicativity_defect(1.0, osc, samples)
    row("weight_defect_s1", defect, 1.0, 1e-12, kind="upper")

    grid = Grid(128, 10.0)
    dec = decompose(osc, grid, 40)
    coeffs = np.zeros(dec.m)
    coeffs[:12] = np.linspace(1.0, 0.1, 12)
    probe = dec.reconstruct(coeffs)
    conj = GaussianConjugation()
    gs = stft(apply_conjugation(conj, "forward", probe))
    row("gaussian_stft_l2_gamma_rel_err",
        _l2_gamma_rel_err(mixed_norm(gs, 0.0, None, MixedNormParams(2.0, 2.0)), conj, probe),
        0.0, _L2_GAMMA_TOL)

    u0 = FieldSample(grid, 0.05 * np.asarray(dec.eigenfunction(0).values))
    spec = NonlinearProblemSpec(dec, u0, coupling=0.0)
    traj = picard_solve(spec, 0.05, 5e-3, tol=1e-9)
    lin = heat_semigroup(dec, 1.0, 0.05, u0)
    gap = float(np.max(np.abs(dec.reconstruct(traj.final_coeffs).values - lin.values)))
    row("picard_linear_consistency", gap, 0.0, 1e-9)

    rt = apply_conjugation(conj, "inverse", apply_conjugation(conj, "forward", probe))
    inside = np.abs(grid.nodes()) <= conj.safe_radius
    row("conjugation_roundtrip",
        float(np.max(np.abs(rt.values[inside] - probe.values[inside]))), 0.0, 1e-12)


_RUNNERS = {
    "spectrum": _run_spectrum,
    "decay": _run_decay,
    "norms": _run_norms,
    "nlheat": _run_nlheat,
    "ou": _run_ou,
    "selftest": _run_selftest,
}


# --- emission ---------------------------------------------------------------

def _format_cell(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def emit_plot_data(record: ReportRecord, out_dir) -> list:
    """One CSV per series, independent variable first; returns written paths.

    A record without series (selftest, norms) writes nothing.
    """
    if not record.series:
        return []
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name in sorted(record.series):
        table = record.series[name]
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(table["header"])
            for row in table["rows"]:
                writer.writerow([_format_cell(v) for v in row])
        paths.append(path)
    return paths


def _write_report_json(record: ReportRecord, out_dir) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _json_value(value):
    """``value`` as strict JSON holds it: a non-finite float becomes the
    string "inf", "-inf" or "nan"."""
    return str(value) if isinstance(value, float) and not np.isfinite(value) else value


def run_manifest(path, out_dir=None, fmt=None, seed=None, verbose=False,
                 expect_kind=None):
    """Execute a manifest, given as a file path or as its JSON object; returns
    (exit_code, ReportRecord or None). ``seed`` overrides the manifest's seed
    and is held to the same rule; ``out_dir`` replaces the manifest's
    output_dir and, like it, must not be empty."""
    try:
        _require(out_dir != "", "--out must name a directory", "--out")
        manifest = path if isinstance(path, dict) else _read_json(path)
        if seed is not None and isinstance(manifest, dict):
            manifest = {**manifest, "seed": seed}  # held to the manifest's seed rule
        run = validate_manifest(manifest)
        if expect_kind is not None and run.kind != expect_kind:
            raise SchemaError(
                f"manifest kind {run.kind!r} does not match the "
                f"{expect_kind!r} command", field="kind")
        record = ReportRecord(manifest_hash=_canonical_hash(manifest, run.seed),
                              version=__version__, kind=run.kind, seed=run.seed)

        started = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _RUNNERS[run.kind](run, record)
        # one report entry per warning category: first message plus an event
        # count, so repeated per-step diagnostics neither flood nor vanish
        by_category = {}
        for w in caught:
            name = w.category.__name__
            if name in by_category:
                by_category[name]["count"] += 1
            else:
                entry = {"category": name, "message": str(w.message), "count": 1}
                by_category[name] = entry
                record.warnings.append(entry)
    except (ValueError, TypeError) as exc:
        # SchemaError; every manifest value is checked before the runner starts
        field = getattr(exc, "field", None)
        print(f"schema error: {exc}" + (f" (field: {field})" if field else ""),
              file=sys.stderr)
        return EXIT_SCHEMA, None
    except NumericalError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if getattr(exc, "diagnostics", None):
            payload["diagnostics"] = {k: _json_value(v) for k, v in exc.diagnostics.items()}
        if getattr(exc, "suggested_radius", None) is not None:
            payload["suggested_radius"] = _json_value(exc.suggested_radius)
        print(f"numerical failure: {json.dumps(payload, sort_keys=True, allow_nan=False)}",
              file=sys.stderr)
        return EXIT_NUMERICAL, None
    record.wall_time_s = time.perf_counter() - started

    try:
        _write_report_json(record, out_dir or run.output_dir)
        if (fmt or run.format) == "both":
            emit_plot_data(record, out_dir or run.output_dir)
    except OSError as exc:
        print(f"write failure: {exc}", file=sys.stderr)
        return EXIT_WRITE, None

    if verbose:
        for r in record.results:
            status = "pass" if r["passed"] else "FAIL"
            print(f"[{status}] {r['name']}: value={r['value']:.6g} "
                  f"target={r['target']:.6g} deviation={r['deviation']:.3g} "
                  f"tolerance={r['tolerance']:.3g}")
    return (EXIT_OK if record.all_passed() else EXIT_CHECK_FAILED), record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="anharmonic",
        description="Phase-space experiment runner for fractional oscillator semigroups")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in _KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} manifest")
        p.add_argument("--config", help="manifest path (selftest has a built-in default)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--format", choices=_FORMATS, help="report format")
        p.add_argument("--seed", type=int, help="overrides the manifest seed")
        p.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    source = args.config
    if source is None:
        if args.command != "selftest":
            print("--config is required for this command", file=sys.stderr)
            return EXIT_SCHEMA
        source = {"schema": 1, "kind": "selftest", "seed": _DEFAULT_SEED}
    code, record = run_manifest(source, out_dir=args.out, fmt=args.format, seed=args.seed,
                                verbose=args.verbose, expect_kind=args.command)
    if record is not None and not args.verbose:
        status = "ok" if record.all_passed() else "CHECKS FAILED"
        print(f"{record.kind}: {len(record.results)} checks, {status}")
    return code


if __name__ == "__main__":
    sys.exit(main())
