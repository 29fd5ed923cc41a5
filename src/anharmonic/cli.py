"""Experiment runner: manifest validation, deterministic execution, reports.

A manifest is a JSON document with a versioned schema. Reports are a JSON
summary (which carries wall time and the manifest hash) plus one CSV per
figure-able series; CSV bodies contain only deterministically ordered,
shortest-round-trip formatted numbers, so identical manifest and seed give
byte-identical CSV files.

Exit codes: 0 all checks passed, 1 some check failed, 2 schema violation or
rejected manifest value, 3 numerical failure, 4 report write failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .calculus import SemigroupQuery, heat_semigroup, project
from .errors import InvalidSpecError, NumericalError, SchemaError
from .model import (INF, MixedNormParams, exponent_from_json, hermite_oscillator, is_inf,
                    oscillator, oscillator_from_dict, submultiplicativity_defect,
                    weight_value)
from .estimators import (WeightQuotientParams, algebra_ratios, eigenvalue_growth_fit,
                         gaussian_probe_fields, ou_probe_rate, sigma_exponent,
                         singular_weight_norm, smoothing_decay_run,
                         sobolev_modulation_equivalence, standard_probe_family)
from .nlheat import (NonlinearProblemSpec, _check_order, _check_steps, _check_tol,
                     duhamel_residual, etd_evolve, picard_solve)
from .ougauss import GaussianConjugation, apply_conjugation, ou_semigroup
from .phasespace import mixed_norm, modulation_norm, stft
from .spectral import FieldSample, Grid, decompose

_KINDS = ("spectrum", "decay", "norms", "nlheat", "ou", "selftest")
_NORMS_CHECKS = ("moyal", "equivalence", "algebra", "singular")
_FORMATS = ("json", "csv", "both")
_DEFAULT_SEED = 1234
_L2_GAMMA_TOL = 1e-9  # Moyal holds up to the window-norm error, capped at 1e-10
# the keys each runner reads: params per kind, then the nested blocks by
# field path. Any other key would silently take a default, so it exits 2.
_KEYS = {
    "spectrum": ("cases",),
    "decay": ("tuples", "form", "radius", "resolution", "t_list"),
    "norms": ("checks", "modes"),
    "nlheat": ("modes", "kind", "nu", "coupling_re", "coupling_im", "alpha", "monitor",
               "initial_norm", "horizon", "dt", "tol", "beta", "etd"),
    "ou": ("modes", "safe_radius", "beta", "t_check", "gauss_probes", "rate_t_list"),
    "selftest": (),
    "grid": ("dimension", "points_per_axis", "half_width"),
    "params.cases": ("k", "l", "dimension", "points", "half_width", "modes", "j_lo",
                     "j_hi", "tolerance"),
    "params.tuples": ("k", "l", "beta", "p_tilde", "q_tilde", "s2", "tolerance", "r2_min"),
    "params.etd": ("horizon", "dt", "order"),
}

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_WRITE = 4


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
            "schema": 1,
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


def _result(name: str, value: float, target: float, deviation: float,
            tolerance: float, passed: bool) -> dict:
    # the report invariant: every pass/fail carries numeric deviation and tolerance
    row = {"name": str(name), "value": float(value), "target": float(target),
           "deviation": float(deviation), "tolerance": float(tolerance),
           "passed": bool(passed)}
    if not np.isfinite(row["tolerance"]):
        raise SchemaError(f"result {name} lacks a finite tolerance")
    return row


def _require(cond, message, field_name=None):
    if not cond:
        raise SchemaError(message, field=field_name)


def _get(obj, key, types, default=None, required=False, where=""):
    if key not in obj:
        _require(not required, f"missing required field {where}{key}", f"{where}{key}")
        return default
    val = obj[key]
    _require(isinstance(val, types), f"field {where}{key} has wrong type", f"{where}{key}")
    return val


def _selection(params, key, default):
    """The ``key`` list of params; an empty one runs nothing, so it exits 2."""
    items = _get(params, key, list, default=default, where="params.")
    _require(items, "the manifest selects no checks", "params")
    return items


def _reject_unknown(block, known, where=""):
    """SchemaError naming each key of a dict ``block`` outside ``known``; a
    block of another type is left to the runner that reads it."""
    if isinstance(block, dict):
        unknown = [where + key for key in sorted(set(block) - set(known))]
        _require(not unknown, f"unknown manifest fields: {unknown}", ",".join(unknown))


def load_manifest(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read manifest: {exc}")
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"manifest is not valid JSON (line {exc.lineno}): {exc.msg}")
    validate_manifest(manifest)
    return manifest


def validate_manifest(manifest: dict) -> None:
    _require(isinstance(manifest, dict), "manifest must be a JSON object")
    _require(_get(manifest, "schema", int, required=True) == 1,
             "unsupported schema version; expected 1", "schema")
    kind = _get(manifest, "kind", str, required=True)
    _require(kind in _KINDS, f"kind must be one of {_KINDS}", "kind")
    seed = _get(manifest, "seed", int, default=_DEFAULT_SEED)
    _require(0 <= seed < 2 ** 64, "seed must be an unsigned 64-bit integer", "seed")
    fmt = _get(manifest, "format", str, default="both")
    _require(fmt in _FORMATS, f"format must be one of {_FORMATS}", "format")
    _get(manifest, "output_dir", str, default=None)
    params = _get(manifest, "params", dict, default={})
    if "oscillator" in manifest:
        _require(isinstance(manifest["oscillator"], dict), "oscillator must be an object",
                 "oscillator")
    if "grid" in manifest:
        _require(isinstance(manifest["grid"], dict), "grid must be an object", "grid")
    _reject_unknown(manifest, ("schema", "kind", "seed", "format", "output_dir", "params",
                               "oscillator", "grid"))
    _reject_unknown(manifest.get("grid"), _KEYS["grid"], "grid.")
    _reject_unknown(params, _KEYS[kind], "params.")
    for key in _KEYS[kind]:
        nested = _KEYS.get(f"params.{key}")
        if nested is not None:  # cases and tuples are lists of blocks, etd one block
            value = params.get(key)
            for block in value if isinstance(value, list) else [value]:
                _reject_unknown(block, nested, f"params.{key}.")


def _grid_from_manifest(manifest) -> Grid:
    data = manifest.get("grid")
    if data is None:
        return Grid()
    try:
        return Grid(int(data.get("dimension", 1)),
                    int(data.get("points_per_axis", 512)),
                    float(data.get("half_width", 12.0)))
    except InvalidSpecError as exc:
        raise SchemaError(f"bad grid block: {exc}", field="grid")


def _oscillator_from_manifest(manifest):
    data = manifest.get("oscillator")
    if data is None:
        return hermite_oscillator()
    try:
        return oscillator_from_dict(data)
    except (KeyError, InvalidSpecError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad oscillator block: {exc}", field="oscillator")


def _canonical_hash(manifest: dict, seed: int) -> str:
    payload = dict(manifest)
    payload["seed"] = seed
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# --- experiment bodies ------------------------------------------------------

def _run_spectrum(manifest, seed, record):
    params = manifest.get("params", {})
    cases = _selection(params, "cases", [
        {"k": 1, "l": 1, "half_width": 25.0},
        {"k": 2, "l": 1, "half_width": 12.0},
        {"k": 1, "l": 2, "half_width": 60.0},
    ])
    for case in cases:
        _require(isinstance(case, dict), "each spectrum case must be an object",
                 "params.cases")
        k = int(_get(case, "k", int, required=True, where="params.cases."))
        l = int(_get(case, "l", int, required=True, where="params.cases."))
        d = int(case.get("dimension", 1))
        n_pts = int(case.get("points", 512))
        half_width = float(case.get("half_width", 12.0))
        modes = int(case.get("modes", max(384, n_pts // 2) if n_pts >= 512 else n_pts // 2))
        j_lo = int(case.get("j_lo", 30))
        j_hi = int(case.get("j_hi", 150))
        tol = float(case.get("tolerance", 0.10))
        osc = oscillator(k, l, d)
        grid = Grid(d, n_pts, half_width)
        # d = 1 names carry no suffix, so the shipped configs keep their names
        label = f"k{k}_l{l}" + ("" if d == 1 else f"_d{d}")
        try:
            dec = decompose(osc, grid, modes)
            fit = eigenvalue_growth_fit(dec, j_lo, j_hi)
        except ValueError as exc:
            raise SchemaError(f"spectrum case k={k}, l={l}: {exc}", field="params.cases")
        record.results.append(_result(
            f"growth_slope_{label}", fit.slope, fit.target, fit.rel_deviation, tol,
            fit.rel_deviation <= tol))
        if k == 1 and l == 1 and d == 1:
            j = np.arange(min(21, dec.m))
            exact = 2.0 * j + 1.0
            err = float(np.max(np.abs(dec.eigenvalues[:len(j)] - exact) / exact))
            record.results.append(_result(
                "harmonic_spectrum_rel_err", err, 0.0, err, 1e-6, err <= 1e-6))
        rows = []
        anchor = dec.eigenvalues[j_lo]
        for j in range(1, dec.m):
            line = anchor * (j / j_lo) ** fit.target
            rows.append([j, float(dec.eigenvalues[j]), float(line)])
        record.series[f"spectrum_{label}"] = {
            "header": ["j", "lambda", "target_exponent_line"], "rows": rows}


def _parse_exponent(value, where):
    try:
        return exponent_from_json(value)
    except (InvalidSpecError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad exponent at {where}: {exc}", field=where)


def _run_decay(manifest, seed, record):
    params = manifest.get("params", {})
    tuples = _selection(params, "tuples", [
        {"k": 1, "l": 1, "beta": 1.0, "p_tilde": 1.0, "q_tilde": 1.0},
        {"k": 2, "l": 1, "beta": 1.0, "p_tilde": 2.0, "q_tilde": 2.0},
        {"k": 1, "l": 2, "beta": 2.0, "p_tilde": 2.0, "q_tilde": "inf"},
    ])
    form = str(params.get("form", "scaled"))
    radius = float(params.get("radius", 30.0))
    resolution = int(params.get("resolution", 2048))
    t_list = params.get("t_list")
    runs = []  # every tuple is validated before any runs
    for spec in tuples:
        _require(isinstance(spec, dict), "each decay tuple must be an object",
                 "params.tuples")
        k = int(_get(spec, "k", int, required=True, where="params.tuples."))
        l = int(_get(spec, "l", int, required=True, where="params.tuples."))
        beta = float(spec.get("beta", 1.0))
        p_tilde = _parse_exponent(spec.get("p_tilde", 1.0), "params.tuples.p_tilde")
        q_tilde = _parse_exponent(spec.get("q_tilde", 1.0), "params.tuples.q_tilde")
        _require(not (is_inf(p_tilde) and is_inf(q_tilde)), "decay tuple has both gaps "
                 "infinite, so sigma = 0 and there is no decay slope to check", "params.tuples")
        s2 = float(spec.get("s2", 0.0))
        tol = float(spec.get("tolerance", 0.10))
        r2_min = float(spec.get("r2_min", 0.98))
        osc = oscillator(k, l, 1, beta)
        try:
            qp_kwargs = {"oscillator": osc, "s2": s2, "p_tilde": p_tilde,
                         "q_tilde": q_tilde, "radius": radius, "resolution": resolution,
                         "form": form}
            if t_list is not None:
                qp_kwargs["t_list"] = tuple(sorted({float(t) for t in t_list}, reverse=True))
            qparams = WeightQuotientParams(**qp_kwargs)
        except InvalidSpecError as exc:
            raise SchemaError(f"bad decay tuple: {exc}", field="params.tuples")
        runs.append((f"decay_k{k}_l{l}_b{beta:g}", tol, r2_min, qparams))
    for label, tol, r2_min, qparams in runs:
        samples, fit = smoothing_decay_run(qparams)
        passed = fit.rel_deviation <= tol and fit.r_squared >= r2_min
        record.results.append(_result(
            f"{label}_slope", fit.slope, fit.target, fit.rel_deviation, tol, passed))
        rows = []
        for t, value in samples:
            fitted = float(np.exp(fit.intercept) * t ** fit.slope)
            rows.append([float(t), float(value), float(np.log10(t)),
                         float(np.log10(value)), fitted, fit.target])
        record.series[label] = {
            "header": ["t", "value", "log10_t", "log10_value", "fitted", "target"],
            "rows": rows}


def _run_norms(manifest, seed, record):
    params = manifest.get("params", {})
    checks = _selection(params, "checks", list(_NORMS_CHECKS))
    unknown = [c for c in checks if c not in _NORMS_CHECKS]
    _require(not unknown, f"unknown norms checks {unknown}; known: {_NORMS_CHECKS}",
             "params.checks")
    grid = _grid_from_manifest(manifest)
    osc = _oscillator_from_manifest(manifest)
    modes = int(params.get("modes", min(grid.size // 2, 192)))
    dec = decompose(osc, grid, modes)
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
        record.results.append(_result("moyal_identity_rel_err", worst, 0.0, worst,
                                      1e-6, worst <= 1e-6))

    if "equivalence" in checks:
        probes = standard_probe_family(dec, seed)
        s_values = (0.0, 1.0, 2.0)
        bands = sobolev_modulation_equivalence(dec, s_values, probes)
        for s, band in zip(s_values, bands):
            record.results.append(_result(
                f"equivalence_spread_s{s:g}", band.spread, 1.0, band.spread, 20.0,
                band.spread <= 20.0))

    if "algebra" in checks:
        fields = gaussian_probe_fields(grid, 15, seed + 1)
        pairs = [(i, j) for i in range(len(fields)) for j in range(i, len(fields))][:100]
        ratios = algebra_ratios(fields, pairs, l2_params, 2.0, osc)
        finite = [r for r in ratios if np.isfinite(r)]
        value = max(finite) if finite else float("inf")
        record.results.append(_result("algebra_max_ratio", value, 0.0, value, 1e3,
                                      bool(np.isfinite(value) and value <= 1e3)))

    if "singular" in checks:
        res_adm = singular_weight_norm(0.5, MixedNormParams(3.0, 3.0), 0.1, 6.0,
                                       grid=grid, osc=osc)
        record.results.append(_result(
            "singular_admissible_x_growth", res_adm.x_growth, 0.0, res_adm.x_growth,
            0.02, res_adm.x_growth < 0.02))
        res_bad = singular_weight_norm(0.5, MixedNormParams(3.0, 1.5), 0.1, 6.0,
                                       grid=grid, osc=osc)
        record.results.append(_result(
            "singular_inadmissible_tail_growth", res_bad.xi_tail_growth, 1.0,
            res_bad.xi_tail_growth, 0.25, res_bad.xi_tail_growth > 0.25))


def _gaussian_initial(grid) -> FieldSample:
    r2 = np.sum(grid.nodes() ** 2, axis=1)
    return FieldSample(grid, np.exp(-r2 / 2.0))


def _run_nlheat(manifest, seed, record):
    # every value that needs no decomposition is checked before it is built
    params = manifest.get("params", {})
    kind = str(params.get("kind", "power"))
    nu = int(params.get("nu", 1))
    coupling = complex(params.get("coupling_re", -1.0), params.get("coupling_im", 0.0))
    alpha = float(params.get("alpha", 0.0))
    mon_raw = _get(params, "monitor", list, default=[2.0, 1.0, 2.0], where="params.")
    _require(len(mon_raw) == 3, "params.monitor must be [p, q, s]", "params.monitor")
    monitor = (_parse_exponent(mon_raw[0], "params.monitor"),
               _parse_exponent(mon_raw[1], "params.monitor"), float(mon_raw[2]))
    _require(np.isfinite(monitor[2]), "weight exponent must be finite", "params.monitor")
    initial_norm = float(params.get("initial_norm", 0.05))
    _require(np.isfinite(initial_norm) and initial_norm > 0,
             "params.initial_norm must be a finite real > 0", "params.initial_norm")
    horizon = float(params.get("horizon", 5.0))
    dt = float(params.get("dt", 5e-3))
    _check_steps(horizon, dt)
    tol = float(params.get("tol", 1e-8))
    _check_tol(tol)
    etd_cfg = params.get("etd")
    if etd_cfg is not None:
        _require(isinstance(etd_cfg, dict), "params.etd must be an object", "params.etd")
        e_hor = float(etd_cfg.get("horizon", 1.0))
        e_dt = float(etd_cfg.get("dt", 1e-3))
        order = int(etd_cfg.get("order", 2))
        e_steps = _check_steps(e_hor, e_dt)
        _check_order(order)

    grid = _grid_from_manifest(manifest)
    osc = _oscillator_from_manifest(manifest)
    modes = int(params.get("modes", min(grid.size // 2, 384)))
    dec = decompose(osc, grid, modes)
    base = _gaussian_initial(grid)
    try:
        spec = NonlinearProblemSpec(dec, base, beta=float(params.get("beta", 1.0)),
                                    nu=nu, coupling=coupling, kind=kind, alpha=alpha,
                                    monitor=monitor)
    except InvalidSpecError as exc:
        raise SchemaError(f"bad nlheat parameters: {exc}", field="params")
    mparams = MixedNormParams(monitor[0], monitor[1])
    base_norm = modulation_norm(base, monitor[2], osc, mparams)
    spec = replace(spec, u0=FieldSample(grid, base.values * (initial_norm / base_norm)))

    traj = picard_solve(spec, horizon, dt, tol=tol)
    scale = traj.sup_monitored_norm()
    residual = duhamel_residual(traj, spec)
    record.results.append(_result("picard_max_contraction", traj.max_contraction(), 0.0,
                                  traj.max_contraction(), 0.5,
                                  traj.max_contraction() <= 0.5))
    record.results.append(_result("sup_monitored_norm", scale, initial_norm,
                                  scale, 2.0 * initial_norm,
                                  (not traj.blown_up) and scale <= 2.0 * initial_norm))
    record.results.append(_result("duhamel_residual", residual, 0.0, residual,
                                  1e-4 * scale, residual <= 1e-4 * scale))

    if etd_cfg is not None:
        # only the final coefficients are read: checkpoint (and measure the
        # monitored norm) at the two ends alone
        p_short = picard_solve(spec, e_hor, e_dt, tol=tol, checkpoint_stride=e_steps)
        e_traj = etd_evolve(spec, e_hor, e_dt, order=order, checkpoint_stride=e_steps)
        engine_gap = p_short.final_coeffs - e_traj.final_coeffs
        gap_field = dec.reconstruct(engine_gap)
        gap = modulation_norm(gap_field, monitor[2], osc, mparams)
        bound = 10.0 * e_dt * scale
        record.results.append(_result("picard_etd_gap", gap, 0.0, gap, bound,
                                      gap <= bound))

    header, rows = traj.table()
    record.series["trajectory"] = {"header": header, "rows": rows}


def _l2_gamma_rel_err(norm, conj, f) -> float:
    """Relative distance of an L^{2,2} modulation norm of gamma^(1/2) f from
    ||f||_{L^2(gamma)}, with gamma taken from ``conj.density``: the lattice
    Moyal identity makes them equal up to the window-norm error."""
    grid = f.grid
    ref = float(np.sqrt(grid.cell_volume
                        * np.sum(conj.density(grid) * np.abs(f.values) ** 2)))
    return abs(norm - ref) / ref


def _run_ou(manifest, seed, record):
    params = manifest.get("params", {})
    grid = _grid_from_manifest(manifest)
    osc = hermite_oscillator(grid.dimension)
    modes = int(params.get("modes", min(grid.size // 2, 256)))
    dec = decompose(osc, grid, modes)
    conj = GaussianConjugation(grid.dimension, float(params.get("safe_radius", 8.0)))
    beta = float(params.get("beta", 1.0))
    l2_params = MixedNormParams(2.0, 2.0)

    ones = FieldSample(grid, np.ones(grid.size))
    radii = np.linalg.norm(grid.nodes(), axis=1)
    mask = radii <= 6.0
    worst = 0.0
    for t in params.get("t_check", [0.1, 0.5, 1.0]):
        out = ou_semigroup(conj, dec, beta, float(t), ones)
        expected = np.exp(-float(t) * grid.dimension ** beta)
        worst = max(worst, float(np.max(np.abs(out.values[mask] - expected))))
    record.results.append(_result("ou_constant_field_err", worst, 0.0, worst, 1e-6,
                                  worst <= 1e-6))

    probe = gaussian_probe_fields(grid, 1, seed + 2)[0]
    norm = modulation_norm(apply_conjugation(conj, "forward", probe), 0.0, osc, l2_params)
    err = _l2_gamma_rel_err(norm, conj, probe)
    record.results.append(_result("gaussian_norm_l2_gamma_rel_err", err, 0.0, err,
                                  _L2_GAMMA_TOL, err <= _L2_GAMMA_TOL))

    probes = gaussian_probe_fields(grid, int(params.get("gauss_probes", 30)), seed)
    rate = ou_probe_rate(conj, dec, beta, params.get("rate_t_list", [1, 2, 3, 4, 5]),
                         probes)
    record.results.append(_result("ou_longtime_rate", rate.slope, rate.target,
                                  rate.rel_deviation, 0.05, rate.rel_deviation <= 0.05))
    record.series["ou_rate"] = {
        "header": ["t", "log_bound", "fitted", "target_rate"],
        "rows": [[float(t), float(np.log(v)), float(rate.slope * t + rate.intercept),
                  float(rate.target)] for t, v in rate.samples]}


def _run_selftest(manifest, seed, record):
    from .model import PotentialSpec, evaluate_potential

    def row(name, value, target, tolerance):
        dev = abs(value - target)
        record.results.append(_result(name, value, target, dev, tolerance,
                                      dev <= tolerance))

    pot = PotentialSpec("iso_power", 1, 1)
    row("potential_iso_square", evaluate_potential(pot, 2.0), 4.0, 0.0)
    aniso = PotentialSpec("aniso_sum", 1, 2, (1.0, 2.0))
    row("potential_aniso_sum", evaluate_potential(aniso, (1.0, 1.0)), 3.0, 0.0)
    row("potential_homogeneity",
        evaluate_potential(pot, 3.0) / evaluate_potential(pot, 1.5), 4.0, 1e-12)

    osc = hermite_oscillator()
    row("weight_anharmonic_s1", weight_value(1.0, osc, 1.0, 1.0), 3.0, 1e-12)
    # the defect bound 2^(s (max(k, l) - 1)) is 1 for k = l = 1; it rests on
    # q1 >= 1 (without q1 the first pair reads 1.13)
    samples = [((0.3, -0.7), (1.1, 0.4)), ((2.0, 1.0), (-1.0, 0.5))]
    defect = submultiplicativity_defect(1.0, osc, samples)
    record.results.append(_result("weight_defect_s1", defect, 1.0, defect, 1.0 + 1e-12,
                                  defect <= 1.0 + 1e-12))

    row("sigma_hermite_p1q1", sigma_exponent(1, 1, 1.0, 1, 1.0, 1.0), 1.0, 0.0)
    row("sigma_quartic_p2q2", sigma_exponent(2, 1, 1.0, 1, 2.0, 2.0), 0.375, 0.0)
    row("sigma_bilaplacian_qinf", sigma_exponent(1, 2, 2.0, 1, 2.0, INF), 0.125, 0.0)

    grid = Grid(1, 128, 10.0)
    dec = decompose(osc, grid, 40)
    row("harmonic_ground_eigenvalue", float(dec.eigenvalues[0]), 1.0, 1e-6)
    f = dec.eigenfunction(3)
    ht = heat_semigroup(SemigroupQuery(dec, 1.0, 0.0), f)
    row("heat_identity_t0", float(np.max(np.abs(ht.values - f.values))), 0.0, 1e-9)
    pj = project(dec, 3, project(dec, 3, f))
    row("projection_idempotent", float(np.max(np.abs(pj.values - f.values))), 0.0, 1e-9)

    coeffs = np.zeros(dec.m)
    coeffs[:12] = np.linspace(1.0, 0.1, 12)
    probe = dec.reconstruct(coeffs)
    moyal = modulation_norm(probe, 0.0, None, MixedNormParams(2.0, 2.0))
    row("moyal_identity", moyal / probe.norm_l2(), 1.0, 1e-6)
    conj = GaussianConjugation(1)
    gs = stft(apply_conjugation(conj, "forward", probe))
    row("gaussian_stft_l2_gamma_rel_err",
        _l2_gamma_rel_err(mixed_norm(gs, 0.0, None, MixedNormParams(2.0, 2.0)), conj, probe),
        0.0, _L2_GAMMA_TOL)

    u0 = FieldSample(grid, 0.05 * np.asarray(dec.eigenfunction(0).values))
    spec = NonlinearProblemSpec(dec, u0, coupling=0.0)
    traj = picard_solve(spec, 0.05, 5e-3, tol=1e-9)
    lin = heat_semigroup(SemigroupQuery(dec, 1.0, 0.05), u0)
    gap = float(np.max(np.abs(dec.reconstruct(traj.final_coeffs).values - lin.values)))
    row("picard_linear_consistency", gap, 0.0, 1e-9)

    rt = apply_conjugation(conj, "inverse", apply_conjugation(conj, "forward", probe))
    inside = np.linalg.norm(grid.nodes(), axis=1) <= conj.safe_radius
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
    if isinstance(value, bool):
        return str(int(value))
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


def run_manifest(path, out_dir=None, fmt=None, seed=None, verbose=False,
                 expect_kind=None):
    """Execute a manifest file; returns (exit_code, ReportRecord or None)."""
    try:
        manifest = load_manifest(path)
        if expect_kind is not None and manifest["kind"] != expect_kind:
            raise SchemaError(
                f"manifest kind {manifest['kind']!r} does not match the "
                f"{expect_kind!r} command", field="kind")
        effective_seed = seed if seed is not None else manifest.get("seed", _DEFAULT_SEED)
        effective_fmt = fmt or manifest.get("format", "both")
        effective_out = out_dir or manifest.get("output_dir", "out")
        record = ReportRecord(
            manifest_hash=_canonical_hash(manifest, effective_seed),
            version=__version__, kind=manifest["kind"], seed=effective_seed)

        started = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _RUNNERS[manifest["kind"]](manifest, effective_seed, record)
        # backstop for a run that adds no row (empty selections exit 2 earlier)
        _require(record.results, "the manifest selects no checks", "params")
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
        # SchemaError, or a manifest value that a runner's own checks reject
        field = getattr(exc, "field", None)
        print(f"schema error: {exc}" + (f" (field: {field})" if field else ""),
              file=sys.stderr)
        return EXIT_SCHEMA, None
    except NumericalError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if getattr(exc, "diagnostics", None):
            payload["diagnostics"] = exc.diagnostics
        if getattr(exc, "suggested_radius", None) is not None:
            payload["suggested_radius"] = exc.suggested_radius
        print(f"numerical failure: {json.dumps(payload, sort_keys=True)}", file=sys.stderr)
        return EXIT_NUMERICAL, None
    record.wall_time_s = time.perf_counter() - started

    try:
        _write_report_json(record, effective_out)
        if effective_fmt in ("csv", "both"):
            emit_plot_data(record, effective_out)
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

    temp_path = None
    if args.config is None:
        if args.command != "selftest":
            print("--config is required for this command", file=sys.stderr)
            return EXIT_SCHEMA
        import tempfile
        manifest = {"schema": 1, "kind": "selftest", "seed": _DEFAULT_SEED}
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            json.dump(manifest, fh)
            temp_path = fh.name

    try:
        code, record = run_manifest(temp_path or args.config, out_dir=args.out,
                                    fmt=args.format, seed=args.seed,
                                    verbose=args.verbose, expect_kind=args.command)
    finally:
        if temp_path is not None:
            os.remove(temp_path)
    if record is not None and not args.verbose:
        status = "ok" if record.all_passed() else "CHECKS FAILED"
        print(f"{record.kind}: {len(record.results)} checks, {status}")
    return code


if __name__ == "__main__":
    sys.exit(main())
