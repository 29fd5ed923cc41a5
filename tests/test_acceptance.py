"""Headline quantitative gate.

One test per claim the package is sold on, each at its stated tolerance,
so `pytest tests/test_acceptance.py -v` reads as a pass/fail scorecard.
Slow-ish end-to-end runs live here on purpose; unit-level coverage is in
the per-module files.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import anharmonic as ah
from anharmonic import INF
from anharmonic.cli import EXIT_OK, run_manifest
from oracles import assert_rows_judge_themselves

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def run_config(name, tmp_path, fmt="json"):
    code, record = run_manifest(str(CONFIG_DIR / name), out_dir=str(tmp_path / "out"),
                                fmt=fmt)
    assert record is not None, f"{name} did not produce a report"
    assert_rows_judge_themselves(record.results)
    return code, record


def rows_by_name(record):
    return {r["name"]: r for r in record.results}


@pytest.mark.parametrize("name", ["selftest.json", "decay.json", "norms.json"])
def test_every_verdict_follows_from_its_row(name, tmp_path):
    """The configs no other acceptance test runs: each row's deviation and
    verdict are recomputed from its own numbers (``run_config`` checks every
    report it returns), and every row passes."""
    code, record = run_config(name, tmp_path)
    assert code == EXIT_OK and record.all_passed()


def test_harmonic_eigenvalues_match_odd_integers(hermite_dec):
    """lambda_j = 2j+1 for j <= 20, within 1e-6 relative, at 512 points on
    half-width 12."""
    j = np.arange(21)
    exact = 2.0 * j + 1.0
    rel = np.abs(hermite_dec.eigenvalues[:21] - exact) / exact
    assert float(rel.max()) <= 1e-6


def test_eigenvalue_growth_exponent_fits_degree_prediction():
    """lambda_j matches the Bohr-Sommerfeld level (2 pi (j + 1/2) / C)^(2kl/(k+l))
    within 1e-4 relative over j in [30, 150] for (2, 1) and (1, 2), and
    within 1e-10 for (1, 1), whose levels are 2j + 1. A bound that tight
    implies the growth exponent 2kl/(k+l)."""
    for k, l, half_width, bound in ((1, 1, 25.0, 1e-10), (2, 1, 12.0, 1e-4),
                                    (1, 2, 60.0, 1e-4)):
        osc = ah.OscillatorSpec(k, l)
        dec = ah.decompose(osc, ah.Grid(512, half_width), 384)
        assert ah.growth_target(osc) == pytest.approx(2.0 * k * l / (k + l), rel=1e-12)
        j = np.arange(30, 151)
        err = np.max(np.abs(dec.eigenvalues[j] / ah.bohr_sommerfeld_eigenvalues(osc, j) - 1.0))
        assert err <= bound, f"(k={k}, l={l}): Bohr-Sommerfeld error {err:.3g}"


def test_short_time_smoothing_exponents():
    """Decay slope of the scaled weight quotient over t in [1e-3, 1e-1]
    matches -(1/(2 beta))(1/(k p~) + 1/(l q~)) within 10%, R^2 >= 0.98."""
    cases = (
        (1, 1, 1.0, 1.0, 1.0, 1.0),
        (2, 1, 1.0, 2.0, 2.0, 0.375),
        (1, 2, 2.0, 2.0, INF, 0.125),
    )
    for k, l, beta, p_t, q_t, sigma in cases:
        params = ah.WeightQuotientParams(ah.OscillatorSpec(k, l), p_tilde=p_t, q_tilde=q_t,
                                         beta=beta)
        _, fit = ah.smoothing_decay_run(params)
        assert fit.target == pytest.approx(-sigma, rel=1e-12)
        assert abs(fit.slope - fit.target) / abs(fit.target) <= 0.10, (
            f"(k={k}, l={l}, beta={beta}): slope {fit.slope:.4f} vs -{sigma}")
        assert fit.r_squared >= 0.98


# the high modes reach ~1e-5 of peak at the box edge, which trips the
# advisory boundary check but sits far below the 1e-6 identity tolerance
@pytest.mark.filterwarnings("ignore::anharmonic.errors.BoundaryMassWarning")
def test_flat_l2_phase_space_norm_matches_plancherel(hermite_dec):
    """Unweighted p=q=2 phase-space norm equals the plain L2 norm within
    1e-6 relative on 20 random fields spanned by the first 50 modes."""
    rng = np.random.default_rng(1234)
    params = ah.MixedNormParams(2.0, 2.0)
    band = min(50, hermite_dec.m)
    worst = 0.0
    for _ in range(20):
        coeffs = np.zeros(hermite_dec.m, dtype=complex)
        coeffs[:band] = rng.standard_normal(band) + 1j * rng.standard_normal(band)
        f = hermite_dec.reconstruct(coeffs)
        val = ah.modulation_norm(f, 0.0, None, params)
        worst = max(worst, abs(val - f.norm_l2()) / f.norm_l2())
    assert worst <= 1e-6


def test_spectral_phase_space_equivalence_band(hermite_dec, hermite_dec_fine):
    """Spectral-norm to phase-space-norm ratio over the 50-probe family
    spans at most a factor 20 for s in {0, 1, 2}, and the recorded band
    moves under grid doubling by at most 5%."""
    s_values = (0.0, 1.0, 2.0)
    bands = ah.sobolev_modulation_equivalence(
        hermite_dec, s_values, ah.standard_probe_family(hermite_dec))
    fines = ah.sobolev_modulation_equivalence(
        hermite_dec_fine, s_values, ah.standard_probe_family(hermite_dec_fine))
    for s, band, fine in zip(s_values, bands, fines, strict=True):
        assert band.count == 50
        assert band.spread <= 20.0, f"s={s}: spread {band.spread:.2f}"
        assert abs(fine.spread - band.spread) / band.spread <= 0.05, (
            f"s={s}: spread {band.spread:.4f} -> {fine.spread:.4f}")


def test_pointwise_product_norm_ratio_stable(hermite_osc):
    """norm(fg) / (norm(f) norm(g)) at s=2, p=q=2 has a finite maximum over
    the 100-pair corpus, stable within 5% under grid doubling."""
    params = ah.MixedNormParams(2.0, 2.0)

    def max_ratio(grid):
        fields = ah.gaussian_probe_fields(grid, 15, 1235)
        pairs = [(i, j) for i in range(15) for j in range(i, 15)][:100]
        ratios = ah.algebra_ratios(fields, pairs, params, 2.0, hermite_osc)
        assert all(np.isfinite(r) for r in ratios)
        return max(ratios)

    coarse = max_ratio(ah.Grid(512, 12.0))
    fine = max_ratio(ah.Grid(1024, 12.0))
    assert abs(fine - coarse) / coarse <= 0.05, f"{coarse:.6f} -> {fine:.6f}"


def test_singular_weight_truncation_markers(hermite_grid, hermite_osc):
    """|x|^{-1/2} factor at s=0.1: the p=q=3 norm moves under domain
    doubling by under 2%, while dropping q to 1.5 makes the frequency-tail
    contribution grow by over 25% on doubling."""
    admissible = ah.singular_weight_norm(0.5, ah.MixedNormParams(3.0, 3.0), 0.1, 6.0,
                                         grid=hermite_grid, osc=hermite_osc)
    assert admissible.x_growth < 0.02, f"admissible growth {admissible.x_growth:.4f}"
    bad = ah.singular_weight_norm(0.5, ah.MixedNormParams(3.0, 1.5), 0.1, 6.0,
                                  grid=hermite_grid, osc=hermite_osc)
    assert bad.xi_tail_growth > 0.25, f"inadmissible growth {bad.xi_tail_growth:.4f}"


def test_small_data_picard_wellposedness(tmp_path):
    """Defocusing cubic-free (nu=1) problem at initial size 0.05: Picard
    contracts (factor <= 0.5 per window), the monitored norm stays under
    twice the initial size up to T=5 (and so does its certified bound at
    every step, within 1.6 times the measured sup), the integral-equation
    residual stays under 1e-4 of scale, and the independent exponential
    integrator agrees within 10 dt scale at dt = 1e-3."""
    manifest = json.loads((CONFIG_DIR / "nlheat_power.json").read_text())
    initial = manifest["params"]["initial_norm"]
    etd_dt = manifest["params"]["etd"]["dt"]
    code, record = run_config("nlheat_power.json", tmp_path)
    rows = rows_by_name(record)
    scale = rows["sup_monitored_norm"]["value"]
    assert rows["picard_max_contraction"]["value"] <= 0.5
    assert scale <= 2.0 * initial
    assert scale <= rows["sup_monitored_bound"]["value"] <= min(1.6 * scale, 2.0 * initial)
    assert rows["duhamel_residual"]["value"] <= 1e-4 * scale
    assert rows["picard_etd_gap"]["value"] <= 10.0 * etd_dt * scale
    assert code == EXIT_OK


def test_inhomogeneous_nonlinearity_runs_globally(tmp_path):
    """The |x|^{-0.2}-weighted nonlinearity with the admissible monitor
    triple from the recorded config runs to T=5 with bounded monitored norm
    (certified at every step within 1.6 times the measured sup) and
    residual under 1e-4 of scale."""
    manifest = json.loads((CONFIG_DIR / "nlheat_inhomogeneous.json").read_text())
    initial = manifest["params"]["initial_norm"]
    assert manifest["params"]["horizon"] == 5.0
    code, record = run_config("nlheat_inhomogeneous.json", tmp_path)
    rows = rows_by_name(record)
    scale = rows["sup_monitored_norm"]["value"]
    assert rows["picard_max_contraction"]["value"] <= 0.5
    assert scale <= 2.0 * initial
    assert scale <= rows["sup_monitored_bound"]["value"] <= min(1.6 * scale, 2.0 * initial)
    assert rows["duhamel_residual"]["value"] <= 1e-4 * scale
    assert code == EXIT_OK


def test_gaussian_conjugated_semigroup_checks(tmp_path):
    """Conjugated semigroup on the constant field matches exp(-t) on
    |x| <= 6 within 1e-6; the norm of the multiplied field equals the
    L^2(gamma) norm of the probe to 1e-9 relative; the probe decay rate
    lands within 5% of -1."""
    code, record = run_config("ou.json", tmp_path)
    rows = rows_by_name(record)
    assert rows["ou_constant_field_err"]["value"] <= 1e-6
    assert rows["gaussian_norm_l2_gamma_rel_err"]["value"] <= 1e-9
    assert rows["ou_longtime_rate"]["target"] == pytest.approx(-1.0, rel=1e-12)
    assert rows["ou_longtime_rate"]["deviation"] <= 0.05
    assert code == EXIT_OK


def test_manifest_rerun_is_byte_identical(tmp_path):
    """Same manifest, same seed, two runs: every emitted CSV matches byte
    for byte."""
    code1, _ = run_config("spectrum.json", tmp_path / "r1", fmt="both")
    code2, _ = run_config("spectrum.json", tmp_path / "r2", fmt="both")
    assert code1 == EXIT_OK and code2 == EXIT_OK
    first = sorted((tmp_path / "r1" / "out").glob("*.csv"))
    second = sorted((tmp_path / "r2" / "out").glob("*.csv"))
    assert [p.name for p in first] == [p.name for p in second]
    assert len(first) >= 1
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), f"{a.name} differs between runs"
