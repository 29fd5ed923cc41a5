import json
import os
import tempfile

import numpy as np
import pytest

import anharmonic.cli
from anharmonic import SchemaError
from anharmonic.cli import (EXIT_CHECK_FAILED, EXIT_NUMERICAL, EXIT_OK, EXIT_SCHEMA,
                            EXIT_WRITE, ReportRecord, _canonical_hash, _format_cell,
                            emit_plot_data, load_manifest, main, run_manifest,
                            validate_manifest)


def write_manifest(tmp_path, payload, name="manifest.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def selftest_manifest():
    return {"schema": 1, "kind": "selftest", "seed": 1234}


def small_spectrum_manifest(tolerance=0.10):
    return {
        "schema": 1,
        "kind": "spectrum",
        "seed": 7,
        "format": "both",
        "params": {"cases": [{"k": 1, "l": 1, "points": 256, "half_width": 25.0,
                              "j_lo": 30, "j_hi": 50, "tolerance": tolerance}]},
    }


class TestValidateManifest:
    def test_accepts_minimal(self):
        validate_manifest({"schema": 1, "kind": "selftest"})

    def test_schema_field(self):
        with pytest.raises(SchemaError) as exc:
            validate_manifest({"kind": "selftest"})
        assert exc.value.field == "schema"
        with pytest.raises(SchemaError):
            validate_manifest({"schema": 2, "kind": "selftest"})

    def test_kind_field(self):
        with pytest.raises(SchemaError) as exc:
            validate_manifest({"schema": 1, "kind": "benchmark"})
        assert exc.value.field == "kind"
        with pytest.raises(SchemaError):
            validate_manifest({"schema": 1})

    def test_seed_bounds_and_type(self):
        with pytest.raises(SchemaError):
            validate_manifest({"schema": 1, "kind": "selftest", "seed": -1})
        with pytest.raises(SchemaError):
            validate_manifest({"schema": 1, "kind": "selftest", "seed": 2 ** 64})
        with pytest.raises(SchemaError):
            validate_manifest({"schema": 1, "kind": "selftest", "seed": "abc"})

    def test_format_field(self):
        with pytest.raises(SchemaError) as exc:
            validate_manifest({"schema": 1, "kind": "selftest", "format": "xml"})
        assert exc.value.field == "format"

    def test_unknown_fields_rejected(self):
        with pytest.raises(SchemaError) as exc:
            validate_manifest({"schema": 1, "kind": "selftest", "extra": 1})
        assert "extra" in str(exc.value)

    def test_block_types(self):
        with pytest.raises(SchemaError):
            validate_manifest({"schema": 1, "kind": "ou", "grid": []})
        with pytest.raises(SchemaError):
            validate_manifest({"schema": 1, "kind": "ou", "oscillator": 3})


class TestLoadManifest:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            load_manifest(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError) as exc:
            load_manifest(path)
        assert "line" in str(exc.value)


class TestCanonicalHash:
    def test_seed_sensitive_and_order_insensitive(self):
        a = {"schema": 1, "kind": "selftest", "params": {"x": 1, "y": 2}}
        b = {"params": {"y": 2, "x": 1}, "kind": "selftest", "schema": 1}
        assert _canonical_hash(a, 5) == _canonical_hash(b, 5)
        assert _canonical_hash(a, 5) != _canonical_hash(a, 6)


class TestFormatCell:
    def test_values(self):
        assert _format_cell(True) == "1"
        assert _format_cell(False) == "0"
        assert _format_cell(7) == "7"
        assert _format_cell(np.int64(7)) == "7"
        assert _format_cell(0.1) == repr(0.1)
        assert _format_cell(np.float64(0.1)) == repr(0.1)
        assert _format_cell("x") == "x"


class TestEmitPlotData:
    def test_empty_record_warns_and_writes_nothing(self, tmp_path):
        record = ReportRecord("h", "0", "selftest", 1)
        with pytest.warns(UserWarning):
            paths = emit_plot_data(record, tmp_path / "out")
        assert paths == []
        assert not (tmp_path / "out").exists()

    def test_one_csv_per_series_sorted(self, tmp_path):
        record = ReportRecord("h", "0", "selftest", 1)
        record.series["zeta"] = {"header": ["a", "b"], "rows": [[1, 2.5]]}
        record.series["alpha"] = {"header": ["x"], "rows": [[True]]}
        paths = emit_plot_data(record, tmp_path / "out")
        assert [os.path.basename(p) for p in paths] == ["alpha.csv", "zeta.csv"]
        assert (tmp_path / "out" / "zeta.csv").read_text() == "a,b\n1,2.5\n"
        assert (tmp_path / "out" / "alpha.csv").read_text() == "x\n1\n"


class TestRunManifest:
    def test_selftest_passes(self, tmp_path):
        path = write_manifest(tmp_path, selftest_manifest())
        code, record = run_manifest(path, out_dir=str(tmp_path / "out"))
        assert code == EXIT_OK
        assert record.all_passed()
        assert len(record.results) >= 15
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["schema"] == 1
        assert report["all_passed"] is True
        assert report["kind"] == "selftest"

    def test_every_row_carries_numeric_deviation_and_tolerance(self, tmp_path):
        path = write_manifest(tmp_path, selftest_manifest())
        _, record = run_manifest(path, out_dir=str(tmp_path / "out"))
        for row in record.results:
            assert set(row) == {"name", "value", "target", "deviation",
                                "tolerance", "passed"}
            assert np.isfinite(row["deviation"])
            assert np.isfinite(row["tolerance"])

    def test_kind_mismatch_is_schema_error(self, tmp_path, capsys):
        path = write_manifest(tmp_path, selftest_manifest())
        code, record = run_manifest(path, out_dir=str(tmp_path / "out"),
                                    expect_kind="nlheat")
        assert code == EXIT_SCHEMA and record is None
        assert "does not match" in capsys.readouterr().err

    def test_invalid_manifest_exits_schema(self, tmp_path, capsys):
        path = write_manifest(tmp_path, {"schema": 1, "kind": "nope"})
        code, record = run_manifest(path)
        assert code == EXIT_SCHEMA and record is None
        assert "schema error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,params,detail", [
        ("nlheat", {"dt": 0.02, "modes": 16, "horizon": 0.04}, ""),
        ("decay", {"radius": "thirty"}, ""),
        ("ou", {"modes": 16, "gauss_probes": 2, "rate_t_list": [1.0, 2.0]}, ""),
        ("nlheat", {"initial_norm": 0.0, "modes": 16, "horizon": 0.01}, ""),
        ("nlheat", {"initial_norm": -0.05, "modes": 16, "horizon": 0.01}, ""),
        ("nlheat", {"initial_norm": float("nan"), "modes": 16, "horizon": 0.01}, ""),
        ("nlheat", {"initial_norm": float("inf"), "modes": 16, "horizon": 0.01}, ""),
        ("nlheat", {"tol": float("nan"), "modes": 16, "horizon": 0.01}, ""),
        ("nlheat", {"coupling_re": float("nan"), "modes": 16, "horizon": 0.01}, ""),
        ("nlheat", {"kind": "inhomogeneous", "alpha": float("nan"), "modes": 16,
                    "horizon": 0.01}, ""),
        ("decay", {"resolution": 255}, ""),
        ("ou", {"modes": 48, "gauss_probes": 3, "rate_t_list": [1, 1, 1]}, ""),
        ("ou", {"modes": 48, "gauss_probes": 3, "rate_t_list": [1, 1, 2]}, ""),
        ("decay", {"resolution": 256,
                   "tuples": [{"k": 1, "l": 1, "p_tilde": "inf", "q_tilde": "inf"}]},
         "both gaps infinite, so sigma = 0 and there is no decay slope to check "
         "(field: params.tuples)"),
        ("norms", {"checks": ["moyall"], "modes": 16}, "unknown norms checks ['moyall']"),
        ("norms", {"checks": [], "modes": 16}, "selects no checks (field: params)"),
        ("spectrum", {"cases": []}, "selects no checks (field: params)"),
        ("decay", {"tuples": []}, "selects no checks (field: params)"),
        ("nlheat", {"monitor": [2.0, 1.0, float("nan")], "modes": 16, "horizon": 0.01},
         "weight exponent must be finite"),
    ], ids=["nlheat_dt", "decay_radius", "ou_rate_t_list", "nlheat_initial_norm_zero",
            "nlheat_initial_norm_negative", "nlheat_initial_norm_nan",
            "nlheat_initial_norm_inf", "nlheat_tol_nan", "nlheat_coupling_nan",
            "nlheat_alpha_nan", "decay_resolution_odd", "ou_rate_t_list_repeated",
            "ou_rate_t_list_two_distinct", "decay_sigma_zero", "norms_unknown_check",
            "norms_no_checks", "spectrum_no_cases", "decay_no_tuples",
            "nlheat_monitor_s_nan"])
    def test_rejected_value_exits_schema(self, tmp_path, capsys, kind, params, detail):
        """A value the runner's own checks reject (ValueError) is a manifest
        problem: exit 2 with a schema-error line, not a traceback. ``detail``,
        where given, is the end of that line: the message and the field."""
        manifest = {"schema": 1, "kind": kind, "params": params,
                    "grid": {"dimension": 1, "points_per_axis": 64, "half_width": 8.0}}
        path = write_manifest(tmp_path, manifest)
        code, record = run_manifest(path, out_dir=str(tmp_path / "out"))
        assert code == EXIT_SCHEMA and record is None
        err = capsys.readouterr().err
        assert "schema error" in err
        assert detail in err

    def test_decay_validates_every_tuple_before_running_any(self, tmp_path, monkeypatch):
        """A valid tuple followed by a sigma = 0 tuple is rejected before the
        valid one runs."""
        calls = []
        original = anharmonic.cli.smoothing_decay_run

        def counted(params):
            calls.append(params)
            return original(params)

        monkeypatch.setattr(anharmonic.cli, "smoothing_decay_run", counted)
        manifest = {"schema": 1, "kind": "decay",
                    "params": {"resolution": 256,
                               "tuples": [{"k": 1, "l": 1},
                                          {"k": 1, "l": 1, "p_tilde": "inf",
                                           "q_tilde": "inf"}]}}
        path = write_manifest(tmp_path, manifest)
        code, record = run_manifest(path, out_dir=str(tmp_path / "out"))
        assert code == EXIT_SCHEMA and record is None
        assert calls == []

    def test_picard_gaps_raise_no_boundary_warning(self, tmp_path):
        """Near convergence a Picard gap (the difference of two iterates) is
        round-off noise; only measured states get the boundary-mass check."""
        manifest = {"schema": 1, "kind": "nlheat", "seed": 1,
                    "grid": {"dimension": 1, "points_per_axis": 128, "half_width": 12.0},
                    "params": {"kind": "inhomogeneous", "alpha": 0.2,
                               "monitor": [6.0, 2.0, 0.02], "horizon": 0.02,
                               "dt": 0.005, "modes": 48}}
        path = write_manifest(tmp_path, manifest)
        code, record = run_manifest(path, out_dir=str(tmp_path / "out"))
        assert code == EXIT_OK
        assert "BoundaryMassWarning" not in [w["category"] for w in record.warnings]

    def test_write_failure_exits_write(self, tmp_path):
        path = write_manifest(tmp_path, selftest_manifest())
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code, record = run_manifest(path, out_dir=str(blocker))
        assert code == EXIT_WRITE and record is None

    def test_truncation_failure_exits_numerical(self, tmp_path, capsys):
        manifest = {
            "schema": 1, "kind": "decay",
            "params": {"tuples": [{"k": 1, "l": 1}], "radius": 0.5,
                       "resolution": 64,
                       "t_list": [1.0, 0.6, 0.36, 0.2, 0.1, 0.03]},
        }
        path = write_manifest(tmp_path, manifest)
        code, record = run_manifest(path, out_dir=str(tmp_path / "out"))
        assert code == EXIT_NUMERICAL and record is None
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "suggested_radius" in err

    def test_non_finite_quotient_exits_numerical(self, tmp_path, capsys):
        """The literal quotient with s2 = 120 overflows to inf / inf on the
        guard lattice; that is a numerical failure, not a checked value."""
        manifest = {
            "schema": 1, "kind": "decay",
            "params": {"form": "weighted", "resolution": 256,
                       "tuples": [{"k": 1, "l": 1, "s2": 120.0}]},
        }
        path = write_manifest(tmp_path, manifest)
        code, record = run_manifest(path, out_dir=str(tmp_path / "out"))
        assert code == EXIT_NUMERICAL and record is None
        err = capsys.readouterr().err
        assert "numerical failure" in err and "NumericalError" in err

    def test_overflowing_potential_exits_numerical(self, tmp_path, capsys):
        """A coefficient of 1e308 is a finite, valid spec whose nodal potential
        overflows to inf: a numerical failure, caught before the eigensolver."""
        manifest = {"schema": 1, "kind": "norms",
                    "grid": {"dimension": 1, "points_per_axis": 64, "half_width": 8.0},
                    "oscillator": {"dimension": 1, "l": 1,
                                   "potential": {"kind": "aniso_sum", "degree_half": 1,
                                                 "coefficients": [1e308]}},
                    "params": {"checks": ["moyal"], "modes": 16}}
        path = write_manifest(tmp_path, manifest)
        code, record = run_manifest(path, out_dir=str(tmp_path / "out"))
        assert code == EXIT_NUMERICAL and record is None
        err = capsys.readouterr().err
        assert "numerical failure" in err and "nodal potential" in err

    def test_failing_check_exits_one(self, tmp_path):
        path = write_manifest(tmp_path, small_spectrum_manifest(tolerance=1e-9))
        code, record = run_manifest(path, out_dir=str(tmp_path / "out"))
        assert code == EXIT_CHECK_FAILED
        assert record is not None and not record.all_passed()

    def test_seed_override_changes_hash(self, tmp_path):
        path = write_manifest(tmp_path, selftest_manifest())
        _, a = run_manifest(path, out_dir=str(tmp_path / "a"))
        _, b = run_manifest(path, out_dir=str(tmp_path / "b"), seed=99)
        assert a.seed == 1234 and b.seed == 99
        assert a.manifest_hash != b.manifest_hash

    def test_rerun_is_byte_identical_on_series(self, tmp_path):
        path = write_manifest(tmp_path, small_spectrum_manifest())
        code1, _ = run_manifest(path, out_dir=str(tmp_path / "r1"))
        code2, _ = run_manifest(path, out_dir=str(tmp_path / "r2"))
        assert code1 == EXIT_OK and code2 == EXIT_OK
        csv1 = (tmp_path / "r1" / "spectrum_k1_l1.csv").read_bytes()
        csv2 = (tmp_path / "r2" / "spectrum_k1_l1.csv").read_bytes()
        assert csv1 == csv2
        r1 = json.loads((tmp_path / "r1" / "report.json").read_text())
        r2 = json.loads((tmp_path / "r2" / "report.json").read_text())
        assert r1["results"] == r2["results"]
        assert r1["manifest_hash"] == r2["manifest_hash"]

    def test_nlheat_rerun_is_byte_identical(self, tmp_path):
        """The Picard run, its Duhamel residual and the ETD cross-check give the
        same CSV bytes and report values on a rerun."""
        manifest = {"schema": 1, "kind": "nlheat", "seed": 3, "format": "both",
                    "grid": {"dimension": 1, "points_per_axis": 128, "half_width": 12.0},
                    "params": {"modes": 48, "horizon": 0.02, "dt": 0.005,
                               "etd": {"horizon": 0.01, "dt": 0.001, "order": 2}}}
        path = write_manifest(tmp_path, manifest)
        code1, _ = run_manifest(path, out_dir=str(tmp_path / "r1"))
        code2, _ = run_manifest(path, out_dir=str(tmp_path / "r2"))
        assert code1 == EXIT_OK and code2 == EXIT_OK
        first = sorted((tmp_path / "r1").glob("*.csv"))
        assert [p.name for p in first] == ["trajectory.csv"]
        for a in first:
            assert a.read_bytes() == (tmp_path / "r2" / a.name).read_bytes()
        r1 = json.loads((tmp_path / "r1" / "report.json").read_text())
        r2 = json.loads((tmp_path / "r2" / "report.json").read_text())
        assert "picard_etd_gap" in [row["name"] for row in r1["results"]]
        assert r1["results"] == r2["results"]

    def test_norms_rerun_is_identical(self, tmp_path):
        """All four norms checks on a 128-point grid give the same report
        values on a rerun (the runner writes no CSV)."""
        manifest = {"schema": 1, "kind": "norms", "seed": 11, "format": "both",
                    "grid": {"dimension": 1, "points_per_axis": 128, "half_width": 6.0},
                    "params": {"checks": ["moyal", "equivalence", "algebra", "singular"]}}
        path = write_manifest(tmp_path, manifest)
        code1, _ = run_manifest(path, out_dir=str(tmp_path / "r1"))
        code2, _ = run_manifest(path, out_dir=str(tmp_path / "r2"))
        assert code1 == EXIT_OK and code2 == EXIT_OK
        r1 = json.loads((tmp_path / "r1" / "report.json").read_text())
        r2 = json.loads((tmp_path / "r2" / "report.json").read_text())
        assert len(r1["results"]) == 7
        assert r1["results"] == r2["results"]

    def test_ou_rerun_is_byte_identical(self, tmp_path):
        manifest = {"schema": 1, "kind": "ou", "seed": 11, "format": "both",
                    "grid": {"dimension": 1, "points_per_axis": 128, "half_width": 12.0},
                    "params": {"modes": 48, "gauss_probes": 3}}
        path = write_manifest(tmp_path, manifest)
        code1, _ = run_manifest(path, out_dir=str(tmp_path / "r1"))
        code2, _ = run_manifest(path, out_dir=str(tmp_path / "r2"))
        assert code1 == EXIT_OK and code2 == EXIT_OK
        first = sorted((tmp_path / "r1").glob("*.csv"))
        assert [p.name for p in first] == ["ou_rate.csv"]
        assert first[0].read_bytes() == (tmp_path / "r2" / "ou_rate.csv").read_bytes()
        r1 = json.loads((tmp_path / "r1" / "report.json").read_text())
        r2 = json.loads((tmp_path / "r2" / "report.json").read_text())
        assert r1["results"] == r2["results"]

    def test_decay_rerun_is_byte_identical(self, tmp_path):
        manifest = {"schema": 1, "kind": "decay", "seed": 5, "format": "both",
                    "params": {"resolution": 256, "tuples": [
                        {"k": 1, "l": 1},
                        {"k": 1, "l": 2, "beta": 2.0, "p_tilde": 2.0, "q_tilde": "inf"}]}}
        path = write_manifest(tmp_path, manifest)
        code1, _ = run_manifest(path, out_dir=str(tmp_path / "r1"))
        code2, _ = run_manifest(path, out_dir=str(tmp_path / "r2"))
        assert code1 == EXIT_OK and code2 == EXIT_OK
        first = sorted((tmp_path / "r1").glob("*.csv"))
        assert [p.name for p in first] == ["decay_k1_l1_b1.csv", "decay_k1_l2_b2.csv"]
        for a in first:
            assert a.read_bytes() == (tmp_path / "r2" / a.name).read_bytes()
        r1 = json.loads((tmp_path / "r1" / "report.json").read_text())
        r2 = json.loads((tmp_path / "r2" / "report.json").read_text())
        assert r1["results"] == r2["results"]

    def test_selftest_rerun_is_identical(self, tmp_path):
        path = write_manifest(tmp_path, selftest_manifest())
        code1, _ = run_manifest(path, out_dir=str(tmp_path / "r1"))
        code2, _ = run_manifest(path, out_dir=str(tmp_path / "r2"))
        assert code1 == EXIT_OK and code2 == EXIT_OK
        r1 = json.loads((tmp_path / "r1" / "report.json").read_text())
        r2 = json.loads((tmp_path / "r2" / "report.json").read_text())
        assert len(r1["results"]) == 15
        assert r1["results"] == r2["results"]

    def test_underflowing_probe_bound_exits_numerical(self, tmp_path, capsys):
        """At t = 800 the OU probe bound underflows to 0: the rate fit would
        take log 0, so the run is a numerical failure, not a NaN check."""
        manifest = {"schema": 1, "kind": "ou", "seed": 11, "format": "both",
                    "grid": {"dimension": 1, "points_per_axis": 128, "half_width": 12.0},
                    "params": {"modes": 48, "gauss_probes": 3,
                               "rate_t_list": [1, 2, 800]}}
        path = write_manifest(tmp_path, manifest)
        code, record = run_manifest(path, out_dir=str(tmp_path / "out"))
        assert code == EXIT_NUMERICAL and record is None
        err = capsys.readouterr().err
        assert "numerical failure" in err and "NumericalError" in err

    def test_spectrum_names_carry_dimension(self, tmp_path):
        """A d = 1 and a d = 2 case of the same (k, l) give distinct rows and
        write both series; the d = 1 names keep no suffix."""
        cases = [{"k": 1, "l": 1, "points": 128, "modes": 120, "j_lo": 20, "j_hi": 40},
                 {"k": 1, "l": 1, "dimension": 2, "points": 16, "half_width": 8.0,
                  "modes": 120, "j_lo": 20, "j_hi": 40}]
        manifest = {"schema": 1, "kind": "spectrum", "seed": 7, "format": "both",
                    "params": {"cases": cases}}
        path = write_manifest(tmp_path, manifest)
        out = tmp_path / "out"
        _, record = run_manifest(path, out_dir=str(out))
        names = [r["name"] for r in record.results if r["name"].startswith("growth_slope")]
        assert names == ["growth_slope_k1_l1", "growth_slope_k1_l1_d2"]
        assert sorted(p.name for p in out.glob("*.csv")) == ["spectrum_k1_l1.csv",
                                                            "spectrum_k1_l1_d2.csv"]

    def test_json_only_format_skips_csv(self, tmp_path):
        path = write_manifest(tmp_path, small_spectrum_manifest())
        code, _ = run_manifest(path, out_dir=str(tmp_path / "out"), fmt="json")
        assert code == EXIT_OK
        assert (tmp_path / "out" / "report.json").exists()
        assert not (tmp_path / "out" / "spectrum_k1_l1.csv").exists()


class TestMain:
    def test_selftest_without_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["selftest", "--out", str(tmp_path / "out")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "selftest:" in out and "ok" in out

    def test_selftest_without_config_leaves_no_temp_file(self, tmp_path, monkeypatch):
        temp_dir = tmp_path / "tmp"
        temp_dir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp_dir))
        assert main(["selftest", "--out", str(tmp_path / "out")]) == EXIT_OK
        assert list(temp_dir.iterdir()) == []

    def test_config_required_elsewhere(self, capsys):
        assert main(["ou"]) == EXIT_SCHEMA
        assert "--config is required" in capsys.readouterr().err

    def test_command_kind_mismatch(self, tmp_path, capsys):
        path = write_manifest(tmp_path, selftest_manifest())
        assert main(["ou", "--config", path,
                     "--out", str(tmp_path / "out")]) == EXIT_SCHEMA

    def test_verbose_prints_rows(self, tmp_path, capsys):
        path = write_manifest(tmp_path, selftest_manifest())
        assert main(["selftest", "--config", path, "--out", str(tmp_path / "out"),
                     "--verbose"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[pass]" in out
        assert "tolerance" in out

    def test_seed_flag_threads_through(self, tmp_path):
        path = write_manifest(tmp_path, selftest_manifest())
        out = tmp_path / "out"
        assert main(["selftest", "--config", path, "--out", str(out),
                     "--seed", "42"]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 42
