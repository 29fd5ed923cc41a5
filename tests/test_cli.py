import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import anharmonic.cli
from anharmonic import INF, Grid, OscillatorSpec, SchemaError, hermite_oscillator
from anharmonic.cli import (EXIT_CHECK_FAILED, EXIT_NUMERICAL, EXIT_OK, EXIT_SCHEMA,
                            EXIT_WRITE, ReportRecord, _canonical_hash, _format_cell,
                            emit_plot_data, main, run_manifest,
                            validate_manifest)


GRID_KINDS = ("norms", "nlheat", "ou")  # the kinds that run on the top-level grid


def write_manifest(tmp_path, payload, name="manifest.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def selftest_manifest():
    return {"schema": 1, "kind": "selftest", "seed": 1234}


def small_spectrum_manifest(half_width=25.0):
    return {
        "schema": 1,
        "kind": "spectrum",
        "seed": 7,
        "format": "both",
        "params": {"cases": [{"k": 1, "l": 1, "points": 256, "half_width": half_width,
                              "j_lo": 30, "j_hi": 50, "tolerance": 0.10}]},
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

    @pytest.mark.parametrize("manifest,field", [
        ({"kind": "ou", "grid": {"dimension": 1, "points": 64}}, "grid.points"),
        ({"kind": "nlheat", "params": {"etd": {"order": 2, "stride": 5}}},
         "params.etd.stride"),
        ({"kind": "spectrum", "params": {"cases": [{"k": 1, "l": 1, "jlo": 20}]}},
         "params.cases.jlo"),
        ({"kind": "decay", "params": {"tuples": [{"k": 1, "l": 1, "ptilde": 2.0}]}},
         "params.tuples.ptilde"),
        ({"kind": "selftest", "params": {"modes": 16}}, "params.modes"),
        ({"kind": "norms", "params": {"check": ["moyal"]}}, "params.check"),
    ], ids=["grid", "etd", "case", "tuple", "selftest", "norms"])
    def test_unknown_nested_keys_rejected(self, manifest, field):
        """A key no runner reads would silently take the default."""
        with pytest.raises(SchemaError) as exc:
            validate_manifest({"schema": 1, **manifest})
        assert exc.value.field == field
        assert field in str(exc.value)

    def test_block_types(self):
        with pytest.raises(SchemaError):
            validate_manifest({"schema": 1, "kind": "ou", "grid": []})
        with pytest.raises(SchemaError):
            validate_manifest({"schema": 1, "kind": "ou", "oscillator": 3})

    def test_returns_the_values_runners_read(self):
        run = validate_manifest({"schema": 1, "kind": "nlheat"})
        assert run.grid == Grid() and run.oscillator == hermite_oscillator()
        assert (run.seed, run.format, run.output_dir) == (1234, "both", "out")
        p = run.params
        assert p.monitor == (2.0, 1.0, 2.0) and p.etd is None
        assert (p.kind, p.nu, p.beta, p.coupling, p.alpha) == ("power", 1, 1.0, -1.0, 0.0)

    @pytest.mark.parametrize("kind,points,modes", [
        ("norms", 512, 192), ("norms", 128, 64), ("ou", 512, 256), ("nlheat", 512, 256),
        ("nlheat", 1024, 384)])
    def test_default_modes_follow_the_grid(self, kind, points, modes):
        grid = {"dimension": 1, "points_per_axis": points}
        assert validate_manifest({"schema": 1, "kind": kind, "grid": grid}).params.modes == modes

    @pytest.mark.parametrize("points,modes", [(256, 128), (512, 384), (1024, 512)])
    def test_default_spectrum_modes_follow_the_points(self, points, modes):
        case = {"k": 1, "l": 1, "points": points, "j_lo": 0, "j_hi": 100}
        run = validate_manifest({"schema": 1, "kind": "spectrum", "params": {"cases": [case]}})
        assert run.params.cases[0].modes == modes

    @pytest.mark.parametrize("params,field", [
        ({"modes": 48.0}, "params.modes"), ({"modes": True}, "params.modes"),
        ({"initial_norm": "0.05"}, "params.initial_norm"),
        ({"initial_norm": False}, "params.initial_norm"),
        ({"initial_norm": 10 ** 400}, "params.initial_norm"),
        ({"monitor": [True, 1.0, 2.0]}, "params.monitor"),
        ({"monitor": ["infinite", 1.0, 2.0]}, "params.monitor"),
        ({"etd": None}, "params.etd")])
    def test_types_are_strict(self, params, field):
        """An int is a JSON integer, booleans and strings are never numbers,
        a number must fit a float, and null is no value."""
        with pytest.raises(SchemaError) as exc:
            validate_manifest({"schema": 1, "kind": "nlheat", "params": params})
        assert exc.value.field == field

    def test_floats_take_integers_and_exponents_take_inf(self):
        params = {"initial_norm": 1, "monitor": ["inf", 2, 0]}
        p = validate_manifest({"schema": 1, "kind": "nlheat", "params": params}).params
        assert type(p.initial_norm) is float and p.initial_norm == 1.0
        assert p.monitor[0] is INF and p.monitor[1:] == (2.0, 0.0)

    def test_oscillator_block_only_where_a_run_reads_it(self):
        osc = {"k": 2, "l": 1}
        run = validate_manifest({"schema": 1, "kind": "norms", "oscillator": osc})
        assert run.oscillator == OscillatorSpec(2, 1)
        for kind in ("spectrum", "decay", "ou", "selftest"):
            with pytest.raises(SchemaError) as exc:
                validate_manifest({"schema": 1, "kind": kind, "oscillator": osc})
            assert exc.value.field == "oscillator"

    @pytest.mark.parametrize("kind", ["norms", "nlheat"])
    def test_oscillator_block_or_the_harmonic_default(self, kind):
        """No oscillator block runs the harmonic oscillator; a block {k, l}
        runs OscillatorSpec(k, l)."""
        run = validate_manifest({"schema": 1, "kind": kind})
        assert run.oscillator == hermite_oscillator()
        osc = {"k": 2, "l": 1}
        run = validate_manifest({"schema": 1, "kind": kind, "oscillator": osc})
        assert run.oscillator == OscillatorSpec(2, 1)

    def test_grid_block_only_where_a_run_reads_it(self):
        grid = {"points_per_axis": 64, "half_width": 8.0}
        for kind in GRID_KINDS:
            assert validate_manifest({"schema": 1, "kind": kind}).grid == Grid()
            run = validate_manifest({"schema": 1, "kind": kind, "grid": grid})
            assert run.grid == Grid(64, 8.0)
        for kind in ("spectrum", "decay", "selftest"):
            assert validate_manifest({"schema": 1, "kind": kind}).grid is None
            with pytest.raises(SchemaError, match=f"a {kind} run reads no grid block") as exc:
                validate_manifest({"schema": 1, "kind": kind, "grid": grid})
            assert exc.value.field == "grid"


class TestReadManifest:
    def test_missing_file(self, tmp_path, capsys):
        code, record = run_manifest(tmp_path / "absent.json", out_dir=str(tmp_path / "out"))
        assert code == EXIT_SCHEMA and record is None
        assert "cannot read manifest" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, record = run_manifest(path, out_dir=str(tmp_path / "out"))
        assert code == EXIT_SCHEMA and record is None
        assert "line 1" in capsys.readouterr().err


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
    def test_empty_record_writes_nothing_quietly(self, tmp_path):
        record = ReportRecord("h", "0", "selftest", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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
        assert [r["name"] for r in record.results] == [
            "weight_defect_s1", "gaussian_stft_l2_gamma_rel_err", "picard_linear_consistency",
            "conjugation_roundtrip"]
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["schema"] == 3
        assert report["all_passed"] is True
        assert report["kind"] == "selftest"

    def test_report_records_its_provenance(self, tmp_path, monkeypatch):
        """report.json names the python and numpy versions and the five
        thread variables as found in the environment, unset ones as null."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        run_manifest(selftest_manifest(), out_dir=str(tmp_path / "out"))
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert set(report) == {"schema", "provenance", "manifest_hash", "artifact_version",
                               "kind", "seed", "wall_time_s", "results", "warnings",
                               "series_files", "all_passed"}
        prov = report["provenance"]
        assert set(prov) == {"python", "numpy", "blas_thread_env"}
        assert prov["python"] == platform.python_version()
        assert prov["numpy"] == np.__version__
        assert prov["blas_thread_env"] == {
            name: os.environ.get(name) for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
        assert prov["blas_thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
        assert prov["blas_thread_env"]["MKL_NUM_THREADS"] is None

    def test_every_row_carries_numeric_deviation_and_tolerance(self, tmp_path):
        path = write_manifest(tmp_path, selftest_manifest())
        _, record = run_manifest(path, out_dir=str(tmp_path / "out"))
        for row in record.results:
            assert set(row) == {"name", "kind", "value", "target", "deviation",
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
        ("nlheat", {"coupling_re": float("nan"), "modes": 16, "horizon": 0.01},
         "params.coupling_re must be finite (field: params.coupling_re)"),
        ("nlheat", {"kind": "inhomogeneous", "alpha": float("nan"), "modes": 16,
                    "horizon": 0.01}, ""),
        ("decay", {"resolution": 255},
         "resolution must be an even integer >= 32 (field: params.resolution)"),
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
        ("nlheat", {"horizn": 1.0, "modes": 16, "horizon": 0.01},
         "unknown manifest fields: ['params.horizn'] (field: params.horizn)"),
    ], ids=["nlheat_dt", "decay_radius", "ou_rate_t_list", "nlheat_initial_norm_zero",
            "nlheat_initial_norm_negative", "nlheat_initial_norm_nan",
            "nlheat_initial_norm_inf", "nlheat_tol_nan", "nlheat_coupling_nan",
            "nlheat_alpha_nan", "decay_resolution_odd", "ou_rate_t_list_repeated",
            "ou_rate_t_list_two_distinct", "decay_sigma_zero", "norms_unknown_check",
            "norms_no_checks", "spectrum_no_cases", "decay_no_tuples",
            "nlheat_monitor_s_nan", "nlheat_unknown_key"])
    def test_rejected_value_exits_schema(self, tmp_path, capsys, kind, params, detail):
        """A value the runner's own checks reject (ValueError) is a manifest
        problem: exit 2 with a schema-error line, not a traceback. ``detail``,
        where given, is the end of that line: the message and the field."""
        manifest = {"schema": 1, "kind": kind, "params": params}
        if kind in GRID_KINDS:
            manifest["grid"] = {"dimension": 1, "points_per_axis": 64, "half_width": 8.0}
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

    @pytest.mark.parametrize("kind,params,top,seed,detail", [
        ("nlheat", {"horizon": 0.02, "etd": {"horizon": 0.01, "dt": 0.001, "order": 3}},
         {}, None, "order must be 1 or 2"),
        ("nlheat", {"horizon": 0.02, "etd": {"horizon": 0.0105, "dt": 0.001}},
         {}, None, "horizon must be an integer number of steps"),
        ("nlheat", {"horizon": 0.02, "monitor": [2.0, 1.0, float("inf")]},
         {}, None, "weight exponent must be finite"),
        ("nlheat", {"horizon": 0.02, "tol": 1e-12}, {}, None,
         "tol must be a finite real >= 1e-10"),
        ("nlheat", {"horizon": 0.02, "dt": 0.02}, {}, None,
         "step must satisfy 0 < dt <= 1e-2"),
        ("norms", {"checks": []}, {}, None, "selects no checks (field: params)"),
        # values that int() or float() used to coerce, so the run measured
        # another operator than the manifest names
        ("nlheat", {"horizon": 0.02, "nu": 1.5}, {}, None,
         "field params.nu has wrong type (field: params.nu)"),
        ("nlheat", {"horizon": 0.02, "nu": True}, {}, None, "(field: params.nu)"),
        ("nlheat", {"horizon": 0.02, "modes": 10.9}, {}, None, "(field: params.modes)"),
        ("nlheat", {"horizon": 0.02, "modes": "48"}, {}, None, "(field: params.modes)"),
        ("nlheat", {"horizon": 0.02, "beta": "1"}, {}, None, "(field: params.beta)"),
        ("nlheat", {"horizon": 0.02, "etd": {"horizon": 0.01, "dt": 0.001, "order": 2.7}},
         {}, None, "(field: params.etd.order)"),
        ("nlheat", {"horizon": 0.02, "kind": "power", "alpha": 0.3}, {}, None,
         "alpha is read only by the inhomogeneous kind (field: params.alpha)"),
        ("nlheat", {"horizon": 0.02},
         {"grid": {"dimension": 1, "points_per_axis": 128.6, "half_width": 12.0}}, None,
         "(field: grid.points_per_axis)"),
        ("nlheat", {"horizon": 0.02},
         {"grid": {"dimension": 1, "points_per_axis": 128, "half_width": "10"}}, None,
         "(field: grid.half_width)"),
        ("norms", {"checks": ["moyal"], "modes": 16},
         {"oscillator": {"k": 1, "l": 1, "betta": 2.0}}, None,
         "unknown manifest fields: ['oscillator.betta'] (field: oscillator.betta)"),
        ("norms", {"checks": ["moyal"], "modes": 16},
         {"oscillator": {"k": 1.7, "l": 1}}, None, "(field: oscillator.k)"),
        ("norms", {"checks": ["moyal"], "modes": 16},
         {"oscillator": {"k": 0, "l": 1}}, None,
         "bad oscillator block: k must be a positive integer (field: oscillator)"),
        # the oscillator is H = (-Laplacian)^l + |x|^(2k) alone: beta belongs
        # to each semigroup, the dimension to the grid, and the potential and
        # the weight offset are no keys
        ("norms", {"checks": ["moyal"], "modes": 16},
         {"oscillator": {"k": 1, "l": 1, "beta": 2.0}}, None,
         "unknown manifest fields: ['oscillator.beta'] (field: oscillator.beta)"),
        ("nlheat", {"horizon": 0.02},
         {"oscillator": {"dimension": 1, "k": 1, "l": 1}}, None,
         "unknown manifest fields: ['oscillator.dimension'] (field: oscillator.dimension)"),
        ("norms", {"checks": ["moyal"], "modes": 16},
         {"oscillator": {"l": 1, "potential": {"kind": "iso_power", "degree_half": 1}}},
         None, "unknown manifest fields: ['oscillator.potential'] "
         "(field: oscillator.potential)"),
        ("nlheat", {"horizon": 0.02},
         {"oscillator": {"k": 1, "l": 1, "q1": 2.0}}, None,
         "unknown manifest fields: ['oscillator.q1'] (field: oscillator.q1)"),
        ("spectrum", {"cases": [{"k": True, "l": 1, "points": 256, "j_lo": 20, "j_hi": 45}]},
         {}, None, "(field: params.cases.k)"),
        ("spectrum", {"cases": [{"k": 1, "l": 1, "points": 256, "j_lo": 20, "j_hi": 45,
                                 "tolerance": "0.1"}]}, {}, None,
         "(field: params.cases.tolerance)"),
        ("spectrum", {"cases": [{"k": 1, "l": 1, "points": 256.9, "j_lo": 20, "j_hi": 45}]},
         {}, None, "(field: params.cases.points)"),
        ("spectrum", {"cases": [{"k": 1, "l": 1, "points": 256, "j_lo": 20, "j_hi": 45.5}]},
         {}, None, "(field: params.cases.j_hi)"),
        # the eigenvalue window lies in the retained modes
        ("spectrum", {"cases": [{"k": 1, "l": 1, "points": 256, "j_lo": 30, "j_hi": 128}]},
         {}, None, "spectrum case k=1, l=1: the window [30, 128] must satisfy j_lo <= j_hi "
         "< modes = 128 (field: params.cases.j_hi)"),
        ("spectrum", {"cases": [{"k": 2, "l": 1, "points": 256, "j_lo": 50, "j_hi": 40}]},
         {}, None, "spectrum case k=2, l=1: the window [50, 40] must satisfy j_lo <= j_hi "
         "< modes = 128 (field: params.cases.j_hi)"),
        ("spectrum", {"cases": [{"k": 1, "l": 1, "points": 256, "j_lo": -1, "j_hi": 40}]},
         {}, None, "params.cases.j_lo must be >= 0 (field: params.cases.j_lo)"),
        ("decay", {"resolution": 256, "tuples": [{"k": 1, "l": 1, "beta": "2"}]}, {}, None,
         "(field: params.tuples.beta)"),
        ("decay", {"resolution": 256, "tuples": [{"k": 1, "l": 1, "s2": float("inf")}]}, {},
         None, "s2 must be a finite real >= 0"),
        ("decay", {"resolution": 256, "tuples": [{"k": 1, "l": 1, "s2": float("nan")}]}, {},
         None, "s2 must be a finite real >= 0"),
        ("ou", {"modes": 48, "gauss_probes": 2.9}, {}, None, "(field: params.gauss_probes)"),
        # values that were rejected only after a decomposition
        ("nlheat", {"horizon": 0.02, "kind": "cubic"}, {}, None,
         "unknown nonlinearity kind 'cubic' (field: params.kind)"),
        ("nlheat", {"horizon": 0.02, "nu": 0}, {}, None,
         "nu must be an integer >= 1 (field: params.nu)"),
        ("ou", {"modes": 48, "t_check": 0.5}, {}, None, "(field: params.t_check)"),
        ("ou", {"modes": 48, "t_check": []}, {}, None,
         "params.t_check must list at least one time (field: params.t_check)"),
        ("ou", {"modes": 48, "safe_radius": None}, {}, None, "(field: params.safe_radius)"),
        ("selftest", {}, {"format": "csv"}, None, "format must be one of ('json', 'both') "
         "(field: format)"),
        ("norms", {"checks": ["moyal"], "modes": 0}, {}, None,
         "params.modes must lie in [1, 128] (field: params.modes)"),
        # a grid block on a kind that runs on no top-level grid
        ("spectrum", {"cases": [{"k": 1, "l": 1, "points": 256, "j_lo": 20, "j_hi": 45}]},
         {"grid": {"points_per_axis": 64}}, None, "a spectrum run reads no grid block "
         "(field: grid)"),
        ("decay", {"resolution": 256}, {"grid": {"points_per_axis": 64}}, None,
         "a decay run reads no grid block (field: grid)"),
        ("selftest", {}, {"grid": {}}, None, "a selftest run reads no grid block (field: grid)"),
        # values that were rejected only after the work they make useless
        ("norms", {"checks": ["singular"], "modes": 16},
         {"grid": {"dimension": 1, "points_per_axis": 128, "half_width": 5.0}}, None,
         "the singular check truncates at radius 6, beyond the grid half-width 5 "
         "(field: grid.half_width)"),
        ("ou", {"modes": 48, "safe_radius": 5.0}, {}, None,
         "params.safe_radius must be at least 6, the radius of the constant-field check "
         "(field: params.safe_radius)"),
        ("nlheat", {"horizon": 0.005, "dt": 0.005}, {}, None,
         "params.horizon must span at least 2 steps of params.dt for a Duhamel residual "
         "(field: params.horizon)"),
        ("decay", {"resolution": 256, "t_list": [0.1, 0.05, 0.01]}, {}, None,
         "need at least 6 samples for a slope fit (field: params.t_list)"),
        ("decay", {"resolution": 256, "t_list": [0.1, 0.07, 0.05, 0.03, 0.02, 0.01]}, {},
         None, "samples must span at least 1.5 decades of t (field: params.t_list)"),
        # values every decay tuple shares name their own key, not params.tuples
        ("decay", {"resolution": 256, "radius": -1.0}, {}, None,
         "radius must be a positive real (field: params.radius)"),
        ("decay", {"resolution": 16}, {}, None,
         "resolution must be an even integer >= 32 (field: params.resolution)"),
        ("decay", {"resolution": 255}, {}, None,
         "resolution must be an even integer >= 32 (field: params.resolution)"),
        ("decay", {"resolution": 256, "form": "scaledd"}, {}, None,
         "unknown quotient form 'scaledd' (field: params.form)"),
        ("decay", {"resolution": 256, "t_list": [2.0, 1.0, 0.5, 0.1, 0.05, 0.01]}, {}, None,
         "t_list must contain values in (0, 1] (field: params.t_list)"),
        # a non-finite coupling names the manifest key that holds it
        ("nlheat", {"horizon": 0.02, "coupling_re": float("nan")}, {}, None,
         "params.coupling_re must be finite (field: params.coupling_re)"),
        ("nlheat", {"horizon": 0.02, "coupling_im": float("inf")}, {}, None,
         "params.coupling_im must be finite (field: params.coupling_im)"),
        # the line is the only dimension
        ("nlheat", {"horizon": 0.02},
         {"grid": {"dimension": 2, "points_per_axis": 16, "half_width": 4.0}}, None,
         "only d = 1 is supported (field: grid.dimension)"),
        ("spectrum", {"cases": [{"k": 1, "l": 1, "dimension": 2, "points": 16}]}, {}, None,
         "unknown manifest fields: ['params.cases.dimension'] "
         "(field: params.cases.dimension)"),
        # the seed override obeys the manifest's seed rule
        ("norms", {"checks": ["moyal"], "modes": 16}, {}, -1,
         "seed must be an unsigned 64-bit integer (field: seed)"),
        ("norms", {"checks": ["moyal"], "modes": 16}, {}, 2 ** 64 + 5,
         "seed must be an unsigned 64-bit integer (field: seed)"),
        # a run label names an entry's series and rows, so it may appear once
        ("decay", {"resolution": 256,
                   "tuples": [{"k": 1, "l": 1, "beta": 1.0, "p_tilde": 1.0, "q_tilde": 1.0},
                              {"k": 1, "l": 1, "beta": 1.0, "p_tilde": 2.0, "q_tilde": 2.0}]},
         {}, None, "run label decay_k1_l1_b1; the second would overwrite the first's "
         "series (field: params.tuples)"),
        ("spectrum", {"cases": [{"k": 1, "l": 1, "points": 64, "half_width": 8.0,
                                 "j_lo": 0, "j_hi": 10},
                                {"k": 1, "l": 1, "points": 128, "half_width": 12.0,
                                 "j_lo": 0, "j_hi": 10}]},
         {}, None, "run label k1_l1; the second would overwrite the first's series "
         "(field: params.cases)"),
    ], ids=["etd_order", "etd_horizon", "monitor_s_inf", "tol", "dt", "norms_no_checks",
            "nlheat_nu_float", "nlheat_nu_bool", "nlheat_modes_float", "nlheat_modes_str",
            "nlheat_beta_str", "nlheat_etd_order_float", "nlheat_power_alpha",
            "grid_points_float", "grid_half_width_str", "oscillator_unknown_key",
            "oscillator_k_float", "oscillator_k_zero", "oscillator_beta",
            "oscillator_dimension", "oscillator_potential", "oscillator_q1", "spectrum_k_bool",
            "spectrum_tolerance_str", "spectrum_points_float", "spectrum_j_hi_float",
            "spectrum_j_hi_past_modes", "spectrum_window_reversed", "spectrum_j_lo_negative",
            "decay_beta_str", "decay_s2_inf", "decay_s2_nan", "ou_gauss_probes_float", "nlheat_kind_cubic", "nlheat_nu_zero",
            "ou_t_check_scalar", "ou_no_check_times", "ou_safe_radius_null", "format_csv", "norms_modes_zero",
            "spectrum_grid", "decay_grid", "selftest_grid", "norms_singular_half_width",
            "ou_safe_radius_inside_the_check", "nlheat_one_step", "decay_three_times", "decay_one_decade",
            "decay_radius_negative", "decay_resolution_small", "decay_resolution_odd",
            "decay_form_typo", "decay_t_above_one", "nlheat_coupling_re_nan",
            "nlheat_coupling_im_inf", "grid_dimension_two", "spectrum_case_dimension",
            "seed_override_negative", "seed_override_too_large", "decay_repeated_label",
            "spectrum_repeated_label"])
    def test_rejected_before_any_work(self, tmp_path, monkeypatch, capsys, kind, params,
                                      top, seed, detail):
        """A rejected manifest value costs no decomposition, no Picard run and
        no decay quotient. ``top`` overrides top-level blocks; ``seed`` is the
        --seed override."""
        calls = []

        def counted(name):
            original = getattr(anharmonic.cli, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for name in ("decompose", "picard_solve", "smoothing_decay_run"):
            monkeypatch.setattr(anharmonic.cli, name, counted(name))
        manifest = {"schema": 1, "kind": kind, "params": params, **top}
        if kind in GRID_KINDS:
            manifest.setdefault(
                "grid", {"dimension": 1, "points_per_axis": 128, "half_width": 12.0})
        path = write_manifest(tmp_path, manifest)
        code, record = run_manifest(path, out_dir=str(tmp_path / "out"), seed=seed)
        assert code == EXIT_SCHEMA and record is None
        assert detail in capsys.readouterr().err
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

    def test_growth_between_exact_steps_fails_the_bound_row(self, tmp_path, monkeypatch):
        """The exact norm runs at the ends of a short flow only, so a state
        that grows past the gate between them escapes `sup_monitored_norm`;
        its bound does not escape `sup_monitored_bound`. The growth is put
        into the record of one step between the ends."""
        solve = anharmonic.cli.picard_solve
        planted = []

        def grown(spec, horizon, dt, **kwargs):
            traj = solve(spec, horizon, dt, **kwargs)
            assert np.isnan(traj.monitored_norms[2])
            traj.monitored_bounds[2] = 10.0 * traj.monitored_norms[0]
            planted.append(float(traj.monitored_bounds[2]))
            return traj

        monkeypatch.setattr(anharmonic.cli, "picard_solve", grown)
        manifest = {"schema": 1, "kind": "nlheat",
                    "grid": {"points_per_axis": 128, "half_width": 10},
                    "params": {"modes": 48, "horizon": 0.02, "dt": 0.005}}
        path = write_manifest(tmp_path, manifest)
        code, record = run_manifest(path, out_dir=str(tmp_path / "out"))
        rows = {r["name"]: r for r in record.results}
        assert rows["sup_monitored_norm"]["passed"]
        assert not rows["sup_monitored_bound"]["passed"]
        assert rows["sup_monitored_bound"]["value"] == planted[0]
        assert code == EXIT_CHECK_FAILED

    def test_blow_up_before_the_third_checkpoint_is_a_result(self, tmp_path):
        """An initial norm above the blow-up guard stops the flow at step 1,
        with two checkpoints and so no Duhamel residual: that row and the
        monitored-norm row fail at inf, and the run exits 1 with its
        trajectory written."""
        manifest = {"schema": 1, "kind": "nlheat",
                    "grid": {"points_per_axis": 128, "half_width": 10},
                    "params": {"modes": 48, "coupling_re": 0.0, "initial_norm": 2e6,
                               "horizon": 0.05, "dt": 0.005}}
        path = write_manifest(tmp_path, manifest)
        code, record = run_manifest(path, out_dir=str(tmp_path / "out"))
        assert code == EXIT_CHECK_FAILED
        rows = {r["name"]: r for r in record.results}
        for name in ("sup_monitored_norm", "sup_monitored_bound"):
            assert rows[name]["value"] == float("inf")
            assert rows[name]["deviation"] == float("inf")
            assert not rows[name]["passed"]
        assert rows["duhamel_residual"]["value"] == float("inf")
        assert not rows["duhamel_residual"]["passed"]
        assert (tmp_path / "out" / "trajectory.csv").exists()

    def test_blow_up_with_every_norm_overflowed_is_a_result(self, tmp_path):
        """At initial norm 1e154 every measured monitored norm overflows to
        inf, so the initial norm scales the residual bound: the run exits 1
        (not 2 for an infinite tolerance) with its trajectory written."""
        manifest = {"schema": 1, "kind": "nlheat",
                    "grid": {"points_per_axis": 128, "half_width": 10},
                    "params": {"modes": 48, "coupling_re": 0.0, "initial_norm": 1e154,
                               "horizon": 0.05, "dt": 0.005}}
        path = write_manifest(tmp_path, manifest)
        code, record = run_manifest(path, out_dir=str(tmp_path / "out"))
        assert code == EXIT_CHECK_FAILED
        rows = {r["name"]: r for r in record.results}
        for name in ("sup_monitored_norm", "sup_monitored_bound", "duhamel_residual"):
            assert rows[name]["value"] == float("inf") and not rows[name]["passed"]
        assert rows["duhamel_residual"]["tolerance"] == pytest.approx(1e-4 * 1e154)
        assert (tmp_path / "out" / "trajectory.csv").exists()

    def test_numerical_failure_prints_strict_json(self, tmp_path, capsys):
        """A Picard run that blows up reports its infinite last gap as the
        string "inf", so the stderr line is strict JSON."""
        manifest = {"schema": 1, "kind": "nlheat",
                    "grid": {"dimension": 1, "points_per_axis": 128, "half_width": 12.0},
                    "params": {"modes": 48, "coupling_re": 1.0, "initial_norm": 5000,
                               "horizon": 0.5, "dt": 0.005}}
        path = write_manifest(tmp_path, manifest)
        code, record = run_manifest(path, out_dir=str(tmp_path / "out"))
        assert code == EXIT_NUMERICAL and record is None
        prefix = "numerical failure: "
        [line] = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith(prefix)]

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(line[len(prefix):], parse_constant=reject)
        assert payload["diagnostics"]["last_gap"] == "inf"

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

    @pytest.mark.parametrize("params,detail", [
        ({"form": "weighted", "resolution": 256, "tuples": [{"k": 1, "l": 1, "s2": 120.0}]},
         "non-finite"),
        ({"resolution": 256, "tuples": [{"k": 1, "l": 1, "p_tilde": 400}]},
         "underflowed to 0")], ids=["overflow", "underflow"])
    def test_non_finite_quotient_exits_numerical(self, tmp_path, capsys, params, detail):
        """The literal quotient with s2 = 120 overflows to inf / inf on the
        guard lattice, and with p~ = 400 every cell of the integrand to the
        power 400 underflows on a 256-cell lattice, so a positive integrand
        would read 0. Each is a numerical failure, not a checked value."""
        path = write_manifest(tmp_path, {"schema": 1, "kind": "decay", "params": params})
        code, record = run_manifest(path, out_dir=str(tmp_path / "out"))
        assert code == EXIT_NUMERICAL and record is None
        err = capsys.readouterr().err
        assert "numerical failure" in err and "NumericalError" in err and detail in err

    def test_overflowing_potential_exits_numerical(self, tmp_path, capsys):
        """k = 200 is a valid spec whose nodal potential |x|^400 overflows to
        inf on a half-width of 60: a numerical failure, caught before the
        eigensolver."""
        manifest = {"schema": 1, "kind": "norms",
                    "grid": {"dimension": 1, "points_per_axis": 64, "half_width": 60.0},
                    "oscillator": {"k": 200, "l": 1},
                    "params": {"checks": ["moyal"], "modes": 16}}
        path = write_manifest(tmp_path, manifest)
        code, record = run_manifest(path, out_dir=str(tmp_path / "out"))
        assert code == EXIT_NUMERICAL and record is None
        err = capsys.readouterr().err
        assert "numerical failure" in err and "nodal potential" in err

    def test_failing_check_exits_one(self, tmp_path):
        # the box |x| <= 8 cuts off the levels 2j + 1 >= 61 that the window reads
        path = write_manifest(tmp_path, small_spectrum_manifest(half_width=8.0))
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

    @pytest.mark.parametrize("kind,half_width,params,solves", [
        ("nlheat", 12.0, {"modes": 48, "horizon": 0.02, "dt": 0.005,
                          "etd": {"horizon": 0.01, "dt": 0.001, "order": 2}}, 1),
        ("norms", 6.0, {"checks": ["moyal", "equivalence", "algebra", "singular"]}, 2)],
        ids=["nlheat", "norms"])
    def test_eigh_calls_per_manifest(self, tmp_path, monkeypatch, kind, half_width, params,
                                     solves):
        """An nlheat flow from the even Gaussian decomposes its even sector
        alone: one np.linalg.eigh call in the whole manifest, the ETD
        cross-check included. The norms runner reads modes of both parities
        and still solves both blocks."""
        eigh, calls = np.linalg.eigh, []

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        manifest = {"schema": 1, "kind": kind, "seed": 3, "params": params,
                    "grid": {"dimension": 1, "points_per_axis": 128, "half_width": half_width}}
        code, _ = run_manifest(write_manifest(tmp_path, manifest), out_dir=str(tmp_path / "out"))
        assert code == EXIT_OK
        assert calls == [(64, 64)] * solves

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

    def test_decay_r2_is_a_row_of_its_own(self, tmp_path):
        """R^2 >= r2_min is judged by the ``_r2`` row (kind lower), not by the
        slope row: an unreachable r2_min fails only the former."""
        manifest = {"schema": 1, "kind": "decay", "format": "json",
                    "params": {"resolution": 256, "tuples": [{"k": 1, "l": 1, "r2_min": 1.5}]}}
        code, record = run_manifest(write_manifest(tmp_path, manifest),
                                    out_dir=str(tmp_path / "out"))
        assert code == EXIT_CHECK_FAILED
        slope, r2 = record.results
        assert slope["name"] == "decay_k1_l1_b1_slope" and slope["passed"]
        assert (r2["name"], r2["kind"], r2["target"]) == ("decay_k1_l1_b1_r2", "lower", 1.5)
        assert r2["deviation"] == 1.5 - r2["value"] and not r2["passed"]

    def test_selftest_rerun_is_identical(self, tmp_path):
        path = write_manifest(tmp_path, selftest_manifest())
        code1, _ = run_manifest(path, out_dir=str(tmp_path / "r1"))
        code2, _ = run_manifest(path, out_dir=str(tmp_path / "r2"))
        assert code1 == EXIT_OK and code2 == EXIT_OK
        r1 = json.loads((tmp_path / "r1" / "report.json").read_text())
        r2 = json.loads((tmp_path / "r2" / "report.json").read_text())
        assert len(r1["results"]) == 4
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

    def test_selftest_without_config_keeps_its_hash(self, tmp_path):
        """The built-in manifest runs as a dict and hashes as it always has."""
        assert main(["selftest", "--out", str(tmp_path / "out")]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["manifest_hash"] == (
            "c1d8c01369cf86e87f487d582a2bc75938818017a49f6d2f636a295b6e4c9457")

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64 + 5)])
    def test_seed_flag_obeys_the_seed_rule(self, tmp_path, capsys, seed):
        """--seed is held to the manifest's 0 <= seed < 2^64 before any work."""
        out = tmp_path / "out"
        assert main(["selftest", "--out", str(out), "--seed", seed]) == EXIT_SCHEMA
        assert "seed must be an unsigned 64-bit integer (field: seed)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("output_dir, flags, field", [
        ("", [], "output_dir"), ("out", ["--out", ""], "--out")], ids=["manifest", "flag"])
    def test_empty_output_dir_exits_2(self, tmp_path, capsys, monkeypatch, output_dir, flags,
                                      field):
        """An empty output directory, from the manifest or from --out, is
        rejected before the runner starts."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setitem(anharmonic.cli._RUNNERS, "selftest",
                            lambda run, record: pytest.fail("the runner started"))
        path = write_manifest(tmp_path, {**selftest_manifest(), "output_dir": output_dir})
        assert main(["selftest", "--config", path, *flags]) == EXIT_SCHEMA
        assert f"(field: {field})" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_required_elsewhere(self, capsys):
        assert main(["ou"]) == EXIT_SCHEMA
        assert "--config is required" in capsys.readouterr().err

    def test_a_run_imports_no_scipy(self, tmp_path):
        """scipy is a test dependency only: a fresh interpreter that imports
        the package and its CLI, decomposes and runs the built-in selftest
        never loads it."""
        code = (
            "import sys\n"
            "import anharmonic as ah\n"
            "import anharmonic.cli\n"
            "ah.decompose(ah.hermite_oscillator(), ah.Grid(64, 8.0), 16)\n"
            f"assert anharmonic.cli.main(['selftest', '--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(anharmonic.cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

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
