"""``tools/compare_configs.py``, the check that two source trees give the same
outputs, on synthetic outcomes: its ``_compare`` reads a non-finite row
value as a schema-4 report writes it, the string "inf", "-inf" or "nan",
and shows each manifest's peak RSS without failing on it."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

import anharmonic.cli

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_configs.py"
_SPEC = importlib.util.spec_from_file_location("compare_configs", _PATH)
compare_configs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_configs)


def outcome(value, passed, rss_mb=40.0):
    """One manifest's outcome with one report row."""
    row = {"name": "duhamel_residual", "value": value, "passed": passed}
    return {"code": 0 if passed else 1, "stderr": "", "rss_mb": rss_mb,
            "rows": {"duhamel_residual": row}, "warnings": {},
            "csv": {"trajectory.csv": b"t\n0.0\n"}}


@pytest.mark.parametrize("old,new", [("inf", "inf"), ("nan", "nan"), (float("inf"), "inf"),
                                     ("-inf", float("-inf"))],
                         ids=["inf", "nan", "schema3_inf", "schema3_minus_inf"])
def test_equal_non_finite_values_are_unchanged(old, new, capsys):
    """A value that reads the same, as a string or as an older report's
    float, neither moves nor fails."""
    assert compare_configs._compare("m", outcome(old, False), outcome(new, False)) == (0, 0)
    assert "row" not in capsys.readouterr().out


def test_inf_to_a_float_with_a_flipped_verdict_fails(capsys):
    """A row that goes from "inf" to a finite value and from fail to pass
    is a moved row and a failure (and an exit-code failure)."""
    failures, moved = compare_configs._compare("m", outcome("inf", False),
                                               outcome(2.5e-9, True))
    assert (failures, moved) == (2, 1)
    assert "row duhamel_residual: inf -> 2.5e-09 (rel nan), FAIL -> pass" in (
        capsys.readouterr().out)


def test_a_moved_value_with_its_verdict_kept_is_shown_not_failed(capsys):
    failures, moved = compare_configs._compare("m", outcome(1.0, True), outcome(1.5, True))
    assert (failures, moved) == (0, 1)
    assert "(rel 5.00e-01), pass" in capsys.readouterr().out


def test_it_caps_every_thread_pool_a_report_records():
    """A compared run caps the thread pools that ``cli`` records in a
    report's provenance, all of them at one thread."""
    assert compare_configs._THREAD_VARIABLES == anharmonic.cli._THREAD_VARS


def test_peak_rss_is_shown_and_never_fails(capsys):
    """A manifest whose peak RSS doubles is shown beside its exit codes and
    counts as neither a failure nor a moved row."""
    assert compare_configs._compare("m", outcome(1.0, True, 40.0),
                                    outcome(1.0, True, 80.25)) == (0, 0)
    assert "m: exit 0 / 0, peak RSS 40.0 / 80.2 MB" in capsys.readouterr().out


@pytest.mark.parametrize("code", [0, 3])
def test_a_child_reports_its_code_stderr_and_peak_rss(code, tmp_path):
    """``_child`` reaps the process itself: the exit code, the stderr text
    and a peak RSS that holds the 32 MiB the child wrote."""
    script = ("import sys; b = bytearray(b'x') * (32 << 20); "
              f"print('done', file=sys.stderr); sys.exit({code})")
    got, stderr, rss_mb = compare_configs._child([sys.executable, "-c", script],
                                                 dict(os.environ), tmp_path)
    assert (got, stderr) == (code, "done\n")
    assert 32.0 < rss_mb < 512.0
