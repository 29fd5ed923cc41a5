"""The shipped manifests and the benchmark's manifests pass validation.

The runner rejects keys it does not read, so a key table that missed one of
these would refuse a run that the configs or the benchmark make. The
benchmark module is executed from its file, as in test_tracer_names.py, and
is not modified.
"""

import json
import types
from pathlib import Path

import pytest

from anharmonic import errors
from anharmonic.cli import EXIT_CHECK_FAILED, EXIT_OK, run_manifest, validate_manifest

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
WORKLOADS_PATH = ROOT / "perfbench" / "workloads.py"


def load_workloads():
    # compiled from source, so no bytecode cache is written next to it
    module = types.ModuleType("perfbench_workloads")
    exec(compile(WORKLOADS_PATH.read_text(encoding="utf-8"), str(WORKLOADS_PATH), "exec"),
         module.__dict__)
    return module


def test_configs_are_found():
    assert CONFIGS, "configs/ holds no manifest"


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_config_loads(path):
    validate_manifest(json.loads(path.read_text(encoding="utf-8")))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_config_warns_only_in_package_categories(path, tmp_path):
    """A shipped manifest passes, and every warning its report carries is
    one of the package's own categories (``anharmonic.errors``): numpy's
    floating-point failures raise in a run, so none is reported."""
    code, record = run_manifest(str(path), out_dir=str(tmp_path / "out"))
    assert code == EXIT_OK
    package = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Warning)}
    assert {w["category"] for w in record.warnings} <= package


@pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
def test_benchmark_manifests_validate(tiny):
    workloads = load_workloads()
    assert workloads.NAMES, "perfbench/workloads.py names no workload"
    for workload in workloads.NAMES:
        for _, manifest in workloads.manifests(workload, 1234, tiny):
            validate_manifest(manifest)


def test_tiny_benchmark_spectrum_runs_to_its_rows(tmp_path):
    """The benchmark's tiny spectrum cases (128 points, 64 modes, window
    [10, 40]) pass validation and run to one row per case: a window inside
    the retained modes is never rejected after a decomposition."""
    [manifest] = [m for name, m in load_workloads().manifests("exponents", 1234, True)
                  if name == "spectrum"]
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    code, record = run_manifest(str(path), out_dir=str(tmp_path / "out"))
    assert code in (EXIT_OK, EXIT_CHECK_FAILED)
    assert [r["name"] for r in record.results] == [
        f"bohr_sommerfeld_k{c['k']}_l{c['l']}" for c in manifest["params"]["cases"]]
