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

from anharmonic.cli import validate_manifest

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


@pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
def test_benchmark_manifests_validate(tiny):
    workloads = load_workloads()
    assert workloads.NAMES, "perfbench/workloads.py names no workload"
    for workload in workloads.NAMES:
        for _, manifest in workloads.manifests(workload, 1234, tiny):
            validate_manifest(manifest)
