"""The benchmark tracer (perfbench/spans.py) patches package functions by name.

A rename or deletion of one of those names breaks traced benchmark runs
without failing any other test, so the names are checked here. The tracer
is executed from its file and is not modified.
"""

import importlib
import types
from pathlib import Path

from anharmonic.spectral import SpectralDecomposition

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    # compiled from source, so no bytecode cache is written next to it
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS_PATH.read_text(encoding="utf-8"), str(SPANS_PATH), "exec"),
         module.__dict__)
    return module


def test_traced_functions_exist():
    missing = [f"anharmonic.{module}.{attr}"
               for _, module, attr, _ in load_spans().FUNCTIONS
               if not callable(getattr(importlib.import_module("anharmonic." + module),
                                       attr, None))]
    assert missing == []


def test_traced_methods_exist():
    missing = [attr for _, attr in load_spans()._METHODS
               if not callable(getattr(SpectralDecomposition, attr, None))]
    assert missing == []
