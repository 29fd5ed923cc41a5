"""The benchmark tracer (perfbench/spans.py) patches package functions by name.

A rename or deletion of one of those names, or of an attribute that a work
counter reads from a call's arguments or result, breaks traced benchmark
runs without failing any other test, so both are checked here. The tracer
is executed from its file and is not modified.
"""

import importlib
import types
from pathlib import Path

import numpy as np

from anharmonic import (FieldSample, Grid, NonlinearProblemSpec, OscillatorSpec,
                        WeightQuotientParams, decompose)
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


def tiny_calls():
    """Arguments of one small real call of each function the tracer counts."""
    grid = Grid(64, 8.0)
    dec = decompose(OscillatorSpec(1, 1), grid, 16)
    u0 = FieldSample(grid, 0.5 * np.exp(-grid.nodes() ** 2 / 2))
    spec = NonlinearProblemSpec(dec, u0)
    return {
        "decompose": (dec.oscillator, grid, 16),
        "stft": (u0,),
        "weight_quotient_norm": (WeightQuotientParams(OscillatorSpec(1, 1), resolution=64,
                                                      t_list=(0.1,)),),
        "picard_solve": (spec, 0.01, 0.005),
        "etd_evolve": (spec, 0.01, 0.005),
    }


def test_work_counters_read_real_results():
    counted = [(module, attr, counter) for _, module, attr, counter in load_spans().FUNCTIONS
               if counter is not None]
    calls = tiny_calls()
    assert sorted(attr for _, attr, _ in counted) == sorted(calls)
    for module, attr, counter in counted:
        args = calls[attr]
        result = getattr(importlib.import_module("anharmonic." + module), attr)(*args)
        count = counter(args, {}, result)
        assert type(count) is int and count > 0, attr
