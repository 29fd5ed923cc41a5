import numpy as np
import pytest

import anharmonic as ah
from anharmonic import phasespace
from anharmonic.cli import _FP_RULE
from oracles import gaussian_stft_abs


@pytest.fixture(autouse=True)
def strict_floating_point():
    """Every test runs in the floating-point mode of a manifest run
    (``cli._FP_RULE``): overflow, invalid and divide raise, so only a site
    that opts out locally may make an inf or a NaN."""
    with np.errstate(**_FP_RULE):
        yield


class PassRanges(list):
    """(start, stop) of each recorded pass; ``blocks`` holds, per pass, the
    (lo, rows) of each of its blocks."""

    def __init__(self):
        super().__init__()
        self.blocks = []


@pytest.fixture()
def pass_ranges(monkeypatch):
    """The x-shift rows (start, stop) of every blocked STFT pass run while the
    test runs, in call order; the rows of a pass are consecutive."""
    ranges = PassRanges()
    blocks = phasespace._stft_blocks

    def recorded(*args, **kwargs):
        span, parts = None, []
        for lo, block in blocks(*args, **kwargs):
            assert span is None or lo == span[1]
            span = (lo if span is None else span[0], lo + block.shape[0])
            parts.append((lo, block.shape[0]))
            yield lo, block
        ranges.append(span)
        ranges.blocks.append(parts)

    monkeypatch.setattr(phasespace, "_stft_blocks", recorded)
    return ranges


@pytest.fixture(scope="session")
def hermite_grid():
    return ah.Grid(512, 12.0)


@pytest.fixture(scope="session")
def hermite_osc():
    return ah.hermite_oscillator()


@pytest.fixture(scope="session")
def hermite_dec(hermite_osc, hermite_grid):
    return ah.decompose(hermite_osc, hermite_grid, 384)


@pytest.fixture(scope="session")
def hermite_dec_fine(hermite_osc):
    return ah.decompose(hermite_osc, ah.Grid(1024, 12.0), 384)


@pytest.fixture(scope="session")
def quartic_osc():
    return ah.OscillatorSpec(2, 1)


@pytest.fixture(scope="session")
def quartic_dec(quartic_osc, hermite_grid):
    return ah.decompose(quartic_osc, hermite_grid, 384)


@pytest.fixture(scope="session")
def small_dec(hermite_osc):
    return ah.decompose(hermite_osc, ah.Grid(128, 10.0), 48)


@pytest.fixture()
def gaussian_field(hermite_grid):
    x = hermite_grid.nodes()
    vals = np.exp(-np.pi * (x - 0.5) ** 2) * np.exp(2j * np.pi * 0.75 * x)
    return ah.FieldSample(hermite_grid, vals)


@pytest.fixture(scope="session")
def damped_gaussian_abs(hermite_grid):
    """Closed-form |V_g (M f)| on the hermite lattice for gaussian_field f and
    M the gaussian half-density: pi^(-1/4) e^(-x^2/2) e^(-pi (x - 0.5)^2)
    is amp e^(-a (x - b)^2) with a = pi + 1/2, b = pi / (2a)."""
    a = np.pi + 0.5
    b = np.pi / (2.0 * a)
    amp = np.pi ** -0.25 * np.exp(a * b ** 2 - np.pi / 4.0)
    return gaussian_stft_abs(hermite_grid.nodes(),
                             hermite_grid.frequency_nodes(), amp, a, b, 0.75)
