import numpy as np
import pytest

import anharmonic as ah
from oracles import gaussian_stft_abs


@pytest.fixture(scope="session")
def hermite_grid():
    return ah.Grid(1, 512, 12.0)


@pytest.fixture(scope="session")
def hermite_osc():
    return ah.hermite_oscillator()


@pytest.fixture(scope="session")
def hermite_dec(hermite_osc, hermite_grid):
    return ah.decompose(hermite_osc, hermite_grid, 384)


@pytest.fixture(scope="session")
def hermite_dec_fine(hermite_osc):
    return ah.decompose(hermite_osc, ah.Grid(1, 1024, 12.0), 384)


@pytest.fixture(scope="session")
def quartic_osc():
    return ah.oscillator(2, 1, 1)


@pytest.fixture(scope="session")
def quartic_dec(quartic_osc, hermite_grid):
    return ah.decompose(quartic_osc, hermite_grid, 384)


@pytest.fixture(scope="session")
def small_dec(hermite_osc):
    return ah.decompose(hermite_osc, ah.Grid(1, 128, 10.0), 48)


@pytest.fixture()
def gaussian_field(hermite_grid):
    x = hermite_grid.nodes()[:, 0]
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
    return gaussian_stft_abs(hermite_grid.nodes()[:, 0],
                             hermite_grid.frequency_nodes()[:, 0], amp, a, b, 0.75)
