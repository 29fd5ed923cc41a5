"""Independent reference computations the tests check the package against.

Everything here is built from a different method than the code under test:
the grid operator is the dense n x n matrix of H (the package builds only
its two parity blocks), those blocks come from an index-array gather (the
package copies them from strided views), the quartic ground state comes
from an ODE shooting method, the window transform from a closed form (and
its Poisson-summed aliases) and, for any field, from the dense sum of its
definition with an explicit n x n phase matrix (the package streams FFT
blocks), the mixed norm from direct loops over the definition, and the
weight quotient from its formula on every node of the full lattice, and a
report row's verdict from the four deviation rules. Frozen constants at the bottom
were produced by these oracles and pinned so a regression in either side is
caught.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

from anharmonic import evaluate_potential


def dense_operator(osc, grid, c=1.0) -> np.ndarray:
    """Dense real symmetric matrix of (-Laplacian)^l + c |x|^(2k) on the grid.

    The kinetic part is the circulant of the Fourier multiplier |omega|^(2l)
    (entry (i, j) reads the inverse transform at i - j), the
    potential, times ``c``, its diagonal, and the whole is symmetrized as
    0.5 (a + a^T).
    """
    nodes = grid.nodes()
    v_nodes = c * np.asarray(evaluate_potential(osc, nodes), dtype=float)
    n = grid.points_per_axis
    w = np.pi * np.fft.fftfreq(n, d=1.0 / n) / grid.half_width
    kern = np.fft.ifft(np.abs(w) ** (2 * osc.l)).real
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    a = kern[idx]
    a = a + np.diag(v_nodes)
    a = 0.5 * (a + a.T)
    return a


def parity_blocks_by_gather(mult, v_nodes, grid):
    """The even and odd blocks E = A11 + A12 J and O = A11 - A12 J of the grid
    operator, each gathered from the symmetrized kernel through an explicit
    (n/2)² index array: A11 at (i - j) mod N with V added on its diagonal,
    A12 J at i + j + 1. The package copies the same entries from strided
    views instead."""
    n = grid.points_per_axis
    half = n // 2
    kern = np.fft.ifft(mult).real + 0.0
    sym = 0.5 * (kern + kern[(-np.arange(n)) % n])
    rows = np.arange(half)
    a11 = sym[(rows[:, None] - rows[None, :]) % n]
    a11[rows, rows] += v_nodes[:half]
    a12j = sym[(rows[:, None] + rows[None, :] + 1) % n]
    return a11 + a12j, a11 - a12j


def quartic_eigenvalue_shooting(which: int, x_far: float = 7.0) -> float:
    """Eigenvalue of -u'' + x^4 u on the line by parity shooting.

    ``which`` = 0 gives the even ground state, 1 the first odd level. The
    eigenvalue is bracketed by the sign of the shooted solution at ``x_far``
    (deep in the forbidden region) and bisected to 1e-11.
    """
    even = which % 2 == 0

    def endpoint_sign(lam: float) -> float:
        def rhs(x, y):
            return [y[1], (x ** 4 - lam) * y[0]]

        y0 = [1.0, 0.0] if even else [0.0, 1.0]
        sol = solve_ivp(rhs, (0.0, x_far), y0, rtol=1e-11, atol=1e-13,
                        dense_output=False)
        return sol.y[0, -1]

    lo, hi = 0.5, 2.0 if which == 0 else 5.0
    f_lo = endpoint_sign(lo)
    # widen until the endpoint flips sign
    while endpoint_sign(hi) * f_lo > 0:
        hi *= 1.5
        if hi > 100:
            raise RuntimeError("no eigenvalue bracket found")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f_mid = endpoint_sign(mid)
        if f_mid * f_lo <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo < 1e-11:
            break
    return 0.5 * (lo + hi)


def hermite_function(j: int, x: np.ndarray) -> np.ndarray:
    """Normalized Hermite function h_j, eigenfunction of -d²/dx² + x²."""
    coeffs = np.zeros(j + 1)
    coeffs[j] = 1.0
    h = np.polynomial.hermite.hermval(x, coeffs)
    norm = np.sqrt(2.0 ** j * float(math.factorial(j)) * np.sqrt(np.pi))
    return h * np.exp(-x ** 2 / 2.0) / norm


def gaussian_window_transform_abs(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """|V_g g| for the unit Gaussian window, closed form e^{-pi(x²+ξ²)/2}."""
    return np.exp(-np.pi * (x[:, None] ** 2 + xi[None, :] ** 2) / 2.0)


def gaussian_stft_abs(x: np.ndarray, xi: np.ndarray, amp: float, a: float,
                      b: float, c: float) -> np.ndarray:
    """|V_g f| against the unit Gaussian window for the modulated Gaussian
    f(t) = amp e^{-a (t - b)²} e^{2πi c t}, by the Gaussian integral.

    With α = a + π and β = ab + πx + iπ(c - ξ), the transform is
    amp 2^{1/4} (π/α)^{1/2} exp(β²/α - ab² - πx²); only Re β² reaches the
    magnitude.
    """
    x = np.asarray(x)[:, None]
    xi = np.asarray(xi)[None, :]
    alpha = a + np.pi
    re_beta2 = (a * b + np.pi * x) ** 2 - (np.pi * (c - xi)) ** 2
    return (amp * 2.0 ** 0.25 * np.sqrt(np.pi / alpha)
            * np.exp(re_beta2 / alpha - a * b ** 2 - np.pi * x ** 2))


def gaussian_lattice_stft_abs(x: np.ndarray, xi: np.ndarray, amp: float, a: float,
                              b: float, c: float, h: float, terms: int = 3) -> np.ndarray:
    """|V_g f| of the same modulated Gaussian as ``gaussian_stft_abs``, but as
    the lattice transform sees it: the sum over staggered nodes of spacing h
    (offset h/2 from an even count of cells) aliases every frequency, so by
    Poisson summation it is |sum_m (-1)^m V_g f(x, xi + m/h)|, here over
    |m| <= ``terms`` with the complex closed form. Near the Nyquist node the
    aliases are as large as the term itself.
    """
    x = np.asarray(x)[:, None]
    alpha = a + np.pi
    total = np.zeros((x.shape[0], np.size(xi)), dtype=complex)
    for m in range(-terms, terms + 1):
        eta = np.asarray(xi)[None, :] + m / h
        beta = a * b + np.pi * x + 1j * np.pi * (c - eta)
        total += (-1) ** m * np.exp(beta ** 2 / alpha - a * b ** 2 - np.pi * x ** 2)
    return amp * 2.0 ** 0.25 * np.sqrt(np.pi / alpha) * np.abs(total)


def dense_stft(f) -> np.ndarray:
    """The lattice window transform of a field by its definition,
    V_g f(x_i, xi_n) = h sum_j f(z_j) g(z_j - x_i) e^{-2 pi i xi_n z_j}.

    The nodes are z_j = -L + (j + 1/2) h, the frequencies xi_n = n / (2L)
    with n ascending in [-N/2, N/2), and g is the unit Gaussian
    2^{1/4} e^{-pi z^2} at the signed cyclic offset of z_j - x_i, in
    [-N/2, N/2) cells. The phases form one explicit (N, N) matrix: no FFT,
    no circulant view and nothing from ``anharmonic.phasespace``. Rows index
    x_i, columns ascending xi_n.
    """
    n, half_width = f.grid.points_per_axis, f.grid.half_width
    h = 2.0 * half_width / n
    z = -half_width + (np.arange(n) + 0.5) * h
    xi = np.arange(-(n // 2), n - n // 2) / (2.0 * half_width)
    offsets = (np.arange(n)[None, :] - np.arange(n)[:, None] + n // 2) % n - n // 2
    window = 2.0 ** 0.25 * np.exp(-np.pi * (offsets * h) ** 2)
    phase = np.exp(-2j * np.pi * np.outer(z, xi))
    return h * (window * np.asarray(f.values)[None, :]) @ phase


def mixed_norm_reference(values, weight, p, q, cell_x, cell_xi):
    """Mixed lattice norm by direct loops over the definition.

    ``p`` or ``q`` may be the string "inf" for the sup. Deliberately slow
    and independent of the package's reduction kernels.
    """
    mag = np.abs(np.asarray(values)) * np.asarray(weight)
    nx, nxi = mag.shape
    inner = []
    for n in range(nxi):
        if p == "inf":
            inner.append(max(mag[i, n] for i in range(nx)))
        else:
            inner.append((sum(mag[i, n] ** p for i in range(nx)) * cell_x) ** (1.0 / p))
    if q == "inf":
        return max(inner)
    return (sum(v ** q for v in inner) * cell_xi) ** (1.0 / q)


def auto_n_pow_reference(beta, s2, p_eff):
    """The quotient's power N by its definition: count up from 1 until
    (2 beta N - s2) p_eff > d + 10, d = 1."""
    n = 1
    while (2.0 * beta * n - s2) * p_eff <= 1 + 10.0:
        n += 1
    return n


def quotient_reference(params, t, radius, resolution):
    """Mixed L^(p~, q~) norm of the weight quotient by direct midpoint
    quadrature on the full resolution x resolution lattice of the scaled box.

    Every node of both signs is evaluated from the integrand's formula and
    the lattice goes through ``mixed_norm_reference``: no symmetry is used,
    so this checks the package's one-quadrant reduction.
    """
    osc = params.oscillator
    k, l, beta, n = osc.k, osc.l, params.beta, params.n_pow
    tau = t ** (1.0 / (2.0 * beta))
    box = radius * max(1.0, 1.0 / tau)
    r_x, r_xi = box ** (1.0 / k), box ** (1.0 / l)
    cells = (np.arange(resolution) + 0.5) / resolution
    x = r_x * (2.0 * cells - 1.0)
    xi = r_xi * (2.0 * cells - 1.0)
    a = (np.abs(x) ** k)[:, None]  # V(x)^(1/2) for V = |x|^(2k)
    b = (np.abs(xi) ** l)[None, :]
    if params.form == "scaled":
        values = (1.0 + tau * (a + b)) ** (params.s2 - 2.0 * beta * n)
    else:
        v = 1.0 + a + b
        values = v ** params.s2 / (1.0 + t ** n * v ** (2.0 * beta * n))

    def exponent(e):
        return "inf" if repr(e) == "INF" else float(e)

    return mixed_norm_reference(values, np.ones_like(values),
                                exponent(params.p_tilde), exponent(params.q_tilde),
                                2.0 * r_x / resolution, 2.0 * r_xi / resolution)


def assert_rows_judge_themselves(results):
    """Every report row's deviation and verdict follow from its own kind,
    value, target and tolerance: deviation |v - t| (abs), |v - t| / |t|
    (rel), v - t (upper) or t - v (lower), and passed <=> deviation <=
    tolerance."""
    for row in results:
        v, t, kind = row["value"], row["target"], row["kind"]
        if kind == "abs":
            deviation = abs(v - t)
        elif kind == "rel":
            deviation = abs(v - t) / abs(t)
        elif kind == "upper":
            deviation = v - t
        else:
            assert kind == "lower", f"{row['name']}: unknown kind {kind!r}"
            deviation = t - v
        same = deviation == row["deviation"] or (math.isnan(deviation)
                                                  and math.isnan(row["deviation"]))
        assert same, f"{row['name']}: deviation {row['deviation']!r}, expected {deviation!r}"
        assert row["passed"] == (deviation <= row["tolerance"]), f"{row['name']}: verdict"


# frozen oracle outputs (see module docstring)
QUARTIC_LAMBDA0 = 1.0603620904867057
QUARTIC_LAMBDA1 = 3.7996730298041257
