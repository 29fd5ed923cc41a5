"""Manifest generators for the benchmark workloads.

Each workload is a list of (name, manifest) pairs built from the seed. The
manifests are written here rather than read from ``configs/`` so that a
change to the shipped configs cannot change what the benchmark measures.
``tiny=True`` shrinks every grid and horizon so the harness self-check runs
in seconds; tiny manifests exercise every layer but are not required to pass
their checks.
"""

_GRID = {"dimension": 1, "points_per_axis": 512, "half_width": 12.0}
_TINY_GRID = {"dimension": 1, "points_per_axis": 128, "half_width": 12.0}


def _flow(seed, tiny):
    grid = _TINY_GRID if tiny else _GRID
    modes = 48 if tiny else 384
    # the shipped manifests with only the horizons cut (5.0 and ETD 1.0 there),
    # so that a pass takes ~2 s and several fit in one run
    power = {
        "kind": "power", "nu": 1, "coupling_re": -1.0, "beta": 1.0,
        "monitor": [2.0, 1.0, 2.0], "initial_norm": 0.05,
        "horizon": 0.1, "dt": 0.005, "modes": modes,
        "etd": {"horizon": 0.02, "dt": 0.001, "order": 2},
    }
    inhomogeneous = {
        "kind": "inhomogeneous", "nu": 1, "coupling_re": -1.0, "beta": 1.0,
        "alpha": 0.2, "monitor": [6.0, 2.0, 0.02], "initial_norm": 0.05,
        "horizon": 0.1, "dt": 0.005, "modes": modes,
    }
    if tiny:
        power["horizon"] = inhomogeneous["horizon"] = 0.015
        power["etd"]["horizon"] = 0.003
    return [
        ("nlheat_power", {"kind": "nlheat", "seed": seed, "grid": grid, "params": power}),
        ("nlheat_inhomogeneous",
         {"kind": "nlheat", "seed": seed, "grid": grid, "params": inhomogeneous}),
    ]


def _corpus(seed, tiny):
    grid = _TINY_GRID if tiny else _GRID
    norms = {"checks": ["moyal", "equivalence", "algebra", "singular"],
             "modes": 48 if tiny else 192}
    ou = {"beta": 1.0, "safe_radius": 8.0, "modes": 48 if tiny else 256,
          "t_check": [0.1, 0.5, 1.0], "rate_t_list": [1.0, 2.0, 3.0, 4.0, 5.0],
          "gauss_probes": 3 if tiny else 30}
    return [
        ("norms", {"kind": "norms", "seed": seed, "grid": grid, "params": norms}),
        ("ou", {"kind": "ou", "seed": seed, "grid": grid, "params": ou}),
        ("selftest", {"kind": "selftest", "seed": seed}),
    ]


def _exponents(seed, tiny):
    points, modes = (128, 64) if tiny else (512, 384)
    j_lo, j_hi = (10, 40) if tiny else (30, 150)
    cases = [{"k": k, "l": l, "points": points, "half_width": hw, "modes": modes,
              "j_lo": j_lo, "j_hi": j_hi, "tolerance": 0.10}
             for k, l, hw in ((1, 1, 25.0), (2, 1, 12.0), (1, 2, 60.0))]
    tuples = [
        {"k": 1, "l": 1, "beta": 1.0, "p_tilde": 1.0, "q_tilde": 1.0},
        {"k": 2, "l": 1, "beta": 1.0, "p_tilde": 2.0, "q_tilde": 2.0},
        {"k": 1, "l": 2, "beta": 2.0, "p_tilde": 2.0, "q_tilde": "inf"},
    ]
    for t in tuples:
        t.update(tolerance=0.10, r2_min=0.98)
    decay = {"form": "scaled", "radius": 30.0, "resolution": 256 if tiny else 2048,
             "tuples": tuples}
    return [
        ("spectrum", {"kind": "spectrum", "seed": seed, "params": {"cases": cases}}),
        ("decay", {"kind": "decay", "seed": seed, "params": decay}),
    ]


_BUILDERS = {"flow": _flow, "corpus": _corpus, "exponents": _exponents}
NAMES = tuple(_BUILDERS)


def manifests(workload, seed, tiny=False):
    """[(name, manifest)] for one workload; output_dir is set by the caller."""
    out = []
    for name, body in _BUILDERS[workload](int(seed), tiny):
        manifest = {"schema": 1, "format": "both"}
        manifest.update(body)
        out.append((name, manifest))
    return out
