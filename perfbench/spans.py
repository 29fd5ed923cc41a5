"""Span tracing of the anharmonic layers from outside the package.

The tracer wraps public functions of each layer module and records one span
per call: name, parent span, start, end and an optional work count taken
from the call's arguments or result. Spans stay in memory; ``aggregate``
turns one pass worth of spans into the per-layer metrics.

Modules that bind a function with ``from .x import f`` hold their own
reference, so patching only the defining module would miss those calls.
``install`` therefore replaces every binding of the original function object
in every loaded ``anharmonic`` module, and patches the two decomposition
matvecs on the class.
"""

import sys
import time
from contextlib import contextmanager

# (span name, module, attribute, work count from (args, kwargs, result) or None)
FUNCTIONS = (
    ("spectral.decompose", "spectral", "decompose", lambda a, k, r: r.m),
    ("calculus.apply", "calculus", "apply_spectral_function", None),
    ("phasespace.stft", "phasespace", "stft", lambda a, k, r: r.values.size),
    ("phasespace.mixed_norm", "phasespace", "mixed_norm", None),
    ("phasespace.modulation_norm", "phasespace", "modulation_norm", None),
    ("estimators.quotient", "estimators", "weight_quotient_norm",
     # the base lattice plus the doubling guard at twice the resolution
     lambda a, k, r: 5 * a[0].resolution ** 2),
    ("estimators.probe", "estimators", "sobolev_modulation_equivalence", None),
    ("estimators.probe", "estimators", "algebra_ratio", None),
    ("estimators.probe", "estimators", "singular_weight_norm", None),
    ("estimators.probe", "estimators", "gaussian_probe_fields", None),
    ("estimators.probe", "estimators", "standard_probe_family", None),
    ("estimators.probe", "estimators", "eigenfunction_probes", None),
    ("nlheat.picard", "nlheat", "picard_solve",
     lambda a, k, r: len(r.contraction_factors)),
    ("nlheat.etd", "nlheat", "etd_evolve", lambda a, k, r: len(r.times) - 1),
    ("nlheat.residual", "nlheat", "duhamel_residual", None),
    ("ougauss.semigroup", "ougauss", "ou_semigroup", None),
    ("cli.run_manifest", "cli", "run_manifest", None),
)
# the cli layer's self time is cli.run_manifest_self_s
LAYERS = ("spectral", "calculus", "phasespace", "estimators", "nlheat", "ougauss")
_METHODS = (
    ("spectral.coefficients", "coefficients"),
    ("spectral.reconstruct", "reconstruct"),
)


class Tracer:
    """Records spans while installed; ``spans`` is cleared by ``take``."""

    def __init__(self):
        self.spans = []  # [name, parent index, start, end, count]
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import anharmonic.spectral as spectral

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "anharmonic" or n.startswith("anharmonic."))]
        for name, module, attr, counter in FUNCTIONS:
            original = getattr(sys.modules["anharmonic." + module], attr)
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        cls = spectral.SpectralDecomposition
        for name, attr in _METHODS:
            self._patch(cls, attr, self._wrap(name, getattr(cls, attr), None))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def take(self):
        # the wrappers hold self.spans itself, so empty it in place
        spans = list(self.spans)
        self.spans.clear()
        return spans


def _has_ancestor(spans, idx, name):
    parent = spans[idx][1]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False


def aggregate(spans):
    """Per-layer metrics of one pass of spans.

    ``*_s`` without ``self`` is inclusive time of the outermost call of that
    name; ``*_self_s``, ``<layer>.self_s`` and ``estimators.probe_s``
    subtract child spans. Returns (metrics, total self time of all spans).
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    calls, incl, self_s, counts = {}, {}, {}, {}
    picard_norms = ou_applies = 0
    flow_norm_s = 0.0
    for i, (name, parent, start, end, count) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[i])
        if not _has_ancestor(spans, i, name):
            incl[name] = incl.get(name, 0.0) + (end - start)
        if count is not None:
            counts[name] = counts.get(name, 0) + count
        if name == "phasespace.modulation_norm":
            if _has_ancestor(spans, i, "nlheat.picard"):
                picard_norms += 1
            if (_has_ancestor(spans, i, "nlheat.picard")
                    or _has_ancestor(spans, i, "nlheat.etd")):
                flow_norm_s += end - start
        if name == "calculus.apply" and _has_ancestor(spans, i, "ougauss.semigroup"):
            ou_applies += 1

    def ratio(a, b):
        return a / b if b else 0.0

    windows = counts.get("nlheat.picard", 0)
    flow_s = incl.get("nlheat.picard", 0.0) + incl.get("nlheat.etd", 0.0)
    m = {
        "phasespace.stft_s": incl.get("phasespace.stft", 0.0),
        "phasespace.stft_calls": calls.get("phasespace.stft", 0),
        "phasespace.stft_cells": counts.get("phasespace.stft", 0),
        "phasespace.mixed_norm_s": incl.get("phasespace.mixed_norm", 0.0),
        "phasespace.mixed_norm_calls": calls.get("phasespace.mixed_norm", 0),
        "phasespace.modulation_norm_calls": calls.get("phasespace.modulation_norm", 0),
        "nlheat.picard_s": incl.get("nlheat.picard", 0.0),
        "nlheat.picard_self_s": self_s.get("nlheat.picard", 0.0),
        "nlheat.windows": windows,
        "nlheat.norms_per_window": ratio(picard_norms, windows),
        "nlheat.norm_frac": ratio(flow_norm_s, flow_s),
        "nlheat.etd_s": incl.get("nlheat.etd", 0.0),
        "nlheat.etd_steps": counts.get("nlheat.etd", 0),
        "nlheat.residual_s": incl.get("nlheat.residual", 0.0),
        "calculus.apply_s": incl.get("calculus.apply", 0.0),
        "calculus.apply_calls": calls.get("calculus.apply", 0),
        "spectral.coefficients_calls": calls.get("spectral.coefficients", 0),
        "spectral.reconstruct_calls": calls.get("spectral.reconstruct", 0),
        "spectral.apply_s": (incl.get("spectral.coefficients", 0.0)
                             + incl.get("spectral.reconstruct", 0.0)),
        "ougauss.semigroup_s": incl.get("ougauss.semigroup", 0.0),
        "ougauss.semigroup_calls": calls.get("ougauss.semigroup", 0),
        "ougauss.apply_per_semigroup": ratio(ou_applies, calls.get("ougauss.semigroup", 0)),
        "spectral.decompose_s": incl.get("spectral.decompose", 0.0),
        "spectral.decompose_calls": calls.get("spectral.decompose", 0),
        "spectral.eigenpairs": counts.get("spectral.decompose", 0),
        "estimators.quotient_s": incl.get("estimators.quotient", 0.0),
        "estimators.quotient_calls": calls.get("estimators.quotient", 0),
        "estimators.quotient_cells": counts.get("estimators.quotient", 0),
        "estimators.probe_s": self_s.get("estimators.probe", 0.0),
        "cli.run_manifest_self_s": self_s.get("cli.run_manifest", 0.0),
    }
    for layer in LAYERS:
        m[layer + ".self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    return m, sum(self_s.values())
