"""Error and warning types shared across the package, and its one warning
rule: every warning the package raises goes through ``_warn``, which names
the line of the first caller outside the package, whichever public function
that caller entered by.
"""

import sys
import warnings

# frames a warning passes over: the package's own and functools', whose
# cached_property builds a flow engine lazily
_INTERNAL = ("anharmonic", "functools")


class AnharmonicError(Exception):
    """Base class for all package-specific errors."""


class InvalidSpecError(AnharmonicError, ValueError):
    """A domain object failed construction-time validation; ``field`` names
    the offending parameter or entry when known."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class NumericalError(AnharmonicError, ArithmeticError):
    """A computation produced non-finite or otherwise unusable values."""


class TruncationError(NumericalError):
    """A truncated quadrature failed its convergence guard.

    Carries ``suggested_radius`` so callers can retry with a larger box.
    """

    def __init__(self, message, suggested_radius=None):
        super().__init__(message)
        self.suggested_radius = suggested_radius


class NonConvergenceError(NumericalError):
    """An iterative solver ran out of iterations.

    ``diagnostics`` holds solver state at failure (last contraction
    factor, iteration count, and similar). The Picard solver's ``last_gap``
    is the cap of the last gap, C ||gap||_{L^2} of ``nlheat.picard_solve``,
    which bounds its monitored norm; it is inf when the gap's sum of
    squares overflows, and the CLI prints inf as the string "inf".
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class SchemaError(InvalidSpecError):
    """A manifest or config document violated its schema; ``field`` is the
    path of the offending entry when known."""


class BoundaryMassWarning(UserWarning):
    """A field carries non-negligible mass near the box boundary."""


class OffSpanWarning(UserWarning):
    """A field has energy outside the retained spectral modes."""


class ProbeSkipWarning(UserWarning):
    """A probe was skipped, typically for a vanishing denominator."""


class DiscardedMassWarning(UserWarning):
    """The inverse Gaussian multiplier discarded non-negligible mass."""


def _warn(category, message):
    """Warn with ``category`` at the first frame outside ``_INTERNAL``."""
    level, frame = 1, sys._getframe()
    while frame is not None and (
            frame.f_globals.get("__name__", "").partition(".")[0] in _INTERNAL):
        level, frame = level + 1, frame.f_back
    warnings.warn(message, category, stacklevel=level)
