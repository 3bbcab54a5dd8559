"""Exception hierarchy shared by all modules, and the argument checks that
every module applies the same way.

Every error carries a machine-readable ``category`` used by the CLI to pick
an exit code.
"""

import math
import numbers


class StokesEigError(Exception):
    category = "internal"


class ConfigurationError(StokesEigError):
    """Invalid user-facing configuration: unsupported order, bad domain, ..."""
    category = "config"


class MeshError(StokesEigError):
    """Mesh invariant violated (orientation, conformity, tagging)."""
    category = "mesh"


class AssemblyError(StokesEigError):
    """Assembled operator failed a structural check (e.g. singular pencil)."""
    category = "assembly"


class KindMismatchError(StokesEigError):
    """A discrete field of the wrong kind was passed to a postprocess step."""
    category = "config"


class UnsupportedSchemeError(StokesEigError):
    """Operation limited to the lowest-order scheme got a higher-order one."""
    category = "config"


class SingularMatrixError(StokesEigError):
    """Factorization found the matrix singular.

    ``kind`` is ``"structural"`` (empty row/column) or ``"numerical"`` (an
    exactly zero pivot, or an estimated |A^-1|_1 max|a| of 1e12 or more).
    """
    category = "solver"

    def __init__(self, message, kind):
        super().__init__(message)
        self.kind = kind


class ShiftAtEigenvalueError(StokesEigError):
    """The shifted operator could not be factorized; retry with another shift."""
    category = "solver"


class UnconvergedError(StokesEigError):
    """Lanczos gave fewer than the requested accurate pairs.

    ``partial`` holds the pairs that could be extracted, or ``None``.
    """
    category = "solver"

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class IOFailureError(StokesEigError):
    category = "io"


def is_int(value):
    """An integral number that is not a bool; numpy integers count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite(value):
    """A finite real number that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def check_int(name, value, low):
    """Raise :class:`ConfigurationError` unless ``value`` is an integer >= ``low``."""
    if not is_int(value) or value < low:
        raise ConfigurationError(f"{name} must be an integer >= {low}, got {value!r}")
