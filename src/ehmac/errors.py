"""Exception hierarchy shared across the package.

Every error carries a short machine-parsable ``code`` so the CLI can emit
stable diagnostics on stderr.
"""

import numbers


class EhmacError(Exception):
    """Base class for all package errors.

    ``field`` names the input that was rejected, when there is one.
    """

    code = "E_INTERNAL"

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class DomainError(EhmacError, ValueError):
    """An argument is outside the mathematical domain of the operation."""

    code = "E_DOMAIN"


class UsageError(EhmacError, ValueError):
    """The operation was called in an unsupported configuration."""

    code = "E_USAGE"


class NumericOverflowError(EhmacError, FloatingPointError):
    """A quantity left the representable floating-point range.

    ``where`` records the battery level at which the computation failed.
    """

    code = "E_OVERFLOW"

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class NonAdmissibleTrajectoryError(EhmacError):
    """The power-policy ODE drove the release rate to zero or below."""

    code = "E_NONADMISSIBLE"

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class MomentRangeError(EhmacError):
    """A tabulated moment function was queried outside its knot range."""

    code = "E_RANGE"

    def __init__(self, message, argument=None):
        super().__init__(message)
        self.argument = argument


class SolverDivergenceError(EhmacError):
    """The coordinate-ascent utility decreased beyond tolerance."""

    code = "E_DIVERGENCE"


class ConfigError(EhmacError, ValueError):
    """An experiment configuration failed validation."""

    code = "E_CONFIG"


def check_integers(obj, names):
    """Raise DomainError unless each named field of ``obj`` is an integer.

    A bool is not taken for one; numpy integers are.
    """
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be an integer, got {value!r}", field=name)
