"""Exception types shared across the package."""


def _about(exc: Exception, *fields: str) -> Exception:
    """Tag ``exc`` with the constructor fields it concerns, most specific
    first, so that ``parse_config`` can name the line of the first one
    the config sets."""
    exc._fields = fields
    return exc


class TvcbfError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(TvcbfError, ValueError):
    """Input vector or matrix has the wrong shape."""


class ParameterError(TvcbfError, ValueError):
    """A structural parameter is out of range (order, axes, mu, ...)."""


class DomainError(TvcbfError, ValueError):
    """Evaluation outside the mathematical domain.

    Raised by elementary functions (log of a non-positive value,
    fractional power of a negative base) and by gain functions queried
    outside their time domain.
    """


class UnsafeInitializationError(TvcbfError):
    """The starting state sits on or outside the safe set (h1(x0) <= 0)."""


class InfeasibleConstraintError(TvcbfError):
    """The safety constraint cannot be met by any input.

    Happens when the input direction vanishes while the constraint
    slack is negative.
    """


class NumericalBlowupError(TvcbfError):
    """A non-finite state or derivative appeared during integration."""

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class ConfigError(TvcbfError, ValueError):
    """Config text is malformed or carries unknown/invalid entries."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
