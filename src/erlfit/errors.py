"""Exception types shared across the package."""


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to reach its target accuracy.

    Raised when a quadrature convergence check fails or an iteration cap
    is exhausted.  Callers that cannot recover should surface this loudly
    instead of returning a silently wrong number.
    """


class InputError(ValueError):
    """User-supplied input cannot be used: unreadable or malformed data,
    too few observations for a model, or a bad command-line value."""
