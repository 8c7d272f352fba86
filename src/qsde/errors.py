"""Exception types shared across the package.

A rejected argument raises InvalidInput; the other subclasses say why a
computation on valid input cannot go on.
"""


class QsdeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(QsdeError, ValueError):
    """A rejected input; ``field`` names it (``spec.key`` if nested), and str is "field: message"."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


class NotPSD(QsdeError):
    """A computed matrix has an eigenvalue below linalg.PSD_ABORT_TOL."""


class NotEntangled(QsdeError):
    """Operation requires an entangled initial state."""


class GridTooCoarse(QsdeError):
    """Time grid cannot bracket the sign change reliably."""
