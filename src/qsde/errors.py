"""Exception types shared across the package."""


class QsdeError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitian(QsdeError):
    """A two-qubit state deviates from Hermitian beyond HERMITIAN_TOL."""


class NotPSD(QsdeError):
    """Input matrix violates the positive-semidefinite precondition."""


class DegenerateCoupling(QsdeError):
    """Both coupling vectors vanish; no dynamics is defined."""


class NotEntangled(QsdeError):
    """Operation requires an entangled initial state."""


class InvalidWeight(QsdeError):
    """State weight |alpha|^2 outside [0, 1]."""


class GridTooCoarse(QsdeError):
    """Time grid cannot bracket the sign change reliably."""


class ConfigError(QsdeError):
    """Invalid run configuration; carries the offending field name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message
