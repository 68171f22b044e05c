"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ValidationError -> 1,
NumericalError -> 2, I/O errors -> 3.
"""


class Res112Error(Exception):
    """Base class for all package errors."""


class ValidationError(Res112Error):
    """Invalid arguments or parameter combinations."""


class UnsupportedRegimeError(ValidationError):
    """Operation requested outside its supported parameter regime (e.g. kappa <= 0)."""


class NumericalError(Res112Error):
    """A numerical procedure failed to converge or produced inconsistent output."""


class RootFindingError(NumericalError):
    """Polynomial or scalar root finding did not converge."""


class AmbiguousClassificationError(NumericalError):
    """A classification sits inside the tolerance band between two discrete outcomes."""


class LoopError(NumericalError):
    """A monodromy loop is unusable (hits critical values, loses its component, ...)."""
