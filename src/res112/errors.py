"""Exception hierarchy shared across the package, and the helpers of
batched evaluation.

Exit-code mapping used by the CLI: ValidationError -> 1,
NumericalError -> 2, I/O errors -> 3.

A batch evaluates many items together, and an item whose evaluation fails
keeps the exception as its result, which is raised only where that item is
used: ``attempt`` computes one item's result or its exception, ``batched``
runs a batch step on the items that are not exceptions, and ``raised``
unwraps a result.
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


def attempt(f, *args):
    """f(*args), or the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - kept as this item's result
        return exc


def raised(result):
    """An item's result; raises it if it is an exception."""
    if isinstance(result, Exception):
        raise result
    return result


def batched(batch, entries) -> list:
    """``batch`` applied to the entries that are not exceptions, with the
    exceptions left in place."""
    valid = [e for e in entries if not isinstance(e, Exception)]
    results = iter(batch(valid) if valid else ())
    return [e if isinstance(e, Exception) else next(results) for e in entries]
