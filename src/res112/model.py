"""Normal-form parameters, Casimir values and the maps between frames.

Houses the parameters of the reduced dynamics (``ModelParams``), the fixed
values (mu, ell) of the Casimirs N and L that pick one reduced phase space
(``CasimirValues``), the detuning map lam = delta + lambda1*mu +
lambda2*ell, and the kappa-normalising scaling, used by every downstream
module.  The full phase space C^3 with its charts, the invariant map and
the Poisson structure only check the reduction; they live in the tests
(``tests/unreduced.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class ModelParams:
    """The normal-form coefficients that shape the reduced dynamics.

    ``delta`` is the external detuning, ``kappa`` the coefficient of
    R^2/2, and ``lambda1``/``lambda2`` the linear dependence of the reduced
    detuning on the two Casimir values.  The terms of the normal form in
    the Casimirs alone (the frequencies times L and N and the three
    quadratics in N and L) are absent: the reduction fixes N and L, so
    they are constants on every reduced space, and ``h`` throughout the
    library is the reduced energy without them.
    """

    delta: float = 0.0
    kappa: float = 1.0
    lambda1: float = 0.0
    lambda2: float = 0.0

    def __post_init__(self):
        for name in ("delta", "kappa", "lambda1", "lambda2"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"ModelParams.{name} must be finite")


@dataclass(frozen=True)
class CasimirValues:
    """Fixed values mu of N and ell of L; iota = (mu + ell)/2 is the value of J."""

    mu: float
    ell: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.ell)):
            raise ValidationError("CasimirValues must be finite")

    @property
    def iota(self) -> float:
        return 0.5 * (self.mu + self.ell)


def detuning_lambda(params: ModelParams, cas: CasimirValues) -> float:
    """Reduced detuning lambda = delta + lambda1*mu + lambda2*ell."""
    return params.delta + params.lambda1 * cas.mu + params.lambda2 * cas.ell


@dataclass(frozen=True)
class KappaScaled:
    """Result bundle of the kappa-normalising scaling; unset slots stay None."""

    lam: float | None = None
    mu: float | None = None
    ell: float | None = None
    R: float | None = None
    X: float | None = None
    Y: float | None = None
    h: float | None = None


# Exponents of kappa^-1 in the normalising scaling, slot by slot.
_KAPPA_POWERS = {"lam": 1, "mu": 2, "ell": 2, "R": 2, "X": 3, "Y": 3, "h": 3}


def kappa_scaling(kappa: float, *, lam=None, mu=None, ell=None, R=None, X=None,
                  Y=None, h=None, inverse: bool = False) -> KappaScaled:
    """Combined space/time scaling relating the kappa-system to kappa = 1.

    The forward map is (lam, mu, ell, R, X, Y, h) ->
    (lam/k, mu/k^2, ell/k^2, R/k^2, X/k^3, Y/k^3, h/k^3), exactly as
    displayed in the normalisation remark: it carries kappa = 1 frame data
    into the kappa frame (the degenerate Hopf point (1, 0, -1) of the unit
    frame lands on (1/k, 0, -1/k^2), where the kappa-system really has it).
    ``inverse=True`` multiplies by the same powers instead and therefore
    normalises kappa-frame data to the kappa = 1 frame; this is the
    direction that maps detected events onto the unit-frame catalog.  For
    kappa < 0 the odd powers reflect lam, X, Y and h either way.  Slots
    passed as None are returned as None.  Raises ValidationError for a
    zero or non-finite kappa, a non-finite slot and a result that
    overflows.
    """
    if kappa == 0.0 or not math.isfinite(kappa):
        raise ValidationError(
            f"kappa_scaling requires a finite kappa != 0 (got {kappa})")
    vals = {"lam": lam, "mu": mu, "ell": ell, "R": R, "X": X, "Y": Y, "h": h}
    out = {}
    for name, v in vals.items():
        if v is None:
            out[name] = None
            continue
        if not math.isfinite(v):
            raise ValidationError(f"kappa_scaling: {name} must be finite (got {v})")
        pw = _KAPPA_POWERS[name] if inverse else -_KAPPA_POWERS[name]
        try:
            scaled = v * kappa ** pw
        except OverflowError:  # kappa ** pw itself
            scaled = math.inf
        if not math.isfinite(scaled):
            raise ValidationError(
                f"kappa_scaling: {name} = {v} overflows at kappa = {kappa}")
        out[name] = scaled
    return KappaScaled(**out)
