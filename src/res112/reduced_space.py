"""Geometry of the reduced phase spaces.

Each pair of Casimir values (mu, ell) cuts a semi-algebraic surface of
revolution out of invariant space.  This module knows where the surface
starts (r_min), what its tip looks like (smooth point, cone, or cusp), and
the section profile X^2 = (R^2 - mu^2)(R - ell) that every root-counting
argument downstream runs on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import CasimirValues

# Absolute threshold on root gaps used by the tip classifier.
EPS_TIP = 1e-10


class TipKind(Enum):
    SMOOTH = "Smooth"
    CONE = "Cone"
    CUSP = "Cusp"


@dataclass(frozen=True)
class TipClass:
    kind: TipKind
    r_min: float

    @property
    def is_singular(self) -> bool:
        return self.kind is not TipKind.SMOOTH


def r_min(cas: CasimirValues) -> float:
    """Lowest admissible R on the reduced space: max(|mu|, ell) >= 0."""
    return max(abs(cas.mu), cas.ell)


def tip_class(cas: CasimirValues) -> TipClass:
    """Classify the tip of the reduced space.

    With a1 >= a2 >= a3 the ordered values of {mu, -mu, ell}: a cusp when
    all three coincide (mu = ell = 0), a cone when exactly the top two do
    (ell = |mu| > 0 or mu = 0, ell < 0), a smooth point otherwise.
    Equalities are tested with the absolute threshold ``EPS_TIP``.
    """
    a1, a2, a3 = sorted((cas.mu, -cas.mu, cas.ell), reverse=True)
    if a1 - a3 <= EPS_TIP:
        kind = TipKind.CUSP
    elif a1 - a2 <= EPS_TIP:
        kind = TipKind.CONE
    else:
        kind = TipKind.SMOOTH
    return TipClass(kind=kind, r_min=a1)


def section_sq(R, cas: CasimirValues):
    """Squared section profile (R^2 - mu^2)(R - ell).

    Total on purpose: root finders may probe outside [r_min, inf), where
    negative values simply flag points off the surface.  Works on a float
    and elementwise on an array.
    """
    return (R * R - cas.mu * cas.mu) * (R - cas.ell)


def section_sq_deriv(R, cas: CasimirValues):
    """d/dR of the section profile: 3R^2 - 2*ell*R - mu^2."""
    return 3.0 * R * R - 2.0 * cas.ell * R - cas.mu * cas.mu
