"""Reduced one-degree-of-freedom dynamics.

The reduced Hamiltonian X + lam*R + (kappa/2) R^2 cuts the reduced phase
space along its level sets; tangencies are equilibria.  This module locates
all equilibria through the degree-five tangency polynomial, classifies
their stability and computes the minimal energy.  The flow itself and its
integration only check the reduction; they live in the tests
(``tests/unreduced.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (NumericalError, RootFindingError, UnsupportedRegimeError,
                     ValidationError)
from .model import CasimirValues, ModelParams, detuning_lambda
from .polyroots import newton, polyder, polymul, polysub, polyval, real_roots
from .reduced_space import r_min, section_sq, section_sq_deriv, tip_class

# Roots of the tangency quintic closer than this (times scale) are merged.
ROOT_MERGE_TOL = 1e-9


@dataclass(frozen=True)
class ReducedParams:
    """Reduced-space parameters: detuning lam and quartic coefficient kappa."""

    lam: float
    kappa: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and math.isfinite(self.kappa)):
            raise ValidationError("ReducedParams must be finite")

    @classmethod
    def from_model(cls, params: ModelParams, cas: CasimirValues) -> "ReducedParams":
        return cls(lam=detuning_lambda(params, cas), kappa=params.kappa)


class Stability(Enum):
    ELLIPTIC = "Elliptic"
    HYPERBOLIC = "Hyperbolic"
    DEGENERATE = "Degenerate"
    SINGULAR_TIP = "SingularTip"


@dataclass(frozen=True)
class Equilibrium:
    """A tangency point (R, X, 0) with its energy and stability tag.

    Regular equilibria lie in the Y = 0 plane; ``quintic_deriv`` is the
    derivative of the tangency polynomial there (positive for centres,
    negative for saddles).
    """

    R: float
    X: float
    h: float
    stability: Stability
    quintic_deriv: float


def tip_energy(r, rp: ReducedParams):
    """Energy lam*r + (kappa/2) r^2 of the reduced Hamiltonian at X = 0.

    At r = r_min this is the energy of the tip, and of the normal mode
    (or equilibrium) over it.  Works elementwise on arrays.
    """
    return rp.lam * r + 0.5 * rp.kappa * r * r


def tangency_quintic_coeffs(cas: CasimirValues, rp: ReducedParams) -> np.ndarray:
    """Descending coefficients of S(R) = 4(kR+lam)^2 (R-ell)(R^2-mu^2) - (3R^2-2*ell*R-mu^2)^2.

    Length six and degree five for kappa != 0; at kappa = 0 the product
    loses its leading zeros and the array has length five.
    """
    k, lam = rp.kappa, rp.lam
    mu2 = cas.mu * cas.mu
    lin = [k, lam]                                 # kR + lam
    cubic = [1.0, -cas.ell, -mu2, mu2 * cas.ell]   # (R^2-mu^2)(R-ell)
    slope = [3.0, -2.0 * cas.ell, -mu2]            # section derivative
    left = 4.0 * polymul(polymul(lin, lin), cubic)
    right = polymul(slope, slope)
    return polysub(left, right)


def equilibria(cas: CasimirValues, rp: ReducedParams) -> list[Equilibrium]:
    """All equilibria of the reduced flow for the given Casimir values.

    Finds the real roots of the tangency quintic on [r_min, inf), recovers
    the X-branch from the slope condition, classifies each root by the sign
    of the quintic derivative, and appends the singular tip where the
    reduced space has one.  Raises ValidationError if a coefficient of the
    quintic overflows, RootFindingError if the companion-matrix solve
    fails; an empty regular list is *not* an error.
    """
    coeffs = tangency_quintic_coeffs(cas, rp).tolist()
    if not all(map(math.isfinite, coeffs)):
        raise ValidationError(
            f"the tangency quintic overflows (coefficients {coeffs})")
    dcoeffs = polyder(coeffs)
    rmin = float(r_min(cas))
    tip = tip_class(cas)
    scale = 1.0 + abs(rmin)

    try:
        real, _ = real_roots(coeffs, imag_rtol=1e-8)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - exotic failure
        raise RootFindingError(f"companion-matrix eigenvalue solve failed: {exc}")
    # Newton can carry a root across the tip either way (from a double root,
    # where its derivative vanishes), so the roots are held to r_min both
    # before the polish and after it
    floor = rmin - ROOT_MERGE_TOL * scale
    polished = [newton(coeffs, r, 3, dcoeffs) for r in real if r >= floor]
    polished = sorted(r for r in polished if r >= floor)

    # Merge near-coincident roots; delegate genuine multiple-root analysis
    # to the bifurcation module, which works with exact conditions.
    merged: list[float] = []
    for r in polished:
        if merged and abs(r - merged[-1]) <= ROOT_MERGE_TOL * scale:
            merged[-1] = 0.5 * (merged[-1] + r)
        else:
            merged.append(r)

    d2coeffs = polyder(dcoeffs)
    out: list[Equilibrium] = []
    # at singular tips the quintic has a multiple root exactly at r_min whose
    # companion-matrix images scatter by ~sqrt(eps); exclude a band around
    # the tip wide enough to swallow that noise
    tip_band = 1e-7 * scale
    for r in merged:
        if tip.is_singular and abs(r - rmin) <= tip_band:
            continue  # the tip root of the quintic is reported separately
        out.append(_regular_equilibrium(max(r, rmin), cas, rp, dcoeffs, d2coeffs))

    if tip.is_singular:
        out.append(Equilibrium(R=rmin, X=0.0, h=float(tip_energy(rmin, rp)),
                               stability=Stability.SINGULAR_TIP,
                               quintic_deriv=polyval(dcoeffs, rmin)))
    out.sort(key=lambda e: e.R)
    return out


def _regular_equilibrium(r: float, cas: CasimirValues, rp: ReducedParams,
                         dcoeffs: list[float], d2coeffs: list[float]) -> Equilibrium:
    sq = max(section_sq(r, cas), 0.0)
    x_abs = math.sqrt(sq)
    slope = -(rp.lam + rp.kappa * r)
    c = section_sq_deriv(r, cas)
    # Pick the branch of X = +-sqrt(section) whose slope matches the level
    # set; the mismatch is linear in X so ties (X ~ 0) resolve cleanly.
    mis_plus = abs(c - 2.0 * x_abs * slope)
    mis_minus = abs(c + 2.0 * x_abs * slope)
    x = x_abs if mis_plus <= mis_minus else -x_abs
    h = x + rp.lam * r + 0.5 * rp.kappa * r * r
    sp = polyval(dcoeffs, r)
    deriv_scale = 1.0 + abs(polyval(d2coeffs, r)) * (1.0 + abs(r))
    if abs(sp) <= 1e-9 * deriv_scale:
        stab = Stability.DEGENERATE
    elif sp > 0.0:
        stab = Stability.ELLIPTIC
    else:
        stab = Stability.HYPERBOLIC
    return Equilibrium(R=r, X=x, h=float(h), stability=stab, quintic_deriv=sp)


def h_min(cas: CasimirValues, rp: ReducedParams) -> float:
    """Minimum of the reduced Hamiltonian on the reduced space (kappa > 0).

    For kappa > 0 the energy grows like R^2 on the unbounded surface, so
    the global minimum is attained at a tangency or at the singular tip,
    all of which appear in the equilibrium list.
    """
    if rp.kappa <= 0.0:
        raise UnsupportedRegimeError(
            f"h_min requires kappa > 0 (got kappa={rp.kappa}); "
            "for kappa <= 0 the reduced energy has no minimum in general")
    eqs = equilibria(cas, rp)
    if not eqs:
        raise NumericalError("no equilibria found; cannot evaluate h_min")
    return min(e.h for e in eqs)
