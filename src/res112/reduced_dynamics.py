"""Reduced one-degree-of-freedom dynamics.

The reduced Hamiltonian X + lam*R + (kappa/2) R^2 cuts the reduced phase
space along its level sets; tangencies are equilibria.  This module locates
all equilibria through the degree-five tangency polynomial, classifies
their stability, computes the minimal energy and integrates orbits of the
reduced flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (NumericalError, RootFindingError,
                     SingularityProximityError, UnsupportedRegimeError,
                     ValidationError)
from .model import CasimirValues, InvariantPoint, ModelParams, detuning_lambda
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

    @property
    def point(self) -> InvariantPoint:
        return InvariantPoint(R=self.R, X=self.X, Y=0.0)


def reduced_h(point: InvariantPoint, rp: ReducedParams) -> float:
    """Reduced Hamiltonian X + lam*R + (kappa/2) R^2."""
    return point.X + rp.lam * point.R + 0.5 * rp.kappa * point.R * point.R


def tip_energy(r, rp: ReducedParams):
    """Energy lam*r + (kappa/2) r^2 of the reduced Hamiltonian at X = 0.

    At r = r_min this is the energy of the tip, and of the normal mode
    (or equilibrium) over it.  Works elementwise on arrays.
    """
    return rp.lam * r + 0.5 * rp.kappa * r * r


def vector_field(cas: CasimirValues, rp: ReducedParams):
    """Right-hand side rhs(t, (R, X, Y)) of the reduced flow
    (dR, dX, dY) = grad(H) x grad(S), in the form solve_ivp takes.

    The sign is fixed so the bracket table is reproduced: with H = X the
    field gives dR/dt = 2Y.  Both the syzygy and the energy are conserved
    along the flow (the field is a cross product of their gradients).
    """
    mu2 = cas.mu * cas.mu
    ell = cas.ell
    lam, kap = rp.lam, rp.kappa

    def rhs(t, y):
        r, x, yy = y
        gp = lam + kap * r
        c = 3.0 * r * r - 2.0 * ell * r - mu2
        return (2.0 * yy, -2.0 * gp * yy, 2.0 * gp * x + c)

    return rhs


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
    reduced space has one.  Raises RootFindingError if the companion-matrix
    solve fails; an empty regular list is *not* an error.
    """
    coeffs = tangency_quintic_coeffs(cas, rp).tolist()
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


@dataclass(frozen=True)
class Trajectory:
    """Output of integrate_orbit: samples plus conservation diagnostics."""

    t: np.ndarray
    points: np.ndarray           # shape (n, 3), columns (R, X, Y)
    s_drift: float               # max |syzygy residual - initial| along the run
    h_drift: float               # max |H - initial| along the run


# Step tolerance of integrate_orbit, relative and (times the start's
# scale) absolute: just above the least rtol solve_ivp accepts,
# 100 eps = 2.2e-14.  Over 1e3 time units it keeps the syzygy drift at
# 4.7e-10 against AC6's 1e-9 bound; 1e-13 gives 2.4e-9.
ORBIT_RTOL = 2.3e-14


def integrate_orbit(start: InvariantPoint, cas: CasimirValues, rp: ReducedParams,
                    t_end: float) -> Trajectory:
    """Integrate the reduced flow with an adaptive high-order Runge-Kutta pair.

    The solver is DOP853 at rtol ``ORBIT_RTOL`` and atol ``ORBIT_RTOL``
    times max(1, |R|, |X|, |Y|) of the start; the trajectory is sampled at
    400 evenly spaced times on [0, t_end].  The syzygy and energy
    invariants are monitored, never projected, so their drift is an honest
    integrator diagnostic.
    """
    from scipy.integrate import solve_ivp

    res0 = _syzygy_value(start, cas)
    scale = max(1.0, abs(start.R), abs(start.X), abs(start.Y))
    if abs(res0) > 1e-8 * max(1.0, start.R ** 3):
        raise ValidationError(
            f"start point is off the reduced surface (residual {res0:.3e})")

    mu2 = cas.mu * cas.mu
    ell = cas.ell
    lam, kap = rp.lam, rp.kappa
    y0 = np.array([start.R, start.X, start.Y])
    h0 = reduced_h(start, rp)

    sol = solve_ivp(vector_field(cas, rp), (0.0, t_end), y0, method="DOP853",
                    rtol=ORBIT_RTOL, atol=ORBIT_RTOL * scale,
                    t_eval=np.linspace(0.0, t_end, 400))
    if not sol.success:
        last = sol.y[:, -1] if sol.y.size else y0
        rmin = r_min(cas)
        tip_dist = float(np.linalg.norm(last - np.array([rmin, 0.0, 0.0])))
        if tip_dist < 0.05 * scale:
            raise SingularityProximityError(
                f"step size collapsed near the singular tip (distance {tip_dist:.3e})")
        raise NumericalError(f"integration failed: {sol.message}")

    pts = sol.y.T
    res = np.array([
        x * x + yy * yy - (r * r - mu2) * (r - ell) for r, x, yy in pts])
    hs = pts[:, 1] + lam * pts[:, 0] + 0.5 * kap * pts[:, 0] ** 2
    s_drift = float(np.max(np.abs(res - res0)))
    h_drift = float(np.max(np.abs(hs - h0)))
    return Trajectory(t=sol.t, points=pts, s_drift=s_drift, h_drift=h_drift)


def _syzygy_value(point: InvariantPoint, cas: CasimirValues) -> float:
    return (point.X ** 2 + point.Y ** 2
            - (point.R ** 2 - cas.mu ** 2) * (point.R - cas.ell))
