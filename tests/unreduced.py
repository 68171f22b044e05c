"""The unreduced model: the full phase space C^3 over the reduced spaces.

The library works on the reduced one-degree-of-freedom spaces; the tests
use this module to check the reduction itself.  It holds the state on
C^3 in its two linear charts, the invariant map onto (N, L, J, R, X, Y)
with the syzygy, the Poisson structure on invariant space, the effective
torus action, and the reduced and unreduced flows with their integration
(scipy's DOP853).  No product command needs any of it.

Conventions
-----------
Oscillator chart ``(q, p)`` with complex modes ``z_j = p_j + i q_j``.
Hamilton's equations are ``dq/dt = dH/dp``, ``dp/dt = -dH/dq``, so the
complex flow reads ``dz_j/dt = 2i dH/dzbar_j``; with these signs the
basic angular momentum generates ``z_1 -> e^{it} z_1, z_2 -> e^{-it} z_2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from res112 import CasimirValues, NumericalError, ReducedParams, ValidationError
from res112.bifurcations import f_quartic
from res112.monodromy import _mode_actions
from res112.polyroots import newton

_SQRT2 = math.sqrt(2.0)


class Chart(Enum):
    ORIGINAL = "original"      # (x, y): axial angular momentum is x1*y2 - x2*y1
    OSCILLATOR = "oscillator"  # (q, p): all three normal modes are coordinate modes


@dataclass(frozen=True)
class InvariantPoint:
    """A point (R, X, Y) of invariant space, R >= 0."""

    R: float
    X: float
    Y: float

    def __post_init__(self):
        if not (math.isfinite(self.R) and math.isfinite(self.X) and math.isfinite(self.Y)):
            raise ValidationError("InvariantPoint coordinates must be finite")
        if self.R < 0.0:
            raise ValidationError(f"InvariantPoint requires R >= 0, got R={self.R}")

    def as_array(self) -> np.ndarray:
        return np.array([self.R, self.X, self.Y])


def equilibrium_point(eq) -> InvariantPoint:
    """The point (R, X, 0) of an ``Equilibrium``."""
    return InvariantPoint(R=eq.R, X=eq.X, Y=0.0)


@dataclass(frozen=True)
class FullState:
    """A full-phase-space point stored in a single chart.

    Only one chart is held (plus a tag) so the two representations can
    never silently drift apart; conversion is an exact orthogonal map.
    """

    a: tuple  # (q1,q2,q3) or (x1,x2,x3)
    b: tuple  # (p1,p2,p3) or (y1,y2,y3)
    chart: Chart

    @classmethod
    def oscillator(cls, q, p) -> "FullState":
        q = tuple(float(v) for v in q)
        p = tuple(float(v) for v in p)
        _check_triplets(q, p)
        return cls(q, p, Chart.OSCILLATOR)

    @classmethod
    def original(cls, x, y) -> "FullState":
        x = tuple(float(v) for v in x)
        y = tuple(float(v) for v in y)
        _check_triplets(x, y)
        return cls(x, y, Chart.ORIGINAL)

    @classmethod
    def from_z(cls, z) -> "FullState":
        z = np.asarray(z, dtype=complex)
        return cls.oscillator(tuple(z.imag), tuple(z.real))

    def as_oscillator(self) -> "FullState":
        if self.chart is Chart.OSCILLATOR:
            return self
        q, p = to_oscillator(self.a, self.b)
        return FullState.oscillator(q, p)

    def as_original(self) -> "FullState":
        if self.chart is Chart.ORIGINAL:
            return self
        x, y = from_oscillator(self.a, self.b)
        return FullState.original(x, y)

    @property
    def z(self) -> np.ndarray:
        """Complex modes z_j = p_j + i q_j (oscillator chart)."""
        s = self.as_oscillator()
        return np.array([s.b[j] + 1j * s.a[j] for j in range(3)])


def _check_triplets(a, b):
    if len(a) != 3 or len(b) != 3:
        raise ValidationError("FullState needs two length-3 coordinate triples")
    if not all(math.isfinite(v) for v in (*a, *b)):
        raise ValidationError("FullState coordinates must be finite")


def to_oscillator(x, y):
    """Map original coordinates (x, y) to oscillator coordinates (q, p).

    Inverse (= transpose) of the orthogonal rotation that turns all three
    normal modes into coordinate modes; the third mode is untouched.
    """
    x1, x2, x3 = x
    y1, y2, y3 = y
    q = ((x1 + y2) / _SQRT2, (x2 + y1) / _SQRT2, x3)
    p = ((y1 - x2) / _SQRT2, (y2 - x1) / _SQRT2, y3)
    return q, p


def from_oscillator(q, p):
    """Map oscillator coordinates (q, p) back to the original chart (x, y)."""
    q1, q2, q3 = q
    p1, p2, p3 = p
    x = ((q1 - p2) / _SQRT2, (q2 - p1) / _SQRT2, q3)
    y = ((q2 + p1) / _SQRT2, (q1 + p2) / _SQRT2, p3)
    return x, y


class ReducedState(NamedTuple):
    n: float
    l: float
    j: float
    point: InvariantPoint


def reduce(state: FullState) -> ReducedState:
    """Evaluate the invariant generators (N, L, J, R, X, Y) at a state.

    Returns the Casimir values together with the reduced-space point; the
    output satisfies the syzygy X^2 + Y^2 = (R^2 - N^2)(R - L) identically.
    """
    s = state.as_oscillator()
    q, p = s.a, s.b
    i1 = 0.5 * (p[0] * p[0] + q[0] * q[0])
    i2 = 0.5 * (p[1] * p[1] + q[1] * q[1])
    i3 = 0.5 * (p[2] * p[2] + q[2] * q[2])
    n = i1 - i2
    l = i1 + i2 - 2.0 * i3
    j = 0.5 * (n + l)
    r = i1 + i2
    z1, z2, z3 = s.z
    w = z1 * z2 * z3
    return ReducedState(n, l, j, InvariantPoint(R=r, X=w.real, Y=w.imag))


def syzygy_residual(point: InvariantPoint, cas: CasimirValues) -> float:
    """X^2 + Y^2 - (R^2 - mu^2)(R - ell), exactly as written."""
    return (point.X * point.X + point.Y * point.Y
            - (point.R * point.R - cas.mu * cas.mu) * (point.R - cas.ell))


def syzygy_gradient(point: InvariantPoint, cas: CasimirValues) -> np.ndarray:
    """Gradient of the syzygy polynomial with respect to (R, X, Y)."""
    r, x, y = point.R, point.X, point.Y
    dr = -(3.0 * r * r - 2.0 * cas.ell * r - cas.mu * cas.mu)
    return np.array([dr, 2.0 * x, 2.0 * y])


def structure_matrix(point: InvariantPoint, cas: CasimirValues) -> np.ndarray:
    """Poisson structure on invariant space in the basis (R, X, Y).

    Antisymmetric, with {R,X} = 2Y, {R,Y} = -2X and
    {X,Y} = mu^2 + 2*ell*R - 3R^2; agrees with the triple product
    <grad f x grad g | grad S> at every point.
    """
    r, x, y = point.R, point.X, point.Y
    xy = cas.mu * cas.mu + 2.0 * cas.ell * r - 3.0 * r * r
    return np.array([
        [0.0, 2.0 * y, -2.0 * x],
        [-2.0 * y, 0.0, xy],
        [2.0 * x, -xy, 0.0],
    ])


def torus_action(state: FullState, s: float, t: float) -> FullState:
    """Effective T^2-action generated by (N, J) with unit periods.

    Acts as z -> (e^{2pi i(s+t)} z1, e^{-2pi i s} z2, e^{-2pi i t} z3).
    """
    z = state.z
    ph = np.exp(2j * math.pi * np.array([s + t, -s, -t]))
    out = FullState.from_z(ph * z)
    return out if state.chart is Chart.OSCILLATOR else out.as_original()


# ---------------------------------------------------------------------------
# The reduced flow on invariant space
# ---------------------------------------------------------------------------

def reduced_h(point: InvariantPoint, rp: ReducedParams) -> float:
    """Reduced Hamiltonian X + lam*R + (kappa/2) R^2."""
    return point.X + rp.lam * point.R + 0.5 * rp.kappa * point.R * point.R


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
# 4.7e-10 against the 1e-9 bound of the conservation test; 1e-13 gives
# 2.4e-9.
ORBIT_RTOL = 2.3e-14


def integrate_orbit(start: InvariantPoint, cas: CasimirValues, rp: ReducedParams,
                    t_end: float) -> Trajectory:
    """Integrate the reduced flow with an adaptive high-order Runge-Kutta pair.

    The solver is DOP853 at rtol ``ORBIT_RTOL`` and atol ``ORBIT_RTOL``
    times max(1, |R|, |X|, |Y|) of the start; the trajectory is sampled at
    400 evenly spaced times on [0, t_end].  The syzygy and energy
    invariants are monitored, never projected, so their drift is an honest
    integrator diagnostic.  Raises ValidationError for a start off the
    reduced surface and NumericalError when the solver fails.
    """
    res0 = syzygy_residual(start, cas)
    scale = max(1.0, abs(start.R), abs(start.X), abs(start.Y))
    if abs(res0) > 1e-8 * max(1.0, start.R ** 3):
        raise ValidationError(
            f"start point is off the reduced surface (residual {res0:.3e})")

    sol = solve_ivp(vector_field(cas, rp), (0.0, t_end), start.as_array(),
                    method="DOP853", rtol=ORBIT_RTOL, atol=ORBIT_RTOL * scale,
                    t_eval=np.linspace(0.0, t_end, 400))
    if not sol.success:
        raise NumericalError(f"integration failed: {sol.message}")

    pts = sol.y.T
    r, x, y = pts.T
    res = x * x + y * y - (r * r - cas.mu * cas.mu) * (r - cas.ell)
    hs = x + rp.lam * r + 0.5 * rp.kappa * r * r
    s_drift = float(np.max(np.abs(res - res0)))
    h_drift = float(np.max(np.abs(hs - reduced_h(start, rp))))
    return Trajectory(t=sol.t, points=pts, s_drift=s_drift, h_drift=h_drift)


# ---------------------------------------------------------------------------
# The flow on C^3
# ---------------------------------------------------------------------------

def lift_turning_point(r: float, cas: CasimirValues, rp: ReducedParams,
                       h: float) -> np.ndarray:
    """Point of C^3 over the turning point (R, X, Y) = (r, X(r), 0) of the
    reduced orbit at energy h, with r first polished as a root of F."""
    r = newton(f_quartic(h, rp, cas).coeffs[::-1], r, 4)
    i1, i2, i3 = _mode_actions(r, cas)
    x0 = h - rp.lam * r - 0.5 * rp.kappa * r * r
    z = np.array([math.sqrt(2.0 * i1), math.sqrt(2.0 * i2),
                  math.sqrt(2.0 * i3)], dtype=complex)
    if x0 < 0.0:
        z[2] *= -1.0  # put the cubic invariant phase into mode 3
    return z


def full_vector_field(lam: float, kappa: float):
    """Right-hand side f(t, z) of the flow of H = Re(z1 z2 z3) + lam R +
    (kappa/2) R^2 on C^3, in the form solve_ivp takes."""

    def rhs(t, z):
        gp = lam + 0.5 * kappa * (abs(z[0]) ** 2 + abs(z[1]) ** 2)
        w = np.conj(z)
        return np.array([
            1j * (w[1] * w[2] + gp * z[0]),
            1j * (w[0] * w[2] + gp * z[1]),
            1j * (w[0] * w[1]),
        ])

    return rhs


def full_invariants(z: np.ndarray, lam: float, kappa: float) -> tuple[float, float, float]:
    """(N, J, H) of a full-phase-space point; used for drift diagnostics."""
    i1 = 0.5 * abs(z[0]) ** 2
    i2 = 0.5 * abs(z[1]) ** 2
    i3 = 0.5 * abs(z[2]) ** 2
    n = i1 - i2
    l = i1 + i2 - 2.0 * i3
    r = i1 + i2
    h = (z[0] * z[1] * z[2]).real + lam * r + 0.5 * kappa * r * r
    return n, 0.5 * (n + l), h
