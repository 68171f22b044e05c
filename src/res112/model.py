"""Normal-form model and torus-invariant kinematics.

Houses the full-phase-space state with its two linear charts, the
quadratic/cubic invariants of the effective 2-torus action, the syzygy
cutting out the reduced phase spaces, the Poisson structure on invariant
space, the torus action, and the detuning / kappa-normalisation maps
used by every downstream module.

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

from .errors import ValidationError

_SQRT2 = math.sqrt(2.0)


class Chart(Enum):
    ORIGINAL = "original"      # (x, y): axial angular momentum is x1*y2 - x2*y1
    OSCILLATOR = "oscillator"  # (q, p): all three normal modes are coordinate modes


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
