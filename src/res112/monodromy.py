"""Numerical Hamiltonian monodromy via rotation-number continuation.

For a regular fiber the reduced orbit closes after one period T_red; the
full-phase-space flow then misses its start by an element (s, t) of the
torus action, the rotation numbers.  They are computed from the period
integrals of the mode phase speeds over the reduced orbit; the flow on C^3
is integrated only to check them.  Continuing (theta_N, theta_J) = (s, t)
around a closed loop of regular values and counting the integer winding
yields the monodromy vector of the loop.  The method is an
independent verification path: the reference results for the generator
loops come from isotropy-weight arguments, not from any computation
performed here.

Orientation conventions: threads are oriented from infinity toward the
origin and loops follow the right-hand rule around them; on the oriented
(J, H)-plane at fixed N < 0 this makes the loop around the normal 2-mode
thread counterclockwise.  The single global constant MONODROMY_SIGN pins
the numerical winding to that convention; it is calibrated once against
the (0, 1) result for that loop, after which the other generators are
genuine predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LoopError, NumericalError, ValidationError
from .model import CasimirValues, ModelParams
from .bifurcations import f_quartic
from .critical_values import FiberKind, classify_fiber, thread_segments
from .polyroots import newton
from .reduced_dynamics import ReducedParams, h_min

# Global orientation convention: multiplies the raw winding of both
# rotation numbers.  Calibrated once against the (0,1) generator.
MONODROMY_SIGN = 1

# Continuation refinement: per-step rotation change cap and point budget.
STEP_CAP = 0.25
MAX_LOOP_POINTS = 10_000
WINDING_INT_TOL = 0.05


@dataclass(frozen=True)
class RotationData:
    """Rotation numbers of a regular fiber component.

    theta_N and theta_J are the torus-action phases (mod 1) that close the
    reduced-period flow; T_red is the reduced period; closure_residual how
    far the phase advance of z1 z2 z3 over one period is from a whole
    number of turns, in turns.
    """

    theta_N: float
    theta_J: float
    T_red: float
    closure_residual: float
    r_interval: tuple[float, float]


@dataclass(frozen=True)
class MonodromyVector:
    m_N: int
    m_J: int

    def __add__(self, other: "MonodromyVector") -> "MonodromyVector":
        return MonodromyVector(self.m_N + other.m_N, self.m_J + other.m_J)

    def __neg__(self) -> "MonodromyVector":
        return MonodromyVector(-self.m_N, -self.m_J)


@dataclass(frozen=True)
class MonodromyMatrix:
    """Upper-unitriangular integer matrix with last column (m_N, m_J, 1)."""

    matrix: tuple

    @property
    def array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=int)

    @property
    def vector(self) -> MonodromyVector:
        return MonodromyVector(int(self.matrix[0][2]), int(self.matrix[1][2]))


def to_matrix(v: MonodromyVector) -> MonodromyMatrix:
    return MonodromyMatrix(matrix=(
        (1, 0, v.m_N),
        (0, 1, v.m_J),
        (0, 0, 1),
    ))


# ---------------------------------------------------------------------------
# Rotation numbers on a single fiber
# ---------------------------------------------------------------------------

# Quadrature of the period integrals: the first node count, and the count
# beyond which the doubling gives up.
QUAD_NODES_START = 32
QUAD_NODES_MAX = 2 ** 14


def rotation_numbers(value: tuple[float, float, float], params: ModelParams,
                     component: int = 0, tol: float = 1e-11) -> RotationData:
    """Rotation numbers of the fiber over (mu, iota, h).

    Over one reduced period the phases of z1, z2, z3 advance by the period
    integrals Delta_k = int_{r1}^{r2} omega_k dR / sqrt(-F) of the phase
    speeds omega_{1,2} = lam + kappa R + X/(R +- mu), omega_3 = X/(R - ell),
    with X = h - lam R - (kappa/2) R^2; the torus-action closure is then
    theta_N = -Delta_2 / 2 pi, theta_J = -Delta_3 / 2 pi (mod 1), checked
    by (Delta_1 + Delta_2 + Delta_3) / 2 pi being an integer.  See
    _period_integrals for the quadrature and the meaning of tol.
    """
    tori = _regular_tori(value, params)
    if component >= len(tori):
        raise ValidationError(
            f"component {component} out of range ({len(tori)} torus components)")
    return _fiber_rotation(value, params, tori[component], tol)


def _regular_tori(value, params: ModelParams) -> list[tuple[float, float]]:
    """Sorted torus-component intervals of the fiber over ``value``; raises
    ValidationError unless the value is regular."""
    mu, iota, h = value
    cas = CasimirValues(mu=mu, ell=2.0 * iota - mu)
    rep = classify_fiber(cas, ReducedParams.from_model(params, cas), h)
    tori = [c.r_interval for c in rep.components if c.kind is FiberKind.TORUS3]
    if rep.is_critical or not tori:
        raise ValidationError(
            f"value (mu={mu}, iota={iota}, h={h}) is not regular: "
            f"{rep.multiset() or 'empty fiber'}")
    return sorted(tori)


def _fiber_rotation(value, params: ModelParams, r_interval: tuple[float, float],
                    tol: float) -> RotationData:
    """Rotation numbers of the torus over ``value`` whose reduced orbit
    spans ``r_interval``."""
    mu, iota, h = value
    cas = CasimirValues(mu=mu, ell=2.0 * iota - mu)
    rp = ReducedParams.from_model(params, cas)
    f = f_quartic(h, rp, cas)
    desc = f.coeffs[::-1]
    r1, r2 = (newton(desc, r, 4) for r in r_interval)
    _mode_actions(r1, cas)  # every mode stays excited along the orbit
    T_red, d1, d2, d3 = _period_integrals(f, r1, r2, h, rp, cas, tol)

    turns = (d1 + d2 + d3) / (2.0 * math.pi)
    cons = abs(turns - round(turns))
    if cons > 1e-6:
        raise NumericalError(
            f"phase consistency on z1 failed: {cons:.3e} cycles off")
    return RotationData(theta_N=(-d2 / (2.0 * math.pi)) % 1.0,
                        theta_J=(-d3 / (2.0 * math.pi)) % 1.0, T_red=T_red,
                        closure_residual=cons, r_interval=r_interval)


def _period_integrals(f, r1: float, r2: float, h: float, rp: ReducedParams,
                      cas: CasimirValues,
                      tol: float) -> tuple[float, float, float, float]:
    """(T_red, Delta_1, Delta_2, Delta_3) over the orbit between the turning
    points r1 < r2.

    With -F = (R - r1)(r2 - R) q(R), q quadratic since kappa > 0, and
    R = c - d cos(theta), each integral is int_0^pi g(R) / sqrt(q(R)) dtheta,
    summed by the midpoint rule on theta (Gauss-Chebyshev in R), which
    converges exponentially.  The poles
    p in {-mu, mu, ell} of the phase speeds are roots of S, so that
    q(p) (r1 - p)(r2 - p) = X(p)^2 and their singular part is exactly
    sign(X(p)) pi:

        int X/(R - p) dR/sqrt(-F) = int D_p / sqrt(q) dtheta + sign(X(p)) pi
            - sign(X(p)) sqrt((r1 - p)(r2 - p))
              int s_p / (sqrt(q) (sqrt(q) + sqrt(q(p)))) dtheta

    with the polynomials D_p = -lam - (kappa/2)(R + p) and
    s_p = (q(R) - q(p))/(R - p), so the rule converges even when a pole
    lies just below r1.  The node count starts at QUAD_NODES_START and
    doubles until no integral moves by more than tol max(1, |value|) +
    tol/10; beyond QUAD_NODES_MAX it raises NumericalError.
    """
    lam, kappa = rp.lam, rp.kappa
    # F = (R - r1)(R - r2) q(R) by synthetic division; the remainder is
    # roundoff because r1, r2 are polished roots
    c2, c3, c4 = f.coeffs[2:]
    r_sum, r_prod = r1 + r2, r1 * r2
    q2 = c4
    q1 = c3 + r_sum * q2
    q0 = c2 + r_sum * q1 - r_prod * q2
    c, d = 0.5 * (r1 + r2), 0.5 * (r2 - r1)
    poles = np.array([-cas.mu, cas.mu, cas.ell])
    sqrt_qp, w_p, const = [], [], [0.0]
    for pole in poles:
        x_p = h - lam * pole - 0.5 * kappa * pole * pole
        sign = float(np.sign(x_p))
        span = (r1 - pole) * (r2 - pole)
        q_p = (q2 * pole + q1) * pole + q0
        # q(p) span = X(p)^2: derive whichever factor has the larger
        # relative rounding error from the other.  q(p) loses its digits
        # where X(p) ~ 0 (a root of F next to the pole), span where p ~ r1.
        if (abs(r1) + abs(pole)) * q_p <= (
                q2 * pole * pole + abs(q1 * pole) + abs(q0)) * (r1 - pole):
            sqrt_qp.append(abs(x_p) / math.sqrt(span))
            w_p.append(sign * math.sqrt(span))
        else:
            sqrt_qp.append(math.sqrt(q_p))
            w_p.append(x_p / sqrt_qp[-1])
        const.append(sign * math.pi)
    const = np.array(const)
    poles, sqrt_qp, w_p = poles[:, None], np.array(sqrt_qp)[:, None], np.array(w_p)[:, None]

    def integrals(n):
        R = c - d * np.cos((np.arange(n) + 0.5) * (math.pi / n))
        sq = np.sqrt((q2 * R + q1) * R + q0)
        pole_part = ((-lam - 0.5 * kappa * (R + poles))
                     - w_p * (q2 * (R + poles) + q1) / (sq + sqrt_qp)) / sq
        gp = (lam + kappa * R) / sq
        rows = np.stack([1.0 / sq, gp + pole_part[0], gp + pole_part[1],
                         pole_part[2]])
        return rows.sum(axis=1) * (math.pi / n) + const

    n = QUAD_NODES_START
    prev = integrals(n)
    while True:
        n *= 2
        if n > QUAD_NODES_MAX:
            raise NumericalError(
                f"period integrals unconverged at {QUAD_NODES_MAX} nodes")
        cur = integrals(n)
        if np.all(np.abs(cur - prev) <= tol * np.maximum(1.0, np.abs(cur)) + 0.1 * tol):
            return tuple(float(x) for x in cur)
        prev = cur


def _wrap_unit(x: float) -> float:
    return (x + 0.5) % 1.0 - 0.5


def _mode_actions(r: float, cas: CasimirValues) -> tuple[float, float, float]:
    """Mode actions (I1, I2, I3) at R = r; raises unless all are positive."""
    i1 = 0.5 * (r + cas.mu)
    i2 = 0.5 * (r - cas.mu)
    i3 = 0.5 * (r - cas.ell)
    if min(i1, i2, i3) <= 0.0:
        raise ValidationError(
            "orbit touches a vanished mode; fiber is not strictly regular")
    return i1, i2, i3


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


# ---------------------------------------------------------------------------
# Loop continuation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonodromyResult:
    vector: MonodromyVector
    winding: tuple[float, float]   # pre-rounding winding, convention applied
    n_points: int


def monodromy_vector(loop, params: ModelParams, component: int = 0,
                     tol: float = 1e-11) -> MonodromyResult:
    """Continue rotation numbers along a closed loop of regular values.

    ``loop`` is a sequence of (mu, iota, h) with first point equal to last
    (the closure is validated).  Mod-1 jumps are unwrapped by nearest-
    integer matching; segments where either rotation number moves by more
    than STEP_CAP, or where the component tracking cannot yet decide what
    happened between samples, are bisected adaptively (hard cap
    MAX_LOOP_POINTS).  The tracked torus family follows interval overlap;
    crossing a hyperbolic face (the tracked interval splitting at a saddle,
    or merging with a second substantial family) raises LoopError, while
    passing through an elliptic face on the surviving family is fine.
    """
    pts = [tuple(float(x) for x in p) for p in loop]
    if len(pts) < 4:
        raise ValidationError("loop needs at least 4 points")
    if not np.allclose(pts[0], pts[-1], rtol=0.0, atol=1e-13):
        raise ValidationError("loop must be closed (first point == last)")

    def tori_at(p):
        try:
            return _regular_tori(p, params)
        except ValidationError as exc:
            raise LoopError(f"loop point {p} unusable: {exc}") from exc

    def eval_point(p, interval):
        try:
            return _fiber_rotation(p, params, interval, tol)
        except (ValidationError, NumericalError) as exc:
            raise LoopError(f"loop point {p} unusable: {exc}") from exc

    tori0 = tori_at(pts[0])
    if component >= len(tori0):
        raise ValidationError(
            f"component {component} out of range ({len(tori0)} torus components)")
    data0 = eval_point(pts[0], tori0[component])
    lift = np.array([data0.theta_N, data0.theta_J])
    prev = data0
    prev_tori, prev_idx = tori0, component
    n_eval = 1

    # stack entries: (a, b, depth); depth counts bisections of the original
    # segment so undecidable face crossings terminate
    stack = [(a, b, 0) for a, b in reversed(list(zip(pts[:-1], pts[1:])))]
    while stack:
        a, b, depth = stack.pop()
        tori_b = tori_at(b)
        try:
            idx_b = _advance_component(prev_tori, prev_idx, tori_b)
        except _NeedRefinement as exc:
            if depth >= 14:
                raise LoopError(
                    f"component tracking undecidable near {b}: {exc}") from exc
            mid = tuple(0.5 * (np.asarray(a) + np.asarray(b)))
            stack.append((mid, b, depth + 1))
            stack.append((a, mid, depth + 1))
            continue
        rd = eval_point(b, tori_b[idx_b])
        n_eval += 1
        if n_eval > MAX_LOOP_POINTS:
            raise LoopError(f"loop refinement exceeded {MAX_LOOP_POINTS} points")
        step = np.array([_wrap_unit(rd.theta_N - prev.theta_N),
                         _wrap_unit(rd.theta_J - prev.theta_J)])
        if np.max(np.abs(step)) > STEP_CAP:
            if depth >= 14:
                raise LoopError(f"rotation numbers jump by {step} near {b}")
            mid = tuple(0.5 * (np.asarray(a) + np.asarray(b)))
            stack.append((mid, b, depth + 1))
            stack.append((a, mid, depth + 1))
            continue
        lift = lift + step
        prev, prev_tori, prev_idx = rd, tori_b, idx_b

    raw = lift - np.array([data0.theta_N, data0.theta_J])
    winding = (MONODROMY_SIGN * float(raw[0]), MONODROMY_SIGN * float(raw[1]))
    m = MonodromyVector(int(round(winding[0])), int(round(winding[1])))
    err = max(abs(winding[0] - m.m_N), abs(winding[1] - m.m_J))
    if err > WINDING_INT_TOL:
        raise LoopError(f"winding {winding} is {err:.3f} away from integers")
    return MonodromyResult(vector=m, winding=winding, n_points=n_eval)


class _NeedRefinement(Exception):
    """Component bookkeeping between two samples is ambiguous; bisect."""


def _advance_component(prev_tori, prev_idx, new_tori) -> int:
    """Carry the tracked component across one loop step.

    A hyperbolic face crossing shows up as the tracked interval splitting
    into two overlapping pieces, or as a second family of substantial size
    merging into the tracked one; both are rejected per the face rules.  An
    elliptic face crossing is benign: the dying family shrinks to a point,
    so near the face the partner's size vanishes.  When samples are too far
    apart to tell the difference, _NeedRefinement asks for bisection.
    """
    lo, hi = prev_tori[prev_idx]
    size_prev = hi - lo

    def overlap(c):
        return min(hi, c[1]) - max(lo, c[0])

    pos = [(i, overlap(c)) for i, c in enumerate(new_tori) if overlap(c) > 0.0]
    if not pos:
        raise _NeedRefinement(
            f"tracked interval ({lo}, {hi}) overlaps no new component "
            f"{new_tori}")
    if len(pos) >= 2:
        # the tracked interval covers two new components: a saddle opened up
        sizes = [new_tori[i][1] - new_tori[i][0] for i, _ in pos]
        if min(sizes) > 0.05 * size_prev:
            raise LoopError(
                "loop crossed a hyperbolic face: tracked component split "
                f"into {new_tori}")
        raise _NeedRefinement("tracked interval brushes a second component")
    idx = pos[0][0]
    new_c = new_tori[idx]
    size_new = new_c[1] - new_c[0]
    # merge detection: another previously substantial family landing in the
    # same new interval means the saddle was crossed outward
    for j, other in enumerate(prev_tori):
        if j == prev_idx:
            continue
        if min(other[1], new_c[1]) - max(other[0], new_c[0]) > 0.0:
            if other[1] - other[0] > 0.05 * max(size_prev, size_new):
                if len(new_tori) < len(prev_tori):
                    raise LoopError(
                        "loop crossed a hyperbolic face: components "
                        f"{prev_tori} merged into {new_c}")
                raise _NeedRefinement("families overlap ambiguously")
    return idx


# ---------------------------------------------------------------------------
# Named generator loops
# ---------------------------------------------------------------------------

# the thread each named loop goes around
LOOP_THREADS = {"gamma1": "C23", "gamma2": "C13", "gamma3": "C12"}


def generator_loop(name: str, params: ModelParams, n_points: int = 48,
                   radius: float | None = None, plane: float | None = None):
    """Construct a named generator loop around one of the three threads.

    gamma1 circles the normal 1-mode thread C23 in a plane mu = +c
    (clockwise in the oriented (J, H)-plane: the thread points toward -mu),
    gamma2 the normal 2-mode thread C13 in mu = -c (counterclockwise in
    (J, H)), gamma3 the normal 3-mode thread C12 in iota = -c (clockwise in
    (N, H)).  Each loop is centred where its thread, taken from
    ``thread_segments``, pierces the plane.  Radii are shrunk automatically
    until every sample is a regular value.
    """
    if params.lambda1 != 0.0 or params.lambda2 != 0.0:
        raise ValidationError("named generator loops assume lambda1 = lambda2 = 0")
    if name not in LOOP_THREADS:
        raise ValidationError(f"unknown generator loop {name!r}")
    c = plane if plane is not None else (0.75 if name == "gamma3" else 0.5)
    if not c > 0.0:
        raise ValidationError(f"loop plane must be positive (got {c})")
    rp = ReducedParams(lam=params.delta, kappa=params.kappa)
    seg = next(s for s in thread_segments(rp) if s.name == LOOP_THREADS[name])
    # the thread pierces the plane at (mu0, iota0, h0); gamma3's plane
    # iota = -c meets C12 at ell = -2c
    ell0 = -2.0 * c if name == "gamma3" else c
    mu0 = seg.mu(ell0)
    iota0 = 0.5 * (mu0 + ell0)
    h0 = seg.h_c(ell0)
    phi = 0.37 + np.linspace(0.0, 2.0 * math.pi, n_points + 1)

    if name == "gamma3":
        def make(r):
            mus = r * np.cos(phi)
            hs = h0 - r * np.sin(phi)  # clockwise in (mu, h)
            return [(float(m), iota0, float(hh)) for m, hh in zip(mus, hs)]
    else:
        sgn = 1.0 if name == "gamma2" else -1.0  # gamma2 counterclockwise

        def make(r):
            iotas = iota0 + r * np.cos(phi)
            hs = h0 + sgn * r * np.sin(phi)
            return [(mu0, float(i), float(hh)) for i, hh in zip(iotas, hs)]

    if radius is None:
        gap = h0 - h_min(CasimirValues(mu=mu0, ell=ell0), rp)
        radius = 0.35 * gap if gap > 0.0 else 0.1

    for _ in range(8):
        loop = make(radius)
        if _loop_regular(loop, params):
            return loop
        radius *= 0.6
    raise LoopError(f"could not place a regular {name} loop")


def _loop_regular(loop, params: ModelParams) -> bool:
    try:
        for value in loop:
            _regular_tori(value, params)
    except (ValidationError, NumericalError):
        return False
    return True
