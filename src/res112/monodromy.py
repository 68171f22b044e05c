"""Numerical Hamiltonian monodromy via rotation-number continuation.

For a regular fiber the reduced orbit closes after one period T_red; the
full-phase-space flow then misses its start by an element (s, t) of the
torus action, the rotation numbers.  They are computed from the period
integrals of the mode phase speeds over the reduced orbit; the tests
integrate the flow on C^3 (``tests/unreduced.py``) to check them.
Continuing (theta_N, theta_J) = (s, t) around a closed loop of regular
values and counting the integer winding yields the monodromy vector of the
loop.  The method is an independent verification path: the reference
results for the generator loops come from isotropy-weight arguments, not
from any computation performed here.

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
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import LoopError, NumericalError, ValidationError
from .model import CasimirValues, ModelParams
from .bifurcations import f_quartic
from .critical_values import FiberKind, classify_fibers, thread_segments
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
# Fibers times nodes in one quadrature array: fibers evaluated together are
# summed in chunks of at most QUAD_BATCH // n fibers at n nodes, so no
# array is larger than the one-fiber arrays at QUAD_NODES_MAX, whatever
# the number of fibers.
QUAD_BATCH = QUAD_NODES_MAX


def rotation_numbers(value: tuple[float, float, float], params: ModelParams,
                     tol: float = 1e-11) -> tuple[RotationData, ...]:
    """Rotation numbers of each torus of the fiber over (mu, iota, h), in
    the order of their R-intervals.

    Over one reduced period the phases of z1, z2, z3 advance by the period
    integrals Delta_k = int_{r1}^{r2} omega_k dR / sqrt(-F) of the phase
    speeds omega_{1,2} = lam + kappa R + X/(R +- mu), omega_3 = X/(R - ell),
    with X = h - lam R - (kappa/2) R^2; the torus-action closure is then
    theta_N = -Delta_2 / 2 pi, theta_J = -Delta_3 / 2 pi (mod 1), checked
    by (Delta_1 + Delta_2 + Delta_3) / 2 pi being an integer.  See
    _period_integrals for the quadrature and the meaning of tol.  This is
    the one-fiber call of the batch that ``monodromy_vector`` evaluates.
    """
    _check_tol(tol)
    (tori,) = _regular_tori([value], params)
    items = [(value, interval) for interval in _raised(tori)]
    return tuple(map(_raised, _fiber_rotations(items, params, tol)))


def _check_tol(tol: float) -> None:
    """ValidationError unless the quadrature tolerance is positive and finite."""
    if not 0.0 < tol < math.inf:
        raise ValidationError(
            f"quadrature tol must be positive and finite (got {tol})")


# Fibers are evaluated in batches.  A fiber whose evaluation fails keeps the
# exception as its result, which is raised only where that fiber is used.

def _attempt(f, *args):
    """f(*args), or the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - kept as this fiber's result
        return exc


def _raised(result):
    """A fiber's result; raises it if it is an exception."""
    if isinstance(result, Exception):
        raise result
    return result


def _batched(batch, entries) -> list:
    """``batch`` applied to the entries that are not exceptions, with the
    exceptions left in place."""
    valid = [e for e in entries if not isinstance(e, Exception)]
    results = iter(batch(valid) if valid else ())
    return [e if isinstance(e, Exception) else next(results) for e in entries]


def _regular_tori(values, params: ModelParams) -> list:
    """For each (mu, iota, h): the sorted torus-component intervals of its
    fiber, or the exception classifying it raised (ValidationError unless
    the value is regular).  All fibers go to one ``classify_fibers`` call."""
    fibers = [_attempt(_fiber_args, value, params) for value in values]
    reports = _batched(lambda valid: classify_fibers(*zip(*valid)), fibers)
    return [rep if isinstance(rep, Exception)
            else _attempt(_torus_intervals, value, rep)
            for value, rep in zip(values, reports)]


def _fiber_args(value, params: ModelParams):
    """(cas, rp, h) of the fiber over (mu, iota, h)."""
    mu, iota, h = value
    cas = CasimirValues(mu=mu, ell=2.0 * iota - mu)
    return cas, ReducedParams.from_model(params, cas), h


def _torus_intervals(value, rep) -> list[tuple[float, float]]:
    """Sorted torus-component intervals of a regular fiber's report."""
    tori = [c.r_interval for c in rep.components if c.kind is FiberKind.TORUS3]
    if rep.is_critical or not tori:
        mu, iota, h = value
        raise ValidationError(
            f"value (mu={mu}, iota={iota}, h={h}) is not regular: "
            f"{rep.multiset() or 'empty fiber'}")
    return sorted(tori)


def _fiber_rotations(items, params: ModelParams, tol: float) -> list:
    """For each (value, r_interval): the rotation numbers of the torus over
    ``value`` whose reduced orbit spans ``r_interval``, or the exception
    computing them raised.  The setup of each fiber is scalar; the period
    quadrature runs on all of them together."""
    setups = [_attempt(_period_setup, value, params, r_interval)
              for value, r_interval in items]
    sums = _batched(lambda valid: _period_integrals(valid, tol), setups)
    return [res if isinstance(res, Exception)
            else _attempt(_rotation_data, res, r_interval)
            for (_, r_interval), res in zip(items, sums)]


class _PeriodSetup(NamedTuple):
    """One fiber's terms of the period integrals (see _period_integrals)."""

    c: float                # R = c - d cos(theta)
    d: float
    q2: float               # q(R) = (q2 R + q1) R + q0
    q1: float
    q0: float
    lam: float
    kappa: float
    poles: tuple            # -mu, mu, ell
    sqrt_qp: tuple          # sqrt(q(p)) at each pole
    w_p: tuple              # X(p) / sqrt(q(p)) = sign(X(p)) sqrt((r1 - p)(r2 - p))
    const: tuple            # singular parts: 0, then sign(X(p)) pi


def _period_setup(value, params: ModelParams,
                  r_interval: tuple[float, float]) -> _PeriodSetup:
    """The period-integral terms of the torus over ``value`` whose reduced
    orbit spans ``r_interval``: its turning points, Newton-polished on F,
    the quadratic q and the pole terms."""
    mu, iota, h = value
    cas = CasimirValues(mu=mu, ell=2.0 * iota - mu)
    rp = ReducedParams.from_model(params, cas)
    f = f_quartic(h, rp, cas)
    desc = f.coeffs[::-1]
    r1, r2 = (newton(desc, r, 4) for r in r_interval)
    _mode_actions(r1, cas)  # every mode stays excited along the orbit
    lam, kappa = rp.lam, rp.kappa
    # F = (R - r1)(R - r2) q(R) by synthetic division; the remainder is
    # roundoff because r1, r2 are polished roots
    c2, c3, c4 = f.coeffs[2:]
    r_sum, r_prod = r1 + r2, r1 * r2
    q2 = c4
    q1 = c3 + r_sum * q2
    q0 = c2 + r_sum * q1 - r_prod * q2
    poles = (-cas.mu, cas.mu, cas.ell)
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
    return _PeriodSetup(c=0.5 * (r1 + r2), d=0.5 * (r2 - r1), q2=q2, q1=q1,
                        q0=q0, lam=lam, kappa=kappa, poles=poles,
                        sqrt_qp=tuple(sqrt_qp), w_p=tuple(w_p),
                        const=tuple(const))


def _rotation_data(sums, r_interval: tuple[float, float]) -> RotationData:
    """RotationData from the period integrals, after the phase check."""
    T_red, d1, d2, d3 = sums
    turns = (d1 + d2 + d3) / (2.0 * math.pi)
    cons = abs(turns - round(turns))
    if cons > 1e-6:
        raise NumericalError(
            f"phase consistency on z1 failed: {cons:.3e} cycles off")
    return RotationData(theta_N=(-d2 / (2.0 * math.pi)) % 1.0,
                        theta_J=(-d3 / (2.0 * math.pi)) % 1.0, T_red=T_red,
                        closure_residual=cons, r_interval=r_interval)


def _period_integrals(setups, tol: float) -> list:
    """(T_red, Delta_1, Delta_2, Delta_3) of each fiber, over the orbit
    between its turning points r1 < r2, or the NumericalError of a fiber
    that does not converge.

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
    doubles, for each fiber on its own, until no integral moves by more
    than tol max(1, |value|) + tol/10; beyond QUAD_NODES_MAX the fiber gets
    a NumericalError.  All fibers still doubling are summed together at
    each node count, at most QUAD_BATCH fiber-nodes per array.
    """
    # one row per fiber: c, d, q2, q1, q0, lam, kappa, the poles, sqrt_qp
    # and w_p (three each), const (four); rows leave as their fibers converge
    terms = np.array([[*s[:7], *s.poles, *s.sqrt_qp, *s.w_p, *s.const]
                      for s in setups])
    out: list = [None] * len(setups)
    active = np.arange(len(setups))
    n = QUAD_NODES_START
    prev = _midpoint_sums(terms, n)
    while active.size:
        n *= 2
        if n > QUAD_NODES_MAX:
            for i in active:
                out[i] = NumericalError(
                    f"period integrals unconverged at {QUAD_NODES_MAX} nodes")
            break
        cur = _midpoint_sums(terms, n)
        done = np.all(np.abs(cur - prev) <= tol * np.maximum(1.0, np.abs(cur))
                      + 0.1 * tol, axis=1)
        for i, sums in zip(active[done], cur[done].tolist()):
            out[i] = tuple(sums)
        left = ~done
        active, prev, terms = active[left], cur[left], terms[left]
    return out


def _midpoint_sums(terms: np.ndarray, n: int) -> np.ndarray:
    """The four integrals of each fiber (row of terms) by the n-node
    midpoint rule, one row per fiber, in chunks of QUAD_BATCH // n fibers."""
    cos_nodes = np.cos((np.arange(n) + 0.5) * (math.pi / n))
    chunk = max(1, QUAD_BATCH // n)
    return np.concatenate([_midpoint_chunk(terms[k:k + chunk], cos_nodes, n)
                           for k in range(0, len(terms), chunk)])


def _midpoint_chunk(terms: np.ndarray, cos_nodes: np.ndarray,
                    n: int) -> np.ndarray:
    # per-fiber scalars as (N, 1) columns, pole terms as (N, 3, 1)
    c, d, q2, q1, q0, lam, kappa = terms[:, :7, None].transpose(1, 0, 2)
    poles, sqrt_qp, w_p = terms[:, 7:16].reshape(-1, 3, 3, 1).transpose(1, 0, 2, 3)
    R = c - d * cos_nodes
    sq = np.sqrt((q2 * R + q1) * R + q0)
    R_p, sq_p = R[:, None] + poles, sq[:, None]
    pole_part = ((-lam[:, None] - 0.5 * kappa[:, None] * R_p)
                 - w_p * (q2[:, None] * R_p + q1[:, None]) / (sq_p + sqrt_qp)) / sq_p
    gp = (lam + kappa * R) / sq
    rows = np.stack([1.0 / sq, gp + pole_part[:, 0], gp + pole_part[:, 1],
                     pole_part[:, 2]], axis=1)
    return rows.sum(axis=2) * (math.pi / n) + terms[:, 16:]


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


# ---------------------------------------------------------------------------
# Loop continuation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonodromyResult:
    vector: MonodromyVector
    winding: tuple[float, float]   # pre-rounding winding, convention applied
    n_points: int


def monodromy_vector(loop, params: ModelParams,
                     tol: float = 1e-11) -> MonodromyResult:
    """Continue rotation numbers along a closed loop of regular values.

    ``loop`` is a sequence of (mu, iota, h) with first point equal to last
    (the closure is validated), and at most MAX_LOOP_POINTS points, since
    every point is evaluated at least once.  The continuation starts on
    the torus of lowest R over the first point.  Mod-1 jumps are unwrapped
    by nearest-integer matching; segments where either rotation number
    moves by more than STEP_CAP, or where the component tracking cannot
    yet decide what happened between samples, are bisected adaptively
    (hard cap MAX_LOOP_POINTS evaluated points).  The tracked torus family follows interval overlap;
    crossing a hyperbolic face (the tracked interval splitting at a saddle,
    or merging with a second substantial family) raises LoopError, while
    passing through an elliptic face on the surviving family is fine.

    The given points are evaluated first, as one batch: their tori (taken
    from a ``GeneratorLoop`` placed with the same params) and the rotation
    numbers of each of their torus intervals.  Bisection midpoints are
    evaluated one at a time.  A point whose evaluation failed raises only
    when the continuation reaches it.
    """
    _check_tol(tol)
    pts = [tuple(float(x) for x in p) for p in loop]
    if len(pts) < 4:
        raise ValidationError("loop needs at least 4 points")
    if not np.allclose(pts[0], pts[-1], rtol=0.0, atol=1e-13):
        raise ValidationError("loop must be closed (first point == last)")
    if len(pts) > MAX_LOOP_POINTS:
        raise ValidationError(
            f"loop has {len(pts)} points, more than MAX_LOOP_POINTS "
            f"({MAX_LOOP_POINTS})")

    placed = (loop.tori if isinstance(loop, GeneratorLoop)
              and loop.params == params else {})
    tori, rotations = {}, {}  # by point key; by (point key, interval)

    def evaluate(points):
        new = {}
        for p in points:
            key = _point_key(p)
            if key not in tori:
                new.setdefault(key, p)
        unplaced = [k for k in new if k not in placed]
        tori.update(zip(unplaced, _regular_tori([new[k] for k in unplaced], params)))
        tori.update((k, placed[k]) for k in new if k in placed)
        items = [(k, iv) for k in new if not isinstance(tori[k], Exception)
                 for iv in tori[k]]
        rotations.update(zip(items, _fiber_rotations(
            [(new[k], iv) for k, iv in items], params, tol)))

    def tori_at(p):
        key = _point_key(p)
        if key not in tori:
            evaluate([p])
        found = tori[key]
        if isinstance(found, ValidationError):
            raise LoopError(f"loop point {p} unusable: {found}") from found
        return _raised(found)

    def eval_point(p, interval):
        rd = rotations[_point_key(p), interval]
        if isinstance(rd, (ValidationError, NumericalError)):
            raise LoopError(f"loop point {p} unusable: {rd}") from rd
        return _raised(rd)

    evaluate(pts)
    tori0 = tori_at(pts[0])
    data0 = eval_point(pts[0], tori0[0])
    lift = np.array([data0.theta_N, data0.theta_J])
    prev = data0
    prev_tori, prev_idx = tori0, 0
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


def generator_loop(name: str, params: ModelParams, n_points: int,
                   radius: float | None = None,
                   plane: float | None = None) -> "GeneratorLoop":
    """Construct a named generator loop around one of the three threads.

    gamma1 circles the normal 1-mode thread C23 in a plane mu = +c
    (clockwise in the oriented (J, H)-plane: the thread points toward -mu),
    gamma2 the normal 2-mode thread C13 in mu = -c (counterclockwise in
    (J, H)), gamma3 the normal 3-mode thread C12 in iota = -c (clockwise in
    (N, H)).  Each loop is centred where its thread, taken from
    ``thread_segments``, pierces the plane, and has ``n_points`` distinct
    points plus the first again at the end: at least 3, and at most
    MAX_LOOP_POINTS - 1, so that ``monodromy_vector`` can evaluate them
    all.  Radii are shrunk automatically until every sample is a regular
    value; the loop carries the tori found on the way to
    ``monodromy_vector``.
    """
    if params.lambda1 != 0.0 or params.lambda2 != 0.0:
        raise ValidationError("named generator loops assume lambda1 = lambda2 = 0")
    if name not in LOOP_THREADS:
        raise ValidationError(f"unknown generator loop {name!r}")
    if not 3 <= n_points < MAX_LOOP_POINTS:
        raise ValidationError(
            f"a generator loop needs between 3 and {MAX_LOOP_POINTS - 1} "
            f"points (got {n_points})")
    c = plane if plane is not None else (0.75 if name == "gamma3" else 0.5)
    if not c > 0.0:
        raise ValidationError(f"loop plane must be positive (got {c})")
    if radius is not None and not 0.0 < radius < math.inf:
        raise ValidationError(
            f"loop radius must be positive and finite (got {radius})")
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
        tori = _loop_tori(loop, params)
        if tori is not None:
            return GeneratorLoop(loop, params, tori)
        radius *= 0.6
    raise LoopError(f"could not place a regular {name} loop")


class GeneratorLoop(list):
    """The (mu, iota, h) points of a generator loop, with the torus
    intervals of each point's fiber under ``params``, found while the loop
    was placed (``tori``, by point key).  ``monodromy_vector`` takes them
    instead of classifying the points again; a slice or copy of the loop is
    a plain list, whose points are classified again."""

    def __init__(self, points, params: ModelParams, tori: dict):
        super().__init__(points)
        self.params = params
        self.tori = tori


def _point_key(p) -> bytes:
    """The bits of a loop point, as the key of its fiber."""
    return struct.pack(f"{len(p)}d", *p)


def _loop_tori(loop, params: ModelParams) -> dict | None:
    """The torus intervals of every loop point, by point key, or None
    unless every point is regular.  One batch classifies the distinct
    points (the last point can repeat the first bit for bit)."""
    points = dict(zip(map(_point_key, loop), loop))
    tori = dict(zip(points, _regular_tori(list(points.values()), params)))
    for found in tori.values():
        if isinstance(found, (ValidationError, NumericalError)):
            return None
        _raised(found)
    return tori
