"""Reduced dynamics: equilibria against a scan oracle, stability counts,
minimal energy, orbit integration, internal frequencies."""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from res112 import (CasimirValues, ModelParams, ReducedParams, Stability,
                    UnsupportedRegimeError, equilibria, h_min, r_min,
                    rotation_numbers, section_sq, tip_class)
from res112.bifurcations import f_quartic
from res112.errors import RootFindingError, ValidationError
from res112.reduced_dynamics import ROOT_MERGE_TOL
from res112.reduced_space import section_sq_deriv
from unreduced import (InvariantPoint, equilibrium_point, integrate_orbit,
                       reduced_h, vector_field)

RNG = np.random.default_rng(1618033)


def quintic_direct(R, cas, rp):
    """The tangency polynomial evaluated from its defining expression."""
    s = (rp.kappa * R + rp.lam) ** 2
    cubic = (R * R - cas.mu ** 2) * (R - cas.ell)
    slope = 3.0 * R * R - 2.0 * cas.ell * R - cas.mu ** 2
    return 4.0 * s * cubic - slope * slope


def oracle_roots(cas, rp, r_hi=None, n=20_000):
    """Independent root scan: dense sign changes plus bisection refinement."""
    lo = r_min(cas)
    if r_hi is None:
        r_hi = lo + 10.0 + 10.0 * (abs(rp.lam) + abs(cas.mu) + abs(cas.ell))
    grid = np.linspace(lo, r_hi, n)
    vals = quintic_direct(grid, cas, rp)
    roots = []
    for i in range(n - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(grid[i])
        elif a * b < 0.0:
            x0, x1 = grid[i], grid[i + 1]
            for _ in range(80):
                mid = 0.5 * (x0 + x1)
                if quintic_direct(np.array(mid), cas, rp) * quintic_direct(
                        np.array(x0), cas, rp) <= 0.0:
                    x1 = mid
                else:
                    x0 = mid
            roots.append(0.5 * (x0 + x1))
    return np.array(roots)


def test_equilibria_match_scan_oracle():
    for _ in range(60):
        cas = CasimirValues(float(RNG.normal(0, 1.2)), float(RNG.normal(0, 1.2)))
        rp = ReducedParams(lam=float(RNG.normal(0, 0.8)), kappa=1.0)
        expected = oracle_roots(cas, rp)
        got = np.array(sorted(e.R for e in equilibria(cas, rp)
                              if e.stability is not Stability.SINGULAR_TIP))
        # drop oracle roots that coincide with the tip of a singular space
        assert len(got) == len(expected), (cas, rp)
        if len(got):
            assert np.max(np.abs(got - expected)) < 1e-6


def test_equilibria_count_and_alternation():
    bad = 0
    for _ in range(2000):
        cas = CasimirValues(float(RNG.normal(0, 1.5)), float(RNG.normal(0, 1.5)))
        rp = ReducedParams(lam=float(RNG.normal(0, 1.0)), kappa=1.0)
        regs = [e for e in equilibria(cas, rp)
                if e.stability is not Stability.SINGULAR_TIP]
        rs = sorted(e.R for e in regs)
        if any(b - a < 1e-6 for a, b in zip(rs, rs[1:])):
            continue
        ne = sum(1 for e in regs if e.stability is Stability.ELLIPTIC)
        nh = sum(1 for e in regs if e.stability is Stability.HYPERBOLIC)
        if len(regs) not in (1, 3) or ne != nh + 1:
            bad += 1
    assert bad == 0


def test_largest_root_is_elliptic():
    for _ in range(500):
        cas = CasimirValues(float(RNG.normal(0, 1.5)), float(RNG.normal(0, 1.5)))
        rp = ReducedParams(lam=float(RNG.normal(0, 1.0)), kappa=1.0)
        regs = [e for e in equilibria(cas, rp)
                if e.stability is not Stability.SINGULAR_TIP]
        top = max(regs, key=lambda e: e.R)
        assert top.stability in (Stability.ELLIPTIC, Stability.DEGENERATE)


def test_equilibrium_points_satisfy_tangency():
    # X at each regular equilibrium lies on the surface and matches the
    # level-set slope there
    for _ in range(300):
        cas = CasimirValues(float(RNG.normal(0, 1.2)), float(RNG.normal(0, 1.2)))
        rp = ReducedParams(lam=float(RNG.normal(0, 0.8)), kappa=1.0)
        for e in equilibria(cas, rp):
            if e.stability is Stability.SINGULAR_TIP:
                continue
            res = e.X ** 2 - (e.R ** 2 - cas.mu ** 2) * (e.R - cas.ell)
            assert abs(res) <= 1e-7 * max(1.0, e.R ** 3)
            slope_lhs = 3 * e.R ** 2 - 2 * cas.ell * e.R - cas.mu ** 2
            slope_rhs = 2.0 * e.X * (-(rp.lam + rp.kappa * e.R))
            assert abs(slope_lhs - slope_rhs) <= 1e-6 * max(1.0, abs(slope_lhs))
            pt = equilibrium_point(e)
            assert e.h == pytest.approx(reduced_h(pt, rp), abs=1e-12)
            assert pt.Y == 0.0


def _equilibria_numpy_oracle(cas, rp, merge_tol=ROOT_MERGE_TOL):
    """The numpy-polynomial route to the equilibria: np.polymul/np.polysub
    for the tangency quintic, np.trim_zeros/np.roots for its roots and
    np.polyder/np.polyval for the polish and the stability tag.  Returns
    (R, X, h, stability, quintic_deriv) tuples sorted by R."""
    k, lam = rp.kappa, rp.lam
    mu2 = cas.mu * cas.mu
    lin = np.array([k, lam])
    cubic = np.array([1.0, -cas.ell, -mu2, mu2 * cas.ell])
    slope = np.array([3.0, -2.0 * cas.ell, -mu2])
    coeffs = np.polysub(4.0 * np.polymul(np.polymul(lin, lin), cubic),
                        np.polymul(slope, slope))
    rmin = r_min(cas)
    tip = tip_class(cas)
    scale = 1.0 + abs(rmin)

    trimmed = np.trim_zeros(np.asarray(coeffs, dtype=float), "f")
    if trimmed.size <= 1:
        roots = np.array([])
    else:
        try:
            found = np.roots(trimmed)
        except np.linalg.LinAlgError as exc:
            raise RootFindingError(str(exc))
        tol = 1e-8 * (1.0 + np.max(np.abs(found))) if found.size else 1e-8
        roots = np.sort(found[np.abs(found.imag) <= tol].real)
    dcoeffs = np.polyder(coeffs)
    polished = []
    for x in roots[roots >= rmin - merge_tol * scale]:
        for _ in range(3):
            d = np.polyval(dcoeffs, x)
            if d == 0.0:
                break
            step = np.polyval(coeffs, x) / d
            if not math.isfinite(step):
                break
            x -= step
        polished.append(x)
    polished = np.array(polished)
    polished = np.sort(polished[polished >= rmin - merge_tol * scale])

    merged = []
    for r in polished:
        if merged and abs(r - merged[-1]) <= merge_tol * scale:
            merged[-1] = 0.5 * (merged[-1] + r)
        else:
            merged.append(float(r))

    out = []
    for r in merged:
        if tip.is_singular and abs(r - rmin) <= 1e-7 * scale:
            continue
        r = max(r, rmin)
        x_abs = math.sqrt(max(section_sq(r, cas), 0.0))
        slope_r = -(rp.lam + rp.kappa * r)
        c = section_sq_deriv(r, cas)
        x = (x_abs if abs(c - 2.0 * x_abs * slope_r) <= abs(c + 2.0 * x_abs * slope_r)
             else -x_abs)
        sp = float(np.polyval(dcoeffs, r))
        deriv_scale = 1.0 + abs(np.polyval(np.polyder(dcoeffs), r)) * (1.0 + abs(r))
        if abs(sp) <= 1e-9 * deriv_scale:
            stab = Stability.DEGENERATE
        elif sp > 0.0:
            stab = Stability.ELLIPTIC
        else:
            stab = Stability.HYPERBOLIC
        out.append((r, x, x + rp.lam * r + 0.5 * rp.kappa * r * r, stab, sp))
    if tip.is_singular:
        out.append((rmin, 0.0, rp.lam * rmin + 0.5 * rp.kappa * rmin * rmin,
                    Stability.SINGULAR_TIP, float(np.polyval(dcoeffs, rmin))))
    return sorted(out, key=lambda e: e[0])


def _bits(x):
    return float(x).hex()


def _nudged(x, ulps):
    """x moved by ``ulps`` (-1, 0 or 1) units in the last place."""
    return float(np.nextafter(x, math.copysign(math.inf, ulps))) if ulps else x


_coord = st.floats(-3.0, 3.0, allow_nan=False)
_kappa = st.floats(0.0, 3.0, allow_nan=False)
_ulps = st.sampled_from((-1, 0, 1))
_negative = st.floats(-3.0, -1e-3, allow_nan=False)
_draws = st.one_of(
    # generic points, and the same at kappa = 0
    st.tuples(_coord, _coord, _coord, _kappa),
    st.tuples(_coord, _coord, _coord, st.just(0.0)),
    # mu = 0 exactly: the quintic has a trailing zero root
    st.tuples(st.just(0.0), _coord, _coord, _kappa),
    # the four strata of the reduced spaces, with +-1 ulp of noise
    st.builds(lambda m, u, lam, k: (m, _nudged(abs(m), u), lam, k),
              _coord, _ulps, _coord, _kappa),                 # |mu| = ell
    st.builds(lambda u, ell, lam, k: (_nudged(0.0, u), ell, lam, k),
              _ulps, _negative, _coord, _kappa),              # mu = 0, ell < 0
    st.builds(lambda u, v, lam, k: (_nudged(0.0, u), _nudged(0.0, v), lam, k),
              _ulps, _ulps, _coord, _kappa),                  # the origin
    st.builds(lambda m, u, lam, k: (m, _nudged(-abs(m), u), lam, k),
              _negative, _ulps, _coord, _kappa),              # ell = -|mu| < 0
)


@given(_draws)
@settings(max_examples=400, deadline=None)
def test_equilibria_match_numpy_oracle_bit_for_bit(draw):
    mu, ell, lam, kappa = draw
    cas, rp = CasimirValues(mu, ell), ReducedParams(lam=lam, kappa=kappa)
    try:
        with np.errstate(all="ignore"):  # huge roots overflow silently in the kernel
            expected = _equilibria_numpy_oracle(cas, rp)
    except RootFindingError:
        with pytest.raises(RootFindingError):
            equilibria(cas, rp)
        return
    got = equilibria(cas, rp)
    assert [(_bits(e.R), _bits(e.X), _bits(e.h), e.stability, _bits(e.quintic_deriv))
            for e in got] == [(_bits(r), _bits(x), _bits(h), stab, _bits(sp))
                              for r, x, h, stab, sp in expected]


@pytest.mark.parametrize("mu, ell, lam, kappa, regular", [
    # ell = -|mu|: S = (R - mu)(R + mu)^2 (...) has a double root at -|mu|,
    # below r_min; Newton carried one of its companion images up to a false
    # elliptic R = 5.34443124133694, whose fiber is one regular Torus3
    (0.7658262489009331, -0.7658262489009331, -1.3982458155993052, 1.0,
     [4.788602319250386]),
    # S = R^2 (-9 R^2 + 28 R - 20): only 10/9 and 2 lie above r_min = 1, and
    # the double root at 0 was polished up to a false R = 1.055851614725544
    (1.6521545050332558e-129, 1.0, 2.0, 0.0, [10.0 / 9.0, 2.0]),
    # the cone |mu| = ell: Newton carries the double root at the tip down to
    # 2.654, below r_min, so the polished roots are held to r_min as well
    (-2.7000000000000002, 2.7000000000000002, 0.52, 1.0, []),
])
def test_equilibria_polish_only_the_roots_above_the_tip(mu, ell, lam, kappa,
                                                        regular):
    eqs = equilibria(CasimirValues(mu, ell), ReducedParams(lam=lam, kappa=kappa))
    got = [e.R for e in eqs if e.stability is not Stability.SINGULAR_TIP]
    assert got == pytest.approx(regular, rel=1e-12)


@pytest.mark.parametrize("mu, ell, lam, kappa", [
    (1.4937895283064293, 1.4937895283064293, 0.0, 2.325513759512814),  # merge
    (0, 0, -0.5, 1),                                                    # cusp tip
    (0.3, -0.2, -0.4, 1.0),                                             # generic
])
def test_equilibrium_fields_are_python_floats(mu, ell, lam, kappa):
    eqs = equilibria(CasimirValues(mu, ell), ReducedParams(lam=lam, kappa=kappa))
    assert eqs
    for e in eqs:
        for value in (e.R, e.X, e.h, e.quintic_deriv):
            assert type(value) is float, (e, value)


def _field_at(pt, cas, rp):
    return np.asarray(vector_field(cas, rp)(0.0, (pt.R, pt.X, pt.Y)))


def test_vector_field_bracket_convention():
    # with H = X the radial rate is twice the height Y
    pt = InvariantPoint(1.2, 0.4, 0.7)
    f = _field_at(pt, CasimirValues(0.3, -0.2), ReducedParams(lam=0.0, kappa=0.0))
    assert f[0] == pytest.approx(2.0 * pt.Y)


def test_vector_field_is_tangent():
    for _ in range(300):
        pt = InvariantPoint(float(RNG.uniform(0, 3)), float(RNG.normal(0, 2)),
                            float(RNG.normal(0, 2)))
        cas = CasimirValues(float(RNG.normal(0, 1.5)), float(RNG.normal(0, 1.5)))
        rp = ReducedParams(lam=float(RNG.normal(0, 1.0)), kappa=1.0)
        f = _field_at(pt, cas, rp)
        gs = np.array([-(3 * pt.R ** 2 - 2 * cas.ell * pt.R - cas.mu ** 2),
                       2 * pt.X, 2 * pt.Y])
        gh = np.array([rp.lam + rp.kappa * pt.R, 1.0, 0.0])
        scale = 1.0 + float(np.max(np.abs(f)))
        assert abs(np.dot(f, gs)) <= 1e-12 * scale * (1 + np.linalg.norm(gs))
        assert abs(np.dot(f, gh)) <= 1e-12 * scale * (1 + np.linalg.norm(gh))


def test_vector_field_vanishes_at_equilibria():
    cas = CasimirValues(0.4, -0.3)
    rp = ReducedParams(lam=0.7, kappa=1.0)
    for e in equilibria(cas, rp):
        if e.stability is Stability.SINGULAR_TIP:
            continue
        f = _field_at(equilibrium_point(e), cas, rp)
        assert np.max(np.abs(f)) <= 1e-6


def _orbit_start(cas, rp, h):
    q = f_quartic(h, rp, cas)
    roots = np.sort(q.roots().real[np.abs(q.roots().imag) < 1e-9])
    roots = roots[roots >= r_min(cas) - 1e-12]
    mid = 0.5 * (roots[0] + roots[1])
    x = h - rp.lam * mid - 0.5 * rp.kappa * mid * mid
    y = math.sqrt(max(-float(q.value(mid)), 0.0))
    return InvariantPoint(R=float(mid), X=float(x), Y=y)


def test_integrate_orbit_conserves_and_finds_period():
    # the syzygy and the energy hold to 1e-9 over 1e3 time units
    cas = CasimirValues(0.0, 0.0)
    rp = ReducedParams(lam=-1.0, kappa=1.0)
    start = _orbit_start(cas, rp, h=0.5)
    traj = integrate_orbit(start, cas, rp, t_end=1000.0)
    assert traj.s_drift <= 1e-9
    assert traj.h_drift <= 1e-9
    # the reduced period from the period-integral quadrature is a genuine
    # full return of the flow, not an R-return alias: integrating for
    # exactly one period lands back at the start
    (rd,) = rotation_numbers((0.0, 0.0, 0.5), ModelParams(delta=-1.0))
    period = rd.T_red
    traj2 = integrate_orbit(start, cas, rp, t_end=period)
    assert np.linalg.norm(traj2.points[-1] - start.as_array()) <= 1e-6


def test_integrate_orbit_stationary_at_equilibrium():
    cas = CasimirValues(0.4, -0.3)
    rp = ReducedParams(lam=0.7, kappa=1.0)
    eq = [e for e in equilibria(cas, rp) if e.stability is Stability.ELLIPTIC][0]
    start = equilibrium_point(eq)
    traj = integrate_orbit(start, cas, rp, t_end=10.0)
    assert np.max(np.abs(traj.points - start.as_array())) <= 1e-6


def test_integrate_orbit_rejects_off_surface_start():
    with pytest.raises(ValidationError):
        integrate_orbit(InvariantPoint(1.0, 5.0, 5.0), CasimirValues(0, 0),
                        ReducedParams(lam=0.0, kappa=1.0), t_end=1.0)


def test_h_min_examples_and_oracle():
    # tip attains the minimum at the resonant values
    assert h_min(CasimirValues(0, 0), ReducedParams(lam=1.0, kappa=1.0)) == \
        pytest.approx(0.0, abs=1e-12)

    def h_min_oracle(cas, rp, h_lo=-50.0, h_hi=50.0):
        # bisection on "the fiber is nonempty": min F < 0 on a dense grid
        lo = r_min(cas)
        grid = np.linspace(lo, lo + 30.0, 30_000)
        sec = (grid ** 2 - cas.mu ** 2) * (grid - cas.ell)

        def nonempty(h):
            x1 = h - rp.lam * grid - 0.5 * rp.kappa * grid ** 2
            return bool(np.any(x1 * x1 - sec < 0.0))

        for _ in range(60):
            mid = 0.5 * (h_lo + h_hi)
            if nonempty(mid):
                h_hi = mid
            else:
                h_lo = mid
        return 0.5 * (h_lo + h_hi)

    for (mu, ell, lam) in [(3.0, 0.0, 0.0), (0.3, 0.4, 0.0), (0.0, -1.0, -1.0),
                           (1.0, 1.0, 0.3), (0.2, -0.7, 0.52)]:
        cas = CasimirValues(mu, ell)
        rp = ReducedParams(lam=lam, kappa=1.0)
        assert h_min(cas, rp) == pytest.approx(h_min_oracle(cas, rp), abs=1e-5)


def test_h_min_requires_positive_kappa():
    with pytest.raises(UnsupportedRegimeError):
        h_min(CasimirValues(0, 0), ReducedParams(lam=0.0, kappa=0.0))
    with pytest.raises(UnsupportedRegimeError):
        h_min(CasimirValues(0, 0), ReducedParams(lam=0.0, kappa=-1.0))


def test_h_min_continuity_along_line():
    rp = ReducedParams(lam=0.3, kappa=1.0)
    ells = np.linspace(-2.0, 2.0, 81)
    vals = [h_min(CasimirValues(0.4, float(e)), rp) for e in ells]
    jumps = np.abs(np.diff(vals))
    assert np.max(jumps) < 0.2  # grid modulus: no discontinuities


def test_h_min_never_exceeds_tip_energy():
    for _ in range(300):
        cas = CasimirValues(float(RNG.normal(0, 1.5)), float(RNG.normal(0, 1.5)))
        rp = ReducedParams(lam=float(RNG.normal(0, 1.0)), kappa=1.0)
        tip_h = rp.lam * r_min(cas) + 0.5 * rp.kappa * r_min(cas) ** 2
        assert h_min(cas, rp) <= tip_h + 1e-10


class NormalForm(NamedTuple):
    """All nine coefficients of the normal form through order four.

    ModelParams holds only delta, kappa, lambda1 and lambda2: the terms in
    the Casimirs alone (alpha L, beta N and the gamma quadratics) are
    constants on each reduced space, but they do shift the internal
    frequencies.
    """

    alpha: float = 0.0
    beta: float = 0.0
    delta: float = 0.0
    kappa: float = 1.0
    lambda1: float = 0.0
    lambda2: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    gamma3: float = 0.0


def internal_frequencies(R: float, cas: CasimirValues, mp: NormalForm) -> tuple[float, float]:
    """Internal frequencies (dH/dN, dH/dJ) of the 2-torus over a regular
    equilibrium, from the full normal form with the second Casimir replaced
    by 2J - N."""
    dn = (mp.beta - mp.alpha
          + (mp.gamma1 - mp.gamma2) * cas.mu
          + (mp.gamma2 - mp.gamma3) * cas.ell
          + (mp.lambda1 - mp.lambda2) * R)
    dj = 2.0 * (mp.alpha + mp.gamma2 * cas.mu + mp.gamma3 * cas.ell + mp.lambda2 * R)
    return dn, dj


def test_internal_frequencies_closed_form_and_fd():
    mp = NormalForm(alpha=1.0)
    assert internal_frequencies(0.7, CasimirValues(0.2, 0.4), mp) == (-1.0, 2.0)
    mp2 = NormalForm(alpha=0.8, beta=0.8)
    dn, _ = internal_frequencies(0.5, CasimirValues(0.0, 0.0), mp2)
    assert dn == 0.0  # beta = alpha cancels

    # finite differences of the full normal form in (N, J) at fixed point
    def h_full(n, j, R, X, mp):
        l = 2.0 * j - n
        return (mp.alpha * l + mp.beta * n + mp.delta * R + X
                + 0.5 * mp.kappa * R * R + (mp.lambda1 * n + mp.lambda2 * l) * R
                + 0.5 * mp.gamma1 * n * n + mp.gamma2 * n * l
                + 0.5 * mp.gamma3 * l * l)

    for _ in range(50):
        mp = NormalForm(*(float(v) for v in RNG.normal(0, 1.0, 9)))
        n0, j0, R0 = (float(v) for v in RNG.normal(0, 1.0, 3))
        cas = CasimirValues(n0, 2.0 * j0 - n0)
        dn, dj = internal_frequencies(R0, cas, mp)
        eps = 1e-6
        fd_n = (h_full(n0 + eps, j0, R0, 0.0, mp)
                - h_full(n0 - eps, j0, R0, 0.0, mp)) / (2 * eps)
        fd_j = (h_full(n0, j0 + eps, R0, 0.0, mp)
                - h_full(n0, j0 - eps, R0, 0.0, mp)) / (2 * eps)
        assert dn == pytest.approx(fd_n, abs=1e-8)
        assert dj == pytest.approx(fd_j, abs=1e-8)


def test_equilibria_reject_an_overflowing_quintic():
    # like an overflowing quartic F, an overflowing tangency quintic is an
    # input out of range, not a failed root solve
    for cas, rp in ((CasimirValues(-3.0, -3.0), ReducedParams(1e300, 1.0)),
                    (CasimirValues(1e200, 0.0), ReducedParams(0.0, 1.0))):
        with pytest.raises(ValidationError, match="tangency quintic overflows"):
            equilibria(cas, rp)
