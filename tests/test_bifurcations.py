"""Bifurcation machinery: quartic, classification rules, both catalog
routes, the numeric solver, and the instability intervals."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from res112 import (AmbiguousClassificationError, BifurcationKind,
                    CasimirValues, LambdaStratum, ReducedParams, Res112Error,
                    UnsupportedRegimeError, ValidationError, a0_root,
                    catalog_point, catalog_slice,
                    classify_multiple_root, f_quartic, families_at,
                    family_domain, hopf_cusp_slice, instability_interval,
                    kappa_scaling, oracle_slice, solve_bifurcations_numeric)
from res112 import bifurcations
from res112.bifurcations import (_TWO_SIGN_FAMILIES, _cs_probe,
                                 _discriminant_core, _ell_from_mu2,
                                 _ell_slope, _mu2_branches, a_quadruple,
                                 a_sub_boundary, a_sup_boundary,
                                 g_cubic_coeffs, residual_scale)

RNG = np.random.default_rng(31415926)


# ---------------------------------------------------------------------------
# the quartic itself
# ---------------------------------------------------------------------------

def test_quartic_expansion_example():
    q = f_quartic(0.0, ReducedParams(lam=0.0, kappa=1.0), CasimirValues(0, 0))
    # F(R) = R^4/4 - R^3
    assert q.coeffs == (0.0, 0.0, 0.0, -1.0, 0.25)
    assert q.value(2.0) == pytest.approx(4.0 - 8.0)


def test_quartic_matches_defining_expression():
    for _ in range(300):
        lam, kap, mu, ell, h = (float(v) for v in RNG.normal(0, 1.5, 5))
        q = f_quartic(h, ReducedParams(lam=lam, kappa=kap), CasimirValues(mu, ell))
        for R in RNG.uniform(-2, 4, 5):
            direct = (h - lam * R - 0.5 * kap * R * R) ** 2 \
                - (R * R - mu * mu) * (R - ell)
            scale = max(1.0, abs(direct))
            assert abs(q.value(R) - direct) <= 1e-13 * scale
        assert q.d4 == pytest.approx(6.0 * kap * kap)


def test_quartic_nonnegative_at_r_min():
    for _ in range(500):
        lam, mu, ell, h = (float(v) for v in RNG.normal(0, 1.5, 4))
        q = f_quartic(h, ReducedParams(lam=lam, kappa=1.0), CasimirValues(mu, ell))
        assert q.value(max(abs(mu), ell)) >= -1e-12


# ---------------------------------------------------------------------------
# classification rules
# ---------------------------------------------------------------------------

def test_classify_resonant_equilibrium():
    # the common point of the three subcritical curves: triple root at the
    # cuspidal tip with F'''(0) = -6
    cas = CasimirValues(0.0, 0.0)
    q = f_quartic(0.0, ReducedParams(lam=0.0, kappa=1.0), cas)
    assert q.d3(0.0) == pytest.approx(-6.0)
    assert classify_multiple_root(0.0, q, cas) is BifurcationKind.HOPF_SUB


def test_classify_supercritical_branch_point():
    cas = CasimirValues(0.0, -2.25)
    h = 0.0
    q = f_quartic(h, ReducedParams(lam=1.5, kappa=1.0), cas)
    assert q.d3(0.0) == pytest.approx(3.0)
    assert classify_multiple_root(0.0, q, cas) is BifurcationKind.HOPF_SUPER


def test_classify_quadruple_root_degenerate():
    cas = CasimirValues(0.0, -1.0)
    q = f_quartic(0.0, ReducedParams(lam=1.0, kappa=1.0), cas)
    # quadruple root at the tip: F = (R^4)/4 shape
    assert classify_multiple_root(0.0, q, cas) is BifurcationKind.HOPF_DEGENERATE


def test_classify_rejects_non_root():
    cas = CasimirValues(0.3, 0.1)
    q = f_quartic(1.0, ReducedParams(lam=0.2, kappa=1.0), cas)
    with pytest.raises(ValidationError):
        classify_multiple_root(1.0, q, cas)


def test_classify_flags_gray_zone():
    # a subcritical Hopf point an epsilon away from the degenerate one: the
    # root is at the tip and F''' sits in the gray band around zero, so no
    # confident sub/degenerate call is possible
    lam = 1.0 - 2e-8
    pt = catalog_point("HHsub3", lam=lam)
    cas = CasimirValues(pt.mu, pt.ell)
    q = f_quartic(pt.h, ReducedParams(lam=lam, kappa=1.0), cas)
    f3 = abs(q.d3(pt.a))
    tol_f3 = 1e-8 * 6.0 * (1.0 + abs(pt.a))
    assert tol_f3 < f3 <= 10 * tol_f3  # genuinely in the gray band
    with pytest.raises(AmbiguousClassificationError):
        classify_multiple_root(pt.a, q, cas)
    # while a clearly subcritical neighbour classifies fine
    pt2 = catalog_point("HHsub3", lam=0.9)
    q2 = f_quartic(pt2.h, ReducedParams(lam=0.9, kappa=1.0),
                   CasimirValues(pt2.mu, pt2.ell))
    assert classify_multiple_root(pt2.a, q2, CasimirValues(pt2.mu, pt2.ell)) \
        is BifurcationKind.HOPF_SUB


# ---------------------------------------------------------------------------
# catalog: spot values straight from the closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,kwargs,expected", [
    ("HHdeg1", {}, (0.5, 0.5, 0.5)),
    ("HHdeg2", {}, (0.5, -0.5, 0.5)),
    ("HHdeg3", {}, (1.0, 0.0, -1.0)),
    ("Cusp3", {"mu": 0.0}, (0.5, 0.0, 0.25)),
    ("HHsub3", {"lam": 0.3}, (0.3, 0.0, -0.09)),
    ("HHsup1", {"lam": 0.0}, (0.0, 2.0, 2.0)),
    ("HHsup2", {"lam": 0.0}, (0.0, -2.0, 2.0)),
])
def test_catalog_spot_values(family, kwargs, expected):
    pt = catalog_point(family, **kwargs)
    assert (pt.lam, pt.mu, pt.ell) == pytest.approx(expected, abs=1e-14)


def test_cusp12_closed_form():
    lam = 0.75
    root = math.sqrt(2 * lam - 1)
    p1 = catalog_point("Cusp1", lam=lam)
    p2 = catalog_point("Cusp2", lam=lam)
    assert p1.mu == pytest.approx(-(lam - root))
    assert p2.mu == pytest.approx(lam - root)
    assert p1.ell == p2.ell == pytest.approx(1 - lam - root)
    assert p1.a == p2.a == pytest.approx(1 - lam)
    assert p1.b == p1.a  # quadruple root


def test_catalog_points_are_verified_roots():
    # every family, sampled across its range:真 triple roots, right kind
    cases = []
    for lam in np.linspace(-1.7, 0.44, 9):
        lam = float(lam)
        hi = a_sub_boundary(lam, 1.0)
        cases += [("CS1", dict(lam=lam, a=0.5 * hi)),
                  ("CS2", dict(lam=lam, a=0.3 * hi)),
                  ("HHsub1", dict(lam=lam)), ("HHsub2", dict(lam=lam)),
                  ("HHsup1", dict(lam=lam)), ("HHsup2", dict(lam=lam)),
                  ("HHsub3", dict(lam=lam))]
        lo = a0_root(lam, 1.0)
        cases.append(("CS3", dict(lam=lam, a=lo + 0.5 * (hi - lo), sign=-1)))
    for lam in np.linspace(0.55, 0.95, 5):
        lam = float(lam)
        lo, hi = 1.0 - lam, a0_root(lam, 1.0)
        cases += [("CS4", dict(lam=lam, a=lo + 0.4 * (hi - lo), sign=1)),
                  ("Cusp1", dict(lam=lam)), ("Cusp2", dict(lam=lam)),
                  ("CS1", dict(lam=lam, a=0.6 * lo)),
                  ("HHsub3", dict(lam=lam))]
    cases += [("HHsup3", dict(lam=2.0)), ("Cusp3", dict(mu=0.3)),
              ("HHdeg1", {}), ("HHdeg2", {}), ("HHdeg3", {})]
    for family, kw in cases:
        pt = catalog_point(family, **kw)
        cas = CasimirValues(pt.mu, pt.ell)
        q = f_quartic(pt.h, ReducedParams(lam=pt.lam, kappa=1.0), cas)
        scale = residual_scale(pt.a, pt.h, cas, 1.0)
        assert max(abs(q.value(pt.a)), abs(q.d1(pt.a)), abs(q.d2(pt.a))) \
            <= 1e-9 * scale, (family, kw)
        assert classify_multiple_root(pt.a, q, cas) is pt.kind, (family, kw)
        # factorization: the leftover root b satisfies F(b) = 0
        if pt.b is not None:
            assert abs(q.value(pt.b)) <= 1e-9 * max(scale, pt.b ** 4)


def test_catalog_general_kappa():
    for kappa in (0.5, 2.0):
        pt = catalog_point("HHdeg3", kappa=kappa)
        assert (pt.lam, pt.mu, pt.ell) == pytest.approx(
            (1 / kappa, 0.0, -1 / kappa ** 2))
        pt = catalog_point("Cusp3", mu=0.0, kappa=kappa)
        assert (pt.lam, pt.ell) == pytest.approx(
            (0.5 / kappa, 0.25 / kappa ** 2))
        lam = 0.2 / kappa
        p = catalog_point("CS1", lam=lam, a=0.4 * a_sub_boundary(lam, kappa),
                          kappa=kappa)
        cas = CasimirValues(p.mu, p.ell)
        q = f_quartic(p.h, ReducedParams(lam=p.lam, kappa=kappa), cas)
        assert max(abs(q.value(p.a)), abs(q.d1(p.a)), abs(q.d2(p.a))) \
            <= 1e-9 * residual_scale(p.a, p.h, cas, kappa)


def test_catalog_range_enforcement():
    with pytest.raises(ValidationError):
        catalog_point("CS1", lam=0.3, a=a_sub_boundary(0.3, 1.0) + 0.1)
    with pytest.raises(ValidationError):
        catalog_point("CS3", lam=0.3, a=0.5 * a0_root(0.3, 1.0))
    with pytest.raises(ValidationError):
        catalog_point("Cusp1", lam=0.3)
    with pytest.raises(ValidationError):
        catalog_point("HHsup3", lam=0.5)
    with pytest.raises(ValidationError):
        catalog_point("Cusp3", mu=0.6)
    with pytest.raises(ValidationError):
        catalog_point("CS1", lam=0.0, a=0.1)


def _restated_domain(family, lam, kappa):
    """The catalog's a-ranges written out here, with a0 found by bisection of
    the range cubic; None where the family has no stratum at lam."""
    if family.endswith("_k0"):
        return None if lam == 0.0 else (
            4.0 * lam ** 2 / 9.0 if family == "CS3_k0" else 0.0, lam ** 2 / 2.0)
    x = kappa * lam  # family boundaries sit at x = 0, 1/2 and 1
    if x == 0.0 or x >= 1.0 or (family == "CS3" and x >= 0.5) \
            or (family == "CS4" and x <= 0.5):
        return None
    hopf = (1.0 - x - math.sqrt(max(1.0 - 2.0 * x, 0.0))) / kappa ** 2
    cusp = (1.0 - x) / kappa ** 2
    if family in ("CS1", "CS2"):
        return (0.0, hopf if x < 0.5 else cusp)
    coeffs = g_cubic_coeffs(lam, kappa)
    a0 = brentq(lambda a: np.polyval(coeffs, a), 1e-12, 10.0, xtol=1e-14)
    return (a0, hopf) if family == "CS3" else (cusp, a0)


@pytest.mark.parametrize("family,kappa", [
    (fam, kap) for fam in ("CS1", "CS2", "CS3", "CS4") for kap in (1.0, 2.0)
] + [(fam, 0.0) for fam in ("CS1_k0", "CS2_k0", "CS3_k0")])
@pytest.mark.parametrize("x", [-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.25])
def test_family_domain_matches_restated_ranges(family, kappa, x):
    # lam = x / kappa lies on both sides of 0, 1/(2 kappa) and 1/kappa
    # (kappa = 0: lam = x, on both sides of 0)
    lam = x / kappa if kappa else x
    expected = _restated_domain(family, lam, kappa)
    if expected is None:
        with pytest.raises(ValidationError):
            family_domain(family, lam, kappa)
        with pytest.raises(ValidationError):
            catalog_point(family, lam=lam, a=0.01, sign=-1, kappa=kappa)
        return
    lo, hi = family_domain(family, lam, kappa)
    assert (lo, hi) == pytest.approx(expected, rel=1e-12, abs=1e-10)
    # the catalog enforces exactly this open interval
    for a in (lo - 1e-12, hi + 1e-12):
        with pytest.raises(ValidationError):
            catalog_point(family, lam=lam, a=a, sign=-1, kappa=kappa)
    for a in (lo + 1e-12, hi - 1e-12):
        assert catalog_point(family, lam=lam, a=a, sign=-1, kappa=kappa).a == a


def test_catalog_boundary_lambda_half():
    # CS1/CS2 extended by continuity: flagged boundary points on the
    # factorised branch mu^2 = 2 a^3
    pt = catalog_point("CS1", lam=0.5, a=0.2)
    assert pt.boundary
    assert pt.mu == pytest.approx(-math.sqrt(2 * 0.2 ** 3))
    cas = CasimirValues(pt.mu, pt.ell)
    q = f_quartic(pt.h, ReducedParams(lam=0.5, kappa=1.0), cas)
    assert max(abs(q.value(pt.a)), abs(q.d1(pt.a)), abs(q.d2(pt.a))) <= 1e-12


@pytest.mark.parametrize("kappa", [1.0, 2.0])
@pytest.mark.parametrize("direction", [-1.0, 1.0])
def test_family_domain_agrees_with_catalog_next_to_lambda_half(kappa, direction):
    # one ulp off lam = 1/(2 kappa) the catalog uses the boundary formula;
    # family_domain states the range that formula enforces there
    lam = float(np.nextafter(0.5 / kappa, direction))
    for family in ("CS3", "CS4"):
        with pytest.raises(ValidationError):
            family_domain(family, lam, kappa)
        with pytest.raises(ValidationError):
            catalog_point(family, lam=lam, a=0.4 / kappa ** 2, kappa=kappa)
    for family in ("CS1", "CS2"):
        lo, hi = family_domain(family, lam, kappa)
        assert (lo, hi) == (0.0, 0.5 / kappa ** 2)
        for a in (lo - 1e-12, hi + 1e-12):
            with pytest.raises(ValidationError):
                catalog_point(family, lam=lam, a=a, kappa=kappa)
        for a in (lo + 1e-12, hi - 1e-12):
            pt = catalog_point(family, lam=lam, a=a, kappa=kappa)
            assert pt.boundary and pt.a == a


_HALF_BELOW = math.nextafter(0.5, 0.0)
_HALF_ABOVE = math.nextafter(0.5, 1.0)
_ONE_BELOW = math.nextafter(1.0, 0.0)
_ONE_ABOVE = math.nextafter(1.0, 2.0)


# lam = x / kappa with x next to the boundaries kappa lam = 0, 1/2 and 1;
# dividing by a power of two is exact, so the ulp steps carry over
@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("x,expected", [
    (0.0, {"HHsub1", "HHsub2", "HHsub3", "HHsup1", "HHsup2"}),
    # CS3 has no points within 1e-14/kappa of lam = 1/(2 kappa)
    (_HALF_BELOW, {"CS1", "CS2", "HHsub1", "HHsub2", "HHsub3", "HHsup1", "HHsup2"}),
    (0.5, {"CS1", "CS2", "HHsub3"}),
    (_HALF_ABOVE, {"CS1", "CS2", "Cusp1", "Cusp2", "HHsub3"}),
    (_ONE_BELOW, {"CS1", "CS2", "CS4", "Cusp1", "Cusp2", "HHsub3"}),
    (1.0, set()),
    (_ONE_ABOVE, {"HHsup3"}),
])
def test_families_at_table(kappa, x, expected):
    fams = families_at(x / kappa, kappa)
    assert set(fams) == expected
    assert list(fams) == [f for f in bifurcations.CATALOG_FAMILIES if f in fams]


def test_families_at_kappa0_and_negative_kappa():
    for lam in (-1.0, 1.0):
        assert families_at(lam, 0.0) == bifurcations.KAPPA0_FAMILIES
    assert families_at(0.0, 0.0) == ()
    with pytest.raises(UnsupportedRegimeError):
        families_at(0.3, -1.0)
    with pytest.raises(UnsupportedRegimeError):
        solve_bifurcations_numeric(0.0, -1.0, n_grid=51)


# ---------------------------------------------------------------------------
# adjacency: family closures meet at the Hopf/cusp strata
# ---------------------------------------------------------------------------

def test_family_adjacency_limits():
    lam = 0.3
    hi = a_sub_boundary(lam, 1.0)
    for fam, target in (("CS2", "HHsub1"), ("CS1", "HHsub2")):
        pt = catalog_point(fam, lam=lam, a=hi * (1 - 1e-9))
        hp = catalog_point(target, lam=lam)
        assert math.hypot(pt.mu - hp.mu, pt.ell - hp.ell) < 1e-3
    # CS3 closure reaches both HHsub1 and HHsub2 through its two signs
    for sign, target in ((1, "HHsub1"), (-1, "HHsub2")):
        pt = catalog_point("CS3", lam=lam, a=hi * (1 - 1e-9), sign=sign)
        hp = catalog_point(target, lam=lam)
        assert math.hypot(pt.mu - hp.mu, pt.ell - hp.ell) < 1e-3
    # CS1/CS2 a -> 0 limits onto HHsub3
    for fam in ("CS1", "CS2"):
        pt = catalog_point(fam, lam=lam, a=1e-10)
        hp = catalog_point("HHsub3", lam=lam)
        assert math.hypot(pt.mu - hp.mu, pt.ell - hp.ell) < 1e-4
    # CS4 closure reaches the cusp edge
    lam = 0.75
    pt = catalog_point("CS4", lam=lam, a=(1 - lam) * (1 + 1e-10), sign=-1)
    cp = catalog_point("Cusp1", lam=lam)
    assert math.hypot(pt.mu - cp.mu, pt.ell - cp.ell) < 1e-4


# ---------------------------------------------------------------------------
# a0 root
# ---------------------------------------------------------------------------

def test_a0_root_bisection_oracle():
    for lam in (0.75, 0.6, 0.9, 0.3, -1.0, -0.2):
        coeffs = g_cubic_coeffs(lam, 1.0)
        a0 = a0_root(lam, 1.0)
        oracle = brentq(lambda a: np.polyval(coeffs, a), 1e-12, 10.0, xtol=1e-14)
        assert a0 == pytest.approx(oracle, abs=1e-10)
        # sole sign change on (0, inf): g < 0 below, > 0 above
        assert np.polyval(coeffs, 0.5 * a0) < 0.0
        assert np.polyval(coeffs, 2.0 * a0) > 0.0


def test_a0_root_window_behavior():
    # g(0) = 4 kappa^2 lam^2 (kappa lam - 1) < 0 inside the window
    for lam in (0.55, 0.75, 0.95):
        g0 = np.polyval(g_cubic_coeffs(lam, 1.0), 0.0)
        assert g0 == pytest.approx(4 * lam * lam * (lam - 1))
        assert g0 < 0.0
    # a0 -> 0 as lam approaches 1/kappa from below
    assert a0_root(1.0 - 1e-7, 1.0) < 1e-5
    with pytest.raises(ValidationError):
        a0_root(1.2, 1.0)  # g > 0 for all a > 0
    with pytest.raises(ValidationError):
        a0_root(0.0, 1.0)


def test_a_sub_boundary_at_kappa0_is_its_limit():
    # (1 - k lam - sqrt(1 - 2 k lam)) / k^2 -> lam^2 / 2 as k -> 0
    for lam in (-1.6, -0.3, -1e-9, 1e-9, 0.7, 1.45):
        assert a_sub_boundary(lam, 0.0) == 0.5 * lam * lam


@pytest.mark.xfail(strict=True, reason="1 - kappa lam - sqrt(1 - 2 kappa lam) "
                   "cancels for small |lam|; the fix moves CS and HHsub bytes")
def test_a_sub_boundary_is_accurate_near_lam_zero():
    # the cancellation-free form lam^2 / (1 - kappa lam + sqrt(1 - 2 kappa lam))
    for lam in (-1e-9, -1e-6):
        exact = lam * lam / (1.0 - lam + math.sqrt(1.0 - 2.0 * lam))
        assert a_sub_boundary(lam, 1.0) == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.xfail(strict=True, reason="the companion-matrix roots return the "
                   "double root 3/2 of a (2a - 3)^2; the fix moves CS3 bytes")
def test_a0_root_near_lam_zero_is_the_small_root():
    # np.linspace(-3, 3, 20001)[10000]; the root is 4 lam^2/9 to leading order
    lam = -4.440892098500626e-16
    assert a0_root(lam, 1.0) == pytest.approx(4.0 * lam * lam / 9.0, rel=1e-6, abs=0.0)


# ---------------------------------------------------------------------------
# numeric solver
# ---------------------------------------------------------------------------

EXPECTED_FAMILIES = {
    -1.0: {"CS1", "CS2", "CS3", "HHsub1", "HHsub2", "HHsub3", "HHsup1", "HHsup2"},
    0.3: {"CS1", "CS2", "CS3", "HHsub1", "HHsub2", "HHsub3", "HHsup1", "HHsup2"},
    0.48: {"CS1", "CS2", "CS3", "HHsub1", "HHsub2", "HHsub3", "HHsup1", "HHsup2"},
    0.52: {"CS1", "CS2", "CS4", "Cusp1", "Cusp2", "HHsub3"},
    0.75: {"CS1", "CS2", "CS4", "Cusp1", "Cusp2", "HHsub3"},
    1.5: {"HHsup3"},
}


def _assert_events_verify(evs, kappa):
    """Every event is a genuine multiple root of F with its own kind."""
    for e in evs:
        cas = CasimirValues(e.mu, e.ell)
        q = f_quartic(e.h, ReducedParams(lam=e.lam, kappa=kappa), cas)
        assert classify_multiple_root(e.a, q, cas) is e.kind, e


# the kappa = 1 table at lam = lam1/kappa: the strata scale with 1/kappa
@pytest.mark.parametrize("kappa,lam1", [
    pytest.param(kappa, lam1, id=str(lam1) if kappa == 1.0 else f"{lam1}-kappa{kappa}")
    for kappa in (0.5, 1.0, 2.0) for lam1 in sorted(EXPECTED_FAMILIES)])
def test_numeric_solver_recovers_catalog(kappa, lam1):
    evs = solve_bifurcations_numeric(lam1 / kappa, kappa, n_grid=401)
    assert {e.family for e in evs if e.family} == EXPECTED_FAMILIES[lam1]
    assert set(families_at(lam1 / kappa, kappa)) == EXPECTED_FAMILIES[lam1]
    assert all(e.family is not None for e in evs)
    for e in evs:
        if e.family.startswith("CS"):
            assert LambdaStratum(e.lam, kappa).distance(e, e.family) <= 1e-6
    _assert_events_verify(evs, kappa)


@pytest.mark.parametrize("lam,kappa,n_grid", [
    (0.025, 1.0, 2001), (-0.375, 0.5, 801), (-0.025, 2.0, 801)])
def test_numeric_solver_drops_candidates_off_the_quartic(lam, kappa, n_grid):
    # candidates just below a_sup_boundary, admitted by the noise clamp of
    # the mu^2 discriminant, fail the residual check and are dropped; every
    # lam here lies in the stratum lam < 1/(2 kappa), lam != 0
    evs = solve_bifurcations_numeric(lam, kappa, n_grid=n_grid)
    assert {e.family for e in evs if e.family} == EXPECTED_FAMILIES[0.3]
    _assert_events_verify(evs, kappa)


def test_numeric_solver_lambda_zero_special_case():
    evs = solve_bifurcations_numeric(0.0, 1.0)
    coords = sorted((round(e.mu, 9), round(e.ell, 9)) for e in evs)
    assert coords == [(-2.0, 2.0), (0.0, 0.0), (2.0, 2.0)]
    kinds = {(round(e.mu, 9)): e.kind for e in evs}
    assert kinds[0.0] is BifurcationKind.HOPF_SUB
    assert kinds[2.0] is BifurcationKind.HOPF_SUPER
    assert kinds[-2.0] is BifurcationKind.HOPF_SUPER


def test_numeric_solver_lambda_half_special_case():
    evs = solve_bifurcations_numeric(0.5, 1.0, n_grid=801)
    kinds = {e.kind for e in evs}
    assert BifurcationKind.CUSP in kinds            # the Cusp3 line
    assert BifurcationKind.CENTRE_SADDLE in kinds   # mu^2 = 2 a^3 branch
    assert BifurcationKind.HOPF_DEGENERATE in kinds  # its two endpoints
    degs = sorted(round(e.mu, 9) for e in evs
                  if e.kind is BifurcationKind.HOPF_DEGENERATE)
    assert degs == [-0.5, 0.5]
    # the cusp line is ell = 1/4 + mu^2 exactly
    for e in evs:
        if e.kind is BifurcationKind.CUSP:
            assert e.ell == pytest.approx(0.25 + e.mu ** 2, abs=1e-12)
            assert e.a == pytest.approx(0.5)
    subs = [e for e in evs if e.kind is BifurcationKind.HOPF_SUB]
    assert any(abs(e.ell + 0.25) < 1e-9 for e in subs)  # HHsub3 at (1/2,0,-1/4)


def test_numeric_solver_kappa_scaling_covariance():
    evs2 = solve_bifurcations_numeric(0.15, 2.0, n_grid=401)
    assert {e.family for e in evs2 if e.family} == EXPECTED_FAMILIES[0.3]
    for e in evs2:
        s = kappa_scaling(2.0, lam=e.lam, mu=e.mu, ell=e.ell, R=e.a, h=e.h,
                          inverse=True)
        assert s.lam == pytest.approx(0.3)
        scaled = replace(e, kappa=1.0, lam=s.lam, mu=s.mu, ell=s.ell, a=s.R, h=s.h)
        assert LambdaStratum(s.lam, 1.0).distance(scaled, e.family) <= 1e-8


def _newton_triple_root(lam: float, kappa: float, mu: float, a0: float,
                        h0: float, ell0: float, max_iter: int = 60,
                        tol: float = 1e-12) -> tuple[float, float, float] | None:
    """Solve F(a) = F'(a) = F''(a) = 0 for (a, h, ell) at fixed (lam, kappa, mu).

    Damped Newton with analytic Jacobian; returns None when it fails to
    converge.  The independent cross-check on the elimination solver.
    """
    v = np.array([a0, h0, ell0], dtype=float)
    mu2 = mu * mu

    def system(v):
        a, h, ell = v
        cas = CasimirValues(mu=mu, ell=ell)
        q = f_quartic(h, ReducedParams(lam=lam, kappa=kappa), cas)
        F = np.array([q.value(a), q.d1(a), q.d2(a)])
        x1 = h - lam * a - 0.5 * kappa * a * a
        J = np.array([
            [q.d1(a), 2.0 * x1, a * a - mu2],
            [q.d2(a), 2.0 * (-lam - kappa * a), 2.0 * a],
            [q.d3(a), -2.0 * kappa, 2.0],
        ])
        return F, J

    scale = max(1.0, abs(a0), abs(h0), abs(ell0))
    for _ in range(max_iter):
        F, J = system(v)
        nrm = float(np.max(np.abs(F)))
        if nrm <= tol * max(1.0, scale ** 4):
            return tuple(v)
        try:
            step = np.linalg.solve(J, F)
        except np.linalg.LinAlgError:
            return None
        # damping: halve until the residual shrinks
        lamb = 1.0
        for _ in range(30):
            trial = v - lamb * step
            Ft, _ = system(trial)
            if float(np.max(np.abs(Ft))) < nrm:
                v = trial
                break
            lamb *= 0.5
        else:
            return None
    return None


def test_newton_cross_check():
    # damped Newton on (F, F', F'') from a perturbed seed lands back on the
    # catalog point
    for fam, kw in (("CS1", dict(lam=0.75, a=0.12)),
                    ("CS3", dict(lam=0.3, a=None)),
                    ("CS4", dict(lam=0.75, a=None))):
        lam = kw["lam"]
        if fam == "CS3":
            lo, hi = a0_root(lam, 1.0), a_sub_boundary(lam, 1.0)
            kw["a"] = 0.5 * (lo + hi)
        if fam == "CS4":
            lo, hi = 1.0 - lam, a0_root(lam, 1.0)
            kw["a"] = 0.5 * (lo + hi)
        pt = catalog_point(fam, **kw)
        sol = _newton_triple_root(pt.lam, 1.0, pt.mu,
                                  pt.a * 1.001 + 1e-4, pt.h + 1e-3,
                                  pt.ell - 1e-3)
        assert sol is not None
        a, h, ell = sol
        assert a == pytest.approx(pt.a, abs=1e-9)
        assert h == pytest.approx(pt.h, abs=1e-9)
        assert ell == pytest.approx(pt.ell, abs=1e-9)


def test_degenerate_points_are_quadruple_roots():
    for fam in ("HHdeg1", "HHdeg2", "HHdeg3"):
        pt = catalog_point(fam)
        assert pt.b == pytest.approx(pt.a, abs=1e-14)
        assert pt.a == pytest.approx(1.0 - pt.lam, abs=1e-14)  # 1/k^2 - lam/k
        q = f_quartic(pt.h, ReducedParams(lam=pt.lam, kappa=1.0),
                      CasimirValues(pt.mu, pt.ell))
        assert q.d4 == 6.0
        assert abs(q.d3(pt.a)) <= 1e-12


# ---------------------------------------------------------------------------
# kappa = 0 catalog and sweeps
# ---------------------------------------------------------------------------

def _kappa0_closed_form(family, lam, a, sign):
    """(mu, ell, h, a) of a kappa = 0 family written out on its own: the tip
    a = ell = lam^2/2 with mu = +-a (HHsub1_k0, HHsub2_k0) and a = mu = 0,
    ell = -lam^2 (HHsub3_k0); on the centre-saddle sheets
    mu^2 = base -+ rad with base = -3a^2 + 6a lam^2 - 2 lam^4 and
    rad = 2|lam|(lam^2 - 2a)^(3/2) (CS3_k0 takes the smaller root) and
    ell = 3a - lam^2; everywhere h = (mu^2 + 3a^2)/(2 lam)."""
    L2 = lam * lam
    if family == "HHsub3_k0":
        mu, ell, a = 0.0, -L2, 0.0
    elif family.startswith("HHsub"):
        a = ell = 0.5 * L2
        mu = a if family == "HHsub1_k0" else -a
    else:
        rad = 2.0 * abs(lam) * (L2 - 2.0 * a) ** 1.5
        base = -3.0 * a * a + 6.0 * a * L2 - 2.0 * L2 * L2
        mu = math.sqrt(max(base - rad if family == "CS3_k0" else base + rad, 0.0))
        mu *= {"CS1_k0": -1, "CS2_k0": 1, "CS3_k0": sign}[family]
        ell = 3.0 * a - L2
    return mu, ell, (mu * mu + 3.0 * a * a) / (2.0 * lam), a


def test_kappa0_families_are_the_general_closed_forms_at_kappa0():
    # catalog_point evaluates the _k0 families with the kappa > 0 formulas at
    # kappa = 0; the formulas written for kappa = 0 alone are their oracle
    n = 0
    for lam in np.linspace(-1.6, 1.6, 17):
        lam = float(lam)
        if lam == 0.0:
            continue
        for family in bifurcations.KAPPA0_FAMILIES:
            if family.startswith("HHsub"):
                probes = [(None, 1)]
            else:
                lo, hi = family_domain(family, lam, 0.0)
                probes = [(float(a), s) for a in np.linspace(lo, hi, 13)[1:-1]
                          for s in ((1, -1) if family == "CS3_k0" else (1,))]
            for a, sign in probes:
                pt = catalog_point(family, lam=lam, a=a, sign=sign, kappa=0.0)
                mu, ell, h, a_want = _kappa0_closed_form(family, lam, a, sign)
                assert (pt.a, pt.b, pt.kappa) == (a_want, None, 0.0)
                assert pt.mu * mu >= 0.0, (family, lam, a)
                assert abs(pt.mu * pt.mu - mu * mu) <= 1e-11, (family, lam, a)
                assert abs(pt.ell - ell) <= 1e-11, (family, lam, a)
                assert abs(pt.h - h) <= 1e-11, (family, lam, a)
                n += 1
    assert n == 16 * (3 + 2 * 11 + 2 * 11)


def test_kappa0_catalog_spot_values():
    pt = catalog_point("HHsub1_k0", lam=1.0, kappa=0.0)
    assert (pt.lam, pt.mu, pt.ell) == pytest.approx((1.0, 0.5, 0.5))
    pt = catalog_point("HHsub3_k0", lam=1.0, kappa=0.0)
    assert (pt.lam, pt.mu, pt.ell) == pytest.approx((1.0, 0.0, -1.0))


def test_kappa0_catalog_sign_picks_the_mirror_branch():
    # sign selects mu = +-sqrt(mu^2); any other value is refused, not scaled
    plus, minus = (catalog_point("CS3_k0", lam=1.0, a=0.47, sign=s, kappa=0.0)
                   for s in (1, -1))
    assert plus.mu > 0.0 and minus.mu == -plus.mu
    assert (minus.ell, minus.h) == (plus.ell, plus.h)
    for sign in (0, 5):
        with pytest.raises(ValidationError):
            catalog_point("CS3_k0", lam=1.0, a=0.47, sign=sign, kappa=0.0)


def test_catalog_point_family_sets_by_kappa():
    # kappa = 0 takes only the KAPPA0_FAMILIES; kappa > 0 knows no _k0 name
    with pytest.raises(UnsupportedRegimeError):
        catalog_point("HHsub1", lam=1.0, kappa=0.0)
    with pytest.raises(UnsupportedRegimeError):
        catalog_point("HHsub1_k0", lam=1.0, kappa=-1.0)
    with pytest.raises(ValidationError, match="unknown family"):
        catalog_point("HHsub1_k0", lam=1.0, kappa=1.0)


def test_kappa0_cs_limits_to_hopf():
    lam = 1.1
    hi = 0.5 * lam * lam
    pt = catalog_point("CS2_k0", lam=lam, a=hi * (1 - 1e-10), kappa=0.0)
    hp = catalog_point("HHsub1_k0", lam=lam, kappa=0.0)
    assert math.hypot(pt.mu - hp.mu, pt.ell - hp.ell) < 1e-4
    pt0 = catalog_point("CS2_k0", lam=lam, a=1e-12, kappa=0.0)
    hp3 = catalog_point("HHsub3_k0", lam=lam, kappa=0.0)
    assert math.hypot(pt0.mu - hp3.mu, pt0.ell - hp3.ell) < 1e-5


def test_kappa0_sweeps_have_no_cusp_or_supercritical():
    for lam in (-1.0, 0.8):
        evs = solve_bifurcations_numeric(lam, 0.0, n_grid=401)
        kinds = {e.kind for e in evs}
        assert BifurcationKind.CUSP not in kinds
        assert BifurcationKind.HOPF_SUPER not in kinds
        assert BifurcationKind.HOPF_DEGENERATE not in kinds
        assert all(e.family for e in evs)
        assert all(e.b is None for e in evs)


# ---------------------------------------------------------------------------
# instability intervals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mu,ell,lo,hi,klo,khi", [
    (0.0, -4.0, -2.0, 2.0, BifurcationKind.HOPF_SUB, BifurcationKind.HOPF_SUPER),
    (0.0, -0.25, -0.5, 0.5, BifurcationKind.HOPF_SUB, BifurcationKind.HOPF_SUB),
    (2.0, 2.0, -4.0, 0.0, BifurcationKind.HOPF_SUB, BifurcationKind.HOPF_SUPER),
    (0.25, 0.25, -math.sqrt(0.5) - 0.25, math.sqrt(0.5) - 0.25,
     BifurcationKind.HOPF_SUB, BifurcationKind.HOPF_SUB),
])
def test_instability_interval_closed_forms(mu, ell, lo, hi, klo, khi):
    iv = instability_interval(CasimirValues(mu, ell), kappa=1.0)
    assert iv.lam_lo == pytest.approx(lo, abs=1e-12)
    assert iv.lam_hi == pytest.approx(hi, abs=1e-12)
    assert iv.kind_lo is klo
    assert iv.kind_hi is khi


def test_instability_interval_matches_hopf_catalog():
    # interval endpoints are exactly where the Hopf families cross the strata
    iv = instability_interval(CasimirValues(0.0, -4.0))
    assert catalog_point("HHsup3", lam=iv.lam_hi).ell == pytest.approx(-4.0)
    assert catalog_point("HHsub3", lam=iv.lam_lo).ell == pytest.approx(-4.0)
    iv2 = instability_interval(CasimirValues(2.0, 2.0))
    assert catalog_point("HHsup1", lam=iv2.lam_hi).ell == pytest.approx(2.0)
    assert catalog_point("HHsub1", lam=iv2.lam_lo).ell == pytest.approx(2.0)


def test_instability_interval_smooth_tip_rejected():
    with pytest.raises(ValidationError):
        instability_interval(CasimirValues(0.5, 0.2))


def test_instability_interval_unstable_inside():
    # F''(r_min) < 0 strictly inside, > 0 outside
    cas = CasimirValues(0.0, -1.44)
    iv = instability_interval(cas)
    for lam, inside in ((0.0, True), (1.1, True), (-1.1, True),
                        (1.3, False), (-1.3, False)):
        h_c = 0.0
        q = f_quartic(h_c, ReducedParams(lam=lam, kappa=1.0), cas)
        assert (q.d2(0.0) < 0.0) == inside
        assert (iv.lam_lo < lam < iv.lam_hi) == inside


# ---------------------------------------------------------------------------
# one-parameter families on a plane ell = const
# ---------------------------------------------------------------------------

def _cusp_x_by_brentq(c):
    """The cusp curve 1 - x - sqrt(2x - 1) = c solved for x = kappa lam by
    brentq on (1/2, 1): the numeric route the closed form replaced."""
    f = lambda x: 1.0 - x - math.sqrt(max(2.0 * x - 1.0, 0.0)) - c  # noqa: E731
    return brentq(f, 0.5 + 1e-12, 1.0 - 1e-12, xtol=1e-14)


@pytest.mark.parametrize("kappa", [0.7, 1.0, 2.0])
def test_hopf_cusp_slice_cusp_inverse_matches_brentq(kappa):
    for ell in np.linspace(-0.99, 0.49, 23) / kappa ** 2:
        rows = {r[0]: r for r in hopf_cusp_slice(float(ell), kappa, -5.0, 5.0)}
        x = _cusp_x_by_brentq(ell * kappa ** 2)
        for fam in ("Cusp1", "Cusp2"):
            assert abs(kappa * rows[fam][1] - x) <= 1e-14, (kappa, ell, fam)
            assert rows[fam][3] == pytest.approx(ell, abs=1e-12)


@pytest.mark.parametrize("kappa", [0.7, 1.0, 2.0])
def test_hopf_cusp_slice_finds_every_hopf_point(kappa):
    # each Hopf point of the catalog reappears on the plane through it
    for lam in (-1.2, -0.4, 0.1, 0.3) + (0.45 / kappa, 1.3 / kappa):
        for fam in ("HHsub1", "HHsub2", "HHsup1", "HHsup2", "HHsub3", "HHsup3"):
            try:
                pt = catalog_point(fam, lam=lam, kappa=kappa)
            except ValidationError:
                continue
            rows = [r for r in hopf_cusp_slice(pt.ell, kappa, -5.0, 5.0)
                    if r[0] == fam and abs(r[1] - lam) <= 1e-9]
            assert len(rows) == 1, (kappa, lam, fam)
            assert rows[0][2] == pytest.approx(pt.mu, abs=1e-9)


def test_surface_and_hopf_cusp_slice_ask_only_for_present_families(monkeypatch):
    # both read families_at instead of letting catalog_point raise
    calls, raised = [], []
    original = bifurcations.catalog_point

    def counted(family, **kw):
        calls.append(family)
        try:
            return original(family, **kw)
        except Res112Error:
            raised.append((family, kw.get("lam")))
            raise

    monkeypatch.setattr(bifurcations, "catalog_point", counted)
    bifurcations.catalog_surface(1.0, -1.5, 1.5, 60)
    for ell in (-1.2, -0.5, 0.0, 0.125, 0.3125, 0.6):
        hopf_cusp_slice(ell, 1.0, -1.5, 1.0)
    assert calls and not raised, raised


# ---------------------------------------------------------------------------
# centre-saddle points on a plane ell = const
# ---------------------------------------------------------------------------

def _catalog_slice_scan_oracle(lam, ell_target, kappa):
    """catalog_slice by the numeric route the slice quartic replaced: each
    family's family_domain interval, padded by 1e-9 of its width, is scanned
    on 65 points once per mu-branch sign, and every sign change of
    ell(a) - ell_target is polished by brentq to xtol 1e-13."""
    rows = []
    for family, (lo, hi) in LambdaStratum(lam, kappa).domains.items():
        if not hi > lo:
            continue
        pad = 1e-9 * (hi - lo)
        grid = np.linspace(lo + pad, hi - pad, 65)
        for sign in ((1, -1) if family in _TWO_SIGN_FAMILIES else (1,)):
            def dell(a):
                return _cs_probe(family, lam, a, sign, kappa, lo, hi).ell - ell_target
            vals = []
            for a in grid:
                try:
                    vals.append(dell(float(a)))
                except Res112Error:
                    vals.append(math.nan)
            for i in range(len(grid) - 1):
                v0, v1 = vals[i], vals[i + 1]
                if math.isnan(v0) or math.isnan(v1) or v0 * v1 > 0.0:
                    continue
                a_star = brentq(dell, grid[i], grid[i + 1], xtol=1e-13)
                pt = _cs_probe(family, lam, a_star, sign, kappa, lo, hi)
                rows.append((family, lam, pt.mu, pt.ell, a_star, pt.h))
    return rows


@pytest.mark.parametrize("kappa", [0.7, 1.0, 2.0])
def test_ell_slope_is_the_derivative_along_each_branch(kappa):
    rng = np.random.default_rng(577)
    checked = 0
    while checked < 200:
        lam = float(rng.uniform(-1.5, 1.0)) / kappa
        a = float(rng.uniform(0.0, 1.2)) / kappa ** 2
        if min(_discriminant_core(a, lam, kappa), abs(2.0 * kappa * lam - 1.0),
               abs(lam)) < 1e-2:
            continue
        checked += 1
        for branch, which in ((-1, 0), (1, 1)):
            def ell(x):
                return _ell_from_mu2(x, _mu2_branches(x, lam, kappa)[which], lam, kappa)
            h = 1e-5
            slope = (ell(a + h) - ell(a - h)) / (2.0 * h)
            assert _ell_slope(a, lam, kappa, branch) == pytest.approx(
                slope, rel=1e-6, abs=1e-6), (lam, a, branch)


def _random_slices(kappa, n, seed):
    """n seeded (lam, ell) planes: every other one drawn uniformly, the rest
    through a random point of a random centre-saddle family, so that every
    family and both mu-signs are hit."""
    rng = np.random.default_rng(seed)
    scale = kappa if kappa else 1.0
    out = []
    while len(out) < n:
        lam = float(rng.uniform(-1.5, 1.1)) / scale
        if len(out) % 2 == 0:
            out.append((lam, float(rng.uniform(-2.5, 1.2)) / scale ** 2))
            continue
        domains = list(LambdaStratum(lam, kappa).domains.items())
        if not domains:
            continue
        family, (lo, hi) = domains[rng.integers(len(domains))]
        sign = int(rng.choice((1, -1)))
        try:
            pt = _cs_probe(family, lam, float(rng.uniform(lo, hi)), sign, kappa, lo, hi)
        except Res112Error:
            continue
        out.append((lam, pt.ell))
    return out


def _by_family_sign_a(rows):
    return sorted(rows, key=lambda r: (r[0], math.copysign(1.0, r[2]), r[4]))


@pytest.mark.parametrize("kappa", [0.0, 0.7, 1.0, 2.0])
def test_catalog_slice_matches_scan_oracle(kappa):
    for lam, ell in _random_slices(kappa, 300, seed=2718 + int(10 * kappa)):
        got = _by_family_sign_a(catalog_slice(LambdaStratum(lam, kappa), ell))
        want = _by_family_sign_a(_catalog_slice_scan_oracle(lam, ell, kappa))
        assert [(r[0], math.copysign(1.0, r[2])) for r in got] == \
            [(r[0], math.copysign(1.0, r[2])) for r in want], (kappa, lam, ell)
        for g, w in zip(got, want):
            assert abs(g[4] - w[4]) <= 1e-10, (kappa, lam, ell, g, w)


@pytest.mark.parametrize("kappa,lam,ell,families", [
    # 1e-7 below the HHsub1 point: the quartic's CS1/CS2 and CS3 roots are
    # 3e-9 apart and come back from np.roots as a complex pair
    (1.0, -0.6665082728772357, 0.1390824358431094, ["CS1", "CS2", "CS3", "CS3"]),
    # near lam = 0 the two mu^2-branches' ells differ by 1e-10 < 1e-9
    (0.7, -0.0007031032635329559, -1.597883803119261e-08, ["CS1", "CS2"]),
    (2.0, 0.0005646719049298143, -1.1758196806316974e-07, ["CS1", "CS2"]),
    # kappa lam -> 1: domains 1e-4 wide, ell(a) flat to 2e-16 over 1e-12 in a
    (1.0, 0.9996995197013803, -0.9993990066788995, ["CS1", "CS2", "CS4", "CS4"]),
])
def test_catalog_slice_matches_scan_oracle_at_hard_planes(kappa, lam, ell, families):
    got = _by_family_sign_a(catalog_slice(LambdaStratum(lam, kappa), ell))
    want = _by_family_sign_a(_catalog_slice_scan_oracle(lam, ell, kappa))
    assert [r[0] for r in got] == [r[0] for r in want] == families
    for g, w in zip(got, want):
        assert math.copysign(1.0, g[2]) == math.copysign(1.0, w[2])
        assert abs(g[4] - w[4]) <= 1e-10


@pytest.mark.parametrize("kappa", [0.0, 0.7, 1.0, 2.0])
def test_catalog_slice_rows_are_triple_roots_on_their_plane(kappa):
    n_rows = 0
    for lam, ell in _random_slices(kappa, 600, seed=1618 + int(10 * kappa)):
        st = LambdaStratum(lam, kappa)
        for fam, lam_r, mu, ell_r, a, h in catalog_slice(st, ell):
            n_rows += 1
            assert lam_r == lam and abs(ell_r - ell) <= 1e-9
            cas = CasimirValues(mu, ell_r)
            q = f_quartic(h, ReducedParams(lam=lam, kappa=kappa), cas)
            assert max(abs(q.value(a)), abs(q.d1(a)), abs(q.d2(a))) \
                <= 1e-9 * residual_scale(a, h, cas, kappa), (fam, lam, ell)
    assert n_rows > 900


def test_catalog_slice_through_the_cusp():
    # the plane ell = -1/8 passes through Cusp1/2 at lam = 5/8, where the
    # CS1/CS2 domain ends and the quartic's root there is a double one; the
    # scan reports a CS1/CS2 pair at the padded end a = hi - pad, the
    # quartic's split pair is complex, and hopf_cusp_slice owns the point
    lam, ell = 0.625, -0.125
    assert catalog_slice(LambdaStratum(lam, 1.0), ell) == []
    scan = _catalog_slice_scan_oracle(lam, ell, 1.0)
    assert [r[0] for r in scan] == ["CS1", "CS2"]
    assert all(r[4] == pytest.approx(0.375 - 3.75e-10, abs=1e-15) for r in scan)
    cusps = [r for r in hopf_cusp_slice(ell, 1.0, -1.5, 1.5)
             if r[0] in ("Cusp1", "Cusp2")]
    assert [(r[0], r[1], r[4]) for r in cusps] == [("Cusp1", lam, 0.375),
                                                  ("Cusp2", lam, 0.375)]


def test_catalog_slice_root_at_the_cs4_domain_end():
    # at lam = 9/16 on ell = 0 the quartic has the root a0 = 9/16, one ulp
    # inside CS4's domain end (7/16, a0_root); the pad excludes it, as it
    # did for the scan, and only the CS1/CS2 pair remains
    lam, ell = 0.5625, 0.0
    lo, hi = family_domain("CS4", lam, 1.0)
    assert abs(hi - 0.5625) <= 2e-16
    rows = catalog_slice(LambdaStratum(lam, 1.0), ell)
    assert [r[0] for r in rows] == ["CS1", "CS2"]
    assert [r[0] for r in _catalog_slice_scan_oracle(lam, ell, 1.0)] == ["CS1", "CS2"]
    assert rows[0][4] == pytest.approx(0.27441317200313, abs=1e-13)


def test_catalog_slice_is_empty_where_there_are_no_interior_points():
    for kappa in (0.0, 1.0, 2.0):
        assert catalog_slice(LambdaStratum(0.0, kappa), 0.1) == []
    # exactly at lam = 1/(2 kappa) the rows are those one ulp below
    below = [r[:1] + r[2:] for r in
             catalog_slice(LambdaStratum(np.nextafter(0.5, 0.0), 1.0), 0.0)]
    assert [r[:1] + r[2:] for r in catalog_slice(LambdaStratum(0.5, 1.0), 0.0)] == below != []
    # one ulp below, the boundary formula's root is a = (4 kappa^2 ell + 1)/(6 kappa^2)
    lam = float(np.nextafter(0.25, 0.0))
    rows = catalog_slice(LambdaStratum(lam, 2.0), 0.0)
    assert [r[0] for r in rows] == ["CS1", "CS2"]
    assert all(r[4] == pytest.approx(1.0 / 24.0, abs=1e-16) for r in rows)


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
def test_oracle_slice_matches_catalog_slice(kappa):
    # the two routes agree row for row on the README planes: every catalog
    # row has an oracle row, including where two crossings of one branch
    # fall between two points of the oracle's 129-point grid and, at
    # kappa = 0.5, CS4 rows beyond max(1, a_quadruple) up to a0_root; every
    # oracle row is a catalog, Hopf/cusp or lam = 0 origin point
    def near(r, s):
        return abs(r[4] - s[4]) <= 1e-10 and abs(r[2] - s[2]) <= 1e-10

    n_rows = 0
    for ell in (-1.25, -0.125, 0.0, 0.125, 0.3125, 0.75):
        for lam in np.linspace(-1.5, 1.5, 61):
            lam = float(lam)
            if abs(lam - 0.5 / kappa) < 1e-12:
                continue
            st = LambdaStratum(lam, kappa)
            cat = catalog_slice(st, ell)
            known = cat + hopf_cusp_slice(ell, kappa, lam, lam)
            rows = oracle_slice(st, ell)
            n_rows += len(cat)
            for r in cat:
                assert any(near(r, o) for o in rows), (kappa, lam, ell, r)
            for o in rows:
                origin = lam == 0.0 and o[2:5] == (0.0, 0.0, 0.0)
                assert origin or any(near(o, r) for r in known), (kappa, lam, ell, o)
    assert n_rows > 150


def test_oracle_slice_reads_the_stratum_branch_values(monkeypatch):
    # ell(a, m) on the oracle's grid is computed once per lam, in st.oracle;
    # a plane then evaluates ell only to polish and report its crossings
    st = LambdaStratum(-1.0, 1.0)
    assert len(st.oracle[1]) > 100
    calls = []
    real = bifurcations._ell_from_mu2
    monkeypatch.setattr(bifurcations, "_ell_from_mu2",
                        lambda *args: calls.append(args) or real(*args))
    assert oracle_slice(st, 0.75) == []
    assert calls == []
    assert len(oracle_slice(st, 0.125)) == 2
    assert 0 < len(calls) < 20
