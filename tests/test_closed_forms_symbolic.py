"""Symbolic certificates for the closed forms.

Each certificate calls the library's own formula on sympy symbols, turns its
float literals into exact rationals, and shows that the defining identity
holds exactly, with no tolerance.  sympy is part of the ``test`` extra; a
missing sympy fails the run.
"""

import math
from types import SimpleNamespace

import sympy as sp

from res112 import bifurcations, f_quartic
from res112.bifurcations import (_ell_from_mu2, _q_quadratic_coeffs,
                                 _slice_quartic_coeffs, a_sub_boundary,
                                 a_sup_boundary)
from res112.critical_values import _crease_energy, _crease_offset
from range_cubic import g_cubic_coeffs

R, mu, lam, a, ell = sp.symbols("R mu lam a ell", real=True)
k = sp.symbols("kappa", positive=True)


def exact(expr):
    """The expression with its float literals made exact rationals."""
    return sp.nsimplify(expr, rational=True)


def quartic_in_R(h, ell, mu=mu, lam=lam):
    """F(R) from the library's coefficient expansion, as a sympy expression."""
    q = f_quartic(h, SimpleNamespace(lam=lam, kappa=k), SimpleNamespace(mu=mu, ell=ell))
    return sum(exact(c) * R ** i for i, c in enumerate(q.coeffs))


def exact_sqrt(monkeypatch):
    """Make the bifurcations module take exact square roots: a plain
    sp.sqrt of 2.0 * ... would turn sqrt(2.0) into a 14-digit rational.
    ``math.inf`` stays, for the overflow tests the formulas make."""
    monkeypatch.setattr(bifurcations, "math",
                        SimpleNamespace(sqrt=lambda x: sp.sqrt(exact(x)),
                                        inf=math.inf))


def test_crease_is_a_perfect_square():
    # on L+ (ell = mu + ell*, h from the crease energy) F = (kappa^2/4) G^2,
    # so both roots of G are double roots of F at one energy
    ell = mu + exact(_crease_offset(lam, k))
    h = exact(_crease_energy(mu, ell, k))
    G = R ** 2 + 2 * (k * lam - 1) / k ** 2 * R - mu * (k * mu - 2 * lam) / k
    assert sp.simplify(quartic_in_R(h, ell) - k ** 2 / 4 * G ** 2) == 0
    # its mu = 0 end is (0, ell*, 0) with ell* = (1 - 2 kappa lam)/kappa^2
    assert sp.simplify(ell.subs(mu, 0) - (1 - 2 * k * lam) / k ** 2) == 0
    assert h.subs(mu, 0) == 0


def test_hopf_boundaries_are_the_instability_roots(monkeypatch):
    # the C23/C13 tip at r is unstable iff (lam + kappa r)^2 < 2 r; the
    # unstable span ends at the two roots of that quadratic
    exact_sqrt(monkeypatch)
    # 1 - kappa lam and 1 - 2 kappa lam, which the library forms from the
    # exact float product kappa lam (its accuracy is the shadow test's)
    monkeypatch.setattr(bifurcations, "_one_minus_kappa_lam",
                        lambda lam, k: (1 - k * lam, 1 - 2 * k * lam))
    r_sub = exact(a_sub_boundary(lam, k))
    r_sup = exact(a_sup_boundary(lam, k))
    for r in (r_sub, r_sup):
        assert sp.simplify((lam + k * r) ** 2 - 2 * r) == 0
    # the subcritical end is the rationalised lam^2/(1 - kappa lam + sqrt(..))
    # of the smaller root, which has no cancellation at small kappa lam
    root = sp.sqrt(1 - 2 * k * lam)
    assert sp.simplify(r_sub - (1 - k * lam - root) / k ** 2) == 0
    # and they are distinct exactly when 1 - 2 kappa lam > 0
    assert sp.simplify(r_sup - r_sub - 2 * root / k ** 2) == 0


def test_slice_quartic_is_the_eliminated_quadratic_on_the_plane():
    # ell is linear in m = mu^2, so the plane ell = const fixes m(a); with it
    # kappa^2 (A m^2 + B m + C) = 4 lam^2 Q(a), and the centre-saddle points
    # on the plane are real roots of the quartic Q
    ell0 = exact(_ell_from_mu2(a, 0, lam, k))
    m = 2 * lam * (ell - ell0) / k
    assert sp.expand(exact(_ell_from_mu2(a, m, lam, k)) - ell) == 0
    A, B, C = (exact(c) for c in _q_quadratic_coeffs(a, lam, k))
    Q = sum(exact(c) * a ** (4 - i)
            for i, c in enumerate(_slice_quartic_coeffs(lam, ell, k)))
    assert sp.expand(k ** 2 * (A * m ** 2 + B * m + C) - 4 * lam ** 2 * Q) == 0


def test_eliminated_quadratic_discriminant_is_a_cube():
    # the discriminant of the eliminated quadratic A m^2 + B m + C in
    # m = mu^2 is 16 lam^2 times the cube of (kappa a + lam)^2 - 2a, so for
    # lam != 0 its two branches are real exactly where (kappa a + lam)^2 >= 2a
    A, B, C = (exact(c) for c in _q_quadratic_coeffs(a, lam, k))
    disc = 16 * lam ** 2 * ((k * a + lam) ** 2 - 2 * a) ** 3
    assert sp.expand(B ** 2 - 4 * A * C - disc) == 0


def test_centre_saddle_at_lambda_half_is_a_triple_root(monkeypatch):
    # at lam = 1/(2 kappa) the eliminated quartic factorises, and the CS1/CS2
    # sheets continue onto mu^2 = 2 kappa^2 a^3, where F = (kappa^2/4)
    # (R - a)^3 (R - b): a triple root a and the simple root b
    exact_sqrt(monkeypatch)
    # a symbolic kappa cannot be compared, so the band test is taken as met
    monkeypatch.setattr(bifurcations, "_at_lambda_half", lambda lam, k: True)
    for family in ("CS1", "CS2"):
        pt = bifurcations._cs_point(family, 1 / (2 * k), a, 1, k)
        assert pt.boundary
        F = quartic_in_R(exact(pt.h), exact(pt.ell), pt.mu, exact(pt.lam))
        b = exact(pt.b)
        assert sp.simplify(F - k ** 2 / 4 * (R - a) ** 3 * (R - b)) == 0


def test_cusp3_is_a_quadruple_root(monkeypatch):
    # on the Cusp3 line (lam = 1/(2 kappa), any mu) F = (kappa^2/4)(R - a)^4
    # with a = b = 1/(2 kappa^2)
    exact_sqrt(monkeypatch)
    pt = bifurcations._cusp3_point(mu, k)
    assert pt.b == pt.a
    F = quartic_in_R(exact(pt.h), exact(pt.ell), mu, exact(pt.lam))
    assert sp.simplify(F - k ** 2 / 4 * (R - exact(pt.a)) ** 4) == 0


# a0_root: s = kappa lam, t = 1 - s, w = 2s - 1 and kappa^2 a = u = t + v
s_, u, v, phi = sp.symbols("s u v phi", real=True)
r = sp.symbols("r", positive=True)
t_, w_ = 1 - s_, 2 * s_ - 1
p_u = (4 * u ** 3 - 12 * t_ * u ** 2 + (12 * s_ ** 2 - 18 * s_ + 9) * u
       - 4 * s_ ** 2 * t_)


def depressed(v, t=t_, w=w_):
    return 4 * v ** 3 + 3 * w * v - t * w


def test_range_cubic_in_u_is_kappa_free():
    # kappa^2 g(u/kappa^2) = p(u) with coefficients in s = kappa lam alone
    g = sum(c * a ** (3 - i) for i, c in enumerate(g_cubic_coeffs(lam, k)))
    assert sp.expand(k ** 2 * g.subs(a, u / k ** 2) - p_u.subs(s_, k * lam)) == 0
    # p(t + v) is the depressed cubic 4 v^3 + 3 w v - t w
    assert sp.expand(p_u.subs(u, t_ + v) - depressed(v)) == 0
    # for w < 0 the acosh argument t/sqrt(-w) is >= 1: t^2 + w = s^2
    assert sp.expand(t_ ** 2 + w_ - s_ ** 2) == 0


def test_trigonometric_roots_of_the_depressed_cubic():
    # w = r^2 > 0: v1 = r sinh(phi) with phi = asinh(t/r)/3, t = r sinh(3 phi)
    v1, t = r * sp.sinh(phi), r * sp.sinh(3 * phi)
    assert sp.simplify(sp.expand_trig(depressed(v1, t, r ** 2))) == 0
    # w = -r^2 < 0: v1 = -r cosh(phi) with phi = acosh(t/r)/3, t = r cosh(3 phi)
    v1, t = -r * sp.cosh(phi), r * sp.cosh(3 * phi)
    assert sp.simplify(sp.expand_trig(depressed(v1, t, -r ** 2))) == 0


def test_vieta_deflation_gives_the_small_root():
    # p/4 = (u - u1)(u^2 + (v1 - 2t) u + Q) modulo the depressed cubic in
    # v1, so u1 Q = s^2 t (the product of the roots): kappa^2 a0 = s^2 t/Q
    # and a0 = t lam^2 / Q, with Q = 9/4 at lam = 0 (s = 0, v1 = -1)
    v1 = v
    u1 = t_ + v1
    Q = t_ ** 2 - v1 * t_ + v1 ** 2 + sp.Rational(3, 4) * w_
    deflated = sp.expand(p_u / 4 - (u - u1) * (u ** 2 + (v1 - 2 * t_) * u + Q))
    assert sp.rem(deflated, depressed(v1), v1) == 0
    assert sp.rem(sp.expand(u1 * Q - s_ ** 2 * t_), depressed(v1), v1) == 0
    assert Q.subs({s_: 0, v1: -1}) == sp.Rational(9, 4)
