"""Bifurcation detection, closed-form catalogs, and the numeric oracle.

Everything here revolves around the quartic

    F(R) = (h - lam*R - (kappa/2) R^2)^2 - (R^2 - mu^2)(R - ell)

whose multiple roots on [r_min, inf) enumerate the bifurcations of the
reduced system: triple roots away from the tip are centre-saddle events,
triple roots at the tip are Hamiltonian Hopf events (the sign of F''' at
the root separating super- from subcritical), and quadruple roots are cusp
or degenerate-Hopf events.

Two independent routes to the same set are maintained on purpose: the
closed-form catalog (families CS1..CS4, Cusp1..3, HHsub/HHsup/HHdeg 1..3
for kappa > 0, and for kappa = 0 the families CS1_k0..CS3_k0 and
HHsub1_k0..HHsub3_k0, which are the same closed forms evaluated at
kappa = 0) and a numeric solver that eliminates (b, ell, h) from the
coefficient-matching system of F = (kappa^2/4)(R-a)^3 (R-b) and chases the
real roots of the remaining quartic in mu.  The test suite diffs the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, partialmethod

import numpy as np

from . import polyroots
from .errors import (AmbiguousClassificationError, Res112Error,
                     UnsupportedRegimeError, ValidationError)
from .model import CasimirValues
from .reduced_dynamics import ReducedParams, tip_energy
from .reduced_space import r_min, tip_class

# Tolerances, pinned once.  Residuals of F and its derivatives are judged
# against RESIDUAL_TOL * residual_scale (F grows quartically, hence the
# scale); |a - r_min| against TIP_TOL; family matching of numeric events
# against MATCH_RADIUS in the (mu, ell)-plane and in lam.
RESIDUAL_TOL = 1e-9
TIP_TOL = 1e-10
MATCH_RADIUS = 1e-4
_F3_REL_TOL = 1e-8

CATALOG_FAMILIES = ("CS1", "CS2", "CS3", "CS4",
                    "Cusp1", "Cusp2", "Cusp3",
                    "HHsub1", "HHsub2", "HHsub3",
                    "HHsup1", "HHsup2", "HHsup3",
                    "HHdeg1", "HHdeg2", "HHdeg3")

KAPPA0_FAMILIES = ("CS1_k0", "CS2_k0", "CS3_k0",
                   "HHsub1_k0", "HHsub2_k0", "HHsub3_k0")

# the families at one lam, 1/(2 kappa) or 1/kappa, which families_at does not
# list; they have no kappa = 0 form
FIXED_LAMBDA_FAMILIES = ("Cusp3", "HHdeg1", "HHdeg2", "HHdeg3")


class BifurcationKind(Enum):
    CENTRE_SADDLE = "CentreSaddle"
    CUSP = "Cusp"
    HOPF_SUB = "HopfSub"
    HOPF_SUPER = "HopfSuper"
    HOPF_DEGENERATE = "HopfDegenerate"


_FAMILY_KIND = {
    "CS": BifurcationKind.CENTRE_SADDLE,
    "Cusp": BifurcationKind.CUSP,
    "HHsub": BifurcationKind.HOPF_SUB,
    "HHsup": BifurcationKind.HOPF_SUPER,
    "HHdeg": BifurcationKind.HOPF_DEGENERATE,
}


def family_kind(family: str) -> BifurcationKind:
    for prefix, kind in _FAMILY_KIND.items():
        if family.startswith(prefix):
            return kind
    raise ValidationError(f"unknown family {family!r}")


@dataclass(frozen=True)
class Quartic:
    """F(R) with coefficients stored ascending; c4 = kappa^2/4 exactly."""

    coeffs: tuple  # (c0, c1, c2, c3, c4)
    kappa: float

    def _derivative(self, order: int, R: float) -> float:
        """The order-th derivative at a scalar R, with the bits of
        np.polynomial.polynomial.polyval and polyder."""
        c = self.coeffs[::-1]
        for _ in range(order):
            c = polyroots.polyder(c)
        return polyroots.polyval(c, R)

    value = partialmethod(_derivative, 0)
    d1 = partialmethod(_derivative, 1)
    d2 = partialmethod(_derivative, 2)
    d3 = partialmethod(_derivative, 3)

    @property
    def d4(self) -> float:
        """Fourth derivative, identically 6 kappa^2."""
        return 6.0 * self.kappa * self.kappa

    def roots(self) -> np.ndarray:
        """All complex roots of F, as np.roots gives them."""
        return polyroots.roots(self.coeffs[::-1])


def f_quartic(h: float, rp: ReducedParams, cas: CasimirValues) -> Quartic:
    """Exact coefficient expansion of F(R) for the given energy and parameters."""
    lam, k = rp.lam, rp.kappa
    mu2 = cas.mu * cas.mu
    c4 = 0.25 * k * k
    c3 = k * lam - 1.0
    c2 = lam * lam - k * h + cas.ell
    c1 = mu2 - 2.0 * h * lam
    c0 = h * h - mu2 * cas.ell
    return Quartic(coeffs=(c0, c1, c2, c3, c4), kappa=k)


def residual_scale(a: float, h: float, cas: CasimirValues, kappa: float) -> float:
    """Scale for judging |F|, |F'|, |F''| residuals at a putative root a."""
    return max(1.0, kappa * kappa * a ** 4, h * h,
               abs(cas.mu * cas.mu * cas.ell))


@dataclass(frozen=True)
class BifurcationEvent:
    """A detected multiple root of F with its classification.

    ``a`` is the multiple root, ``b`` the remaining simple root (None for
    kappa = 0 where F is cubic); ``family`` is the nearest catalog stratum
    or None when unmatched.
    """

    kind: BifurcationKind
    a: float
    b: float | None
    h: float
    lam: float
    mu: float
    ell: float
    kappa: float
    family: str | None = None


def _f3_tol(a: float, kappa: float) -> float:
    """Below this |F'''(a)| counts as zero: _F3_REL_TOL times the scale
    6 max(1, kappa^2)(1 + |a|) of F'''(a) = 6 kappa^2 a + 6(kappa lam - 1)."""
    return _F3_REL_TOL * (6.0 * max(1.0, kappa * kappa) * (1.0 + abs(a)))


def classify_multiple_root(a: float, q: Quartic,
                           cas: CasimirValues) -> BifurcationKind:
    """Classify a verified triple root of F per the tangency-order rules.

    A root at the tip is a Hamiltonian Hopf event, supercritical for
    F'''(a) > 0 and subcritical for F'''(a) < 0; away from the tip it is a
    centre-saddle event, turning into a cusp when F'''(a) = 0; a vanishing
    F''' at the tip is the degenerate Hopf case.  Raises
    AmbiguousClassificationError, naming a, r_min, F'''(a) and both
    tolerances, when |F'''(a)| and |a - r_min| sit in the gray band around
    their thresholds, and ValidationError when the root residuals are too
    large to trust.
    """
    h = _h_of_quartic(q, cas)
    scale = residual_scale(a, h, cas, q.kappa)
    res = (abs(q.value(a)), abs(q.d1(a)), abs(q.d2(a)))
    if max(res) > RESIDUAL_TOL * scale:
        raise ValidationError(
            f"not a multiple root: residuals {res} exceed {RESIDUAL_TOL:.1e}*{scale:.3e}")

    rmin = r_min(cas)
    f3 = q.d3(a)
    tol_f3 = _f3_tol(a, q.kappa)
    tol_a = TIP_TOL * (1.0 + abs(rmin))

    at_tip = abs(a - rmin) <= tol_a
    f3_zero = abs(f3) <= tol_f3
    gray_a = tol_a < abs(a - rmin) <= 10.0 * tol_a
    gray_f3 = tol_f3 < abs(f3) <= 10.0 * tol_f3
    if (gray_a and (f3_zero or gray_f3)) or (gray_f3 and at_tip):
        raise AmbiguousClassificationError(
            f"classification sits between discrete outcomes: a = {a:.17g}, "
            f"r_min = {rmin:.17g} (tolerance {tol_a:.3e}), "
            f"F'''(a) = {f3:.17g} (tolerance {tol_f3:.3e})")

    if f3_zero:
        return (BifurcationKind.HOPF_DEGENERATE if at_tip
                else BifurcationKind.CUSP)
    if at_tip:
        return (BifurcationKind.HOPF_SUPER if f3 > 0.0
                else BifurcationKind.HOPF_SUB)
    return BifurcationKind.CENTRE_SADDLE


def _h_of_quartic(q: Quartic, cas: CasimirValues) -> float:
    # c0 = h^2 - mu^2 ell; only |h| matters for the residual scale.
    h2 = q.coeffs[0] + cas.mu * cas.mu * cas.ell
    return math.sqrt(abs(h2))


# ---------------------------------------------------------------------------
# Closed-form parametrisations (general kappa > 0 unless stated otherwise)
# ---------------------------------------------------------------------------

def _b_of_a(a: float, lam: float, kappa: float) -> float | None:
    """The simple root b of F beside the triple root a; None for kappa = 0,
    where F is cubic."""
    if kappa == 0.0:
        return None
    return 4.0 / kappa ** 2 - 3.0 * a - 4.0 * lam / kappa


def _discriminant_core(a: float, lam: float, kappa: float) -> float:
    """(kappa*a + lam)^2 - 2a; the branch radicand of the mu^2 roots."""
    return (kappa * a + lam) ** 2 - 2.0 * a


def _mu2_branches(a: float, lam: float, kappa: float) -> tuple[float, float]:
    """Closed-form roots (mu_minus^2, mu_plus^2) of the eliminated quartic.

    Requires lam not in {0, 1/(2 kappa)}; tiny negative radicands from
    roundoff at range endpoints are clipped to zero.
    """
    d = _discriminant_core(a, lam, kappa)
    if d < 0.0:
        if d < -1e-12 * (1.0 + a * a):
            raise ValidationError(f"branch radicand negative at a={a}: {d}")
        d = 0.0
    k, L = kappa, lam
    core = (2.0 * k ** 3 * a ** 3 * L - 2.0 * k ** 2 * a ** 3
            + 6.0 * k ** 2 * a ** 2 * L ** 2 - 6.0 * k * a ** 2 * L
            + 3.0 * a ** 2 + 6.0 * k * a * L ** 3 - 6.0 * a * L ** 2
            + 2.0 * L ** 4)
    den = 2.0 * k * L - 1.0
    rad = 2.0 * abs(L) * d ** 1.5
    return (core - rad) / den, (core + rad) / den


def _ell_from_mu2(a: float, mu2: float, lam: float, kappa: float) -> float:
    k, L = kappa, lam
    return (-2.0 * k ** 3 * a ** 3 - 6.0 * k ** 2 * a ** 2 * L
            + 3.0 * k * a ** 2 - 6.0 * k * a * L ** 2 + 6.0 * a * L
            - 2.0 * L ** 3 + k * mu2) / (2.0 * L)


def _ell_slope(a: float, lam: float, kappa: float, branch: int) -> float:
    """d ell/d a along the mu^2-branch m_minus (branch -1) or m_plus (+1) of
    _mu2_branches, i.e. the derivative of _ell_from_mu2(a, m(a), lam, kappa)."""
    k, L = kappa, lam
    d = max(_discriminant_core(a, L, k), 0.0)
    d_core = (6.0 * k ** 3 * a ** 2 * L - 6.0 * k ** 2 * a ** 2
              + 12.0 * k ** 2 * a * L ** 2 - 12.0 * k * a * L + 6.0 * a
              + 6.0 * k * L ** 3 - 6.0 * L ** 2)
    d_rad = 6.0 * abs(L) * math.sqrt(d) * (k * (k * a + L) - 1.0)
    d_mu2 = (d_core + branch * d_rad) / (2.0 * k * L - 1.0)
    return (-6.0 * k ** 3 * a ** 2 - 12.0 * k ** 2 * a * L + 6.0 * k * a
            - 6.0 * k * L ** 2 + 6.0 * L + k * d_mu2) / (2.0 * L)


def _h_from_mu2(a: float, mu2: float, lam: float, kappa: float) -> float:
    return (mu2 + 3.0 * a ** 2 - 2.0 * kappa ** 2 * a ** 3
            - 3.0 * kappa * a ** 2 * lam) / (2.0 * lam)


def _split(x: float) -> tuple[float, float]:
    """Veltkamp's split of x into a 26-bit head and the exact rest; NaN
    where 134217729 x overflows (|x| above about 1.3e300)."""
    c = 134217729.0 * x  # 2^27 + 1
    head = c - (c - x)
    return head, x - head


def _exact_product(x: float, y: float) -> tuple[float, float]:
    """(s, e) with s = fl(x y) and s + e = x y: Dekker's two-product
    (Numer. Math. 18, 1971), exact unless a partial product underflows.
    e is 0 where it would not be finite (s overflows, or a factor is too
    large to split), so s keeps its own exits there."""
    s = x * y
    xh, xl = _split(x)
    yh, yl = _split(y)
    e = ((xh * yh - s) + xh * yl + xl * yh) + xl * yl
    return s, (e if math.isfinite(e) else 0.0)


def _one_minus_kappa_lam(lam: float, kappa: float) -> tuple[float, float]:
    """(1 - kappa lam, 1 - 2 kappa lam) from the exact product (s, e) of
    _exact_product, as (1 - s) - e and (1 - 2s) - 2e: the rounding of
    kappa lam does not enter.  The second is held at 0 where 1 - 2s >= 0,
    so that a float test on 1 - 2s decides where its root exists."""
    s, e = _exact_product(kappa, lam)
    d = 1.0 - 2.0 * s
    return (1.0 - s) - e, (max(d - 2.0 * e, 0.0) if d >= 0.0 else d)


def a_sub_boundary(lam: float, kappa: float) -> float:
    """a-value where the mu-branches meet the subcritical Hopf curve,
    (1 - kappa lam - sqrt(1 - 2 kappa lam))/kappa^2 written without the
    cancellation at small |kappa lam| or the division by kappa^2, as
    lam^2/(1 - kappa lam + sqrt(1 - 2 kappa lam)); lam^2/2 at kappa = 0.
    1 - kappa lam and 1 - 2 kappa lam see the exact product kappa lam
    (_one_minus_kappa_lam), so they keep their digits next to
    kappa lam = 1/2 for every kappa."""
    t, d = _one_minus_kappa_lam(lam, kappa)
    return lam * lam / (t + math.sqrt(d))


def a_sup_boundary(lam: float, kappa: float) -> float:
    """a-value of the supercritical Hopf curve,
    (1 - kappa lam + sqrt(1 - 2 kappa lam))/kappa^2, with the exact product
    kappa lam (_one_minus_kappa_lam)."""
    t, d = _one_minus_kappa_lam(lam, kappa)
    return (t + math.sqrt(d)) / kappa ** 2


def a_quadruple(lam: float, kappa: float) -> float:
    """The unique a with b = a: quadruple roots live at a = 1/kappa^2 - lam/kappa."""
    return 1.0 / kappa ** 2 - lam / kappa


def _slice_quartic_coeffs(lam: float, ell: float, kappa: float) -> np.ndarray:
    """Descending coefficients of the slice quartic Q(a).

    With m = mu^2 taken from _ell_from_mu2 at ell, the eliminated quadratic
    A m^2 + B m + C of _q_quadratic_coeffs satisfies
    kappa^2 (A m^2 + B m + C) = 4 lam^2 Q(a), so the triple roots a of the
    centre-saddle points on the plane ell = const are real roots of Q.
    """
    k, L, l = kappa, lam, ell
    return np.array([
        3.0 * k ** 4,
        10.0 * L * k ** 3 - 2.0 * l * k ** 4 - 10.0 * k ** 2,
        (12.0 * L ** 2 * k ** 2 - 6.0 * L * l * k ** 3 - 18.0 * L * k
         + 6.0 * l * k ** 2 + 9.0),
        (6.0 * L ** 3 * k - 6.0 * L ** 2 * l * k ** 2 - 6.0 * L ** 2
         + 12.0 * L * l * k - 6.0 * l),
        (L ** 4 - 2.0 * L ** 3 * l * k + 2.0 * L ** 2 * l
         - 2.0 * L * l ** 2 * k + l ** 2),
    ])


def a0_root(lam: float, kappa: float = 1.0) -> float:
    """Unique positive root of the range cubic g(a) = 4 k^4 a^3
    + 12 k^2 (k lam - 1) a^2 + (12 k^2 lam^2 - 18 k lam + 9) a
    + 4 lam^2 (k lam - 1), k = kappa >= 0, for lam != 0 and k lam < 1.

    With s = k lam, t = 1 - s, w = 2s - 1 and k^2 a = t + v, k^2 g is
    4 v^3 + 3 w v - t w.  t and w are formed from the exact product
    s + e = k lam (_exact_product) as (1 - s) - e and (2s - 1) + 2e, so the
    rounding of k lam does not move a0 next to k lam = 1/2 or 1.  Its real
    root v1 is sqrt(w) sinh(asinh(t/sqrt(w))/3) for w > 0, -sqrt(-w) cosh(acosh(t/sqrt(-w))/3) for w < 0 (t^2 + w = s^2
    keeps the acosh argument >= 1) and 0 at the triple root w = 0.  Vieta
    gives a0 = t lam^2 / Q, Q = t^2 - v1 t + v1^2 + 3w/4 (9/4 at lam = 0):
    no cancellation next to lam = 0, no division by k, 4 lam^2/9 at k = 0.
    Raises ValidationError outside that range, UnsupportedRegimeError for
    k < 0 and OverflowError where t lam^2 or Q overflows.
    """
    if kappa < 0.0:
        raise UnsupportedRegimeError("a0_root requires kappa >= 0")
    if lam == 0.0:
        raise ValidationError("a0_root is not defined at lam = 0")
    s, e = _exact_product(kappa, lam)
    if s >= 1.0:
        raise ValidationError(
            "no positive root: g(a) > 0 for all a > 0 when lam >= 1/kappa")
    t, w = (1.0 - s) - e, (2.0 * s - 1.0) + 2.0 * e
    if w > 0.0:
        r = math.sqrt(w)
        v1 = r * math.sinh(math.asinh(t / r) / 3.0)
    elif w < 0.0:
        r = math.sqrt(-w)
        v1 = -r * math.cosh(math.acosh(t / r) / 3.0)
    else:
        v1 = 0.0
    a0 = t * lam * lam / (t * t - v1 * t + v1 * v1 + 0.75 * w)
    if not math.isfinite(a0):
        raise OverflowError(f"a0_root overflows at lam = {lam}, kappa = {kappa}")
    return a0


def families_at(lam: float, kappa: float = 1.0) -> tuple[str, ...]:
    """The families parametrised by lam that have points at lam, in
    CATALOG_FAMILIES order (KAPPA0_FAMILIES for kappa = 0).

    The set changes only at kappa lam = 0, 1/2 and 1, where the three Hopf
    parabolas meet the cusp and centre-saddle sheets.  Within 1e-14/kappa
    of lam = 1/(2 kappa) (_at_lambda_half), where CS1 and CS2 take the
    boundary formula, CS3 and CS4 have no points.  The kappa = 0 families
    exist wherever lam != 0.  The FIXED_LAMBDA_FAMILIES, the Cusp3 line
    and HHdeg1..3, are not listed.  Raises UnsupportedRegimeError for
    kappa < 0.
    """
    if kappa < 0.0:
        raise UnsupportedRegimeError("the catalog covers kappa >= 0; use kappa_scaling")
    if kappa == 0.0:
        return KAPPA0_FAMILIES if lam != 0.0 else ()
    half, one = 0.5 / kappa, 1.0 / kappa
    band = _at_lambda_half(lam, kappa)
    cs = lam != 0.0 and lam < one
    fold = half < lam < one
    present = {"CS1": cs, "CS2": cs, "CS3": cs and lam < half and not band,
               "CS4": fold and not band, "Cusp1": fold, "Cusp2": fold,
               "HHsub1": lam < half, "HHsub2": lam < half,
               "HHsub3": lam < one, "HHsup1": lam < half,
               "HHsup2": lam < half, "HHsup3": lam > one}
    return tuple(f for f in CATALOG_FAMILIES if present.get(f, False))


def family_domain(family: str, lam: float, kappa: float = 1.0) -> tuple[float, float]:
    """Open interval (lo, hi) of the triple root a over which a centre-saddle
    family has points at lam.

    For kappa > 0:

    - CS1, CS2: (0, a_sub_boundary) for lam < 1/(2 kappa) and
      (0, (1 - kappa lam)/kappa^2) for 1/(2 kappa) <= lam < 1/kappa
    - CS3: (a0_root, a_sub_boundary) for lam < 1/(2 kappa)
    - CS4: ((1 - kappa lam)/kappa^2, a0_root) for 1/(2 kappa) < lam < 1/kappa

    The kappa = 0 families CS1_k0, CS2_k0 and CS3_k0 span (0, lam^2/2),
    (0, lam^2/2) and (4 lam^2/9, lam^2/2): the same closed forms at
    kappa = 0, where a_sub_boundary is lam^2/2 and a0_root is 4 lam^2/9.
    Both ends are cancellation-free down to lam -> 0.
    Raises ValidationError wherever the family has no points at lam
    (families_at), and UnsupportedRegimeError for CS1..CS4 with kappa <= 0.
    Within 1e-14/kappa of lam = 1/(2 kappa), where the catalog uses the
    boundary formula, CS1 and CS2 span (0, 1/(2 kappa^2)).
    """
    if family not in ("CS1", "CS2", "CS3", "CS4", "CS1_k0", "CS2_k0", "CS3_k0"):
        raise ValidationError(f"{family!r} is not a centre-saddle family")
    k0 = family.endswith("_k0")
    if not k0 and kappa <= 0.0:
        raise UnsupportedRegimeError("centre-saddle a-ranges need kappa > 0")
    if family not in families_at(lam, 0.0 if k0 else kappa):
        raise ValidationError(f"{family} has no points at lam = {lam}")
    if k0:
        return (a0_root(lam, 0.0) if family == "CS3_k0" else 0.0,
                a_sub_boundary(lam, 0.0))
    k = kappa
    if family == "CS3":
        return a0_root(lam, k), a_sub_boundary(lam, k)
    if family == "CS4":
        return (1.0 - k * lam) / k ** 2, a0_root(lam, k)
    if _at_lambda_half(lam, k):
        return 0.0, 0.5 / k ** 2
    if lam < 0.5 / k:
        return 0.0, a_sub_boundary(lam, k)
    return 0.0, (1.0 - k * lam) / k ** 2


@dataclass(frozen=True)
class CatalogPoint:
    """A closed-form bifurcation point: parameters plus root data."""

    family: str
    kind: BifurcationKind
    lam: float
    mu: float
    ell: float
    a: float
    b: float | None
    h: float
    kappa: float
    boundary: bool = False  # lam = 1/(2 kappa) points of CS1/CS2, kept by continuity


def _hopf_point(family, lam, mu, ell, kappa, kind) -> CatalogPoint:
    a = max(abs(mu), ell)  # Hopf roots sit at the tip
    h = tip_energy(a, ReducedParams(lam=lam, kappa=kappa))
    return CatalogPoint(family=family, kind=kind, lam=lam, mu=mu, ell=ell,
                        a=a, b=_b_of_a(a, lam, kappa), h=h, kappa=kappa)


def catalog_point(family: str, *, lam: float | None = None, a: float | None = None,
                  mu: float | None = None, sign: int = 1,
                  kappa: float = 1.0) -> CatalogPoint:
    """Closed-form catalog point of the bifurcation set, for every kappa >= 0.

    For kappa > 0 the families are CATALOG_FAMILIES, for kappa = 0 the
    KAPPA0_FAMILIES, whose points are those of CS1..CS3 and HHsub1..3 from
    the same closed forms evaluated at kappa = 0 (b is None there, since F
    is cubic).  Centre-saddle families take (lam, a) with the a-range
    of family_domain enforced; CS3/CS4/CS3_k0 additionally take ``sign``
    selecting the mu-branch.  Cusp1/2 and the Hopf families take lam alone;
    Cusp3 takes mu; the three degenerate points take no parameter.  A
    family parametrised by lam raises ValidationError where families_at
    does not list it.  lam = 0 and lam = 1/(2 kappa) are handled by
    dedicated special-case formulas.  Raises UnsupportedRegimeError for
    kappa < 0 (use kappa_scaling) and for any other family at kappa = 0.
    """
    if kappa < 0.0 or (kappa == 0.0 and family not in KAPPA0_FAMILIES):
        raise UnsupportedRegimeError(
            "catalog_point covers kappa > 0 and the KAPPA0_FAMILIES at "
            "kappa = 0; use kappa_scaling for kappa < 0")
    if kappa > 0.0 and family not in CATALOG_FAMILIES:
        raise ValidationError(f"unknown family {family!r}")
    if sign not in (1, -1):
        raise ValidationError("sign must be +1 or -1")
    k = kappa

    if family.startswith("HHdeg"):
        if family == "HHdeg1":
            lam, mu, ell = 0.5 / k, 0.5 / k ** 2, 0.5 / k ** 2
        elif family == "HHdeg2":
            lam, mu, ell = 0.5 / k, -0.5 / k ** 2, 0.5 / k ** 2
        else:
            lam, mu, ell = 1.0 / k, 0.0, -1.0 / k ** 2
        a = a_quadruple(lam, k)
        h = tip_energy(max(abs(mu), ell), ReducedParams(lam=lam, kappa=k))
        return CatalogPoint(family=family, kind=BifurcationKind.HOPF_DEGENERATE,
                            lam=lam, mu=mu, ell=ell, a=a, b=a, h=h, kappa=k)

    if family == "Cusp3":
        if mu is None:
            raise ValidationError("Cusp3 is parametrised by mu")
        if not abs(mu) < 0.5 / k ** 2:
            raise ValidationError("Cusp3 needs |mu| < 1/(2 kappa^2)")
        return _cusp3_point(mu, k)
    if lam is None:
        raise ValidationError(f"family {family} needs lam")
    if family not in families_at(lam, k):
        raise ValidationError(f"{family} has no points at lam = {lam}")

    if family.startswith(("HHsub", "HHsup")):
        sub = family.startswith("HHsub")
        kind = BifurcationKind.HOPF_SUB if sub else BifurcationKind.HOPF_SUPER
        number = family.removesuffix("_k0")[-1]
        if number == "3":
            return _hopf_point(family, lam, 0.0, -lam * lam, k, kind)
        m = (a_sub_boundary if sub else a_sup_boundary)(lam, k)
        return _hopf_point(family, lam, m if number == "1" else -m, m, k, kind)

    if family in ("Cusp1", "Cusp2"):
        root = math.sqrt(2.0 * k * lam - 1.0)
        mu_c = (k * lam - root) / k ** 2
        ell_c = (1.0 - k * lam - root) / k ** 2
        a = a_quadruple(lam, k)
        mu_val = -mu_c if family == "Cusp1" else mu_c
        h = _h_from_mu2(a, mu_c * mu_c, lam, k)
        return CatalogPoint(family=family, kind=BifurcationKind.CUSP, lam=lam,
                            mu=mu_val, ell=ell_c, a=a, b=a, h=h, kappa=k)

    # centre-saddle families
    if a is None:
        raise ValidationError(f"family {family} needs the triple root a")
    lo, hi = family_domain(family, lam, k)
    if not lo < a < hi:
        raise ValidationError(f"{family} needs {lo} < a < {hi}")
    return _cs_point(family, lam, a, sign, k)


def _cusp3_point(mu: float, k: float) -> CatalogPoint:
    """Cusp3 point at mu, without the range check: the solver's cusp line
    also takes the end points |mu| = 1/(2 kappa^2), the HHdeg1/2 points."""
    a = 0.5 / k ** 2
    return CatalogPoint(family="Cusp3", kind=BifurcationKind.CUSP, lam=0.5 / k,
                        mu=mu, ell=0.25 / k ** 2 + k ** 2 * mu * mu, a=a, b=a,
                        h=0.125 / k ** 3 + k * mu * mu, kappa=k)


def _at_lambda_half(lam: float, k: float) -> bool:
    """lam is within roundoff of 1/(2 kappa), where the CS formulas
    factorise; never for kappa = 0, where 1/(2 kappa) is infinite."""
    return k != 0.0 and abs(lam - 0.5 / k) <= 1e-14 / k


def _cs_probe(family: str, lam: float, a: float, k: float) -> tuple[float, float, float]:
    """(mu, ell, h) of a CS1..CS4 (CS1_k0..CS3_k0) point at (lam, a), on the
    mu >= 0 branch of CS2..CS4 and mu <= 0 for CS1, without the a-range
    check: the callers test lo < a < hi themselves.  Within 1e-14/kappa of
    lam = 1/(2 kappa) (_at_lambda_half) the eliminated quartic factorises
    and CS1/CS2 continue onto the boundary sheet mu^2 = 2 kappa^2 a^3.
    Raises ValidationError where the mu^2-branches are complex."""
    if _at_lambda_half(lam, k):
        mu2 = 2.0 * k ** 2 * a ** 3
        ell = (6.0 * k ** 2 * a - 1.0) / (4.0 * k ** 2)
        h = 1.5 * k * a * a
    else:
        m_minus, m_plus = _mu2_branches(a, lam, k)
        mu2 = max(m_plus if family.startswith("CS3") else m_minus, 0.0)
        ell = _ell_from_mu2(a, mu2, lam, k)
        h = _h_from_mu2(a, mu2, lam, k)
    mu = math.sqrt(mu2)
    return (-mu if family.startswith("CS1") else mu), ell, h


def _cs_point(family: str, lam: float, a: float, sign: int, k: float) -> CatalogPoint:
    """The CatalogPoint of _cs_probe, on the mu-branch of ``sign`` for CS3,
    CS4 and CS3_k0.  At lam = 1/(2 kappa) it is a boundary point of CS1/CS2
    with lam = 1/(2 kappa) and b = 2/kappa^2 - 3a."""
    mu, ell, h = _cs_probe(family, lam, a, k)
    if sign == -1 and family in _TWO_SIGN_FAMILIES:
        mu = -mu
    if _at_lambda_half(lam, k):
        return CatalogPoint(family=family, kind=BifurcationKind.CENTRE_SADDLE,
                            lam=0.5 / k, mu=mu, ell=ell, a=a,
                            b=-3.0 * a + 2.0 / k ** 2, h=h, kappa=k,
                            boundary=True)
    return CatalogPoint(family=family, kind=BifurcationKind.CENTRE_SADDLE,
                        lam=lam, mu=mu, ell=ell, a=a, b=_b_of_a(a, lam, k),
                        h=h, kappa=k)


# families with a mu-branch of each sign
_TWO_SIGN_FAMILIES = ("CS3", "CS4", "CS3_k0")


# ---------------------------------------------------------------------------
# Slices and samples of the catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaStratum:
    """The part of the bifurcation set at one lam that every plane
    ell = const shares: ``domains`` for the catalog route, ``oracle`` for
    the numeric one.  Each is computed on first use and kept, so the planes
    at one lam cost one a0_root per route; the oracle takes its own
    structural points, so the routes stay independent.  ``tag`` names the
    catalog family of each solver event at lam."""

    lam: float
    kappa: float = 1.0

    @cached_property
    def domains(self) -> dict[str, tuple[float, float]]:
        """family: (lo, hi) of each centre-saddle family of families_at with
        a nonempty range at lam (family_domain), in catalog order."""
        out = {}
        for family in families_at(self.lam, self.kappa):
            if family_kind(family) is not BifurcationKind.CENTRE_SADDLE:
                continue
            # closed forms, so every family of families_at has its range;
            # only one that rounds to empty is left out
            lo, hi = family_domain(family, self.lam, self.kappa)
            if hi > lo:
                out[family] = lo, hi
        return out

    @cached_property
    def oracle(self) -> tuple[list[BifurcationEvent], list[float], np.ndarray]:
        """(events, grid, ells) of the numeric oracle at lam: no events, 129
        equally spaced a-values up to 1.05 times the largest of 1 and the
        structural points (_structural_points) plus those points, and the
        (2, n) array of ell(a, m) (_ell_from_mu2) at each of them on each
        mu^2-branch of _m_branches_numeric (_branch_values; NaN where the
        branch does not exist), which every plane's oracle_slice shares.  At
        lam = 0 and 1/(2 kappa) (_special_lambda), where the eliminated
        quartic degenerates, the events of solve_bifurcations_numeric(lam,
        kappa, n_grid=201) and an empty grid and branch array instead."""
        lam, kappa = self.lam, self.kappa
        if _special_lambda(lam, kappa) is not None:
            return (solve_bifurcations_numeric(lam, kappa, n_grid=201), [],
                    np.empty((2, 0)))
        pts = _structural_points(lam, kappa)
        grid = _a_grid(1.05 * max([1.0, *pts]), 129, pts)
        table = [_m_branches_numeric(a, lam, kappa) for a in grid]
        return [], grid, _branch_values(
            grid, table, lambda a, m: _ell_from_mu2(a, m, lam, kappa))

    def distance(self, ev: BifurcationEvent, family: str) -> float:
        """Distance in (mu, ell) from an event at this lam to the catalog
        point of a family, evaluated at the event; inf where the family has
        no point there.

        A centre-saddle family is evaluated at the event's a and mu-sign when
        a lies in the closed range that ``domains`` gives it; any other
        family through catalog_point, and its point must lie within
        MATCH_RADIUS of the event's lam.
        """
        try:
            if family_kind(family) is BifurcationKind.CENTRE_SADDLE:
                lo, hi = self.domains.get(family, (math.nan, math.nan))
                if not lo <= ev.a <= hi:  # also where it has no points at lam
                    return math.inf
                pt = _cs_point(family, ev.lam, ev.a, 1 if ev.mu >= 0.0 else -1,
                               ev.kappa)
            else:
                pt = catalog_point(family, lam=ev.lam, mu=ev.mu, kappa=ev.kappa)
        except Res112Error:
            return math.inf
        if abs(pt.lam - ev.lam) > MATCH_RADIUS:
            return math.inf
        return math.hypot(pt.mu - ev.mu, pt.ell - ev.ell)

    def tag(self, events) -> list[BifurcationEvent]:
        """The events at this lam, each tagged with the family of its kind
        (family_kind) whose catalog point lies nearest in (mu, ell) and
        within MATCH_RADIUS (distance); family None where none does."""
        # the fixed-lam families are tried at every lam: MATCH_RADIUS applies in lam
        fixed = () if self.kappa == 0.0 else FIXED_LAMBDA_FAMILIES
        by_kind: dict[BifurcationKind, list[str]] = {}
        for family in families_at(self.lam, self.kappa) + fixed:
            by_kind.setdefault(family_kind(family), []).append(family)
        tagged = []
        for ev in events:
            best, best_d = None, math.inf
            for family in by_kind.get(ev.kind, ()):
                d = self.distance(ev, family)
                if d < best_d:
                    best, best_d = family, d
            tagged.append(replace(ev, family=best if best_d <= MATCH_RADIUS else None))
        return tagged


def catalog_slice(st: LambdaStratum, ell_targets) -> list[list[tuple]]:
    """Centre-saddle points of the closed-form catalog on each plane
    ell = ell_target of ``ell_targets`` at the stratum's lam: one row list
    per plane, in plane order.

    Their triple roots a are real roots of the slice quartic
    (_slice_quartic_coeffs), whose rows for all planes are solved together
    by polyroots.roots_many; for kappa = 0 it degenerates to
    (3a - ell - lam^2)^2, and within 1e-14/kappa of lam = 1/(2 kappa) the
    boundary formula gives a = (4 kappa^2 ell + 1)/(6 kappa^2).  For
    kappa > 0 the real part of each quartic root is polished by two Newton
    steps on each family's own ell(a) (_ell_slope): next to a subcritical
    Hopf point the quartic's roots on the two mu^2-branches nearly coincide
    and lose their accuracy, while each branch's own root stays well
    conditioned.  ell(a) does not depend on the sign of mu, so CS3 and CS4
    are polished once for both signs.  A start or iterate outside the
    family's interval of ``st.domains`` is dropped.  A root counts once per
    family and mu-branch sign when it lies in that interval less 1e-9 of
    its width at each end, its last Newton step is below 1e-6 of that
    width, and its ell lies within 1e-9 max(1, |ell_target|) of the plane.
    lam = 0 gives no rows.  Each plane's rows are (family, lam, mu, ell, a,
    h) tuples in family, sign and a order.  Raises the
    np.linalg.LinAlgError of the first plane whose quartic solve fails.
    """
    lam, kappa = st.lam, st.kappa
    steps = 0
    if kappa == 0.0:
        starts = [[(ell + lam * lam) / 3.0] for ell in ell_targets]
    elif _at_lambda_half(lam, kappa):
        starts = [[(4.0 * kappa ** 2 * ell + 1.0) / (6.0 * kappa ** 2)]
                  for ell in ell_targets]
    else:
        starts = []
        for roots in polyroots.roots_many(
                [_slice_quartic_coeffs(lam, ell, kappa) for ell in ell_targets]):
            if isinstance(roots, np.linalg.LinAlgError):
                raise roots
            starts.append(sorted(set(roots.real.tolist())))
        steps = 2
    planes = []
    for ell_target, plane_starts in zip(ell_targets, starts):
        tol = 1e-9 * max(1.0, abs(ell_target))
        rows = []
        for family, (lo, hi) in st.domains.items():
            pad, near = 1e-9 * (hi - lo), 1e-6 * (hi - lo)
            found = []
            for start in plane_starts:
                hit = _polish(family, lam, kappa, start, ell_target, steps, lo, hi)
                if hit is None:
                    continue
                a, step, mu, ell, h = hit
                if lo + pad <= a <= hi - pad and abs(step) <= near \
                        and abs(ell - ell_target) <= tol \
                        and all(abs(a - f[0]) > near for f in found):
                    found.append((a, mu, ell, h))
            found.sort(key=lambda f: f[0])
            rows += [(family, lam, mu, ell, a, h) for a, mu, ell, h in found]
            if family in _TWO_SIGN_FAMILIES:
                rows += [(family, lam, -mu, ell, a, h) for a, mu, ell, h in found]
        planes.append(rows)
    return planes


def _polish(family: str, lam: float, kappa: float, a: float, ell_target: float,
            steps: int, lo: float, hi: float):
    """(a, last step, mu, ell, h) after ``steps`` Newton steps from a on the
    family's ell(a) - ell_target (_ell_slope), each iterate probed by
    _cs_probe; None where an iterate leaves (lo, hi) or the probe fails."""
    branch = 1 if family == "CS3" else -1  # CS3 is the m_plus sheet
    step = 0.0
    try:
        if not lo < a < hi:
            return None
        mu, ell, h = _cs_probe(family, lam, a, kappa)
        for _ in range(steps):
            step = (ell - ell_target) / _ell_slope(a, lam, kappa, branch)
            a -= step
            if not lo < a < hi:
                return None
            mu, ell, h = _cs_probe(family, lam, a, kappa)
    except (Res112Error, ZeroDivisionError):
        return None
    return a, step, mu, ell, h


def hopf_cusp_slice(ell_target: float, kappa: float, lam_lo: float,
                    lam_hi: float) -> list[tuple]:
    """Points of the one-parameter families (Hopf, cusp and degenerate Hopf)
    on the plane ell = ell_target with lam_lo <= lam <= lam_hi.

    Each family's closed form is solved for lam: the Hopf parabolas
    ell = (1 - kappa lam -+ sqrt(1 - 2 kappa lam))/kappa^2 give
    lam = +-sqrt(2 ell) - kappa ell, HHsub3/HHsup3 give
    lam = +-sqrt(-ell) (for kappa = 0 the same lam carry HHsub1_k0..3_k0),
    and for kappa > 0 the cusp curves
    ell = (1 - x - sqrt(2x - 1))/kappa^2, x = kappa lam in (1/2, 1), give
    x = (1 + u^2)/2 with u = -1 + sqrt(2 - 2 kappa^2 ell); a solution whose
    family has no points at its lam (families_at) is skipped.  Returns
    (family, lam, mu, ell, a, h) tuples.
    """
    rows = []

    def add(pt):
        if abs(pt.ell - ell_target) <= 1e-9 * max(1.0, abs(ell_target)) and \
                lam_lo - 1e-12 <= pt.lam <= lam_hi + 1e-12:
            rows.append((pt.family, pt.lam, pt.mu, pt.ell, pt.a, pt.h))

    def add_at(lam, *families):
        present = families_at(lam, kappa)
        for family in families:
            if family in present:
                add(catalog_point(family, lam=lam, kappa=kappa))

    k = kappa
    if ell_target > 0.0:
        for lam in (math.sqrt(2.0 * ell_target) - k * ell_target,
                    -math.sqrt(2.0 * ell_target) - k * ell_target):
            add_at(lam, "HHsub1", "HHsub2", "HHsup1", "HHsup2",
                   "HHsub1_k0", "HHsub2_k0")
    if ell_target < 0.0:
        for lam in (math.sqrt(-ell_target), -math.sqrt(-ell_target)):
            add_at(lam, "HHsub3", "HHsup3", "HHsub3_k0")
    if k == 0.0:
        return rows
    c = ell_target * k ** 2
    if -1.0 < c < 0.5:
        u = -1.0 + math.sqrt(2.0 - 2.0 * c)
        add_at(0.5 * (1.0 + u * u) / k, "Cusp1", "Cusp2")
    m2 = (ell_target - 0.25 / k ** 2) / k ** 2  # the Cusp3 mu^2 at ell_target
    for pt in _fixed_lambda_points(k, [s * math.sqrt(m2) for s in (1, -1)]
                                   if m2 >= 0.0 else []):
        add(pt)
    return rows


def _fixed_lambda_points(kappa: float, cusp3_mus) -> list[CatalogPoint]:
    """The FIXED_LAMBDA_FAMILIES points for kappa > 0: Cusp3 at each mu of
    ``cusp3_mus`` in its open range |mu| < 1/(2 kappa^2), then HHdeg1..3."""
    return [catalog_point(family, mu=mu, kappa=kappa)
            for family in FIXED_LAMBDA_FAMILIES
            for mu in (cusp3_mus if family == "Cusp3" else [None])
            if mu is None or abs(mu) < 0.5 / kappa ** 2]


def catalog_surface(kappa: float, lam_lo: float, lam_hi: float,
                    n: int) -> list[tuple]:
    """(family, lam, a, mu, ell, h) samples of the whole bifurcation set.

    At each of n equally spaced lam in [lam_lo, lam_hi]: every centre-saddle
    family at 17 values of a spread over the inner 98% of its family_domain
    interval (both signs for CS3, CS4 and CS3_k0), then the Hopf and cusp
    families of families_at.  For kappa > 0 the Cusp3 line is sampled at n
    values of mu in (-0.49, 0.49)/kappa^2, and the three degenerate Hopf
    points are added.  Rows are sorted by (family, lam, a, mu).
    """
    rows = []
    lam_grid = np.linspace(lam_lo, lam_hi, n)
    for lam in lam_grid:
        lam = float(lam)
        for family, (lo, hi) in LambdaStratum(lam, kappa).domains.items():
            two_signs = family in _TWO_SIGN_FAMILIES
            for a in np.linspace(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo),
                                 17).tolist():
                if not lo < a < hi:
                    continue
                try:
                    mu, ell, h = _cs_probe(family, lam, a, kappa)
                except Res112Error:
                    continue
                rows.append((family, lam, a, mu, ell, h))
                if two_signs:
                    rows.append((family, lam, a, -mu, ell, h))
        for family in families_at(lam, kappa):
            if family_kind(family) is not BifurcationKind.CENTRE_SADDLE:
                pt = catalog_point(family, lam=lam, kappa=kappa)
                rows.append((family, pt.lam, pt.a, pt.mu, pt.ell, pt.h))
    if kappa > 0.0:
        mus = np.linspace(-0.49 / kappa ** 2, 0.49 / kappa ** 2, n).tolist()
        rows += [(pt.family, pt.lam, pt.a, pt.mu, pt.ell, pt.h)
                 for pt in _fixed_lambda_points(kappa, mus)]
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    return rows


# ---------------------------------------------------------------------------
# Numeric solver (the independent oracle)
# ---------------------------------------------------------------------------

def _q_quadratic_coeffs(a: float, lam: float, kappa: float) -> tuple[float, float, float]:
    """Coefficients (A, B, C) of the eliminated quadratic in m = mu^2."""
    k, L = kappa, lam
    # each power once; the sums keep their terms and order
    k2, k3, k4 = k ** 2, k ** 3, k ** 4
    a2, a3, a4, a5, a6 = a ** 2, a ** 3, a ** 4, a ** 5, a ** 6
    L2, L3, L4 = L ** 2, L ** 3, L ** 4
    A = 1.0 - 2.0 * k * L
    B = (4.0 * k3 * a3 * L - 4.0 * k2 * a3
         + 12.0 * k2 * a2 * L2 - 12.0 * k * a2 * L
         + 6.0 * a2 + 12.0 * k * a * L3 - 12.0 * a * L2
         + 4.0 * L4)
    C = (4.0 * k4 * a6 + 12.0 * k3 * a5 * L
         - 12.0 * k2 * a5 + 12.0 * k2 * a4 * L2
         - 18.0 * k * a4 * L + 9.0 * a4
         + 4.0 * k * a3 * L3 - 4.0 * a3 * L2)
    return A, B, C


def _m_branches_numeric(a: float, lam: float, kappa: float) -> list[float]:
    """Real roots m of the eliminated quadratic in m = mu^2, in Python floats.

    At branch junctions the discriminant crosses zero and roundoff can push
    it slightly negative; discriminants below the noise floor are clamped
    to zero so the double root survives.  Genuinely complex pairs are
    discarded.  Returns sorted values; tiny negatives are clipped to 0.
    """
    A, B, C = _q_quadratic_coeffs(a, lam, kappa)
    if A == 0.0:
        roots = [-C / B] if B != 0.0 else []
    else:
        disc = B * B - 4.0 * A * C
        noise = 1e-10 * (B * B + abs(4.0 * A * C) + 1e-300)
        if abs(disc) <= noise:
            disc = 0.0
        if disc < 0.0:
            return []
        sq = math.sqrt(disc)
        # stable quadratic: avoid cancellation in the small root
        q = -0.5 * (B + math.copysign(sq, B)) if B != 0.0 else 0.5 * sq
        roots = [q / A if q != 0.0 else 0.0, C / q if q != 0.0 else 0.0]
    scale = 1.0 + max(map(abs, roots), default=0.0)
    return sorted(0.0 if -1e-11 * scale < m < 0.0 else m for m in roots)


def _mu_signs(m: float) -> tuple[int, ...]:
    """Signs of mu = +-sqrt(m): one where m vanishes to roundoff, else two."""
    return (1,) if m <= 1e-14 else (1, -1)


def _events_from_am(a: float, m: float, lam: float,
                    kappa: float) -> list[BifurcationEvent]:
    """The validated events at triple root a on the mu^2-branch m >= 0, one
    per sign of mu; candidates below the tip, with an ambiguous
    classification or failing its residual check are dropped (the latter
    occur just below a_sup_boundary, where the noise clamp of
    _m_branches_numeric admits a negative discriminant)."""
    ell, h = _ell_from_mu2(a, m, lam, kappa), _h_from_mu2(a, m, lam, kappa)
    b = _b_of_a(a, lam, kappa)
    out = []
    for sgn in _mu_signs(m):
        mu = sgn * math.sqrt(m)
        rmin = max(abs(mu), ell)
        if a < rmin - TIP_TOL * (1.0 + abs(rmin)):
            continue
        cas = CasimirValues(mu=mu, ell=ell)
        q = f_quartic(h, ReducedParams(lam=lam, kappa=kappa), cas)
        try:
            kind = classify_multiple_root(a, q, cas)
        except (AmbiguousClassificationError, ValidationError):
            continue
        out.append(BifurcationEvent(kind=kind, a=a, b=b, h=h, lam=lam, mu=mu,
                                    ell=ell, kappa=kappa))
    return out


def _unique_events(events) -> list[BifurcationEvent]:
    """The first event of each kind and (a, mu, ell) rounded to 1e-10."""
    first = {}
    for ev in events:
        first.setdefault((ev.kind, round(ev.a, 10), round(ev.mu, 10),
                          round(ev.ell, 10)), ev)
    return list(first.values())


def _structural_points(lam: float, kappa: float) -> list[float]:
    """a-values where the mu^2-branches meet, end or change family: the
    two Hopf boundaries, the quadruple root and a0_root (lam^2/2 for
    kappa = 0).  Crossings on either side of one of them then fall into
    different intervals of a numeric grid."""
    if kappa == 0.0:
        return [a_sub_boundary(lam, kappa)]
    pts = [a_quadruple(lam, kappa)]
    if 1.0 - 2.0 * kappa * lam >= 0.0:
        pts += [a_sub_boundary(lam, kappa), a_sup_boundary(lam, kappa)]
    if lam != 0.0 and kappa * lam < 1.0:
        pts.append(a0_root(lam, kappa))
    return pts


def _a_grid(a_hi: float, n: int, pts) -> list[float]:
    """n equally spaced a-values on [0, a_hi] and the points of pts in that
    range, sorted."""
    return sorted({float(a) for a in np.linspace(0.0, a_hi, n)}
                  | {a for a in pts if 0.0 <= a <= a_hi})


def _branch_values(grid: list[float], table: list[list[float]], g) -> np.ndarray:
    """The (2, n) array of g(a, m) at each a of ``grid`` on the smaller
    (row 0), then on the larger (row 1) mu^2-root m of ``table``, its
    _m_branches_numeric roots there; NaN where the branch has no real
    m >= 0.  g runs on Python floats, so the values have its bits."""
    return np.array([[g(a, ms[which]) if len(ms) > which and ms[which] >= 0.0
                      else math.nan for a, ms in zip(grid, table)]
                     for which in (0, 1)])


def _branch_crossings(grid: list[float], values, g, lam: float,
                      kappa: float) -> list[tuple[float, float]]:
    """Roots of g(a, m) along each mu^2-branch m(a) of _m_branches_numeric.

    ``grid`` is an increasing list of a-values and ``values`` the (2, n)
    _branch_values of g on it, so g itself runs only inside a bracket.  On
    the smaller root (row 0), then on the larger (row 1), a grid value of
    exactly zero is a root; a strict sign change between neighbours, found
    by one array scan, is polished by polyroots.brentq (xtol 1e-13) with
    the scalar g, and a bracket where g meets a missing branch (NaN) is
    skipped.  Returns the distinct (a, m) pairs, branch by branch in grid
    order; where the branches meet, a root on both counts once.
    """
    neg, pos = values < 0.0, values > 0.0
    changes = (neg[:, :-1] & pos[:, 1:]) | (pos[:, :-1] & neg[:, 1:])
    at = ([], []), ([], [])  # each branch's (zero, sign change) positions
    for kind, mask in enumerate((values == 0.0, changes)):
        for which, i in zip(*(ix.tolist() for ix in np.nonzero(mask))):
            at[which][kind].append(i)
    out = []
    for which, (zeros, brackets) in enumerate(at):
        def g_at(a):
            ms = _m_branches_numeric(a, lam, kappa)
            if len(ms) <= which or ms[which] < 0.0:
                return math.nan
            return g(a, ms[which])

        roots = [grid[i] for i in zeros]
        for i in brackets:
            try:
                roots.append(polyroots.brentq(g_at, grid[i], grid[i + 1],
                                              xtol=1e-13))
            except ValueError:
                continue
        for a in sorted(roots):
            ms = _m_branches_numeric(a, lam, kappa)
            if len(ms) > which and ms[which] >= 0.0 and (a, ms[which]) not in out:
                out.append((a, ms[which]))
    return out


def _special_lambda(lam: float, kappa: float) -> float | None:
    """The special value 0 or 1/(2 kappa) that lam lies within 1e-12 of,
    else None.  There the eliminated quartic degenerates, and the numeric
    solver takes its special cases instead of the grid."""
    if abs(lam) < 1e-12:
        return 0.0
    if kappa != 0.0 and abs(lam - 0.5 / kappa) < 1e-12:
        return 0.5 / kappa
    return None


def solve_bifurcations_numeric(lam: float, kappa: float = 1.0, *,
                               n_grid: int) -> list[BifurcationEvent]:
    """Numerically enumerate the bifurcation set at fixed lam.

    Works from the coefficient-matching system of the triple-root
    factorisation: after eliminating (b, ell, h), the remaining quadratic
    in mu^2 is solved on an a-grid that holds the structural points
    (_structural_points); Hopf points are the roots of a - r_min along each
    root branch (_branch_crossings).  Events are classified by the
    multiple-root rules and tagged with the nearest catalog family
    (LambdaStratum.tag); unmatched events keep family None and are never dropped.
    kappa = 0 is supported through the cubic degeneration of F (no b root,
    no quadruple candidates); kappa < 0 raises UnsupportedRegimeError, as
    the catalog that tags the events does (families_at).
    """
    special = _special_lambda(lam, kappa)
    if special == 0.0:
        return LambdaStratum(special, kappa).tag(_events_lambda_zero(kappa))
    if special is not None:
        return LambdaStratum(special, kappa).tag(_events_lambda_half(kappa, n_grid))

    pts = _structural_points(lam, kappa)
    a_max = 1.2 * max([0.0, *pts, *([1.0 / kappa ** 2] if kappa else [])]) + 0.5
    grid = _a_grid(a_max, n_grid, pts)
    table = [_m_branches_numeric(a, lam, kappa) for a in grid]

    def tip_gap(a, m):
        return a - max(math.sqrt(m), _ell_from_mu2(a, m, lam, kappa))

    on_grid = [(a, m) for a, ms in zip(grid, table) for m in ms if m >= 0.0]
    crossings = _branch_crossings(grid, _branch_values(grid, table, tip_gap),
                                  tip_gap, lam, kappa)
    events = _unique_events(ev for a, m in on_grid + crossings
                            for ev in _events_from_am(a, m, lam, kappa))
    events.sort(key=lambda e: (e.a, e.mu, e.kind.value))
    return LambdaStratum(lam, kappa).tag(events)


def oracle_slice(st: LambdaStratum, ell_targets) -> list[list[tuple]]:
    """Numeric-oracle points on each plane ell = ell_target of
    ``ell_targets`` at the stratum's lam: one row list per plane, in plane
    order.

    Independent of the catalog: the events of ``st.oracle`` within 1e-6 of
    the plane (there are some only at lam = 0 and lam = 1/(2 kappa)), then,
    along each root branch of the eliminated quadratic in mu^2, the roots
    of ell(a) - ell_target on the oracle's grid (_branch_crossings), whose
    grid values are the stratum's ell array less ell_target; points below
    the tip are dropped.  Each plane's rows are ("numeric-oracle", lam, mu,
    ell, a, h) tuples.
    """
    lam, kappa = st.lam, st.kappa
    events, grid, ells = st.oracle
    planes = []
    for ell_target in ell_targets:
        rows = [("numeric-oracle", ev.lam, ev.mu, ev.ell, ev.a, ev.h)
                for ev in events if abs(ev.ell - ell_target) <= 1e-6]

        def off_plane(a, m):
            return _ell_from_mu2(a, m, lam, kappa) - ell_target

        for a, m in _branch_crossings(grid, ells - ell_target, off_plane,
                                      lam, kappa):
            ell, h = _ell_from_mu2(a, m, lam, kappa), _h_from_mu2(a, m, lam, kappa)
            for sgn in _mu_signs(m):
                mu = sgn * math.sqrt(m)
                if a < max(abs(mu), ell) - 1e-10:
                    continue
                rows.append(("numeric-oracle", lam, mu, ell, a, h))
        planes.append(rows)
    return planes


def _events_lambda_zero(kappa: float) -> list[BifurcationEvent]:
    """Special case lam = 0: only the resonant equilibrium and, for
    kappa != 0, the two supercritical Hopf points at +-mu = ell = 2/kappa^2."""
    events = []
    cas0 = CasimirValues(mu=0.0, ell=0.0)
    rp = ReducedParams(lam=0.0, kappa=kappa)
    q0 = f_quartic(0.0, rp, cas0)
    kind0 = classify_multiple_root(0.0, q0, cas0)
    events.append(BifurcationEvent(kind=kind0, a=0.0, b=_b_of_a(0.0, 0.0, kappa),
                                   h=0.0, lam=0.0, mu=0.0, ell=0.0, kappa=kappa))
    if kappa != 0.0:
        a = 2.0 / kappa ** 2
        h = tip_energy(a, rp)
        for sgn in (1, -1):
            cas = CasimirValues(mu=sgn * a, ell=a)
            q = f_quartic(h, rp, cas)
            kind = classify_multiple_root(a, q, cas)
            events.append(BifurcationEvent(kind=kind, a=a, b=_b_of_a(a, 0.0, kappa),
                                           h=h, lam=0.0, mu=sgn * a, ell=a,
                                           kappa=kappa))
    return events


def _events_lambda_half(kappa: float, n_grid: int) -> list[BifurcationEvent]:
    """Special case lam = 1/(2 kappa): the eliminated quartic factorises as
    (2 kappa^2 a - 1)^3 (mu^2 - 2 kappa^2 a^3)."""
    lam, a_c, n = 0.5 / kappa, 0.5 / kappa ** 2, max(n_grid // 8, 33)
    # the catalog's closed forms on closed ranges: the Cusp3 line for
    # |mu| <= a_c (so with its HHdeg1/2 end points), then the centre-saddle
    # sheet mu^2 = 2 kappa^2 a^3 on [0, a_c] (so with its Hopf end point a = 0)
    points = [_cusp3_point(float(mu), kappa) for mu in np.linspace(-a_c, a_c, n)]
    for a in np.linspace(0.0, a_c, n):
        pt = _cs_point("CS2", lam, float(a), 1, kappa)
        points += [replace(pt, mu=sgn * pt.mu) for sgn in _mu_signs(pt.mu * pt.mu)]
    events = []
    for pt in points:
        cas = CasimirValues(mu=pt.mu, ell=pt.ell)
        q = f_quartic(pt.h, ReducedParams(lam=lam, kappa=kappa), cas)
        try:
            kind = classify_multiple_root(pt.a, q, cas)
        except AmbiguousClassificationError:
            continue
        events.append(BifurcationEvent(kind=kind, a=pt.a, b=pt.b, h=pt.h, lam=lam,
                                       mu=pt.mu, ell=pt.ell, kappa=kappa))
    events = _unique_events(events)
    events.sort(key=lambda e: (e.a, e.mu, e.kind.value))
    return events


# ---------------------------------------------------------------------------
# Instability intervals of singular tips
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InstabilityInterval:
    """lam-interval on which the singular tip is dynamically unstable."""

    lam_lo: float
    lam_hi: float
    kind_lo: BifurcationKind
    kind_hi: BifurcationKind


def instability_interval(cas: CasimirValues, kappa: float = 1.0) -> InstabilityInterval:
    """The unique lam-interval where the level set through a singular tip
    cuts into the reduced space (F''(r_min) < 0).

    Endpoints are the two roots of F''(r_min) in lam, classified as sub- or
    supercritical Hopf events by the sign of F''' there.  Raises
    ValidationError for smooth tips (no interval exists).
    """
    tip = tip_class(cas)
    if not tip.is_singular:
        raise ValidationError(
            f"tip of (mu={cas.mu}, ell={cas.ell}) is smooth: no instability interval")
    rmin = tip.r_min
    rad = 3.0 * rmin - cas.ell
    rad = max(rad, 0.0)
    lo = -math.sqrt(rad) - kappa * rmin
    hi = math.sqrt(rad) - kappa * rmin

    def endpoint_kind(lam):
        rp = ReducedParams(lam=lam, kappa=kappa)
        q = f_quartic(tip_energy(rmin, rp), rp, cas)
        f3 = q.d3(rmin)
        if abs(f3) <= _f3_tol(rmin, kappa):
            return BifurcationKind.HOPF_DEGENERATE
        return (BifurcationKind.HOPF_SUPER if f3 > 0.0
                else BifurcationKind.HOPF_SUB)

    return InstabilityInterval(lam_lo=lo, lam_hi=hi,
                               kind_lo=endpoint_kind(lo),
                               kind_hi=endpoint_kind(hi))
