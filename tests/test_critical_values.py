"""Fiber classification and the assembled set of critical values.

The probe expectations are derived by hand from the root structure of
F(R) = (h - lam R - R^2/2)^2 - (R^2 - mu^2)(R - ell) on [r_min, inf):
the reduced fiber is {F <= 0} and Y^2 = -F on it.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from res112 import (CasimirValues, FiberKind, ModelParams, ReducedParams,
                    Stability, UnsupportedRegimeError, ValidationError,
                    catalog_point, classify_fiber, classify_fibers,
                    crease_span, critical_slice, equilibria, generator_loop,
                    h_min, instability_interval, thread_segments)
from res112.critical_values import minimum_crossing_loci

RNG = np.random.default_rng(6180339)


def kinds_of(mu, ell, h, lam):
    rep = classify_fiber(CasimirValues(mu, ell), ReducedParams(lam=lam, kappa=1.0), h)
    return rep.multiset()


# ---------------------------------------------------------------------------
# Hand-derived probes
# ---------------------------------------------------------------------------

def test_cusp_pinched_fiber_at_origin():
    # mu = ell = 0, lam = 0, h = 0: F = R^3 (R/4 - 1): F < 0 on (0, 4),
    # F(0) = 0 through the cuspidal tip -> one cusp-pinched 3-torus
    assert kinds_of(0, 0, 0, 0.0) == {"CuspPinchedT3": 1}


def test_pinched_torus_threads_at_lambda_zero():
    # C12 at (0, -1, 0): F = R^2[(R/2)^2 - (R+1)] < 0 between the tip and
    # the positive root of R^2/4 - R - 1
    assert kinds_of(0, -1, 0, 0.0) == {"PinchedTorusTimesT1": 1}
    # C23/C13 at ell = |mu| = 1, h = h_c = 1/2
    assert kinds_of(1, 1, 0.5, 0.0) == {"PinchedTorusTimesT1": 1}
    assert kinds_of(-1, 1, 0.5, 0.0) == {"PinchedTorusTimesT1": 1}


def test_regular_and_empty_fibers():
    assert kinds_of(0.3, 0.4, 2.0, 0.0) == {"Torus3": 1}
    assert kinds_of(0, 0, 1.0, 0.0) == {"Torus3": 1}
    assert kinds_of(0, 0, -1.0, 0.0) == {}
    assert kinds_of(0.3, 0.4, -10.0, 0.0) == {}


def test_stable_normal_modes_are_circles():
    # ell = |mu| = 2.5 > 2: beyond the supercritical end at lam = 0 the cone
    # tip is stable; the fiber at h_c is the normal mode alone
    assert kinds_of(2.5, 2.5, 3.125, 0.0) == {"Circle": 1}
    assert kinds_of(-2.5, 2.5, 3.125, 0.0) == {"Circle": 1}


def test_torus2_on_minimal_energy_surface():
    cas = CasimirValues(0.3, 0.4)
    rp = ReducedParams(lam=0.0, kappa=1.0)
    hm = h_min(cas, rp)
    assert kinds_of(0.3, 0.4, hm, 0.0) == {"Torus2": 1}


def test_island_fibers_off_axis():
    # inside the centre-saddle triangle at lam = -1: node (0.1, 0) carries
    # three regular equilibria ordering B < Fh < Fe
    lam = -1.0
    eqs = equilibria(CasimirValues(0.1, 0.0), ReducedParams(lam=lam, kappa=1.0))
    assert len(eqs) == 3
    hB, hFh, hFe = sorted(e.h for e in eqs)
    stab = {round(e.h, 12): e.stability for e in eqs}
    assert stab[round(hFh, 12)] is Stability.HYPERBOLIC
    assert kinds_of(0.1, 0.0, hB, lam) == {"Torus2": 1}
    assert kinds_of(0.1, 0.0, 0.5 * (hB + hFh), lam) == {"Torus3": 1}
    assert kinds_of(0.1, 0.0, hFh, lam) == {"FigureEightTimesT2": 1}
    assert kinds_of(0.1, 0.0, 0.5 * (hFh + hFe), lam) == {"Torus3": 2}
    assert kinds_of(0.1, 0.0, hFe, lam) == {"Torus2": 1, "Torus3": 1}
    assert kinds_of(0.1, 0.0, hFe + 0.5, lam) == {"Torus3": 1}


def test_island_fibers_on_axis():
    # on mu = 0 the stable tip (h_c = 0) is the crease between the upper
    # faces: crossing it changes nothing in count but the crease itself
    # carries the normal mode next to the surviving torus
    lam = -1.0
    assert kinds_of(0.0, -0.5, -0.01, lam) == {"Torus3": 2}
    assert kinds_of(0.0, -0.5, 0.0, lam) == {"Circle": 1, "Torus3": 1}
    assert kinds_of(0.0, -0.5, 0.5, lam) == {"Torus3": 1}
    assert kinds_of(0.0, -0.5, -1.0, lam) == {"Torus3": 1}
    # below the subcritical Hopf at ell = -lam^2 the thread detaches
    assert kinds_of(0.0, -2.0, 0.0, lam) == {"PinchedTorusTimesT1": 1}


def test_large_detuning_thread_onset():
    # lam = 1.5: F(R) = R^2 q(R) with q = R^2/4 + (lam-1) R + lam^2 + ell;
    # q(0) changes sign exactly at ell = -lam^2
    lam = 1.5
    assert kinds_of(0.0, -3.0, 0.0, lam) == {"PinchedTorusTimesT1": 1}
    assert kinds_of(0.0, -2.25 - 1e-6, 0.0, lam) == {"PinchedTorusTimesT1": 1}
    assert kinds_of(0.0, -2.25 + 1e-6, 0.0, lam) == {"Circle": 1}
    assert kinds_of(0.0, -1.0, 0.0, lam) == {"Circle": 1}
    assert kinds_of(0.0, -3.0, 2.0, lam) == {"Torus3": 1}


def test_near_onset_reports_are_flagged_not_confident():
    # within root-clustering resolution of the onset the report must carry
    # a flag instead of silently committing
    rep = classify_fiber(CasimirValues(0.0, -2.25), ReducedParams(lam=1.5, kappa=1.0), 0.0)
    assert rep.flags


def test_fiber_symmetry_mu_flip():
    for _ in range(100):
        mu, ell = float(RNG.normal(0, 1.2)), float(RNG.normal(0, 1.2))
        lam, h = float(RNG.normal(0, 0.8)), float(RNG.normal(0, 1.0))
        a = kinds_of(mu, ell, h, lam)
        b = kinds_of(-mu, ell, h, lam)
        assert a == b


def test_normal_mode_spans_need_positive_kappa():
    for kappa in (0.0, -1.0):
        with pytest.raises(UnsupportedRegimeError):
            thread_segments(ReducedParams(lam=0.6, kappa=kappa))
        with pytest.raises(UnsupportedRegimeError):
            minimum_crossing_loci(ReducedParams(lam=0.6, kappa=kappa), [0.0])
        with pytest.raises(UnsupportedRegimeError):
            crease_span(ReducedParams(lam=0.6, kappa=kappa))


def test_classify_fiber_needs_positive_kappa():
    with pytest.raises(UnsupportedRegimeError):
        classify_fiber(CasimirValues(0, 0), ReducedParams(lam=0.0, kappa=0.0), 0.0)


def test_classify_fiber_rejects_non_finite_energy():
    for h in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            classify_fiber(CasimirValues(0.0, 0.0), ReducedParams(0.0, 1.0), h)
    # finite inputs whose square overflows a coefficient of F (c0 = h^2,
    # c1 = mu^2) are rejected too, not passed on to the root solve
    for mu, h in ((0.0, 1e200), (1e200, 0.0)):
        with pytest.raises(ValidationError):
            classify_fiber(CasimirValues(mu, 0.0), ReducedParams(0.0, 1.0), h)


def _outcome(rep):
    """repr of a report (bits included), or the type and message of an
    error."""
    if isinstance(rep, Exception):
        return type(rep), str(rep)
    return repr(rep)


def _classify_outcome(cas, rp, h):
    try:
        return _outcome(classify_fiber(cas, rp, h))
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return _outcome(exc)


def _loop_fibers():
    fibers = []
    for delta in (-1.0, 0.0, 0.3):
        params = ModelParams(delta=delta, kappa=1.0)
        for name in ("gamma1", "gamma2", "gamma3"):
            for mu, iota, h in generator_loop(name, params, n_points=12):
                cas = CasimirValues(mu, 2.0 * iota - mu)
                fibers.append((cas, ReducedParams.from_model(params, cas), h))
    return fibers


def test_classify_fibers_matches_classify_fiber():
    fibers = _loop_fibers()
    # the strata |mu| = ell, ell = -|mu|, mu = 0 and the cusp, at each
    # equilibrium energy and on either side of it
    for mu, ell in ((0.7, 0.7), (-0.7, 0.7), (0.7, -0.7), (0.0, -0.7),
                    (0.0, 0.5), (0.0, 0.0)):
        for lam in (-1.0, 0.0, 0.3, 1.5):
            cas, rp = CasimirValues(mu, ell), ReducedParams(lam, 1.0)
            for e in equilibria(cas, rp):
                fibers += [(cas, rp, e.h + dh) for dh in (-1e-3, 0.0, 1e-3)]
    # fibers that raise: kappa = 0, a non-finite h, an overflowing quartic
    cas = CasimirValues(0.5, 0.5)
    fibers += [(cas, ReducedParams(0.0, 0.0), 0.1),
               (cas, ReducedParams(0.0, 1.0), math.nan),
               (cas, ReducedParams(0.0, 1.0), 1e200)]
    batch = classify_fibers(*zip(*fibers))
    assert len(batch) == len(fibers)
    assert [_outcome(rep) for rep in batch] == \
        [_classify_outcome(*fiber) for fiber in fibers]
    assert [type(rep) for rep in batch[-3:]] == \
        [UnsupportedRegimeError, ValidationError, ValidationError]


def test_classify_fibers_solves_a_loop_in_one_eigvals_call(monkeypatch):
    fibers = _loop_fibers()
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: calls.append(np.shape(a)) or eigvals(a))
    classify_fibers(*zip(*fibers))
    assert calls == [(len(fibers), 4, 4)]


def test_parity_across_faces():
    # crossing the elliptic face changes the torus count by one; crossing
    # the hyperbolic face rewires two tori through a figure-eight
    lam = -1.0
    eqs = equilibria(CasimirValues(0.1, 0.0), ReducedParams(lam=lam, kappa=1.0))
    hB, hFh, hFe = sorted(e.h for e in eqs)
    eps = 1e-4
    below = kinds_of(0.1, 0.0, hFe - eps, lam)["Torus3"]
    above = kinds_of(0.1, 0.0, hFe + eps, lam)["Torus3"]
    assert below - above == 1
    at = kinds_of(0.1, 0.0, hFe, lam)
    assert at == {"Torus2": 1, "Torus3": 1}
    two = kinds_of(0.1, 0.0, hFh + eps, lam)["Torus3"]
    one = kinds_of(0.1, 0.0, hFh - eps, lam)["Torus3"]
    assert (two, one) == (2, 1)
    assert kinds_of(0.1, 0.0, hFh, lam) == {"FigureEightTimesT2": 1}


# ---------------------------------------------------------------------------
# thread segments
# ---------------------------------------------------------------------------

def test_thread_segments_lambda_zero():
    segs = {s.name: s for s in thread_segments(ReducedParams(lam=0.0, kappa=1.0))}
    # C13/C23 threads end at the supercritical Hopf at ell = 2
    for name in ("C23", "C13"):
        lo, hi = segs[name].ell_unstable
        assert (lo, hi) == pytest.approx((0.0, 2.0), abs=1e-12)
        assert segs[name].ell_positive == pytest.approx((0.0, 2.0), abs=1e-12)
    # C12 extends indefinitely: unstable for all ell < 0
    lo, hi = segs["C12"].ell_unstable
    assert hi == pytest.approx(0.0, abs=1e-12)
    assert segs["C12"].h_c(-3.0) == 0.0
    assert segs["C23"].h_c(2.0) == pytest.approx(2.0)  # lam ell + ell^2/2


def test_thread_segments_large_detuning():
    segs = {s.name: s for s in thread_segments(ReducedParams(lam=1.5, kappa=1.0))}
    lo, hi = segs["C12"].ell_unstable
    assert hi == pytest.approx(-2.25, abs=1e-12)
    # detached exactly at the Hopf point: C12+ = C12^0
    assert segs["C12"].ell_positive[1] == pytest.approx(-2.25, abs=1e-8)
    assert segs["C23"].ell_unstable is None
    assert segs["C23"].ell_positive is None


def test_thread_segments_hhsup3_onset():
    segs = {s.name: s for s in thread_segments(ReducedParams(lam=1.5, kappa=1.0))}
    assert segs["C12"].ell_unstable[1] == pytest.approx(-1.5 ** 2)


def test_thread_segments_h_c_in_kappa_frame():
    # each segment carries its own lam and kappa: at kappa = 2 the C23 tip
    # energy is lam r + (kappa/2) r^2 = lam r + r^2, with no kappa argument
    lam = 0.1
    segs = {s.name: s for s in thread_segments(ReducedParams(lam=lam, kappa=2.0))}
    assert (segs["C23"].lam, segs["C23"].kappa) == (lam, 2.0)
    r = np.linspace(0.01, 3.0, 7)
    assert np.allclose(segs["C23"].h_c(r), lam * r + r * r, rtol=1e-15, atol=0.0)
    assert segs["C23"].h_c(0.5) == pytest.approx(lam * 0.5 + 0.25, abs=1e-16)
    assert segs["C12"].h_c(-2.0) == 0.0


@pytest.mark.parametrize("kappa", [0.7, 2.0])
def test_thread_segments_match_per_tip_instability(kappa):
    # the closed-form spans agree with the per-tip instability interval
    # (the oracle) in any kappa frame, tip by tip, however far out along
    # the curve: C12 has no lower end
    for x in (-0.6, 0.0, 0.3, 0.45, 0.8, 1.3):
        lam = x / kappa
        for seg in thread_segments(ReducedParams(lam=lam, kappa=kappa)):
            if seg.name == "C12":
                assert seg.ell_unstable[0] == seg.ell_positive[0] == -math.inf
            lo, hi = seg.ell_unstable or (math.nan, math.nan)
            for ell in seg.ell_sign * np.geomspace(1e-3, 100.0, 801):
                ell = float(ell)
                iv = instability_interval(CasimirValues(seg.mu_of_ell * ell, ell),
                                          kappa=kappa)
                expect = iv.lam_lo < lam < iv.lam_hi
                assert (lo < ell < hi) == expect, (kappa, x, seg.name, ell)


def test_thread_samples_stay_on_their_side():
    # each curve samples only its own side of ell, with mu = mu_of_ell * ell
    # (0, not -0, on C12) and 0/1 flags for the open spans
    segs = {s.name: s for s in thread_segments(ReducedParams(lam=0.0, kappa=1.0))}
    ells = np.array([-3.0, -1.0, 0.0, 1.0, 2.0, 3.0])
    assert segs["C23"].samples(ells) == [("C23", 1.0, 1.0, 0.5, 1, 1),
                                         ("C23", 2.0, 2.0, 2.0, 0, 0),
                                         ("C23", 3.0, 3.0, 4.5, 0, 0)]
    assert segs["C13"].samples(ells) == [("C13", -1.0, 1.0, 0.5, 1, 1),
                                         ("C13", -2.0, 2.0, 2.0, 0, 0),
                                         ("C13", -3.0, 3.0, 4.5, 0, 0)]
    c12 = segs["C12"].samples(ells)
    assert c12 == [("C12", 0.0, -3.0, 0.0, 1, 1), ("C12", 0.0, -1.0, 0.0, 1, 1)]
    assert all(math.copysign(1.0, row[1]) == 1.0 for row in c12)
    # beyond kappa lam = 1/2 C23 and C13 have no spans: every flag is 0
    c23 = {s.name: s for s in thread_segments(ReducedParams(1.5, 1.0))}["C23"]
    assert [row[4:] for row in c23.samples(ells)] == [(0, 0)] * 3


def test_crease_span_runs_from_ell_star_to_cusp1():
    for kappa in (0.7, 1.0, 2.0):
        for x in (-0.5, 0.3, 0.55, 0.9, 1.2):
            lam = x / kappa
            span = crease_span(ReducedParams(lam=lam, kappa=kappa))
            if 0.5 < x < 1.0:
                cusp = catalog_point("Cusp1", lam=lam, kappa=kappa)
                assert span == (ell_star(lam, kappa), cusp.ell)
            else:
                assert span is None


def ell_star(lam, kappa=1.0):
    """ell* as the library reports it: the upper end of the C12 above-min span."""
    segs = {s.name: s for s in thread_segments(ReducedParams(lam=lam, kappa=kappa))}
    return segs["C12"].ell_positive[1]


def test_detachment_point_intermediate_detuning():
    # 1/2 < lam < 1: the normal 3-mode detaches from the minimal-energy
    # surface strictly inside (-lam^2, 0), at ell* = 1 - 2 lam
    lam = 0.52
    ell_s = ell_star(lam)
    assert -lam * lam < ell_s < 0.0
    rp = ReducedParams(lam=lam, kappa=1.0)
    assert h_min(CasimirValues(0.0, ell_s - 1e-6), rp) < -1e-9
    assert h_min(CasimirValues(0.0, ell_s + 1e-6), rp) > -1e-12


def test_detachment_point_small_detuning():
    # for lam <= 1/2 the curve stays above the minimum all the way to 0
    assert ell_star(0.0) == 0.0
    assert ell_star(-1.0) == 0.0
    # for lam > 1 it detaches exactly at the Hopf point
    assert ell_star(1.5) == pytest.approx(-2.25, abs=1e-8)


# Numeric oracles for the closed forms.  These are the searches the library
# used before the closed forms replaced them: a bisection over h_min for
# ell* and, for the L+ crease, a grid plus a bounded scalar minimiser of the
# gap between the two lowest equilibrium energies.

def _c12_detach_oracle(lam, kappa=1.0, tol=1e-12):
    """ell* by bisection on {h_c > h_min} along mu = 0, ell < 0 (h_c = 0).

    The boundary test asks for an energy gap above ``tol``, so the result
    sits below the true ell* by about tol over the gap's slope there; the
    library's old tol = 1e-10 put it 2e-8 low at kappa = 2, kappa lam = 0.99.
    """
    rp = ReducedParams(lam=lam, kappa=kappa)

    def above(ell):
        return -h_min(CasimirValues(mu=0.0, ell=ell), rp) > tol

    eps = 1e-7
    if above(-eps):
        return 0.0
    lo = -lam * lam - eps if lam != 0.0 else -1.0
    if not above(lo):
        # attached all the way down to the Hopf point
        return -lam * lam
    hi = -eps
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if above(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _crossing_oracle(rp, ell_values, mu_max=2.0):
    """L+ points (mu, ell, h) by minimising the gap between the two lowest
    equilibrium energies over mu >= 0: an 81-point grid, then a bounded
    minimiser on the bracketing cells.  The minimiser works on the offset
    from the bracket's lower end, because its x-tolerance grows with |x|.
    Only near-exact crossings (gap below 1e-8) are reported.
    """
    out = []
    for ell in ell_values:
        ell = float(ell)

        def gap(mu):
            hs = sorted(e.h for e in equilibria(CasimirValues(abs(mu), ell), rp))
            return hs[1] - hs[0] if len(hs) > 1 else 1e30

        grid = np.linspace(0.0, mu_max, 81)
        vals = [gap(m) for m in grid]
        i = int(np.argmin(vals))
        if vals[i] >= 1e29:
            continue
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, len(grid) - 1)]
        res = minimize_scalar(lambda t: gap(lo + t), bounds=(0.0, hi - lo),
                              method="bounded", options={"xatol": 1e-12})
        if res.fun < 1e-8:
            mu_star = float(lo + res.x)
            h_star = min(e.h for e in equilibria(CasimirValues(mu_star, ell), rp))
            out.append((mu_star, ell, h_star))
    return out


@pytest.mark.parametrize("kappa", [0.7, 1.0, 2.0])
def test_ell_star_closed_form_matches_bisection(kappa):
    for x in (-1.0, 0.3, 0.51, 0.6, 0.75, 0.9, 0.99, 1.2):
        lam = x / kappa
        closed = ell_star(lam, kappa)
        oracle = _c12_detach_oracle(lam, kappa)
        assert abs(closed - oracle) <= 1e-8, (kappa, x, closed, oracle)
        # the oracle's boundary test is one-sided: it never overshoots
        assert oracle <= closed


@pytest.mark.parametrize("kappa", [0.7, 1.0, 2.0])
def test_crossing_loci_closed_form_matches_minimiser(kappa):
    for x in (0.52, 0.6):
        lam = x / kappa
        rp = ReducedParams(lam=lam, kappa=kappa)
        ell_cusp = catalog_point("Cusp1", lam=lam, kappa=kappa).ell
        ells = np.linspace(ell_star(lam, kappa), ell_cusp, 9)[1:-1]
        closed = {ell: (mu, h) for mu, ell, h in minimum_crossing_loci(rp, ells)}
        assert len(closed) == len(ells)
        found = _crossing_oracle(rp, ells)
        assert len(found) >= 4, (kappa, x, found)
        for mu, ell, h in found:
            assert abs(mu - closed[ell][0]) <= 1e-9, (kappa, x, ell)
            assert abs(h - closed[ell][1]) <= 1e-9, (kappa, x, ell)


def test_crossing_loci_closed_form_is_a_double_crossing():
    # every closed-form point carries two equilibria at the minimal energy,
    # including kappa lam >= 0.9, where the minimiser's grid finds none
    for kappa in (0.7, 1.0, 2.0):
        for x in (0.55, 0.9, 0.95):
            lam = x / kappa
            rp = ReducedParams(lam=lam, kappa=kappa)
            ell_cusp = catalog_point("Cusp1", lam=lam, kappa=kappa).ell
            ells = np.linspace(ell_star(lam, kappa), ell_cusp, 9)[1:-1]
            pts = minimum_crossing_loci(rp, ells)
            assert [p[1] for p in pts] == [float(e) for e in ells]
            for mu, ell, h in pts:
                hs = sorted(e.h for e in equilibria(CasimirValues(mu, ell), rp))
                assert abs(hs[0] - h) <= 1e-12 and abs(hs[1] - h) <= 1e-12, \
                    (kappa, x, mu, ell, hs[:2], h)


def test_crossing_loci_span_is_open():
    # the crease runs from (0, ell*, 0) to Cusp2; both ends are excluded
    lam = 0.7
    rp = ReducedParams(lam=lam, kappa=1.0)
    ell_lo = ell_star(lam)
    cusp = catalog_point("Cusp2", lam=lam, kappa=1.0)
    assert minimum_crossing_loci(rp, [ell_lo, cusp.ell, ell_lo - 0.1,
                                      cusp.ell + 0.1]) == []
    ((mu, ell, h),) = minimum_crossing_loci(rp, [cusp.ell - 1e-9])
    assert mu == pytest.approx(cusp.mu, abs=1e-8)
    assert h == pytest.approx(cusp.h, abs=1e-8)


def test_threads_transversally_isolated_at_lambda_zero():
    # on the threads h_c > h_min strictly (C0 = C+)
    rp = ReducedParams(lam=0.0, kappa=1.0)
    for name, sgn in (("C23", 1.0), ("C13", -1.0)):
        for ell in (0.3, 1.0, 1.8):
            cas = CasimirValues(sgn * ell, ell)
            h_c = 0.0 * ell + 0.5 * ell * ell
            assert h_c - h_min(cas, rp) > 0.0
    for ell in (-0.5, -2.0, -5.0):
        assert 0.0 - h_min(CasimirValues(0.0, ell), rp) > 0.0


# ---------------------------------------------------------------------------
# critical slices
# ---------------------------------------------------------------------------

def test_critical_slice_island_structure():
    rp = ReducedParams(lam=-1.0, kappa=1.0)
    nodes = critical_slice(rp, np.linspace(-0.2, 0.2, 5),
                           np.linspace(-0.8, 0.1, 5), validate=True)
    assert all(nd.error is None for nd in nodes)
    # nodes inside the triangle carry three heights ordered B < Fh < Fe
    inside = [nd for nd in nodes
              if len([h for h in nd.heights if h.tag in ("B", "Fe", "Fh")]) == 3]
    assert inside
    for nd in inside:
        tags = [h.tag for h in sorted(nd.heights, key=lambda c: c.h)
                if h.tag in ("B", "Fe", "Fh")]
        assert tags == ["B", "Fh", "Fe"]
    assert not any(nd.flags for nd in nodes), [nd.flags for nd in nodes if nd.flags]


def test_critical_slice_thread_tagging():
    rp = ReducedParams(lam=0.0, kappa=1.0)
    nodes = critical_slice(rp, [0.0], [-1.0], validate=True)
    (node,) = nodes
    assert any(h.tag == "thread" for h in node.heights)


def test_critical_slice_needs_no_thread_segments(monkeypatch):
    # thread spans are per-lam data from thread_segments; the per-node slice
    # reads tip stability off the instability interval alone
    def boom(*args, **kwargs):
        raise AssertionError("critical_slice called thread_segments")

    monkeypatch.setattr("res112.critical_values.thread_segments", boom)
    # lam = -1: the C12 thread is ell < -lam^2 = -1 (ell = -1 is the Hopf point)
    nodes = critical_slice(ReducedParams(-1.0, 1.0), [0.0], [-2.0], validate=True)
    (node,) = nodes
    assert node.error is None and not node.flags
    assert [h.tag for h in node.heights] == ["B", "thread"]


def test_critical_slice_large_detuning_plain():
    rp = ReducedParams(lam=1.5, kappa=1.0)
    nodes = critical_slice(rp, np.linspace(-1, 1, 5),
                           np.linspace(-1.5, 1.5, 5), validate=False)
    for nd in nodes:
        assert nd.error is None
        # no hyperbolic faces anywhere at large detuning
        assert not any(h.tag == "Fh" for h in nd.heights)


def test_island_shrinks_as_lambda_to_zero():
    # the tetrahedron of extra critical values shrinks to the origin
    mus = np.linspace(-0.3, 0.3, 7)
    ells = np.linspace(-0.5, 0.3, 7)
    sizes = {}
    for lam in (-0.4, -0.2, -0.1):
        rp = ReducedParams(lam=lam, kappa=1.0)
        nodes = critical_slice(rp, mus, ells, validate=False)
        n3 = sum(1 for nd in nodes
                 if len([h for h in nd.heights if h.tag in ("B", "Fe", "Fh")]) == 3)
        gap = max((max(h.h for h in nd.heights) - nd.h_min)
                  for nd in nodes if nd.heights)
        sizes[lam] = (n3, gap)
    assert sizes[-0.4][0] >= sizes[-0.2][0] >= sizes[-0.1][0]
    assert sizes[-0.4][1] > sizes[-0.2][1] > sizes[-0.1][1]


def test_minimum_crossing_loci_at_intermediate_detuning():
    # for 1/2 < lam < 1 the second minimal-energy sheet crosses the first
    # along a crease starting at (0, ell*, 0); the gap vanishes there
    rp = ReducedParams(lam=0.52, kappa=1.0)
    pts = minimum_crossing_loci(rp, [0.0, 0.1, 0.2])
    assert len(pts) == 3
    for mu_l, ell_l, h_l in pts:
        assert mu_l > 0.0
        eqs = equilibria(CasimirValues(mu_l, ell_l), rp)
        hs = sorted(e.h for e in eqs)
        assert hs[1] - hs[0] < 1e-8
        assert h_l == pytest.approx(hs[0], abs=1e-10)
    # no such crossings away from the tetrahedron regime
    assert minimum_crossing_loci(ReducedParams(lam=1.5, kappa=1.0), [0.1]) == []


def test_h_min_equals_tip_energy_on_stable_strata():
    # beyond the supercritical end the normal modes sit on the minimal
    # energy surface: h_min = h_c exactly
    rp = ReducedParams(lam=0.0, kappa=1.0)
    for mu, ell in ((2.5, 2.5), (-3.0, 3.0)):
        h_c = 0.5 * ell * ell
        assert h_min(CasimirValues(mu, ell), rp) == pytest.approx(h_c, abs=1e-10)
    # while on the threads it sits strictly below
    assert h_min(CasimirValues(1.0, 1.0), rp) < 0.5 - 1e-6
