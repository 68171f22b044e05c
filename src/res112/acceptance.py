"""Acceptance suite: one callable per criterion, shared by the test suite
and the ``selfcheck`` CLI command.

Every check pins its tolerances here and measures its own runtime against
the stated budget; a check fails (rather than erroring) on any violation,
with a human-readable detail string.

The criteria keep their numbers AC1-AC4 and AC7-AC11.  AC5 (the algebraic
identities of the invariant map) and AC6 (conservation along the reduced
and the unreduced flow) checked the reduction, not a product result; they
are tests over ``tests/unreduced.py`` at the same bounds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .bifurcations import (BifurcationKind, LambdaStratum, catalog_point,
                           classify_multiple_root, f_quartic, families_at,
                           family_domain, instability_interval,
                           residual_scale, solve_bifurcations_numeric)
from .critical_values import classify_fiber
from .errors import LoopError, Res112Error, ValidationError
from .model import CasimirValues, ModelParams, kappa_scaling
from .monodromy import generator_loop, monodromy_vector
from .reduced_dynamics import ReducedParams, Stability, equilibria


@dataclass(frozen=True)
class AcceptanceResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def _result(name, t0, ok, detail, budget):
    elapsed = time.perf_counter() - t0
    if elapsed > budget:
        ok = False
        detail += f"; OVER BUDGET {elapsed:.1f}s > {budget}s"
    return AcceptanceResult(name=name, passed=ok, detail=detail, elapsed=elapsed)


# -- 1 -----------------------------------------------------------------------

def _catalog_samples():
    """Deterministic parameter samples for all 13 kappa=1 families, 200 each."""
    n = 200
    eps = 0.02
    samples = {}
    lam_cs12 = np.concatenate([np.linspace(-2.0, 0.45, n // 2),
                               np.linspace(0.52, 0.97, n - n // 2)])
    for fam in ("CS1", "CS2"):
        pts = []
        for i, lam in enumerate(lam_cs12):
            lam = float(lam)
            hi = family_domain(fam, lam, 1.0)[1]
            a = (0.05 + 0.9 * ((i * 7) % n) / n) * hi
            pts.append(dict(lam=lam, a=a))
        samples[fam] = pts
    pts = []
    for i, lam in enumerate(np.linspace(-2.0, 0.45, n)):
        lam = float(lam)
        lo, hi = family_domain("CS3", lam, 1.0)
        a = lo + (eps + (1 - 2 * eps) * ((i * 11) % n) / n) * (hi - lo)
        pts.append(dict(lam=lam, a=a, sign=1 if i % 2 else -1))
    samples["CS3"] = pts
    pts = []
    for i, lam in enumerate(np.linspace(0.52, 0.97, n)):
        lam = float(lam)
        lo, hi = family_domain("CS4", lam, 1.0)
        a = lo + (eps + (1 - 2 * eps) * ((i * 13) % n) / n) * (hi - lo)
        pts.append(dict(lam=lam, a=a, sign=1 if i % 2 else -1))
    samples["CS4"] = pts
    for fam in ("Cusp1", "Cusp2"):
        samples[fam] = [dict(lam=float(l)) for l in np.linspace(0.51, 0.99, n)]
    samples["Cusp3"] = [dict(mu=float(m)) for m in np.linspace(-0.49, 0.49, n)]
    for fam in ("HHsub1", "HHsub2", "HHsup1", "HHsup2"):
        samples[fam] = [dict(lam=float(l)) for l in np.linspace(-3.0, 0.49, n)]
    samples["HHsub3"] = [dict(lam=float(l)) for l in np.linspace(-3.0, 0.99, n)]
    samples["HHsup3"] = [dict(lam=float(l)) for l in np.linspace(1.01, 4.0, n)]
    for fam in ("HHdeg1", "HHdeg2", "HHdeg3"):
        samples[fam] = [dict() for _ in range(n)]
    return samples


def check_catalog_verification() -> AcceptanceResult:
    """AC1: closed-form catalog points are verified triple roots with the
    family's classification, 200 samples per family, residuals <= 1e-9
    scaled, runtime < 5 s."""
    t0 = time.perf_counter()
    bad = []
    total = 0
    for fam, pts in _catalog_samples().items():
        for kw in pts:
            total += 1
            pt = catalog_point(fam, **kw)
            cas = CasimirValues(pt.mu, pt.ell)
            q = f_quartic(pt.h, ReducedParams(lam=pt.lam, kappa=1.0), cas)
            scale = residual_scale(pt.a, pt.h, cas, 1.0)
            res = max(abs(q.value(pt.a)), abs(q.d1(pt.a)), abs(q.d2(pt.a)))
            if res > 1e-9 * scale:
                bad.append((fam, kw, "residual", res / scale))
                continue
            kind = classify_multiple_root(pt.a, q, cas)
            if kind is not pt.kind:
                bad.append((fam, kw, "kind", kind.value))
    ok = not bad
    detail = f"{total} catalog points verified" if ok else f"failures: {bad[:3]}"
    return _result("1 closed-form catalog verification", t0, ok, detail, 5.0)


# -- 2 -----------------------------------------------------------------------

def _event_catalog_distance(ev):
    """Distance of a numeric event from its tagged catalog stratum,
    evaluated at the event by the solver's own tagging rule."""
    if ev.family is None:
        return math.inf
    return LambdaStratum(ev.lam, ev.kappa).distance(ev, ev.family)


def check_oracle_equivalence() -> AcceptanceResult:
    """AC2: the numeric solver recovers every catalog stratum at the six
    sampled lam values within 1e-6 in (mu, ell) with no unmatched events;
    kappa=2 events map onto the kappa=1 catalog within 1e-8."""
    t0 = time.perf_counter()
    problems = []
    for lam in (-1.0, 0.3, 0.48, 0.52, 0.75, 1.5):
        evs = solve_bifurcations_numeric(lam, 1.0, n_grid=801)
        found = {e.family for e in evs if e.family}
        exp = set(families_at(lam))
        if found != exp:
            problems.append(f"lam={lam}: families {found} != {exp}")
        n_un = sum(1 for e in evs if e.family is None)
        if n_un:
            problems.append(f"lam={lam}: {n_un} unmatched events")
        worst = max((_event_catalog_distance(e) for e in evs), default=0.0)
        if worst > 1e-6:
            problems.append(f"lam={lam}: worst catalog distance {worst:.2e}")
    # kappa = 2 cross-check through the normalising scaling
    for lam2, lam1 in ((0.15, 0.3), (0.75, 1.5)):
        evs = solve_bifurcations_numeric(lam2, 2.0, n_grid=801)
        worst = 0.0
        for e in evs:
            s = kappa_scaling(2.0, lam=e.lam, mu=e.mu, ell=e.ell, R=e.a,
                              h=e.h, inverse=True)
            if abs(s.lam - lam1) > 1e-12:
                problems.append(f"kappa=2: scaled lam {s.lam} != {lam1}")
                continue
            if e.family is None:
                problems.append(f"kappa=2 lam={lam2}: unmatched event")
                continue
            worst = max(worst, _event_catalog_distance(replace(
                e, kappa=1.0, lam=s.lam, mu=s.mu, ell=s.ell, a=s.R, h=s.h)))
        if worst > 1e-8:
            problems.append(f"kappa=2 lam={lam2}: scaled distance {worst:.2e}")
    ok = not problems
    detail = "six lam sweeps + kappa=2 covariance agree" if ok else "; ".join(problems[:4])
    return _result("2 oracle equivalence", t0, ok, detail, 60.0)


# -- 3 -----------------------------------------------------------------------

def check_degenerate_hopf() -> AcceptanceResult:
    """AC3: exactly three quadruple-root events at (1/2, +-1/2, 1/2) and
    (1, 0, -1), with F'''' = 6 and a = 1/kappa^2 - lam/kappa, error <= 1e-10."""
    t0 = time.perf_counter()
    degs = {}
    for lam in (-1.0, 0.3, 0.48, 0.5, 0.52, 0.75, 1.0, 1.5):
        for e in solve_bifurcations_numeric(lam, 1.0, n_grid=401):
            if e.kind is BifurcationKind.HOPF_DEGENERATE:
                key = (round(e.lam, 6), round(e.mu, 6), round(e.ell, 6))
                degs[key] = e
    expected = {(0.5, 0.5, 0.5), (0.5, -0.5, 0.5), (1.0, 0.0, -1.0)}
    problems = []
    if set(degs) != expected:
        problems.append(f"degenerate set {sorted(degs)} != {sorted(expected)}")
    for e in degs.values():
        err = max(abs(e.a - (1.0 - e.lam)), abs(e.b - e.a))
        q = f_quartic(e.h, ReducedParams(lam=e.lam, kappa=1.0),
                      CasimirValues(e.mu, e.ell))
        if abs(q.d4 - 6.0) > 1e-10 or err > 1e-10:
            problems.append(f"{e}: a/b error {err:.2e}, F4 {q.d4}")
    ok = not problems
    detail = ("three degenerate Hopf points at their closed-form locations"
              if ok else "; ".join(problems))
    return _result("3 degenerate Hopf points", t0, ok, detail, 30.0)


# -- 4 -----------------------------------------------------------------------

def check_equilibrium_structure() -> AcceptanceResult:
    """AC4: over 10,000 random (mu, ell, lam) draws at kappa=1, the regular
    equilibrium count is 1 or 3 with centres = saddles + 1; zero violations
    outside the 1e-6 multiple-root band; runtime < 10 s."""
    t0 = time.perf_counter()
    n = 10_000
    rng = np.random.default_rng(112358)
    violations = 0
    skipped = 0
    checked = 0
    for _ in range(n):
        mu = float(rng.normal(0.0, 1.5))
        ell = float(rng.normal(0.0, 1.5))
        lam = float(rng.normal(0.0, 1.0))
        cas = CasimirValues(mu, ell)
        eqs = equilibria(cas, ReducedParams(lam=lam, kappa=1.0))
        regs = [e for e in eqs if e.stability is not Stability.SINGULAR_TIP]
        rs = sorted(e.R for e in regs)
        if any(b - a < 1e-6 for a, b in zip(rs, rs[1:])) or any(
                e.stability is Stability.DEGENERATE for e in regs):
            skipped += 1  # inside the multiple-root tolerance band
            continue
        checked += 1
        ne = sum(1 for e in regs if e.stability is Stability.ELLIPTIC)
        nh = sum(1 for e in regs if e.stability is Stability.HYPERBOLIC)
        if len(regs) not in (1, 3) or ne != nh + 1:
            violations += 1
    ok = violations == 0 and checked > 0.9 * n
    detail = f"{checked} draws checked, {skipped} skipped near multiple roots, {violations} violations"
    return _result("4 equilibrium structure", t0, ok, detail, 10.0)


# -- 7 -----------------------------------------------------------------------

def check_instability_intervals() -> AcceptanceResult:
    """AC7: instability-interval endpoints match the closed forms to 1e-12
    with the stated endpoint classifications at the four sampled strata."""
    t0 = time.perf_counter()
    cases = [
        ((0.0, -4.0), (-2.0, 2.0), BifurcationKind.HOPF_SUB, BifurcationKind.HOPF_SUPER),
        ((0.0, -0.25), (-0.5, 0.5), BifurcationKind.HOPF_SUB, BifurcationKind.HOPF_SUB),
        ((0.25, 0.25), (-math.sqrt(0.5) - 0.25, math.sqrt(0.5) - 0.25),
         BifurcationKind.HOPF_SUB, BifurcationKind.HOPF_SUB),
        ((2.0, 2.0), (-4.0, 0.0), BifurcationKind.HOPF_SUB, BifurcationKind.HOPF_SUPER),
    ]
    problems = []
    for (mu, ell), (lo, hi), klo, khi in cases:
        iv = instability_interval(CasimirValues(mu, ell), kappa=1.0)
        if abs(iv.lam_lo - lo) > 1e-12 or abs(iv.lam_hi - hi) > 1e-12:
            problems.append(f"({mu},{ell}): endpoints ({iv.lam_lo},{iv.lam_hi})")
        if iv.kind_lo is not klo or iv.kind_hi is not khi:
            problems.append(f"({mu},{ell}): kinds {iv.kind_lo.value},{iv.kind_hi.value}")
    ok = not problems
    detail = "four strata intervals exact with correct endpoint kinds" if ok \
        else "; ".join(problems)
    return _result("7 instability intervals", t0, ok, detail, 10.0)


# -- 8 -----------------------------------------------------------------------

def fiber_probe_set():
    """Hand-placed probes: (mu, ell, h, lam, expected multiset).

    Expectations derive from the root structure of F worked out by hand:
    see the test suite for the independent derivations.
    """
    probes = []

    def add(mu, ell, h, lam, **kinds):
        probes.append(((mu, ell, h, lam), kinds))

    # lam = 0: cusp-pinched fiber at the origin, three pinched threads
    add(0.0, 0.0, 0.0, 0.0, CuspPinchedT3=1)
    add(0.0, -1.0, 0.0, 0.0, PinchedTorusTimesT1=1)
    add(0.0, -2.5, 0.0, 0.0, PinchedTorusTimesT1=1)
    add(1.0, 1.0, 0.5, 0.0, PinchedTorusTimesT1=1)
    add(-1.0, 1.0, 0.5, 0.0, PinchedTorusTimesT1=1)
    add(1.5, 1.5, 1.125, 0.0, PinchedTorusTimesT1=1)
    add(0.3, 0.4, 2.0, 0.0, Torus3=1)
    add(0.0, 0.0, 1.0, 0.0, Torus3=1)
    add(0.0, 0.0, -1.0, 0.0)          # below minimum: empty
    add(0.3, 0.4, -10.0, 0.0)
    add(2.5, 2.5, 3.125, 0.0, Circle=1)   # stable cone tip on B
    add(-2.5, 2.5, 3.125, 0.0, Circle=1)
    # lam = -1 (delta = -1): island structure at (0.1, 0), heights from the
    # tangency polynomial (B < Fh < Fe)
    lam = -1.0
    eqs = equilibria(CasimirValues(0.1, 0.0), ReducedParams(lam=lam, kappa=1.0))
    hB, hFh, hFe = sorted(e.h for e in eqs)
    add(0.1, 0.0, hB, lam, Torus2=1)
    add(0.1, 0.0, 0.5 * (hB + hFh), lam, Torus3=1)
    add(0.1, 0.0, hFh, lam, FigureEightTimesT2=1)
    add(0.1, 0.0, 0.5 * (hFh + hFe), lam, Torus3=2)
    add(0.1, 0.0, hFe, lam, Torus2=1, Torus3=1)
    add(0.1, 0.0, hFe + 0.5, lam, Torus3=1)
    # mu = 0 line inside the island: stable tip is the upper crease
    eqs0 = equilibria(CasimirValues(0.0, -0.5), ReducedParams(lam=lam, kappa=1.0))
    hyp = [e for e in eqs0 if e.stability is Stability.HYPERBOLIC][0]
    add(0.0, -0.5, -0.01, lam, Torus3=2)
    add(0.0, -0.5, hyp.h, lam, FigureEightTimesT2=1)
    add(0.0, -0.5, 0.0, lam, Circle=1, Torus3=1)   # stable normal mode + torus
    add(0.0, -0.5, 0.5, lam, Torus3=1)
    add(0.0, -0.5, -1.0, lam, Torus3=1)
    add(0.0, -2.0, 0.0, lam, PinchedTorusTimesT1=1)  # thread: ell < -lam^2
    # lam = 0.3 island regime: same qualitative island at (0.05, 0.02)
    eqs3 = equilibria(CasimirValues(0.05, 0.02), ReducedParams(lam=0.3, kappa=1.0))
    if len([e for e in eqs3 if e.stability is not Stability.SINGULAR_TIP]) == 3:
        h1, h2, h3 = sorted(e.h for e in eqs3)
        add(0.05, 0.02, 0.5 * (h2 + h3), 0.3, Torus3=2)
    # lam = 1.5: single thread starting exactly at ell = -lam^2 = -2.25
    lam = 1.5
    add(0.0, -3.0, 0.0, lam, PinchedTorusTimesT1=1)
    add(0.0, -2.25 - 1e-6, 0.0, lam, PinchedTorusTimesT1=1)
    add(0.0, -2.25 + 1e-6, 0.0, lam, Circle=1)
    add(0.0, -1.0, 0.0, lam, Circle=1)
    add(1.0, 1.0, 1.5 + 0.5, lam, Circle=1)   # stable cone tip (h_c = lam + 1/2)
    add(0.0, -3.0, 2.0, lam, Torus3=1)
    return probes


def check_fiber_classification() -> AcceptanceResult:
    """AC8: >= 30 hand-placed fiber probes, zero misclassifications,
    runtime < 5 s."""
    t0 = time.perf_counter()
    problems = []
    probes = fiber_probe_set()
    for (mu, ell, h, lam), kinds in probes:
        rep = classify_fiber(CasimirValues(mu, ell),
                             ReducedParams(lam=lam, kappa=1.0), h)
        if rep.multiset() != kinds:
            problems.append(f"({mu},{ell},{h},{lam}): {rep.multiset()} != {kinds}")
    ok = not problems and len(probes) >= 30
    detail = (f"{len(probes)} probes classified correctly"
              if ok else "; ".join(problems[:4]))
    return _result("8 fiber classification", t0, ok, detail, 5.0)


# -- 9 -----------------------------------------------------------------------

def check_monodromy_generators() -> AcceptanceResult:
    """AC9: generator loops reproduce (1,-1), (0,1), (-1,0) with winding
    within 0.02 of integers; the three vectors sum to zero; island regimes
    agree; at delta = 1.5 only (-1, 0) exists.  < 120 s per regime."""
    t0 = time.perf_counter()
    problems = []
    expected = {"gamma1": (1, -1), "gamma2": (0, 1), "gamma3": (-1, 0)}
    for delta in (0.0, -1.0, 0.3):
        t_reg = time.perf_counter()
        total = np.zeros(2)
        for name, exp in expected.items():
            params = ModelParams(delta=delta, kappa=1.0)
            loop = generator_loop(name, params, n_points=32)
            res = monodromy_vector(loop, params)
            got = (res.vector.m_N, res.vector.m_J)
            total += np.array(got)
            if got != exp:
                problems.append(f"delta={delta} {name}: {got} != {exp}")
            err = max(abs(res.winding[0] - got[0]), abs(res.winding[1] - got[1]))
            if err > 0.02:
                problems.append(f"delta={delta} {name}: winding error {err:.3f}")
        if tuple(total) != (0.0, 0.0):
            problems.append(f"delta={delta}: generator sum {tuple(total)} != 0")
        if time.perf_counter() - t_reg > 120.0:
            problems.append(f"delta={delta}: regime over 120 s")
    # large detuning: only the single thread generator survives
    params = ModelParams(delta=1.5, kappa=1.0)
    loop = generator_loop("gamma3", params, n_points=32, plane=1.5)
    res = monodromy_vector(loop, params)
    if (res.vector.m_N, res.vector.m_J) != (-1, 0):
        problems.append(f"delta=1.5 gamma3: {res.vector}")
    for name in ("gamma1", "gamma2"):
        try:
            generator_loop(name, params, n_points=16)
            problems.append(f"delta=1.5 {name}: loop placed around a missing thread")
        except (LoopError, Res112Error, ValidationError):
            pass
    ok = not problems
    detail = ("generators (1,-1),(0,1),(-1,0) in all regimes; only (-1,0) at "
              "delta=1.5" if ok else "; ".join(problems[:4]))
    return _result("9 monodromy generators", t0, ok, detail, 480.0)


# -- 10 ----------------------------------------------------------------------

def check_kappa0_catalog() -> AcceptanceResult:
    """AC10: kappa = 0 catalog points are verified triple roots (13 per
    family at each of eight lam) and numeric sweeps detect no cusp or
    supercritical events."""
    t0 = time.perf_counter()
    problems = []
    total = 0
    for lam in np.linspace(-1.6, 1.6, 9):
        lam = float(lam)
        if lam == 0.0:
            continue
        for fam in ("CS1_k0", "CS2_k0", "CS3_k0"):
            lo, hi = family_domain(fam, lam, 0.0)
            for a in np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), 13):
                pt = catalog_point(fam, lam=lam, a=float(a),
                                   sign=1 if total % 2 else -1, kappa=0.0)
                total += 1
                cas = CasimirValues(pt.mu, pt.ell)
                q = f_quartic(pt.h, ReducedParams(lam=lam, kappa=0.0), cas)
                scale = residual_scale(pt.a, pt.h, cas, 0.0)
                res = max(abs(q.value(pt.a)), abs(q.d1(pt.a)), abs(q.d2(pt.a)))
                if res > 1e-9 * scale:
                    problems.append(f"{fam} lam={lam} a={a}: residual {res/scale:.1e}")
                elif classify_multiple_root(pt.a, q, cas) is not pt.kind:
                    problems.append(f"{fam} lam={lam} a={a}: misclassified")
        for fam in ("HHsub1_k0", "HHsub2_k0", "HHsub3_k0"):
            pt = catalog_point(fam, lam=lam, kappa=0.0)
            total += 1
            cas = CasimirValues(pt.mu, pt.ell)
            q = f_quartic(pt.h, ReducedParams(lam=lam, kappa=0.0), cas)
            if classify_multiple_root(pt.a, q, cas) is not BifurcationKind.HOPF_SUB:
                problems.append(f"{fam} lam={lam}: not subcritical")
    for lam in (-1.0, 0.6, 1.3):
        evs = solve_bifurcations_numeric(lam, 0.0, n_grid=601)
        bad = [e for e in evs if e.kind in (BifurcationKind.CUSP,
                                            BifurcationKind.HOPF_SUPER,
                                            BifurcationKind.HOPF_DEGENERATE)]
        if bad:
            problems.append(f"kappa=0 lam={lam}: forbidden kinds {set(e.kind for e in bad)}")
        if any(e.family is None for e in evs):
            problems.append(f"kappa=0 lam={lam}: unmatched events")
    ok = not problems
    detail = (f"{total} kappa=0 catalog points verified; sweeps clean"
              if ok else "; ".join(problems[:4]))
    return _result("10 kappa=0 catalog", t0, ok, detail, 60.0)


# -- 11 ----------------------------------------------------------------------

def check_cli_determinism() -> AcceptanceResult:
    """AC11: repeated identical bifdiag/critvals invocations produce byte-
    identical files; the six-slice run finishes within 60 s."""
    import hashlib
    import tempfile
    from pathlib import Path

    from click.testing import CliRunner

    from .cli import cli as cli_group

    t0 = time.perf_counter()
    problems = []
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as td:
        td = Path(td)
        digests = []
        t_run = time.perf_counter()
        for tag in ("a", "b"):
            out = td / f"bif_{tag}"
            res = runner.invoke(cli_group, [
                "bifdiag", "--kappa", "1",
                "--ell", "-1.25,-0.125,0,0.125,0.3125,0.75",
                "--out", str(out)], catch_exceptions=False)
            if res.exit_code != 0:
                problems.append(f"bifdiag exit {res.exit_code}: {res.output}")
                break
            digests.append(tuple(
                hashlib.sha256((td / f"bif_{tag}_{kind}.csv").read_bytes()).hexdigest()
                for kind in ("slices", "surface")))
        run_time = 0.5 * (time.perf_counter() - t_run)
        if len(digests) == 2 and digests[0] != digests[1]:
            problems.append("bifdiag outputs differ between identical runs")
        if run_time > 60.0:
            problems.append(f"six-slice bifdiag run took {run_time:.0f}s")

        digests = []
        for tag in ("a", "b"):
            out = td / f"cv_{tag}"
            res = runner.invoke(cli_group, [
                "critvals", "--delta", "-1", "--grid", "15",
                "--out", str(out)], catch_exceptions=False)
            if res.exit_code != 0:
                problems.append(f"critvals exit {res.exit_code}: {res.output}")
                break
            digests.append(tuple(
                hashlib.sha256((td / f"cv_{tag}_{kind}.csv").read_bytes()).hexdigest()
                for kind in ("surface", "faces", "threads")))
        if len(digests) == 2 and digests[0] != digests[1]:
            problems.append("critvals outputs differ between identical runs")
    ok = not problems
    detail = (f"byte-identical reruns; six-slice run {run_time:.1f}s"
              if ok else "; ".join(problems[:3]))
    return _result("11 CLI determinism", t0, ok, detail, 200.0)


ALL_CHECKS = [
    check_catalog_verification,
    check_oracle_equivalence,
    check_degenerate_hopf,
    check_equilibrium_structure,
    check_instability_intervals,
    check_fiber_classification,
    check_monodromy_generators,
    check_kappa0_catalog,
    check_cli_determinism,
]

# the criterion that takes seconds: AC11 (CLI runs)
SLOW_CHECKS = {"check_cli_determinism"}


def run_all(skip_slow: bool) -> list[AcceptanceResult]:
    out = []
    for fn in ALL_CHECKS:
        if skip_slow and fn.__name__ in SLOW_CHECKS:
            continue
        out.append(fn())
    return out
