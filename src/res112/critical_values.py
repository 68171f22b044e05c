"""Fibers of the energy-momentum map and the set of critical values.

On a fixed reduced space the fiber over energy h is the sublevel set
{F <= 0} of the quartic F(R) = (h - lam R - (kappa/2) R^2)^2 - section(R):
the reduced orbit has Y^2 = -F(R).  The root structure of F on
[r_min, inf) therefore determines the fiber up to the reconstruction of
the torus action, which only needs to know whether the singular tip is
involved and what kind it is.  This module classifies fibers, describes
the three normal-mode curves with their isolated (thread) and
above-minimum parts (``thread_segments``, once per detuning), and samples
critical-value slices node by node (``critical_slice``: minimal-energy
surface, tip heights tagged thread or tip-stable, tetrahedron faces).

Reconstruction rules (reduced component -> fiber component):
  open F<0 interval, tip not involved ................ Torus3
  open F<0 interval through a conical tip ............ PinchedTorusTimesT1
  open F<0 interval through the cuspidal tip ......... CuspPinchedT3
  open F<0 interval closing at a smooth tip .......... Torus3
  two intervals joined by an interior double root .... FigureEightTimesT2
  isolated tangency at a regular point ............... Torus2
  isolated root at a conical tip ..................... Circle (normal mode)
  isolated root at the cuspidal tip .................. Point (equilibrium)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (NumericalError, UnsupportedRegimeError, ValidationError,
                     attempt, batched)
from .model import CasimirValues
from .polyroots import real_roots, real_roots_many
from .bifurcations import (Quartic, a_sub_boundary, a_sup_boundary,
                           catalog_point, f_quartic, families_at,
                           instability_interval)
from .reduced_dynamics import (Equilibrium, ReducedParams, Stability,
                               equilibria, tip_energy)
from .reduced_space import TipKind, tip_class

# Relative tolerance deciding whether the level set passes through the tip,
# and the root-clustering scale for multiplicity detection.
TIP_HIT_RTOL = 1e-9
CLUSTER_RTOL = 2e-7
# Imaginary-part tolerance, relative to the root scale, for a real root of F.
FIBER_IMAG_RTOL = 1e-7


class FiberKind(Enum):
    POINT = "Point"
    CIRCLE = "Circle"
    TORUS2 = "Torus2"
    TORUS3 = "Torus3"
    PINCHED_TORUS_T1 = "PinchedTorusTimesT1"
    FIGURE_EIGHT_T2 = "FigureEightTimesT2"
    CUSP_PINCHED_T3 = "CuspPinchedT3"


@dataclass(frozen=True)
class ComponentDescriptor:
    kind: FiberKind
    r_interval: tuple[float, float]


@dataclass(frozen=True)
class FiberReport:
    components: tuple[ComponentDescriptor, ...]
    is_critical: bool
    flags: tuple[str, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.components

    def multiset(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for c in self.components:
            out[c.kind.value] = out.get(c.kind.value, 0) + 1
        return out


def classify_fiber(cas: CasimirValues, rp: ReducedParams, h: float) -> FiberReport:
    """Classify the fiber of (N, L, H) over (mu, ell, h) for kappa > 0.

    Computes the clustered real roots of F on [r_min, inf), maps maximal
    F<0 intervals and isolated tangencies to fiber components by the
    reconstruction rules, and flags (never guesses through) near-tolerance
    multiplicities.  Raises ValidationError for a non-finite h and for
    inputs so large that a coefficient of F overflows.  This is
    ``classify_fibers`` on one fiber, with the one-matrix root solve.
    """
    q = _fiber_quartic(cas, rp, h)
    real, r_scale = real_roots(q.coeffs[::-1], imag_rtol=FIBER_IMAG_RTOL)
    return _fiber_report(cas, rp, h, q, real, r_scale)


def classify_fibers(cas_seq, rp_seq, hs) -> list:
    """``classify_fiber`` over many fibers, with one stacked root solve.

    Entry i is ``classify_fiber(cas_seq[i], rp_seq[i], hs[i])``, or the
    exception that call raises, so that one bad fiber does not stop the
    others: the checks and the interval walk run on each fiber under
    ``errors.attempt``, and the quartics that pass the checks go to one
    ``real_roots_many`` call through ``errors.batched``.
    """
    fibers = list(zip(cas_seq, rp_seq, hs, strict=True))
    quartics = [attempt(_fiber_quartic, *fiber) for fiber in fibers]
    found = batched(lambda valid: real_roots_many(
        [q.coeffs[::-1] for q in valid], imag_rtol=FIBER_IMAG_RTOL), quartics)
    return [roots if isinstance(roots, Exception)
            else attempt(_fiber_report, *fiber, q, *roots)
            for fiber, q, roots in zip(fibers, quartics, found)]


def _fiber_quartic(cas: CasimirValues, rp: ReducedParams, h: float) -> Quartic:
    """The quartic F of a fiber, after the checks on kappa and h."""
    if rp.kappa <= 0.0:
        raise UnsupportedRegimeError(
            f"classify_fiber requires kappa > 0 (got {rp.kappa}): "
            "fibers need not be compact otherwise")
    if not math.isfinite(h):
        raise ValidationError(f"fiber energy h must be finite (got {h})")
    q = f_quartic(h, rp, cas)
    if not all(map(math.isfinite, q.coeffs)):
        raise ValidationError(
            f"the quartic F of the fiber overflows (coefficients {q.coeffs})")
    return q


def _fiber_report(cas: CasimirValues, rp: ReducedParams, h: float, q: Quartic,
                  real: list[float], r_scale: float) -> FiberReport:
    """The interval walk of ``classify_fiber`` on the real roots of F."""
    tip = tip_class(cas)
    rmin = tip.r_min
    h_tip = tip_energy(rmin, rp)
    through_tip = abs(h - h_tip) <= TIP_HIT_RTOL * max(1.0, abs(h), abs(h_tip))

    flags: list[str] = []
    clusters: list[list[float]] = []  # [center, multiplicity]
    ctol = CLUSTER_RTOL * r_scale
    for r in real:
        if clusters and abs(r - clusters[-1][0]) <= ctol:
            c, m = clusters[-1]
            clusters[-1] = [(c * m + r) / (m + 1), m + 1]
        else:
            clusters.append([float(r), 1])
    # ambiguity flag: two clusters closer than 10x the merge tolerance
    for i in range(len(clusters) - 1):
        gap = clusters[i + 1][0] - clusters[i][0]
        if ctol < gap <= 10.0 * ctol:
            flags.append(f"near-tolerance root gap {gap:.3e} at R~{clusters[i][0]:.6g}")

    if through_tip:
        # the tip root can be shaved off the domain by roundoff; snap it
        for cl in clusters:
            if abs(cl[0] - rmin) <= max(ctol, 1e-12 * (1.0 + abs(rmin))):
                cl[0] = rmin
        if not any(cl[0] == rmin for cl in clusters):
            clusters.append([rmin, 1])
            clusters.sort(key=lambda c: c[0])

    eps_dom = max(ctol, 1e-12 * (1.0 + abs(rmin)))
    pts = [(c, m) for c, m in clusters if c >= rmin - eps_dom]
    pts = [(max(c, rmin), m) for c, m in pts]

    # a tip cluster of multiplicity >= 3 sits on (or within clustering
    # resolution of) a Hopf bifurcation value: never report it confidently
    for c, m in pts:
        if m >= 3 and abs(c - rmin) <= eps_dom:
            flags.append(f"tip root multiplicity {m}: Hopf bifurcation value "
                         "or unresolved thread onset")

    if not pts:
        # F has no roots at or above r_min: sign decides full vs empty
        if q.value(rmin + 1.0 + abs(rmin)) > 0.0:
            return FiberReport(components=(), is_critical=False, flags=tuple(flags))
        raise NumericalError("quartic negative at infinity; impossible for kappa > 0")

    def fval(r):
        return float(q.value(r))

    # sign of F on the gaps between consecutive root clusters
    gap_neg: list[bool] = []
    for i in range(len(pts) - 1):
        mid = 0.5 * (pts[i][0] + pts[i + 1][0])
        gap_neg.append(fval(mid) < 0.0)
    # the unbounded gap after the last root is always positive (c4 > 0)

    components: list[ComponentDescriptor] = []
    is_critical = False

    def tip_interval_kind() -> FiberKind:
        if tip.kind is TipKind.CONE:
            return FiberKind.PINCHED_TORUS_T1
        if tip.kind is TipKind.CUSP:
            return FiberKind.CUSP_PINCHED_T3
        return FiberKind.TORUS3

    # walk chains of F<0 gaps joined by interior roots of even multiplicity
    i = 0
    while i < len(gap_neg):
        if not gap_neg[i]:
            i += 1
            continue
        j = i
        saddles = 0
        while (j + 1 < len(gap_neg) and gap_neg[j + 1]):
            # pts[j+1] joins gap j and gap j+1; for a polynomial the sign
            # pattern (-, -) around a root forces even multiplicity
            if pts[j + 1][1] % 2 == 1:
                flags.append(f"odd-multiplicity root inside F<0 region at "
                             f"R~{pts[j + 1][0]:.6g}")
            saddles += 1
            j += 1
        left, right = pts[i][0], pts[j + 1][0]
        starts_at_tip = abs(left - rmin) <= eps_dom and through_tip
        if saddles == 0:
            if starts_at_tip and tip.is_singular:
                kind = tip_interval_kind()
                is_critical = True
            else:
                kind = FiberKind.TORUS3
            components.append(ComponentDescriptor(
                kind=kind, r_interval=(left, right)))
        else:
            if saddles > 1:
                flags.append(f"{saddles} saddle junctions in one chain")
            if starts_at_tip and tip.is_singular:
                flags.append("saddle chain attached to a singular tip")
            components.append(ComponentDescriptor(
                kind=FiberKind.FIGURE_EIGHT_T2, r_interval=(left, right)))
            is_critical = True
        # interior multiple root multiplicities beyond 2 are bifurcation values
        for k in range(i + 1, j + 1):
            if pts[k][1] > 2:
                flags.append(f"root multiplicity {pts[k][1]} at R~{pts[k][0]:.6g}")
        i = j + 1

    # isolated clusters: tangencies and tip-only hits
    for k, (c, m) in enumerate(pts):
        left_neg = gap_neg[k - 1] if k - 1 >= 0 else False
        right_neg = gap_neg[k] if k < len(gap_neg) else False
        if left_neg or right_neg:
            continue  # belongs to an interval component
        at_tip = abs(c - rmin) <= eps_dom
        if at_tip:
            if tip.kind is TipKind.CONE:
                kind = FiberKind.CIRCLE
            elif tip.kind is TipKind.CUSP:
                kind = FiberKind.POINT
            else:
                kind = FiberKind.TORUS2
                if m == 1:
                    flags.append("isolated simple root at a smooth tip")
        else:
            kind = FiberKind.TORUS2
            if m % 2 == 1:
                flags.append(f"odd-multiplicity isolated root at R~{c:.6g}")
            if m > 2:
                flags.append(f"root multiplicity {m} at R~{c:.6g} (bifurcation value)")
        components.append(ComponentDescriptor(kind=kind, r_interval=(c, c)))
        is_critical = True

    components.sort(key=lambda comp: comp.r_interval[0])
    # multiple roots mean tangencies; a through-tip hit is only critical at
    # singular tips (a smooth tip is a regular point with trivial isotropy)
    if (through_tip and tip.is_singular) or any(m >= 2 for _, m in pts):
        is_critical = True
    return FiberReport(components=tuple(components), is_critical=is_critical,
                       flags=tuple(flags))


# ---------------------------------------------------------------------------
# Normal-mode curves: threads and their above-minimum parts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThreadSegments:
    """One normal-mode curve of critical values at fixed reduced detuning.

    The curve runs over ell of sign ``ell_sign`` with mu = ``mu_of_ell`` *
    ell, so its tip sits at r_min = |mu|.  ``ell_unstable`` is the
    parameter interval where the tip is unstable (the thread: transversally
    isolated critical values); ``ell_positive`` the interval where the tip
    energy exceeds the minimal energy.  Both are open (lo, hi) with -inf
    allowed; None when empty.  ``h_c`` is the energy of the normal mode as
    a function of ell, at the segment's own ``lam`` and ``kappa``.
    """

    name: str                       # "C23", "C13", "C12"
    mu_of_ell: float                # C23: +1, C13: -1, C12: 0
    ell_sign: float                 # C23, C13: +1 (ell > 0); C12: -1 (ell < 0)
    ell_unstable: tuple[float, float] | None
    ell_positive: tuple[float, float] | None
    lam: float
    kappa: float

    def mu(self, ell: float) -> float:
        """mu of the curve point over ell (0, never -0, on C12)."""
        return self.mu_of_ell * ell if self.mu_of_ell else 0.0

    def h_c(self, ell):
        rp = ReducedParams(lam=self.lam, kappa=self.kappa)
        return tip_energy(abs(self.mu_of_ell * ell), rp)

    def samples(self, ell_values) -> list[tuple[str, float, float, float, int, int]]:
        """Rows (curve, mu, ell, h_c, unstable, above_min) at the given ells
        that lie on the curve's side, with 0/1 flags for membership of the
        open spans."""
        out = []
        for ell in ell_values:
            e = float(ell)
            if self.ell_sign * e > 0.0:
                out.append((self.name, self.mu(e), e, self.h_c(e),
                            _inside(self.ell_unstable, e),
                            _inside(self.ell_positive, e)))
        return out


def _inside(span: tuple[float, float] | None, x: float) -> int:
    return int(span is not None and span[0] < x < span[1])


def thread_segments(rp: ReducedParams) -> list[ThreadSegments]:
    """Describe the three normal-mode curves at fixed reduced detuning.

    For each curve: the instability interval in ell and the part where the
    normal-mode energy sits strictly above the minimal energy.  All spans
    are closed forms, valid for every kappa > 0: C23/C13 are unstable
    between the Hopf parabolas ``a_sub_boundary`` and ``a_sup_boundary``,
    C12 below ell = -lam^2, and C12 sits above the minimal energy below
    ell* (0 for kappa lam <= 1/2, (1 - 2 kappa lam)/kappa^2 up to
    kappa lam = 1, -lam^2 beyond).  Raises ValidationError when a finite
    span end overflows (-lam^2 at |lam| > 1e154).
    """
    if rp.kappa <= 0.0:
        raise UnsupportedRegimeError("thread_segments requires kappa > 0")
    lam, k = rp.lam, rp.kappa
    out = []
    for name, sgn, side in (("C23", 1.0, 1.0), ("C13", -1.0, 1.0),
                            ("C12", 0.0, -1.0)):
        if name == "C12":
            unstable = (-math.inf, -lam * lam)
            positive = (-math.inf, _ell_star(lam, k))
            ends = (unstable[1], positive[1])  # below, C12 is unbounded
        elif 1.0 - 2.0 * k * lam > 0.0:
            unstable = (a_sub_boundary(lam, k), a_sup_boundary(lam, k))
            positive = (0.0, unstable[1])
            ends = unstable
        else:
            unstable = positive = None
            ends = ()
        if not all(map(math.isfinite, ends)):
            raise ValidationError(
                f"the {name} spans overflow at lam = {lam}, kappa = {k}: "
                f"unstable {unstable}, above the minimum {positive}")
        out.append(ThreadSegments(name=name, mu_of_ell=sgn, ell_sign=side,
                                  ell_unstable=unstable, ell_positive=positive,
                                  lam=lam, kappa=k))
    return out


def _ell_star(lam: float, kappa: float) -> float:
    """ell* where the normal 3-mode curve C12 (mu = 0, ell < 0, h = 0)
    detaches from the minimal-energy surface: the upper end of its
    above-minimum span.

    0 for kappa lam <= 1/2; the foot (0, ell*, 0) of the L+ crease for
    1/2 < kappa lam < 1; the Hopf point -lam^2 for kappa lam >= 1.
    """
    x = kappa * lam
    if x <= 0.5:
        return 0.0
    if x >= 1.0:
        return -lam * lam
    return _crease_offset(lam, kappa)


def _crease_offset(lam: float, kappa: float) -> float:
    """ell - mu along the L+ crease: (1 - 2 kappa lam) / kappa^2."""
    return (1.0 - 2.0 * kappa * lam) / kappa ** 2


def _crease_energy(mu: float, ell: float, kappa: float) -> float:
    """Energy of the L+ crease point (mu, ell): (kappa/2) mu ell + mu/(2 kappa)."""
    return 0.5 * kappa * mu * ell + mu / (2.0 * kappa)


def crease_span(rp: ReducedParams) -> tuple[float, float] | None:
    """Open ell-span (ell*, ell of Cusp1) of the L+- creases, or None
    where they do not exist (outside 1/2 < kappa lam < 1)."""
    lam, k = rp.lam, rp.kappa
    if k <= 0.0:
        raise UnsupportedRegimeError("the L+- creases require kappa > 0")
    if "Cusp1" not in families_at(lam, k):
        return None
    return _ell_star(lam, k), catalog_point("Cusp1", lam=lam, kappa=k).ell


def minimum_crossing_loci(rp: ReducedParams, ell_values) -> list[tuple[float, float, float]]:
    """Points (mu, ell, h) of the L+ crease over the given ells, where two
    distinct tangencies share the minimal energy (the second sheet of the
    minimal-energy surface crosses the first).

    Along L+ the quartic F is a perfect square, which forces
    mu = ell - ell* and h = (kappa/2) mu ell + mu/(2 kappa).  The crease
    exists for 1/2 < kappa lam < 1 and runs from (0, ell*, 0) to Cusp2;
    ells outside that open span (``crease_span``) are skipped.  The L-
    crease is the mu -> -mu mirror.
    """
    span = crease_span(rp)
    if span is None:
        return []
    ell_lo, ell_hi = span
    out = []
    for ell in ell_values:
        ell = float(ell)
        if ell_lo < ell < ell_hi:
            mu = ell - ell_lo
            out.append((mu, ell, _crease_energy(mu, ell, rp.kappa)))
    return out


# ---------------------------------------------------------------------------
# Critical-value slices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalHeight:
    h: float
    tag: str            # "B", "Fe", "Fh", "tip-stable", "thread"
    fiber: dict | None  # classify_fiber multiset at this height, if validated


@dataclass(frozen=True)
class SliceNode:
    mu: float
    ell: float
    h_min: float | None
    heights: tuple[CriticalHeight, ...]
    error: str | None = None
    flags: tuple[str, ...] = ()


def critical_slice(rp: ReducedParams, mu_values, ell_values,
                   validate: bool) -> tuple[SliceNode, ...]:
    """Sample the set of critical values over a (mu, ell)-grid at fixed lam:
    one ``SliceNode`` per node, in (mu, ell) order.

    Per node: the minimal energy (surface B) plus every other equilibrium
    energy, tagged elliptic (Fe), hyperbolic (Fh), stable tip above B
    (tip-stable) or unstable tip (thread).  With ``validate``, each height
    is cross-validated by the fiber classifier; mismatches are flagged on
    the node, never fatal.  A node that fails, for instance because its
    tangency quintic overflows, keeps the error and no heights.  The spans
    of the normal-mode curves themselves (instability and above-minimum
    intervals) are not per-node data: get them once per lam from
    ``thread_segments``.
    """
    if rp.kappa <= 0.0:
        raise UnsupportedRegimeError("critical_slice requires kappa > 0")
    return tuple(_slice_node(float(mu), float(ell), rp, validate)
                 for mu in mu_values for ell in ell_values)


def _slice_node(mu: float, ell: float, rp: ReducedParams, validate: bool) -> SliceNode:
    cas = CasimirValues(mu=mu, ell=ell)
    try:
        eqs = equilibria(cas, rp)
        if not eqs:
            raise NumericalError("no equilibria found")
        hmin = min(e.h for e in eqs)
        tip_unstable = False
        if tip_class(cas).is_singular:
            iv = instability_interval(cas, kappa=rp.kappa)
            tip_unstable = iv.lam_lo < rp.lam < iv.lam_hi
        heights = []
        flags: list[str] = []
        for e in sorted(eqs, key=lambda e: e.h):
            tag = _height_tag(e, hmin, tip_unstable)
            fiber = None
            if validate:
                try:
                    rep = classify_fiber(cas, rp, e.h)
                    fiber = rep.multiset()
                    flags.extend(_validate_height(tag, rep))
                except Exception as exc:  # noqa: BLE001 - per-node, not fatal
                    flags.append(f"fiber check failed at h={e.h:.6g}: {exc}")
            heights.append(CriticalHeight(h=e.h, tag=tag, fiber=fiber))
        return SliceNode(mu=mu, ell=ell, h_min=hmin, heights=tuple(heights),
                         flags=tuple(flags))
    except Exception as exc:  # noqa: BLE001 - per-node, not fatal
        return SliceNode(mu=mu, ell=ell, h_min=None, heights=(),
                         error=f"{type(exc).__name__}: {exc}")


def _height_tag(e: Equilibrium, hmin: float, tip_unstable: bool) -> str:
    at_min = e.h <= hmin + 1e-12 * max(1.0, abs(hmin))
    if e.stability is Stability.SINGULAR_TIP:
        if tip_unstable:
            return "thread"
        return "B" if at_min else "tip-stable"
    if at_min:
        return "B"
    return "Fh" if e.stability is Stability.HYPERBOLIC else "Fe"


def _validate_height(tag: str, rep: FiberReport) -> list[str]:
    kinds = rep.multiset()
    ok = True
    if tag == "B":
        ok = any(k in kinds for k in ("Torus2", "Circle", "Point",
                                      "PinchedTorusTimesT1", "CuspPinchedT3"))
    elif tag == "Fe":
        ok = "Torus2" in kinds
    elif tag == "Fh":
        ok = "FigureEightTimesT2" in kinds
    return [] if ok else [f"height tagged {tag} but fiber is {kinds}"]
