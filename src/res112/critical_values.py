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
  open F<0 interval closing at a smooth tip .......... Torus3 (through_tip)
  two intervals joined by an interior double root .... FigureEightTimesT2
  isolated tangency at a regular point ............... Torus2
  isolated root at a conical tip ..................... Circle (normal mode)
  isolated root at the cuspidal tip .................. Point (equilibrium)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericalError, UnsupportedRegimeError, ValidationError
from .model import CasimirValues
from .polyroots import real_roots
from .bifurcations import (a_sub_boundary, a_sup_boundary, catalog_point,
                           f_quartic, instability_interval)
from .reduced_dynamics import (Equilibrium, ReducedParams, Stability,
                               equilibria)
from .reduced_space import TipKind, tip_class

# Relative tolerance deciding whether the level set passes through the tip,
# and the root-clustering scale for multiplicity detection.
TIP_HIT_RTOL = 1e-9
CLUSTER_RTOL = 2e-7


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
    through_tip: bool = False


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
    multiplicities.
    """
    if rp.kappa <= 0.0:
        raise UnsupportedRegimeError(
            f"classify_fiber requires kappa > 0 (got {rp.kappa}): "
            "fibers need not be compact otherwise")

    tip = tip_class(cas)
    rmin = tip.r_min
    q = f_quartic(h, rp, cas)
    h_tip = rp.lam * rmin + 0.5 * rp.kappa * rmin * rmin
    through_tip = abs(h - h_tip) <= TIP_HIT_RTOL * max(1.0, abs(h), abs(h_tip))

    real, r_scale = real_roots(q.coeffs[::-1], imag_rtol=1e-7)

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
    used = [False] * len(pts)
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
        for k in range(i, j + 2):
            used[k] = True
        starts_at_tip = abs(left - rmin) <= eps_dom and through_tip
        if saddles == 0:
            if starts_at_tip and tip.is_singular:
                kind = tip_interval_kind()
                is_critical = True
            else:
                kind = FiberKind.TORUS3
            components.append(ComponentDescriptor(
                kind=kind, r_interval=(left, right),
                through_tip=starts_at_tip))
        else:
            if saddles > 1:
                flags.append(f"{saddles} saddle junctions in one chain")
            if starts_at_tip and tip.is_singular:
                flags.append("saddle chain attached to a singular tip")
            components.append(ComponentDescriptor(
                kind=FiberKind.FIGURE_EIGHT_T2, r_interval=(left, right),
                through_tip=starts_at_tip))
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
        components.append(ComponentDescriptor(
            kind=kind, r_interval=(c, c), through_tip=at_tip))
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

    ``ell_unstable`` is the parameter interval where the tip is unstable
    (the thread: transversally isolated critical values); ``ell_positive``
    the interval where the tip energy exceeds the minimal energy.  Both are
    (lo, hi) with -inf allowed; None when empty.  ``h_c`` is the energy of
    the normal mode as a function of ell, at the segment's own ``lam`` and
    ``kappa``.
    """

    name: str                       # "C23", "C13", "C12"
    mu_of_ell: float                # mu = sign * ell (C23: +1, C13: -1, C12: 0)
    ell_range: tuple[float, float]  # domain of the curve parameter
    ell_unstable: tuple[float, float] | None
    endpoint_kinds: tuple | None
    ell_positive: tuple[float, float] | None
    lam: float
    kappa: float

    def h_c(self, ell):
        rmin = np.abs(ell) if self.name != "C12" else np.zeros_like(np.asarray(ell, dtype=float))
        out = self.lam * rmin + 0.5 * self.kappa * rmin ** 2
        return out if np.ndim(ell) else float(out)


def thread_segments(rp: ReducedParams, ell_floor: float = -50.0) -> list[ThreadSegments]:
    """Describe the three normal-mode curves at fixed reduced detuning.

    For each curve: the instability interval in ell, the classification of
    its endpoints, and the part where the normal-mode energy sits strictly
    above the minimal energy.  All spans are closed forms, valid for every
    kappa > 0: C23/C13 are unstable between the Hopf parabolas
    ``a_sub_boundary`` and ``a_sup_boundary``, C12 below ell = -lam^2, and
    C12 sits above the minimal energy below ell* (0 for kappa lam <= 1/2,
    (1 - 2 kappa lam)/kappa^2 up to kappa lam = 1, -lam^2 beyond).
    """
    if rp.kappa <= 0.0:
        raise UnsupportedRegimeError("thread_segments requires kappa > 0")
    lam, k = rp.lam, rp.kappa
    out = []
    for name, sgn in (("C23", 1.0), ("C13", -1.0), ("C12", 0.0)):
        if name == "C12":
            ell_range = (ell_floor, 0.0)
            unstable = (ell_floor, -lam * lam) if -lam * lam > ell_floor else None
            pos_hi = _ell_star(lam, k)
            positive = (ell_floor, pos_hi) if pos_hi > ell_floor else None
        else:
            ell_range = (0.0, -ell_floor)
            if 1.0 - 2.0 * k * lam > 0.0:
                unstable = (a_sub_boundary(lam, k), a_sup_boundary(lam, k))
                positive = (0.0, unstable[1])
            else:
                unstable = None
                positive = None
        kinds = None
        if unstable is not None:
            kinds = tuple(
                _tip_endpoint_kind(name, sgn, e, lam, k) for e in unstable
                if math.isfinite(e))
        out.append(ThreadSegments(name=name, mu_of_ell=sgn, ell_range=ell_range,
                                  ell_unstable=unstable, endpoint_kinds=kinds,
                                  ell_positive=positive, lam=lam, kappa=k))
    return out


def _tip_endpoint_kind(name, sgn, ell, lam, kappa):
    if not math.isfinite(ell):
        return None
    mu = sgn * ell
    cas = CasimirValues(mu=mu, ell=ell) if name != "C12" else CasimirValues(mu=0.0, ell=ell)
    try:
        iv = instability_interval(cas, kappa=kappa)
    except ValidationError:
        return None
    # which endpoint of the lam-interval does this ell correspond to?
    return iv.kind_hi if abs(iv.lam_hi - lam) <= abs(iv.lam_lo - lam) else iv.kind_lo


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


def minimum_crossing_loci(rp: ReducedParams, ell_values) -> list[tuple[float, float, float]]:
    """Points (mu, ell, h) of the L+ crease over the given ells, where two
    distinct tangencies share the minimal energy (the second sheet of the
    minimal-energy surface crosses the first).

    Along L+ the quartic F is a perfect square, which forces
    mu = ell - ell* and h = (kappa/2) mu ell + mu/(2 kappa).  The crease
    exists for 1/2 < kappa lam < 1 and runs from (0, ell*, 0) to Cusp2;
    ells outside that open span are skipped.  The L- crease is the
    mu -> -mu mirror.
    """
    lam, k = rp.lam, rp.kappa
    if k <= 0.0:
        raise UnsupportedRegimeError("minimum_crossing_loci requires kappa > 0")
    if not 0.5 / k < lam < 1.0 / k:
        return []
    ell_lo = _ell_star(lam, k)
    ell_hi = catalog_point("Cusp1", lam=lam, kappa=k).ell
    out = []
    for ell in ell_values:
        ell = float(ell)
        if ell_lo < ell < ell_hi:
            mu = ell - ell_lo
            out.append((mu, ell, _crease_energy(mu, ell, k)))
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


@dataclass(frozen=True)
class CriticalSlice:
    lam: float
    kappa: float
    nodes: tuple[SliceNode, ...]


def critical_slice(rp: ReducedParams, mu_values, ell_values,
                   validate: bool = True) -> CriticalSlice:
    """Sample the set of critical values over a (mu, ell)-grid at fixed lam.

    Per node: the minimal energy (surface B) plus every other equilibrium
    energy, tagged elliptic (Fe), hyperbolic (Fh), stable tip above B
    (tip-stable) or unstable tip (thread).  Each height is optionally
    cross-validated by the fiber classifier; mismatches are flagged on the
    node, never fatal.  The spans of the normal-mode curves themselves
    (instability and above-minimum intervals) are not per-node data: get
    them once per lam from ``thread_segments``.
    """
    if rp.kappa <= 0.0:
        raise UnsupportedRegimeError("critical_slice requires kappa > 0")
    nodes = []
    for mu in mu_values:
        for ell in ell_values:
            nodes.append(_slice_node(float(mu), float(ell), rp, validate))
    return CriticalSlice(lam=rp.lam, kappa=rp.kappa, nodes=tuple(nodes))


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
