"""Mathematical check of the CLI outputs, built on public names only.

- ``bifdiag``: every slice and surface row (lambda, mu, ell, a, h) is a
  triple root of F at a, within TRIPLE_TOL * residual_scale, and every slice
  row has ell equal to its ell_slice.
- ``critvals``: no node carries an error; every face height, and every L+-
  row, is a multiple root of F somewhere on [r_min, inf).
- ``monodromy``: each loop's vector is its generator, the windings lie
  within WINDING_TOL of integers, and the three vectors at one delta sum to
  zero.

An item that fails is *bad*.  A file that is missing or cannot be parsed
makes the op *failed*.  Bad face heights where two of {mu, -mu, ell}
coincide are counted apart as known: there the section cubic, hence the
tangency quintic, has a double root, and ``equilibria`` polishes its
scattered companion-matrix images with unguarded Newton steps (ROADMAP
item 2).  This covers the singular strata |mu| = ell, mu = 0 and the
origin, and also the smooth diagonal ell = -|mu|.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from res112.bifurcations import f_quartic, residual_scale
from res112.model import CasimirValues
from res112.reduced_dynamics import ReducedParams
from res112.reduced_space import r_min

TRIPLE_TOL = 1e-9
MULTIPLE_TOL = 1e-9
ELL_TOL = 1e-9
WINDING_TOL = 0.02
GENERATORS = {"gamma1": (1, -1), "gamma2": (0, 1), "gamma3": (-1, 0)}

HEADERS = {
    ("bifdiag", "slices.csv"): ("provenance", "ell_slice", "lambda", "mu", "ell", "a", "h"),
    ("bifdiag", "surface.csv"): ("family", "lambda", "a", "mu", "ell", "h"),
    ("critvals", "surface.csv"): ("mu", "ell", "h_min", "tag", "error"),
    ("critvals", "faces.csv"): ("mu", "ell", "h", "tag", "fiber"),
    ("critvals", "threads.csv"): ("curve", "mu", "ell", "h_c", "unstable", "above_min"),
    ("critvals", "loci.csv"): ("name", "mu", "ell", "h"),
}


class Malformed(Exception):
    """An output file is missing or does not parse."""


@dataclass
class Tally:
    checked: int = 0
    bad: int = 0
    bad_known: int = 0          # bad items of the known equilibria defect
    examples: list = field(default_factory=list)

    def add(self, ok: bool, what: str, known: bool = False) -> None:
        self.checked += 1
        if ok:
            return
        self.bad += 1
        self.bad_known += known
        if len(self.examples) < 5:
            self.examples.append(what)

    def merge(self, other: "Tally") -> None:
        self.checked += other.checked
        self.bad += other.bad
        self.bad_known += other.bad_known
        self.examples.extend(other.examples[:max(0, 5 - len(self.examples))])


def read_rows(path: Path, header: tuple[str, ...]) -> list[list[str]]:
    """Rows of a CLI CSV file; the last column keeps any further commas."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise Malformed(f"cannot read {path.name}: {exc}") from exc
    lines = text.split("\n")
    if lines[0] != ",".join(header) or lines[-1] != "":
        raise Malformed(f"{path.name}: bad header or missing final newline")
    rows = [line.split(",", len(header) - 1) for line in lines[1:-1]]
    if any(len(r) != len(header) for r in rows):
        raise Malformed(f"{path.name}: wrong number of columns")
    return rows


def _floats(row, idx, name):
    try:
        return [float(row[i]) for i in idx]
    except ValueError as exc:
        raise Malformed(f"{name}: non-numeric field in {row}") from exc


def section_has_double_root(mu: float, ell: float) -> bool:
    """Two of the section cubic's roots {mu, -mu, ell} coincide."""
    return mu == 0.0 or abs(abs(mu) - abs(ell)) <= 1e-12 * max(1.0, abs(ell))


def triple_residual(lam, mu, ell, a, h, kappa) -> float:
    cas = CasimirValues(mu=mu, ell=ell)
    q = f_quartic(h, ReducedParams(lam=lam, kappa=kappa), cas)
    res = max(abs(q.value(a)), abs(q.d1(a)), abs(q.d2(a)))
    return float(res / residual_scale(a, h, cas, kappa))


def multiple_residual(lam, mu, ell, h, kappa) -> float:
    """Smallest scaled max(|F|, |F'|) over the candidate multiple roots of F
    on [r_min, inf): the real roots of F' there, and r_min itself."""
    cas = CasimirValues(mu=mu, ell=ell)
    q = f_quartic(h, ReducedParams(lam=lam, kappa=kappa), cas)
    rm = r_min(cas)
    c1 = np.polynomial.polynomial.polyder(q.coeffs)
    crit = np.roots(c1[::-1])
    cands = [float(z.real) for z in crit
             if abs(z.imag) <= 1e-7 * (1.0 + abs(z)) and z.real >= rm]
    best = math.inf
    for R in cands + [rm]:
        res = max(abs(q.value(R)), abs(q.d1(R))) / residual_scale(R, h, cas, kappa)
        best = min(best, float(res))
    return best


def check_bifdiag(prefix: Path, spec: dict) -> Tally:
    tally = Tally()
    kappa = spec["kappa"]
    ells = set(spec["ells"])
    name = "slices.csv"
    for row in read_rows(Path(f"{prefix}_{name}"), HEADERS[("bifdiag", name)]):
        es, lam, mu, ell, a, h = _floats(row, range(1, 7), name)
        if es not in ells:
            raise Malformed(f"{name}: unrequested ell_slice {es}")
        res = triple_residual(lam, mu, ell, a, h, kappa)
        ok = res <= TRIPLE_TOL and abs(ell - es) <= ELL_TOL * max(1.0, abs(es))
        tally.add(ok, f"slice {row[0]} lam={lam} ell={ell} (slice {es}) residual {res:.2e}")
    name = "surface.csv"
    for row in read_rows(Path(f"{prefix}_{name}"), HEADERS[("bifdiag", name)]):
        lam, a, mu, ell, h = _floats(row, range(1, 6), name)
        res = triple_residual(lam, mu, ell, a, h, kappa)
        tally.add(res <= TRIPLE_TOL, f"surface {row[0]} lam={lam} residual {res:.2e}")
    return tally


def check_critvals(prefix: Path, spec: dict, files: tuple[str, ...]) -> Tally:
    tally = Tally()
    d, l1, l2, kappa = spec["delta"], spec["lambda1"], spec["lambda2"], spec["kappa"]
    rows = {f: read_rows(Path(f"{prefix}_{f}"), HEADERS[("critvals", f)]) for f in files}
    if len(rows["surface.csv"]) != spec["grid"] ** 2:
        raise Malformed("surface.csv: node count differs from grid^2")
    for row in rows["surface.csv"]:
        mu, ell = _floats(row, (0, 1), "surface.csv")
        tally.add(row[3] == "B" and row[4] == "", f"node ({mu}, {ell}): {row[4]}")
    for row in rows["faces.csv"]:
        mu, ell, h = _floats(row, (0, 1, 2), "faces.csv")
        res = multiple_residual(d + l1 * mu + l2 * ell, mu, ell, h, kappa)
        tally.add(res <= MULTIPLE_TOL,
                  f"face {row[3]} at (mu, ell, h) = ({mu}, {ell}, {h}) residual {res:.2e}",
                  known=section_has_double_root(mu, ell))
    for row in rows.get("loci.csv", ()):
        mu, ell, h = _floats(row, (1, 2, 3), "loci.csv")
        if row[0] in ("L+", "L-"):
            res = multiple_residual(d, mu, ell, h, kappa)
            tally.add(res <= MULTIPLE_TOL, f"{row[0]} at ({mu}, {ell}) residual {res:.2e}")
    return tally


def parse_monodromy(stdout: str) -> dict:
    try:
        obj = json.loads(stdout)
        return {"loop": obj["loop"], "m": (int(obj["m_N"]), int(obj["m_J"])),
                "winding": tuple(float(w) for w in obj["winding"])}
    except (ValueError, KeyError, TypeError) as exc:
        raise Malformed(f"monodromy output does not parse: {stdout[:80]!r}") from exc


def check_monodromy_loop(result: dict, spec: dict) -> Tally:
    tally = Tally()
    m, w = result["m"], result["winding"]
    ok = (result["loop"] == spec["loop"] and m == GENERATORS[spec["loop"]]
          and all(abs(wi - mi) <= WINDING_TOL for wi, mi in zip(w, m)))
    tally.add(ok, f"{spec['loop']} at delta={spec['delta']}: vector {m}, winding {w}")
    return tally


def check_monodromy_sums(results: list[tuple[dict, dict]]) -> Tally:
    """One item per delta whose three loops all ran: the vectors sum to 0."""
    tally = Tally()
    groups: dict[int, list] = {}
    for spec, res in results:
        groups.setdefault(spec["group"], []).append(res["m"])
    for g, vecs in sorted(groups.items()):
        if len(vecs) == len(GENERATORS):
            total = tuple(map(sum, zip(*vecs)))
            tally.add(total == (0, 0), f"loop vectors of group {g} sum to {total}")
    return tally
