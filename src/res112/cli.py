"""Command-line front end.

Commands: ``bifdiag`` (bifurcation-set slices and surface samples),
``critvals`` (critical values of the energy-momentum map over a grid),
``fiber`` (classify one fiber), ``monodromy`` (run a generator loop),
``scale`` (kappa-normalisation utility) and ``selfcheck`` (acceptance
suite).  Outputs are deterministic: fixed orderings, 17-significant-digit
floats, LF line endings.  Flags beat environment variables (prefix
``RES112_``) which beat defaults.  Exit codes: 0 success, 1 validation
error, 2 numerical failure, 3 I/O error.
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from .bifurcations import (LambdaStratum, catalog_slice, catalog_surface,
                           hopf_cusp_slice, oracle_slice)
from .critical_values import (classify_fiber, crease_span, critical_slice,
                              minimum_crossing_loci, thread_segments)
from .errors import NumericalError, Res112Error, ValidationError
from .model import CasimirValues, ModelParams, kappa_scaling
from .monodromy import generator_loop, monodromy_vector, to_matrix
from .reduced_dynamics import ReducedParams

FMT = "%.17g"


def _write_rows(path, header, rows, fmt):
    """Write rows as CSV or JSON-lines with deterministic float formatting."""
    try:
        with open(path, "w", newline="\n") as fh:
            if fmt == "csv":
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join([FMT % v if isinstance(v, float)
                                       else "" if v is None else str(v)
                                       for v in row]) + "\n")
            else:
                for row in rows:
                    obj = {k: (FMT % v if isinstance(v, float) else v)
                           for k, v in zip(header, row)}
                    fh.write(json.dumps(obj, sort_keys=True) + "\n")
    except OSError as exc:
        raise IOFailure(f"cannot write {path}: {exc}") from exc


class IOFailure(Exception):
    pass


@click.group()
def cli():
    """Bifurcations and monodromy of the axially symmetric 1:1:-2 resonance."""


def _parse_floats(text: str) -> list[float]:
    try:
        vals = [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"bad float list {text!r}") from exc
    if not all(map(math.isfinite, vals)):
        raise ValidationError(f"non-finite value in {text!r}")
    return vals


def _check_kappa(kappa: float) -> None:
    """A nonzero kappa needs a normal kappa^2: the closed forms divide by it."""
    if kappa != 0.0 and kappa * kappa < sys.float_info.min:
        raise ValidationError(f"kappa = {kappa!r} is too small: kappa^2 "
                              "underflows; see the scale command")


def _parse_window(text: str) -> tuple[float, float]:
    vals = _parse_floats(text)
    if len(vals) != 2:
        raise ValidationError(f"window {text!r} is not two floats lo,hi")
    if not math.isfinite(vals[1] - vals[0]):
        raise ValidationError(f"window {text!r} is wider than a float")
    return vals[0], vals[1]


# ---------------------------------------------------------------------------
# bifdiag
# ---------------------------------------------------------------------------

@cli.command()
@click.option("--kappa", type=float, default=1.0, show_default=True)
@click.option("--ell", required=True, help="comma-separated ell slice values")
@click.option("--lambda-window", "lambda_window", default="-1.5,1.5",
              show_default=True, help="lam_lo,lam_hi")
@click.option("--grid", type=int, default=241, show_default=True,
              help="lambda grid points per slice")
@click.option("--oracle/--no-oracle", default=True, show_default=True,
              help="include numeric-oracle overlay rows")
@click.option("--surface/--no-surface", default=True, show_default=True,
              help="also emit (lambda, a) samples of the full surfaces")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--out", default="bifdiag", show_default=True,
              help="output path prefix")
def bifdiag(kappa, ell, lambda_window, grid, oracle, surface, fmt, out):
    """Per-ell slices of the bifurcation set in the (lambda, mu)-plane."""
    if not 0.0 <= kappa < math.inf:
        raise ValidationError("bifdiag requires a finite kappa >= 0; see the "
                              "scale command")
    _check_kappa(kappa)
    ells = _parse_floats(ell)
    lo, hi = _parse_window(lambda_window)
    if not ells or hi <= lo or grid < 2:
        raise ValidationError("need ell values and a nonempty lambda window")
    lam_grid = np.linspace(lo, hi, grid)

    header = ["provenance", "ell_slice", "lambda", "mu", "ell", "a", "h"]
    rows = []
    for lam in lam_grid:
        st = LambdaStratum(float(lam), kappa)
        planes = catalog_slice(st, ells)
        if oracle:
            planes = [cat + ora for cat, ora in zip(planes, oracle_slice(st, ells))]
        for ell_t, found in zip(ells, planes):
            rows += [(fam, ell_t, *rest) for fam, *rest in found]
    for ell_t in ells:
        found = hopf_cusp_slice(ell_t, kappa, lo, hi)
        rows += [(fam, ell_t, *rest) for fam, *rest in found]
    rows.sort(key=lambda r: (r[1], r[0], r[2], r[3]))
    ext = "csv" if fmt == "csv" else "jsonl"
    _write_rows(f"{out}_slices.{ext}", header, rows, fmt)
    click.echo(f"wrote {len(rows)} slice rows to {out}_slices.{ext}")

    if surface:
        srows = catalog_surface(kappa, lo, hi, max(grid // 4, 33))
        _write_rows(f"{out}_surface.{ext}",
                    ["family", "lambda", "a", "mu", "ell", "h"], srows, fmt)
        click.echo(f"wrote {len(srows)} surface rows to {out}_surface.{ext}")


# ---------------------------------------------------------------------------
# critvals
# ---------------------------------------------------------------------------

@cli.command()
@click.option("--delta", type=float, required=True)
@click.option("--lambda1", type=float, default=0.0, show_default=True)
@click.option("--lambda2", type=float, default=0.0, show_default=True)
@click.option("--kappa", type=float, default=1.0, show_default=True)
@click.option("--mu-window", default="-3,3", show_default=True)
@click.option("--ell-window", default="-3,3", show_default=True)
@click.option("--grid", type=int, default=41, show_default=True)
@click.option("--validate/--no-validate", default=False, show_default=True,
              help="cross-check every height with the fiber classifier")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--out", default="critvals", show_default=True)
def critvals(delta, lambda1, lambda2, kappa, mu_window, ell_window, grid,
             validate, fmt, out):
    """Critical values of the energy-momentum map over a (mu, ell)-grid."""
    if kappa <= 0.0:
        raise ValidationError("critvals requires kappa > 0")
    _check_kappa(kappa)
    if grid < 1:
        raise ValidationError("critvals needs --grid >= 1")
    mu_lo, mu_hi = _parse_window(mu_window)
    ell_lo, ell_hi = _parse_window(ell_window)
    mus = np.linspace(mu_lo, mu_hi, grid)
    ells = np.linspace(ell_lo, ell_hi, grid)
    params = ModelParams(delta=delta, lambda1=lambda1, lambda2=lambda2,
                         kappa=kappa)
    nodes = []
    for m in mus:
        for l in ells:
            # lambda differs from node to node when lambda1 or lambda2 is set
            cas = CasimirValues(mu=float(m), ell=float(l))
            nodes += critical_slice(ReducedParams.from_model(params, cas),
                                    [cas.mu], [cas.ell], validate=validate).nodes
    nodes.sort(key=lambda nd: (nd.mu, nd.ell))

    ext = "csv" if fmt == "csv" else "jsonl"
    surface_rows = [(nd.mu, nd.ell, nd.h_min, "B" if nd.error is None else "error",
                     nd.error or "") for nd in nodes]
    _write_rows(f"{out}_surface.{ext}", ["mu", "ell", "h_min", "tag", "error"],
                surface_rows, fmt)
    face_rows = []
    for nd in nodes:
        for ch in nd.heights:
            face_rows.append((nd.mu, nd.ell, ch.h, ch.tag,
                              json.dumps(ch.fiber, sort_keys=True) if ch.fiber else ""))
    _write_rows(f"{out}_faces.{ext}", ["mu", "ell", "h", "tag", "fiber"],
                face_rows, fmt)

    # threads with their instability and above-minimum spans, and the loci:
    # closed forms in lam alone, so they exist only when lam is the same at
    # every node
    thread_rows = []
    if lambda1 != 0.0 or lambda2 != 0.0:
        click.echo("critvals: no threads or loci file, because lambda varies "
                   "over the grid when lambda1 or lambda2 is nonzero", err=True)
    else:
        rp0 = ReducedParams(lam=delta, kappa=kappa)
        segs = thread_segments(rp0)
        thread_rows = [row for seg in segs for row in seg.samples(ells)]
        _write_rows(f"{out}_threads.{ext}",
                    ["curve", "mu", "ell", "h_c", "unstable", "above_min"],
                    thread_rows, fmt)
        # ell* closes the C12 above-minimum span
        c12 = next(seg for seg in segs if seg.name == "C12")
        loci_rows = [("ell_star", 0.0, c12.ell_positive[1], 0.0)]
        span = crease_span(rp0)
        if span is not None:
            ell_grid = np.linspace(*span, max(grid // 2, 9))
            for mu_l, ell_l, h_l in minimum_crossing_loci(rp0, ell_grid[1:-1]):
                loci_rows += [("L+", mu_l, ell_l, h_l), ("L-", -mu_l, ell_l, h_l)]
        _write_rows(f"{out}_loci.{ext}", ["name", "mu", "ell", "h"],
                    loci_rows, fmt)
    click.echo(f"wrote {len(surface_rows)} surface rows, {len(face_rows)} face rows, "
               f"{len(thread_rows)} thread rows to {out}_*.{ext}")


# ---------------------------------------------------------------------------
# fiber / monodromy / scale / selfcheck
# ---------------------------------------------------------------------------

@cli.command()
@click.option("--delta", type=float, required=True)
@click.option("--lambda1", type=float, default=0.0, show_default=True)
@click.option("--lambda2", type=float, default=0.0, show_default=True)
@click.option("--kappa", type=float, default=1.0, show_default=True)
@click.option("--mu", type=float, required=True)
@click.option("--ell", type=float, default=None, help="value of L")
@click.option("--iota", type=float, default=None, help="value of J (alternative)")
@click.option("--h", type=float, required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
def fiber(delta, lambda1, lambda2, kappa, mu, ell, iota, h, fmt):
    """Classify the fiber of the energy-momentum map over one value."""
    if (ell is None) == (iota is None):
        raise ValidationError("give exactly one of --ell / --iota")
    if ell is None:
        ell = 2.0 * iota - mu
    cas = CasimirValues(mu=mu, ell=ell)
    rp = ReducedParams.from_model(
        ModelParams(delta=delta, lambda1=lambda1, lambda2=lambda2, kappa=kappa), cas)
    rep = classify_fiber(cas, rp, h)
    if fmt == "json":
        click.echo(json.dumps({
            "mu": mu, "ell": ell, "h": h, "lambda": rp.lam,
            "components": rep.multiset(), "is_critical": rep.is_critical,
            "flags": list(rep.flags)}, sort_keys=True))
        return
    if rep.is_empty:
        click.echo("Empty")
    else:
        for kind, count in sorted(rep.multiset().items()):
            click.echo(f"{kind} x{count}")
    if rep.flags:
        click.echo("flags: " + "; ".join(rep.flags))


@cli.command("monodromy")
@click.option("--delta", type=float, required=True)
@click.option("--kappa", type=float, default=1.0, show_default=True)
@click.option("--loop", "loop_name",
              type=click.Choice(["gamma1", "gamma2", "gamma3"]), required=True)
@click.option("--points", type=int, default=32, show_default=True)
@click.option("--radius", type=float, default=None)
@click.option("--plane", type=float, default=None,
              help="|mu| of the loop plane (gamma1/2) or |iota| (gamma3)")
@click.option("--tol", type=float, default=1e-11, show_default=True,
              help="relative tolerance of the period-integral quadrature "
              "on each fiber (absolute: tol/10)")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
def monodromy_cmd(delta, kappa, loop_name, points, radius, plane, tol, fmt):
    """Compute the monodromy vector of a named generator loop."""
    _check_kappa(kappa)
    params = ModelParams(delta=delta, kappa=kappa)
    loop = generator_loop(loop_name, params, n_points=points, radius=radius,
                          plane=plane)
    res = monodromy_vector(loop, params, tol=tol)
    mat = to_matrix(res.vector)
    if fmt == "json":
        click.echo(json.dumps({
            "loop": loop_name, "m_N": res.vector.m_N, "m_J": res.vector.m_J,
            "winding": [FMT % w for w in res.winding],
            "matrix": [list(row) for row in mat.matrix],
            "points": res.n_points}, sort_keys=True))
        return
    click.echo(f"monodromy vector ({res.vector.m_N}, {res.vector.m_J})  "
               f"[winding ({res.winding[0]:+.6f}, {res.winding[1]:+.6f}), "
               f"{res.n_points} fibers]")
    for row in mat.matrix:
        click.echo("  [ " + "  ".join(f"{v:2d}" for v in row) + " ]")


@cli.command()
@click.option("--kappa", type=float, required=True)
@click.option("--lam", type=float, default=None)
@click.option("--mu", type=float, default=None)
@click.option("--ell", type=float, default=None)
@click.option("--r", "r_", type=float, default=None)
@click.option("--x", "x_", type=float, default=None)
@click.option("--y", "y_", type=float, default=None)
@click.option("--h", type=float, default=None)
@click.option("--inverse/--forward", default=False, show_default=True,
              help="inverse normalises kappa-frame data to the kappa=1 frame")
def scale(kappa, lam, mu, ell, r_, x_, y_, h, inverse):
    """Apply the kappa-normalising scaling to the given quantities."""
    s = kappa_scaling(kappa, lam=lam, mu=mu, ell=ell, R=r_, X=x_, Y=y_, h=h,
                      inverse=inverse)
    for name in ("lam", "mu", "ell", "R", "X", "Y", "h"):
        v = getattr(s, name)
        if v is not None:
            click.echo(f"{name} = " + FMT % v)


@cli.command()
@click.option("--skip-slow", is_flag=True, default=False,
              help="skip the slow criterion: CLI determinism (AC11)")
def selfcheck(skip_slow):
    """Run the acceptance suite and print one pass/fail line per criterion."""
    from . import acceptance  # only this command needs it
    results = acceptance.run_all(skip_slow=skip_slow)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        click.echo(f"[{status}] {res.name} ({res.elapsed:.2f}s): {res.detail}")
        failed += not res.passed
    if failed:
        raise NumericalError(f"{failed} acceptance criteria failed")
    click.echo(f"all {len(results)} criteria passed")


def main():
    try:
        cli.main(standalone_mode=False, auto_envvar_prefix="RES112")
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(1)
    except ValidationError as exc:
        click.echo(f"validation error: {exc}", err=True)
        sys.exit(1)
    except OverflowError as exc:
        click.echo(f"validation error: the input overflows a closed form ({exc})",
                   err=True)
        sys.exit(1)
    except IOFailure as exc:
        click.echo(f"io error: {exc}", err=True)
        sys.exit(3)
    except OSError as exc:
        click.echo(f"io error: {exc}", err=True)
        sys.exit(3)
    except Res112Error as exc:
        click.echo(f"numerical error: {exc}", err=True)
        sys.exit(2)
    sys.exit(0)


if __name__ == "__main__":
    main()
