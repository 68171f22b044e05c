"""The polynomial root kernel: bit equality with numpy's polynomial
routines and scipy's brentq, and guards that keep every other module on
the kernel and every module off scipy."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from res112 import (CasimirValues, LambdaStratum, ReducedParams, f_quartic,
                    oracle_slice, polyroots, solve_bifurcations_numeric)
from res112.bifurcations import Quartic

SRC = Path(__file__).resolve().parent.parent / "src" / "res112"
KERNEL = "polyroots.py"
NUMPY_POLY_CALLS = {"roots", "polymul", "polysub", "polyder", "polyval",
                    "trim_zeros"}

_coef = st.floats(-4.0, 4.0, allow_nan=False)
_zero_or_coef = st.one_of(st.just(0.0), _coef)


def _root_bits(solve, *args):
    """dtype and bits of the roots, or the error the solve raised (a
    subnormal leading coefficient overflows the companion matrix)."""
    try:
        with np.errstate(all="ignore"):
            r = solve(*args)
    except np.linalg.LinAlgError as exc:
        return str(exc)
    return r.dtype, [(float(z.real).hex(), float(z.imag).hex()) for z in r]


@given(st.lists(_zero_or_coef, min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_roots_match_np_roots(desc):
    # zeros anywhere: leading ones are stripped, trailing ones are roots
    assert _root_bits(polyroots.roots, desc) == \
        _root_bits(np.roots, np.asarray(desc, dtype=float))


@given(st.tuples(_coef, _coef, _coef, _coef, st.floats(0.0, 3.0)))
@settings(max_examples=300, deadline=None)
def test_quartic_roots_match_np_roots(draw):
    mu, ell, lam, h, kappa = draw
    q = f_quartic(h, ReducedParams(lam=lam, kappa=kappa), CasimirValues(mu, ell))
    desc = np.trim_zeros(np.asarray(q.coeffs[::-1], dtype=float), "f")
    assert _root_bits(q.roots) == _root_bits(np.roots, desc)


def test_quartic_roots_with_zero_leading_coefficients():
    for coeffs in [(1.0, -3.0, 2.0, 0.0, 0.0),     # quadratic
                   (-2.0, 0.5, 1.0, 1.0, 0.0),     # cubic
                   (0.0, 0.0, 1.0, 0.0, 0.0),      # double root at zero
                   (5.0, 0.0, 0.0, 0.0, 0.0),      # constant: no roots
                   (0.0, 0.0, 0.0, 0.0, 0.0)]:
        q = Quartic(coeffs=coeffs, kappa=0.0)
        assert _root_bits(q.roots) == _root_bits(np.roots, coeffs[::-1])


def _real_bits(res):
    """Bits of a (roots, scale) pair, or the message of the error."""
    if isinstance(res, np.linalg.LinAlgError):
        return str(res)
    found, scale = res
    return [x.hex() for x in found], scale.hex()


def _random_rows(rng, n):
    """Quartic and quintic coefficient rows: 30% with a near-double root,
    and some with zero leading or trailing coefficients."""
    rows = []
    for k in range(n):
        deg = 4 + k % 2
        if k % 10 < 3:
            r = rng.normal(size=deg - 1)
            r = np.append(r, r[0] + rng.normal() * 10.0 ** rng.uniform(-12, -5))
            c = (np.poly(r) * rng.uniform(0.1, 3.0)).tolist()
        else:
            c = rng.normal(size=deg + 1).tolist()
        if k % 17 == 0:
            c[0] = 0.0
        if k % 19 == 0:
            c[-1] = 0.0
        if k % 23 == 0:
            c[:2] = [0.0, 0.0]
        if k % 29 == 0:
            c[-2:] = [0.0, 0.0]
        rows.append(c)
    # all-zero, constant and pure-power rows, twice each so they stack
    rows += 2 * [[0.0] * 5, [3.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 2.0, 0.0, 0.0]]
    return rows


def _array_bits(found):
    """dtype, shape and bits of a root array, or the message of the error."""
    if isinstance(found, np.linalg.LinAlgError):
        return str(found)
    return found.dtype, found.shape, found.tobytes()


def test_stacked_roots_match_roots():
    # mixed lengths and spans, leading and trailing zeros, all-zero,
    # constant and pure-power rows, and a row whose solve raises
    rows = _random_rows(np.random.default_rng(20261021), 3000)
    rows += [[1.0, math.inf, 0.5, 1.0, -0.3], [2.0, math.nan, 0.5, 1.0, -0.3],
             [0.0] * 3, [1.0, 2.0], [1.0, 2.0]]

    def one(row):
        try:
            return polyroots.roots(row)
        except np.linalg.LinAlgError as exc:
            return exc

    many = polyroots.roots_many(rows)
    assert isinstance(many[-5], np.linalg.LinAlgError)
    assert [_array_bits(r) for r in many] == [_array_bits(one(row)) for row in rows]
    # an all-real row in a group with complex roots keeps its own real dtype
    real, cplx = [1.0, -3.0, 2.0], [1.0, 0.0, 1.0]
    assert [r.dtype for r in polyroots.roots_many([real, cplx])] == \
        [np.dtype(float), np.dtype(complex)]


def test_stacked_real_roots_match_real_roots():
    rows = _random_rows(np.random.default_rng(20261020), 12_000)
    many = polyroots.real_roots_many(rows, imag_rtol=1e-7)
    assert [_real_bits(r) for r in many] == \
        [_real_bits(polyroots.real_roots(row, imag_rtol=1e-7)) for row in rows]


def test_stacked_real_roots_make_one_eigvals_call_per_span(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: calls.append(np.shape(a)) or eigvals(a))
    rng = np.random.default_rng(7)
    quartics = (rng.normal(size=(50, 5)) + [4.0, 0, 0, 0, 4.0]).tolist()
    cubics = [[0.0, *rng.normal(size=4)] for _ in range(3)]
    lone = [[1.0, -2.0, 0.5, 1.0, 0.0]]  # a trailing zero: its own span
    polyroots.real_roots_many(quartics + cubics + lone, imag_rtol=1e-7)
    assert calls == [(50, 4, 4), (3, 3, 3), (3, 3)]


def test_stacked_real_roots_keep_an_error_on_its_row():
    rows = [[1.0, -2.0, 0.5, 1.0, -0.3], [1.0, math.inf, 0.5, 1.0, -0.3],
            [2.0, 1.0, -0.5, 1.0, 0.2]]
    many = polyroots.real_roots_many(rows, imag_rtol=1e-7)
    assert isinstance(many[1], np.linalg.LinAlgError)
    with pytest.raises(np.linalg.LinAlgError) as raised:
        polyroots.real_roots(rows[1], imag_rtol=1e-7)
    assert str(raised.value) == str(many[1])
    for k in (0, 2):
        assert _real_bits(many[k]) == \
            _real_bits(polyroots.real_roots(rows[k], imag_rtol=1e-7))


@given(st.lists(_coef, min_size=1, max_size=6), _coef)
@settings(max_examples=300, deadline=None)
def test_polyval_and_polyder_match_numpy(desc, x):
    assert polyroots.polyval(desc, x) == np.polyval(desc, x)
    assert polyroots.polyder(desc) == np.polyder(desc).tolist()
    assert polyroots.polyval(polyroots.polyder(desc), x) == \
        np.polyval(np.polyder(desc), x)


@given(st.lists(_zero_or_coef, min_size=1, max_size=4),
       st.lists(_zero_or_coef, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_polymul_and_polysub_match_numpy(a, b):
    def same(x, y):
        return [v.hex() for v in np.asarray(x, float).tolist()] == \
            [v.hex() for v in np.asarray(y, float).tolist()]

    assert same(polyroots.polymul(a, b), np.polymul(a, b))
    assert same(polyroots.polysub(a, b), np.polysub(a, b))


def test_newton_stays_finite_and_polishes():
    # x^2 - 2 from 1.5
    assert polyroots.newton([1.0, 0.0, -2.0], 1.5, 6) == math.sqrt(2.0)
    # a vanishing derivative or an infinite step stops the iteration
    assert polyroots.newton([1.0, 0.0, 1.0], 0.0, 3) == 0.0
    assert polyroots.newton([1.0, 0.0, -1e300], 5e-324, 3) == 5e-324


def _brentq_outcome(solve, f, xa, xb, **kw):
    """Bits of the root, or the type of the error the solve raised."""
    try:
        return solve(f, xa, xb, **kw).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def _same_as_scipy(f, xa, xb, **kw):
    ours = _brentq_outcome(polyroots.brentq, f, xa, xb, **kw)
    assert ours == _brentq_outcome(scipy.optimize.brentq, f, xa, xb, **kw)
    return ours


@given(st.lists(_coef, min_size=2, max_size=6), _coef, _coef,
       st.sampled_from([1e-13, 2e-12, 1e-6]),
       st.sampled_from([1.0, 1e-300, 1e300]))
@settings(max_examples=300, deadline=None)
def test_brentq_matches_scipy_on_polynomial_brackets(desc, xa, xb, xtol, scale):
    _same_as_scipy(lambda x: scale * polyroots.polyval(desc, x), xa, xb, xtol=xtol)


def test_brentq_matches_scipy_at_the_edges():
    def cubic(x):
        return x ** 3 - 2.0 * x - 5.0

    assert isinstance(_same_as_scipy(cubic, 2.0, 3.0, xtol=1e-13), str)
    # an endpoint root is returned as it is, on either side
    assert _same_as_scipy(lambda x: x - 0.25, 0.25, 1.0, xtol=1e-13) == (0.25).hex()
    assert _same_as_scipy(lambda x: x - 1.0, 0.25, 1.0, xtol=1e-13) == (1.0).hex()
    # same-sign endpoints, a NaN at an endpoint or inside the bracket
    assert _same_as_scipy(cubic, 3.0, 4.0, xtol=1e-13) is ValueError
    assert _same_as_scipy(lambda x: math.nan, 0.0, 1.0, xtol=1e-13) is ValueError
    assert _same_as_scipy(lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5,
                          0.0, 1.0, xtol=1e-13) is ValueError
    # tiny values underflow the extrapolation's divisor to zero
    assert isinstance(_same_as_scipy(lambda x: 1e-300 * cubic(x), 2.0, 3.0,
                                     xtol=1e-13), str)
    # a jump at 0 that no step closes to 1e-300 in 100 iterations
    assert _same_as_scipy(lambda x: math.copysign(1.0, x), -1.0, 1.0,
                          xtol=1e-300) is RuntimeError


def test_brentq_matches_scipy_on_the_oracle_brackets(monkeypatch):
    # every bracket the numeric oracle polishes, on a small (kappa, lam,
    # plane) sweep and in the solver's Hopf search
    outcomes = []
    ours = polyroots.brentq

    def checked(f, xa, xb, **kw):
        outcome = _brentq_outcome(ours, f, xa, xb, **kw)
        assert outcome == _brentq_outcome(scipy.optimize.brentq, f, xa, xb, **kw)
        outcomes.append(outcome)
        return ours(f, xa, xb, **kw)

    monkeypatch.setattr(polyroots, "brentq", checked)
    for kappa in (0.0, 0.5, 1.0, 2.0):
        for lam in np.linspace(-1.5, 1.5, 17):
            solve_bifurcations_numeric(float(lam), kappa, n_grid=201)
            stratum = LambdaStratum(float(lam), kappa)
            for ell in (-1.25, -0.125, 0.0, 0.125, 0.3125, 0.75):
                oracle_slice(stratum, [ell])[0]
    assert len(outcomes) > 150


def _scipy_imports(path):
    """(top-level function or None, line) of every scipy import in one
    module."""
    hits = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "scipy" for m in modules):
                hits.append((owner, node.lineno))
    return hits


def test_no_src_module_imports_scipy():
    # scipy is a test dependency only: no module of the package imports it,
    # at the top or inside a function
    modules = sorted(SRC.glob("*.py"))
    found = {(p.stem, owner) for p in modules for owner, _ in _scipy_imports(p)}
    assert found == set()


def test_guard_sees_a_scipy_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import math\n"
                      "import scipy.linalg\n"
                      "def f():\n"
                      "    from scipy.optimize import brentq\n"
                      "    return brentq\n"
                      "class C:\n"
                      "    def g(self):\n"
                      "        from scipy import integrate\n")
    assert _scipy_imports(module) == [(None, 2), ("f", 4), (None, 8)]


def _dotted(node):
    """The dotted name of an attribute chain on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *parts[::-1]]) if isinstance(node, ast.Name) else None


def _numpy_poly_calls(path):
    """(line, name) of every np.<name>(...) call of a routine in
    NUMPY_POLY_CALLS or of anything in np.polynomial, and of every numpy
    import of either, in one module."""
    def flagged(name):
        return name in NUMPY_POLY_CALLS or name.split(".")[0] == "polynomial"

    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            root, _, name = (_dotted(node.func) or "").partition(".")
            if root in ("np", "numpy") and flagged(name):
                hits.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom) \
                and (node.module or "").split(".")[0] == "numpy":
            names = [f"{node.module}.{a.name}".partition(".")[2] for a in node.names]
            hits += [(node.lineno, name) for name in names if flagged(name)]
    return hits


def test_only_the_kernel_uses_numpy_polynomial_routines():
    modules = sorted(SRC.glob("*.py"))
    assert any(p.name == KERNEL for p in modules)
    offenders = {p.name: hits for p in modules if p.name != KERNEL
                 for hits in [_numpy_poly_calls(p)] if hits}
    assert not offenders, (
        f"route these through res112.polyroots instead: {offenders}")


def test_guard_sees_a_numpy_roots_call(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import numpy as np\n"
                      "r = np.roots([1.0, 2.0])\n"
                      "v = np.polynomial.polynomial.polyval(1.0, [1.0])\n"
                      "from numpy.polynomial import polynomial\n"
                      "s = np.sqrt(2.0)\n")
    assert sorted(_numpy_poly_calls(module)) == [
        (2, "roots"), (3, "polynomial.polynomial.polyval"),
        (4, "polynomial.polynomial")]
