"""The polynomial root kernel: bit equality with numpy's polynomial
routines, and a guard that keeps every other module on the kernel."""

import ast
import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from res112 import CasimirValues, ReducedParams, f_quartic, polyroots
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


def _numpy_poly_calls(path):
    """(line, name) of every np.<name>(...) call or numpy import of a
    routine in NUMPY_POLY_CALLS in one module."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
                and node.func.attr in NUMPY_POLY_CALLS):
            hits.append((node.lineno, node.func.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            hits += [(node.lineno, a.name) for a in node.names
                     if a.name in NUMPY_POLY_CALLS]
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
                      "v = np.polynomial.polynomial.polyval(1.0, [1.0])\n")
    assert _numpy_poly_calls(module) == [(2, "roots")]
