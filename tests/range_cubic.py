"""The range cubic g(a) of the centre-saddle families, and two independent
routes to its positive root for the tests of ``a0_root``.

``g_cubic_coeffs`` is the oracle polynomial: plain arithmetic, so it takes
floats, mpmath numbers and sympy symbols alike.  ``a0_companion`` is the
eigenvalue route the library used before its closed form: companion-matrix
roots, one Newton step and a residual check.  ``a0_shadow`` and
``a_sub_shadow`` evaluate the exact values at the float inputs to 50
digits with mpmath.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from res112 import polyroots

DIGITS = 50


def g_cubic_coeffs(lam, kappa) -> list:
    """Descending coefficients of the range cubic g(a)."""
    k, L = kappa, lam
    return [
        4 * k ** 4,
        12 * k ** 3 * L - 12 * k ** 2,
        12 * k ** 2 * L ** 2 - 18 * k * L + 9,
        4 * k * L ** 3 - 4 * L ** 2,
    ]


def a0_companion(lam: float, kappa: float) -> float | None:
    """Smallest positive real eigenvalue of g's companion matrix, polished
    by one Newton step; None where there is none or the residual fails."""
    coeffs = [float(c) for c in g_cubic_coeffs(lam, kappa)]
    roots = polyroots.roots(coeffs)
    real = roots[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))].real
    pos = np.sort(real[real > 0.0])
    if pos.size == 0:
        return None
    a0 = polyroots.newton(coeffs, pos[0], 1)
    gscale = max(1.0, max(abs(c) for c in coeffs) * max(1.0, a0) ** 3)
    if abs(polyroots.polyval(coeffs, a0)) > 1e-10 * gscale:
        return None
    return a0


def a0_shadow(lam: float, kappa: float) -> mp.mpf:
    """The positive root of g at the exact float inputs, to DIGITS digits.

    On x = a/lam^2 the cubic q(x) = g(lam^2 x)/lam^2 has its root at
    O(1) next to lam = 0; q < 0 below its one positive root and q > 0
    above it, so halving and doubling from 1 bracket the root within a
    factor of 2, and bisection keeps the sign change.  For large
    |kappa lam| = |s| the root sits next to the triple root a = -lam/kappa
    of 4 (a + lam/kappa)^3, so the cubic is evaluated with log10|s| more
    digits."""
    extra = max(0, int(mp.log10(abs(kappa * lam) + 1)))
    with mp.workdps(DIGITS + 10 + extra):
        L, k = mp.mpf(lam), mp.mpf(kappa)
        c3, c2, c1, c0 = g_cubic_coeffs(L, k)
        q = [c3 * L ** 4, c2 * L ** 2, c1, c0 / L ** 2]
        assert q[3] < 0

        def sign(x):
            return mp.polyval(q, x) > 0

        lo = hi = mp.mpf(1)
        while sign(lo):
            lo, hi = lo / 2, lo
        while not sign(hi):
            lo, hi = hi, 2 * hi
        for _ in range(4 * (DIGITS + 10)):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if sign(mid) else (mid, hi)
        return (lo + hi) / 2 * L ** 2


def a_sub_shadow(lam: float, kappa: float) -> mp.mpf:
    """(1 - kappa lam - sqrt(1 - 2 kappa lam))/kappa^2 at the exact float
    inputs, with enough digits to carry DIGITS through its cancellation;
    the limit lam^2/2 at kappa = 0."""
    if kappa == 0.0:
        return mp.mpf(lam) ** 2 / 2
    lost = max(0, -int(mp.log10(abs(kappa * lam))))
    with mp.workdps(DIGITS + 10 + 2 * lost):
        L, k = mp.mpf(lam), mp.mpf(kappa)
        s = k * L
        return (1 - s - mp.sqrt(1 - 2 * s)) / k ** 2
