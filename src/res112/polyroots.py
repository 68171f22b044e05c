"""Roots of the small real polynomials behind the critical values.

The tangency quintic, the quartic F, the range cubic g(a) and the slice
quartic in a all take their roots from this one kernel.  Coefficients are
descending, as ``np.roots`` takes them, and every result has the bits of
the numpy polynomial routine it stands for:

* ``roots`` builds the companion matrix exactly as ``np.roots`` does and
  hands it to ``np.linalg.eigvals``;
* ``polyval`` is Horner's rule on Python floats, the same IEEE operations
  in the same order as ``np.polyval``;
* ``polyder``, ``polymul`` and ``polysub`` are ``np.polyder``,
  ``np.polymul`` and ``np.polysub`` without ``poly1d``.

What is left out is numpy's per-call cost on five-element arrays
(``poly1d`` wrapping, ``trim_zeros``, array scalars), which dominated the
per-node cost of the critical values.
"""

from __future__ import annotations

import math

import numpy as np


def roots(coeffs) -> np.ndarray:
    """All roots of a polynomial, with the bits and dtype of ``np.roots``.

    Leading zeros are stripped, trailing zeros come back as roots at the
    end of the array, and the rest are the eigenvalues of the companion
    matrix whose first row is -p[1:]/p[0].  Raises
    ``np.linalg.LinAlgError`` if the eigenvalue solve does.
    """
    p = [float(c) for c in coeffs]
    nonzero = [i for i, c in enumerate(p) if c != 0.0]
    if not nonzero:
        return np.array([])
    p = p[nonzero[0]:nonzero[-1] + 1]
    n = len(p) - 1
    if n:
        companion = np.eye(n, k=-1)
        companion[0] = [-c / p[0] for c in p[1:]]
        found = np.linalg.eigvals(companion)
    else:
        found = np.array([])
    trailing = len(coeffs) - 1 - nonzero[-1]
    if trailing:
        found = np.concatenate((found, np.zeros(trailing, found.dtype)))
    return found


def real_roots(coeffs, imag_rtol: float) -> tuple[list[float], float]:
    """Sorted real parts of the roots whose imaginary part is at most
    ``imag_rtol`` times the root scale 1 + max |root|, and that scale (1.0
    for a constant polynomial)."""
    found = roots(coeffs)
    if not found.size:
        return [], 1.0
    scale = 1.0 + float(abs(found).max())
    tol = imag_rtol * scale
    return sorted(z.real for z in found.tolist() if abs(z.imag) <= tol), scale


def polyval(coeffs, x: float) -> float:
    """Value at x by Horner's rule, as ``np.polyval`` computes it."""
    y = 0.0
    for c in coeffs:
        y = y * x + c
    return y


def polyder(coeffs) -> list[float]:
    """Descending coefficients of the derivative, as ``np.polyder``."""
    n = len(coeffs) - 1
    return [float(c) * (n - i) for i, c in enumerate(coeffs[:-1])]


def polymul(a, b) -> np.ndarray:
    """Product of two polynomials, as ``np.polymul``: each factor loses its
    leading zeros (an all-zero factor becomes [0.0], as in ``poly1d``)
    before ``np.convolve``."""
    return np.convolve(_strip_leading_zeros(a), _strip_leading_zeros(b))


def polysub(a, b) -> np.ndarray:
    """Difference a - b, as ``np.polysub``: the shorter operand is padded
    with leading zeros."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    pad = len(b) - len(a)
    if pad > 0:
        a = np.concatenate((np.zeros(pad), a))
    elif pad < 0:
        b = np.concatenate((np.zeros(-pad), b))
    return a - b


def _strip_leading_zeros(p):
    for i, c in enumerate(p):
        if c != 0.0:
            return p[i:]
    return [0.0]


def newton(coeffs, x: float, steps: int, dcoeffs=None) -> float:
    """Up to ``steps`` Newton steps on the polynomial from x.

    Stops early where the derivative vanishes or a step is not finite, so a
    polished root is always finite.  ``dcoeffs`` may pass the derivative's
    coefficients when the caller already has them.
    """
    if dcoeffs is None:
        dcoeffs = polyder(coeffs)
    x = float(x)
    for _ in range(steps):
        d = polyval(dcoeffs, x)
        if d == 0.0:
            break
        step = polyval(coeffs, x) / d
        if not math.isfinite(step):
            break
        x -= step
    return x
