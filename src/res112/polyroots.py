"""Roots of the small real polynomials behind the critical values.

The tangency quintic, the quartic F and the slice quartic in a all take
their roots from this one kernel.  Coefficients are
descending, as ``np.roots`` takes them, and every result has the bits of
the numpy polynomial routine it stands for:

* ``roots`` builds the companion matrix exactly as ``np.roots`` does and
  hands it to ``np.linalg.eigvals``; ``roots_many`` stacks those
  matrices for many coefficient rows into one ``eigvals`` call, whose
  eigenvalues have the bits of the one-matrix calls, and
  ``real_roots_many`` keeps their real parts;
* ``polyval`` is Horner's rule on Python floats, the same IEEE operations
  in the same order as ``np.polyval``;
* ``polyder``, ``polymul`` and ``polysub`` are ``np.polyder``,
  ``np.polymul`` and ``np.polysub`` without ``poly1d``.

What is left out is numpy's per-call cost on five-element arrays
(``poly1d`` wrapping, ``trim_zeros``, array scalars), which dominated the
per-node cost of the critical values.

``brentq``, the bracketed solver of the numeric oracle, likewise has the
bits of ``scipy.optimize.brentq`` without importing scipy.
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
    return _real_parts(roots(coeffs), imag_rtol)


def roots_many(rows) -> list:
    """``roots`` of each coefficient row, with one eigenvalue solve per
    group of rows.

    Rows are grouped by their length and the span of their nonzero
    coefficients, so that leading and trailing zeros act as in ``roots``.
    A group's companion matrices, laid out as ``roots`` lays them out, go
    to ``np.linalg.eigvals`` as one (N, n, n) stack; a group of one row
    takes ``roots`` itself.  Entry i is the array ``roots(rows[i])``
    returns, with its bits, or the ``np.linalg.LinAlgError`` that solving
    that row raises: a group whose stacked solve raises is solved again
    row by row, so the error stays with its own row.
    """
    rows = [[float(c) for c in row] for row in rows]
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(rows):
        groups.setdefault((len(p), _nonzero_span(p)), []).append(i)
    out: list = [None] * len(rows)
    for (length, span), idx in groups.items():
        if len(idx) > 1:
            try:
                found = _stacked_roots([rows[i] for i in idx], length, span)
            except np.linalg.LinAlgError:
                pass  # find the row that raises
            else:
                # one matrix's eigvals are real when all its eigenvalues are
                real = (~found.imag.any(axis=1)).tolist()
                for i, row, is_real in zip(idx, found, real):
                    out[i] = row.real if is_real else row
                continue
        for i in idx:
            try:
                out[i] = roots(rows[i])
            except np.linalg.LinAlgError as exc:
                out[i] = exc
    return out


def real_roots_many(rows, imag_rtol: float) -> list:
    """``real_roots`` of each coefficient row: ``roots_many``, then the
    real parts of each row's roots.  Entry i is the (roots, scale) pair of
    ``real_roots(rows[i], imag_rtol)``, or the ``np.linalg.LinAlgError``
    that solving that row raises."""
    return [found if isinstance(found, np.linalg.LinAlgError)
            else _real_parts(found, imag_rtol) for found in roots_many(rows)]


def _nonzero_span(p) -> tuple[int, int] | None:
    """Positions of the first and last nonzero coefficients, or None."""
    nonzero = [i for i, c in enumerate(p) if c != 0.0]
    return (nonzero[0], nonzero[-1]) if nonzero else None


def _stacked_roots(rows, length: int, span: tuple[int, int] | None) -> np.ndarray:
    """Rows of ``roots`` for coefficient rows that share their length and
    nonzero span, from one ``np.linalg.eigvals`` call."""
    if span is None:
        return np.empty((len(rows), 0))
    lead, last = span
    p = np.array(rows)[:, lead:last + 1]
    n = last - lead
    if n:
        companion = np.broadcast_to(np.eye(n, k=-1), (len(rows), n, n)).copy()
        companion[:, 0] = -p[:, 1:] / p[:, :1]
        found = np.linalg.eigvals(companion)
    else:
        found = np.empty((len(rows), 0))
    trailing = length - 1 - last
    if trailing:
        found = np.concatenate(
            (found, np.zeros((len(rows), trailing), found.dtype)), axis=1)
    return found


def _real_parts(found: np.ndarray, imag_rtol: float) -> tuple[list[float], float]:
    """The step ``real_roots`` and ``real_roots_many`` share: the sorted
    real parts of the roots whose imaginary part is at most ``imag_rtol``
    times the root scale 1 + max |root|, and that scale (1.0 without
    roots)."""
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


_BRENT_RTOL = 4.0 * math.ulp(1.0)  # scipy's default and least rtol
_BRENT_MAXITER = 100


def brentq(f, xa: float, xb: float, xtol: float) -> float:
    """A root of f in the bracket [xa, xb] by Brent's method (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4).

    A line-by-line port of scipy's C ``brentq``, so the iterates and the
    root have its bits; the root is within xtol + 4 eps |root| of a sign
    change.  An endpoint where f is zero is returned as the root.  Raises
    ValueError if f(xa) and f(xb) have the same sign or f returns NaN
    (as ``scipy.optimize.brentq`` does), RuntimeError after 100
    iterations.
    """
    def at(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = at(xpre)
    fcur = at(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # an underflowed divisor: C's quotient is +-inf or NaN, and
                # the step test below then bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = at(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} "
                       f"iterations, value is {xcur}")


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0
