"""Reduced-space geometry: r_min, tip classification, section profile."""

import numpy as np
import pytest

from res112 import CasimirValues, TipKind, r_min, section_sq, tip_class

RNG = np.random.default_rng(424242)


@pytest.mark.parametrize("mu,ell,expected", [
    (0.0, 0.0, 0.0),
    (-3.0, 1.0, 3.0),
    (1.0, 2.0, 2.0),
    (0.5, -4.0, 0.5),
])
def test_r_min(mu, ell, expected):
    assert r_min(CasimirValues(mu, ell)) == expected


@pytest.mark.parametrize("mu,ell,kind", [
    (0.0, 0.0, TipKind.CUSP),
    (1.0, 1.0, TipKind.CONE),
    (-1.0, 1.0, TipKind.CONE),
    (0.0, -1.0, TipKind.CONE),
    (0.5, 0.2, TipKind.SMOOTH),
    (0.0, 0.5, TipKind.SMOOTH),
    (1.0, -1.0, TipKind.SMOOTH),
    (2.0, 2.0, TipKind.CONE),
])
def test_tip_class(mu, ell, kind):
    tc = tip_class(CasimirValues(mu, ell))
    assert tc.kind is kind
    assert tc.r_min == r_min(CasimirValues(mu, ell))


def test_tip_class_symmetric_in_mu():
    for _ in range(200):
        mu, ell = RNG.normal(0, 2.0, 2)
        a = tip_class(CasimirValues(float(mu), float(ell))).kind
        b = tip_class(CasimirValues(float(-mu), float(ell))).kind
        assert a is b


def test_section_sq_values():
    assert section_sq(1.0, CasimirValues(0, 0)) == 1.0
    assert section_sq(2.0, CasimirValues(1.0, 0.0)) == pytest.approx(6.0)
    # vectorized evaluation
    vals = section_sq(np.array([0.0, 1.0, 2.0]), CasimirValues(0, 0))
    assert np.allclose(vals, [0.0, 1.0, 8.0])


def test_section_vanishes_at_r_min_always():
    for _ in range(500):
        mu, ell = RNG.normal(0, 2.0, 2)
        cas = CasimirValues(float(mu), float(ell))
        assert abs(section_sq(r_min(cas), cas)) <= 1e-12 * max(1.0, r_min(cas) ** 3)


def test_cusp_taylor_expansion_degenerates():
    # at the cuspidal tip both the linear and quadratic coefficients of the
    # section profile vanish: (R - a1)(R - a2)(R - a3) with equal roots
    cas = CasimirValues(0.0, 0.0)
    eps = 1e-4
    f0 = section_sq(0.0, cas)
    f1 = (section_sq(eps, cas) - section_sq(-eps, cas)) / (2 * eps)
    f2 = (section_sq(eps, cas) - 2 * f0 + section_sq(-eps, cas)) / eps ** 2
    assert abs(f0) < 1e-14 and abs(f1) < 1e-7 and abs(f2) < 1e-7
    # whereas a conical tip keeps its quadratic term
    cas_cone = CasimirValues(1.0, 1.0)
    g2 = (section_sq(1 + eps, cas_cone) - 2 * section_sq(1.0, cas_cone)
          + section_sq(1 - eps, cas_cone)) / eps ** 2
    assert abs(g2) > 1.0
