"""Kinematics: charts, invariants, syzygy, Poisson structure, isotropy,
the detuning map and the kappa-normalising scaling."""

import math
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from res112 import (CasimirValues, ModelParams, ValidationError,
                    detuning_lambda, kappa_scaling)
from unreduced import (Chart, FullState, InvariantPoint, from_oscillator,
                       reduce, structure_matrix, syzygy_gradient,
                       syzygy_residual, to_oscillator, torus_action)

RNG = np.random.default_rng(90125)

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def test_to_oscillator_unit_example():
    # direct evaluation of the 4x4 chart matrix
    q, p = to_oscillator((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert q == pytest.approx((math.sqrt(2.0), 0.0, 0.0), abs=1e-15)
    assert p == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)
    # the axial momentum x1 y2 - x2 y1 = 1 equals its oscillator form
    red = reduce(FullState.oscillator(q, p))
    assert red.n == pytest.approx(1.0, abs=1e-14)


def test_chart_zero_maps_to_zero():
    q, p = to_oscillator((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert q == (0.0, 0.0, 0.0) and p == (0.0, 0.0, 0.0)


@given(st.tuples(*[finite] * 6))
@settings(max_examples=200, deadline=None)
def test_chart_round_trip(vals):
    x, y = vals[:3], vals[3:]
    q, p = to_oscillator(x, y)
    x2, y2 = from_oscillator(q, p)
    assert max(abs(a - b) for a, b in zip((*x, *y), (*x2, *y2))) <= 1e-14


def test_chart_is_symplectic():
    # numerically check that the Jacobian preserves the canonical form
    def osc(v):
        q, p = to_oscillator(v[:3], v[3:])
        return np.array([*q, *p])

    J = np.zeros((6, 6))
    for k in range(6):
        e = np.zeros(6)
        e[k] = 1.0
        J[:, k] = osc(e)  # the map is linear
    omega = np.block([[np.zeros((3, 3)), np.eye(3)],
                      [-np.eye(3), np.zeros((3, 3))]])
    assert np.allclose(J.T @ omega @ J, omega, atol=1e-14)


def test_reduce_unit_modes():
    # z1 = z2 = z3 = 1 (p = 1, q = 0): hand evaluation of the generators
    red = reduce(FullState.oscillator((0, 0, 0), (1, 1, 1)))
    assert (red.n, red.l, red.j) == (0.0, 0.0, 0.0)
    assert red.point.R == pytest.approx(1.0)
    assert red.point.X == pytest.approx(1.0)
    assert red.point.Y == pytest.approx(0.0)
    assert syzygy_residual(red.point, CasimirValues(red.n, red.l)) == pytest.approx(0.0)


def test_reduce_normal_three_mode():
    red = reduce(FullState.oscillator((0, 0, 0), (0, 0, math.sqrt(2.0))))
    assert red.n == 0.0
    assert red.l == pytest.approx(-2.0)
    assert red.point.R == 0.0
    assert red.point.X == red.point.Y == 0.0


def test_reduce_satisfies_syzygy_in_bulk():
    worst = 0.0
    for _ in range(10_000):
        q = RNG.normal(0.0, 1.5, 3)
        p = RNG.normal(0.0, 1.5, 3)
        red = reduce(FullState.oscillator(q, p))
        res = syzygy_residual(red.point, CasimirValues(red.n, red.l))
        worst = max(worst, abs(res) / max(1.0, red.point.R ** 3))
    assert worst <= 1e-12


def test_reduce_l_equals_2j_minus_n():
    for _ in range(100):
        q = RNG.normal(0.0, 2.0, 3)
        p = RNG.normal(0.0, 2.0, 3)
        red = reduce(FullState.oscillator(q, p))
        assert red.l == pytest.approx(2.0 * red.j - red.n, rel=1e-15, abs=1e-15)


def test_syzygy_residual_values():
    assert syzygy_residual(InvariantPoint(1, 1, 0), CasimirValues(0, 0)) == 0.0
    assert syzygy_residual(InvariantPoint(0, 0, 0), CasimirValues(0, 0)) == 0.0
    # plug (R, X, Y) = (2, 0, 0) into the syzygy at mu = ell = 0: -(4)(2)
    assert syzygy_residual(InvariantPoint(2, 0, 0), CasimirValues(0, 0)) == -8.0


def test_structure_matrix_table_entries():
    sm = structure_matrix(InvariantPoint(1, 1, 0), CasimirValues(0, 0))
    assert sm[0, 1] == 0.0          # {R, X} = 2Y
    assert sm[0, 2] == -2.0         # {R, Y} = -2X
    assert sm[1, 2] == -3.0         # {X, Y} = mu^2 + 2 ell R - 3R^2
    assert np.allclose(sm, -sm.T)


def test_structure_matrix_axis_point():
    sm = structure_matrix(InvariantPoint(0, 0, 0), CasimirValues(2.0, -1.0))
    assert sm[0, 1] == sm[0, 2] == 0.0
    assert sm[1, 2] == 4.0  # mu^2


def test_structure_matrix_equals_triple_product():
    # brute-force gradient triple product against the bracket table
    worst = 0.0
    eye = np.eye(3)
    for _ in range(1000):
        pt = InvariantPoint(R=float(RNG.uniform(0, 3)), X=float(RNG.normal(0, 2)),
                            Y=float(RNG.normal(0, 2)))
        cas = CasimirValues(float(RNG.normal(0, 1.5)), float(RNG.normal(0, 1.5)))
        sm = structure_matrix(pt, cas)
        gs = syzygy_gradient(pt, cas)
        scale = 1.0 + float(np.max(np.abs(sm)))
        for i in range(3):
            for j in range(3):
                tp = float(np.dot(np.cross(eye[i], eye[j]), gs))
                worst = max(worst, abs(sm[i, j] - tp) / scale)
    assert worst <= 1e-12


# Absolute threshold on |z_j|^2 deciding that a mode is switched off.
EPS_MODE_OFF = 1e-12


class IsotropyClass(Enum):
    TRIVIAL = "Trivial"
    C12 = "C12"    # z1 = z2 = 0 != z3, normal 3-mode
    C13 = "C13"    # z1 = z3 = 0 != z2, normal 2-mode
    C23 = "C23"    # z2 = z3 = 0 != z1, normal 1-mode
    C123 = "C123"  # origin, the equilibrium


def isotropy_class(state: FullState, eps_z: float = EPS_MODE_OFF) -> IsotropyClass:
    """Isotropy of the effective torus action at a state, with z_j = 0
    decided by the absolute threshold ``eps_z`` on |z_j|^2."""
    off = np.abs(state.z) ** 2 <= eps_z
    if off[0] and off[1] and off[2]:
        return IsotropyClass.C123
    if off[0] and off[1]:
        return IsotropyClass.C12
    if off[0] and off[2]:
        return IsotropyClass.C13
    if off[1] and off[2]:
        return IsotropyClass.C23
    return IsotropyClass.TRIVIAL


def test_isotropy_classes():
    z0 = FullState.oscillator((0, 0, 0), (0, 0, 0))
    assert isotropy_class(z0) is IsotropyClass.C123
    only3 = FullState.oscillator((0, 0, 1), (0, 0, 1))
    assert isotropy_class(only3) is IsotropyClass.C12
    only2 = FullState.oscillator((0, 1, 0), (0, 0, 0))
    assert isotropy_class(only2) is IsotropyClass.C13
    only1 = FullState.oscillator((1, 0, 0), (0, 0, 0))
    assert isotropy_class(only1) is IsotropyClass.C23
    generic = FullState.oscillator((1, 1, 1), (0, 0, 0))
    assert isotropy_class(generic) is IsotropyClass.TRIVIAL


def test_isotropy_invariant_under_torus_action():
    states = [
        FullState.oscillator((0, 0, 0), (0, 0, 0)),
        FullState.oscillator((0, 0, 1.3), (0, 0, 0.2)),
        FullState.oscillator((0, 0.7, 0), (0, -0.1, 0)),
        FullState.oscillator((1.0, 0.5, -0.3), (0.2, 0.1, 0.9)),
    ]
    for state in states:
        cls = isotropy_class(state)
        for _ in range(20):
            s, t = RNG.uniform(0, 1, 2)
            assert isotropy_class(torus_action(state, s, t)) is cls


def test_torus_action_preserves_invariants():
    state = FullState.oscillator((0.3, -0.2, 1.1), (0.9, 0.4, -0.5))
    red0 = reduce(state)
    moved = torus_action(state, 0.37, -0.21)
    red1 = reduce(moved)
    assert red1.n == pytest.approx(red0.n, abs=1e-14)
    assert red1.l == pytest.approx(red0.l, abs=1e-14)
    assert red1.point.R == pytest.approx(red0.point.R, abs=1e-14)
    # X + iY is invariant under the effective action
    assert red1.point.X == pytest.approx(red0.point.X, abs=1e-13)
    assert red1.point.Y == pytest.approx(red0.point.Y, abs=1e-13)


def test_detuning_lambda():
    assert detuning_lambda(ModelParams(delta=-1.0), CasimirValues(3, -7)) == -1.0
    p = ModelParams(delta=0.0, lambda1=1.0, lambda2=2.0)
    assert detuning_lambda(p, CasimirValues(1.0, 1.0)) == 3.0
    assert detuning_lambda(ModelParams(delta=0.48), CasimirValues(0.5, 0.5)) == 0.48


def test_kappa_scaling_identity_and_example():
    s = kappa_scaling(1.0, lam=0.7, mu=-2.0, ell=0.1, R=1.0, X=2.0, Y=3.0, h=4.0)
    assert (s.lam, s.mu, s.ell, s.R, s.X, s.Y, s.h) == (0.7, -2.0, 0.1, 1.0, 2.0, 3.0, 4.0)
    s2 = kappa_scaling(2.0, lam=2.0, mu=4.0, ell=8.0)
    assert (s2.lam, s2.mu, s2.ell) == (1.0, 1.0, 2.0)
    assert s2.R is None


def test_kappa_scaling_round_trip_and_reflection():
    s = kappa_scaling(-1.5, lam=1.0, mu=1.0, X=1.0, h=2.0)
    assert s.lam < 0 and s.X < 0 and s.h < 0 and s.mu > 0  # odd powers reflect
    back = kappa_scaling(-1.5, lam=s.lam, mu=s.mu, X=s.X, h=s.h, inverse=True)
    assert back.lam == pytest.approx(1.0)
    assert back.mu == pytest.approx(1.0)
    assert back.X == pytest.approx(1.0)
    assert back.h == pytest.approx(2.0)
    with pytest.raises(ValidationError):
        kappa_scaling(0.0, lam=1.0)


def test_kappa_scaling_rejects_non_finite_input_and_overflow():
    for kappa, slots, inverse in (
            (math.nan, {"lam": 1.0}, False),
            (math.inf, {"lam": 1.0}, False),
            (-math.inf, {"h": 1.0}, True),
            (2.0, {"lam": math.nan}, False),
            (2.0, {"mu": 1.0, "h": math.inf}, True),
            (1e-300, {"h": 1.0}, False),       # kappa ** -3 overflows
            (1e200, {"X": 1.0}, True),         # kappa ** 3 overflows
            (1e-100, {"lam": 1e300}, False)):  # the product overflows
        with pytest.raises(ValidationError):
            kappa_scaling(kappa, inverse=inverse, **slots)
    # a negative kappa stays valid, and a result that underflows is 0
    s = kappa_scaling(-2.0, lam=2.0, h=8.0)
    assert (s.lam, s.h) == (-1.0, -1.0)
    assert kappa_scaling(1e300, h=1.0).h == 0.0


def test_fullstate_chart_tag_round_trip():
    st_ = FullState.original((0.1, 0.2, 0.3), (0.4, 0.5, 0.6))
    osc = st_.as_oscillator()
    assert osc.chart is Chart.OSCILLATOR
    back = osc.as_original()
    assert np.allclose(back.a, st_.a, atol=1e-15)
    assert np.allclose(back.b, st_.b, atol=1e-15)


def test_invariant_point_validation():
    with pytest.raises(ValidationError):
        InvariantPoint(R=-0.1, X=0.0, Y=0.0)
    with pytest.raises(ValidationError):
        CasimirValues(mu=float("nan"), ell=0.0)
