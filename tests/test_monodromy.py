"""Monodromy: rotation numbers, loop continuation, generator vectors,
matrix group law.  The generator results (1,-1), (0,1), (-1,0) are the
pinned reference values; the orientation constant is calibrated once
against the (0,1) loop, so the other two are predictions."""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from res112 import (CasimirValues, LoopError, ModelParams, MonodromyMatrix,
                    MonodromyVector, NumericalError, ReducedParams,
                    ValidationError, generator_loop, lift_turning_point,
                    monodromy_vector, reduce, rotation_numbers,
                    thread_segments, to_matrix, vector_field)
from res112.model import FullState
from res112.monodromy import (MONODROMY_SIGN, full_invariants,
                              full_vector_field)

PARAMS0 = ModelParams(delta=0.0, kappa=1.0)


def compose(a: MonodromyMatrix, b: MonodromyMatrix) -> MonodromyMatrix:
    """Matrix product; the image of the monodromy map is abelian, so the
    product must equal the matrix of the summed vectors."""
    prod = a.array @ b.array
    expected = to_matrix(a.vector + b.vector).array
    if not np.array_equal(prod, expected):
        raise NumericalError("monodromy matrices violated the additive law")
    return MonodromyMatrix(matrix=tuple(tuple(int(x) for x in row) for row in prod))


def inverse(a: MonodromyMatrix) -> MonodromyMatrix:
    return to_matrix(-a.vector)


def test_rotation_numbers_basic():
    rd = rotation_numbers((-0.5, 0.0, 0.3), PARAMS0)
    assert 0.0 <= rd.theta_N < 1.0
    assert 0.0 <= rd.theta_J < 1.0
    assert rd.T_red > 0.0
    assert rd.closure_residual <= 1e-8


def test_rotation_numbers_tolerance_independence():
    # fiber invariants: tightening the quadrature must not move them
    a = rotation_numbers((-0.5, 0.0, 0.3), PARAMS0)
    b = rotation_numbers((-0.5, 0.0, 0.3), PARAMS0, tol=1e-12)
    assert abs(a.theta_N - b.theta_N) <= 1e-7
    assert abs(a.theta_J - b.theta_J) <= 1e-7


def test_rotation_numbers_rejects_critical_values():
    with pytest.raises(ValidationError):
        rotation_numbers((-0.5, 0.0, 0.125), PARAMS0)  # on the thread
    with pytest.raises(ValidationError):
        rotation_numbers((0.0, 0.0, -1.0), PARAMS0)    # empty fiber


def test_rotation_numbers_both_island_components():
    params = ModelParams(delta=-1.0, kappa=1.0)
    # (mu, ell) = (0.1, 0): between the hyperbolic and elliptic faces
    from res112 import equilibria
    eqs = equilibria(CasimirValues(0.1, 0.0), ReducedParams(lam=-1.0, kappa=1.0))
    hB, hFh, hFe = sorted(e.h for e in eqs)
    value = (0.1, 0.05, 0.5 * (hFh + hFe))
    rd0 = rotation_numbers(value, params, component=0)
    rd1 = rotation_numbers(value, params, component=1)
    assert rd0.T_red > 0 and rd1.T_red > 0
    assert rd0.r_interval[1] <= rd1.r_interval[0]  # disjoint tori


def test_full_flow_projects_to_reduced_field():
    # the complex flow of the reduced Hamiltonian on C^3 must project to the
    # cross-product field on invariant space
    z = np.array([0.9 + 0.2j, 0.4 - 0.7j, 1.1 + 0.3j])
    lam, kappa = -0.3, 1.0
    red = reduce(FullState.from_z(z))
    rhs_red = vector_field(CasimirValues(red.n, red.l),
                           ReducedParams(lam=lam, kappa=kappa))
    f_red = np.asarray(rhs_red(0.0, (red.point.R, red.point.X, red.point.Y)))
    eps = 1e-7

    def flow_step(z, dt):
        def rhs(t, zz):
            gp = lam + 0.5 * kappa * (abs(zz[0]) ** 2 + abs(zz[1]) ** 2)
            w = np.conj(zz)
            return np.array([1j * (w[1] * w[2] + gp * zz[0]),
                             1j * (w[0] * w[2] + gp * zz[1]),
                             1j * (w[0] * w[1])])
        sol = solve_ivp(rhs, (0, dt), z, method="DOP853", rtol=1e-12, atol=1e-13)
        return sol.y[:, -1]

    red2 = reduce(FullState.from_z(flow_step(z, eps)))
    fd = (np.array([red2.point.R, red2.point.X, red2.point.Y])
          - np.array([red.point.R, red.point.X, red.point.Y])) / eps
    assert np.allclose(fd, f_red, rtol=1e-5, atol=1e-6)


def test_full_invariants_conserved_per_period():
    params = ModelParams(delta=0.0, kappa=1.0)
    value = (-0.5, 0.0, 0.3)
    rd = rotation_numbers(value, params)
    mu, iota, h = value
    ell = 2 * iota - mu
    z0 = lift_turning_point(rd.r_interval[1], CasimirValues(mu, ell),
                            ReducedParams(lam=0.0, kappa=1.0), h)
    n0, j0, h0 = full_invariants(z0, 0.0, 1.0)
    assert n0 == pytest.approx(mu, abs=1e-12)
    assert j0 == pytest.approx(iota, abs=1e-12)
    assert h0 == pytest.approx(h, abs=1e-10)


GENERATORS = {"gamma1": (1, -1), "gamma2": (0, 1), "gamma3": (-1, 0)}


@pytest.mark.parametrize("name,expected", sorted(GENERATORS.items()))
def test_generator_vectors_delta_zero(name, expected):
    loop = generator_loop(name, PARAMS0, n_points=32)
    res = monodromy_vector(loop, PARAMS0)
    assert (res.vector.m_N, res.vector.m_J) == expected
    assert max(abs(res.winding[0] - expected[0]),
               abs(res.winding[1] - expected[1])) <= 0.02


def test_generator_sum_vanishes():
    total = MonodromyVector(0, 0)
    for name in GENERATORS:
        res = monodromy_vector(generator_loop(name, PARAMS0, n_points=32), PARAMS0)
        total = total + res.vector
    assert (total.m_N, total.m_J) == (0, 0)


def test_homotopy_invariance_radius_and_plane():
    base = monodromy_vector(generator_loop("gamma2", PARAMS0, n_points=32), PARAMS0)
    small = monodromy_vector(
        generator_loop("gamma2", PARAMS0, n_points=32, radius=0.05), PARAMS0)
    other_plane = monodromy_vector(
        generator_loop("gamma2", PARAMS0, n_points=32, plane=0.8), PARAMS0)
    assert base.vector == small.vector == other_plane.vector


def test_orientation_antisymmetry():
    loop = generator_loop("gamma2", PARAMS0, n_points=32)
    fwd = monodromy_vector(loop, PARAMS0)
    rev = monodromy_vector(loop[::-1], PARAMS0)
    assert (rev.vector.m_N, rev.vector.m_J) == (-fwd.vector.m_N, -fwd.vector.m_J)


def test_contractible_loop_is_trivial():
    # a small circle in a regular region encircling nothing
    mu0, iota0, h0 = -0.5, 0.3, 0.8
    phi = np.linspace(0, 2 * math.pi, 17)
    loop = [(mu0, iota0 + 0.05 * math.cos(p), h0 + 0.05 * math.sin(p))
            for p in phi]
    res = monodromy_vector(loop, PARAMS0)
    assert (res.vector.m_N, res.vector.m_J) == (0, 0)


def test_island_regimes_reproduce_generators():
    for delta in (-1.0, 0.3):
        params = ModelParams(delta=delta, kappa=1.0)
        for name, expected in GENERATORS.items():
            res = monodromy_vector(generator_loop(name, params, n_points=32), params)
            assert (res.vector.m_N, res.vector.m_J) == expected, (delta, name)


def _planar_loop(center_mu, iota0, center_h, r, n=65, squeeze_mu=1.0):
    phi = 0.37 + np.linspace(0, 2 * math.pi, n)
    return [(center_mu + squeeze_mu * r * math.cos(p), iota0,
             center_h - r * math.sin(p)) for p in phi]


def test_crease_loop_is_contractible_on_surviving_family():
    # a small loop around the stable normal-mode crease stays inside the
    # band between the crease and the hyperbolic face: it enters and exits
    # the two-torus region only through the allowed boundary, and the
    # tracked family extends over the whole enclosed disk (only the small
    # family born at the crease degenerates there), so the winding vanishes
    from res112 import Stability, equilibria
    cases = [(-1.0, -0.4), (0.3, -0.03)]
    for delta, iota0 in cases:
        params = ModelParams(delta=delta, kappa=1.0)
        eqs = equilibria(CasimirValues(0.0, 2 * iota0),
                         ReducedParams(lam=delta, kappa=1.0))
        h_fh = [e for e in eqs if e.stability is Stability.HYPERBOLIC][0].h
        loop = _planar_loop(0.0, iota0, 0.0, 0.45 * abs(h_fh))
        res = monodromy_vector(loop, params)
        assert (res.vector.m_N, res.vector.m_J) == (0, 0), delta


def test_island_loop_reproduces_generator():
    # a loop enclosing the whole island of extra critical values is the
    # continuation of the thread generator: the island carries the same
    # monodromy as the thread it replaces
    for delta, iota0, r in ((-1.0, -0.4, 0.012), (0.3, -0.03, 0.02)):
        params = ModelParams(delta=delta, kappa=1.0)
        res = monodromy_vector(_planar_loop(0.0, iota0, 0.0, r, n=97), params)
        assert (res.vector.m_N, res.vector.m_J) == (-1, 0), delta


def test_loop_through_hyperbolic_face_rejected():
    # cutting through the hyperbolic face rewires the torus families: the
    # continuation must refuse rather than return a vector
    from res112 import Stability, equilibria
    params = ModelParams(delta=-1.0, kappa=1.0)
    eqs = equilibria(CasimirValues(0.0, -0.8), ReducedParams(lam=-1.0, kappa=1.0))
    h_fh = [e for e in eqs if e.stability is Stability.HYPERBOLIC][0].h
    loop = _planar_loop(0.0, -0.4, 0.0, 2.5 * abs(h_fh), squeeze_mu=0.2)
    with pytest.raises(LoopError):
        monodromy_vector(loop, params, component=1)
    # same at small positive detuning, where the island sits above the crease
    params2 = ModelParams(delta=0.3, kappa=1.0)
    with pytest.raises(LoopError):
        monodromy_vector(_planar_loop(0.0, -0.03, 0.0, 0.004), params2)


def test_large_detuning_only_gamma3():
    params = ModelParams(delta=1.5, kappa=1.0)
    res = monodromy_vector(
        generator_loop("gamma3", params, n_points=32, plane=1.5), params)
    assert (res.vector.m_N, res.vector.m_J) == (-1, 0)
    for name in ("gamma1", "gamma2"):
        with pytest.raises(LoopError):
            generator_loop(name, params, n_points=16)


@pytest.mark.parametrize("delta", [-1.0, 0.3])
def test_generator_loops_centre_on_their_threads(delta):
    # each loop circles the point where its thread (from thread_segments)
    # pierces the loop plane: gamma1 C23 in mu = 0.5, gamma2 C13 in
    # mu = -0.5, gamma3 C12 in iota = -0.75
    params = ModelParams(delta=delta, kappa=1.0)
    segs = {s.name: s for s in thread_segments(ReducedParams(delta, 1.0))}
    for name, curve, ell in (("gamma1", "C23", 0.5), ("gamma2", "C13", 0.5),
                             ("gamma3", "C12", -1.5)):
        pts = np.array(generator_loop(name, params, n_points=16)[:-1])
        mu = segs[curve].mu(ell)
        centre = (mu, 0.5 * (mu + ell), segs[curve].h_c(ell))
        assert np.allclose(pts.mean(axis=0), centre, rtol=0.0, atol=1e-12), name


def test_loop_plane_must_be_positive():
    for name in ("gamma1", "gamma2", "gamma3"):
        with pytest.raises(ValidationError):
            generator_loop(name, PARAMS0, plane=-0.5)
        with pytest.raises(ValidationError):
            generator_loop(name, PARAMS0, plane=0.0)


def test_degenerate_loop_rejected():
    with pytest.raises(ValidationError):
        monodromy_vector([(-0.5, 0.0, 0.3)] * 2, PARAMS0)
    with pytest.raises(ValidationError):
        monodromy_vector([(-0.5, 0.0, 0.3), (-0.5, 0.1, 0.3),
                          (-0.5, 0.0, 0.4), (-0.5, 0.05, 0.35)], PARAMS0)


def test_monodromy_matrix_group_law():
    assert np.array_equal(to_matrix(MonodromyVector(0, 0)).array, np.eye(3, dtype=int))
    a, b = MonodromyVector(1, -1), MonodromyVector(0, 1)
    prod = compose(to_matrix(a), to_matrix(b))
    assert np.array_equal(prod.array, to_matrix(MonodromyVector(1, 0)).array)
    inv = inverse(to_matrix(MonodromyVector(-1, 0)))
    assert np.array_equal(inv.array, to_matrix(MonodromyVector(1, 0)).array)
    m = to_matrix(MonodromyVector(2, -3)).array
    assert round(float(np.linalg.det(m))) == 1
    assert np.array_equal(np.triu(m), m)


def test_monodromy_sign_is_single_global_constant():
    # the calibration constant multiplies both components once; it cannot be
    # a per-loop fudge
    assert MONODROMY_SIGN in (1, -1)


def test_rotation_numbers_start_point_independence():
    # the closure element is a fiber invariant: lifting at the left turning
    # point instead of the right one gives the same (theta_N, theta_J)
    params = PARAMS0
    mu, iota, h = -0.5, 0.0, 0.3
    ell = 2 * iota - mu
    rd = rotation_numbers((mu, iota, h), params)
    z0 = lift_turning_point(rd.r_interval[0], CasimirValues(mu, ell),
                            ReducedParams(lam=0.0, kappa=1.0), h)
    sol = solve_ivp(full_vector_field(0.0, 1.0), (0.0, rd.T_red), z0,
                    method="DOP853", rtol=1e-12, atol=1e-13)
    zT = sol.y[:, -1]
    assert abs(_wrap(-_turns(zT[1], z0[1]) - rd.theta_N)) <= 1e-7
    assert abs(_wrap(-_turns(zT[2], z0[2]) - rd.theta_J)) <= 1e-7


def test_loop_classifies_each_point_once(monkeypatch):
    import res112.monodromy as mono
    calls = []

    def counting(*args):
        calls.append(args)
        return classify(*args)

    classify = mono.classify_fiber
    monkeypatch.setattr(mono, "classify_fiber", counting)
    loop = generator_loop("gamma2", PARAMS0, n_points=16)
    calls.clear()
    res = monodromy_vector(loop, PARAMS0)
    assert len(calls) == res.n_points


# ---------------------------------------------------------------------------
# ODE oracle for the period integrals
# ---------------------------------------------------------------------------

def _turns(zT, z0):
    """arg(zT / z0) in cycles, in (-1/2, 1/2]."""
    assert zT != 0 and z0 != 0, "mode amplitude vanished at an endpoint"
    return cmath.phase(zT / z0) / (2 * math.pi)


def _wrap(x):
    return (x + 0.5) % 1.0 - 0.5


def _integrate_period(z0, lam, kappa, rtol, atol, t_max=2000.0):
    """Flow of H = Re(z1 z2 z3) + lam R + (kappa/2) R^2 for one reduced period.

    Starting at a turning point (Y = 0), the orbit first crosses Y = 0 in
    the opposite direction at the half period and returns to the start at
    the full period.  Each leg terminates on the crossing direction the
    start of that leg cannot trigger, which keeps the t = 0 section hit
    from firing spuriously.
    """
    rhs = full_vector_field(lam, kappa)
    f0 = rhs(0.0, z0)
    ydot0 = (f0[0] * z0[1] * z0[2] + z0[0] * f0[1] * z0[2]
             + z0[0] * z0[1] * f0[2]).imag
    assert ydot0 != 0.0, "degenerate start: reduced orbit stationary in Y"
    sigma = float(np.sign(ydot0))

    def run_leg(z_from, t_from, direction):
        def y_invariant(t, z):
            return (z[0] * z[1] * z[2]).imag
        y_invariant.terminal = True
        y_invariant.direction = direction
        sol = solve_ivp(rhs, (t_from, t_from + t_max), z_from, method="DOP853",
                        rtol=rtol, atol=atol, events=[y_invariant])
        assert sol.status == 1 and len(sol.t_events[0]) == 1, \
            f"no Y = 0 crossing (direction {direction:+.0f}) before t_max"
        return np.asarray(sol.y_events[0][0], dtype=complex), float(sol.t_events[0][0])

    z_half, t_half = run_leg(z0, 0.0, -sigma)
    return run_leg(z_half, t_half, sigma)


def _ode_rotation(value, params, r_interval, rtol=1e-13, atol=1e-14):
    """(theta_N, theta_J, T_red) by integrating the flow on C^3 from the
    right turning point for one reduced period and solving the torus-action
    closure arg(z2(T)/z2(0)) = -2 pi theta_N, arg(z3(T)/z3(0)) =
    -2 pi theta_J; z1 must advance by 2 pi (theta_N + theta_J), and the
    action must carry z(T) back onto z(0)."""
    mu, iota, h = value
    cas = CasimirValues(mu, 2 * iota - mu)
    rp = ReducedParams.from_model(params, cas)
    z0 = lift_turning_point(r_interval[1], cas, rp, h)
    zT, T = _integrate_period(z0, rp.lam, rp.kappa, rtol, atol)
    s = -_turns(zT[1], z0[1]) % 1.0
    t = -_turns(zT[2], z0[2]) % 1.0
    assert abs(_wrap(_turns(zT[0], z0[0]) - (s + t))) <= 1e-6
    ph = np.exp(-2j * math.pi * np.array([s + t, -s, -t]))
    assert np.max(np.abs(ph * zT - z0)) <= 1e-9 * (1.0 + np.max(np.abs(z0)))
    return s, t, T


def _loop_fibers(delta, kappa, plane=None):
    params = ModelParams(delta=delta, kappa=kappa)
    return [(params, p, 0) for name in sorted(GENERATORS)
            for p in generator_loop(name, params, n_points=12, plane=plane)[:-1]]


def _island_fibers():
    # between the hyperbolic and elliptic faces of the island at delta = -1
    from res112 import equilibria
    params = ModelParams(delta=-1.0, kappa=1.0)
    eqs = equilibria(CasimirValues(0.1, 0.0), ReducedParams(lam=-1.0, kappa=1.0))
    _, h_fh, h_fe = sorted(e.h for e in eqs)
    value = (0.1, 0.05, 0.5 * (h_fh + h_fe))
    return [(params, value, 0), (params, value, 1)]


def _near_pole_fibers():
    # just above the gamma1 thread energy lam mu + kappa mu^2/2, the left
    # turning point r1 sits 2e-12 above the pole R = mu of d arg z2/dt
    return [(PARAMS0, (0.5, 0.25, 0.125 + 1e-6), 0)]


ORACLE_CASES = {
    "loops-delta-1": lambda: _loop_fibers(-1.0, 1.0),
    "loops-delta0": lambda: _loop_fibers(0.0, 1.0),
    "loops-delta0.3": lambda: _loop_fibers(0.3, 1.0),
    "loops-kappa2": lambda: _loop_fibers(0.0, 2.0, plane=0.25),
    "island": _island_fibers,
    "near-pole": _near_pole_fibers,
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_period_quadrature_matches_ode_oracle(case):
    for params, value, component in ORACLE_CASES[case]():
        rd = rotation_numbers(value, params, component=component)
        if case == "near-pole":
            assert 0.0 < rd.r_interval[0] - value[0] < 1e-10
        s, t, T = _ode_rotation(value, params, rd.r_interval)
        assert abs(_wrap(rd.theta_N - s)) <= 1e-10, (value, component)
        assert abs(_wrap(rd.theta_J - t)) <= 1e-10, (value, component)
        assert abs(rd.T_red - T) <= 1e-10 * max(1.0, T), (value, component)
        assert rd.closure_residual <= 1e-12
