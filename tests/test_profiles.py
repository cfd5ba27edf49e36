"""Closed-form family: residual oracles, coordinate maps, Riccati reduction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowuplab.profiles import (
    BISECT_TOL,
    ConePoint,
    ProfileParams,
    SimilarityPoint,
    bisect,
    eval_profile,
    exact_ss_denominator,
    find_denominator_zero,
    find_general_denominator_zero,
    from_similarity,
    general_riccati_denominator,
    lorentz_map,
    lorentz_map_inverse,
    pde_residual,
    riccati_particular,
    riccati_pole,
    riccati_residual,
    sample_interior_cone_points,
    similarity_profile,
    similarity_residual,
    to_similarity,
)

RNG = np.random.Generator(np.random.Philox(7))


# ---------------------------------------------------------------------------
# parameter validation

def test_profile_params_domain():
    with pytest.raises(ValueError):
        ProfileParams(p=0.0)
    with pytest.raises(ValueError):
        ProfileParams(p=1.5)
    with pytest.raises(ValueError):
        ProfileParams(p=0.5, q=2)
    with pytest.raises(ValueError):
        ProfileParams(p=0.5, T=-1.0)


def test_eval_profile_normalisation():
    params = ProfileParams(p=0.6, kappa=0.3, T=2.0, x0=0.1)
    u, u_t, u_x = eval_profile(params, ConePoint(x=0.1, t=0.0))
    assert u == pytest.approx(0.3, abs=1e-14)
    assert u_t == pytest.approx(0.6 / 2.0, abs=1e-14)


def test_eval_profile_outside_domain():
    params = ProfileParams(p=0.75, T=1.0)
    with pytest.raises(ValueError):
        eval_profile(params, ConePoint(x=-10.0, t=0.99))


# ---------------------------------------------------------------------------
# similarity coordinates

def test_similarity_map_examples():
    params = ProfileParams(p=0.5, T=1.0, x0=0.0)
    sp = to_similarity(params, ConePoint(x=0.0, t=0.0))
    assert (sp.tau, sp.y) == (0.0, 0.0)
    params2 = ProfileParams(p=0.5, T=2.0, x0=0.0)
    sp2 = to_similarity(params2, ConePoint(x=0.5, t=1.0))
    assert sp2.tau == pytest.approx(math.log(2.0), abs=1e-14)
    assert sp2.y == pytest.approx(0.5, abs=1e-14)


@settings(max_examples=200, deadline=None)
@given(t_frac=st.floats(0.0, 0.999), y=st.floats(-0.999, 0.999),
       T=st.floats(0.1, 10.0))
def test_similarity_round_trip(t_frac, y, T):
    params = ProfileParams(p=0.75, T=T, x0=0.25)
    t = t_frac * T
    pt = ConePoint(x=params.x0 + y * (T - t), t=t)
    back = from_similarity(params, to_similarity(params, pt))
    assert back.t == pytest.approx(pt.t, rel=1e-12, abs=1e-12)
    assert back.x == pytest.approx(pt.x, rel=1e-12, abs=1e-12)


def test_similarity_time_monotone():
    params = ProfileParams(p=0.5, T=1.0)
    taus = [to_similarity(params, ConePoint(x=0.0, t=t)).tau
            for t in np.linspace(0.0, 0.99, 50)]
    assert np.all(np.diff(taus) > 0)


# ---------------------------------------------------------------------------
# PDE residual oracles

def test_pde_residual_exact_profile():
    params = ProfileParams(p=0.75, T=1.0)

    def u(x, t):
        return eval_profile(params, ConePoint(x=x, t=t))[0]

    assert pde_residual(u, ConePoint(x=0.05, t=0.2), 1e-3) < 1e-9


def test_pde_residual_ode_solution():
    def u(x, t):
        return -math.log(1.0 - t)

    assert pde_residual(u, ConePoint(x=0.0, t=0.3), 1e-3) < 1e-9


def test_pde_residual_non_solution():
    def u(x, t):
        return x * x

    assert pde_residual(u, ConePoint(x=0.1, t=0.1), 1e-4) == pytest.approx(
        2.0, abs=1e-5)


def test_pde_residual_fourth_order():
    params = ProfileParams(p=0.5, T=1.0)

    def u(x, t):
        return eval_profile(params, ConePoint(x=x, t=t))[0]

    pts = sample_interior_cone_points(params, 50, RNG)
    hs = (3.2e-2, 8e-3)
    worst = {h: max(pde_residual(u, pt, h) for pt in pts) for h in hs}
    order = math.log(worst[hs[0]] / worst[hs[1]]) / math.log(hs[0] / hs[1])
    assert order >= 3.5


def test_reflection_identity():
    """x-reflection about x0 swaps the q = +1 and q = -1 family members."""
    plus = ProfileParams(p=0.6, q=1, kappa=0.2, T=1.5, x0=0.3)
    minus = ProfileParams(p=0.6, q=-1, kappa=0.2, T=1.5, x0=0.3)
    for pt in sample_interior_cone_points(plus, 100, RNG):
        mirrored = ConePoint(x=2 * plus.x0 - pt.x, t=pt.t)
        u1 = eval_profile(plus, pt)[0]
        u2 = eval_profile(minus, mirrored)[0]
        assert abs(u1 - u2) < 1e-13


def test_similarity_residual_profile():
    p = 0.5

    def U(tau, y):
        return p * tau + similarity_profile(p, y, kappa=0.1)

    assert similarity_residual(U, SimilarityPoint(tau=1.0, y=0.3), 1e-3) < 1e-9
    # one-sided stencils near the characteristic boundary
    assert similarity_residual(U, SimilarityPoint(tau=1.0, y=0.999), 1e-3) < 1e-5


def test_similarity_residual_ode_blowup():
    def U(tau, y):
        return tau

    # large h keeps the exact-for-linear stencil away from its roundoff
    # floor (~eps/h^2), which would dominate at h = 1e-3
    assert similarity_residual(U, SimilarityPoint(tau=0.7, y=0.2), 0.05) < 1e-12


def test_similarity_residual_non_solution():
    def U(tau, y):
        return y

    for y in (0.3, -0.7, 0.5):
        res = similarity_residual(U, SimilarityPoint(tau=1.0, y=y), 1e-4)
        assert res == pytest.approx(abs(2 * y - y * y), abs=1e-6)


# ---------------------------------------------------------------------------
# Riccati reduction

def test_riccati_particular_values():
    assert riccati_particular(0.75, 1, 0.0) == pytest.approx(0.375, abs=1e-15)
    assert riccati_particular(1.0, 1, 0.4) == 0.0
    assert riccati_particular(1.0, -1, -0.2) == 0.0


def test_riccati_residual_random_points():
    y = RNG.uniform(-0.99, 0.99, size=100)
    for sign in (1, -1):
        res = riccati_residual(0.6, sign, y)
        assert np.max(np.abs(res)) < 1e-10


def test_riccati_pole_inside_cone_for_negative_p():
    # p < 0 puts the pole of V± strictly inside (-1, 1)
    pole = riccati_pole(-3.0, 1)
    assert -1.0 < pole < 1.0


# ---------------------------------------------------------------------------
# non-existence witnesses

def test_exact_ss_denominator_limits():
    assert exact_ss_denominator(5.0, -1.0) == pytest.approx(-0.5, abs=1e-12)
    assert exact_ss_denominator(5.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_exact_ss_denominator_root_c0_symmetric():
    root = find_denominator_zero(0.0)
    assert abs(root) < 1e-12


@pytest.mark.parametrize("c", [-5.0, 0.0, 5.0])
def test_exact_ss_denominator_roots(c):
    root = find_denominator_zero(c)
    assert -1.0 < root < 1.0
    assert abs(exact_ss_denominator(c, root)) < 1e-10
    # bisection bracketing certifies the sign change to 1e-12
    lo, hi = root - 2 * BISECT_TOL, root + 2 * BISECT_TOL
    assert exact_ss_denominator(c, lo) * exact_ss_denominator(c, hi) <= 0


def test_general_riccati_denominator_limits():
    p = 0.75
    g = math.sqrt(1.0 - p)
    for c in (0.5, 1.0, 2.0):
        assert general_riccati_denominator(p, c, 1.0 - 1e-13) == pytest.approx(
            1.0 - g, abs=1e-6)
        assert general_riccati_denominator(p, c, -1.0 + 1e-13) == pytest.approx(
            -1.0 + g, abs=1e-6)


@pytest.mark.parametrize("p", [0.5, 0.75])
@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_general_riccati_roots(p, c):
    root = find_general_denominator_zero(p, c)
    assert -1.0 < root < 1.0
    assert abs(general_riccati_denominator(p, c, root)) < 1e-10


def test_general_denominator_c1_origin():
    assert general_riccati_denominator(0.75, 1.0, 0.0) == pytest.approx(
        0.0, abs=1e-15)


def test_bisect_tolerance():
    root = bisect(lambda x: x * x * x - 2.0, 0.0, 2.0)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)


# ---------------------------------------------------------------------------
# Lorentz boost correspondence

def test_lorentz_map_identity_and_example():
    x, t = lorentz_map(0.0, 1.2, 3.4)
    assert (x, t) == (1.2, 3.4)
    xp, tp = lorentz_map(0.5, 1.0, 1.0)
    assert xp == pytest.approx(0.5 / math.sqrt(0.75), abs=1e-14)
    assert tp == pytest.approx(0.5 / math.sqrt(0.75), abs=1e-14)


@settings(max_examples=100, deadline=None)
@given(gamma=st.floats(-0.9, 0.9), x=st.floats(-5, 5), t=st.floats(-5, 5))
def test_lorentz_map_inverse(gamma, x, t):
    xp, tp = lorentz_map(gamma, x, t)
    xb, tb = lorentz_map_inverse(gamma, xp, tp)
    assert xb == pytest.approx(x, rel=1e-12, abs=1e-12)
    assert tb == pytest.approx(t, rel=1e-12, abs=1e-12)


def test_lorentz_profile_correspondence():
    """A gamma-boost of the ODE solution gives the p = 1 - gamma^2 member."""
    gamma = 0.5
    p = 1.0 - gamma * gamma
    params = ProfileParams(p=p, q=-1, T=1.0)
    for _ in range(100):
        t = RNG.uniform(0.0, 0.4)
        x = RNG.uniform(-0.4, 0.4) * (1.0 - t)
        u = eval_profile(params, ConePoint(x=x, t=t))[0]
        # boosted ODE blow-up: -(1 - gamma^2) log(T - t - gamma x); the
        # kappa-normalisation constant p log T vanishes at T = 1
        boosted = -(1.0 - gamma * gamma) * math.log(1.0 - t - gamma * x)
        assert abs(u - boosted) < 1e-12
