"""Closed-form family on arrays: the sampler, the residual oracle and the
non-existence witnesses."""

import math

import numpy as np
import pytest

from blowuplab.profiles import (
    BISECT_TOL,
    CONE_DEPTH,
    ProfileParams,
    bisect,
    eval_profile,
    exact_ss_denominator,
    find_denominator_zero,
    find_general_denominator_zero,
    general_riccati_denominator,
    pde_residual,
    profile_increment,
    sample_interior_cone_points,
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
    u, u_t, u_x = eval_profile(params, 0.1, 0.0)
    assert u == pytest.approx(0.3, abs=1e-14)
    assert u_t == pytest.approx(0.6 / 2.0, abs=1e-14)


def test_eval_profile_outside_domain():
    params = ProfileParams(p=0.75, T=1.0)
    with pytest.raises(ValueError):
        eval_profile(params, -10.0, 0.99)
    # one bad point among good ones fails the whole array
    x = np.array([0.0, 0.1, -10.0, 0.2])
    with pytest.raises(ValueError):
        eval_profile(params, x, np.full(4, 0.99))


def test_profile_increment_matches_value_differences():
    """u(x + dx, t + dt) - u(x, t) from eval_profile, for both signs of q."""
    for q in (-1, 1):
        params = ProfileParams(p=0.6, q=q, kappa=0.2, T=1.5, x0=0.3)
        x, t = sample_interior_cone_points(params, 50, RNG)
        dx, dt = 0.01 * np.array([[-2.0], [1.0], [3.0]]), 0.02
        diff = (eval_profile(params, x + dx, t + dt)[0]
                - eval_profile(params, x, t)[0])
        inc = profile_increment(params, x, t, dx, dt)
        assert inc.shape == (3, 50)
        assert np.max(np.abs(inc - diff)) < 1e-14


def test_profile_increment_outside_domain():
    """A stencil point past the lateral boundary raises ValueError, as
    eval_profile does, instead of a NaN or a log warning; so does a base
    point outside the domain."""
    params = ProfileParams(p=0.75, T=1.0)   # d = 1 - t + x / 2
    x, t = np.array([0.0, -0.02]), np.array([0.0, 0.98])   # d = 1, 0.01
    assert np.all(np.isfinite(profile_increment(params, x, t, 0.0, 0.005)))
    for dx, dt in ((0.0, 0.05), (-0.05, 0.0), (0.0, 1.0)):
        with pytest.raises(ValueError):
            profile_increment(params, x, t, dx, dt)
    with pytest.raises(ValueError):
        profile_increment(params, -10.0, 0.99, 0.0, 0.0)
    with pytest.raises(ValueError):
        pde_residual(lambda *a: profile_increment(params, *a), x, t, 0.02)


# ---------------------------------------------------------------------------
# interior sampler

def test_sampler_matches_per_point_draws():
    """Bit-identical to drawing uniform(0, D T), uniform(-D, D) per point."""
    params = ProfileParams(p=0.5, T=1.5, x0=0.2)
    for seed in range(4):
        rng = np.random.Generator(np.random.Philox(seed))
        ref = np.random.Generator(np.random.Philox(seed))
        x, t = sample_interior_cone_points(params, 500, rng)
        ref_x, ref_t = [], []
        for _ in range(500):
            ti = ref.uniform(0.0, CONE_DEPTH * params.T)
            yi = ref.uniform(-CONE_DEPTH, CONE_DEPTH)
            ref_x.append(params.x0 + yi * (params.T - ti))
            ref_t.append(ti)
        assert np.array_equal(x, ref_x) and np.array_equal(t, ref_t)
        assert rng.random() == ref.random()       # same stream position


# ---------------------------------------------------------------------------
# PDE residual oracle

def test_pde_residual_exact_profile():
    params = ProfileParams(p=0.75, T=1.0)
    x, t = sample_interior_cone_points(params, 200, RNG)

    def du(x, t, dx, dt):
        return profile_increment(params, x, t, dx, dt)

    res = pde_residual(du, x, t, 1e-3)
    assert res.shape == x.shape
    assert np.all(res < 1e-9)


def test_pde_residual_ode_solution():
    def du(x, t, dx, dt):     # u = -log(1 - t)
        return -np.log1p(-dt / (1.0 - t))

    x, t = np.meshgrid(np.linspace(-0.3, 0.3, 4), np.linspace(0.0, 0.4, 3))
    res = pde_residual(du, x, t, 1e-3)
    assert res.shape == (3, 4)
    assert np.all(res < 1e-9)


def test_pde_residual_non_solution():
    def du(x, t, dx, dt):     # u = x^2, by differences of values
        return (x + dx) ** 2 - x ** 2 + 0 * dt

    x = np.array([0.1, -0.4, 2.0])
    res = pde_residual(du, x, 0.1, 1e-4)
    assert res.shape == x.shape
    assert res == pytest.approx(2.0, abs=1e-5)
    for h in (0.0, -1e-3):
        with pytest.raises(ValueError):
            pde_residual(du, x, 0.1, h)


def test_pde_residual_fourth_order():
    params = ProfileParams(p=0.5, T=1.0)

    def du(x, t, dx, dt):
        return profile_increment(params, x, t, dx, dt)

    x, t = sample_interior_cone_points(params, 50, RNG)
    hs = (3.2e-2, 8e-3)
    worst = {h: np.max(pde_residual(du, x, t, h)) for h in hs}
    order = math.log(worst[hs[0]] / worst[hs[1]]) / math.log(hs[0] / hs[1])
    assert order >= 3.5


def test_profile_check_gate_holds_over_seeds():
    """The points `blowuplab profile-check --seed s` draws at its defaults
    (T = 1, kappa = 0, x0 = 0) pass the res(h = 1e-3) < 1e-9 gate for
    s = 0..299.  On float64 values the residual sat at the FD roundoff
    floor (~eps/h^2) and seed 186 read 1.006e-9 at p = 0.75; on exact
    increments (floor ~eps/h) the worst reads 2.84e-11 (seed 249, p = 0.5)."""
    worst = []
    for seed in range(300):
        rng = np.random.Generator(np.random.Philox(seed))
        for p in (0.25, 0.5, 0.75, 1.0):
            params = ProfileParams(p=p)
            x, t = sample_interior_cone_points(params, 500, rng)
            res = pde_residual(
                lambda x, t, dx, dt: profile_increment(params, x, t, dx, dt),
                x, t, 1e-3)
            worst.append(np.max(res))
    assert np.max(worst) < 1e-9


def test_reflection_identity():
    """x-reflection about x0 swaps the q = +1 and q = -1 family members."""
    plus = ProfileParams(p=0.6, q=1, kappa=0.2, T=1.5, x0=0.3)
    minus = ProfileParams(p=0.6, q=-1, kappa=0.2, T=1.5, x0=0.3)
    x, t = sample_interior_cone_points(plus, 100, RNG)
    u1 = eval_profile(plus, x, t)[0]
    u2 = eval_profile(minus, 2 * plus.x0 - x, t)[0]
    assert np.max(np.abs(u1 - u2)) < 1e-13


# ---------------------------------------------------------------------------
# non-existence witnesses

def test_exact_ss_denominator_limits():
    assert exact_ss_denominator(5.0, -1.0) == pytest.approx(-0.5, abs=1e-12)
    assert exact_ss_denominator(5.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    # on arrays the limits are taken pointwise and agree with the scalar path
    y = np.array([-1.0, -0.3, 0.0, 0.7, 1.0])
    vals = exact_ss_denominator(5.0, y)
    assert vals.shape == y.shape
    assert vals[[0, -1]].tolist() == [-0.5, 0.5]
    assert vals.tolist() == [exact_ss_denominator(5.0, v) for v in y]
    with pytest.raises(ValueError):
        exact_ss_denominator(5.0, np.array([0.0, 1.5]))


def test_bisect_endpoint_roots_and_bracket():
    assert bisect(lambda y: y, 0.0, 1.0) == 0.0
    assert bisect(lambda y: y - 1.0, 0.0, 1.0) == 1.0
    with pytest.raises(ValueError, match="no sign change"):
        bisect(lambda y: y + 1.0, 0.0, 1.0)


def test_general_riccati_denominator_domain():
    with pytest.raises(ValueError, match=r"p must lie in \(0,1\)"):
        general_riccati_denominator(1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="c must be positive"):
        general_riccati_denominator(0.5, 0.0, 0.0)


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

def test_lorentz_profile_correspondence():
    """A gamma-boost of the ODE solution gives the p = 1 - gamma^2 member."""
    gamma = 0.5
    p = 1.0 - gamma * gamma
    params = ProfileParams(p=p, q=-1, T=1.0)
    x, t = sample_interior_cone_points(params, 100, RNG)
    u = eval_profile(params, x, t)[0]
    # boosted ODE blow-up: -(1 - gamma^2) log(T - t - gamma x); the
    # kappa-normalisation constant p log T vanishes at T = 1
    boosted = -(1.0 - gamma * gamma) * np.log(1.0 - t - gamma * x)
    assert np.max(np.abs(u - boosted)) < 1e-12
