"""Nonlinear similarity evolution: conservation, rates, convergence, crosscheck."""

import math

import numpy as np
import pytest

from blowuplab.chebgrid import ChebGrid
from blowuplab.evolve import (
    EvolveConfig,
    _rhs,
    _rk4,
    bump,
    evolve_perturbation,
    evolve_states,
    fit_log_slope,
    initial_perturbation,
    ode_blowup_instability,
    physical_space_crosscheck,
    smallness_functional,
    stable_dt,
)
from blowuplab.linop import StateVector, assemble_Lp, energy_norm, f1_state


def test_config_validation():
    with pytest.raises(ValueError):
        EvolveConfig(p=1.5)
    with pytest.raises(ValueError):
        EvolveConfig(p=0.5, tau_max=100.0)


def test_stable_dt_scales_inverse_square():
    r = stable_dt(0.75, 32) / stable_dt(0.75, 64)
    assert r == pytest.approx(4.0, rel=0.25)


def test_zero_data_stays_zero():
    cfg = EvolveConfig(p=0.75, N=32, tau_max=2.0, epsilon=0.0)
    grid = ChebGrid.make(32)
    q0 = StateVector(q1=np.zeros(33), q2=np.zeros(33))
    for _, q in evolve_states(cfg, q0, grid):
        pass
    assert np.max(np.abs(q.q1)) == 0.0
    assert np.max(np.abs(q.q2)) == 0.0


def test_realness_preserved():
    cfg = EvolveConfig(p=0.75, N=32, tau_max=1.0, epsilon=1e-3)
    grid = ChebGrid.make(32)
    q0 = initial_perturbation(cfg, grid)
    for _, q in evolve_states(cfg, q0, grid):
        pass
    assert np.isrealobj(q.q1) and np.isrealobj(q.q2)
    assert np.all(np.isfinite(q.q1))


def test_bump_support_and_smoothness():
    y = np.linspace(-1.0, 1.0, 201)
    b = bump(y)
    assert np.all(b[np.abs(y) >= 0.8] == 0.0)
    assert b[100] == pytest.approx(1.0)


def test_unstable_mode_growth_rate():
    """The lambda = 1 eigenfunction grows like e^tau under the full flow."""
    p, N, eps = 0.75, 48, 1e-8
    grid = ChebGrid.make(N)
    f1 = f1_state(grid, p)
    q0 = StateVector(q1=eps * f1.q1, q2=eps * f1.q2)
    cfg = EvolveConfig(p=p, N=N, tau_max=3.0, epsilon=0.0)
    taus, norms = [], []
    for tau, q in evolve_states(cfg, q0, grid):
        taus.append(tau)
        norms.append(energy_norm(0, q, grid))    # k=0: roundoff-clean at 1e-8
    rate, r2 = fit_log_slope(np.array(taus), np.array(norms), (0.5, 2.5))
    assert rate == pytest.approx(1.0, abs=0.01)
    assert r2 > 0.999


def test_projected_decay_rate_epsilon_independent():
    rates = []
    for eps in (1e-5, 1e-4):
        cfg = EvolveConfig(p=0.75, N=48, tau_max=8.0, epsilon=eps)
        fit = evolve_perturbation(cfg, fit_window=(2.0, 6.0))
        rates.append(fit.fitted_rate)
        assert fit.fitted_rate < -0.35
    assert abs(rates[0] - rates[1]) < 0.05


def test_rk4_self_convergence_order():
    # the bare RK4 core on the unfiltered right-hand side
    p, N = 0.75, 32
    grid = ChebGrid.make(N)
    cfg = EvolveConfig(p=p, N=N, epsilon=1e-3)
    u0 = initial_perturbation(cfg, grid).flat()
    L = assemble_Lp(p, grid)
    base = stable_dt(p, N)

    def run(dt):
        n = int(round(1.0 / dt))
        dt = 1.0 / n
        u = u0
        for _ in range(n):
            u = _rk4(lambda v: _rhs(L, v), u, dt)
        return u

    dts = (base / 2.0, base / 4.0, base / 8.0)
    sols = [run(dt) for dt in dts]
    e1 = np.linalg.norm(sols[0] - sols[2])
    e2 = np.linalg.norm(sols[1] - sols[2])
    order = math.log(e1 / e2) / math.log(2.0)
    assert order >= 3.5


def test_trajectory_guard_raises_on_blowup():
    # unprojected data with a large unstable component must trip the guard
    p, N = 0.75, 32
    grid = ChebGrid.make(N)
    f1 = f1_state(grid, p)
    q0 = StateVector(q1=-10.0 * f1.q1, q2=-10.0 * f1.q2)
    cfg = EvolveConfig(p=p, N=N, tau_max=14.0, epsilon=0.0)
    with pytest.raises(RuntimeError):
        for _ in evolve_states(cfg, q0, grid):
            pass


# ---------------------------------------------------------------------------
# ODE blow-up instability

def test_smallness_functional_decreases_to_one():
    vals = [smallness_functional(p) for p in (0.9, 0.99, 0.999)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.2


def test_instability_slopes_match_prediction():
    for p in (0.99, 0.999):
        rep = ode_blowup_instability(p)
        exp = abs(p - 1.0) * math.sqrt(2.0)
        assert rep["expected_slope"] == pytest.approx(exp, rel=1e-12)
        for a, slope in rep["slopes"].items():
            assert slope == pytest.approx(exp, rel=0.05)


def test_instability_norm_grows():
    rep = ode_blowup_instability(0.99)
    for a, d in rep["norms"].items():
        assert d[-1] > d[len(d) // 2]


# ---------------------------------------------------------------------------
# physical-space crosscheck

def test_crosscheck_unperturbed_profile():
    cfg = EvolveConfig(p=0.9, N=64, epsilon=0.0)
    rep = physical_space_crosscheck(cfg, t_samples=(0.25,))
    assert rep["max_discrepancy"] < 1e-8


def test_crosscheck_rejects_singular_domain():
    # at p = 0.1 the singular surface x - x0 = -(T-t)/sqrt(1-p) lies inside
    # the domain half-width 1.25 T
    cfg = EvolveConfig(p=0.1, N=32, epsilon=0.0)
    with pytest.raises(ValueError, match="singular surface"):
        physical_space_crosscheck(cfg)
