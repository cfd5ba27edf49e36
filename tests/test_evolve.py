"""Nonlinear similarity evolution: conservation, rates, convergence, crosscheck."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from blowuplab import evolve
from blowuplab.chebgrid import ChebGrid, exponential_filter
from blowuplab.evolve import (
    IF_STEP,
    MAX_SIMILARITY_STEPS,
    EvolveConfig,
    _nonlinear,
    _rk4,
    bump,
    evolve_perturbation,
    evolve_states,
    fit_log_slope,
    initial_perturbation,
    ode_blowup_instability,
    physical_space_crosscheck,
    smallness_functional,
    step_similarity,
)
from blowuplab.linop import (OMEGA0, assemble_Lp, energy_norm, f1_state,
                             neutral_coordinates)


def test_config_validation():
    with pytest.raises(ValueError):
        EvolveConfig(p=1.5)
    for tau_max in (100.0, 0.0, -1.0):
        with pytest.raises(ValueError, match="tau_max"):
            EvolveConfig(p=0.75, tau_max=tau_max)
    with pytest.raises(ValueError, match="dt must be positive"):
        EvolveConfig(p=0.75, dt=0.0)


def test_config_rejects_too_many_steps():
    """A dt that takes more than MAX_SIMILARITY_STEPS steps to tau_max is
    rejected before any trajectory is allocated; the cap itself is allowed."""
    with pytest.raises(ValueError,
                       match=r"dt = 1e-06 takes 12000000 steps to tau_max = 12"):
        EvolveConfig(p=0.75, dt=1e-6)
    EvolveConfig(p=0.75, tau_max=10.0, dt=10.0 / MAX_SIMILARITY_STEPS)


def test_tiny_tau_max_takes_one_step():
    cfg = EvolveConfig(p=0.75, N=32, tau_max=1e-14, epsilon=1e-4)
    grid = ChebGrid.make(32)
    taus, Q = evolve_states(cfg, initial_perturbation(cfg, grid), grid)
    assert taus.tolist() == [0.0, 1e-14] and Q.shape == (2, 2, 33)


@pytest.mark.parametrize("shape,bad", [((2, 33), math.nan),
                                       ((2, 33), math.inf),
                                       ((2, 32), 0.0)])
def test_evolve_states_rejects_bad_data(shape, bad):
    q0 = np.zeros(shape)
    q0[1, 5] = bad
    cfg = EvolveConfig(p=0.75, N=32, tau_max=1.0)
    with pytest.raises(ValueError, match=r"finite \(2, 33\) array"):
        evolve_states(cfg, q0, ChebGrid.make(32))


def test_zero_data_stays_zero():
    cfg = EvolveConfig(p=0.75, N=32, tau_max=2.0, epsilon=0.0)
    grid = ChebGrid.make(32)
    _, Q = evolve_states(cfg, np.zeros((2, 33)), grid)
    assert np.max(np.abs(Q)) == 0.0


def test_realness_preserved():
    cfg = EvolveConfig(p=0.75, N=32, tau_max=1.0, epsilon=1e-3)
    grid = ChebGrid.make(32)
    _, Q = evolve_states(cfg, initial_perturbation(cfg, grid), grid)
    assert np.isrealobj(Q)
    assert np.all(np.isfinite(Q))


def test_bump_support_and_smoothness():
    y = np.linspace(-1.0, 1.0, 201)
    b = bump(y)
    assert np.all(b[np.abs(y) >= 0.8] == 0.0)
    assert b[100] == pytest.approx(1.0)


def test_unstable_mode_growth_rate():
    """The lambda = 1 eigenfunction grows like e^tau under the full flow."""
    p, N, eps = 0.75, 48, 1e-8
    grid = ChebGrid.make(N)
    cfg = EvolveConfig(p=p, N=N, tau_max=3.0, epsilon=0.0)
    taus, Q = evolve_states(cfg, eps * f1_state(grid, p), grid)
    norms = [energy_norm(0, q, grid) for q in Q]   # k=0: roundoff-clean at 1e-8
    rate, r2 = fit_log_slope(taus, np.array(norms), (0.5, 2.5))
    assert rate == pytest.approx(1.0, abs=0.01)
    assert r2 > 0.999


def test_projected_decay_rate_epsilon_independent():
    rates = []
    for eps in (1e-5, 1e-4):
        cfg = EvolveConfig(p=0.75, N=48, tau_max=8.0, epsilon=eps)
        fit = evolve_perturbation(cfg)
        rate, _ = fit_log_slope(fit.taus, fit.norms, (2.0, 6.0))
        rates.append(rate)
        assert rate < -0.35
    assert abs(rates[0] - rates[1]) < 0.05


def test_rk4_self_convergence_order():
    # the bare RK4 core on the unfiltered right-hand side
    p, N = 0.75, 32
    grid = ChebGrid.make(N)
    cfg = EvolveConfig(p=p, N=N, epsilon=1e-3)
    u0 = initial_perturbation(cfg, grid).ravel()
    L = assemble_Lp(p, grid)
    base = 0.05

    def run(dt):
        n = int(round(1.0 / dt))
        dt = 1.0 / n
        u = u0
        for _ in range(n):
            u = _rk4(lambda v: L @ v + _nonlinear(v), u, dt)
        return u

    dts = (base / 2.0, base / 4.0, base / 8.0)
    sols = [run(dt) for dt in dts]
    e1 = np.linalg.norm(sols[0] - sols[2])
    e2 = np.linalg.norm(sols[1] - sols[2])
    order = math.log(e1 / e2) / math.log(2.0)
    assert order >= 3.5


def _final_state(cfg, q0, grid):
    return evolve_states(cfg, q0, grid)[1][-1].ravel()


def _projected_data(cfg, grid):
    Phi, V = neutral_coordinates(cfg.p, cfg.N)
    u = initial_perturbation(cfg, grid).ravel()
    return (u - V @ (Phi @ u)).reshape(2, -1)


def test_flow_converged_in_time():
    """Halving the step moves the tau = 12 state of the projected evolve data
    by < 1e-4 (relative) and its fitted decay rate by < 1%."""
    p, N = 0.75, 64
    grid = ChebGrid.make(N)
    coarse = EvolveConfig(p=p, N=N)
    fine = EvolveConfig(p=p, N=N, dt=IF_STEP / 2.0)
    q0 = _projected_data(coarse, grid)
    u_coarse = _final_state(coarse, q0, grid)
    u_fine = _final_state(fine, q0, grid)
    assert np.linalg.norm(u_coarse - u_fine) < 1e-4 * np.linalg.norm(u_fine)
    r_coarse = evolve_perturbation(coarse).fitted_rate
    r_fine = evolve_perturbation(fine).fitted_rate
    assert abs(r_coarse - r_fine) < 0.01 * abs(r_fine)


def test_step_propagates_linear_part_exactly():
    """At epsilon = 1e-12 the nonlinearity is below roundoff, so one step is
    the filtered exact linear propagator expm(h L) u."""
    p, N = 0.75, 64
    grid = ChebGrid.make(N)
    cfg = EvolveConfig(p=p, N=N, epsilon=1e-12)
    q0 = initial_perturbation(cfg, grid)
    q = step_similarity(q0, p, IF_STEP, grid)
    u = expm(IF_STEP * assemble_Lp(p, grid)) @ q0.ravel()
    ref = exponential_filter(u.reshape(2, N + 1)).ravel()
    assert np.linalg.norm(q.ravel() - ref) < 1e-13 * np.linalg.norm(ref)


def test_step_count_independent_of_p_rounding():
    grid = ChebGrid.make(48)
    counts = []
    for p in (0.75, 0.75 + 1e-10):
        cfg = EvolveConfig(p=p, N=48, tau_max=2.0, epsilon=1e-4)
        taus, _ = evolve_states(cfg, initial_perturbation(cfg, grid), grid)
        counts.append(len(taus))
    assert counts == [round(2.0 / IF_STEP) + 1] * 2


def test_decay_check_fails_growing_trajectory():
    """The evolve decay check passes the projected data and fails the
    unprojected data, whose unstable component regrows like e^tau."""
    p, N = 0.75, 64
    cfg = EvolveConfig(p=p, N=N)
    target = -0.8 * OMEGA0
    projected = evolve_perturbation(cfg)
    assert projected.decays_at(target)
    assert projected.r_squared >= 0.98
    raw = evolve_perturbation(cfg, project_out_unstable=False)
    assert not raw.decays_at(target)
    assert raw.r_squared < 0.98


def test_trajectory_guard_raises_on_blowup():
    # unprojected data with a large unstable component must trip the guard
    p, N = 0.75, 32
    grid = ChebGrid.make(N)
    cfg = EvolveConfig(p=p, N=N, tau_max=14.0, epsilon=0.0)
    with pytest.raises(RuntimeError):
        evolve_states(cfg, -10.0 * f1_state(grid, p), grid)


def test_trajectory_guard_raises_on_slow_divergence():
    # a small unstable component grows like e^tau, never 1e3-fold in one
    # step, and trips the 1e6 guard over the trajectory (near tau = 13.85)
    p, N = 0.75, 32
    grid = ChebGrid.make(N)
    cfg = EvolveConfig(p=p, N=N, tau_max=15.0, epsilon=0.0)
    with pytest.raises(RuntimeError, match="diverged by tau=13"):
        evolve_states(cfg, 1e-8 * f1_state(grid, p), grid)


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
    rep = physical_space_crosscheck(cfg)
    assert rep["max_discrepancy"] < 1e-8


def test_crosscheck_nan_error_propagates(monkeypatch):
    """A NaN error at the second cone section reaches max_discrepancy;
    Python's max drops it after the finite first one."""
    reads = []
    interpolate = ChebGrid.interpolate

    def nan_at_second_section(grid, vals, yq):
        reads.append(yq)
        out = interpolate(grid, vals, yq)
        # reads 1 and 2 take the data at t = 0, then one per cone section
        return out * math.nan if len(reads) == 4 else out

    monkeypatch.setattr(ChebGrid, "interpolate", nan_at_second_section)
    rep = physical_space_crosscheck(EvolveConfig(p=0.9, N=64, epsilon=0.0))
    assert len(reads) == 4 and np.isnan(rep["max_discrepancy"])
    assert np.isfinite(rep["max_abs_err"][0])


def test_crosscheck_steps_at_config_dt(monkeypatch):
    """With dt = 0.2 the similarity half of the crosscheck takes the steps
    of at most 0.2 that evolve_states would: 2 to tau = -log(3/4) and 3 more
    to tau = log 2 (15 at IF_STEP), and still passes the evolve bound."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return step_similarity(*args, **kwargs)

    monkeypatch.setattr(evolve, "step_similarity", counted)
    cfg = EvolveConfig(p=0.75, N=64, epsilon=1e-3, dt=0.2)
    rep = physical_space_crosscheck(cfg)
    assert len(calls) == 5 and max(calls) <= 0.2
    assert rep["max_discrepancy"] < 1e-4


def test_crosscheck_rejects_singular_domain():
    # at p = 0.1 the singular surface x - x0 = -(T-t)/sqrt(1-p) lies inside
    # the domain half-width 1.25 T
    cfg = EvolveConfig(p=0.1, N=32, epsilon=0.0)
    with pytest.raises(ValueError, match="singular surface"):
        physical_space_crosscheck(cfg)


@pytest.mark.parametrize("p", [0.5, 0.55, 0.5555])
def test_crosscheck_rejects_surface_before_last_section(monkeypatch, p):
    """Below p = 5/9 the singular surface meets the region where the
    finite-difference solution is exact before t = 0.5 T: ValueError naming
    p, before either solver takes a step."""
    def no_step(*args, **kwargs):
        raise AssertionError("the crosscheck stepped")

    monkeypatch.setattr(evolve, "_rk4", no_step)
    monkeypatch.setattr(evolve, "step_similarity", no_step)
    with pytest.raises(ValueError, match=rf"needs p > 0.5556, got p = {p}$"):
        physical_space_crosscheck(EvolveConfig(p=p, N=32, epsilon=1e-3))


def test_crosscheck_passes_just_above_five_ninths():
    rep = physical_space_crosscheck(EvolveConfig(p=0.5557, epsilon=1e-3))
    assert rep["max_discrepancy"] < 1e-4
