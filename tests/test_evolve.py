"""Nonlinear similarity evolution: conservation, rates, convergence, crosscheck."""

import math

import numpy as np
import pytest

from blowuplab import evolve, linop
from blowuplab.chebgrid import ChebGrid, exponential_filter, truncate_modes
from blowuplab.evolve import (
    IF_STEP,
    MAX_SIMILARITY_STEPS,
    DecayFit,
    EvolveConfig,
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
from blowuplab.linop import (DEFAULT_K, assemble_Lp, energy_norm, f1_state,
                             neutral_coordinates, q1_values)
from blowuplab.profiles import ProfileParams, eval_profile


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
    rejected before any trajectory is allocated; the cap itself is allowed.
    At a subnormal dt the step count overflows to inf, and the message
    names it instead of raising OverflowError."""
    with pytest.raises(ValueError,
                       match=r"dt = 1e-06 takes 12000000 steps to tau_max = 12"):
        EvolveConfig(p=0.75, dt=1e-6)
    with pytest.raises(ValueError, match=r"dt = 4.94066e-324 takes inf steps"):
        EvolveConfig(p=0.75, dt=5e-324)
    EvolveConfig(p=0.75, tau_max=10.0, dt=10.0 / MAX_SIMILARITY_STEPS)


def test_tiny_tau_max_takes_one_step():
    cfg = EvolveConfig(p=0.75, N=32, tau_max=1e-14, epsilon=1e-4)
    grid = ChebGrid.make(32)
    taus, Q = evolve_states(cfg, initial_perturbation(cfg, grid), grid)
    assert taus.tolist() == [0.0, 1e-14] and Q.shape == (2, 67)


@pytest.mark.parametrize("shape,bad", [((67,), math.nan),
                                       ((67,), math.inf),
                                       ((66,), 0.0),
                                       ((2, 33), 0.0)])
def test_evolve_states_rejects_bad_data(shape, bad):
    q0 = np.zeros(shape)
    q0.flat[40] = bad
    cfg = EvolveConfig(p=0.75, N=32, tau_max=1.0)
    with pytest.raises(ValueError, match="finite state of 67 values"):
        evolve_states(cfg, q0, ChebGrid.make(32))


def test_zero_data_stays_zero():
    cfg = EvolveConfig(p=0.75, N=32, tau_max=2.0, epsilon=0.0)
    grid = ChebGrid.make(32)
    _, Q = evolve_states(cfg, np.zeros(67), grid)
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


def _nonlinear(u):
    """N(u) = (0, 0, q2^2) on a state."""
    out = np.zeros_like(u)
    n = len(u) // 2
    out[-n:] = u[-n:] ** 2
    return out


def _filtered(u):
    """exponential_filter on the v and q2 blocks of a state."""
    n = len(u) // 2
    return np.concatenate([u[:1], exponential_filter(u[1:].reshape(2, n))
                           .ravel()])


def _final_state(cfg, q0, grid):
    return evolve_states(cfg, q0, grid)[1][-1]


def _projected_data(cfg, grid):
    Phi, V = neutral_coordinates(cfg.p, cfg.N)
    u = initial_perturbation(cfg, grid)
    return u - V @ (Phi @ u)


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
    the filtered exact linear propagator expm(h L) u.  The step squares
    expm(h L / 2), so the reference is the package's own _expm, whose
    power-of-two scaling gives the same Pade base.  scipy's expm differs
    from it by 9.4e-15 here, and each is about 1e-14 from a long-double
    Pade."""
    p, N = 0.75, 64
    grid = ChebGrid.make(N)
    cfg = EvolveConfig(p=p, N=N, epsilon=1e-12)
    q0 = initial_perturbation(cfg, grid)
    q = step_similarity(q0, p, IF_STEP, grid)
    ref = _filtered(linop._expm(IF_STEP * assemble_Lp(p, grid)) @ q0)
    assert np.linalg.norm(q - ref) < 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("p,N", [(0.5, 32), (0.6, 48), (0.75, 64), (0.9, 96)])
def test_step_matches_reference_if_rk4(p, N):
    """The step on the q2 blocks with the filter folded in is Lawson's
    IF-RK4 written out on the whole propagators, then filtered, to 1e-12.
    At amplitude 1 the nonlinear part moves the step by about 1 %."""
    grid = ChebGrid.make(N)
    h = IF_STEP
    half = linop._expm(0.5 * h * assemble_Lp(p, grid))
    full = half @ half
    u = initial_perturbation(EvolveConfig(p=p, N=N, epsilon=1.0), grid)
    k1 = _nonlinear(u)
    k2 = _nonlinear(half @ (u + 0.5 * h * k1))
    k3 = _nonlinear(half @ u + 0.5 * h * k2)
    k4 = _nonlinear(full @ u + h * (half @ k3))
    ref = _filtered(
        full @ u + (h / 6.0) * (full @ k1 + 2.0 * (half @ (k2 + k3)) + k4))
    linear = _filtered(full @ u)
    assert np.linalg.norm(ref - linear) > 1e-3 * np.linalg.norm(ref)
    q = step_similarity(u, p, h, grid)
    assert np.linalg.norm(q - ref) <= 1e-12 * np.linalg.norm(ref)


def _pade13_extended(A, s):
    """The degree-13 Pade approximant of exp(2^-s A), squared s times, in
    long double: powers, U, V and the squarings in extended precision, the
    solve by a float LU of V - U with extended-precision refinement."""
    ld = np.longdouble
    b = [ld(c) for c in linop._PADE13]
    A = A.astype(ld) * ld(2.0) ** -s
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    ident = np.eye(len(A), dtype=ld)
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    M, B = V - U, V + U
    M64 = M.astype(float)
    X = np.linalg.solve(M64, B.astype(float)).astype(ld)
    for _ in range(3):
        X = X + np.linalg.solve(M64, (B - M @ X).astype(float))
    for _ in range(s):
        X = X @ X
    return X


def _expm_s(A):
    A2 = A @ A
    A4 = A2 @ A2
    return linop._expm_scaling(A, A4, A2 @ A4)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("h", [0.05, 1.0])
@pytest.mark.parametrize("N", [64, 96])
@pytest.mark.parametrize("p", [0.5, 0.75, 0.9])
def test_expm_accuracy_against_extended_pade(p, N, h):
    """_expm(h L_p) against the long-double Pade-13 at the same s: within
    three times the error of scipy's expm, the test-only oracle (measured
    ratios 0.97 to 1.5)."""
    from scipy.linalg import expm

    A = h * assemble_Lp(p, ChebGrid.make(N))
    ref = _pade13_extended(A, _expm_s(A))
    scale = np.linalg.norm(ref.astype(float))

    def err(X):
        return np.linalg.norm((X - ref).astype(float)) / scale

    assert err(linop._expm(A)) <= 3.0 * err(expm(A))


def test_expm_picks_scipys_scaling():
    """The squaring count, ell correction included, is the one scipy's own
    degree-13 branch picks on the propagators' arguments."""
    pick = pytest.importorskip(
        "scipy.linalg._matfuncs_expm").pick_pade_structure
    for p in (0.25, 0.5, 0.75, 0.9, 0.99):
        for N in (48, 64, 96):
            L = assemble_Lp(p, ChebGrid.make(N))
            for h in (0.0125, 0.025, 0.5):
                A = h * L
                work = np.empty((5, *A.shape))
                work[0] = A
                assert pick(work) == (13, _expm_s(A)), (p, N, h)


def test_expm_zero_and_tiny():
    """exp(0) = I and, at evolve's tau_max = 1e-14, exp(A) = I + A for the
    half step A = 5e-15 L, to rounding: there s = 0 and alpha of the ell
    correction underflows to 0."""
    eps = np.finfo(float).eps
    assert _expm_s(np.zeros((4, 4))) == 0
    np.testing.assert_allclose(linop._expm(np.zeros((4, 4))), np.eye(4),
                               rtol=0, atol=eps)
    A = 0.5e-14 * assemble_Lp(0.75, ChebGrid.make(32))
    assert _expm_s(A) == 0
    np.testing.assert_allclose(linop._expm(A), np.eye(len(A)) + A,
                               rtol=0, atol=4 * eps)


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
    grid = ChebGrid.make(N)
    cfg = EvolveConfig(p=p, N=N)
    projected = evolve_perturbation(cfg)
    assert projected.decays_at()
    assert projected.r_squared >= 0.98
    raw = DecayFit.of(*evolve_states(cfg, initial_perturbation(cfg, grid),
                                     grid), DEFAULT_K, grid)
    assert not raw.decays_at()
    assert raw.r_squared < 0.98


def test_decay_fit_reads_one_trajectory_at_any_order():
    """evolve_perturbation is DecayFit.of at DEFAULT_K on the projected
    trajectory, bit for bit; that one trajectory read at k = 0 shares its
    taus and L2 norms and differs in the k-norms."""
    cfg = EvolveConfig(p=0.75, N=32)
    grid = ChebGrid.make(cfg.N)
    fit = evolve_perturbation(cfg)
    taus, Q = evolve_states(cfg, _projected_data(cfg, grid), grid)
    at_k = DecayFit.of(taus, Q, DEFAULT_K, grid)
    for name in ("taus", "norms", "l2_norms"):
        assert np.array_equal(getattr(at_k, name), getattr(fit, name)), name
    assert (at_k.fitted_rate, at_k.r_squared) == (fit.fitted_rate,
                                                  fit.r_squared)
    at_0 = DecayFit.of(taus, Q, 0, grid)
    assert at_0.taus is at_k.taus
    assert np.array_equal(at_0.l2_norms, at_k.l2_norms)
    assert not np.allclose(at_0.norms, at_k.norms)


def test_decay_fit_l2_norms_read_q1_of_the_state():
    """The L2 column reads q1 = c + int v back from the state: on the
    initial bump it is the L2 norm of the data (q1, q2) themselves."""
    cfg = EvolveConfig(p=0.75, N=32, epsilon=1e-3)
    grid = ChebGrid.make(cfg.N)
    q1, q2 = (truncate_modes(cfg.epsilon * s * bump(grid.y)) for s in (1.0, 0.5))
    u = initial_perturbation(cfg, grid)
    np.testing.assert_allclose(q1_values(u, grid), q1, rtol=0, atol=1e-17)
    fit = DecayFit.of(np.zeros(1), u[None], 0, grid)
    l2 = math.sqrt(grid.integrate(q1 ** 2) + grid.integrate(q2 ** 2))
    assert fit.l2_norms[0] == pytest.approx(l2, rel=1e-13)


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
        # reads 1 to 3 take q1, q2 and v at t = 0, then one per cone section
        return out * math.nan if len(reads) == 5 else out

    monkeypatch.setattr(ChebGrid, "interpolate", nan_at_second_section)
    rep = physical_space_crosscheck(EvolveConfig(p=0.9, N=64, epsilon=0.0))
    assert len(reads) == 5 and np.isnan(rep["max_discrepancy"])
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


def _exact_oracle_error(p, intervals):
    """max |u - u_exact| over both cone sections of the unperturbed data,
    away from (T, x0, kappa) = (1, 0, 0), against eval_profile; the lattice
    works in y = (x - x0) / (T - t), so x0 enters only the exact side."""
    T, x0, kappa = 1.7, 0.2, 0.3
    params = ProfileParams(p=p, T=T, x0=x0, kappa=kappa)
    cfg = EvolveConfig(p=p, T=T, kappa=kappa, N=32, epsilon=0.0)
    sections = evolve._physical_sections(cfg, np.zeros(67),
                                         ChebGrid.make(32), intervals)
    err = 0.0
    for s, (y, u) in zip(evolve.CROSSCHECK_T_SAMPLES, sections):
        t = s * T
        exact = eval_profile(params, x0 + y * (T - t), t)[0]
        err = max(err, float(np.max(np.abs(u - exact))))
    return err


@pytest.mark.parametrize("p,bound", [(0.1, 2e-8), (0.5, 1e-11),
                                     (0.9, 1e-11), (1.0, 2e-12)])
def test_characteristic_solver_matches_exact_profile(p, bound):
    """The cone sections of the closed-form profile, to about 4x the error
    measured on the default lattices (5.4e-9, 2.7e-12, 1.6e-12, 4.3e-13)."""
    assert _exact_oracle_error(p, evolve.CROSSCHECK_INTERVALS) < bound


@pytest.mark.parametrize("p", [0.1, 0.5])
def test_characteristic_solver_fourth_order(p):
    """One Richardson step on the trapezoid rule: the error falls about 16x
    per halving of the lattice step (1024 to 2048 intervals)."""
    ratio = _exact_oracle_error(p, 1024) / _exact_oracle_error(p, 2048)
    assert 12.0 <= ratio <= 20.0


@pytest.mark.parametrize("p", [0.1, 0.25, 0.4, 0.5])
def test_crosscheck_at_small_p(p):
    """The lattice is the light cone, so the singular surface stays outside
    it at every p, also where it nears the cone (|y| = 1/sqrt(1-p))."""
    rep = physical_space_crosscheck(EvolveConfig(p=p, epsilon=1e-3))
    assert rep["max_discrepancy"] < 1e-4


def test_characteristic_solver_names_t_of_a_blow_up():
    """Data that blow up inside the cone (u_t about 40 > 1 / t_last, the
    ODE u_tt = u_t^2) raise RuntimeError naming the time, not a NaN."""
    q0 = np.zeros(67)
    q0[-33:] = 40.0
    with pytest.raises(RuntimeError, match=r"blew up before t=0\.02"):
        evolve._physical_sections(EvolveConfig(p=0.75, N=32), q0,
                                  ChebGrid.make(32))
