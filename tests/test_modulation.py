"""Modulation: initial-data operator, correction coordinates, fixed-point
fitting."""

import math

import numpy as np
import pytest

from blowuplab import modulation
from blowuplab.chebgrid import ChebGrid
from blowuplab.evolve import EvolveConfig, evolve_states
from blowuplab.linop import (DEFAULT_K, energy_norm, f0_state, f1_state,
                             g0_state, neutral_coordinates,
                             riesz_projectors_for, to_state)
from blowuplab.modulation import (
    FIT_TAU_MAX,
    FIT_TOL,
    _nonlinear_integrals,
    _simpson,
    correction_functional,
    fit_parameters,
    initial_data_operator,
    modulated_decay,
)

GRID = ChebGrid.make(64)
BASELINE = (0.75, 1.0, 0.0)
ZERO = np.zeros((2, 65))


def _coordinates_and_data(f):
    """(Phi, d) of correction_functional at the baseline point."""
    Phi, _ = neutral_coordinates(BASELINE[0], GRID.N)
    return Phi, to_state(initial_data_operator(*BASELINE, BASELINE, f, GRID),
                         GRID)


def _legendre_f(eps):
    return np.stack([
        eps * np.polynomial.legendre.legval(GRID.y, (0.0, 1.0, 1.0, 0.5)),
        eps * np.polynomial.legendre.legval(GRID.y, (0.5, 1.0, 1.0, 0.0))])


def _q2_squared(p, start):
    """(taus, q2^2 history) of the fit's trajectory at p from a state."""
    cfg = EvolveConfig(p=p, N=GRID.N, tau_max=FIT_TAU_MAX)
    taus, Q = evolve_states(cfg, start, GRID)
    return taus, Q[:, -(GRID.N + 1):] ** 2


def _three_pass_correction(p, T, kappa, f):
    """Oracle: the correction at one fixed parameter point, made
    self-consistent by three passes of evolving d - V ell and reading ell
    off the trajectory, starting from ell = Phi d."""
    Phi, V = neutral_coordinates(p, GRID.N)
    d = to_state(initial_data_operator(p, T, kappa, BASELINE, f, GRID), GRID)
    ell = Phi @ d
    for _ in range(3):
        ell = correction_functional(Phi, d, _q2_squared(p, d - V @ ell))
    return ell


# ---------------------------------------------------------------------------
# initial data operator

def test_initial_data_operator_vanishes_at_baseline():
    d = initial_data_operator(0.75, 1.0, 0.0, BASELINE, ZERO, GRID)
    assert energy_norm(4, to_state(d, GRID), GRID) < 1e-12


def test_initial_data_operator_domain_constraint():
    # T/T0 beyond 1/sqrt(1-p0) puts the baseline profile past its singularity
    with pytest.raises(ValueError):
        initial_data_operator(0.75, 2.5, 0.0, BASELINE, ZERO, GRID)


def test_initial_data_operator_rejects_p_one():
    with pytest.raises(ValueError, match=r"p and p0 must lie in \(0, 1\)"):
        initial_data_operator(1.0, 1.0, 0.0, BASELINE, ZERO, GRID)


def test_initial_data_linear_in_f():
    f1 = _legendre_f(1e-4)
    f2 = _legendre_f(2e-4)
    d1 = initial_data_operator(0.75, 1.0, 0.0, BASELINE, f1, GRID)
    d2 = initial_data_operator(0.75, 1.0, 0.0, BASELINE, f2, GRID)
    assert np.linalg.norm(d2 - 2.0 * d1) < 1e-12


def test_expansion_remainder_quadratic():
    """U(0) minus its first-order expansion in {g0, f0, f1} shrinks at order
    >= 1.9.  The coefficients are the ones fit_parameters' update assumes:
    with t = T/T0 - 1, g0 carries p0 - p, f0 carries (kappa0 - kappa) - p t
    + p(p0 - p)/(2(1-p)) and f1 carries -t/sqrt(1-p), so the coordinates
    move by -1 per unit of p, kappa and T/(T0 sqrt(1-p))."""
    p0, T0, k0 = BASELINE
    basis = [g0_state(GRID, 0.75), f0_state(GRID, 0.75), f1_state(GRID, 0.75)]
    norms = []
    steps = (1e-3, 1e-4)
    for s in steps:
        p, T, kappa = p0 + 0.7 * s, T0 * (1.0 + 0.4 * s), k0 + 0.3 * s
        d = to_state(initial_data_operator(p, T, kappa, BASELINE, ZERO, GRID),
                     GRID)
        t = T / T0 - 1.0
        b = (p0 - p,
             (k0 - kappa) - p * t + p * (p0 - p) / (2.0 * (1.0 - p)),
             -t / math.sqrt(1.0 - p))
        lin = sum(b[n] * basis[n] for n in range(3))
        norms.append(np.linalg.norm(d - lin))
    order = math.log(norms[0] / norms[1]) / math.log(steps[0] / steps[1])
    assert order >= 1.9


@pytest.mark.parametrize("p0,p,T,kappa", [
    (0.25, 0.25003801, 0.9999978, 1.31e-4),
    (0.75, 0.75020211, 0.9999615, -1.984e-4)])
def test_initial_data_operator_matches_extended_precision(p0, p, T, kappa):
    """U(0) = f0^T - f_{p,kappa} at the point the `modulate` fit reaches
    from baseline p0, against the same difference taken at 40 digits: the
    offset form cancels nothing, where subtracting the two profiles left
    errors near 1e-15."""
    import mpmath as mp

    d = initial_data_operator(p, T, kappa, (p0, 1.0, 0.0), ZERO, GRID)
    with mp.workdps(40):
        p0, p, T, kappa = (mp.mpf(v) for v in (p0, p, T, kappa))
        g, g0 = mp.sqrt(1 - p), mp.sqrt(1 - p0)
        ys = [mp.mpf(y) for y in GRID.y]
        ref = np.array([
            [float(p * mp.log1p(g * y) - p0 * mp.log1p(g0 * T * y) - kappa)
             for y in ys],
            [float(T * p0 / (1 + g0 * T * y) - p / (1 + g * y)) for y in ys]])
    assert np.max(np.abs(d - ref)) <= 1e-18


# ---------------------------------------------------------------------------
# correction functional

def test_correction_zero_for_trivial_data():
    Phi, d = _coordinates_and_data(ZERO)
    ell = Phi @ d
    assert max(abs(x) for x in ell) < 1e-10


def test_correction_scales_linearly_in_epsilon():
    Phi, d1 = _coordinates_and_data(_legendre_f(1e-5))
    _, d2 = _coordinates_and_data(_legendre_f(1e-4))
    e1, e2 = Phi @ d1, Phi @ d2
    # the coordinate map amplifies input roundoff through cancellation, so
    # linearity holds to well below 1e-5 relative, not 1e-15
    for a, b in zip(e1, e2):
        assert b == pytest.approx(10.0 * a, rel=1e-5)


def test_correction_nonlinear_terms_match_projector_formula():
    """With U(f) = 0 the correction is P0 I[N] + L P0 I[-tau N] + P1 I[e^-tau N];
    read through Phi and the Jordan block it matches the coordinates in
    {g0, f0, f1} of that sum built from the Riesz projectors."""
    taus = np.linspace(0.0, 4.0, 81)
    shape = np.polynomial.chebyshev.chebval(GRID.y, (1.0, 0.5, -0.3, 0.2))
    q2sq = 1e-8 * np.exp(-taus)[:, None] * (shape ** 2)[None, :]
    ell = correction_functional(*_coordinates_and_data(ZERO), (taus, q2sq))
    P0, _, P1, _, L = riesz_projectors_for(0.75, GRID)
    lift = [np.concatenate([np.zeros(66), I])
            for I in _nonlinear_integrals(taus, q2sq)]
    C = (P0 @ lift[0] + L @ (P0 @ lift[1]) + P1 @ lift[2]).real
    _, V = neutral_coordinates(0.75, 64)
    ref = np.linalg.lstsq(V, C, rcond=None)[0]
    assert np.linalg.norm(ell - ref) < 1e-5 * np.linalg.norm(ref)


def test_correction_rejects_short_trajectory():
    taus = np.linspace(0.0, 1.0, 5)
    q2sq = np.zeros((len(taus) - 1, GRID.N + 1))
    with pytest.raises(ValueError, match="trajectory shape mismatch"):
        correction_functional(*_coordinates_and_data(ZERO), (taus, q2sq))


def test_simpson_matches_scipy_on_fit_grid():
    """The uniform Simpson rule agrees with scipy.integrate.simpson to 1e-14
    relative on the fit's own tau grid, one column per node, for the three
    weights of the correction, and is exact on a cubic."""
    from scipy.integrate import simpson

    # the trajectory of the fit's first iteration, from d - V Phi d
    Phi, d = _coordinates_and_data(_legendre_f(1e-4))
    _, V = neutral_coordinates(BASELINE[0], GRID.N)
    taus, q2sq = _q2_squared(BASELINE[0], d - V @ (Phi @ d))
    assert taus.shape == (241,) and q2sq.shape == (241, 65)
    assert taus[-1] == FIT_TAU_MAX
    h = taus[1] - taus[0]
    for y in (q2sq, -taus[:, None] * q2sq, np.exp(-taus)[:, None] * q2sq):
        np.testing.assert_allclose(_simpson(y, h), simpson(y, x=taus, axis=0),
                                   rtol=1e-14, atol=0.0)
    x = np.linspace(-1.0, 2.0, 7)
    cubic = x ** 3 - 2.0 * x + 1.0      # integral over [-1, 2]: 15/4 - 3 + 3
    assert _simpson(cubic, 0.5) == pytest.approx(3.75, rel=1e-14)


@pytest.mark.parametrize("n", [2, 4])
def test_simpson_rejects_even_sample_counts(n):
    with pytest.raises(ValueError, match="odd"):
        _simpson(np.ones((n, 3)), 1.0)


# ---------------------------------------------------------------------------
# fixed-point fitting

def test_fit_trivial_data_one_iteration():
    st = fit_parameters(ZERO, BASELINE)
    assert st.converged and st.iterations == 1
    assert (st.p_star, st.T_star, st.kappa_star) == BASELINE


def test_fit_stops_unconverged_after_max_iterations(monkeypatch):
    monkeypatch.setattr(modulation, "FIT_MAX_ITER", 1)
    st = fit_parameters(_legendre_f(1e-4), BASELINE)
    assert not st.converged and st.iterations == 1 and len(st.history) == 1
    assert st.correction_norm == st.history[0][-1] > modulation.FIT_TOL


def test_fit_evaluates_each_point_once(monkeypatch):
    """One parameter point builds the coordinate map and the data once,
    for its one trajectory and the correction read off it."""
    calls = {"neutral_coordinates": 0, "initial_data_operator": 0}
    for name in calls:
        def counted(*args, _fn=getattr(modulation, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(modulation, name, counted)
    st = fit_parameters(ZERO, BASELINE)
    assert st.iterations == 1
    assert calls == {"neutral_coordinates": 1, "initial_data_operator": 1}


def test_fit_evolves_one_trajectory_per_iteration(monkeypatch):
    """`modulate` data at the defaults: every iteration evolves exactly one
    trajectory, four in all."""
    calls = []

    def counted(cfg, q0, grid):
        calls.append(cfg.p)
        return evolve_states(cfg, q0, grid)

    monkeypatch.setattr(modulation, "evolve_states", counted)
    st = fit_parameters(_legendre_f(1e-4), BASELINE)
    assert st.converged and st.iterations == 4
    assert len(calls) == st.iterations


def test_fit_waits_for_the_trajectory_to_start_from_the_data(monkeypatch):
    """A correction below FIT_TOL does not stop the fit while the data the
    trajectory started from, d - V C, is more than FIT_TOL away from d: with
    a zero correction the first trajectory starts from d - V Phi d, and
    only the second, from d itself, certifies the point."""
    starts = []

    def recorded(cfg, q0, grid):
        starts.append(q0.ravel().copy())
        return np.zeros(1), np.zeros((1, 2 * grid.N + 3))

    monkeypatch.setattr(modulation, "evolve_states", recorded)
    monkeypatch.setattr(modulation, "correction_functional",
                        lambda Phi, d, q_traj: np.zeros(3))
    Phi, d = _coordinates_and_data(_legendre_f(1e-4))
    _, V = neutral_coordinates(BASELINE[0], GRID.N)
    assert energy_norm(DEFAULT_K, V @ (Phi @ d), GRID) > FIT_TOL
    st = fit_parameters(_legendre_f(1e-4), BASELINE)
    assert st.converged and st.iterations == 2
    assert st.history[0][-1] == 0.0 < FIT_TOL
    assert (st.p_star, st.T_star, st.kappa_star) == BASELINE
    np.testing.assert_array_equal(starts[0], d - V @ (Phi @ d))
    np.testing.assert_array_equal(starts[1], d)


def test_fit_rejects_non_finite_data(monkeypatch):
    """NaN data stop the fit with ValueError before any trajectory runs."""
    def no_evolution(*args, **kwargs):
        raise AssertionError("evolve_states ran on non-finite data")

    monkeypatch.setattr(modulation, "evolve_states", no_evolution)
    f = _legendre_f(1e-4)
    f[0, 7] = math.nan
    with pytest.raises(ValueError, match="finite"):
        fit_parameters(f, BASELINE)


@pytest.mark.parametrize("p", [0.25, 0.24999999999999997,
                               0.25000000000000006, 0.2500000000000001])
def test_fit_converges_at_quarter_and_its_ulp_neighbours(p):
    """`modulate --p 0.25` data: the fit converges at p = 0.25 and at its
    -1, +1 and +2 ulp neighbours alike, so rounding in U(f) does not
    decide it."""
    st = fit_parameters(_legendre_f(1e-4), (p, 1.0, 0.0))
    assert st.converged and st.iterations <= 5


@pytest.mark.slow
def test_fit_converges_and_is_idempotent():
    f = _legendre_f(1e-4)
    st = fit_parameters(f, BASELINE)
    assert st.converged
    assert st.iterations <= 30
    # displacement is O(epsilon)
    disp = (abs(st.p_star - 0.75) + abs(st.kappa_star)
            + abs(1.0 - st.T_star))
    assert disp < 50 * 1e-4
    # idempotency: at the fitted point (same baseline) the correction is
    # below tolerance, so one more evaluation leaves the parameters fixed
    ell = _three_pass_correction(st.p_star, st.T_star, st.kappa_star, f)
    p_next = st.p_star + ell[0]
    T_next = st.T_star + BASELINE[1] * math.sqrt(1.0 - st.p_star) * ell[2]
    assert abs(p_next - st.p_star) < 1e-7
    assert abs(T_next - st.T_star) < 1e-7
    # post-fit unprojected decay
    fit = modulated_decay(f, BASELINE, st)
    assert fit.fitted_rate <= -0.4
    assert fit.r_squared >= 0.98
