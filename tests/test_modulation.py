"""Modulation: initial-data operator, dual pairings, fixed-point fitting."""

import math

import numpy as np
import pytest

from blowuplab.chebgrid import ChebGrid
from blowuplab.linop import StateVector, energy_norm, f0_state, f1_state, g0_state
from blowuplab.modulation import (
    _bracket_terms,
    correction_functional,
    _Workspace,
    fit_parameters,
    gram_dual_basis,
    initial_data_operator,
    modulated_decay,
)

GRID = ChebGrid.make(64)
BASELINE = (0.75, 1.0, 0.0)


def _legendre_f(eps):
    return StateVector(
        q1=eps * np.polynomial.legendre.legval(GRID.y, (0.0, 1.0, 1.0, 0.5)),
        q2=eps * np.polynomial.legendre.legval(GRID.y, (0.5, 1.0, 1.0, 0.0)))


# ---------------------------------------------------------------------------
# initial data operator

def test_initial_data_operator_vanishes_at_baseline():
    zero = StateVector(q1=np.zeros(65), q2=np.zeros(65))
    d = initial_data_operator(0.75, 1.0, 0.0, BASELINE, zero, GRID)
    assert energy_norm(4, d, GRID) < 1e-12


def test_initial_data_operator_domain_constraint():
    zero = StateVector(q1=np.zeros(65), q2=np.zeros(65))
    # T/T0 beyond 1/sqrt(1-p0) puts the baseline profile past its singularity
    with pytest.raises(ValueError):
        initial_data_operator(0.75, 2.5, 0.0, BASELINE, zero, GRID)


def test_initial_data_linear_in_f():
    f1 = _legendre_f(1e-4)
    f2 = _legendre_f(2e-4)
    d1 = initial_data_operator(0.75, 1.0, 0.0, BASELINE, f1, GRID).flat()
    d2 = initial_data_operator(0.75, 1.0, 0.0, BASELINE, f2, GRID).flat()
    assert np.linalg.norm(d2 - 2.0 * d1) < 1e-12


def test_expansion_remainder_quadratic():
    """U(0) - [bracket-coefficient combination] shrinks at order >= 1.9."""
    zero = StateVector(q1=np.zeros(65), q2=np.zeros(65))
    p0, T0, k0 = BASELINE
    basis = [g0_state(GRID, 0.75), f0_state(GRID, 0.75), f1_state(GRID, 0.75)]
    norms = []
    steps = (1e-3, 1e-4)
    for s in steps:
        p, T, kappa = p0 + 0.7 * s, T0 * (1.0 + 0.4 * s), k0 + 0.3 * s
        d = initial_data_operator(p, T, kappa, BASELINE, zero, GRID).flat()
        b = _bracket_terms(p, T, kappa, BASELINE)
        lin = sum(b[n] * basis[n].flat() for n in range(3))
        norms.append(np.linalg.norm(d - lin))
    order = math.log(norms[0] / norms[1]) / math.log(steps[0] / steps[1])
    assert order >= 1.9


# ---------------------------------------------------------------------------
# Gram dual basis

def test_gram_symmetric_and_duality():
    gram = gram_dual_basis(0.75, GRID)
    assert np.max(np.abs(gram.Gamma - gram.Gamma.T)) < 1e-12
    # exact combinations of the basis give back their coefficients
    combo = (0.5 * gram.basis[0].flat() - 2.0 * gram.basis[1].flat()
             + 3.0 * gram.basis[2].flat())
    coords = gram.coords_in_span(combo)
    assert np.allclose(coords, [0.5, -2.0, 3.0], atol=1e-9)


def test_gram_condition_grows_as_p_to_one():
    conds = []
    for p in (0.9, 0.99, 0.999):
        gram = gram_dual_basis(p, GRID)
        conds.append(np.linalg.cond(gram.Gamma))
    assert conds[0] < conds[1] < conds[2]


# ---------------------------------------------------------------------------
# correction functional

def test_correction_zero_for_trivial_data():
    ws = _Workspace(64)
    zero = StateVector(q1=np.zeros(65), q2=np.zeros(65))
    ell = correction_functional(0.75, 1.0, 0.0, zero, None, BASELINE, ws)
    assert max(abs(x) for x in ell) < 1e-10


def test_correction_scales_linearly_in_epsilon():
    ws = _Workspace(64)
    e1 = correction_functional(0.75, 1.0, 0.0, _legendre_f(1e-5), None,
                               BASELINE, ws)
    e2 = correction_functional(0.75, 1.0, 0.0, _legendre_f(1e-4), None,
                               BASELINE, ws)
    # the projector (norm ~6e5) amplifies input roundoff through heavy
    # cancellation, so linearity holds to ~1e-7 relative, not 1e-15
    for a, b in zip(e1, e2):
        assert b == pytest.approx(10.0 * a, rel=1e-5)


# ---------------------------------------------------------------------------
# fixed-point fitting

def test_fit_trivial_data_one_iteration():
    zero = StateVector(q1=np.zeros(65), q2=np.zeros(65))
    st = fit_parameters(zero, BASELINE)
    assert st.converged and st.iterations == 1
    assert (st.p_star, st.T_star, st.kappa_star) == BASELINE


@pytest.mark.slow
def test_fit_converges_and_is_idempotent():
    f = _legendre_f(1e-4)
    st = fit_parameters(f, BASELINE, tol=1e-8)
    assert st.converged
    assert st.iterations <= 30
    # displacement is O(epsilon)
    disp = (abs(st.p_star - 0.75) + abs(st.kappa_star)
            + abs(1.0 - st.T_star))
    assert disp < 50 * 1e-4
    # idempotency: at the fitted point (same baseline) the correction is
    # below tolerance, so one more evaluation leaves the parameters fixed
    ws = _Workspace(64)
    from blowuplab.modulation import _corrected_trajectory
    ell, _ = _corrected_trajectory(st.p_star, st.T_star, st.kappa_star, f,
                                   BASELINE, ws)
    b = _bracket_terms(st.p_star, st.T_star, st.kappa_star, BASELINE)
    F = [e - bb for e, bb in zip(ell, b)]
    p_next = BASELINE[0] + F[0]
    T_next = BASELINE[1] * (1.0 + math.sqrt(1.0 - st.p_star) * F[2])
    assert abs(p_next - st.p_star) < 1e-7
    assert abs(T_next - st.T_star) < 1e-7
    # post-fit unprojected decay
    fit = modulated_decay(f, BASELINE, st)
    assert fit.fitted_rate <= -0.4
    assert fit.r_squared >= 0.98
