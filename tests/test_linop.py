"""Linearised operator: states, energy norms, spectrum, projectors, semigroup."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowuplab.chebgrid import ChebGrid
from blowuplab.linop import (
    StateVector,
    appendixB_dv1,
    appendixB_no_second_jordan_block,
    assemble_Lp,
    eigen_triple_residuals,
    energy_inner,
    energy_norm,
    f0_state,
    f1_state,
    free_wave_dissipativity_check,
    g0_state,
    measured_gap,
    potential,
    riesz_projection,
    riesz_projectors_for,
    semigroup_action_check,
    spectrum,
)

GRID = ChebGrid.make(64)


def test_state_vector_flat_round_trip():
    q = StateVector(q1=np.sin(GRID.y), q2=np.cos(GRID.y))
    back = StateVector.from_flat(q.flat())
    assert np.array_equal(back.q1, q.q1)
    assert np.array_equal(back.q2, q.q2)


def test_potential_values():
    # 2p/(1 + y sqrt(1-p)) at y = 0 is 2p
    for p in (0.25, 0.75, 1.0):
        assert potential(p, np.array([0.0]))[0] == pytest.approx(2.0 * p)


def test_energy_norm_positive_and_scaling():
    q = StateVector(q1=GRID.y ** 2, q2=GRID.y)
    n1 = energy_norm(4, q, GRID)
    n2 = energy_norm(4, StateVector(q1=2 * q.q1, q2=2 * q.q2), GRID)
    assert n1 > 0
    assert n2 == pytest.approx(2.0 * n1, rel=1e-12)


def test_energy_inner_symmetric_on_real_states():
    q = StateVector(q1=GRID.y ** 3, q2=np.exp(GRID.y))
    r = StateVector(q1=np.cos(GRID.y), q2=GRID.y)
    a = energy_inner(4, q, r, GRID)
    b = energy_inner(4, r, q, GRID)
    assert complex(a) == pytest.approx(complex(b), rel=1e-10)


# ---------------------------------------------------------------------------
# eigen-triples

def test_eigen_triple_states_satisfy_collocation_identities():
    p = 0.75
    L = assemble_Lp(p, GRID)
    f0, f1, g0 = f0_state(GRID, p), f1_state(GRID, p), g0_state(GRID, p)
    assert np.max(np.abs(L @ f0.flat())) < 1e-8
    assert np.max(np.abs(L @ f1.flat() - f1.flat())) < 1e-8
    assert np.max(np.abs(L @ g0.flat() - f0.flat())) < 1e-7
    # double-precision collocation only; the 1e-7 certification runs in
    # extended precision (test_eigen_triple_residuals_certified)
    assert np.max(np.abs(L @ (L @ g0.flat()))) < 1e-5


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75, 0.9])
def test_eigen_triple_residuals_certified(p):
    res = eigen_triple_residuals(p)
    assert max(res.values()) < 1e-7


# ---------------------------------------------------------------------------
# spectrum and gap

def test_spectrum_contains_symmetry_modes():
    rep = spectrum(0.75, GRID)
    rob = rep.robust_eigenvalues
    assert np.min(np.abs(rob - 1.0)) < 1e-6
    assert np.min(np.abs(rob)) < 0.03          # Jordan pair splits at roundoff


def test_gap_in_range_and_resolution_robust():
    gaps = [measured_gap(0.75, N) for N in (48, 64, 96)]
    for g in gaps:
        assert 0.0 < g <= 0.5
    assert max(gaps) - min(gaps) <= 0.1 * max(gaps)


def test_measured_gap_memoised(monkeypatch):
    from blowuplab import linop

    calls = []

    def counting_spectrum(*args, **kwargs):
        calls.append(args)
        return spectrum(*args, **kwargs)

    monkeypatch.setattr(linop, "spectrum", counting_spectrum)
    # a (p, N) no other test measures, so the cache starts cold
    gaps = {measured_gap(0.6, 40), measured_gap(p=0.6, N=40)}
    assert len(calls) == 1 and len(gaps) == 1


def test_spectrum_no_robust_unstable_modes():
    rep = spectrum(0.5, GRID)
    rob = rep.robust_eigenvalues
    away = rob[(np.abs(rob) > 0.05) & (np.abs(rob - 1.0) > 0.05)]
    assert np.all(away.real < 0)


# ---------------------------------------------------------------------------
# Riesz projectors

@pytest.fixture(scope="module")
def projectors():
    return riesz_projectors_for(0.75, GRID, omega0=0.5)


def test_projector_ranks(projectors):
    _, r0, _, r1, _ = projectors
    assert (r0, r1) == (2, 1)


def test_projector_idempotency(projectors):
    P0, _, P1, _, _ = projectors
    for P in (P0, P1):
        assert (np.linalg.norm(P @ P - P) / np.linalg.norm(P)) < 1e-8


def test_projectors_disjoint(projectors):
    P0, _, P1, _, _ = projectors
    assert np.linalg.norm(P0 @ P1) < 1e-7


def test_projector_commutes_with_L(projectors):
    P0, _, P1, _, L = projectors
    for P in (P0, P1):
        assert np.linalg.norm(P @ L - L @ P) / np.linalg.norm(L) < 1e-8


def test_projector_ranges(projectors):
    P0, _, P1, _, _ = projectors
    f0, f1, g0 = f0_state(GRID, 0.75), f1_state(GRID, 0.75), g0_state(GRID, 0.75)
    for v in (f0.flat(), g0.flat()):
        assert np.linalg.norm((P0 @ v).real - v) / np.linalg.norm(v) < 1e-6
    v = f1.flat()
    assert np.linalg.norm((P1 @ v).real - v) / np.linalg.norm(v) < 1e-6


def test_riesz_projection_empty_contour():
    # a disc enclosing no spectrum gives the zero projector
    L = assemble_Lp(0.75, ChebGrid.make(32))
    P, rank = riesz_projection(L, 0.5 + 0.0j, 0.2)
    assert rank == 0
    assert np.linalg.norm(P) < 1e-8


def _contour_projector(L, center, radius, nodes=64):
    """(2 pi i)^-1 contour integral of the resolvent (z - L)^-1 over the
    circle, by the trapezoidal rule with complex128 solves."""
    eye = np.eye(len(L))
    P = np.zeros(L.shape, dtype=complex)
    for j in range(nodes):
        w = radius * np.exp(2j * np.pi * (j + 0.5) / nodes)
        P += np.linalg.solve((center + w) * eye - L, eye) * w
    return P / nodes


# double-precision resolvent solves cap the oracle's accuracy, the more so
# as N grows and the operator becomes less normal
@pytest.mark.parametrize("N,rtol", [(32, 1e-6), (64, 1e-5)])
@pytest.mark.parametrize("p", [0.5, 0.75])
def test_schur_projector_matches_contour_oracle(p, N, rtol):
    L = assemble_Lp(p, ChebGrid.make(N))
    for center, radius in ((0.0, 0.25), (1.0, 0.5)):
        P, _ = riesz_projection(L, center, radius)
        C = _contour_projector(L, center, radius)
        assert np.linalg.norm(P - C) / np.linalg.norm(C) < rtol


# ---------------------------------------------------------------------------
# semigroup

def test_semigroup_structure():
    out = semigroup_action_check(0.75, GRID, omega0=0.5)
    assert out["err_P1"] < 1e-6
    assert out["err_P0"] < 1e-6
    assert out["stable_slope"] <= -0.9 * out["omega0"]


# ---------------------------------------------------------------------------
# modified free wave dissipativity

def test_dissipativity_bound():
    worst = free_wave_dissipativity_check(GRID, trials=200, seed=0)
    assert worst <= -0.5 + 1e-3


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000))
def test_dissipativity_bound_any_seed(seed):
    worst = free_wave_dissipativity_check(GRID, trials=20, seed=seed)
    assert worst <= -0.5 + 1e-3


# ---------------------------------------------------------------------------
# closed-form Jordan-structure checks

def test_appendixB_report():
    out = appendixB_no_second_jordan_block()
    assert out["bounded_variation_at_plus1"] < 0.01
    assert out["bounded_variation_wrong_c"] > 0.01
    assert abs(out["d2_log_slope"] + 0.5) < 0.05
    assert abs(out["jump"] - out["jump_expected"]) < 1e-8
    assert out["ode_crosscheck_err"] < 1e-8


def test_appendixB_dv1_finite_inside():
    y = np.linspace(-0.99, 0.99, 101)
    assert np.all(np.isfinite(appendixB_dv1(y)))
