"""Linearised operator: states, energy norms, spectrum, projectors, semigroup."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowuplab import linop
from blowuplab.chebgrid import ChebGrid
from blowuplab.linop import (
    _appendixB_ode_solution,
    _mp_cheb,
    _mp_energy_norm,
    _random_cheb_state,
    appendixB_dv1,
    appendixB_no_second_jordan_block,
    assemble_Lp,
    eigen_triple_residuals,
    energy_norm,
    f0_state,
    f1_state,
    free_wave_dissipativity_check,
    g0_state,
    measured_gap,
    neutral_coordinates,
    potential,
    riesz_projectors_for,
    seminorm_stack,
    semigroup_action_check,
    spectral_split,
    spectrum,
)

GRID = ChebGrid.make(64)


def test_potential_values():
    # 2p/(1 + y sqrt(1-p)) at y = 0 is 2p
    for p in (0.25, 0.75, 1.0):
        assert potential(p, np.array([0.0]))[0] == pytest.approx(2.0 * p)


def test_seminorm_stack_guards():
    with pytest.raises(ValueError, match="k must be >= 0"):
        seminorm_stack(16, -1)
    with pytest.warns(RuntimeWarning, match="under-resolves"):
        seminorm_stack(8, 4)


@pytest.mark.parametrize("p", [0.0, 1.5])
def test_assemble_Lp_rejects_p_outside_unit_interval(p):
    with pytest.raises(ValueError, match=r"p must lie in \(0,1\]"):
        assemble_Lp(p, GRID)


def test_energy_norm_positive_and_scaling():
    q = np.stack([GRID.y ** 2, GRID.y])
    n1 = energy_norm(4, q, GRID)
    n2 = energy_norm(4, 2 * q, GRID)
    assert n1 > 0
    assert n2 == pytest.approx(2.0 * n1, rel=1e-12)


# ---------------------------------------------------------------------------
# eigen-triples

def test_eigen_triple_states_satisfy_collocation_identities():
    p = 0.75
    L = assemble_Lp(p, GRID)
    f0, f1, g0 = (s(GRID, p).ravel() for s in (f0_state, f1_state, g0_state))
    assert np.max(np.abs(L @ f0)) < 1e-8
    assert np.max(np.abs(L @ f1 - f1)) < 1e-8
    assert np.max(np.abs(L @ g0 - f0)) < 1e-7
    # double-precision collocation only; the 1e-7 certification runs in
    # extended precision (test_eigen_triple_residuals_certified)
    assert np.max(np.abs(L @ (L @ g0))) < 1e-5


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75, 0.9])
def test_eigen_triple_residuals_certified(p):
    res = eigen_triple_residuals(p)
    assert max(res.values()) < 1e-7


def test_certificate_norm_is_the_k0_energy_norm():
    """The certificate's mpmath norm is the norm of seminorm_stack at k = 0,
    each term counted once."""
    import mpmath as mp

    N = 32
    grid = ChebGrid.make(N)
    q = _random_cheb_state(np.random.Generator(np.random.Philox(3)), grid, N // 2)
    with mp.workdps(35):
        _, D, w = _mp_cheb(N)
        halves = [np.array([mp.mpf(float(v)) for v in part], dtype=object)
                  for part in (q[:N + 1], q[N + 1:])]
        mp_norm = float(_mp_energy_norm(halves, D, w))
    assert mp_norm == pytest.approx(np.linalg.norm(seminorm_stack(N, 0) @ q),
                                    rel=1e-12)


def test_mp_grid_is_exact_at_working_precision():
    """chebgrid's D and weights on mpmath nodes stay in mpmath: D
    differentiates and w integrates polynomials of degree < N to 1e-30, far
    below double precision, and every entry is an mpf."""
    import mpmath as mp

    N = 16
    with mp.workdps(35):
        y, D, w = _mp_cheb(N)
        assert all(isinstance(v, mp.mpf) for v in (*y, *D.ravel(), *w))
        for deg in range(N):
            exact = mp.mpf(2) / (deg + 1) if deg % 2 == 0 else 0
            assert abs(w @ y ** deg - exact) < mp.mpf(10) ** -30
            dv = deg * y ** (deg - 1) if deg else 0 * y
            assert max(abs(a - b) for a, b in zip(D @ y ** deg, dv)) < mp.mpf(10) ** -28


# ---------------------------------------------------------------------------
# spectrum and gap

def test_spectrum_contains_symmetry_modes():
    rep = spectrum(0.75, GRID)
    rob = rep.eigenvalues[rep.robust]
    assert np.min(np.abs(rob - 1.0)) < 1e-6
    assert np.min(np.abs(rob)) < 0.03          # Jordan pair splits at roundoff


def test_gap_in_range_and_resolution_robust():
    gaps = [measured_gap(0.75, N) for N in (48, 64, 96)]
    for g in gaps:
        assert 0.0 < g <= 0.5
        # the split's disc about 0 lies within half the gap
        assert linop.SPLIT_RADIUS0 <= g / 2
    assert max(gaps) - min(gaps) <= 0.1 * max(gaps)


# zeros of the Gauss connection defect with Re > -1.5 and their order: the
# pole of Gamma(lambda - 1) at 1, the poles of both Gamma at 0 and -1
_LADDER = ((1.0, 1), (0.0, 2), (-1.0, 2))


@pytest.mark.parametrize("N", [48, 64, 96])
@pytest.mark.parametrize("p", [0.5, 0.75, 0.9])
def test_spectrum_matches_closed_form_ladder(p, N):
    """The robust eigenvalues with Re > -1.5 are the closed-form zeros with
    their orders: cluster means within 2e-4, members within 1e-2, and
    gap_raw (the pair at -1) within 1e-2 of 1."""
    rep = spectrum(p, ChebGrid.make(N))
    rob = rep.eigenvalues[rep.robust]
    top = rob[rob.real > -1.5]
    assert len(top) == sum(order for _, order in _LADDER)
    for zero, order in _LADDER:
        members = top[np.abs(top - zero) < 0.5]
        assert len(members) == order
        assert abs(members.mean() - zero) < 2e-4
        assert np.max(np.abs(members - zero)) < 1e-2
    assert abs(rep.gap_raw - 1.0) < 1e-2


def test_spectrum_no_robust_unstable_modes():
    rep = spectrum(0.5, GRID)
    rob = rep.eigenvalues[rep.robust]
    away = rob[(np.abs(rob) > 0.05) & (np.abs(rob - 1.0) > 0.05)]
    assert np.all(away.real < 0)


# ---------------------------------------------------------------------------
# Riesz projectors

@pytest.fixture(scope="module")
def projectors():
    return riesz_projectors_for(0.75, GRID)


def test_projector_ranks(projectors):
    P0, r0, P1, r1, _ = projectors
    assert (r0, r1) == (2, 1)
    # the ranks are counted from W: P = Z W with orthonormal Z shares its
    # singular values
    _, W0, _, W1 = spectral_split(0.75, GRID.N)
    for P, W in ((P0, W0), (P1, W1)):
        sw = np.linalg.svd(W, compute_uv=False)
        sp = np.linalg.svd(P, compute_uv=False)[:len(sw)]
        assert np.allclose(sw, sp, rtol=1e-12, atol=0.0)


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
    for v in (f0.ravel(), g0.ravel()):
        assert np.linalg.norm((P0 @ v).real - v) / np.linalg.norm(v) < 1e-6
    v = f1.ravel()
    assert np.linalg.norm((P1 @ v).real - v) / np.linalg.norm(v) < 1e-6


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
    Z0, W0, Z1, W1 = spectral_split(p, N)
    for P, center, radius in ((Z0 @ W0, 0.0, 0.25), (Z1 @ W1, 1.0, 0.5)):
        C = _contour_projector(L, center, radius)
        assert np.linalg.norm(P - C) / np.linalg.norm(C) < rtol


def test_split_mode_at_one_matches_contour_oracle():
    """P1 = Z1 W1 reads 4.0e-9 from the contour projector at p = 0.5,
    N = 64, 250 times below the N = 64 tolerance of the test above."""
    Z0, W0, Z1, W1 = spectral_split(0.5, 64)
    C = _contour_projector(assemble_Lp(0.5, GRID), 1.0, 0.5)
    assert np.linalg.norm(Z1 @ W1 - C) / np.linalg.norm(C) < 1e-7


def test_spectral_split_factors():
    """Real read-only factors; Z0 an orthonormal basis of the cluster at 0
    and Z1 the unit eigenvector at 1; W = [W0; W1] a left inverse of
    [Z0, Z1]."""
    Z0, W0, Z1, W1 = spectral_split(0.75, 64)
    assert (Z0.shape[1], Z1.shape[1]) == (2, 1)
    assert not any(a.flags.writeable for a in (Z0, W0, Z1, W1))
    assert all(a.dtype == np.float64 for a in (Z0, W0, Z1, W1))
    Z = np.column_stack([Z0, Z1])
    assert np.max(np.abs(Z0.conj().T @ Z0 - np.eye(2))) < 1e-12
    assert abs(np.linalg.norm(Z1) - 1.0) < 1e-12
    L = assemble_Lp(0.75, GRID)
    assert np.max(np.abs(np.linalg.eigvals(Z0.conj().T @ L @ Z0))) < 0.01
    assert np.linalg.norm(L @ Z1 - Z1) < 1e-6 * np.linalg.norm(L @ Z1)
    W = np.vstack([W0, W1])
    assert np.max(np.abs(W @ Z - np.eye(3))) < 1e-9


def test_one_split_build_per_p_N(monkeypatch):
    """The projectors, the neutral coordinates and the semigroup check at
    one fresh (p, N) share one build of the split."""
    builds = []
    balance = linop._balance

    def counting_balance(A):
        builds.append(A.shape)
        return balance(A)

    monkeypatch.setattr(linop, "_balance", counting_balance)
    spectral_split.cache_clear()
    p, N = 0.65, 40
    grid = ChebGrid.make(N)
    riesz_projectors_for(p, grid)
    neutral_coordinates(p, N)
    semigroup_action_check(p, grid, seed=0)
    assert builds == [(2 * (N + 1), 2 * (N + 1))]


def _schur_split(p, N):
    """(P0, P1) from the Schur-Sylvester split that spectral_split replaced
    (Bavely & Stewart 1979): one complex Schur form of L_p sorted on the two
    discs, a 3 x 3 one sorted on the disc about 0, two Sylvester solves."""
    from scipy.linalg import schur, solve_sylvester

    L = assemble_Lp(p, ChebGrid.make(N))
    T, Z, m = schur(L.astype(complex), output="complex",
                    sort=lambda z: (abs(z) < linop.SPLIT_RADIUS0
                                    or abs(z - 1.0) < linop.SPLIT_RADIUS1))
    T11, Q, m0 = schur(T[:3, :3], output="complex",
                       sort=lambda z: abs(z) < linop.SPLIT_RADIUS0)
    assert (m, m0) == (3, 2)
    Z3 = Z[:, :3] @ Q
    R = solve_sylvester(T11, -T[3:, 3:], Q.conj().T @ T[:3, 3:])
    Wh = Z3.conj().T + R @ Z[:, 3:].conj().T
    r = solve_sylvester(T11[:2, :2], -T11[2:, 2:], T11[:2, 2:])
    x1 = np.vstack([-r, [[1.0]]])
    return Z3[:, :2] @ (Wh[:2] + r @ Wh[2:]), Z3 @ x1 @ Wh[2:]


# Measured distances, one and two BLAS threads: P0 5e-9 to 5.8e-8 at
# N = 32 and 2.6e-7 to 9.4e-7 at N = 64, P1 at most 6.3e-10 and 2.0e-8.
# They are the Schur split's own rounding: against the contour projector
# the Schur P0 reads up to 9.5e-7 at N = 64, spectral_split's 9.2e-8.
@pytest.mark.parametrize("N,rtol", [(32, 5e-7), (64, 5e-6)])
@pytest.mark.parametrize("p", [0.5, 0.75, 0.9])
def test_split_matches_schur_sylvester_split(p, N, rtol):
    Z0, W0, Z1, W1 = spectral_split(p, N)
    for P, ref in zip((Z0 @ W0, Z1 @ W1), _schur_split(p, N)):
        assert np.linalg.norm(P - ref) / np.linalg.norm(ref) < rtol


def test_balance_is_a_power_of_two_similarity():
    """D^-1 L D with D a diagonal of powers of two, so balancing rounds
    nothing; it takes ||L||_2 from 2.6e6 to 3.3e3 at p = 0.75, N = 64."""
    L = assemble_Lp(0.75, GRID)
    d = linop._balance(L)
    assert np.all(np.frexp(d)[0] == 0.5)
    B = L * d / d[:, None]
    assert np.array_equal(B * d[:, None] / d, L)
    assert np.linalg.norm(L, 2) > 1e6
    assert np.linalg.norm(B, 2) < 5e3


def test_split_raises_when_newton_stalls(monkeypatch):
    """A defect the Newton steps cannot reach is a ValueError, not a split."""
    monkeypatch.setattr(linop, "SPLIT_DEFECT_TOL", 0.0)
    spectral_split.cache_clear()
    with pytest.raises(ValueError, match="not refined"):
        spectral_split(0.7, 24)


def test_split_at_p_one():
    """At p = 1 the Jordan pair at 0 splits into (y, y) and f0 and no g0
    exists; the split still gives ranks 2 and 1 and idempotent projectors."""
    P0, r0, P1, r1, L = riesz_projectors_for(1.0, ChebGrid.make(32))
    assert (r0, r1) == (2, 1)
    for P in (P0, P1):
        assert np.linalg.norm(P @ P - P) / np.linalg.norm(P) < 1e-8
        assert np.linalg.norm(P @ L - L @ P) / np.linalg.norm(L) < 1e-8


# ---------------------------------------------------------------------------
# neutral-mode coordinates

# L V = V M on V = [g0, f0, f1]: L g0 = f0, L f0 = 0, L f1 = f1
_JORDAN_M = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("N", [48, 64])
@pytest.mark.parametrize("p", [0.5, 0.75, 0.9])
def test_neutral_coordinates_match_projector_oracle(p, N):
    """Phi d are the coordinates in V of (P0 + P1) d, the Riesz projectors'
    image; Phi V = I; Phi L V = M; Phi annihilates the stable modes."""
    grid = ChebGrid.make(N)
    Phi, V = neutral_coordinates(p, N)
    P0, _, P1, _, L = riesz_projectors_for(p, grid)
    for seed in range(3):
        rng = np.random.Generator(np.random.Philox(seed))
        d = _random_cheb_state(rng, grid, N // 2)
        ref = np.linalg.lstsq(V, ((P0 + P1) @ d).real, rcond=None)[0]
        assert np.linalg.norm(Phi @ d - ref) < 1e-5 * np.linalg.norm(ref)
    assert np.max(np.abs(Phi @ V - np.eye(3))) < 1e-9
    assert np.max(np.abs(Phi @ L @ V - _JORDAN_M)) < 1e-6
    lam, X = np.linalg.eig(L)
    stable = X[:, lam.real < -0.5]
    stable = stable / np.linalg.norm(stable, axis=0)
    assert np.max(np.abs(Phi @ stable)) < 1e-6


@pytest.mark.parametrize("p", [0.6, 0.75, 0.9])
def test_neutral_coordinates_smooth_in_p(p):
    """Phi d under 9 steps of 1e-12 in p lies on a line to 1e-8 relative:
    the largest deviation read 1e-12 to 7e-10 (it read 1.1e-8 to 2.2e-6
    with the unbalanced Schur split, whose rounding set the modulation
    fit's noise floor)."""
    d = _random_cheb_state(np.random.Generator(np.random.Philox(0)), GRID,
                           GRID.N // 2)
    ks = np.arange(9)
    ells = np.array([neutral_coordinates(p + k * 1e-12, GRID.N)[0] @ d
                     for k in ks])
    for ell in ells.T:
        line = np.polyval(np.polyfit(ks, ell, 1), ks)
        assert np.max(np.abs(ell - line)) < 1e-8 * np.max(np.abs(ell))


def test_neutral_coordinates_recover_basis_combination():
    Phi, V = neutral_coordinates(0.75, 64)
    combo = V @ np.array([0.5, -2.0, 3.0])
    assert np.allclose(Phi @ combo, [0.5, -2.0, 3.0], atol=1e-9)
    # the columns of V are the closed-form modes
    assert np.array_equal(V[:, 0], g0_state(GRID, 0.75).ravel())
    assert np.array_equal(V[:, 2], f1_state(GRID, 0.75).ravel())


def test_neutral_condition_grows_as_p_to_one(monkeypatch):
    """cond(Wh V) grows as the basis degenerates at p -> 1 (17, 5.1e2 and
    1.6e4 at p = 0.9, 0.99, 0.999), and a limit below it raises."""
    conds = []
    for p in (0.9, 0.99, 0.999):
        _, W0, _, W1 = spectral_split(p, 64)
        _, V = neutral_coordinates(p, 64)
        conds.append(np.linalg.cond(np.vstack([W0, W1]) @ V))
    assert conds[0] < conds[1] < conds[2]
    monkeypatch.setattr(linop, "NEUTRAL_COND_LIMIT", conds[2] / 2.0)
    with pytest.raises(ValueError, match="nearly degenerate"):
        neutral_coordinates(0.999, 64)


def test_neutral_coordinates_wrong_count_raises(monkeypatch):
    # a disc about 0 of radius 1.5 also takes in stable eigenvalues
    monkeypatch.setattr(linop, "SPLIT_RADIUS0", 1.5)
    spectral_split.cache_clear()
    with pytest.raises(ValueError, match="expected 3"):
        neutral_coordinates(0.6, 32)


def test_split_reads_L_alone(monkeypatch):
    """The split measures no spectrum: projectors and coordinates at a
    fresh (p, N) build with spectrum() unreachable."""
    def no_spectrum(*args, **kwargs):
        raise AssertionError("spectral_split measured the spectrum")

    monkeypatch.setattr(linop, "spectrum", no_spectrum)
    p, N = 0.55, 36
    _, r0, _, r1, _ = riesz_projectors_for(p, ChebGrid.make(N))
    Phi, V = neutral_coordinates(p, N)
    assert (r0, r1) == (2, 1)
    assert np.max(np.abs(Phi @ V - np.eye(3))) < 1e-9


def test_neutral_coordinates_where_gap_unmeasured(monkeypatch):
    """The split never consults the gap: with `spectrum` raising, the
    neutral coordinates at N = 96 still give Phi V = I to 1e-9.  Near these
    p the two-resolution gap is not measurable, at a p that moves with the
    BLAS rounding."""
    def no_spectrum(*args, **kwargs):
        raise AssertionError("spectral_split measured the spectrum")

    spectral_split.cache_clear()
    monkeypatch.setattr(linop, "spectrum", no_spectrum)
    for p in (0.69, 0.72):
        Phi, V = neutral_coordinates(p, 96)
        assert np.max(np.abs(Phi @ V - np.eye(3))) < 1e-9


@pytest.mark.parametrize("gap", [float("nan"), 0.0, -0.3])
def test_measured_gap_raises_when_unmeasured(monkeypatch, gap):
    """A gap that is not finite and positive is a RuntimeError, whatever
    the spectrum it came from."""
    def report(p, grid):
        return linop.SpectrumReport(eigenvalues=np.zeros(0),
                                    residuals=np.zeros(0),
                                    robust=np.zeros(0, bool), gap_omega0=gap)

    monkeypatch.setattr(linop, "spectrum", report)
    with pytest.raises(RuntimeError, match="could not measure"):
        measured_gap(0.75, 48)


# ---------------------------------------------------------------------------
# semigroup

@pytest.fixture(scope="module")
def semigroup_out():
    return semigroup_action_check(0.75, GRID, seed=0)


def test_semigroup_structure(semigroup_out):
    out = semigroup_out
    assert out["err_P1"] < 1e-6
    assert out["err_P0"] < 1e-6
    assert out["stable_slope"] <= -0.9 * out["omega0"]


def test_semigroup_stable_norms_decrease(semigroup_out):
    norms = semigroup_out["stable_norms"][semigroup_out["tau"] >= 1.0]
    assert np.all(np.diff(norms) < 0)


def test_semigroup_stable_norms_match_quarter_step_oracle(semigroup_out):
    """The stable part (I - P0 - P1) r from the dense Riesz projectors,
    carried by products of expm(0.25 L) instead of expm(0.5 L)."""
    from scipy.linalg import expm

    P0, _, P1, _, L = riesz_projectors_for(0.75, GRID)
    rng = np.random.Generator(np.random.Philox(0))
    r = _random_cheb_state(rng, GRID, GRID.N // 2)
    q = r - P0 @ r - P1 @ r
    E = expm(0.25 * L)
    S = seminorm_stack(GRID.N)
    oracle = []
    for _ in semigroup_out["tau"]:
        oracle.append(np.linalg.norm(S @ q))
        q = E @ (E @ q)
    np.testing.assert_allclose(semigroup_out["stable_norms"], oracle,
                               rtol=1e-3)


def test_semigroup_lowrank_norms_match_dense(semigroup_out):
    """err_P1 and err_P0 from the thin-QR 2-norms against dense 2-norms of
    the n x n residuals (E^j Z - ...) W, on the same propagator."""
    from scipy.linalg import expm

    L = assemble_Lp(0.75, GRID)
    Z0, W0, Z1, W1 = spectral_split(0.75, 64)
    assert (Z0.shape[1], Z1.shape[1]) == (2, 1)
    P0, P1 = Z0 @ W0, Z1 @ W1
    nP0, nP1 = np.linalg.norm(P0, 2), np.linalg.norm(P1, 2)
    E = expm(0.5 * L)
    EZ0, EZ1 = Z0, Z1
    err_P0, err_P1 = [], []
    for j, tau in enumerate(semigroup_out["tau"]):
        if j:
            EZ0, EZ1 = E @ EZ0, E @ EZ1
        err_P1.append(np.linalg.norm((EZ1 - math.exp(tau) * Z1) @ W1, 2)
                      / (math.exp(tau) * nP1))
        err_P0.append(np.linalg.norm((EZ0 - Z0 - tau * L @ Z0) @ W0, 2)
                      / ((1 + tau) * nP0))
    assert semigroup_out["err_P1"] == pytest.approx(max(err_P1), rel=1e-10)
    assert semigroup_out["err_P0"] == pytest.approx(max(err_P0), rel=1e-10)


# ---------------------------------------------------------------------------
# modified free wave dissipativity

def test_dissipativity_bound():
    worst = free_wave_dissipativity_check(GRID, trials=200, seed=0)
    assert worst <= -0.5 + 1e-3


def test_dissipativity_nan_quotient_propagates(monkeypatch):
    """A NaN quotient at the second trial is the result; Python's max
    drops it after the finite first one."""
    draws = []

    def nan_at_second(rng, grid, degree):
        draws.append(degree)
        q = _random_cheb_state(rng, grid, degree)
        return q * math.nan if len(draws) == 2 else q

    monkeypatch.setattr(linop, "_random_cheb_state", nan_at_second)
    assert np.isnan(free_wave_dissipativity_check(GRID, trials=3, seed=0))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000))
def test_dissipativity_bound_any_seed(seed):
    worst = free_wave_dissipativity_check(GRID, trials=20, seed=seed)
    assert worst <= -0.5 + 1e-3


def _dissipativity_sup(L: np.ndarray, grid: ChebGrid, k: int) -> float:
    """sup Re<L q, q>_k / ||q||_k^2 over the states whose halves are
    Chebyshev series of degree <= N/2: with B the block-diagonal Chebyshev
    basis and S B = Q1 R a thin QR, the largest eigenvalue of the symmetric
    part of Q1^T (S L B) R^-1."""
    B = np.kron(np.eye(2),
                np.polynomial.chebyshev.chebvander(grid.y, grid.N // 2))
    S = seminorm_stack(grid.N, k)
    Q1, R = np.linalg.qr(S @ B)
    M = np.linalg.solve(R.T, (Q1.T @ (S @ (L @ B))).T).T
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[-1])


@pytest.mark.parametrize("N", [32, 64])
@pytest.mark.parametrize("k", [0, 1])
def test_dissipativity_supremum(N, k):
    """The supremum itself, not a sample of it, is -1/2."""
    grid = ChebGrid.make(N)
    sup = _dissipativity_sup(linop.assemble_free_modified(grid), grid, k)
    assert sup == pytest.approx(-0.5, abs=1e-3)


def _without_trace(grid):
    return linop._assemble(grid, np.zeros_like(grid.y))


def _damped(c):
    def mutate(grid):
        L = linop.assemble_free_modified(grid)
        n = grid.N + 1
        L[n:, n:] += (1.0 - c) * np.eye(n)    # -q2 becomes -c q2
        return L
    return mutate


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("mutant", [_without_trace, _damped(0.6), _damped(0.55)],
                         ids=["no_trace", "damping_0.6", "damping_0.55"])
def test_dissipativity_supremum_sees_mutations(mutant, k):
    """Each weakening of assemble_free_modified lifts the supremum above the
    -1/2 + 1e-3 gate (measured at N = 64: no trace +0.50 / +0.25, damping
    0.6 -0.10 / -0.30, damping 0.55 -0.05 / -0.26 at k = 0 / 1)."""
    assert _dissipativity_sup(mutant(GRID), GRID, k) > -0.5 + 1e-3


# ---------------------------------------------------------------------------
# closed-form Jordan-structure checks

def test_appendixB_report():
    out = appendixB_no_second_jordan_block()
    assert out["bounded_variation_at_plus1"] < 0.01
    assert out["bounded_variation_wrong_c"] > 0.01
    assert abs(out["d2_log_slope"] + 0.5) < 0.05
    assert abs(out["jump"] - out["jump_expected"]) < 1e-8
    assert out["ode_crosscheck_err"] < 1e-8


APPENDIXB_TARGETS = np.array([0.5, 0.9, -0.5, -0.9])


def test_appendixB_rk4_fourth_order():
    exact = appendixB_dv1(APPENDIXB_TARGETS)
    e50, e100 = (np.max(np.abs(_appendixB_ode_solution(APPENDIXB_TARGETS, n)
                               - exact)) for n in (50, 100))
    assert 12.0 <= e50 / e100 <= 20.0


def test_appendixB_recurrence_matches_stepwise_rk4():
    """The affine recurrence against classical RK4 stepped on (s, v), with
    s riding along as a state component."""
    from blowuplab.evolve import _rk4

    yt = APPENDIXB_TARGETS

    def f(u):
        s, v = u
        return np.array([np.ones_like(s),
                         yt * linop._appendixB_ode_rhs(s * yt, v)])

    for steps in (50, 1000):
        u = np.array([np.zeros_like(yt), np.full_like(yt, appendixB_dv1(0.0))])
        for _ in range(steps):
            u = _rk4(f, u, 1.0 / steps)
        np.testing.assert_allclose(_appendixB_ode_solution(yt, steps), u[1],
                                   rtol=0.0, atol=1e-13)


def test_appendixB_rk4_matches_solve_ivp():
    from scipy.integrate import solve_ivp

    ours = _appendixB_ode_solution(APPENDIXB_TARGETS)
    v0 = float(appendixB_dv1(0.0))
    for yt, v in zip(APPENDIXB_TARGETS, ours):
        sol = solve_ivp(linop._appendixB_ode_rhs, (0.0, yt), [v0],
                        rtol=1e-11, atol=1e-13)
        assert abs(sol.y[0, -1] - v) < 1e-10


def test_appendixB_dv1_finite_inside():
    y = np.linspace(-0.99, 0.99, 101)
    assert np.all(np.isfinite(appendixB_dv1(y)))
