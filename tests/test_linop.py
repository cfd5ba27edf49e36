"""Linearised operator: states, energy norms, spectrum, projectors, semigroup."""

import inspect
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowuplab import linop
from blowuplab.chebgrid import ChebGrid
from blowuplab.linop import (
    _appendixB_ode_solution,
    _dd_cheb,
    _dd_div,
    _dd_energy_norm,
    _dd_matvec,
    _dd_mul,
    _dd_sub,
    _dd_sum,
    _random_cheb_state,
    _two_prod,
    _two_sum,
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
from blowuplab.modeanalysis import lorentz_frame_params

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


@pytest.mark.parametrize("k", [0, 4])
def test_energy_norm_bit_identical(k):
    """energy_norm takes sqrt(v @ v); on random states that is the same
    float, bit for bit, as np.linalg.norm(S @ q)."""
    S = seminorm_stack(GRID.N, k)
    rng = np.random.Generator(np.random.Philox(k))
    for _ in range(20):
        q = _random_cheb_state(rng, GRID, GRID.N // 2)
        assert energy_norm(k, q, GRID) == float(np.linalg.norm(S @ q))


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


# zero and float64 values whose exponents differ widely: products stay far
# from overflow and keep their rounding error above the subnormal range
WIDE_FLOATS = st.just(0.0) | st.builds(
    lambda sign, m, e: sign * math.ldexp(m, e), st.sampled_from([1.0, -1.0]),
    st.floats(1.0, 2.0, exclude_max=True), st.integers(-400, 400))


@settings(max_examples=300, deadline=None)
@given(WIDE_FLOATS, WIDE_FLOATS)
def test_two_sum_and_two_prod_are_error_free(a, b):
    """a + b = s + e and a * b = p + e hold exactly, s and p the rounded
    float64 sum and product."""
    fa, fb = Fraction(a), Fraction(b)
    s, e = _two_sum(np.float64(a), np.float64(b))
    assert s == a + b and Fraction(s) + Fraction(e) == fa + fb
    p, e = _two_prod(np.float64(a), np.float64(b))
    assert p == a * b and Fraction(p) + Fraction(e) == fa * fb


def test_certificate_norm_is_the_k0_energy_norm():
    """The certificate's dd norm is the norm of seminorm_stack at k = 0."""
    N = 32
    grid = ChebGrid.make(N)
    q = _random_cheb_state(np.random.Generator(np.random.Philox(3)), grid, N // 2)
    zero = np.zeros(N + 1)
    _, _, D, w = _dd_cheb(N)
    dd_norm = _dd_energy_norm(((q[:N + 1], zero), (q[N + 1:], zero)), D, w)
    assert float(dd_norm[0]) == pytest.approx(
        np.linalg.norm(seminorm_stack(N, 0) @ q), rel=1e-12)


def test_dd_grid_is_exact_at_working_precision():
    """The dd D and weights, built from the decimal nodes, differentiate and
    integrate polynomials of degree < N far below double precision: D to
    1e-28 and w to 1e-30."""
    N = 16
    _, y, D, w = _dd_cheb(N)
    one = (np.ones(N + 1), np.zeros(N + 1))
    powers = [one]                                  # y**deg, deg = 0..N-1
    for _ in range(N - 1):
        powers.append(_dd_mul(powers[-1], y))
    for deg, y_deg in enumerate(powers):
        exact = _dd_div((2.0 * (deg % 2 == 0), 0.0), (deg + 1.0, 0.0))
        assert abs(_dd_sub(_dd_sum(_dd_mul(w, y_deg)), exact)[0]) < 1e-30
        dv = _dd_mul((float(deg), 0.0), powers[deg - 1]) if deg else (0.0, 0.0)
        err = _dd_sub(_dd_matvec(D, y_deg), dv)
        assert np.max(np.abs(err[0])) < 1e-28


def _mp_eigen_triple_residuals(p, N):
    """The four residuals of eigen_triple_residuals in 35-digit mpmath, from
    chebgrid's D and weights applied to mpmath nodes."""
    import mpmath as mp

    from blowuplab.chebgrid import cheb_diff, clenshaw_curtis_weights

    with mp.workdps(35):
        y = np.frompyfunc(mp.cos, 1, 1)(mp.pi * np.arange(N + 1) / N)
        D, w = cheb_diff(y), clenshaw_curtis_weights(y)

        def matvec(q):
            return np.array([mp.fdot(row, q) for row in D], dtype=object)

        def norm(q):
            dq1 = matvec(q[0])
            return mp.sqrt(w @ (dq1 * dq1) + q[0][-1] ** 2 + w @ (q[1] * q[1]))

        def Lp(q):
            dq1 = matvec(q[0])
            return (-y * dq1 + q[1],
                    matvec(dq1) - y * matvec(q[1]) + (U - 1) * q[1])

        pm = mp.mpf(p)
        g = mp.sqrt(1 - pm)
        d = 1 + y * g
        U = 2 * pm / d
        zero = np.array([mp.mpf(0)] * (N + 1), dtype=object)
        f0 = (zero + 1, zero.copy())
        f1 = (-pm * g / d, -pm * g / d**2)
        g0 = (np.array([-mp.log1p(yi * g) for yi in y], dtype=object)
              - pm / (2 * (1 - pm)) / d,
              ((2 - pm) * y + 2 * g) / (2 * g * d**2))
        Lf1, Lg0 = Lp(f1), Lp(g0)
        return {
            "res_f0": float(norm(Lp(f0)) / norm(f0)),
            "res_f1": float(norm((Lf1[0] - f1[0], Lf1[1] - f1[1])) / norm(f1)),
            "res_g0": float(norm((Lg0[0] - f0[0], Lg0[1] - f0[1])) / norm(g0)),
            "res_L2g0": float(norm(Lp(Lg0)) / norm(g0)),
        }


@pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.6, 0.75, 0.9, 0.99])
def test_dd_residuals_match_mpmath(p):
    """Every dd residual lies within 1e-22 of the 35-digit mpmath one: they
    agree wherever mpmath reads above that, from 3e-2 at p = 0.1 down."""
    dd = eigen_triple_residuals(p, 64)
    oracle = _mp_eigen_triple_residuals(p, 64)
    assert dd.keys() == oracle.keys()
    for key, value in oracle.items():
        assert abs(dd[key] - value) < 1e-22, key


# ---------------------------------------------------------------------------
# spectrum and gap

def test_spectrum_contains_symmetry_modes():
    lam = spectrum(0.75, GRID).eigenvalues
    assert np.min(np.abs(lam - 1.0)) < 1e-6
    assert np.min(np.abs(lam)) < 0.03          # Jordan pair splits at roundoff


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
    """The N-grid eigenvalues with Re > -1.5 are the closed-form zeros with
    their orders: cluster means within 2e-4, members within 1e-2, and
    gap_raw (the pair at -1) within 1e-2 of 1."""
    rep = spectrum(p, ChebGrid.make(N))
    lam = rep.eigenvalues
    top = lam[lam.real > -1.5]
    assert len(top) == sum(order for _, order in _LADDER)
    for zero, order in _LADDER:
        members = top[np.abs(top - zero) < 0.5]
        assert len(members) == order
        assert abs(members.mean() - zero) < 2e-4
        assert np.max(np.abs(members - zero)) < 1e-2
    assert abs(rep.gap_raw - 1.0) < 1e-2


def test_spectrum_no_unstable_modes():
    lam = spectrum(0.5, GRID).eigenvalues
    away = lam[(np.abs(lam) > 0.05) & (np.abs(lam - 1.0) > 0.05)]
    assert np.all(away.real < 0)


def _k_norm_smin(p, k, N, z):
    """sigma_min(L_p - z) in the k-norm: with seminorm_stack(N, k) = Q R,
    ||q||_k = ||R q||, so it is sigma_min(R (L_p - z) R^-1)."""
    L = assemble_Lp(p, ChebGrid.make(N))
    R = np.linalg.qr(seminorm_stack(N, k), mode="r")
    M = np.linalg.solve(R.T, (R @ (L - z * np.eye(len(L)))).T).T
    return np.linalg.svd(M, compute_uv=False)[-1]


# (k, p) pairs whose continuum edge separates at N <= 64; at k = 2 with
# p <= 0.5 the Jordan pair at -1 sets sigma_min on both sides of the edge
@pytest.mark.parametrize("k,p", [(0, 0.5), (1, 0.75), (1, 0.9), (2, 0.9)])
def test_continuum_edge_of_the_k_norm(k, p):
    """On H^{k+1} x H^k every lambda with Re lambda < sigma_k =
    1/2 + sqrt(1-p) - k is spectrum (README).  The non-smooth exponents
    -lambda + U_p(+-1)/2 of the eigen-ODE are c - a - b at y = 1 and 1 - c
    at y = -1 of the boosted frame; the branch (1+y)^(1-c) leaves H^{k+1}
    exactly at the edge.  Left of it sigma_min(L_p - z) in the k-norm falls
    as N doubles (it tends to 0); right of it it holds still."""
    g = math.sqrt(1.0 - p)
    U_plus, U_minus = potential(p, np.array([1.0, -1.0]))
    for lam in (0.3, -1.2 + 0.7j, 2.5 - 1.1j):
        a, b, c = lorentz_frame_params(p, lam)
        assert abs(-lam + U_plus / 2 - (c - a - b)) < 1e-14
        assert abs(-lam + U_minus / 2 - (1 - c)) < 1e-14
        assert abs((1 - g - lam) - (c - a - b)) < 1e-14
        assert abs((1 + g - lam) - (1 - c)) < 1e-14
    sigma_k = 0.5 + g - k
    below, above = [_k_norm_smin(p, k, 64, z) / _k_norm_smin(p, k, 32, z)
                    for z in (sigma_k - 0.3 + 0.7j, sigma_k + 0.3 + 0.7j)]
    assert below < 0.7
    assert above > 0.85


def _branch_residuals(p, lam, s):
    """(indicial residual, relative ODE residuals at t = 0.05 and 0.1) of
    the Frobenius series t^s sum a_n t^n, t = 1 + y, of the eigen-ODE
    (1 - y^2) q'' - y (2 lam + 2 - U_p) q' - lam (lam + 1 - U_p) q = 0.
    Times (1 + g y) the ODE reads A q'' + B q' + C q = 0 with A, B and C
    polynomials in t (A(0) = 0), so the a_n follow a three-term recurrence;
    the residual takes the ODE as written, by mp.diff of the summed series."""
    import mpmath as mp

    g = mp.sqrt(1 - p)
    A = {1: 2 * (1 - g), 2: 3 * g - 1, 3: -g}
    b0, b1 = (2 * lam + 2) * (1 - g) - 2 * p, (2 * lam + 2) * g
    B = {0: b0, 1: b1 - b0, 2: -b1}
    C = {0: -lam * ((lam + 1) * (1 - g) - 2 * p), 1: -lam * (lam + 1) * g}

    def coef(n, j):
        """Factor of a_n in the equation of the power t^(n + j + s - 1)."""
        r = n + s
        return (r * (r - 1) * A.get(j + 1, 0) + r * B.get(j, 0)
                + C.get(j - 1, 0))

    a = [mp.mpc(1)]
    for m in range(1, 100):
        a.append(-sum(a[n] * coef(n, m - n) for n in (m - 2, m - 1) if n >= 0)
                 / coef(m, 0))

    def q(y):
        return sum(an * (1 + y) ** (n + s) for n, an in enumerate(a))

    out = [abs(coef(0, 0))]
    for t in (mp.mpf("0.05"), mp.mpf("0.1")):
        y = t - 1
        U = 2 * p / (1 + g * y)
        terms = [(1 - y ** 2) * mp.diff(q, y, 2),
                 -y * (2 * lam + 2 - U) * mp.diff(q, y, 1),
                 -lam * (lam + 1 - U) * q(y)]
        out.append(abs(sum(terms)) / sum(abs(v) for v in terms))
    return out


@pytest.mark.parametrize("p,lam", [(0.75, 0.3), (0.5, -1.2 + 0.7j),
                                   (0.9, 2.5 - 1.1j)])
def test_singular_branch_solves_the_eigen_ode(p, lam):
    """(1 + y)^(1 + g - lam), g = sqrt(1 - p), leads a local solution of
    the eigen-ODE at y = -1: the branch whose H^{k+1} membership sets the
    continuum edge.  Its series solves the ODE to 1e-12 at 40 digits; with
    the exponent moved by 1e-3 the residual is above 1e-6."""
    import mpmath as mp

    with mp.workdps(40):
        p, lam = mp.mpf(p), mp.mpc(lam)
        s = 1 + mp.sqrt(1 - p) - lam
        indicial, *res = _branch_residuals(p, lam, s)
        assert indicial < mp.mpf("1e-30")
        assert max(res) < 1e-12
        assert min(_branch_residuals(p, lam, s + mp.mpf("1e-3"))[1:]) > 1e-6


GAP_PROBE = textwrap.dedent("""
    from blowuplab.chebgrid import ChebGrid
    from blowuplab.linop import spectrum

    print(*(spectrum(0.75, ChebGrid.make(N)).gap_raw for N in (128, 192)))
""")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_gap_read_at_large_N_on_either_thread_count(threads):
    """At N = 128 and 192 the far eigenvalues move with the BLAS thread
    count (they are pseudospectral), but the gap reads the most slowly
    decaying eigenvalue off the neutral discs, the pair at -1, and stays
    near 1 on one thread and on two."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src),
           "OPENBLAS_NUM_THREADS": threads}
    out = subprocess.run([sys.executable, "-c", GAP_PROBE], env=env,
                         check=True, capture_output=True, text=True)
    gaps = [float(v) for v in out.stdout.split()]
    assert gaps == pytest.approx([1.0, 1.0], abs=1e-2)


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


def _cancelling_pair():
    """[P, -P] and [Y; Y + dY]: rows of P and columns of Y scaled by 2^-60
    to 2^60, entries within a row or column spread over 2^-4 to 2^4, and a
    product whose terms cancel to about 2^-12 of their size."""
    rng = np.random.Generator(np.random.Philox(3))
    P = (rng.standard_normal((6, 5)) * np.exp2(rng.integers(-4, 5, (6, 5)))
         * np.exp2(rng.integers(-60, 61, (6, 1))))
    Y = (rng.standard_normal((5, 3)) * np.exp2(rng.integers(-4, 5, (5, 3)))
         * np.exp2(rng.integers(-60, 61, (1, 3))))
    dY = 2.0**-12 * Y * rng.standard_normal((5, 3))
    return np.hstack([P, -P]), np.vstack([Y, Y + dY])


def _max_ulps(product, A, X):
    """Largest distance, in ulps of the result, of product(A, X) from the
    correctly rounded exact product, taken in fractions.Fraction."""
    exact = np.array([[float(sum(Fraction(a) * Fraction(x)
                                 for a, x in zip(row, col)))
                       for col in X.T] for row in A])
    return np.max(np.abs(product(A, X) - exact) / np.spacing(np.abs(exact)))


def _split_residual_error(p, product, N=64):
    """Largest distance of the split's residual [B, -Q1] [Q1; A11], taken by
    product, from its pairwise double-double sum, and the residual's size;
    Q1 and A11 are _invariant_subspace's at the balanced L_p."""
    grid = ChebGrid.make(N)
    L = assemble_Lp(p, grid)
    d = linop._balance(L)
    B = L * d / d[:, None]
    Q, A = linop._invariant_subspace(B, linop._split_basis(grid, p)
                                     / d[:, None])
    left = np.hstack([B, -Q[:, :3]])
    right = np.vstack([Q[:, :3], A[:3, :3]])
    zero = np.zeros(left.shape[:1] + right.shape[::-1])
    hi, lo = _dd_sum(_dd_mul((left[:, None, :] + zero, zero),
                             (right.T[None, :, :] + zero, zero)))
    ref = hi + lo
    return np.max(np.abs(product(left, right) - ref)), np.max(np.abs(ref))


def _without_rest():
    """linop._exact_product with its rest A1 @ X2 + A2 @ X dropped."""
    src = inspect.getsource(linop._exact_product)
    mutated = src.replace(" + (A1 @ (X - X1) + (A - A1) @ X)", "")
    assert mutated != src
    namespace = dict(vars(linop))
    exec(mutated, namespace)
    return namespace["_exact_product"]


def test_exact_product_is_correctly_rounded():
    """On a pair with entries from 2^-33 to 2^54 whose product cancels, the
    split's product lies within 1 ulp of the correctly rounded exact
    product (it reads 0 ulps); plain float64 BLAS is 3e4 ulps off."""
    A, X = _cancelling_pair()
    assert _max_ulps(linop._exact_product, A, X) <= 1.0
    assert _max_ulps(np.matmul, A, X) > 1e3


@pytest.mark.parametrize("p", [0.5, 0.75, 1.0])
def test_split_residual_matches_double_double(p):
    """The split's residual at N = 64 against the pairwise double-double
    sum of _dd_mul products: measured 3.6e-19, 1.9e-18 and 8.7e-18 at
    p = 0.5, 0.75 and 1 on residuals of 1.1e-13, 7.6e-14 and 3.0e-14;
    np.longdouble read 2.1e-17, 1.0e-17 and 1.3e-17, float64 1e-13."""
    err, size = _split_residual_error(p, linop._exact_product)
    assert size > 1e-14 and err < 2e-17


def test_exact_product_checks_see_a_dropped_rest(monkeypatch):
    """A copy of _exact_product without the rest A1 @ X2 + A2 @ X fails both
    checks above; monkeypatched into linop, the split's Newton steps stall."""
    mutant = _without_rest()
    assert _max_ulps(mutant, *_cancelling_pair()) > 1e3
    err, size = _split_residual_error(0.75, mutant)
    assert err > 1e3 * size
    monkeypatch.setattr(linop, "_exact_product", mutant)
    with pytest.raises(ValueError, match="not refined"):
        _split_residual_error(0.75, mutant)


def _near_jordan(rng):
    """V J V^-1 with J the Jordan pair at 0 and a 1, nudged by 1e-9."""
    V = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    J = np.array([[0.0, 1.0, 0.0], [1e-9, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return V @ J @ np.linalg.inv(V)


def _complex_pair(rng):
    """A rotation of the eigenvalues +-2i and 0.5: the real one is no
    farther from the pair than each of the pair is from it."""
    V = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    J = np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
    return V @ J @ np.linalg.inv(V)


@pytest.mark.parametrize("make_B", [_near_jordan, _complex_pair,
                                    lambda rng: rng.standard_normal((3, 3))])
def test_sylvester3_matches_kronecker(make_B):
    """The rotated solve (one shifted, one 2 m Kronecker) agrees with one
    Kronecker solve in 3 m unknowns written out here, A's spectrum kept
    clear of B's as in the split."""
    rng = np.random.Generator(np.random.Philox(5))
    m = 40
    A = rng.standard_normal((m, m)) - (math.sqrt(m) + 4.0) * np.eye(m)
    B = make_B(rng)
    C = rng.standard_normal((m, 3))
    K = np.kron(np.eye(3), A) - np.kron(B.T, np.eye(m))
    ref = np.linalg.solve(K, C.ravel(order="F")).reshape(3, m).T
    X = linop._sylvester3(A, B, C)
    assert np.linalg.norm(X - ref) < 1e-12 * np.linalg.norm(ref)
    assert np.linalg.norm(A @ X - X @ B - C) < 1e-12 * np.linalg.norm(C)


def test_split_solves_at_most_two_blocks(monkeypatch):
    """A fresh split solves no system with more than 2 (n - 3) unknowns,
    n = 2 (N + 1): the 3 (n - 3) Kronecker matrix (3069^2 doubles, 75 MB
    at N = 512) is not built."""
    sizes = []
    solve = np.linalg.solve

    def recording_solve(a, b):
        sizes.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(linop.np.linalg, "solve", recording_solve)
    spectral_split.cache_clear()
    N = 40
    spectral_split(0.7, N)
    spectral_split.cache_clear()
    assert max(sizes) == 2 * (2 * (N + 1) - 3)


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
    neutral coordinates at N = 96 still give Phi V = I to 1e-9."""
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
                                    residuals=np.zeros(0), gap_omega0=gap)

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
    carried by products of expm(0.25 L) instead of expm(0.5 L), both from
    the package's _expm: they share one Pade base, so the oracle checks the
    projection and the norms, not one expm's rounding against another's."""
    P0, _, P1, _, L = riesz_projectors_for(0.75, GRID)
    rng = np.random.Generator(np.random.Philox(0))
    r = _random_cheb_state(rng, GRID, GRID.N // 2)
    q = r - P0 @ r - P1 @ r
    E = linop._expm(0.25 * L)
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
    L = assemble_Lp(0.75, GRID)
    Z0, W0, Z1, W1 = spectral_split(0.75, 64)
    assert (Z0.shape[1], Z1.shape[1]) == (2, 1)
    P0, P1 = Z0 @ W0, Z1 @ W1
    nP0, nP1 = np.linalg.norm(P0, 2), np.linalg.norm(P1, 2)
    E = linop._expm(0.5 * L)
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
    yt = APPENDIXB_TARGETS

    def rk4(f, u, dt):
        k1 = f(u)
        k2 = f(u + 0.5 * dt * k1)
        k3 = f(u + 0.5 * dt * k2)
        k4 = f(u + dt * k3)
        return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def f(u):
        s, v = u
        return np.array([np.ones_like(s),
                         yt * linop._appendixB_ode_rhs(s * yt, v)])

    for steps in (50, 1000):
        u = np.array([np.zeros_like(yt), np.full_like(yt, appendixB_dv1(0.0))])
        for _ in range(steps):
            u = rk4(f, u, 1.0 / steps)
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
