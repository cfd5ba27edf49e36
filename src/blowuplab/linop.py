"""Linearised operator about the self-similar profile, as a first-order system.

q = (q1, q2), an array of shape (2, N+1), with q2 = eta_tau + y eta_y.
The generator is

    L_p q = ( -y q1' + q2 ,  q1'' - y q2' + (U_p(y) - 1) q2 ),
    U_p(y) = 2p / (1 + y sqrt(1-p)),

discretized by Chebyshev collocation with no boundary rows (the endpoints
are characteristic).  Energy inner products carry a boundary trace at
y = -1 so that constants are seen by the norm.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .chebgrid import ChebGrid
from .profiles import similarity_profile_q2

DEFAULT_K = 4
MATCH_TOL = 1e-5            # simple eigenvalue: relative move from N to 2N
CLUSTER_MATCH_TOL = 0.025   # Jordan-type cluster: move of its mean
CERT_DPS = 35               # eigen-triple certificate: decimal digits
APPENDIXB_WINDOW = (1e-6, 1e-4)   # 1 - y range of the boundedness check
APPENDIXB_RK4_STEPS = 1000        # RK4 steps of the dv1 ODE cross-check
NEUTRAL_COND_LIMIT = 1e10   # largest cond(Wh V) neutral_coordinates accepts
SPLIT_RADIUS0 = 0.25        # spectral_split: radius of the disc about 0
SPLIT_RADIUS1 = 0.5         # spectral_split: radius of the disc about 1
# rate the decay gates read and the cap of the reported gap: the free-wave
# dissipativity bound (free_wave_dissipativity_check), below gap_raw ~ 1
OMEGA0 = 0.5


def potential(p: float, y: np.ndarray) -> np.ndarray:
    return 2.0 * similarity_profile_q2(p, y)


# ---------------------------------------------------------------------------
# energy geometry

@functools.lru_cache(maxsize=None)
def seminorm_stack(N: int, k: int = DEFAULT_K) -> np.ndarray:
    """Tall matrix S with <q,r>_k = (S r)^H (S q) on flattened states.

    Rows: sqrt(w) d^{k+1} and sqrt(w) d and the y=-1 trace on q1;
    sqrt(w) d^k and sqrt(w) id on q2.  Working with S q (never the Gram
    matrix S^T S itself) avoids catastrophic cancellation in the huge
    entries of the high-derivative blocks.  Built once per (N, k) and
    returned read-only.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k + 1 >= N / 2:
        warnings.warn("grid under-resolves derivatives of order k+1", RuntimeWarning)
    grid = ChebGrid.make(N)
    n = N + 1
    sw = np.sqrt(grid.w)[:, None]
    blocks_q1 = [sw * grid.D]
    blocks_q2 = [sw * np.eye(n)]
    if k >= 1:
        blocks_q1.append(sw * grid.deriv_pow(k + 1))
        blocks_q2.append(sw * grid.deriv_pow(k))
    trace = np.zeros((1, n))
    trace[0, -1] = 1.0  # q1 at y = -1 (last node)
    blocks_q1.append(trace)
    S = np.zeros((sum(b.shape[0] for b in blocks_q1)
                  + sum(b.shape[0] for b in blocks_q2), 2 * n))
    r = 0
    for b in blocks_q1:
        S[r:r + b.shape[0], :n] = b
        r += b.shape[0]
    for b in blocks_q2:
        S[r:r + b.shape[0], n:] = b
        r += b.shape[0]
    S.flags.writeable = False
    return S


def energy_norm(k: int, q: np.ndarray, grid: ChebGrid) -> float:
    """||q||_k of a state, shape (2, N+1), or of its flat form."""
    S = seminorm_stack(grid.N, k)
    return float(np.linalg.norm(S @ np.ravel(q)))


# ---------------------------------------------------------------------------
# exact eigen-triple

def f0_state(grid: ChebGrid, p: float) -> np.ndarray:
    y = grid.y
    return np.stack([np.ones_like(y), np.zeros_like(y)])


def f1_state(grid: ChebGrid, p: float) -> np.ndarray:
    g = math.sqrt(1.0 - p)
    d = 1.0 + grid.y * g
    return np.stack([-p * g / d, -p * g / d**2])


def _require_g0(p: float) -> None:
    if not p < 1.0:
        raise ValueError(f"g0 exists only for p < 1 (at p = 1 the Jordan "
                         f"block at 0 splits), got p = {p:g}")


def g0_state(grid: ChebGrid, p: float) -> np.ndarray:
    """Generalised eigenvector, L_p g0 = f0; ValueError unless p < 1."""
    _require_g0(p)
    g = math.sqrt(1.0 - p)
    y = grid.y
    d = 1.0 + y * g
    q1 = -np.log1p(y * g) - p / (2.0 * (1.0 - p)) / d
    q2 = ((2.0 - p) * y + 2.0 * g) / (2.0 * g * d**2)
    return np.stack([q1, q2])


# ---------------------------------------------------------------------------
# operator assembly

def _assemble(grid: ChebGrid, U: np.ndarray) -> np.ndarray:
    """Collocation matrix of q -> (-y q1' + q2, q1'' - y q2' + (U - 1) q2)."""
    n = grid.N + 1
    YD = grid.y[:, None] * grid.D
    L = np.zeros((2 * n, 2 * n))
    L[:n, :n] = -YD
    L[:n, n:] = np.eye(n)
    L[n:, :n] = grid.D2
    L[n:, n:] = -YD + np.diag(U - 1.0)
    return L


def assemble_Lp(p: float, grid: ChebGrid) -> np.ndarray:
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0,1]")
    return _assemble(grid, potential(p, grid.y))


def assemble_free_modified(grid: ChebGrid) -> np.ndarray:
    """Free-wave generator with the boundary trace q1(-1) subtracted in row 1.

    Ltilde q = (-y q1' + q2 - q1(-1), q1'' - y q2' - q2); dissipative up to
    -1/2 in the k-energy inner product.
    """
    L = _assemble(grid, np.zeros_like(grid.y))
    L[:grid.N + 1, grid.N] -= 1.0  # q1 at y = -1, the last node
    return L


def _random_cheb_state(rng: np.random.Generator, grid: ChebGrid,
                       degree: int) -> np.ndarray:
    """Flat state whose halves are Chebyshev series of the given degree with
    standard-normal coefficients, drawn for q1 first."""
    c1 = rng.standard_normal(degree + 1)
    c2 = rng.standard_normal(degree + 1)
    return np.concatenate([np.polynomial.chebyshev.chebval(grid.y, c1),
                           np.polynomial.chebyshev.chebval(grid.y, c2)])


def free_wave_dissipativity_check(grid: ChebGrid, trials: int = 200,
                                  seed: int = 0) -> float:
    """max over random states of Re<Ltilde q, q>_k / ||q||_k^2 (k = DEFAULT_K),
    each half a Chebyshev series of degree N/2."""
    rng = np.random.Generator(np.random.Philox(seed))
    Lt = assemble_free_modified(grid)
    S = seminorm_stack(grid.N)
    worst = -np.inf
    for _ in range(trials):
        q = _random_cheb_state(rng, grid, grid.N // 2)
        Sq = S @ q
        num = np.real(np.conj(Sq) @ (S @ (Lt @ q)))
        den = np.real(np.conj(Sq) @ Sq)
        worst = np.maximum(worst, num / den)
    return float(worst)


# ---------------------------------------------------------------------------
# extended-precision eigen-triple residuals
#
# Measuring a k=4 energy norm through five collocation derivatives at N=64
# amplifies roundoff by ~N^(2k+2); double precision bottoms out near 1e-4
# relative.  The identities L f0 = 0, L f1 = f1, L g0 = f0, L^2 g0 = 0 are
# therefore certified with arbitrary-precision arithmetic (mpmath), applying
# the same collocation operator and quadrature.

def _mp_cheb(N: int):
    """Chebyshev nodes, differentiation matrix and Clenshaw-Curtis weights as
    mpmath object arrays at the working precision in force."""
    import mpmath as mp

    one = mp.mpf(1)
    idx = np.arange(N + 1)
    y = np.array([mp.cos(mp.pi * j / N) for j in idx], dtype=object)
    c = np.array([mp.mpf(2 if j in (0, N) else 1) * (-1) ** j for j in idx],
                 dtype=object)
    D = np.empty((N + 1, N + 1), dtype=object)
    for i in range(N + 1):
        for j in range(N + 1):
            if i != j:
                D[i, j] = (c[i] / c[j]) / (y[i] - y[j])
    for i in range(N + 1):
        D[i, i] = mp.mpf(0)
        D[i, i] = -sum(D[i, :])
    w = np.empty(N + 1, dtype=object)
    theta = [mp.pi * j / N for j in range(1, N)]
    v = [one for _ in range(N - 1)]
    for m in range(1, N // 2 + 1):
        fac = one if 2 * m == N else mp.mpf(2)
        for i, th in enumerate(theta):
            v[i] -= fac * mp.cos(2 * m * th) / (4 * m * m - 1)
    for i in range(1, N):
        w[i] = 2 * v[i - 1] / N
    w[0] = w[N] = one / (N * N - 1) if N % 2 == 0 else one / N**2
    return y, D, w


def _mp_matvec(D: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D @ q for mpmath object arrays, one mp.fdot per row."""
    import mpmath as mp

    return np.array([mp.fdot(row, q) for row in D], dtype=object)


def _mp_energy_norm(q: tuple, D: np.ndarray, w: np.ndarray):
    """The order-0 energy norm of seminorm_stack, in mpmath."""
    import mpmath as mp

    q1, q2 = q
    dq1 = _mp_matvec(D, q1)
    return mp.sqrt(w @ (dq1 * dq1) + q1[-1] ** 2 + w @ (q2 * q2))


def eigen_triple_residuals(p: float, N: int = 64) -> dict:
    """Relative residuals of the four identities in the order-0 energy norm;
    that low order keeps the collocation tail of the slowly-resolved states
    at small p from swamping the 1e-7 certification level.  ValueError
    unless p < 1, where g0 exists."""
    import mpmath as mp

    _require_g0(p)
    with mp.workdps(CERT_DPS):
        y, D, w = _mp_cheb(N)
        pm = mp.mpf(p)
        g = mp.sqrt(1 - pm)
        d = 1 + y * g
        U = 2 * pm / d

        def Lp(q):
            q1, q2 = q
            dq1 = _mp_matvec(D, q1)
            return (-y * dq1 + q2,
                    _mp_matvec(D, dq1) - y * _mp_matvec(D, q2) + (U - 1) * q2)

        def norm(q):
            return _mp_energy_norm(q, D, w)

        zero = np.array([mp.mpf(0)] * (N + 1), dtype=object)
        f0 = (zero + 1, zero.copy())
        f1 = (-pm * g / d, -pm * g / d**2)
        g0 = (np.array([-mp.log1p(yi * g) for yi in y], dtype=object)
              - pm / (2 * (1 - pm)) / d,
              ((2 - pm) * y + 2 * g) / (2 * g * d**2))

        Lf0 = Lp(f0)
        Lf1 = Lp(f1)
        Lg0 = Lp(g0)
        LLg0 = Lp(Lg0)
        out = {
            "res_f0": float(norm(Lf0) / norm(f0)),
            "res_f1": float(norm((Lf1[0] - f1[0], Lf1[1] - f1[1])) / norm(f1)),
            "res_g0": float(norm((Lg0[0] - f0[0], Lg0[1] - f0[1])) / norm(g0)),
            "res_L2g0": float(norm(LLg0) / norm(g0)),
        }
    return out


# ---------------------------------------------------------------------------
# spectrum with two-resolution filtering

@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    robust: np.ndarray = field(repr=False)
    gap_omega0: float = float("nan")
    gap_raw: float = float("nan")


def _eig_with_residuals(L: np.ndarray, grid: ChebGrid):
    lam, V = np.linalg.eig(L)
    S = seminorm_stack(grid.N)
    R = S @ (L @ V - V * lam[None, :])
    Vn = S @ V
    res = np.linalg.norm(R, axis=0) / np.maximum(np.linalg.norm(Vn, axis=0), 1e-300)
    return lam, res


def _cluster(lam: np.ndarray, tol: float = 0.12):
    """Greedy grouping of eigenvalues within tol; returns (means, sizes, labels)."""
    order = np.lexsort((lam.imag, lam.real))
    labels = -np.ones(len(lam), dtype=int)
    means, sizes = [], []
    for i in order:
        placed = False
        for c, m in enumerate(means):
            if abs(lam[i] - m) < tol:
                means[c] = (m * sizes[c] + lam[i]) / (sizes[c] + 1)
                sizes[c] += 1
                labels[i] = c
                placed = True
                break
        if not placed:
            means.append(lam[i])
            sizes.append(1)
            labels[i] = len(means) - 1
    return np.asarray(means), np.asarray(sizes), labels


def spectrum(p: float, grid: ChebGrid) -> SpectrumReport:
    """Eigenvalues of the collocation matrix, filtered by agreement at 2N.

    Simple eigenvalues must reappear at 2N within MATCH_TOL.  Near-degenerate
    (Jordan-type) clusters split under roundoff by far more than their means
    move, so clusters of size >= 2 are matched through their means with the
    looser CLUSTER_MATCH_TOL.  Residuals are in the DEFAULT_K energy norm.
    """
    L = assemble_Lp(p, grid)
    lam, res = _eig_with_residuals(L, grid)
    grid2 = ChebGrid.make(2 * grid.N)
    lam2 = np.linalg.eigvals(assemble_Lp(p, grid2))
    means, sizes, labels = _cluster(lam)
    means2, sizes2, _ = _cluster(lam2)
    robust = np.zeros(len(lam), dtype=bool)
    for i, z in enumerate(lam):
        c = labels[i]
        if sizes[c] == 1:
            robust[i] = np.min(np.abs(lam2 - z)) <= MATCH_TOL * max(1.0, abs(z))
        else:
            j = np.argmin(np.abs(means2 - means[c]))
            robust[i] = (abs(means2[j] - means[c]) <= CLUSTER_MATCH_TOL
                         and sizes2[j] >= 2)
    rob = lam[robust]
    # gap: most slowly-decaying robust mode away from the {0,1} clusters
    away = rob[(np.abs(rob) > 0.05) & (np.abs(rob - 1.0) > 0.05)]
    if len(away) and np.max(away.real) < 0:
        gap_raw = -float(np.max(away.real))
    else:
        gap_raw = float("nan")
    report = SpectrumReport(
        eigenvalues=lam, residuals=res, robust=robust,
        gap_raw=gap_raw,
        gap_omega0=min(gap_raw, OMEGA0) if np.isfinite(gap_raw) else float("nan"),
    )
    return report


def measured_gap(p: float, N: int = 64) -> float:
    """spectrum(p, N-grid).gap_omega0; RuntimeError unless finite and > 0."""
    gap = spectrum(p, ChebGrid.make(N)).gap_omega0
    if not np.isfinite(gap) or gap <= 0:
        raise RuntimeError("could not measure a spectral gap")
    return gap


# ---------------------------------------------------------------------------
# Riesz projections, neutral-mode coordinates and semigroup checks

@functools.lru_cache(maxsize=16)
def spectral_split(p: float, N: int) -> tuple[np.ndarray, ...]:
    """(Z0, W0, Z1, W1): the spectral split of L_p into the Jordan pair
    {g0, f0} at 0, P0 = Z0 W0, and the mode f1 at 1, P1 = Z1 W1; read-only.

    The two discs, about 0 with radius SPLIT_RADIUS0 and about 1 with
    radius SPLIT_RADIUS1, are fixed constants, so the split reads L_p alone.
    One complex Schur form L = Z [[T11, T12], [0, T22]] Z^H is sorted on
    their union; a 3 x 3 Schur form of T11 sorted on the disc about 0 puts
    the cluster first, so Z0 is its leading Schur vectors and only the
    simple mode at 1 needs an eigenvector.  T11 R - R T22 = T12 gives the
    left factor Wh = Z3^H + R Z2^H, and the 2 x 1 solve T11[:2, :2] r -
    r T11[2, 2] = T11[:2, 2] splits it: W0 = Wh[:2] + r Wh[2], Z1 = Z3
    [-r; 1] / nu with nu its norm, W1 = nu Wh[2] (Bavely & Stewart 1979,
    Golub & Van Loan 7.6).  Z0 and Z1 have orthonormal columns.  Raises
    ValueError unless the discs hold 2 and 1 eigenvalues, which is what
    guards the constant radii.
    """
    from scipy.linalg import schur, solve_sylvester

    L = assemble_Lp(p, ChebGrid.make(N))
    T, Z, m = schur(L.astype(complex), output="complex",
                    sort=lambda z: (abs(z) < SPLIT_RADIUS0
                                    or abs(z - 1.0) < SPLIT_RADIUS1))
    T11, Q, m0 = schur(T[:3, :3], output="complex",
                       sort=lambda z: abs(z) < SPLIT_RADIUS0)
    if (m, m0) != (3, 2):
        raise ValueError(f"{m} eigenvalues near 0 and 1 at p = {p}, {m0} of "
                         "the leading 3 near 0; expected 3 and 2")
    Z3 = Z[:, :3] @ Q
    R = solve_sylvester(T11, -T[3:, 3:], Q.conj().T @ T[:3, 3:])
    Wh = Z3.conj().T + R @ Z[:, 3:].conj().T
    r = solve_sylvester(T11[:2, :2], -T11[2:, 2:], T11[:2, 2:])
    x1 = np.vstack([-r, [[1.0]]])
    nu = np.linalg.norm(x1)
    factors = (Z3[:, :2], Wh[:2] + r @ Wh[2:], Z3 @ x1 / nu, nu * Wh[2:])
    for a in factors:
        a.flags.writeable = False
    return factors


def riesz_projectors_for(p: float, grid: ChebGrid):
    """(P0, rank P0, P1, rank P1, L_p): the Riesz projectors of
    spectral_split, formed densely.  Z has orthonormal columns, so P = Z W
    has the singular values of W, and ranks are counted from those."""
    Z0, W0, Z1, W1 = spectral_split(p, grid.N)
    out = []
    for Zk, Wk in ((Z0, W0), (Z1, W1)):
        sv = np.linalg.svd(Wk, compute_uv=False)
        out += [Zk @ Wk, int(np.sum(sv > 1e-6 * sv[0]))]
    return (*out, assemble_Lp(p, grid))


def neutral_coordinates(p: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(Phi, V): coordinates in the neutral/unstable modes of L_p.

    V = [g0, f0, f1] holds the closed-form modes as flat states, and
    Phi = (Wh V)^-1 Wh, with Wh = [W0; W1] the left factors of
    spectral_split.  Phi d are the coordinates in V of the spectral
    projection (P0 + P1) d, computed without forming the projectors (norm
    ~6e5) and without a least-squares fit in V (Stewart 1973).  Phi V = I up
    to rounding; Phi L V = M with M the Jordan block L g0 = f0, L f0 = 0,
    L f1 = f1.  Raises ValueError when the split fails or Wh V is nearly
    singular.
    """
    grid = ChebGrid.make(N)
    _, W0, _, W1 = spectral_split(p, N)
    Wh = np.vstack([W0, W1])
    V = np.column_stack([g0_state(grid, p).ravel(), f0_state(grid, p).ravel(),
                         f1_state(grid, p).ravel()])
    WV = Wh @ V
    cond = np.linalg.cond(WV)
    if not cond < NEUTRAL_COND_LIMIT:
        raise ValueError(f"neutral modes nearly degenerate at p = {p} "
                         f"(cond = {cond:.2e})")
    return np.linalg.solve(WV, Wh).real, V


def semigroup_action_check(p: float, grid: ChebGrid, seed: int = 0) -> dict:
    """exp(tau L) against the three structure statements of the linear flow,
    at tau = 0, 0.5, ..., 8; norms in the DEFAULT_K energy norm.

    The projectors stay factored, P0 = Z0 W0 and P1 = Z1 W1 from
    spectral_split.  One E = expm(dtau L), dtau the step of the tau grid,
    advances the block [Z0, Z1, qs] from each tau to the next; products of
    one short-step propagator do not show the rounding regrowth of
    scaling-and-squaring expm(tau L) of the non-normal L_p at large tau
    (Moler & Van Loan 2003).  Every 2-norm of a residual A W is taken as
    ||A R^H||_2, with W^H = Q R a thin QR, so ||Z W||_2 = ||R||_2 and no
    n x n matrix is formed.  The stable slope is gated at -0.9 OMEGA0
    (omega1_target); no spectrum is measured.
    """
    from scipy.linalg import expm

    from .evolve import fit_log_slope     # evolve imports this module

    tau_samples = np.linspace(0.0, 8.0, 17)
    L = assemble_Lp(p, grid)
    Z0, W0, Z1, W1 = spectral_split(p, grid.N)
    Rh0 = np.linalg.qr(W0.conj().T, mode="r").conj().T
    Rh1 = np.linalg.qr(W1.conj().T, mode="r").conj().T
    nP0 = np.linalg.norm(Rh0, 2)
    nP1 = np.linalg.norm(Rh1, 2)
    LZ0 = L @ Z0
    rng = np.random.Generator(np.random.Philox(seed))
    r = _random_cheb_state(rng, grid, grid.N // 2)
    qs = r - Z0 @ (W0 @ r) - Z1 @ (W1 @ r)
    E = expm((tau_samples[1] - tau_samples[0]) * L)
    S = seminorm_stack(grid.N)

    block = np.column_stack([Z0, Z1, qs])
    errs_P1, errs_P0, norms = [], [], []
    for i, tau in enumerate(tau_samples):
        if i:
            block = E @ block
        EZ0, EZ1, Eqs = block[:, :2], block[:, 2:3], block[:, 3]
        errs_P1.append(np.linalg.norm((EZ1 - math.exp(tau) * Z1) @ Rh1, 2)
                       / (math.exp(tau) * nP1))
        errs_P0.append(np.linalg.norm((EZ0 - Z0 - tau * LZ0) @ Rh0, 2)
                       / ((1 + tau) * nP0))
        norms.append(np.linalg.norm(S @ Eqs))
    norms = np.asarray(norms)
    slope, _ = fit_log_slope(tau_samples, norms, (1.0, tau_samples[-1]))
    return {
        "err_P1": float(np.max(errs_P1)),
        "err_P0": float(np.max(errs_P0)),
        "stable_slope": float(slope),
        "omega0": OMEGA0,
        "omega1_target": -0.9 * OMEGA0,
        "tau": tau_samples,
        "stable_norms": norms,
    }


# ---------------------------------------------------------------------------
# closed-form Jordan-structure spot checks at p = 3/4

_C_STAR = -1.5 * math.sqrt(3.0) * math.pi


def appendixB_dv1(y, c: float = _C_STAR):
    """Closed-form derivative of the would-be second generalised eigenfunction."""
    y = np.asarray(y, dtype=float)
    arc = np.arctan((2 * y + 1) / np.sqrt(3.0 - 3.0 * y * y))
    t1 = np.sqrt(y + 1.0) * (c + 3.0 * math.sqrt(3.0) * arc) / (
        np.sqrt(1.0 - y) * (y + 2.0) ** 2)
    t2 = (-y * math.log(2.0) + (y - 1.0) * np.log(y + 2.0) - 3.0 + math.log(2.0)) / (
        (y + 2.0) ** 2)
    return t1 + t2


def appendixB_u1(y):
    """The lambda=1 solution with c1 = c2 = 0: L^2 near y=1 forces c2 = 0,
    and the continuous c1/(y+2) leaves the jump across y = -1/2 unchanged."""
    y = np.asarray(y, dtype=float)
    arc = np.arctan(math.sqrt(3.0) * np.sqrt(1.0 - y * y) / (2.0 * y + 1.0))
    out = (3.0 * np.log(y + 2.0) / (4.0 * (y + 2.0))
           + 3.0 * math.sqrt(3.0) * np.sqrt(y + 1.0)
           / (4.0 * np.sqrt(1.0 - y) * (y + 2.0)) * arc)
    return out


def _appendixB_ode_rhs(y, v):
    # (1-y^2) w' - y(1+2y)/(y+2) w = g(y), w = dv1
    g = ((1.0 - y) / (2.0 + y) * np.log1p(y / 2.0)
         + (-y * y + 3.0 * y + 7.0) / (2.0 + y) ** 2)
    return (g + y * (1.0 + 2.0 * y) / (y + 2.0) * v) / (1.0 - y * y)


def _appendixB_ode_solution(y_targets, steps: int = APPENDIXB_RK4_STEPS):
    """dv1 at each target, integrated from the closed form at y = 0.

    Classical RK4 at the fixed step 1/steps on y = s y_t, s in [0, 1], for
    all targets at once; s rides along as a state component, so the
    non-autonomous right-hand side is sampled at s, s + ds/2 and s + ds.
    """
    from .evolve import _rk4     # evolve imports this module

    yt = np.asarray(y_targets, dtype=float)

    def f(u):
        s, v = u
        return np.array([np.ones_like(s), yt * _appendixB_ode_rhs(s * yt, v)])

    u = np.array([np.zeros_like(yt), np.full_like(yt, appendixB_dv1(0.0))])
    for _ in range(steps):
        u = _rk4(f, u, 1.0 / steps)
    return u[1]


def appendixB_no_second_jordan_block() -> dict:
    """Certify v1 (with L_p v = g0) fails H^2 and the lambda=1 equation jumps.

    (i)  With c = -3 sqrt(3) pi / 2 the closed-form dv1 is bounded through
         y = 1 (relative variation over 1-y in APPENDIXB_WINDOW stays tiny);
         any other c reintroduces a (1-y)^{-1/2} blow-up.
    (ii) The surviving square-root branch sits at the opposite endpoint:
         |d2v1| ~ (1+y)^{-1/2}, measured log-log slope -0.5.  (The closed
         form is analytic at y=+1 once c is tuned; the H^2 failure is real
         but lives at y=-1.)
    (iii) The lambda=1 candidate u1 (c2=0) jumps across y=-1/2 by
         pi * prefactor(-1/2) = pi/2.
    """
    lo, hi = APPENDIXB_WINDOW
    ts = np.geomspace(lo, hi, 9)

    vals_right = appendixB_dv1(1.0 - ts)
    var_right = float((vals_right.max() - vals_right.min())
                      / abs(vals_right[len(ts) // 2]))
    vals_bad = appendixB_dv1(1.0 - ts, c=_C_STAR + 1.0)
    var_bad = float((vals_bad.max() - vals_bad.min()) / abs(vals_bad[len(ts) // 2]))

    # second derivative via central differences of the closed form, near y=-1
    h = 1e-9
    d2 = np.abs((appendixB_dv1(-1.0 + ts + h) - appendixB_dv1(-1.0 + ts - h))
                / (2.0 * h))
    slope = float(np.polyfit(np.log(ts), np.log(d2), 1)[0])

    # lambda = 1: jump of the arctan term across y = -1/2
    eps = np.geomspace(1e-10, 1e-7, 4)
    left = appendixB_u1(-0.5 - eps)
    right = appendixB_u1(-0.5 + eps)
    jump = float(np.polyval(np.polyfit(eps, right, 1), 0.0)
                 - np.polyval(np.polyfit(eps, left, 1), 0.0))
    prefactor = 3.0 * math.sqrt(3.0) * math.sqrt(0.5) / (4.0 * math.sqrt(1.5) * 1.5)
    arg_left = math.sqrt(3.0) * math.sqrt(1.0 - (-0.5 - 1e-12) ** 2) / (2 * (-0.5 - 1e-12) + 1.0)
    arg_right = math.sqrt(3.0) * math.sqrt(1.0 - (-0.5 + 1e-12) ** 2) / (2 * (-0.5 + 1e-12) + 1.0)

    # independent cross-check of the closed form: integrate the first-order
    # ODE for dv1 from y=0 outward and compare
    y_targets = np.array([0.5, 0.9, -0.5, -0.9])
    ode_err = np.max(np.abs(_appendixB_ode_solution(y_targets)
                            - appendixB_dv1(y_targets)))

    return {
        "c_star": _C_STAR,
        "bounded_variation_at_plus1": var_right,
        "bounded_variation_wrong_c": var_bad,
        "d2_log_slope": slope,
        "jump": jump,
        "jump_expected": math.pi * prefactor,
        "arctan_arg_left": arg_left,
        "arctan_arg_right": arg_right,
        "ode_crosscheck_err": float(ode_err),
    }
