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

from .chebgrid import ChebGrid, cheb_diff, clenshaw_curtis_weights
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
SPLIT_DEFECT_TOL = 1e-15    # spectral_split: largest ||A21|| / ||B|| accepted
SPLIT_NEWTON_MAX = 6        # spectral_split: most Newton steps on the subspace
BALANCE_SWEEPS = 10         # _balance: damped Jacobi sweeps
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
    mpmath object arrays at the working precision in force: chebgrid's
    formulas applied to the mpmath nodes."""
    import mpmath as mp

    y = np.frompyfunc(mp.cos, 1, 1)(mp.pi * np.arange(N + 1) / N)
    return y, cheb_diff(y), clenshaw_curtis_weights(y)


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

def _balance(A: np.ndarray) -> np.ndarray:
    """Powers of two d with B = D^-1 A D, D = diag(d), whose off-diagonal
    row and column 1-norms nearly agree: Parlett & Reinsch (1969) balancing
    without permutation.  Every index takes half its own equalising step at
    once, a damped Jacobi sweep in place of the sequential one.  A must have
    no zero off-diagonal row or column."""
    A1 = np.abs(A)
    np.fill_diagonal(A1, 0.0)
    e = np.zeros(len(A))
    for _ in range(BALANCE_SWEEPS):
        B1 = A1 * np.exp2(e[None, :] - e[:, None])
        e += 0.25 * np.log2(B1.sum(axis=1) / B1.sum(axis=0))
    return np.exp2(np.round(e))


def _sylvester3(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """X with A X - X B = C for a 3 x 3 B, by one Kronecker solve in the
    3 m unknowns of X, m = len(A)."""
    m = len(A)
    K = np.zeros((3, m, 3, m))      # I3 (x) A - B^T (x) Im, built in place
    for i in range(3):
        K[i, :, i, :] = A
    diag = np.arange(m)
    K[:, diag, :, diag] -= B.T
    return np.linalg.solve(K.reshape(3 * m, 3 * m),
                           C.ravel(order="F")).reshape(3, m).T


def _split_basis(grid: ChebGrid, p: float) -> np.ndarray:
    """Flat columns spanning {g0, f0, f1} for p < 1, finite through p = 1:
    g g0 + p / (2 g) f0, f0 and f1 / g, with g = sqrt(1 - p).  At p = 1
    they are (y / 2, y / 2), f0 and (-1, -1): the split Jordan pair at 0
    and the mode at 1."""
    g = math.sqrt(1.0 - p)
    y = grid.y
    d = 1.0 + y * g
    h0 = np.concatenate([-g * np.log1p(y * g) + p * y / (2.0 * d),
                         ((2.0 - p) * y + 2.0 * g) / (2.0 * d**2)])
    h1 = np.concatenate([-p / d, -p / d**2])
    return np.column_stack([h0, f0_state(grid, p).ravel(), h1])


def _invariant_subspace(B: np.ndarray,
                        X: np.ndarray) -> tuple[np.ndarray, ...]:
    """(Q, A): Q = [Q1, Q2] orthogonal with Q1 spanning the invariant
    subspace of B nearest span X (3 columns), and A = Q^T B Q.

    Starting from the complete QR factor of X, each Newton step on the
    Riccati equation of the subspace solves A22 Y - Y A11 = -A21
    (_sylvester3) and takes the QR factor of Q1 + Q2 Y (Stewart 1973).
    Steps run until ||A21|| <= SPLIT_DEFECT_TOL ||B|| (Frobenius norms), at
    least one and at most SPLIT_NEWTON_MAX; ValueError if they do not get
    there.  A21 is summed in np.longdouble: sep(A11, A22) is 6e-7 at N = 64
    and 2.5e-7 at N = 96, and with A21 in double precision the subspace
    moved by 2e-6 under rounding at N = 96, which made the semigroup
    check's P0 error a readout of rounding.  Where np.longdouble is plain
    double (Windows, for one) this falls back to that.
    """
    norm_B = np.linalg.norm(B)
    B_ld = B.astype(np.longdouble)
    for step in range(SPLIT_NEWTON_MAX + 1):
        Q = np.linalg.qr(X, mode="complete")[0]
        A = Q.T @ B @ Q
        Q1_ld = Q[:, :3].astype(np.longdouble)
        A21 = Q[:, 3:].T @ (B_ld @ Q1_ld - Q1_ld @ A[:3, :3]).astype(float)
        defect = np.linalg.norm(A21) / norm_B
        if step and defect <= SPLIT_DEFECT_TOL or step == SPLIT_NEWTON_MAX:
            break
        X = Q[:, :3] + Q[:, 3:] @ _sylvester3(A[3:, 3:], A[:3, :3], -A21)
    if not defect <= SPLIT_DEFECT_TOL:
        raise ValueError(f"invariant subspace not refined: ||A21|| / ||B|| = "
                         f"{defect:.1e} after {SPLIT_NEWTON_MAX} Newton steps")
    return Q, A


@functools.lru_cache(maxsize=16)
def spectral_split(p: float, N: int) -> tuple[np.ndarray, ...]:
    """(Z0, W0, Z1, W1): the spectral split of L_p into the Jordan pair
    {g0, f0} at 0, P0 = Z0 W0, and the mode f1 at 1, P1 = Z1 W1; real and
    read-only.

    The maths gives the invariant subspace, span{g0, f0, f1}, in closed
    form, so no Schur form is taken.  L = D B D^-1 is balanced (_balance),
    and Newton steps refine D^-1 [g0, f0, f1] (_split_basis) to the
    invariant subspace Q1 of B, with A = Q^T B Q (_invariant_subspace).  The
    same steps on B^T, started from Q1, give the left invariant subspace
    Ql.  The first of them is the Kronecker solve of A11 R - R A22 = A12
    for the left factor Wh = Q1^T + R Q2^T (Stewart 1973); that system has
    condition ~1e10, and the next step takes out the rounding it leaves.
    Then Wh = (Ql^T Q1)^-1 Ql^T, so Wh Q1 = I and Wh B = A11 Wh.

    Inside the 3 x 3 block A11 = Q1^T B Q1 the left eigenvector u of the
    eigenvalue near 1 splits 0 from 1: with G orthogonal and G e3 = u / |u|,
    T = G^T A11 G has T[2, :2] = 0, and the 2 x 1 solve T[:2, :2] r -
    r T[2, 2] = T[:2, 2] gives Wb0 = Gh[:2] + r Gh[2], Zb1 = Z3 [-r; 1] / nu
    and Wb1 = nu Gh[2], with Z3 = Q1 G, Gh = G^T Wh and nu the norm of
    [-r; 1] (Golub & Van Loan 7.6).  Balancing is undone as Z_k R_k = D Zb_k,
    a thin QR, and W_k = R_k Wb_k D^-1, so Z0 and Z1 have orthonormal
    columns.

    The two discs, about 0 with radius SPLIT_RADIUS0 and about 1 with
    radius SPLIT_RADIUS1, are fixed constants, so the split reads L_p
    alone.  Raises ValueError unless the eigenvalues of L_p in the discs
    number 3, 2 of them about 0, which is what guards the constant radii,
    or when the Newton steps fail.
    """
    grid = ChebGrid.make(N)
    L = assemble_Lp(p, grid)
    lam = np.linalg.eigvals(L)
    near0 = np.abs(lam) < SPLIT_RADIUS0
    m0 = int(np.sum(near0))
    m = int(np.sum(near0 | (np.abs(lam - 1.0) < SPLIT_RADIUS1)))
    if (m, m0) != (3, 2):
        raise ValueError(f"{m} eigenvalues near 0 and 1 at p = {p}, {m0} of "
                         "them near 0; expected 3 and 2")
    d = _balance(L)
    B = L * d / d[:, None]
    Q, A = _invariant_subspace(B, _split_basis(grid, p) / d[:, None])
    Q1, A11 = Q[:, :3], A[:3, :3]
    Ql = _invariant_subspace(B.T, Q1)[0][:, :3]
    Wh = np.linalg.solve(Ql.T @ Q1, Ql.T)
    mu, U = np.linalg.eig(A11.T)
    u = U[:, np.argmin(np.abs(mu - 1.0))].real
    G = np.linalg.qr(u[:, None], mode="complete")[0][:, [1, 2, 0]]
    T = G.T @ A11 @ G
    Z3 = Q1 @ G
    Gh = G.T @ Wh
    r = np.linalg.solve(T[:2, :2] - T[2, 2] * np.eye(2), T[:2, 2:])
    x1 = np.vstack([-r, [[1.0]]])
    nu = np.linalg.norm(x1)
    factors = []
    for Zb, Wb in ((Z3[:, :2], Gh[:2] + r @ Gh[2:]),
                   (Z3 @ x1 / nu, nu * Gh[2:])):
        Zk, Rk = np.linalg.qr(d[:, None] * Zb)
        factors += [Zk, Rk @ Wb / d]
    for a in factors:
        a.flags.writeable = False
    return tuple(factors)


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
    return np.linalg.solve(WV, Wh), V


def semigroup_action_check(p: float, grid: ChebGrid, seed: int = 0) -> dict:
    """exp(tau L) against the three structure statements of the linear flow,
    at tau = 0, 0.5, ..., 8; norms in the DEFAULT_K energy norm.

    The projectors stay factored, P0 = Z0 W0 and P1 = Z1 W1 from
    spectral_split.  One E = expm(dtau L), dtau the step of the tau grid,
    taken as the half-step propagator of evolve at h = 2 dtau, advances the
    block [Z0, Z1, qs] from each tau to the next; products of
    one short-step propagator do not show the rounding regrowth of
    scaling-and-squaring expm(tau L) of the non-normal L_p at large tau
    (Moler & Van Loan 2003).  Every 2-norm of a residual A W is taken as
    ||A R^T||_2, with W^T = Q R a thin QR, so ||Z W||_2 = ||R||_2 and no
    n x n matrix is formed.  The stable slope is gated at -0.9 OMEGA0
    (omega1_target); no spectrum is measured.
    """
    from .evolve import _propagators, fit_log_slope   # evolve imports this module

    tau_samples = np.linspace(0.0, 8.0, 17)
    L = assemble_Lp(p, grid)
    Z0, W0, Z1, W1 = spectral_split(p, grid.N)
    Rh0 = np.linalg.qr(W0.T, mode="r").T
    Rh1 = np.linalg.qr(W1.T, mode="r").T
    nP0 = np.linalg.norm(Rh0, 2)
    nP1 = np.linalg.norm(Rh1, 2)
    LZ0 = L @ Z0
    rng = np.random.Generator(np.random.Philox(seed))
    r = _random_cheb_state(rng, grid, grid.N // 2)
    qs = r - Z0 @ (W0 @ r) - Z1 @ (W1 @ r)
    E = _propagators(p, grid.N, 2.0 * (tau_samples[1] - tau_samples[0]))[0]
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

    Classical RK4 at the fixed step h = 1/steps on y = s y_t, s in [0, 1],
    for all targets at once.  The ODE is linear, dv/ds = a(s) + b(s) v with
    a = y_t rhs(s y_t, 0) and b = y_t rhs(s y_t, 1) - a, so each step is
    affine, v -> P_n v + Q_n.  P and Q come for every step at once from the
    stage abscissae s_n, s_n + h/2 and s_n + h; then the recurrence runs.
    """
    yt = np.asarray(y_targets, dtype=float)
    h = 1.0 / steps
    s = np.arange(steps)[:, None] * h
    ys = [(s + c) * yt for c in (0.0, 0.5 * h, h)]
    a0, am, a1 = (yt * _appendixB_ode_rhs(y, 0.0) for y in ys)
    b0, bm, b1 = (yt * _appendixB_ode_rhs(y, 1.0) - a
                  for y, a in zip(ys, (a0, am, a1)))
    # stage k_i = c_i + e_i v
    c1, e1 = a0, b0
    c2, e2 = am + 0.5 * h * bm * c1, bm * (1.0 + 0.5 * h * e1)
    c3, e3 = am + 0.5 * h * bm * c2, bm * (1.0 + 0.5 * h * e2)
    c4, e4 = a1 + h * b1 * c3, b1 * (1.0 + h * e3)
    P = 1.0 + (h / 6.0) * (e1 + 2.0 * e2 + 2.0 * e3 + e4)
    Q = (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
    v = np.full_like(yt, appendixB_dv1(0.0))
    for Pn, Qn in zip(P, Q):
        v = Pn * v + Qn
    return v


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
