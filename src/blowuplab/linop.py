"""Linearised operator about the self-similar profile, as a first-order system.

The perturbation (q1, q2), with q2 = eta_tau + y eta_y, obeys

    (q1, q2)_tau = ( -y q1' + q2 ,  q1'' - y q2' + (U_p(y) - 1) q2 ),
    U_p(y) = 2p / (1 + y sqrt(1-p)).

The energy norm of H^{k+1} x H^k reads q1 only through q1' and the trace
q1(-1), so the state is u = (c, v, q2) with c = q1(-1) and v = q1', a flat
float vector of 2N + 3 values: c, then v and q2 on the N + 1 nodes.  The
generator has first derivatives only,

    L_p u = ( v(-1) + q2(-1),  -v - y v' + q2',  v' - y q2' + (U_p - 1) q2 ),

discretized by Chebyshev collocation with no boundary rows (the endpoints
are characteristic).  Data (q1, q2) enter the state through to_state.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .chebgrid import ChebGrid
from .profiles import similarity_profile_q2

# working energy order: the continuum edge sigma_k = 1/2 + sqrt(1-p) - k of
# H^{k+1} x H^k lies left of -OMEGA0 at every p in (0, 1] from k = 2 on
# (sigma_2 = sqrt(1-p) - 3/2), and each order above costs conditioning
DEFAULT_K = 2
APPENDIXB_WINDOW = (1e-6, 1e-4)   # 1 - y range of the boundedness check
APPENDIXB_RK4_STEPS = 1000        # RK4 steps of the dv1 ODE cross-check
NEUTRAL_COND_LIMIT = 1e10   # largest cond(Wh V) neutral_coordinates accepts
SPLIT_RADIUS0 = 0.25        # spectral_split: radius of the disc about 0
SPLIT_RADIUS1 = 0.5         # spectral_split: radius of the disc about 1
SPLIT_DEFECT_TOL = 1e-15    # spectral_split: largest ||A21|| / ||B|| accepted
SPLIT_NEWTON_MAX = 6        # spectral_split: most Newton steps on the subspace
# rate the decay gates read and the cap of the reported gap: the free-wave
# dissipativity bound (free_wave_dissipativity_check), below gap_raw ~ 1
OMEGA0 = 0.5


def potential(p: float, y: np.ndarray) -> np.ndarray:
    return 2.0 * similarity_profile_q2(p, y)


# ---------------------------------------------------------------------------
# the state (c, v, q2)

def _state(c: float, v: np.ndarray, q2: np.ndarray) -> np.ndarray:
    return np.concatenate([[c], v, q2])


def to_state(q: np.ndarray, grid: ChebGrid) -> np.ndarray:
    """The state of data q = (q1, q2) on the nodes: c = q1(-1), v = D q1."""
    q1, q2 = q
    return _state(q1[-1], grid.D @ q1, q2)


def q1_values(u: np.ndarray, grid: ChebGrid) -> np.ndarray:
    """q1 = c + int_{-1}^y v on the nodes, of a state or of each row of a
    stack of states."""
    return u[..., :1] + u[..., 1:grid.N + 2] @ grid.integral_matrix.T


# ---------------------------------------------------------------------------
# energy geometry

@functools.lru_cache(maxsize=None)
def seminorm_stack(N: int, k: int = DEFAULT_K) -> np.ndarray:
    """Tall matrix S with <u,r>_k = (S r)^H (S u) on states.

    Rows: the trace c, then sqrt(w) id and sqrt(w) d^k on v and on q2.
    Working with S u (never the Gram matrix S^T S itself) avoids
    catastrophic cancellation in the large entries of the derivative
    blocks.  Built once per (N, k) and returned read-only.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k + 1 >= N / 2:
        warnings.warn("grid under-resolves derivatives of order k+1", RuntimeWarning)
    grid = ChebGrid.make(N)
    n = N + 1
    sw = np.sqrt(grid.w)[:, None]
    rows = sw * np.eye(n)
    if k >= 1:
        rows = np.vstack([rows, sw * grid.deriv_pow(k)])
    m = len(rows)
    S = np.zeros((1 + 2 * m, 2 * n + 1))
    S[0, 0] = 1.0
    S[1:m + 1, 1:n + 1] = rows
    S[m + 1:, n + 1:] = rows
    S.flags.writeable = False
    return S


def energy_norm(k: int, u: np.ndarray, grid: ChebGrid) -> float:
    """||u||_k of a real state; sqrt(s @ s) is what np.linalg.norm(s)
    computes on a real vector."""
    s = seminorm_stack(grid.N, k) @ u
    return math.sqrt(s @ s)


# ---------------------------------------------------------------------------
# exact eigen-triple

def f0_state(grid: ChebGrid, p: float) -> np.ndarray:
    """q1 = 1, q2 = 0: the state (1, 0, 0), with L_p f0 = 0 exactly."""
    zero = np.zeros_like(grid.y)
    return _state(1.0, zero, zero)


def f1_state(grid: ChebGrid, p: float) -> np.ndarray:
    """q1 = -p g / d, q2 = -p g / d^2, d = 1 + g y, g = sqrt(1 - p)."""
    g = math.sqrt(1.0 - p)
    d = 1.0 + grid.y * g
    return _state(-p * g / (1.0 - g), p * g**2 / d**2, -p * g / d**2)


def _require_g0(p: float) -> None:
    if not p < 1.0:
        raise ValueError(f"g0 exists only for p < 1 (at p = 1 the Jordan "
                         f"block at 0 splits), got p = {p:g}")


def g0_state(grid: ChebGrid, p: float) -> np.ndarray:
    """Generalised eigenvector, L_p g0 = f0; ValueError unless p < 1.
    q1 = -log(d) - a / d with a = p / (2 (1 - p)), q2 = ((2 - p) y + 2 g)
    / (2 g d^2)."""
    _require_g0(p)
    g = math.sqrt(1.0 - p)
    a = p / (2.0 * (1.0 - p))
    d = 1.0 + grid.y * g
    q2 = ((2.0 - p) * grid.y + 2.0 * g) / (2.0 * g * d**2)
    return _state(-math.log1p(-g) - a / (1.0 - g), -g / d + a * g / d**2, q2)


# ---------------------------------------------------------------------------
# operator assembly

def _assemble(grid: ChebGrid, U: np.ndarray) -> np.ndarray:
    """Collocation matrix of u -> (v(-1) + q2(-1), -v - y v' + q2',
    v' - y q2' + (U - 1) q2); its column of c is zero."""
    n = grid.N + 1
    v, q2 = slice(1, n + 1), slice(n + 1, 2 * n + 1)
    YD = grid.y[:, None] * grid.D
    L = np.zeros((2 * n + 1, 2 * n + 1))
    L[0, n] = L[0, 2 * n] = 1.0   # v and q2 at y = -1, the last nodes
    L[v, v] = -YD - np.eye(n)
    L[v, q2] = grid.D
    L[q2, v] = grid.D
    L[q2, q2] = -YD + np.diag(U - 1.0)
    return L


def assemble_Lp(p: float, grid: ChebGrid) -> np.ndarray:
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0,1]")
    return _assemble(grid, potential(p, grid.y))


def assemble_free_modified(grid: ChebGrid) -> np.ndarray:
    """Free-wave generator with the boundary trace q1(-1) subtracted from
    q1_tau: Ltilde u = (v(-1) + q2(-1) - c, -v - y v' + q2', v' - y q2' - q2);
    dissipative up to -1/2 in the k-energy inner product."""
    L = _assemble(grid, np.zeros_like(grid.y))
    L[0, 0] = -1.0
    return L


def _random_cheb_state(rng: np.random.Generator, grid: ChebGrid,
                       degree: int) -> np.ndarray:
    """The state of data whose halves q1, q2 are Chebyshev series of the
    given degree with standard-normal coefficients, drawn for q1 first."""
    cheb = np.polynomial.chebyshev
    c1 = rng.standard_normal(degree + 1)
    c2 = rng.standard_normal(degree + 1)
    return to_state(np.stack([cheb.chebval(grid.y, c1),
                              cheb.chebval(grid.y, c2)]), grid)


def free_wave_dissipativity_check(grid: ChebGrid, trials: int = 200,
                                  seed: int = 0) -> float:
    """max over random states of Re<Ltilde q, q>_k / ||q||_k^2 (k = DEFAULT_K),
    each half of their data a Chebyshev series of degree N/2."""
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
# eigen-triple residuals
#
# The identities L f0 = 0, L f1 = f1, L g0 = f0, L^2 g0 = 0 in float64.  With
# first derivatives only (||L_p||_1 ~ N^2, not N^4), rounding leaves res_L2g0
# at 8e-12 to 2.2e-10 for p in [0.5, 0.9] at N = 64, where the exact residual
# is below 1e-18, and the discretisation error sets it to 4.3e-10 at
# p = 0.25: 230 times below the 1e-7 certification level at the worst p.

def eigen_triple_residuals(p: float, N: int = 64) -> dict:
    """Relative residuals of the four identities in the order-0 energy norm;
    that low order keeps the collocation tail of the slowly-resolved states
    at small p from swamping the 1e-7 certification level.  ValueError
    unless p < 1, where g0 exists."""
    _require_g0(p)
    grid = ChebGrid.make(N)
    L = assemble_Lp(p, grid)
    f0, f1, g0 = (s(grid, p) for s in (f0_state, f1_state, g0_state))

    def norm(u):
        return energy_norm(0, u, grid)

    Lg0, norm_g0 = L @ g0, norm(g0)
    return {
        "res_f0": norm(L @ f0) / norm(f0),
        "res_f1": norm(L @ f1 - f1) / norm(f1),
        "res_g0": norm(Lg0 - f0) / norm_g0,
        "res_L2g0": norm(L @ Lg0) / norm_g0,
    }


# ---------------------------------------------------------------------------
# spectrum and gap

@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    gap_omega0: float = float("nan")
    gap_raw: float = float("nan")


def spectrum(p: float, grid: ChebGrid) -> SpectrumReport:
    """Every eigenvalue of the collocation matrix, with its residual.

    Residuals are ||S (L v - lam v)|| / ||S v|| in the DEFAULT_K energy
    norm (S = seminorm_stack).  Left of that norm's continuum edge the
    eigenvalues sample the continuum and are not isolated modes (README).
    The gap reads the most slowly decaying eigenvalue off the discs of
    radius 0.05 about the neutral modes 0 and 1.
    """
    L = assemble_Lp(p, grid)
    lam, V = np.linalg.eig(L)
    S = seminorm_stack(grid.N)
    R = S @ (L @ V - V * lam[None, :])
    Vn = S @ V
    res = np.linalg.norm(R, axis=0) / np.maximum(np.linalg.norm(Vn, axis=0), 1e-300)
    away = lam[(np.abs(lam) > 0.05) & (np.abs(lam - 1.0) > 0.05)]
    if len(away) and np.max(away.real) < 0:
        gap_raw = -float(np.max(away.real))
    else:
        gap_raw = float("nan")
    return SpectrumReport(
        eigenvalues=lam, residuals=res, gap_raw=gap_raw,
        gap_omega0=min(gap_raw, OMEGA0) if np.isfinite(gap_raw) else float("nan"),
    )


def measured_gap(p: float, N: int = 64) -> float:
    """spectrum(p, N-grid).gap_omega0; RuntimeError unless finite and > 0."""
    gap = spectrum(p, ChebGrid.make(N)).gap_omega0
    if not np.isfinite(gap) or gap <= 0:
        raise RuntimeError("could not measure a spectral gap")
    return gap


# ---------------------------------------------------------------------------
# the exponential of the generator and the log-slope fit of its decay

# Pade-13 coefficients b_0 .. b_13 of Higham (2005), SIAM J. Matrix Anal.
# Appl. 26:1179, and Al-Mohy & Higham's (2009) bounds for that degree
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 4.25                  # largest eta that degree 13 takes unscaled
_C27 = 1.1325077560602111e35     # 1 / |c_27|, c_27 leads the backward error
_UNIT_ROUNDOFF = 2.0 ** -53


def _expm_scaling(A: np.ndarray, A4: np.ndarray, A6: np.ndarray) -> int:
    """Squaring count s of Al-Mohy & Higham's (2009) degree-13 branch, from
    A and its powers A^4, A^6; the s that scipy.linalg.expm picks.

    eta = min(max(d6, d8), max(d8, d10)), d_k = ||A^k||_1^(1/k) exact, gives
    s = max(0, ceil(log2(eta / 4.25))).  Their ell correction then adds
    ceil(log2(alpha / u) / 26) halvings where alpha = ||B^27||_1 /
    (||B||_1 C27), B = |2^-s A|, exceeds the unit roundoff u; ||B^27||_1
    takes 27 vector-matrix products.  A tiny alpha (it underflows to 0 at
    ||A||_1 ~ 1e-9) adds nothing.
    """
    d6, d8, d10 = (np.linalg.norm(M, 1) ** (1.0 / k)
                   for M, k in ((A6, 6), (A4 @ A4, 8), (A4 @ A6, 10)))
    eta = min(max(d6, d8), max(d8, d10))
    s = max(0, math.ceil(math.log2(eta / _THETA13))) if eta > 0 else 0
    norm = np.linalg.norm(A, 1) * 2.0 ** -s
    if norm == 0:
        return s
    B = np.abs(A) * 2.0 ** -s
    v = np.ones(len(A))
    for _ in range(27):
        v = v @ B
    alpha = v.max() / (norm * _C27)
    if alpha > _UNIT_ROUNDOFF:
        s += math.ceil(math.log2(alpha / _UNIT_ROUNDOFF) / 26)
    return s


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) by scaling and squaring with the degree-13 Pade approximant
    X = (V - U)^-1 (V + U) of exp(2^-s A), s from _expm_scaling.

    X is solved from (V - U)^T X^T = (V + U)^T, as scipy's C code does by
    handing C-ordered arrays to LAPACK; U and V commute, so X is the same.
    """
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    s = _expm_scaling(A, A4, A6)
    c = 2.0 ** -s
    A, A2, A4, A6 = c * A, c ** 2 * A2, c ** 4 * A4, c ** 6 * A6
    b = _PADE13
    ident = np.eye(len(A))
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    X = np.linalg.solve((V - U).T, (V + U).T).T
    for _ in range(s):
        X = X @ X
    return X


def fit_log_slope(taus: np.ndarray, norms: np.ndarray,
                  window: tuple) -> tuple[float, float]:
    """Least-squares slope of log(norm) vs tau on the window, with r^2."""
    mask = (taus >= window[0]) & (taus <= window[1]) & (norms > 0)
    t = taus[mask]
    ln = np.log(norms[mask])
    if len(t) < 3:
        return math.nan, 0.0
    A = np.vstack([t, np.ones_like(t)]).T
    coef, res, *_ = np.linalg.lstsq(A, ln, rcond=None)
    ss_tot = float(np.sum((ln - ln.mean()) ** 2))
    ss_res = float(res[0]) if len(res) else float(np.sum((A @ coef - ln) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


# ---------------------------------------------------------------------------
# Riesz projections, neutral-mode coordinates and semigroup checks

def _sylvester3(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """X with A X - X B = C for a 3 x 3 B, by one shifted solve in m = len(A)
    unknowns and one Kronecker solve in 2 m (Golub, Nash & Van Loan 1979).

    G is orthogonal with first column the eigenvector of the real
    eigenvalue lam of B farthest from the other two (a real 3 x 3 has one;
    a complex one would leave a complex G).  T = G^T B G then has
    T[1:, 0] = 0, so Y = X G solves (A - lam I) y0 = (C G)[:, 0] and
    A Y' - Y' T[1:, 1:] = (C G)[:, 1:] + y0 T[0, 1:] for its other two
    columns.  In the split B = A11 has eigenvalues near {0, 0, 1} and lam
    is the mode at 1: its eigenvector is well conditioned, while the
    near-Jordan pair at 0 has nearly parallel eigenvectors.
    """
    mu, U = np.linalg.eig(B)
    real = np.flatnonzero(mu.imag == 0)
    gaps = [min(abs(mu[i] - mu[j]) for j in range(3) if j != i) for i in real]
    i = real[np.argmax(gaps)]
    G = np.linalg.qr(U[:, i:i + 1].real, mode="complete")[0]
    T = G.T @ B @ G
    D = C @ G
    m = len(A)
    y0 = np.linalg.solve(A - T[0, 0] * np.eye(m), D[:, 0])
    K = np.zeros((2, m, 2, m))  # I2 (x) A - T[1:, 1:]^T (x) Im, in place
    K[0, :, 0, :] = K[1, :, 1, :] = A
    diag = np.arange(m)
    K[:, diag, :, diag] -= T[1:, 1:].T
    rhs = D[:, 1:] + np.outer(y0, T[0, 1:])
    Y = np.linalg.solve(K.reshape(2 * m, 2 * m), rhs.ravel(order="F"))
    return np.column_stack([y0, Y.reshape(2, m).T]) @ G.T


def _split_basis(grid: ChebGrid, p: float) -> np.ndarray:
    """State columns spanning {g0, f0, f1} for p < 1, finite through p = 1:
    g g0 + p / (2 g) f0, f0 and f1 / g, with g = sqrt(1 - p).  Their data
    are q1 = -g log(d) + p y / (2 d) and -p / d, d = 1 + g y; at p = 1 they
    are (y / 2, y / 2), f0 and (-1, -1): the split Jordan pair at 0 and the
    mode at 1."""
    g = math.sqrt(1.0 - p)
    y = grid.y
    d = 1.0 + y * g
    h0 = _state(-g * math.log1p(-g) - p / (2.0 * (1.0 - g)),
                -g**2 / d + p / (2.0 * d**2),
                ((2.0 - p) * y + 2.0 * g) / (2.0 * d**2))
    h1 = _state(-p / (1.0 - g), p * g / d**2, -p / d**2)
    return np.column_stack([h0, f0_state(grid, p), h1])


def _exact_product(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A @ X by the error-free split of Ozaki, Ogita, Oishi & Rump (2012):
    rows of A and columns of X are cut on the grid 2^beta above their largest
    entry, beta = ceil((53 + log2 n) / 2), so BLAS sums A1 @ X1 exactly and
    rounds only the rest A1 @ X2 + A2 @ X, of relative size 2^(beta - 54)."""
    beta = math.ceil((53 + math.log2(A.shape[1])) / 2)

    def cut(M, axis):
        s = np.ldexp(1.0, np.frexp(abs(M).max(axis, keepdims=True))[1] + beta)
        return (M + s) - s

    A1, X1 = cut(A, 1), cut(X, 0)
    return A1 @ X1 + (A1 @ (X - X1) + (A - A1) @ X)


def _invariant_subspace(B: np.ndarray,
                        X: np.ndarray) -> tuple[np.ndarray, ...]:
    """(Q, A): Q = [Q1, Q2] orthogonal with Q1 spanning the invariant
    subspace of B nearest span X (3 columns), and A = Q^T B Q.

    Starting from the complete QR factor of X, each Newton step on the
    Riccati equation of the subspace solves A22 Y - Y A11 = -A21
    (_sylvester3) and takes the QR factor of Q1 + Q2 Y (Stewart 1973).
    Steps run until ||A21|| <= SPLIT_DEFECT_TOL ||B|| (Frobenius norms), at
    least one and at most SPLIT_NEWTON_MAX; ValueError if they do not get
    there.  The residual B Q1 - Q1 A11 behind A21 is an error-free product
    (_exact_product): sep(A11, A22) / ||L_p|| is 6.9e-7 at N = 64 and
    1.7e-7 at N = 96 (p = 0.75), and a float64 residual moves P0 by 1.5e-11
    and 3.8e-11 there.
    """
    norm_B = np.linalg.norm(B)
    for step in range(SPLIT_NEWTON_MAX + 1):
        Q = np.linalg.qr(X, mode="complete")[0]
        A = Q.T @ B @ Q
        Q1 = Q[:, :3]
        A21 = Q[:, 3:].T @ _exact_product(np.hstack([B, -Q1]),
                                          np.vstack([Q1, A[:3, :3]]))
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
    form, so no Schur form is taken.  Newton steps refine [g0, f0, f1]
    (_split_basis) to the invariant subspace Q1 of L, with A = Q^T L Q
    (_invariant_subspace).  The same steps on L^T, started from Q1, give
    the left invariant subspace Ql.  The first of them is the Sylvester solve of A11 R - R A22 = A12
    for the left factor Wh = Q1^T + R Q2^T (Stewart 1973); that system has
    condition ~1e10, and the next step takes out the rounding it leaves.
    Then Wh = (Ql^T Q1)^-1 Ql^T, so Wh Q1 = I and Wh L = A11 Wh.

    Inside the 3 x 3 block A11 = Q1^T B Q1 the left eigenvector u of the
    eigenvalue near 1 splits 0 from 1: with G orthogonal and G e3 = u / |u|,
    T = G^T A11 G has T[2, :2] = 0, and the 2 x 1 solve T[:2, :2] r -
    r T[2, 2] = T[:2, 2] gives Wb0 = Gh[:2] + r Gh[2], Zb1 = Z3 [-r; 1] / nu
    and Wb1 = nu Gh[2], with Z3 = Q1 G, Gh = G^T Wh and nu the norm of
    [-r; 1] (Golub & Van Loan 7.6).  Z3 has orthonormal columns, so Z0 =
    Z3[:, :2] and the unit vector Z1 = Zb1 have too.

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
    Q, A = _invariant_subspace(L, _split_basis(grid, p))
    Q1, A11 = Q[:, :3], A[:3, :3]
    Ql = _invariant_subspace(L.T, Q1)[0][:, :3]
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
    factors = (Z3[:, :2], Gh[:2] + r @ Gh[2:], Z3 @ x1 / nu, nu * Gh[2:])
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

    V = [g0, f0, f1] holds the closed-form modes as states, and
    Phi = (Wh V)^-1 Wh, with Wh = [W0; W1] the left factors of
    spectral_split.  Phi d are the coordinates in V of the spectral
    projection (P0 + P1) d, computed without forming the projectors and
    without a least-squares fit in V (Stewart 1973).  Phi V = I up
    to rounding; Phi L V = M with M the Jordan block L g0 = f0, L f0 = 0,
    L f1 = f1.  Raises ValueError when the split fails or Wh V is nearly
    singular.
    """
    grid = ChebGrid.make(N)
    _, W0, _, W1 = spectral_split(p, N)
    Wh = np.vstack([W0, W1])
    V = np.column_stack([s(grid, p) for s in (g0_state, f0_state, f1_state)])
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
    spectral_split.  One E = _expm(dtau L), dtau the step of the tau grid,
    advances the block [Z0, Z1, qs] from each tau to the next; products of
    one short-step propagator do not show the rounding regrowth of
    scaling-and-squaring expm(tau L) of the non-normal L_p at large tau
    (Moler & Van Loan 2003).  Every 2-norm of a residual A W is taken as
    ||A R^T||_2, with W^T = Q R a thin QR, so ||Z W||_2 = ||R||_2 and no
    n x n matrix is formed.  The stable slope is gated at -0.9 OMEGA0
    (omega1_target); no spectrum is measured.
    """
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
    E = _expm((tau_samples[1] - tau_samples[0]) * L)
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
