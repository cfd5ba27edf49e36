"""Linearised operator about the self-similar profile, as a first-order system.

q = (q1, q2) with q2 = eta_tau + y eta_y.  The generator is

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
from scipy.linalg import expm, schur, solve_sylvester

from .chebgrid import ChebGrid

DEFAULT_K = 4
MATCH_TOL = 1e-5            # simple eigenvalue: relative move from N to 2N
CLUSTER_MATCH_TOL = 0.025   # Jordan-type cluster: move of its mean
CERT_K = 0                  # seminorm order of the eigen-triple certificate
CERT_DPS = 35               # its working precision in decimal digits
APPENDIXB_WINDOW = (1e-6, 1e-4)   # 1 - y range of the boundedness check


@dataclass
class StateVector:
    q1: np.ndarray
    q2: np.ndarray

    def __post_init__(self):
        self.q1 = np.asarray(self.q1)
        self.q2 = np.asarray(self.q2)
        if self.q1.shape != self.q2.shape:
            raise ValueError("q1 and q2 must share the grid")
        if not (np.all(np.isfinite(self.q1)) and np.all(np.isfinite(self.q2))):
            raise ValueError("non-finite state")

    def flat(self) -> np.ndarray:
        return np.concatenate([self.q1, self.q2])

    @classmethod
    def from_flat(cls, v: np.ndarray) -> "StateVector":
        n = len(v) // 2
        return cls(v[:n], v[n:])


def potential(p: float, y: np.ndarray) -> np.ndarray:
    return 2.0 * p / (1.0 + y * math.sqrt(1.0 - p))


# ---------------------------------------------------------------------------
# energy geometry

def seminorm_stack(grid: ChebGrid, k: int = DEFAULT_K) -> np.ndarray:
    """Tall matrix S with <q,r>_k = (S r)^H (S q) on flattened states.

    Rows: sqrt(w) d^{k+1} and sqrt(w) d and the y=-1 trace on q1;
    sqrt(w) d^k and sqrt(w) id on q2.  Working with S q (never the Gram
    matrix S^T S itself) avoids catastrophic cancellation in the huge
    entries of the high-derivative blocks.  Built once per (N, k) and
    returned read-only.
    """
    return _stack_cached(grid.N, k)


@functools.lru_cache(maxsize=None)
def _stack_cached(N: int, k: int) -> np.ndarray:
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


def energy_inner(k: int, q: StateVector, r: StateVector, grid: ChebGrid) -> complex:
    S = _stack_cached(grid.N, k)
    return complex(np.conj(S @ r.flat()) @ (S @ q.flat()))


def energy_norm(k: int, q: StateVector, grid: ChebGrid) -> float:
    S = _stack_cached(grid.N, k)
    return float(np.linalg.norm(S @ q.flat()))


# ---------------------------------------------------------------------------
# exact eigen-triple

def f0_state(grid: ChebGrid, p: float) -> StateVector:
    y = grid.y
    return StateVector(np.ones_like(y), np.zeros_like(y))


def f1_state(grid: ChebGrid, p: float) -> StateVector:
    g = math.sqrt(1.0 - p)
    d = 1.0 + grid.y * g
    return StateVector(-p * g / d, -p * g / d**2)


def g0_state(grid: ChebGrid, p: float) -> StateVector:
    g = math.sqrt(1.0 - p)
    y = grid.y
    d = 1.0 + y * g
    q1 = -np.log1p(y * g) - p / (2.0 * (1.0 - p)) / d
    q2 = ((2.0 - p) * y + 2.0 * g) / (2.0 * g * d**2)
    return StateVector(q1, q2)


# ---------------------------------------------------------------------------
# operator assembly

def assemble_Lp(p: float, grid: ChebGrid) -> np.ndarray:
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0,1]")
    n = grid.N + 1
    y = grid.y
    D, D2 = grid.D, grid.D2
    YD = y[:, None] * D
    L = np.zeros((2 * n, 2 * n))
    L[:n, :n] = -YD
    L[:n, n:] = np.eye(n)
    L[n:, :n] = D2
    L[n:, n:] = -YD + np.diag(potential(p, y) - 1.0)
    return L


def assemble_free_modified(grid: ChebGrid) -> np.ndarray:
    """Free-wave generator with the boundary trace q1(-1) subtracted in row 1.

    Ltilde q = (-y q1' + q2 - q1(-1), q1'' - y q2' - q2); dissipative up to
    -1/2 in the k-energy inner product.
    """
    n = grid.N + 1
    y = grid.y
    D, D2 = grid.D, grid.D2
    YD = y[:, None] * D
    L = np.zeros((2 * n, 2 * n))
    L[:n, :n] = -YD
    L[:n, grid.N] -= 1.0  # subtract q1 at y = -1 (last node) from every row
    L[:n, n:] = np.eye(n)
    L[n:, :n] = D2
    L[n:, n:] = -YD - np.eye(n)
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
    S = _stack_cached(grid.N, DEFAULT_K)
    worst = -np.inf
    for _ in range(trials):
        q = _random_cheb_state(rng, grid, grid.N // 2)
        Sq = S @ q
        num = np.real(np.conj(Sq) @ (S @ (Lt @ q)))
        den = np.real(np.conj(Sq) @ Sq)
        worst = max(worst, num / den)
    return float(worst)


# ---------------------------------------------------------------------------
# extended-precision eigen-triple residuals
#
# Measuring a k=4 energy norm through five collocation derivatives at N=64
# amplifies roundoff by ~N^(2k+2); double precision bottoms out near 1e-4
# relative.  The identities L f0 = 0, L f1 = f1, L g0 = f0, L^2 g0 = 0 are
# therefore certified with arbitrary-precision arithmetic (mpmath), applying
# the same collocation operator and quadrature.

def eigen_triple_residuals(p: float, N: int = 64) -> dict:
    """Relative residuals of the four identities in the order-CERT_K norm;
    that low order keeps the collocation tail of the slowly-resolved states
    at small p from swamping the 1e-7 certification level."""
    import mpmath as mp

    k = CERT_K
    with mp.workdps(CERT_DPS):
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
        # Clenshaw-Curtis weights
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

        pm = mp.mpf(p)
        g = mp.sqrt(1 - pm)
        d = 1 + y * g
        U = 2 * pm / d

        def Lp(q):
            q1, q2 = q
            dq1 = D @ q1
            return (-y * dq1 + q2, D @ dq1 - y * (D @ q2) + (U - 1) * q2)

        def norm(q):
            q1, q2 = q
            d1 = q1
            for _ in range(k + 1):
                d1 = D @ d1
            d2 = q2
            for _ in range(k):
                d2 = D @ d2
            dq1 = D @ q1
            val = (w @ (d1 * d1) + w @ (dq1 * dq1) + q1[-1] ** 2
                   + w @ (d2 * d2) + w @ (q2 * q2))
            return mp.sqrt(val)

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
    p: float
    resolution: int
    eigenvalues: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    robust: np.ndarray = field(repr=False)
    gap_omega0: float = float("nan")
    gap_raw: float = float("nan")

    @property
    def robust_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[self.robust]


def _eig_with_residuals(L: np.ndarray, grid: ChebGrid):
    lam, V = np.linalg.eig(L)
    S = _stack_cached(grid.N, DEFAULT_K)
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
        p=p, resolution=grid.N, eigenvalues=lam, residuals=res, robust=robust,
        gap_raw=gap_raw,
        gap_omega0=min(gap_raw, 0.5) if np.isfinite(gap_raw) else float("nan"),
    )
    return report


def measured_gap(p: float, N: int = 64) -> float:
    # memoised through a helper that always receives both arguments
    # positionally, so measured_gap(p, N) and measured_gap(p=p, N=N) share
    # one cache entry
    return _gap_cached(p, N)


@functools.lru_cache(maxsize=16)
def _gap_cached(p: float, N: int) -> float:
    rep = spectrum(p, ChebGrid.make(N))
    if not np.isfinite(rep.gap_omega0) or rep.gap_omega0 <= 0:
        raise RuntimeError("could not measure a spectral gap")
    return rep.gap_omega0


# ---------------------------------------------------------------------------
# Riesz projections and semigroup checks

def riesz_projection(L: np.ndarray, center: complex,
                     radius: float) -> tuple[np.ndarray, int]:
    """Spectral projector onto the eigenvalues of L inside |z - center| < radius.

    A complex Schur form sorted so that those m eigenvalues lead,
    L = Z [[T11, T12], [0, T22]] Z^H, gives P = Z [[I, R], [0, 0]] Z^H, where
    R solves the Sylvester equation T11 R - R T22 = T12 (the condition for P
    to commute with L; Bavely & Stewart 1979, Golub & Van Loan 7.6).  This is
    the Riesz projector, the contour integral of the resolvent over the
    circle, obtained from one factorisation instead of a resolvent solve per
    quadrature node.  The rank is counted from the singular values of P.
    """
    T, Z, m = schur(L.astype(complex), output="complex",
                    sort=lambda z: abs(z - center) < radius)
    if m == 0:
        return np.zeros(L.shape, dtype=complex), 0
    R = solve_sylvester(T[:m, :m], -T[m:, m:], T[:m, m:])
    Zm = Z[:, :m]
    P = Zm @ (Zm.conj().T + R @ Z[:, m:].conj().T)
    sv = np.linalg.svd(P, compute_uv=False)
    return P, int(np.sum(sv > 1e-6 * sv[0]))


def riesz_projectors_for(p: float, grid: ChebGrid, omega0: float | None = None):
    """P0 (about 0, radius omega0/2) and P1 (about 1, radius 1/2)."""
    if omega0 is None:
        omega0 = measured_gap(p, grid.N)
    radius0 = omega0 / 2.0 if omega0 >= 0.05 else 0.025
    L = assemble_Lp(p, grid)
    P0, r0 = riesz_projection(L, 0.0, radius0)
    P1, r1 = riesz_projection(L, 1.0, 0.5)
    return P0, r0, P1, r1, L


def semigroup_action_check(p: float, grid: ChebGrid, seed: int = 0,
                           omega0: float | None = None) -> dict:
    """exp(tau L) against the three structure statements of the linear flow,
    at tau = 0, 0.5, ..., 8; norms in the DEFAULT_K energy norm."""
    tau_samples = np.linspace(0.0, 8.0, 17)
    if omega0 is None:
        omega0 = measured_gap(p, grid.N)
    P0, r0, P1, r1, L = riesz_projectors_for(p, grid, omega0)
    Pt = np.eye(len(L)) - P0 - P1
    rng = np.random.Generator(np.random.Philox(seed))
    qs = Pt @ _random_cheb_state(rng, grid, grid.N // 2)
    err_P1 = 0.0
    err_P0 = 0.0
    norms = []
    S = _stack_cached(grid.N, DEFAULT_K)

    def enorm(v):
        return float(np.linalg.norm(S @ v))

    nP1 = np.linalg.norm(P1, 2)
    nP0 = np.linalg.norm(P0, 2)
    for tau in tau_samples:
        Sexp = expm(tau * L)
        err_P1 = max(err_P1, np.linalg.norm(Sexp @ P1 - math.exp(tau) * P1, 2)
                     / (math.exp(tau) * nP1))
        err_P0 = max(err_P0, np.linalg.norm(Sexp @ P0 - (P0 + tau * L @ P0), 2)
                     / ((1 + tau) * nP0))
        norms.append(enorm(Sexp @ qs))
    norms = np.asarray(norms)
    mask = (tau_samples >= 1.0) & (norms > 1e-300)
    A = np.vstack([tau_samples[mask], np.ones(mask.sum())]).T
    slope, _ = np.linalg.lstsq(A, np.log(norms[mask]), rcond=None)[0]
    return {
        "err_P1": float(err_P1),
        "err_P0": float(err_P0),
        "stable_slope": float(slope),
        "omega0": float(omega0),
        "omega1_target": -0.9 * float(omega0),
        "tau": tau_samples,
        "stable_norms": norms,
        "rank_P0": r0,
        "rank_P1": r1,
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


def appendixB_u1(y, c1: float = 0.0, c2: float = 0.0):
    """General lambda=1 solution (c2 = 0 forced by L^2 near y=1)."""
    y = np.asarray(y, dtype=float)
    arc = np.arctan(math.sqrt(3.0) * np.sqrt(1.0 - y * y) / (2.0 * y + 1.0))
    out = (3.0 * np.log(y + 2.0) / (4.0 * (y + 2.0)) + c1 / (y + 2.0)
           + c2 * np.sqrt(1.0 + y) / (np.sqrt(1.0 - y) * (y + 2.0))
           + 3.0 * math.sqrt(3.0) * np.sqrt(y + 1.0)
           / (4.0 * np.sqrt(1.0 - y) * (y + 2.0)) * arc)
    return out


def _appendixB_ode_rhs(y, v):
    # (1-y^2) w' - y(1+2y)/(y+2) w = g(y), w = dv1
    g = ((1.0 - y) / (2.0 + y) * np.log1p(y / 2.0)
         + (-y * y + 3.0 * y + 7.0) / (2.0 + y) ** 2)
    return (g + y * (1.0 + 2.0 * y) / (y + 2.0) * v) / (1.0 - y * y)


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
    from scipy.integrate import solve_ivp
    y_targets = np.array([0.5, 0.9, -0.5, -0.9])
    v0 = float(appendixB_dv1(0.0))
    ode_err = 0.0
    for yt in y_targets:
        sol = solve_ivp(_appendixB_ode_rhs, (0.0, yt), [v0], rtol=1e-11,
                        atol=1e-13, dense_output=True)
        ode_err = max(ode_err, abs(sol.y[0, -1] - float(appendixB_dv1(yt))))

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
