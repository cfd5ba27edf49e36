"""Closed-form blow-up family, similarity coordinates, and residual oracles.

The family is taken in the form

    u(x,t) = -p log(T - t + q sqrt(1-p) (x - x0)) + p log T + kappa,

with p in (0,1], q in {-1,+1}.  The +p log T normalisation makes
u(x0, 0) = kappa; dropping it only shifts kappa, and all checks here are
insensitive to that shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BISECT_TOL = 1e-12
BISECT_MAXIT = 200
CONE_DEPTH = 0.4     # t/T and |y| bound of the sampled interior subcone


@dataclass(frozen=True)
class ProfileParams:
    p: float
    q: int = 1
    kappa: float = 0.0
    T: float = 1.0
    x0: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"p must lie in (0,1], got {self.p}")
        if self.q not in (-1, 1):
            raise ValueError(f"q must be -1 or +1, got {self.q}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")

    @property
    def root_1mp(self) -> float:
        return math.sqrt(1.0 - self.p)


@dataclass(frozen=True)
class ConePoint:
    x: float
    t: float


@dataclass(frozen=True)
class SimilarityPoint:
    tau: float
    y: float


def _log_arg(params: ProfileParams, x, t):
    return params.T - t + params.q * params.root_1mp * (x - params.x0)


def eval_profile(params: ProfileParams, pt: ConePoint):
    """u and its analytic first derivatives (u, u_t, u_x) at a cone point."""
    d = _log_arg(params, pt.x, pt.t)
    if np.any(np.asarray(d) <= 0.0):
        raise ValueError("point outside the domain of the profile (log argument <= 0)")
    p, q, g = params.p, params.q, params.root_1mp
    u = -p * np.log(d) + p * math.log(params.T) + params.kappa
    u_t = p / d
    u_x = -p * q * g / d
    return u, u_t, u_x


def to_similarity(params: ProfileParams, pt: ConePoint) -> SimilarityPoint:
    if pt.t >= params.T:
        raise ValueError("t must be < T")
    tau = -math.log1p(-pt.t / params.T)
    y = (pt.x - params.x0) / (params.T - pt.t)
    return SimilarityPoint(tau=tau, y=y)


def from_similarity(params: ProfileParams, sp: SimilarityPoint) -> ConePoint:
    t = params.T * -math.expm1(-sp.tau)
    x = params.x0 + sp.y * (params.T - t)
    return ConePoint(x=x, t=t)


def similarity_profile(p: float, y, kappa: float = 0.0):
    """Static part Ũ_{p,1,kappa}(y) = -p log(1 + y sqrt(1-p)) + kappa."""
    g = math.sqrt(1.0 - p)
    return -p * np.log1p(g * np.asarray(y, dtype=float)) + kappa


def similarity_profile_dy(p: float, y):
    g = math.sqrt(1.0 - p)
    return -p * g / (1.0 + g * np.asarray(y, dtype=float))


def sample_interior_cone_points(params: ProfileParams, n: int, rng) -> list:
    """n random points from a compact subcone: t/T and |y| up to CONE_DEPTH.

    The profile is log-singular along the lateral surface where its log
    argument vanishes, so finite-h difference residuals cannot be small
    uniformly on the open cone; bounding t/T and the similarity coordinate
    y keeps the log argument of order one.
    """
    pts = []
    for _ in range(n):
        t = rng.uniform(0.0, CONE_DEPTH * params.T)
        y = rng.uniform(-CONE_DEPTH, CONE_DEPTH)
        pts.append(ConePoint(x=params.x0 + y * (params.T - t), t=t))
    return pts


# ---------------------------------------------------------------------------
# finite-difference residual oracles

_FD4_W1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0      # first derivative
_FD4_W2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0  # second derivative
_OFFS = np.arange(-2, 3)


def _fd4(u, h, order):
    w = _FD4_W1 if order == 1 else _FD4_W2
    return np.dot(w, u) / h**order


def pde_residual(u_eval, pt: ConePoint, h: float) -> float:
    """|u_tt - u_xx - u_t^2| via centered 4th-order stencils of u_eval(x,t)."""
    if h <= 0:
        raise ValueError("h must be positive")
    x, t = pt.x, pt.t
    ux = np.array([u_eval(x + k * h, t) for k in _OFFS])
    ut = np.array([u_eval(x, t + k * h) for k in _OFFS])
    u_tt = _fd4(ut, h, 2)
    u_xx = _fd4(ux, h, 2)
    u_t = _fd4(ut, h, 1)
    return abs(u_tt - u_xx - u_t * u_t)


def _onesided_offsets(z: float, h: float, lo: float, hi: float) -> np.ndarray:
    """Shift the 5-point stencil so all samples stay inside [lo, hi]."""
    off = _OFFS.astype(float)
    if z + off[0] * h < lo:
        off = off + math.ceil((lo - (z + off[0] * h)) / h)
    if z + off[-1] * h > hi:
        off = off - math.ceil(((z + off[-1] * h) - hi) / h)
    return off


def _fd_general(vals: np.ndarray, offs: np.ndarray, h: float, order: int) -> float:
    # Fornberg-style weights from the Vandermonde system for arbitrary offsets
    A = np.vander(offs, increasing=True).T
    b = np.zeros(len(offs))
    b[order] = math.factorial(order)
    w = np.linalg.solve(A, b)
    return np.dot(w, vals) / h**order


def similarity_residual(U_eval, sp: SimilarityPoint, h: float) -> float:
    """Residual of U_tt + U_t + 2y U_ty + (y^2-1) U_yy + 2y U_y = (U_t + y U_y)^2.

    Time direction uses centered stencils (tau shifted up if tau < 2h);
    the y direction uses shifted (one-sided) stencils near y = +-1.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    tau, y = sp.tau, sp.y
    t_off = _OFFS.astype(float)
    if tau + t_off[0] * h < 0:
        t_off = t_off - t_off[0]
    y_off = _onesided_offsets(y, h, -1.0, 1.0)

    grid = np.array([[U_eval(tau + a * h, y + b * h) for b in y_off] for a in t_off])

    col = np.array([_fd_general(grid[a, :], y_off, h, 0) for a in range(len(t_off))])
    U_tau = _fd_general(col, t_off, h, 1)
    U_tautau = _fd_general(col, t_off, h, 2)
    row = np.array([_fd_general(grid[:, b], t_off, h, 0) for b in range(len(y_off))])
    U_y = _fd_general(row, y_off, h, 1)
    U_yy = _fd_general(row, y_off, h, 2)
    # mixed derivative: d/dtau of U_y
    Uy_of_tau = np.array([_fd_general(grid[a, :], y_off, h, 1)
                          for a in range(len(t_off))])
    U_tauy = _fd_general(Uy_of_tau, t_off, h, 1)

    lhs = U_tautau + U_tau + 2 * y * U_tauy + (y * y - 1.0) * U_yy + 2 * y * U_y
    rhs = (U_tau + y * U_y) ** 2
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Riccati reduction of the exact self-similar ansatz

def riccati_coeffs(p: float, y):
    """Q0, Q1, Q2 with V' = Q0 + Q1 V + Q2 V^2."""
    y = np.asarray(y, dtype=float)
    den = 1.0 - y * y
    return (p * (1.0 - p) / den, 2.0 * (1.0 - p) * y / den, -y * y / den)


def riccati_particular(p: float, sign: int, y):
    """Particular solutions V±(y) = p sqrt(1-p) / (±1 - y sqrt(1-p))."""
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0,1]")
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    g = math.sqrt(1.0 - p)
    den = sign - np.asarray(y, dtype=float) * g
    if np.any(np.abs(den) < 1e-300):
        raise ZeroDivisionError("pole of the particular solution")
    return p * g / den


def riccati_particular_dy(p: float, sign: int, y):
    g = math.sqrt(1.0 - p)
    den = sign - np.asarray(y, dtype=float) * g
    return p * g * g / den**2


def riccati_residual(p: float, sign: int, y) -> float:
    """|V' - (Q0 + Q1 V + Q2 V^2)| with the analytic derivative of V±."""
    V = riccati_particular(p, sign, y)
    dV = riccati_particular_dy(p, sign, y)
    Q0, Q1, Q2 = riccati_coeffs(p, y)
    return float(np.max(np.abs(dV - (Q0 + Q1 * V + Q2 * V * V))))


def riccati_pole(p: float, sign: int) -> float:
    """Pole y = ±1/sqrt(1-p) of V±; lies inside (-1,1) exactly when p < 0."""
    return sign / math.sqrt(1.0 - p)


# ---------------------------------------------------------------------------
# non-existence witnesses

def exact_ss_denominator(c: float, y) -> float:
    """p_c(y) = (2y + c(y^2-1) + (y^2-1) log|(y+1)/(y-1)|)/4, limits ∓1/2 at y→∓1."""
    y = np.asarray(y, dtype=float)
    flat_y = np.atleast_1d(y)
    flat = np.empty(flat_y.shape)
    for i, yi in enumerate(flat_y):
        if yi == 1.0:
            flat[i] = 0.5
        elif yi == -1.0:
            flat[i] = -0.5
        else:
            # (y^2-1) log|(y+1)/(y-1)| = -(1-y)(1+y) [log1p(y) - log1p(-y)]
            lg = math.log1p(yi) - math.log1p(-yi)
            flat[i] = (2.0 * yi + c * (yi * yi - 1.0) - (1.0 - yi * yi) * lg) / 4.0
    return flat.reshape(y.shape) if y.shape else float(flat[0])


def bisect(f, a: float, b: float) -> float:
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise ValueError("no sign change on the bracketing interval")
    for _ in range(BISECT_MAXIT):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0 or 0.5 * (b - a) < BISECT_TOL:
            return m
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def find_denominator_zero(c: float) -> float:
    """Root of p_c in (-1,1); exists by the sign change p_c(∓1) = ∓1/2."""
    f = lambda y: exact_ss_denominator(c, y)
    return bisect(f, -1.0 + 1e-15, 1.0 - 1e-15)


def general_riccati_denominator(p: float, c: float, y):
    """h_c(y) = 1 - 2/(1 + c((1+y)/(1-y))^sqrt(1-p)) - y sqrt(1-p)."""
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie in (0,1)")
    if c <= 0:
        raise ValueError("c must be positive")
    g = math.sqrt(1.0 - p)
    y = np.asarray(y, dtype=float)
    # ((1+y)/(1-y))^g via exp(g*(log1p(y)-log1p(-y))) for stability
    r = np.exp(g * (np.log1p(y) - np.log1p(-y)))
    out = 1.0 - 2.0 / (1.0 + c * r) - y * g
    return float(out) if out.shape == () else out


def find_general_denominator_zero(p: float, c: float) -> float:
    """Root of h_c in (-1,1); limits at ±1 are ±(1-sqrt(1-p))."""
    f = lambda y: general_riccati_denominator(p, c, y)
    return bisect(f, -1.0 + 1e-13, 1.0 - 1e-13)


# ---------------------------------------------------------------------------
# Lorentz boosts

def lorentz_map(gamma: float, x, t):
    """(x,t) -> (x', t') with x'=(x-γt)/sqrt(1-γ²), t'=(t-γx)/sqrt(1-γ²)."""
    if abs(gamma) >= 1.0:
        raise ValueError("|gamma| must be < 1")
    s = math.sqrt(1.0 - gamma * gamma)
    return (x - gamma * t) / s, (t - gamma * x) / s


def lorentz_map_inverse(gamma: float, xp, tp):
    return lorentz_map(-gamma, xp, tp)
