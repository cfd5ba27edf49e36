"""Closed-form blow-up family on arrays, its finite-difference residual
oracle, and the roots of the self-similar denominators.

The family is taken in the form

    u(x,t) = -p log(T - t + q sqrt(1-p) (x - x0)) + p log T + kappa,

with p in (0,1], q in {-1,+1}.  The +p log T normalisation makes
u(x0, 0) = kappa; dropping it only shifts kappa, and all checks here are
insensitive to that shift.  Points are passed as arrays x and t: the
sampler returns them, eval_profile, profile_increment and pde_residual
evaluate every point in one pass.  The denominators p_c (exact
self-similar ansatz) and h_c (generalised family) change sign on (-1, 1);
their bisected roots are the non-existence witnesses.
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


def _log_arg(params: ProfileParams, x, t):
    return params.T - t + params.q * params.root_1mp * (x - params.x0)


def eval_profile(params: ProfileParams, x, t):
    """u and its analytic first derivatives (u, u_t, u_x) at the points (x, t).

    x and t are scalars or arrays that broadcast together; raises ValueError
    if any point lies outside the domain of the profile.
    """
    d = _log_arg(params, x, t)
    if np.any(np.asarray(d) <= 0.0):
        raise ValueError("point outside the domain of the profile (log argument <= 0)")
    p, q, g = params.p, params.q, params.root_1mp
    u = -p * np.log(d) + p * math.log(params.T) + params.kappa
    u_t = p / d
    u_x = -p * q * g / d
    return u, u_t, u_x


def profile_increment(params: ProfileParams, x, t, dx, dt):
    """u(x + dx, t + dt) - u(x, t) = -p log1p((q g dx - dt) / d), exact to
    rounding as the log argument d is affine in (x, t); ValueError if (x, t)
    or (x + dx, t + dt) lies outside the domain.  Arguments broadcast."""
    d = _log_arg(params, x, t)
    if np.any(np.asarray(d) <= 0.0):
        raise ValueError("point outside the domain of the profile (log argument <= 0)")
    z = (params.q * params.root_1mp * dx - dt) / d
    if np.any(z <= -1.0):
        raise ValueError("increment leaves the domain of the profile")
    return -params.p * np.log1p(z)


def similarity_profile(p: float, y, kappa: float = 0.0):
    """Static part Ũ_{p,1,kappa}(y) = -p log(1 + y sqrt(1-p)) + kappa."""
    g = math.sqrt(1.0 - p)
    return -p * np.log1p(g * np.asarray(y, dtype=float)) + kappa


def similarity_profile_q2(p: float, y):
    """Its velocity U_tau + y U_y = p / (1 + y sqrt(1-p)), the q2 half of
    the profile state."""
    g = math.sqrt(1.0 - p)
    return p / (1.0 + g * np.asarray(y, dtype=float))


def sample_interior_cone_points(params: ProfileParams, n: int, rng):
    """Arrays (x, t) of n random points from a compact subcone: t/T and |y|
    up to CONE_DEPTH.

    The profile is log-singular along the lateral surface where its log
    argument vanishes, so finite-h difference residuals cannot be small
    uniformly on the open cone; bounding t/T and the similarity coordinate
    y keeps the log argument of order one.  Point i takes the draws 2i
    (t) and 2i+1 (y) of rng.
    """
    t, y = rng.uniform((0.0, -CONE_DEPTH), (CONE_DEPTH * params.T, CONE_DEPTH),
                       size=(n, 2)).T
    return params.x0 + y * (params.T - t), t


# ---------------------------------------------------------------------------
# finite-difference residual oracle

# centred 4th-order stencils: integer weights, divided by 12 h^order
_FD4_C1 = np.array([1, -8, 0, 8, -1])        # first derivative
_FD4_C2 = np.array([-1, 16, -30, 16, -1])    # second derivative
_OFFS = np.arange(-2, 3)


def _fd4(u, h, order):
    w = _FD4_C1 if order == 1 else _FD4_C2
    return np.tensordot(w, u, axes=1) / 12 / h**order


def pde_residual(du, x, t, h: float):
    """|u_tt - u_xx - u_t^2| at the points (x, t), which broadcast together,
    by centered 4th-order stencils on increments du(x, t, dx, dt) = u(x + dx,
    t + dt) - u(x, t), dx and dt of shape (5,) + (1,) * ndim.  Their weights
    sum to 0, so exact increments lower the rounding floor to eps/h."""
    if h <= 0:
        raise ValueError("h must be positive")
    x, t = np.broadcast_arrays(x, t)
    k = (_OFFS * h).reshape((5,) + (1,) * x.ndim)
    ux, ut = du(x, t, k, 0 * k), du(x, t, 0 * k, k)
    u_t = _fd4(ut, h, 1)
    return np.abs(_fd4(ut, h, 2) - _fd4(ux, h, 2) - u_t * u_t)


# ---------------------------------------------------------------------------
# non-existence witnesses

def exact_ss_denominator(c: float, y):
    """p_c(y) = (2y + c(y^2-1) + (y^2-1) log|(y+1)/(y-1)|)/4, limits ∓1/2 at y→∓1."""
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(y) > 1.0):
        raise ValueError("y must lie in [-1, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        # (y^2-1) log|(y+1)/(y-1)| = -(1-y)(1+y) [log1p(y) - log1p(-y)]
        lg = np.log1p(y) - np.log1p(-y)
        val = (2.0 * y + c * (y * y - 1.0) - (1.0 - y * y) * lg) / 4.0
    out = np.where(y == 1.0, 0.5, np.where(y == -1.0, -0.5, val))
    return float(out) if out.shape == () else out


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

