"""Nonlinear evolution of the perturbation in similarity variables.

The perturbation q = (q1, q2) of the blow-up profile obeys

    d q / d tau = L_p q + (0, q2^2),

discretised with the Chebyshev collocation operator from `linop` (no boundary
rows: the principal coefficient degenerates at y = ±1 and characteristics
leave the interval).  Explicit RK4 in tau with the step set from the measured
spectral radius, plus a mild exponential filter on the top third of the
Chebyshev modes to keep endpoint noise below truncation level.

Also here: the closed-form divergence of the blow-up family from the
spatially homogeneous ODE solution as p -> 1, and a physical-space (x, t)
finite-difference solver used to cross-validate the similarity evolution
inside the light cone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .chebgrid import ChebGrid, exponential_filter, truncate_modes
from .linop import (DEFAULT_K, StateVector, assemble_Lp, energy_norm,
                    riesz_projectors_for, seminorm_stack)
from .profiles import _FD4_W2, ProfileParams, similarity_profile

TAU_MAX_CAP = 15.0
RK4_SAFETY = 2.0                 # RK4 step times the spectral radius
BUMP_WIDTH = 0.8                 # support |y| < BUMP_WIDTH of the initial bump
CROSSCHECK_HALF_WIDTH = 1.25     # physical domain [x0 - R, x0 + R], R / T
CROSSCHECK_INTERVALS = 4096      # finite-difference intervals on that domain
SMALLNESS_NODES = 400            # Chebyshev order of the smallness quadrature
INSTABILITY_NODES = 200          # Chebyshev order of the divergence L2 norms


@dataclass(frozen=True)
class EvolveConfig:
    p: float
    kappa: float = 0.0
    T: float = 1.0
    x0: float = 0.0
    N: int = 64
    dt: float | None = None
    tau_max: float = 12.0
    epsilon: float = 1e-4
    k: int = DEFAULT_K

    def __post_init__(self):
        ProfileParams(p=self.p, kappa=self.kappa, T=self.T, x0=self.x0)
        if self.tau_max > TAU_MAX_CAP:
            raise ValueError(f"tau_max capped at {TAU_MAX_CAP}")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass
class DecayFit:
    taus: np.ndarray
    norms: np.ndarray
    fitted_rate: float
    fit_window: tuple
    r_squared: float
    l2_norms: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.fit_window[0] < 1.0:
            raise ValueError("fit window must skip the initial transient")


@functools.lru_cache(maxsize=16)
def _spectral_radius(p: float, N: int) -> float:
    L = assemble_Lp(p, ChebGrid.make(N))
    return float(np.abs(np.linalg.eigvals(L)).max())


def stable_dt(p: float, N: int) -> float:
    """RK4 step from the measured spectral radius (~0.033 N^2)."""
    return RK4_SAFETY / _spectral_radius(p, N)


def _rhs(L: np.ndarray, u: np.ndarray) -> np.ndarray:
    out = L @ u
    n = len(u) // 2
    out[n:] += u[n:] ** 2
    return out


def _rk4(f, u: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of du/dt = f(u)."""
    k1 = f(u)
    k2 = f(u + 0.5 * dt * k1)
    k3 = f(u + 0.5 * dt * k2)
    k4 = f(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_similarity(state: StateVector, p: float, dt: float, grid: ChebGrid,
                    L: np.ndarray | None = None) -> StateVector:
    """One filtered RK4 step of the perturbation system.

    The instability guard uses the base energy norm with a loose per-step
    factor: the non-normal discretisation shows genuine order-10 one-step
    transients on stable trajectories (especially for marginally resolved
    data), while an actual q2^2 runaway crosses three orders of magnitude
    within a step or two.  Trajectory-level growth is policed in
    evolve_states.
    """
    if L is None:
        L = assemble_Lp(p, grid)
    S0 = seminorm_stack(grid, 0)
    u = state.flat()
    norm0 = np.linalg.norm(S0 @ u)
    u = _rk4(lambda v: _rhs(L, v), u, dt)
    if np.linalg.norm(S0 @ u) > 1e3 * max(norm0, 1e-300) or not np.all(np.isfinite(u)):
        raise RuntimeError(
            f"similarity evolution unstable: energy norm {norm0:.3e} -> "
            f"{np.linalg.norm(S0 @ u):.3e} in one step (dt={dt})")
    q1, q2 = exponential_filter(u.reshape(2, grid.N + 1))
    return StateVector(q1=q1, q2=q2)


def bump(y: np.ndarray) -> np.ndarray:
    """Smooth compactly supported bump on |y| < BUMP_WIDTH, peak value 1."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < BUMP_WIDTH
    s = y[inside] / BUMP_WIDTH
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s ** 2))
    return out


def initial_perturbation(cfg: EvolveConfig, grid: ChebGrid) -> StateVector:
    """epsilon * (bump, bump / 2), with the unresolved coefficient tail
    chopped; see truncate_modes."""
    b = bump(grid.y)
    return StateVector(q1=truncate_modes(cfg.epsilon * b),
                       q2=truncate_modes(cfg.epsilon * 0.5 * b))


def evolve_states(cfg: EvolveConfig, q0: StateVector, grid: ChebGrid):
    """Generator of (tau, StateVector) along the RK4 trajectory."""
    L = assemble_Lp(cfg.p, grid)
    S0 = seminorm_stack(grid, 0)
    dt = cfg.dt if cfg.dt is not None else stable_dt(cfg.p, cfg.N)
    nsteps = int(math.ceil(cfg.tau_max / dt - 1e-12))
    dt = cfg.tau_max / nsteps
    q = q0
    norm_init = max(np.linalg.norm(S0 @ q.flat()), 1e-300)
    yield 0.0, q
    for j in range(nsteps):
        q = step_similarity(q, cfg.p, dt, grid, L=L)
        if np.linalg.norm(S0 @ q.flat()) > 1e6 * norm_init:
            raise RuntimeError(
                f"similarity trajectory diverged by tau={(j + 1) * dt:.3f}: "
                "unstable component present or data outside stability basin")
        yield (j + 1) * dt, q


def evolve_perturbation(cfg: EvolveConfig, project_out_unstable: bool = True,
                        q0: StateVector | None = None,
                        fit_window: tuple | None = None) -> DecayFit:
    """Run the similarity evolution and fit the exponential decay rate.

    With project_out_unstable the neutral/unstable spectral components are
    removed at tau = 0 by I - P0 - P1 (Riesz projectors); the remaining flow
    should decay at the spectral-gap rate.
    """
    grid = ChebGrid.make(cfg.N)
    if q0 is None:
        q0 = initial_perturbation(cfg, grid)
    if project_out_unstable:
        P0, _, P1, _, _ = riesz_projectors_for(cfg.p, grid)
        u = q0.flat()
        u = u - (P0 @ u).real - (P1 @ u).real
        q0 = StateVector.from_flat(u)
    taus, norms, l2s = [], [], []
    for tau, q in evolve_states(cfg, q0, grid):
        taus.append(tau)
        norms.append(energy_norm(cfg.k, q, grid))
        l2s.append(math.sqrt(grid.integrate(q.q1 ** 2) + grid.integrate(q.q2 ** 2)))
    taus = np.array(taus)
    norms = np.array(norms)
    if fit_window is None:
        fit_window = (2.0, 0.8 * cfg.tau_max)
    rate, r2 = fit_log_slope(taus, norms, fit_window)
    return DecayFit(taus=taus, norms=norms, fitted_rate=rate,
                    fit_window=fit_window, r_squared=r2, l2_norms=np.array(l2s))


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
# ODE blow-up family: instability of the spatially homogeneous solution
# ---------------------------------------------------------------------------

def smallness_functional(p: float, T: float = 1.0, kappa: float = 0.0,
                         q: int = 1) -> float:
    """inf_a ( ||u(0,.) - a||_{H^{k+1}(-T,T)} + ||u_t(0,.) - 1/T||_{H^k} ),
    k = DEFAULT_K.

    Distance at t = 0 between the blow-up-family data and constant (ODE)
    data.  Spatial derivatives of u(0, x) = -p log(T + q g x) + p log T +
    kappa are closed-form; only the zeroth-order term depends on a, so the
    infimum is attained at the spatial mean.  Vanishes as p -> 1 (g -> 0).
    """
    g = math.sqrt(1.0 - p)
    k = DEFAULT_K
    grid = ChebGrid.make(SMALLNESS_NODES)
    x = grid.y * T                     # quadrature on (-T, T)
    w = grid.w * T
    denom = T + q * g * x
    u0 = -p * np.log(denom) + p * math.log(T) + kappa
    mean = float(np.sum(w * u0)) / (2.0 * T)
    sq_u = float(np.sum(w * (u0 - mean) ** 2))
    for m in range(1, k + 2):
        dm = -p * (-1.0) ** (m - 1) * math.factorial(m - 1) * (q * g) ** m / denom ** m
        sq_u += float(np.sum(w * dm ** 2))
    ut0 = p / denom
    sq_v = float(np.sum(w * (ut0 - 1.0 / T) ** 2))
    for m in range(1, k + 1):
        dm = p * (-1.0) ** m * math.factorial(m) * (q * g) ** m / denom ** (m + 1)
        sq_v += float(np.sum(w * dm ** 2))
    return math.sqrt(sq_u) + math.sqrt(sq_v)


def ode_blowup_instability(p: float, kappa: float = 0.0) -> dict:
    """Linear-in-tau divergence of the blow-up profile from tau + a.

    ||U_p(tau,.) - (tau+a)||_{L2(-1,1)} with U_p(tau,y) = p tau - p log(1 +
    y sqrt(1-p)) + kappa grows like |p-1| sqrt(2) tau for every shift
    a in {0, kappa, 1}; the slope is measured by a linear fit over the late
    half of tau in [0, 200].
    """
    a_grid = (0.0, kappa, 1.0)
    tau_grid = np.linspace(0.0, 200.0, 81)
    grid = ChebGrid.make(INSTABILITY_NODES)
    prof = similarity_profile(p, grid.y, kappa)
    slopes = {}
    norms = {}
    for a in a_grid:
        d = np.empty_like(tau_grid)
        for i, tau in enumerate(tau_grid):
            f = (p - 1.0) * tau + prof - a
            d[i] = math.sqrt(grid.integrate(f ** 2))
        late = tau_grid >= 0.5 * tau_grid[-1]
        A = np.vstack([tau_grid[late], np.ones(late.sum())]).T
        coef, *_ = np.linalg.lstsq(A, d[late], rcond=None)
        slopes[a] = float(coef[0])
        norms[a] = d
    return {
        "p": p,
        "tau_grid": tau_grid,
        "slopes": slopes,
        "norms": norms,
        "expected_slope": abs(p - 1.0) * math.sqrt(2.0),
        "smallness": smallness_functional(p, kappa=kappa),
    }


# ---------------------------------------------------------------------------
# Physical-space cross-validation
# ---------------------------------------------------------------------------

def physical_space_crosscheck(cfg: EvolveConfig, t_samples=None) -> dict:
    """Evolve the same perturbed data in (x, t) and in similarity variables.

    The physical solver is a 4th-order finite-difference method-of-lines RK4
    scheme for u_tt - u_xx = u_t^2 on [x0 - R, x0 + R], R = 1.25 T
    (CROSSCHECK_HALF_WIDTH), with CROSSCHECK_INTERVALS intervals; by finite
    speed of propagation the frozen far boundaries cannot influence the light
    cone for t <= 0.5 T.  The singular surface of the unperturbed profile
    (at x - x0 = -q (T-t)/sqrt(1-p)) stays outside the domain for p >= 0.9.
    Returns max |u_phys - u_sim| over cone sections at the sample times.
    """
    p, T, x0 = cfg.p, cfg.T, cfg.x0
    g = math.sqrt(1.0 - p)
    if g > 0 and CROSSCHECK_HALF_WIDTH >= 1.0 / g:
        raise ValueError("singular surface enters the physical domain")
    if t_samples is None:
        t_samples = (0.25 * T, 0.5 * T)
    t_samples = sorted(float(t) for t in t_samples)
    if t_samples[-1] > T * (1.0 - math.exp(-8.0)):
        raise ValueError("samples beyond the tau = 8 horizon")

    # one set of initial data for both solvers, from the truncated expansion
    grid = ChebGrid.make(cfg.N)
    q0 = initial_perturbation(cfg, grid)

    R = CROSSCHECK_HALF_WIDTH * T
    x = np.linspace(x0 - R, x0 + R, CROSSCHECK_INTERVALS + 1)
    h = x[1] - x[0]
    y0 = (x - x0) / T
    inside = np.abs(y0) <= 1.0
    q1_0 = np.zeros_like(y0)
    q2_0 = np.zeros_like(y0)
    q1_0[inside] = grid.interpolate(q0.q1, y0[inside])
    q2_0[inside] = grid.interpolate(q0.q2, y0[inside])
    u = similarity_profile(p, y0, cfg.kappa) + q1_0
    prof_q2 = p / (1.0 + g * y0)       # profile value of U_tau + y U_y
    v = (prof_q2 + q2_0) / T           # u_t = (U_tau + y U_y)/(T - t)

    w2 = _FD4_W2 / (h * h)

    def dxx(f):
        out = np.zeros_like(f)
        out[2:-2] = np.correlate(f, w2, mode="valid")
        return out

    def phys_rhs(state):
        uu, vv = state
        du = vv.copy()
        dv = dxx(uu) + vv ** 2
        du[[0, 1, -2, -1]] = 0.0       # frozen far boundaries
        dv[[0, 1, -2, -1]] = 0.0
        return np.array([du, dv])

    # similarity trajectory, sampled exactly at the requested cone sections
    tau_targets = [-math.log1p(-t / T) for t in t_samples]
    L = assemble_Lp(p, grid)
    base_dt = stable_dt(p, cfg.N)
    sim_sections = []
    q = q0
    tau = 0.0
    for tau_t in tau_targets:
        nst = max(1, int(math.ceil((tau_t - tau) / base_dt)))
        dt = (tau_t - tau) / nst
        for _ in range(nst):
            q = step_similarity(q, p, dt, grid, L=L)
        tau = tau_t
        sim_sections.append(q.q1.copy())

    state = np.array([u, v])
    t = 0.0
    dt_phys = 0.4 * h
    report = {"t": [], "max_abs_err": []}
    for ts, q1_sim in zip(t_samples, sim_sections):
        nst = max(1, int(math.ceil((ts - t) / dt_phys)))
        dtp = (ts - t) / nst
        for _ in range(nst):
            state = _rk4(phys_rhs, state, dtp)
            if not np.all(np.isfinite(state)):
                raise RuntimeError(f"physical solver blew up before t={ts}")
        t = ts
        spline = CubicSpline(x, state[0])
        x_cone = x0 + grid.y * (T - ts)
        u_phys = spline(x_cone)
        u_sim = (similarity_profile(p, grid.y, cfg.kappa)
                 + p * (-math.log1p(-ts / T)) + q1_sim)
        report["t"].append(ts)
        report["max_abs_err"].append(float(np.max(np.abs(u_phys - u_sim))))
    report["max_discrepancy"] = max(report["max_abs_err"])
    return report
