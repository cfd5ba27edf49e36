"""Nonlinear evolution of the perturbation in similarity variables.

The perturbation q = (q1, q2) of the blow-up profile obeys

    d q / d tau = L_p q + (0, q2^2),

discretised with the Chebyshev collocation operator from `linop` (no boundary
rows: the principal coefficient degenerates at y = ±1 and characteristics
leave the interval).  Lawson's integrating-factor RK4 in tau (Lawson 1967,
SIAM J. Numer. Anal. 4:372) at the fixed step IF_STEP: the linear part is
propagated exactly by expm(h L_p / 2) and its square, so the step is set by
accuracy and not by the stiff spectrum of L_p.  A mild exponential filter on
the top third of the Chebyshev modes after each step keeps endpoint noise
below truncation level.

Also here: the closed-form divergence of the blow-up family from the
spatially homogeneous ODE solution as p -> 1, and a physical-space (x, t)
finite-difference solver used to cross-validate the similarity evolution
inside the light cone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .chebgrid import ChebGrid, exponential_filter, truncate_modes
from .linop import DEFAULT_K, assemble_Lp, energy_norm, neutral_coordinates
from .profiles import (_FD4_C2, ProfileParams, _log_arg, eval_profile,
                       similarity_profile, similarity_profile_q2)

TAU_MAX_CAP = 15.0
IF_STEP = 0.05                   # integrating-factor RK4 step in tau
MAX_SIMILARITY_STEPS = 100_000   # steps to tau_max: 104 MB of states at N = 64
DECAY_FIT_WINDOW = (3.0, 7.0)    # tau window of the decay-rate fit
DECAY_R2_MIN = 0.98              # least r^2 of a fit that shows decay
BUMP_WIDTH = 0.8                 # support |y| < BUMP_WIDTH of the initial bump
CROSSCHECK_HALF_WIDTH = 1.25     # physical domain [x0 - R, x0 + R], R / T
CROSSCHECK_INTERVALS = 4096      # finite-difference intervals on that domain
CROSSCHECK_T_SAMPLES = (0.25, 0.5)  # cone sections compared, as t / T
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
        if not 0.0 < self.tau_max <= TAU_MAX_CAP:
            raise ValueError(f"tau_max must lie in (0, {TAU_MAX_CAP:g}]")
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.dt is not None and self.tau_max / self.dt > MAX_SIMILARITY_STEPS:
            raise ValueError(
                f"dt = {self.dt:g} takes {math.ceil(self.tau_max / self.dt)} "
                f"steps to tau_max = {self.tau_max:g}; at most "
                f"MAX_SIMILARITY_STEPS = {MAX_SIMILARITY_STEPS}")


@dataclass
class DecayFit:
    taus: np.ndarray
    norms: np.ndarray
    fitted_rate: float
    r_squared: float
    l2_norms: np.ndarray = field(default=None, repr=False)

    def decays_at(self, rate: float) -> bool:
        """True when the fit is exponential (r^2 >= DECAY_R2_MIN) and
        decays at least as fast as `rate`; a NaN rate fails."""
        return self.fitted_rate <= rate and self.r_squared >= DECAY_R2_MIN


@functools.lru_cache(maxsize=1)
def _propagators(p: float, N: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(expm(h L_p / 2), expm(h L_p)) on the N-grid, read-only.

    scipy's expm scales and squares, so squaring the half-step propagator
    gives what expm(h L_p) returns; one expm per (p, N, h) suffices.  This
    is the one scipy expm call: linop.semigroup_action_check takes its step
    propagator here too.  One entry is kept: callers run all their steps at
    one (p, N, h) before moving on, and the modulation fit never returns to
    an earlier p.  Under `all`, semigroup-check (h = 1) and evolve evict
    each other, which costs one expm each and changes no result.
    """
    from scipy.linalg import expm

    half = expm(0.5 * h * assemble_Lp(p, ChebGrid.make(N)))
    full = half @ half
    half.flags.writeable = False
    full.flags.writeable = False
    return half, full


def _nonlinear(u: np.ndarray) -> np.ndarray:
    """N(u) = (0, q2^2) on a flattened state."""
    out = np.zeros_like(u)
    n = len(u) // 2
    out[n:] = u[n:] ** 2
    return out


def _rk4(f, u: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of du/dt = f(u)."""
    k1 = f(u)
    k2 = f(u + 0.5 * dt * k1)
    k3 = f(u + 0.5 * dt * k2)
    k4 = f(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_similarity(q: np.ndarray, p: float, h: float,
                    grid: ChebGrid) -> np.ndarray:
    """One filtered integrating-factor RK4 step of the perturbation system,
    from the state q, shape (2, N+1), to the next."""
    half, full = _propagators(p, grid.N, h)
    u = q.ravel()
    k1 = _nonlinear(u)
    k2 = _nonlinear(half @ (u + 0.5 * h * k1))
    half_u = half @ u
    k3 = _nonlinear(half_u + 0.5 * h * k2)
    full_u = half @ half_u
    k4 = _nonlinear(full_u + h * (half @ k3))
    u = full_u + (h / 6.0) * (full @ k1 + 2.0 * (half @ (k2 + k3)) + k4)
    return exponential_filter(u.reshape(2, grid.N + 1))


def bump(y: np.ndarray) -> np.ndarray:
    """Smooth compactly supported bump on |y| < BUMP_WIDTH, peak value 1."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < BUMP_WIDTH
    s = y[inside] / BUMP_WIDTH
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s ** 2))
    return out


def initial_perturbation(cfg: EvolveConfig, grid: ChebGrid) -> np.ndarray:
    """epsilon * (bump, bump / 2), with the unresolved coefficient tail
    chopped; see truncate_modes."""
    b = bump(grid.y)
    return np.stack([truncate_modes(cfg.epsilon * b),
                     truncate_modes(cfg.epsilon * 0.5 * b)])


def evolve_states(cfg: EvolveConfig, q0: np.ndarray,
                  grid: ChebGrid) -> tuple[np.ndarray, np.ndarray]:
    """(taus, Q): the trajectory from the state q0 in equal steps of about
    cfg.dt (IF_STEP by default) that end at cfg.tau_max, at least one step;
    Q[j], shape (2, N+1), is the state at taus[j].

    ValueError unless q0 is a finite (2, N+1) array.  RuntimeError when the
    k = 0 energy norm grows 1e3-fold in one step (loose: the non-normal
    discretisation shows genuine one-step transients on stable trajectories,
    while a q2^2 runaway crosses three orders of magnitude within a step or
    two) or 1e6-fold over the trajectory.
    """
    if np.shape(q0) != (2, grid.N + 1) or not np.all(np.isfinite(q0)):
        raise ValueError(f"q0 must be a finite (2, {grid.N + 1}) array")
    h = cfg.dt if cfg.dt is not None else IF_STEP
    nsteps = max(1, int(math.ceil(cfg.tau_max / h - 1e-12)))
    h = cfg.tau_max / nsteps
    Q = np.empty((nsteps + 1, 2, grid.N + 1))
    Q[0] = q0
    norm = energy_norm(0, Q[0], grid)
    bound = 1e6 * max(norm, 1e-300)
    for j in range(nsteps):
        Q[j + 1] = step_similarity(Q[j], cfg.p, h, grid)
        norm0, norm = norm, energy_norm(0, Q[j + 1], grid)
        if not norm <= 1e3 * max(norm0, 1e-300):   # also catches NaN and inf
            raise RuntimeError(
                f"similarity evolution unstable: energy norm {norm0:.3e} -> "
                f"{norm:.3e} in one step (h={h})")
        if norm > bound:
            raise RuntimeError(
                f"similarity trajectory diverged by tau={(j + 1) * h:.3f}: "
                "unstable component present or data outside stability basin")
    return h * np.arange(nsteps + 1), Q


def evolve_perturbation(cfg: EvolveConfig, project_out_unstable: bool = True,
                        q0: np.ndarray | None = None) -> DecayFit:
    """Run the similarity evolution and fit the exponential decay rate.

    With project_out_unstable the neutral/unstable spectral components are
    removed at tau = 0: u - V Phi u, with (Phi, V) from neutral_coordinates,
    is (I - P0 - P1) u for the Riesz projectors P0 and P1.  The remaining
    flow should decay at the spectral-gap rate.  The fit window,
    DECAY_FIT_WINDOW, starts after the initial multi-mode transient and ends
    before the unstable remnant (grown like e^tau from roundoff, or from the
    correction floor of modulated data) re-emerges.
    """
    grid = ChebGrid.make(cfg.N)
    if q0 is None:
        q0 = initial_perturbation(cfg, grid)
    if project_out_unstable:
        Phi, V = neutral_coordinates(cfg.p, cfg.N)
        u = q0.ravel()
        q0 = (u - V @ (Phi @ u)).reshape(2, -1)
    taus, Q = evolve_states(cfg, q0, grid)
    norms = np.array([energy_norm(cfg.k, q, grid) for q in Q])
    l2s = [math.sqrt(grid.integrate(q1 ** 2) + grid.integrate(q2 ** 2))
           for q1, q2 in Q]
    rate, r2 = fit_log_slope(taus, norms, DECAY_FIT_WINDOW)
    return DecayFit(taus=taus, norms=norms, fitted_rate=rate, r_squared=r2,
                    l2_norms=np.array(l2s))


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

def smallness_functional(p: float, kappa: float = 0.0) -> float:
    """inf_a ( ||u(0,.) - a||_{H^{k+1}(-1,1)} + ||u_t(0,.) - 1||_{H^k} ),
    k = DEFAULT_K, for the blow-up family at T = 1, q = 1.

    Distance at t = 0 between the blow-up-family data and constant (ODE)
    data.  Spatial derivatives of u(0, x) = -p log(1 + g x) + kappa are
    closed-form; only the zeroth-order term depends on a, so the infimum is
    attained at the spatial mean.  Vanishes as p -> 1 (g -> 0).
    """
    params = ProfileParams(p=p, kappa=kappa)
    g = params.root_1mp
    k = DEFAULT_K
    grid = ChebGrid.make(SMALLNESS_NODES)
    x, w = grid.y, grid.w
    u0, ut0, _ = eval_profile(params, x, 0.0)
    denom = _log_arg(params, x, 0.0)
    mean = float(np.sum(w * u0)) / 2.0
    sq_u = float(np.sum(w * (u0 - mean) ** 2))
    for m in range(1, k + 2):
        dm = -p * (-1.0) ** (m - 1) * math.factorial(m - 1) * g ** m / denom ** m
        sq_u += float(np.sum(w * dm ** 2))
    sq_v = float(np.sum(w * (ut0 - 1.0) ** 2))
    for m in range(1, k + 1):
        dm = p * (-1.0) ** m * math.factorial(m) * g ** m / denom ** (m + 1)
        sq_v += float(np.sum(w * dm ** 2))
    return math.sqrt(sq_u) + math.sqrt(sq_v)


def ode_blowup_instability(p: float, kappa: float = 0.0) -> dict:
    """Linear-in-tau divergence of the blow-up profile from tau + a.

    ||U_p(tau,.) - (tau+a)||_{L2(-1,1)} with U_p(tau,y) = p tau - p log(1 +
    y sqrt(1-p)) + kappa grows like |p-1| sqrt(2) tau for every shift
    a in {0, kappa, 1}; the slope is measured by a linear fit over the late
    half of tau in [0, tau_end].  ValueError at p = 1, where the slope is 0.
    """
    if p >= 1.0:
        raise ValueError("the divergence slope |p-1| sqrt(2) vanishes at "
                         "p = 1: instability-p1 needs p < 1")
    a_grid = (0.0, kappa, 1.0)
    grid = ChebGrid.make(INSTABILITY_NODES)
    prof = similarity_profile(p, grid.y, kappa)
    # the norm turns linear in tau only once (1-p) tau is past every value
    # of the static part U - a (the sign change), and its curvature there
    # is set by the spread of U: tau_end is ten of the larger of those two
    # times, and at least 200
    reach = max(np.max(prof) - min(a_grid), np.ptp(prof))
    tau_grid = np.linspace(0.0, max(200.0, 10.0 * reach / (1.0 - p)), 81)
    slopes = {}
    norms = {}
    for a in a_grid:
        f = (p - 1.0) * tau_grid[None, :] + (prof - a)[:, None]
        d = np.sqrt(grid.integrate(f ** 2))
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

def physical_space_crosscheck(cfg: EvolveConfig) -> dict:
    """Evolve the same perturbed data in (x, t) and in similarity variables.

    The physical solver is a 4th-order finite-difference method-of-lines RK4
    scheme for u_tt - u_xx = u_t^2 on [x0 - R, x0 + R], R = 1.25 T
    (CROSSCHECK_HALF_WIDTH), with CROSSCHECK_INTERVALS intervals; by finite
    speed of propagation the frozen far boundaries cannot influence the light
    cone for t <= 0.5 T.  The finite-difference solution equals the exact
    one on |x - x0| < R - t, so it stays clear of the singular surface
    x - x0 = -(T-t)/sqrt(1-p) up to the last section t_last when
    (T - t_last)/sqrt(1-p) > R - t_last, i.e. p > 5/9 at the defaults;
    ValueError naming p otherwise, before any step.
    The similarity flow runs evolve_states from one cone section to the
    next, in steps of at most cfg.dt (IF_STEP by default).  Returns the
    max |u_phys - u_sim| over the physical nodes inside the cone sections
    t = CROSSCHECK_T_SAMPLES * T, reading q1 there by its Chebyshev series.
    """
    p, T, x0 = cfg.p, cfg.T, cfg.x0
    t_samples = [s * T for s in CROSSCHECK_T_SAMPLES]
    R = CROSSCHECK_HALF_WIDTH * T
    reach = (T - t_samples[-1]) / (R - t_samples[-1])   # largest sqrt(1-p)
    if not math.sqrt(1.0 - p) < reach:
        raise ValueError(f"singular surface meets the finite-difference "
                         f"solution by t = {t_samples[-1]:g}: the crosscheck "
                         f"needs p > {1.0 - reach ** 2:.4g}, got p = {p}")

    # one set of initial data for both solvers, from the truncated expansion
    grid = ChebGrid.make(cfg.N)
    q0 = initial_perturbation(cfg, grid)

    x = np.linspace(x0 - R, x0 + R, CROSSCHECK_INTERVALS + 1)
    h = x[1] - x[0]
    y0 = (x - x0) / T
    inside = np.abs(y0) <= 1.0
    q1_0 = np.zeros_like(y0)
    q2_0 = np.zeros_like(y0)
    q1_0[inside] = grid.interpolate(q0[0], y0[inside])
    q2_0[inside] = grid.interpolate(q0[1], y0[inside])
    u = similarity_profile(p, y0, cfg.kappa) + q1_0
    v = (similarity_profile_q2(p, y0) + q2_0) / T   # u_t = (U_tau + y U_y)/(T - t)

    w2 = _FD4_C2 / 12.0 / (h * h)

    def phys_rhs(state):     # (u_t, u_tt) on nodes 2 .. n-3; the rest frozen
        out = np.zeros_like(state)
        out[0, 2:-2] = state[1, 2:-2]
        out[1, 2:-2] = np.correlate(state[0], w2, "valid") + state[1, 2:-2] ** 2
        return out

    # similarity trajectory, sampled exactly at the requested cone sections
    sim_sections = []
    q, tau = q0, 0.0
    for tau_t in (-math.log1p(-t / T) for t in t_samples):
        q = evolve_states(replace(cfg, tau_max=tau_t - tau), q, grid)[1][-1]
        tau = tau_t
        sim_sections.append(q[0])

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
        cone = np.abs(x - x0) <= T - ts
        y_cone = (x[cone] - x0) / (T - ts)
        u_sim = (similarity_profile(p, y_cone, cfg.kappa)
                 + p * (-math.log1p(-ts / T)) + grid.interpolate(q1_sim, y_cone))
        report["t"].append(ts)
        report["max_abs_err"].append(float(np.max(np.abs(state[0][cone] - u_sim))))
    report["max_discrepancy"] = float(np.max(report["max_abs_err"]))
    return report
