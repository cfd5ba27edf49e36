"""Nonlinear evolution of the perturbation in similarity variables.

The perturbation q = (q1, q2) of the blow-up profile obeys

    d q / d tau = L_p q + (0, q2^2),

discretised with the Chebyshev collocation operator from `linop` (no boundary
rows: the principal coefficient degenerates at y = ±1 and characteristics
leave the interval).  Lawson's integrating-factor RK4 in tau (Lawson 1967,
SIAM J. Numer. Anal. 4:372) at the fixed step IF_STEP: the linear part is
propagated exactly by expm(h L_p / 2) (linop._expm) and its square, so the
step is set by accuracy and not by the stiff spectrum of L_p.  A mild
exponential filter on the top third of the Chebyshev modes after each step
keeps endpoint noise below truncation level.

Also here: the closed-form divergence of the blow-up family from the
spatially homogeneous ODE solution as p -> 1, and a physical-space (x, t)
solver on the characteristic lattice of the backward light cone, used to
cross-validate the similarity evolution inside that cone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .chebgrid import (ChebGrid, cheb_coeffs, exponential_filter,
                       truncate_modes)
from .linop import (DEFAULT_K, OMEGA0, _expm, assemble_Lp, energy_norm,
                    fit_log_slope, neutral_coordinates)
from .profiles import (ProfileParams, _log_arg, eval_profile,
                       similarity_profile, similarity_profile_q2)

TAU_MAX_CAP = 15.0
IF_STEP = 0.05                   # integrating-factor RK4 step in tau
MAX_SIMILARITY_STEPS = 100_000   # steps to tau_max: 104 MB of states at N = 64
DECAY_FIT_WINDOW = (3.0, 7.0)    # tau window of the decay-rate fit
DECAY_R2_MIN = 0.98              # least r^2 of a fit that shows decay
DECAY_RATE_GATE = -0.8 * OMEGA0  # largest fitted rate that shows decay
BUMP_WIDTH = 0.8                 # support |y| < BUMP_WIDTH of the initial bump
CROSSCHECK_INTERVALS = 4096      # lattice intervals across the cone base
CROSSCHECK_T_SAMPLES = (0.25, 0.5)  # cone sections compared, as t / T
SMALLNESS_NODES = 400            # Chebyshev order of the smallness quadrature
INSTABILITY_NODES = 200          # Chebyshev order of the divergence L2 norms


@dataclass(frozen=True)
class EvolveConfig:
    p: float
    kappa: float = 0.0
    T: float = 1.0
    N: int = 64
    dt: float | None = None
    tau_max: float = 12.0
    epsilon: float = 1e-4

    def __post_init__(self):
        ProfileParams(p=self.p, kappa=self.kappa, T=self.T)
        if not 0.0 < self.tau_max <= TAU_MAX_CAP:
            raise ValueError(f"tau_max must lie in (0, {TAU_MAX_CAP:g}]")
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.dt is not None and self.tau_max / self.dt > MAX_SIMILARITY_STEPS:
            raise ValueError(
                f"dt = {self.dt:g} takes {np.ceil(self.tau_max / self.dt):.0f}"
                f" steps to tau_max = {self.tau_max:g}; at most "
                f"MAX_SIMILARITY_STEPS = {MAX_SIMILARITY_STEPS}")


@dataclass
class DecayFit:
    taus: np.ndarray
    norms: np.ndarray
    fitted_rate: float
    r_squared: float
    l2_norms: np.ndarray = field(repr=False)

    @classmethod
    def of(cls, taus: np.ndarray, Q: np.ndarray, k: int,
           grid: ChebGrid) -> DecayFit:
        """The decay of the trajectory (taus, Q) of evolve_states: the
        order-k energy norms and the L2 norms of its states, and the
        log-slope of the k-norms fitted over DECAY_FIT_WINDOW.  The window
        starts after the initial multi-mode transient and ends before an
        unstable remnant (grown like e^tau from roundoff, or from the
        correction floor of modulated data) re-emerges."""
        norms = np.array([energy_norm(k, q, grid) for q in Q])
        l2s = [math.sqrt(grid.integrate(q1 ** 2) + grid.integrate(q2 ** 2))
               for q1, q2 in Q]
        rate, r2 = fit_log_slope(taus, norms, DECAY_FIT_WINDOW)
        return cls(taus=taus, norms=norms, fitted_rate=rate, r_squared=r2,
                   l2_norms=np.array(l2s))

    def decays_at(self) -> bool:
        """True when the fit is exponential (r^2 >= DECAY_R2_MIN) and
        decays at least as fast as DECAY_RATE_GATE; a NaN rate fails."""
        return (self.fitted_rate <= DECAY_RATE_GATE
                and self.r_squared >= DECAY_R2_MIN)


@functools.lru_cache(maxsize=1)
def _step_operators(p: float, N: int, h: float) -> tuple[np.ndarray, ...]:
    """(P, H2, H1, M): the blocks of half = _expm(h L_p / 2) and full =
    half^2, which is what _expm(h L_p) returns (it scales by a power of two
    and squares), that one step of step_similarity reads, read-only; one
    cache entry, since callers run all their steps at one (p, N, h).

    N(u) = (0, q2^2) has no q1 half, so a propagator acting on a stage
    value needs only its q2 columns, and the stages need only the q2 rows
    of their inputs.  P = [half[n:]; full[n:]] gives the q2 rows of half u
    and full u; H2 and H1 are the q2-q2 block of half times h / 2 and h.
    M maps [u, a1, a2 + a3, a4], with a_i the q2 halves of the stages, to
    the next state: full, then h / 6 full, h / 3 half and h / 6 times the
    identity on their q2 columns, each column filtered (exponential_filter)
    as a state, since the filter is linear.
    """
    half = _expm(0.5 * h * assemble_Lp(p, ChebGrid.make(N)))
    full = half @ half
    n = N + 1
    lift = np.zeros((2 * n, n))
    lift[n:] = np.eye(n)
    M = np.hstack([full, (h / 6.0) * full[:, n:], (h / 3.0) * half[:, n:],
                   (h / 6.0) * lift])
    M = np.ascontiguousarray(
        exponential_filter(M.T.reshape(-1, 2, n)).reshape(-1, 2 * n).T)
    ops = (np.vstack([half[n:], full[n:]]), (0.5 * h) * half[n:, n:],
           h * half[n:, n:], M)
    for a in ops:
        a.flags.writeable = False
    return ops


def step_similarity(q: np.ndarray, p: float, h: float,
                    grid: ChebGrid) -> np.ndarray:
    """One filtered integrating-factor RK4 step of the perturbation system,
    from the state q, shape (2, N+1), to the next: the stages
    k_i = (0, a_i) on the q2 blocks of the propagators (_step_operators)."""
    P, H2, H1, M = _step_operators(p, grid.N, h)
    n = grid.N + 1
    u = q.ravel()
    a1 = u[n:] ** 2
    v = P @ u
    half_u, full_u = v[:n], v[n:]
    a2 = (half_u + H2 @ a1) ** 2
    a3 = (half_u + (0.5 * h) * a2) ** 2
    a4 = (full_u + H1 @ a3) ** 2
    return (M @ np.concatenate([u, a1, a2 + a3, a4])).reshape(2, n)


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


def evolve_perturbation(cfg: EvolveConfig) -> DecayFit:
    """The decay, in the DEFAULT_K energy norm, of the initial perturbation
    with its neutral/unstable spectral components removed at tau = 0:
    u - V Phi u, with (Phi, V) from neutral_coordinates, is (I - P0 - P1) u
    for the Riesz projectors P0 and P1.  The remaining flow should decay at
    the spectral-gap rate."""
    grid = ChebGrid.make(cfg.N)
    Phi, V = neutral_coordinates(cfg.p, cfg.N)
    u = initial_perturbation(cfg, grid).ravel()
    taus, Q = evolve_states(cfg, (u - V @ (Phi @ u)).reshape(2, -1), grid)
    return DecayFit.of(taus, Q, DEFAULT_K, grid)


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

def _physical_sections(cfg: EvolveConfig, q0: np.ndarray, grid: ChebGrid,
                       intervals: int = CROSSCHECK_INTERVALS) -> list:
    """[(y, u)] on the cone sections t = CROSSCHECK_T_SAMPLES * T, with
    y = (x - x0) / (T - t) for any blow-up point x0 (the lattice works in
    y), from the profile plus q0 at t = 0.

    w+- = u_t +- u_x obey (d_t -+ d_x) w+- = s^2, s = (w+ + w-)/2, so on the
    cone's lattice dx = dt w+ comes from node j+1 and w- from node j-1, and
    u moves with w+ by du/dt = w-, each by the trapezoid rule; its implicit
    s = m + dt s^2 / 2 (m the mean of the explicit parts) is
    2m / (1 + sqrt(1 - 2 dt m)).  (4 u_fine - u_coarse) / 3 from `intervals`
    and half as many intervals is 4th order.  RuntimeError naming t when
    1 - 2 dt m <= 0 or u is not finite.
    """
    p, T, g = cfg.p, cfg.T, math.sqrt(1.0 - cfg.p)
    y = np.linspace(-1.0, 1.0, intervals + 1)
    cheb = np.polynomial.chebyshev
    u0 = similarity_profile(p, y, cfg.kappa) + grid.interpolate(q0[0], y)
    u_t = (similarity_profile_q2(p, y) + grid.interpolate(q0[1], y)) / T
    u_x = (-p * g / (1.0 + g * y)
           + cheb.chebval(y, cheb.chebder(cheb_coeffs(q0[0])))) / T
    lattices = []
    for r in (2, 1):
        u, w_plus, w_minus = u0[::r], (u_t + u_x)[::r], (u_t - u_x)[::r]
        dt = 2.0 * T * r / intervals
        counts = [round(s * intervals / (2 * r)) for s in CROSSCHECK_T_SAMPLES]
        s2 = (0.5 * (w_plus + w_minus)) ** 2
        lattices.append([])
        for k in range(1, counts[-1] + 1):
            a = w_plus[2:] + 0.5 * dt * s2[2:]
            b = w_minus[:-2] + 0.5 * dt * s2[:-2]
            disc = 1.0 - dt * (a + b)
            ok = np.all(disc > 0.0)           # false at a NaN too
            if ok:
                s2 = ((a + b) / (1.0 + np.sqrt(disc))) ** 2
                u = u[2:] + 0.5 * dt * (w_minus[2:] + b + 0.5 * dt * s2)
                w_plus, w_minus = a + 0.5 * dt * s2, b + 0.5 * dt * s2
                ok = np.all(np.isfinite(u))
            if not ok:
                raise RuntimeError(f"physical solver blew up before t={k * dt:g}")
            if k in counts:
                lattices[-1].append(u)
    return [(np.linspace(-1.0, 1.0, len(uc)), (4.0 * uf[::2] - uc) / 3.0)
            for uc, uf in zip(*lattices)]


def physical_space_crosscheck(cfg: EvolveConfig) -> dict:
    """Evolve the same perturbed data in (x, t) and in similarity variables.

    The physical solver (_physical_sections) runs on the characteristic
    lattice of the backward light cone of (x0, T), whose section at t is
    the cone's |x - x0| <= T - t, so the singular surface
    x - x0 = -(T-t)/sqrt(1-p) lies outside it at every p.  The similarity
    flow runs evolve_states from one cone section to the next, in steps of
    at most cfg.dt (IF_STEP by default).  Returns the max |u_phys - u_sim|
    over the lattice nodes of the sections t = CROSSCHECK_T_SAMPLES * T,
    reading q1 there by its Chebyshev series.
    """
    p, T = cfg.p, cfg.T
    # one set of initial data for both solvers, from the truncated expansion
    grid = ChebGrid.make(cfg.N)
    q0 = initial_perturbation(cfg, grid)
    report = {"t": [], "max_abs_err": []}
    q, tau = q0, 0.0
    for s, (y, u_phys) in zip(CROSSCHECK_T_SAMPLES,
                              _physical_sections(cfg, q0, grid)):
        ts = s * T
        tau_t = -math.log1p(-ts / T)
        q = evolve_states(replace(cfg, tau_max=tau_t - tau), q, grid)[1][-1]
        tau = tau_t
        u_sim = (similarity_profile(p, y, cfg.kappa) + p * tau
                 + grid.interpolate(q[0], y))
        report["t"].append(ts)
        report["max_abs_err"].append(float(np.max(np.abs(u_phys - u_sim))))
    report["max_discrepancy"] = float(np.max(report["max_abs_err"]))
    return report
