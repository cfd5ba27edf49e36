"""Parameter modulation: choosing (p*, T*, kappa*) so the correction vanishes.

Perturbing the blow-up profile with data (f1, f2) generically excites the
symmetry modes (time translation, Lorentz boost, kappa-shift and the p-family
direction), which do not decay.  Rather than projecting them away, the
matching blow-up parameters are adjusted: the initial-data operator

    U_{p,T,kappa}(f) = f^T + f0^T - f_{p,kappa}

measures the perturbation relative to a *trial* profile, and the correction
functional (the unstable/neutral spectral content of the full nonlinear
trajectory, as coordinates in {g0, f0, f1} from linop.neutral_coordinates)
is driven to zero by one fixed-point iteration, joint over (p, T, kappa)
and the nonlinear part of the correction, that adds the coordinates to the
parameters.  The fixed point certifies that the perturbed data lies on the
stable manifold of the trial profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chebgrid import ChebGrid
from .evolve import DecayFit, EvolveConfig, evolve_states
from .linop import DEFAULT_K, energy_norm, neutral_coordinates

FIT_TOL = 1e-8              # correction norm at which the fit has converged
FIT_TAU_MAX = 12.0          # horizon of the trajectories the fit evaluates
FIT_MAX_ITER = 30           # iterations of fit_parameters
DECAY_TAU_MAX = 8.0         # horizon of modulated_decay


@dataclass
class ModulationState:
    p_star: float
    T_star: float
    kappa_star: float
    correction_norm: float
    iterations: int
    converged: bool
    history: list = field(default_factory=list, repr=False)


def initial_data_operator(p: float, T: float, kappa: float, baseline: tuple,
                          f: np.ndarray, grid: ChebGrid) -> np.ndarray:
    """U_{p,T,kappa}(f) = f^T + f0^T - f_{p,kappa} on the collocation grid,
    for data f and result of shape (2, N+1); ValueError unless f is a
    finite (2, N+1) array.

    baseline = (p0, T0, kappa0).  Domain constraint: the baseline profile
    entering f0^T is evaluated at r y, r = T/T0, and must stay left of its
    singularity, i.e. r < 1/sqrt(1-p0).  The fit keeps (p, T, kappa) within
    ~1e-4 of the baseline, so f0^T - f_{p,kappa} is written through the
    offsets dp = p0 - p and dr = r - 1, and no term cancels (g = sqrt(1-p),
    g0 = sqrt(1-p0), D = g0 r - g = ((1 - p0) dr (r + 1) - dp) / (g0 r + g)):
        q1 = (kappa0 - kappa) - dp log(1 + g0 r y) - p log(1 + D y / (1 + g y)),
        q2 = (p0 dr + dp + y r (p0 dp / (g + g0) + dp g0))
             / ((1 + g0 r y)(1 + g y)).
    """
    if np.shape(f) != (2, grid.N + 1) or not np.all(np.isfinite(f)):
        raise ValueError(f"data f must be a finite (2, {grid.N + 1}) array")
    p0, T0, kappa0 = baseline
    if not 0.0 < p < 1.0 or not 0.0 < p0 < 1.0:
        raise ValueError("p and p0 must lie in (0, 1)")
    r = T / T0
    if not r < 1.0 / math.sqrt(1.0 - p0):
        raise ValueError(
            f"initial data operator undefined: T/T0 = {r} must be "
            f"< 1/sqrt(1-p0) = {1.0 / math.sqrt(1.0 - p0)}")
    y = grid.y
    g, g0 = math.sqrt(1.0 - p), math.sqrt(1.0 - p0)
    dp, dr = p0 - p, (T - T0) / T0
    D = ((1.0 - p0) * dr * (r + 1.0) - dp) / (g0 * r + g)
    den = 1.0 + g * y
    q1 = (kappa0 - kappa - dp * np.log1p(g0 * r * y)
          - p * np.log1p(D * y / den))
    q2 = ((p0 * dr + dp + y * r * (p0 * dp / (g + g0) + dp * g0))
          / ((1.0 + g0 * r * y) * den))
    return np.stack([grid.interpolate(f[0], T * y) + q1,
                     T * grid.interpolate(f[1], T * y) + q2])


def _simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Composite Simpson rule along axis 0 of y, sampled at spacing h:
    h/3 (y0 + 4 sum of odd + 2 sum of inner even + yn).  Odd sample counts
    only."""
    n = len(y)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Simpson's rule needs an odd count >= 3, got {n}")
    return h / 3.0 * (y[0] + 4.0 * np.sum(y[1:-1:2], axis=0)
                      + 2.0 * np.sum(y[2:-2:2], axis=0) + y[-1])


def _nonlinear_integrals(taus: np.ndarray, q2sq: np.ndarray) -> tuple:
    """Simpson integrals of N(q) = (0, q2^2) with weights 1, -tau, e^-tau,
    on the equally spaced taus of evolve_states."""
    h = taus[1] - taus[0]
    return (_simpson(q2sq, h), _simpson(-taus[:, None] * q2sq, h),
            _simpson(np.exp(-taus)[:, None] * q2sq, h))


def correction_functional(Phi: np.ndarray, d: np.ndarray,
                          q_traj: tuple) -> np.ndarray:
    """[l_g0, l_f0, l_f1]: coordinates of the correction in {g0, f0, f1}.

    Phi is the map of neutral_coordinates at the trial p and d = U(f) the
    flat data of initial_data_operator, both built once per parameter point;
    q_traj = (taus, q2_squared_history) of the trajectory.
    The correction is P_p U(f) + P0 I[N] + L_p P0 I[-tau N] + P1 I[e^-tau N]
    with the Riesz projectors P0, P1 of riesz_projectors_for.  Its
    coordinates follow from Phi without forming either projector:
    Phi P0 x = (a_g0, a_f0, 0) and Phi P1 x = (0, 0, a_f1) for a = Phi x,
    and L_p acts on span{g0, f0} as L g0 = f0, L f0 = 0.  So with a, b, e the coordinates of the three
    integrals, the correction reads Phi d + (a_g0, a_f0 + b_g0, e_f1).
    """
    taus, q2sq = q_traj
    if q2sq.shape[0] != len(taus):
        raise ValueError("trajectory shape mismatch")
    # N(q) = (0, q2^2) has no q1 half
    Phi2 = Phi[:, len(d) // 2:]
    a, b, e = (Phi2 @ I for I in _nonlinear_integrals(taus, q2sq))
    return Phi @ d + np.array([a[0], a[1] + b[0], e[2]])


def fit_parameters(f: np.ndarray, baseline: tuple,
                   N: int = 64) -> ModulationState:
    """Solve l_{p,T,kappa} = 0 for the modulation parameters, for data f of
    shape (2, N+1).

    At most FIT_MAX_ITER steps, each evolving one trajectory at the trial
    point from d - V C, with d = U(f) and C = Phi d + nl, where nl is the
    nonlinear part (ell - Phi d) of the previous step's correction ell and
    zero at the first step.  ell is read off that trajectory, and the
    parameters move by p += l_g0, kappa += l_f0, T += T0 sqrt(1-p) l_f1 (to
    first order, each unit step lowers its coordinate by one).  Converged
    once the DEFAULT_K energy norms of both V ell and V C are below
    FIT_TOL: the certifying trajectory then started from d itself, to
    within FIT_TOL.
    """
    T0 = baseline[1]
    grid = ChebGrid.make(N)
    p, T, kappa = baseline
    nl = np.zeros(3)
    history = []
    for it in range(1, FIT_MAX_ITER + 1):
        Phi, V = neutral_coordinates(p, N)
        d = initial_data_operator(p, T, kappa, baseline, f, grid).ravel()
        lin = Phi @ d
        C = lin + nl
        cfg = EvolveConfig(p=p, N=N, tau_max=FIT_TAU_MAX)
        taus, Q = evolve_states(cfg, (d - V @ C).reshape(2, -1), grid)
        ell = correction_functional(Phi, d, (taus, Q[:, 1] ** 2))
        del Q   # free this trajectory before the next one is evolved
        cnorm = energy_norm(DEFAULT_K, V @ ell, grid)
        history.append((it, p, T, kappa, *ell, cnorm))
        converged = bool(cnorm < FIT_TOL and
                         energy_norm(DEFAULT_K, V @ C, grid) < FIT_TOL)
        if converged:
            break
        nl = ell - lin
        p, T, kappa = (float(p + ell[0]),
                       float(T + T0 * math.sqrt(1.0 - p) * ell[2]),
                       float(kappa + ell[1]))
    return ModulationState(p_star=p, T_star=T, kappa_star=kappa,
                           correction_norm=cnorm, iterations=it,
                           converged=converged, history=history)


def modulated_decay(f: np.ndarray, baseline: tuple, state: ModulationState,
                    N: int = 64):
    """Unprojected decay, in the k = 0 energy norm (DecayFit.of), of the
    data prepared with the fitted parameters, up to DECAY_TAU_MAX.

    After modulation the neutral/unstable content of U_{p*,T*,kappa*}(f) is
    reduced to the size of the final correction norm, so the raw nonlinear
    flow should decay at the spectral-gap rate without any projection.
    """
    grid = ChebGrid.make(N)
    d = initial_data_operator(state.p_star, state.T_star, state.kappa_star,
                              baseline, f, grid)
    cfg = EvolveConfig(p=state.p_star, N=N, tau_max=DECAY_TAU_MAX)
    return DecayFit.of(*evolve_states(cfg, d, grid), 0, grid)
