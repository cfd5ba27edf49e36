"""Parameter modulation: choosing (p*, T*, kappa*) so the correction vanishes.

Perturbing the blow-up profile with data (f1, f2) generically excites the
symmetry modes (time translation, Lorentz boost, kappa-shift and the p-family
direction), which do not decay.  Rather than projecting them away, the
matching blow-up parameters are adjusted: the initial-data operator

    U_{p,T,kappa}(f) = f^T + f0^T - f_{p,kappa}

measures the perturbation relative to a *trial* profile, and the correction
functional (the unstable/neutral spectral content of the full nonlinear
trajectory) is driven to zero over (p, T, kappa) by a fixed-point
iteration with a Broyden fallback.  The fixed point certifies that the
perturbed data lies on the stable manifold of the trial profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson

from .chebgrid import ChebGrid
from .evolve import EvolveConfig, evolve_perturbation, evolve_states
from .linop import (DEFAULT_K, StateVector, assemble_Lp, energy_inner,
                    energy_norm, f0_state, f1_state, g0_state,
                    riesz_projectors_for)
from .profiles import similarity_profile, similarity_profile_dy

GRAM_COND_LIMIT = 1e10
FIT_TAU_MAX = 12.0          # horizon of the trajectories the fit evaluates
FIT_MAX_ITER = 30           # outer iterations of fit_parameters
INNER_ITERS = 3             # self-consistency passes per outer iteration
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


@dataclass
class GramData:
    Gamma: np.ndarray
    basis: list = field(default_factory=list, repr=False)
    _basis_qr: tuple = field(default=None, repr=False)

    def coords_in_span(self, q_flat: np.ndarray) -> np.ndarray:
        """Coordinates of a state known to lie in span{g0, f0, f1}.

        For elements of the span the coordinates are metric-independent, so
        a plain least-squares fit in grid values is used.  This avoids the
        high-derivative pairing, whose roundoff amplification (seminorm
        weights ~1e12) corrupts the coordinates of small-amplitude states.
        """
        if self._basis_qr is None:
            B = np.column_stack([b.flat() for b in self.basis])
            self._basis_qr = np.linalg.qr(B)
        Q, R = self._basis_qr
        return np.linalg.solve(R, Q.T @ np.real(q_flat))


def initial_data_operator(p: float, T: float, kappa: float, baseline: tuple,
                          f: StateVector, grid: ChebGrid) -> StateVector:
    """U_{p,T,kappa}(f) = f^T + f0^T - f_{p,kappa} on the collocation grid.

    baseline = (p0, T0, kappa0).  Domain constraint: the baseline profile
    entering f0^T is evaluated at (T/T0) y and must stay left of its
    singularity, i.e. T/T0 < 1/sqrt(1-p0).
    """
    p0, T0, kappa0 = baseline
    if not 0.0 < p < 1.0 or not 0.0 < p0 < 1.0:
        raise ValueError("p and p0 must lie in (0, 1)")
    ratio = T / T0
    if not ratio < 1.0 / math.sqrt(1.0 - p0):
        raise ValueError(
            f"initial data operator undefined: T/T0 = {ratio} must be "
            f"< 1/sqrt(1-p0) = {1.0 / math.sqrt(1.0 - p0)}")
    y = grid.y
    fT1 = grid.interpolate(f.q1, T * y)
    fT2 = T * grid.interpolate(f.q2, T * y)
    yr = ratio * y
    f0T1 = similarity_profile(p0, yr, kappa0)
    f0T2 = ratio * p0 + ratio ** 2 * y * similarity_profile_dy(p0, yr)
    fp1 = similarity_profile(p, y, kappa)
    fp2 = p + y * similarity_profile_dy(p, y)
    return StateVector(q1=fT1 + f0T1 - fp1, q2=fT2 + f0T2 - fp2)


def gram_dual_basis(p: float, grid: ChebGrid) -> GramData:
    """Gram matrix of {g0, f0, f1} under the DEFAULT_K energy inner product.

    Raises ValueError when its condition number exceeds GRAM_COND_LIMIT,
    i.e. when the basis is nearly degenerate.
    """
    basis = [g0_state(grid, p), f0_state(grid, p), f1_state(grid, p)]
    Gamma = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            Gamma[i, j] = float(np.real(energy_inner(DEFAULT_K, basis[j],
                                                     basis[i], grid)))
    if np.linalg.cond(Gamma) > GRAM_COND_LIMIT:
        raise ValueError(f"Gram matrix ill-conditioned (cond = "
                         f"{np.linalg.cond(Gamma):.2e}); basis nearly degenerate")
    return GramData(Gamma=Gamma, basis=basis)


class _Workspace:
    """Per-(p0-run) discrete operators, rebuilt when p moves materially."""

    def __init__(self, N: int):
        self.N = N
        self.grid = ChebGrid.make(N)
        self._p = None

    def refresh(self, p: float):
        if self._p is not None and abs(p - self._p) < 1e-13:
            return
        self._p = p
        grid = self.grid
        self.L = assemble_Lp(p, grid)
        P0, _, P1, _, _ = riesz_projectors_for(p, grid)
        self.P0 = P0.real
        self.P1 = P1.real
        self.LP0 = self.L @ self.P0
        self.gram = gram_dual_basis(p, grid)


def _nonlinear_integrals(taus: np.ndarray, q2sq: np.ndarray) -> tuple:
    """Simpson integrals of N(q) = (0, q2^2) with weights 1, -tau, e^-tau."""
    I_plain = simpson(q2sq, x=taus, axis=0)
    I_tau = simpson(-taus[:, None] * q2sq, x=taus, axis=0)
    I_exp = simpson(np.exp(-taus)[:, None] * q2sq, x=taus, axis=0)
    return I_plain, I_tau, I_exp


def correction_functional(p: float, T: float, kappa: float, f: StateVector,
                          q_traj: tuple, baseline: tuple,
                          ws: _Workspace) -> tuple:
    """(l(g^1), l(g^2), l(g^3)): correction paired with the dual basis.

    q_traj = (taus, q2_squared_history).  The correction is
    P_p U(f) + P0 I[N] + L_p P0 I[-tau N] + P1 I[e^-tau N]; its pairings with
    the dual basis are exactly its coordinates in {g0, f0, f1}.
    """
    ws.refresh(p)
    grid = ws.grid
    d = initial_data_operator(p, T, kappa, baseline, f, grid).flat()
    C = (ws.P0 + ws.P1) @ d
    if q_traj is not None:
        taus, q2sq = q_traj
        if q2sq.shape[0] != len(taus):
            raise ValueError("trajectory shape mismatch")
        I_plain, I_tau, I_exp = _nonlinear_integrals(taus, q2sq)
        n = grid.N + 1
        zeros = np.zeros(n)
        C = (C + ws.P0 @ np.concatenate([zeros, I_plain])
             + ws.LP0 @ np.concatenate([zeros, I_tau])
             + ws.P1 @ np.concatenate([zeros, I_exp]))
    # C lies in span{g0, f0, f1} by construction (ranges of P0 and P1), so
    # the dual pairings reduce to its coordinates in that basis.
    return tuple(ws.gram.coords_in_span(C))


def _evolve_traj(p: float, data_flat: np.ndarray, ws: _Workspace):
    """Nonlinear trajectory of `data` up to FIT_TAU_MAX; returns (taus,
    q2^2 history)."""
    cfg = EvolveConfig(p=p, N=ws.N, tau_max=FIT_TAU_MAX, epsilon=0.0)
    q0 = StateVector.from_flat(data_flat)
    taus, q2sq = [], []
    for tau, q in evolve_states(cfg, q0, ws.grid):
        taus.append(tau)
        q2sq.append(q.q2 ** 2)
    return np.array(taus), np.array(q2sq)


def _corrected_trajectory(p: float, T: float, kappa: float, f: StateVector,
                          baseline: tuple, ws: _Workspace):
    """Self-consistent corrected flow: evolve U(f) - C, update C, repeat
    (at most INNER_ITERS times).

    Returns (ell, q_traj) at the last inner iterate.
    """
    ws.refresh(p)
    d = initial_data_operator(p, T, kappa, baseline, f, ws.grid).flat()
    ell = correction_functional(p, T, kappa, f, None, baseline, ws)
    traj = None
    for _ in range(INNER_ITERS):
        C = sum(ell[n] * ws.gram.basis[n].flat() for n in range(3))
        traj = _evolve_traj(p, d - C, ws)
        ell_new = correction_functional(p, T, kappa, f, traj, baseline, ws)
        if max(abs(a - b) for a, b in zip(ell, ell_new)) < 1e-15:
            ell = ell_new
            break
        ell = ell_new
    return ell, traj


def _bracket_terms(p: float, T: float, kappa: float, baseline: tuple) -> tuple:
    """Linear-in-displacement coordinates of P_p(f0^T - f_{p,kappa}).

    From the Taylor expansion of the initial data operator:
    coordinate of g0 is (p0 - p), of f0 is (kappa0 - kappa) - p(T/T0 - 1)
    + p(p0-p)/(2(1-p)), of f1 is -(T/T0 - 1)/sqrt(1-p).
    """
    p0, T0, kappa0 = baseline
    t = T / T0 - 1.0
    b1 = p0 - p
    b2 = (kappa0 - kappa) - p * t + p * (p0 - p) / (2.0 * (1.0 - p))
    b3 = -t / math.sqrt(1.0 - p)
    return b1, b2, b3


def fit_parameters(f: StateVector, baseline: tuple, N: int = 64,
                   tol: float = 1e-12) -> ModulationState:
    """Solve l_{p,T,kappa} = 0 for the modulation parameters.

    Fixed-point iteration of the affine recombination map, at most
    FIT_MAX_ITER steps; if progress stalls, a 3-dimensional Broyden (secant)
    step takes over.  Each iterate evaluates the correction on a
    self-consistently corrected trajectory; converged once the DEFAULT_K
    energy norm of the correction is below tol.
    """
    p0, T0, kappa0 = baseline
    ws = _Workspace(N)
    p, T, kappa = p0, T0, kappa0
    history = []
    Binv = None            # Broyden approximation of the inverse Jacobian
    prev_x = prev_ell = None
    grid = ws.grid
    for it in range(1, FIT_MAX_ITER + 1):
        ell, _ = _corrected_trajectory(p, T, kappa, f, baseline, ws)
        basis = ws.gram.basis          # {g0, f0, f1} at the workspace's p
        C = StateVector.from_flat(sum(ell[n] * basis[n].flat() for n in range(3)))
        cnorm = energy_norm(DEFAULT_K, C, grid)
        history.append((it, p, T, kappa, *ell, cnorm))
        if cnorm < tol:
            return ModulationState(p_star=p, T_star=T, kappa_star=kappa,
                                   correction_norm=cnorm, iterations=it,
                                   converged=True, history=history)
        x = np.array([p, kappa, T])
        e = np.array(ell)
        if len(history) >= 3 and prev_ell is not None and \
                np.linalg.norm(e) > 0.7 * np.linalg.norm(prev_ell):
            # stalled: Broyden step on l(x) = 0
            if Binv is None:
                Binv = np.eye(3)
            s = x - prev_x
            ye = e - prev_ell
            By = Binv @ ye
            denom = float(s @ By)
            if abs(denom) > 1e-300:
                Binv = Binv + np.outer(s - By, s @ Binv) / denom
            x_new = x - Binv @ e
            p_new, kappa_new, T_new = x_new
        else:
            b1, b2, b3 = _bracket_terms(p, T, kappa, baseline)
            F1, F2, F3 = ell[0] - b1, ell[1] - b2, ell[2] - b3
            p_new = p0 + F1
            kappa_new = kappa0 - p * (T / T0 - 1.0) \
                + p * (p0 - p) / (2.0 * (1.0 - p)) + F2
            T_new = T0 * (1.0 + math.sqrt(1.0 - p) * F3)
        prev_x, prev_ell = x, e
        p, kappa, T = float(p_new), float(kappa_new), float(T_new)
    return ModulationState(p_star=p, T_star=T, kappa_star=kappa,
                           correction_norm=cnorm, iterations=FIT_MAX_ITER,
                           converged=False, history=history)


def modulated_decay(f: StateVector, baseline: tuple, state: ModulationState,
                    N: int = 64):
    """Unprojected decay of the data prepared with the fitted parameters,
    up to DECAY_TAU_MAX and fitted over evolve.DECAY_FIT_WINDOW.

    After modulation the neutral/unstable content of U_{p*,T*,kappa*}(f) is
    reduced to the size of the final correction norm, so the raw nonlinear
    flow should decay at the spectral-gap rate without any projection.  The
    window starts after the multi-mode interference transient settles and
    stops before the residual unstable remnant (which grows like e^tau from
    the correction-norm floor) re-emerges.
    """
    grid = ChebGrid.make(N)
    d = initial_data_operator(state.p_star, state.T_star, state.kappa_star,
                              baseline, f, grid)
    cfg = EvolveConfig(p=state.p_star, N=N, tau_max=DECAY_TAU_MAX, epsilon=0.0,
                       k=0)
    return evolve_perturbation(cfg, project_out_unstable=False, q0=d)
