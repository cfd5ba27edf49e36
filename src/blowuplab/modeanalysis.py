"""ODE-side mode analysis for the linearised similarity equation.

Separated solutions e^{lam*tau} phi(y) of the linearised similarity PDE obey a
second-order ODE with regular singular points.  After the Lorentz change of
similarity frames the equation is hypergeometric,

    z (1-z) phi'' + (c - (a+b+1) z) phi' - a b phi = 0,

with a = lam, b = lam - 1, c = lam - sqrt(1-p).  A genuinely smooth mode on
[-1, 1] must be smooth at both singular endpoints z = 0 and z = 1
simultaneously; the obstruction ("connection defect") is the component of
the solution smooth at z = 1 along the non-smooth local branch at z = 0.

`mode_scan` takes it in closed form from the Gauss connection formula
(DLMF 15.10.21), vectorised over the whole lambda grid.  `connection_defect`
continues the locally-smooth solution from z = 1 to a collar near z = 0 and
fits it against the Frobenius branches there: it is the fallback where the
formula degenerates (integer c or c - a - b) and the oracle the closed form
is tested against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import expit, loggamma, rgamma

_INT_TOL = 1e-9          # tolerance for detecting integer exponent gaps
DEFAULT_SERIES_N = 40    # Frobenius truncation order
COLLAR_DELTA = 1e-2      # collar [delta, 2*delta] for the branch fit
CONT_RTOL = 1e-11        # continuation tolerance


def lorentz_frame_params(p: float, lam):
    """Hypergeometric parameters (a, b, c) = (lam, lam - 1, lam - sqrt(1-p))
    of the boosted-frame eigenequation; lam is a number or an array."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if np.ndim(lam) == 0 and not cmath.isfinite(lam):
        raise ValueError("lambda must be finite")
    return lam, lam - 1.0, lam - math.sqrt(1.0 - p)


# ---------------------------------------------------------------------------
# Frobenius machinery at a regular singular point
# ---------------------------------------------------------------------------

def indicial_roots(p0_coeff: complex, q0_coeff: complex) -> tuple[complex, complex]:
    """Roots of s(s-1) + p0 s + q0, ordered Re(s1) >= Re(s2)."""
    disc = cmath.sqrt((p0_coeff - 1.0) ** 2 - 4.0 * q0_coeff)
    s_a = (1.0 - p0_coeff + disc) / 2.0
    s_b = (1.0 - p0_coeff - disc) / 2.0
    if s_a.real >= s_b.real:
        return s_a, s_b
    return s_b, s_a


@dataclass
class FrobeniusExpansion:
    """One local solution z^s sum a_n z^n (+ optional c_log * base * log z)."""
    s: complex
    coeffs: np.ndarray
    log_branch: bool
    c_log: complex = 0.0
    base: "FrobeniusExpansion | None" = field(default=None, repr=False)

    def eval(self, z: complex) -> tuple[complex, complex]:
        """(phi, phi') at z (principal branch of z^s and log z)."""
        n = np.arange(len(self.coeffs))
        zs = z ** self.s
        poly = np.sum(self.coeffs * z ** n)
        dpoly = np.sum(self.coeffs[1:] * n[1:] * z ** (n[1:] - 1))
        val = zs * poly
        dval = self.s * z ** (self.s - 1.0) * poly + zs * dpoly
        if self.log_branch and self.c_log != 0.0:
            bval, bdval = self.base.eval(z)
            lz = cmath.log(z)
            val += self.c_log * bval * lz
            dval += self.c_log * (bdval * lz + bval / z)
        return val, dval

    @property
    def smooth(self) -> bool:
        """Whether this branch is analytic at the singular point."""
        s_int = round(self.s.real)
        if abs(self.s - s_int) > _INT_TOL or s_int < 0:
            return False
        return not (self.log_branch and abs(self.c_log) > _INT_TOL)


def frobenius_coeffs(p_taylor: np.ndarray, q_taylor: np.ndarray, s: complex,
                     N: int) -> FrobeniusExpansion:
    """Plain Frobenius series a_n for exponent s, a_0 = 1.

    p_taylor, q_taylor are the Taylor coefficients of z*p(z) and z^2*q(z).
    Raises if the indicial polynomial vanishes at s+n for some n >= 1 (that
    resonance belongs to the log-branch construction, not here).
    """
    p_t, q_t = _padded(p_taylor, N), _padded(q_taylor, N)
    a = np.zeros(N + 1, dtype=complex)
    a[0] = 1.0
    for n in range(1, N + 1):
        Pn = _indicial_poly(p_t, q_t, s + n)
        if abs(Pn) < _INT_TOL:
            raise ValueError(f"indicial resonance at n={n}; use the log branch")
        a[n] = -_lower_order_terms(a, s, p_t, q_t, n) / Pn
    return FrobeniusExpansion(s=s, coeffs=a, log_branch=False)


def _padded(taylor: np.ndarray, N: int) -> np.ndarray:
    out = np.zeros(N + 1, dtype=complex)
    out[:min(len(taylor), N + 1)] = taylor[:N + 1]
    return out


def _indicial_poly(p_t: np.ndarray, q_t: np.ndarray, x: complex) -> complex:
    return x * (x - 1.0) + p_t[0] * x + q_t[0]


def _lower_order_terms(c: np.ndarray, s: complex, p_t: np.ndarray,
                       q_t: np.ndarray, n: int) -> complex:
    """sum_{k<n} c_k ((s+k) p_{n-k} + q_{n-k}): the part of the order-n
    Frobenius recurrence fixed by the coefficients already known."""
    rhs = 0.0 + 0.0j
    for k in range(n):
        rhs += c[k] * ((s + k) * p_t[n - k] + q_t[n - k])
    return rhs


def fundamental_system(p_taylor: np.ndarray, q_taylor: np.ndarray, N: int
                       ) -> tuple[FrobeniusExpansion, FrobeniusExpansion]:
    """Both local solutions at the regular singular point z = 0.

    Non-resonant exponent gap: two plain series.  Integer gap m0 >= 0: the
    second solution is c_log * phi1 * log z + z^{s2} sum b_n z^n, with c_log
    fixed by the n = m0 compatibility equation (c_log = 1 by convention when
    the roots coincide, and c_log may turn out to be 0 — an apparent
    resonance, giving two analytic solutions).
    """
    p_t, q_t = _padded(p_taylor, N), _padded(q_taylor, N)
    s1, s2 = indicial_roots(p_t[0], q_t[0])
    gap = s1 - s2
    m0 = round(gap.real)
    resonant = abs(gap - m0) < _INT_TOL and m0 >= 0

    phi1 = frobenius_coeffs(p_t, q_t, s1, N)
    if not resonant:
        phi2 = frobenius_coeffs(p_t, q_t, s2, N)
        return phi1, phi2

    a = phi1.coeffs

    def R(m):
        # coefficient of z^{s1+m} in 2 z phi1' - phi1 + (z p) phi1
        out = (2.0 * (s1 + m) - 1.0) * a[m]
        for j in range(m + 1):
            out += p_t[j] * a[m - j]
        return out

    b = np.zeros(N + 1, dtype=complex)
    if m0 == 0:
        c_log = 1.0 + 0.0j
        b[0] = 0.0
        start = 1
    else:
        b[0] = 1.0
        for n in range(1, m0):
            b[n] = (-_lower_order_terms(b, s2, p_t, q_t, n)
                    / _indicial_poly(p_t, q_t, s2 + n))
        c_log = -_lower_order_terms(b, s2, p_t, q_t, m0) / R(0)
        b[m0] = 0.0  # free direction (adding phi1); fixed by this convention
        start = m0 + 1
    for n in range(start, N + 1):
        rhs = _lower_order_terms(b, s2, p_t, q_t, n)
        if n - m0 <= N:
            rhs += c_log * R(n - m0)
        b[n] = -rhs / _indicial_poly(p_t, q_t, s2 + n)
    phi2 = FrobeniusExpansion(s=s2, coeffs=b, log_branch=True,
                              c_log=c_log, base=phi1)
    return phi1, phi2


def hypergeom_taylor_data(a: complex, b: complex, c: complex, N: int
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Taylor data of z*p(z), z^2*q(z) for the hypergeometric ODE at z=0."""
    p_t = np.full(N + 1, c - a - b - 1.0, dtype=complex)
    p_t[0] = c
    q_t = np.full(N + 1, -a * b, dtype=complex)
    q_t[0] = 0.0
    return p_t, q_t


# ---------------------------------------------------------------------------
# Connection-defect scanner
# ---------------------------------------------------------------------------

def _smooth_solutions_at_one(a: complex, b: complex, c: complex, N: int
                             ) -> list[FrobeniusExpansion]:
    """Local solutions analytic at z = 1, as expansions in w = 1 - z.

    Generically one-dimensional (the exponent-0 branch); at degenerate
    parameters (p = 1, lam = 1 - n) both branches can be analytic.
    """
    cp = a + b + 1.0 - c  # lower parameter of the w-frame equation
    p_t, q_t = hypergeom_taylor_data(a, b, cp, N)
    phi1, phi2 = fundamental_system(p_t, q_t, N)
    out = [phi for phi in (phi1, phi2) if phi.smooth]
    if not out:
        raise RuntimeError("no analytic branch at z=1 found")
    return out


def connection_defect(p: float, lam: complex, N: int = DEFAULT_SERIES_N
                      ) -> float:
    """Singular-branch content at z=0 of the solution smooth at z=1.

    Continues each analytic-at-1 local solution (relative tolerance
    CONT_RTOL) to the collar [delta, 2*delta], delta = COLLAR_DELTA,
    least-squares fits it against the two local branches at 0 (both
    normalised to leading coefficient 1), and returns
    |B| / (|A| + |B|) where B multiplies the non-smooth branch.  Several
    analytic candidates at z=1 (degenerate case): the minimum over those
    whose continuation succeeds is reported.
    """
    defects = [d for d in _candidate_defects(p, lam, N) if d is not None]
    if not defects:
        raise RuntimeError(f"continuation failed for p={p}, lam={lam}")
    return min(defects)


def smooth_candidate_defects(p: float, lam: complex, N: int = DEFAULT_SERIES_N
                             ) -> list[float]:
    """Defect of every analytic-at-1 candidate separately (degenerate cases)."""
    defects = _candidate_defects(p, lam, N)
    if None in defects:
        raise RuntimeError(f"continuation failed for p={p}, lam={lam}")
    return defects


def _candidate_defects(p: float, lam: complex, N: int) -> list[float | None]:
    """Connection defect of each analytic-at-1 candidate, None where its
    continuation to the collar fails."""
    a, b, c = lorentz_frame_params(p, lam)
    smooth_at_1 = _smooth_solutions_at_one(a, b, c, N)

    p0_t, q0_t = hypergeom_taylor_data(a, b, c, N)
    psi1, psi2 = fundamental_system(p0_t, q0_t, N)
    # order the pair so col 2 carries the non-smooth content
    if psi1.smooth and not psi2.smooth:
        smooth_b, sing_b = psi1, psi2
    elif psi2.smooth and not psi1.smooth:
        smooth_b, sing_b = psi2, psi1
    elif psi1.smooth and psi2.smooth:
        # both local branches analytic: every solution is smooth
        return [0.0] * len(smooth_at_1)
    else:
        # no analytic branch at 0 at all: nothing smooth can come through
        return [1.0] * len(smooth_at_1)

    delta = COLLAR_DELTA
    zs = np.linspace(2.0 * delta, delta, 9)
    M = np.zeros((2 * len(zs), 2), dtype=complex)
    for j, z in enumerate(zs):
        v1, d1 = smooth_b.eval(z)
        v2, d2 = sing_b.eval(z)
        M[j] = (v1, v2)
        M[len(zs) + j] = (delta * d1, delta * d2)

    def rhs(z, u):
        phi, dphi = u
        ddphi = (-(c - (a + b + 1.0) * z) * dphi + a * b * phi) / (z * (1.0 - z))
        return [dphi, ddphi]

    defects = []
    for cand in smooth_at_1:
        v0, d0 = cand.eval(delta)        # w = delta, i.e. z = 1 - delta
        scale = max(abs(v0), abs(d0), 1e-30)
        # d/dz = -d/dw
        sol = solve_ivp(rhs, (1.0 - delta, delta), [v0 / scale, -d0 / scale],
                        t_eval=zs, method="DOP853", rtol=CONT_RTOL, atol=1e-14)
        if not sol.success:
            defects.append(None)
            continue
        rvec = np.concatenate([sol.y[0], delta * sol.y[1]])
        ab_fit, *_ = np.linalg.lstsq(M, rvec, rcond=None)
        denom = abs(ab_fit[0]) + abs(ab_fit[1])
        defects.append(abs(ab_fit[1]) / denom if denom > 0 else 1.0)
    return defects


def default_lambda_grid(re_min: float = 0.0, re_max: float = 3.0,
                        im_max: float = 3.0, step: float = 0.1) -> np.ndarray:
    res = np.arange(0, round((re_max - re_min) / step) + 1) * step + re_min
    ims = np.arange(-round(im_max / step), round(im_max / step) + 1) * step
    grid = (res[:, None] + 1j * ims[None, :]).ravel()
    return grid


def _log_abs_rgamma(x: np.ndarray) -> np.ndarray:
    """log|1/Gamma(x)| through loggamma, so no argument can overflow; exactly
    -inf at the poles x = 0, -1, -2, ... of Gamma, where rgamma is exactly 0
    (for Re x > 0 rgamma only underflows, so it is not asked there)."""
    pole = (x.real <= 0.0) & (rgamma(x) == 0.0)
    return np.where(pole, -np.inf, -loggamma(np.where(pole, 1.0, x)).real)


def _near_integer(x: np.ndarray) -> np.ndarray:
    return np.abs(x - np.round(x.real)) < _INT_TOL


def _gauss_defects(p: float, lam: np.ndarray) -> np.ndarray:
    """Connection defect from the Gauss connection formula (DLMF 15.10.21),
    NaN where the formula degenerates or gives no finite number.

    F(a, b; a+b-c+1; 1-z), the solution analytic at z = 1, equals
    A F(a, b; c; z) + B z^{1-c} F(a-c+1, b-c+1; 2-c; z) with
    A ~ Gamma(1-c) / (Gamma(a-c+1) Gamma(b-c+1)) and
    B ~ Gamma(c-1) / (Gamma(a) Gamma(b)) (common factor Gamma(a+b-c+1)), so
    the defect |B| / (|A| + |B|) is expit(log|B| - log|A|).  Here
    a - c + 1 = 1 + g and b - c + 1 = g exactly, with g = sqrt(1-p).
    Degenerate: c or c - a - b an integer, where a local exponent gap is
    an integer and log branches can appear.
    """
    a, b, c = lorentz_frame_params(p, lam)
    g = np.complex128(math.sqrt(1.0 - p))
    with np.errstate(invalid="ignore"):      # inf - inf: NaN, continued
        log_A = (_log_abs_rgamma(1.0 + g) + _log_abs_rgamma(g)
                 - _log_abs_rgamma(1.0 - c))
        log_B = (_log_abs_rgamma(a) + _log_abs_rgamma(b)
                 - _log_abs_rgamma(c - 1.0))
        defects = expit(log_B - log_A)
    defects[_near_integer(c) | _near_integer(c - a - b)] = math.nan
    return defects


@dataclass(frozen=True)
class ModeScan:
    """Defects of a lambda grid and how each was computed.

    points: (lam, defect) in grid order, NaN where no defect could be had.
    continued: per point, whether the closed form could not take it and it
    was handed to `connection_defect`; the rest are closed form.
    failures: (lam, message) of every continuation that raised.
    """
    points: list[tuple[complex, float]]
    continued: list[bool]
    failures: list[tuple[complex, str]]

    @property
    def n_continuation(self) -> int:
        return sum(self.continued)


def mode_scan(p: float, lambda_grid=None) -> ModeScan:
    """Connection defect over a lambda grid, NaN where it cannot be computed.

    Defaults to the rectangle Re in [0,3], Im in [-3,3], step 0.1.  The
    whole grid goes through the Gauss connection formula in one vectorised
    pass; only points where it degenerates or is not finite are continued
    (`connection_defect`), one by one.
    """
    if lambda_grid is None:
        lambda_grid = default_lambda_grid()
    lams = np.asarray(lambda_grid, dtype=complex).ravel()
    defects = _gauss_defects(p, lams)
    continued = ~np.isfinite(defects)
    failures = []
    for i in np.flatnonzero(continued):
        try:
            defects[i] = connection_defect(p, complex(lams[i]))
        except (RuntimeError, ValueError) as exc:
            failures.append((complex(lams[i]), str(exc)))
    return ModeScan(points=[(complex(lam), float(d))
                            for lam, d in zip(lams, defects)],
                    continued=continued.tolist(), failures=failures)
