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
matches the Frobenius series of the solution smooth at z = 1 against the
two branches at z = 0, all summed from the hypergeometric two-term
recurrence, by value and slope at z = 1/2: it is the fallback where the
formula degenerates (integer c or c - a - b) and the closed form's oracle.
The formula needs only log|Gamma|, summed here in numpy (recurrence,
reflection and the Stirling series), so a scan loads no scipy at any p.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

_INT_TOL = 1e-9          # tolerance for detecting integer exponent gaps
DEFAULT_SERIES_N = 40    # Frobenius truncation order
# B_2k / (2k (2k-1)), k = 1..8: the Stirling series of log Gamma (DLMF 5.11.1)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
             -691 / 360360, 1 / 156, -3617 / 122400)
# Re z from which the series is summed: its first omitted term is below
# 8e-16 there, and a larger shift only adds rounding to the recurrence
_STIRLING_FROM = 7.0


def lorentz_frame_params(p: float, lam):
    """Hypergeometric parameters (a, b, c) = (lam, lam - 1, lam - sqrt(1-p))
    of the boosted-frame eigenequation; lam is a number or an array."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if np.ndim(lam) == 0 and not cmath.isfinite(lam):
        raise ValueError("lambda must be finite")
    return lam, lam - 1.0, lam - math.sqrt(1.0 - p)


# ---------------------------------------------------------------------------
# Frobenius series of the hypergeometric equation (DLMF 15.10)
# ---------------------------------------------------------------------------

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


def frobenius_coeffs(a: complex, b: complex, c: complex, s: complex,
                     N: int) -> FrobeniusExpansion:
    """Plain Frobenius series a_n, a_0 = 1, of the hypergeometric equation
    for the exponent s, from the two-term recurrence
    (s+n+1)(s+n+c) a_{n+1} = (s+n+a)(s+n+b) a_n.

    Raises if (s+n)(s+n-1+c) vanishes for some n >= 1 (that resonance
    belongs to the log-branch construction, not here).
    """
    n = np.arange(N)
    den = (s + n + 1.0) * (s + n + c)
    resonant = np.abs(den) < _INT_TOL
    if resonant.any():
        raise ValueError(f"indicial resonance at n={resonant.argmax() + 1}; "
                         "use the log branch")
    coeffs = np.ones(N + 1, dtype=complex)
    coeffs[1:] = np.cumprod((s + n + a) * (s + n + b) / den)
    return FrobeniusExpansion(s=s, coeffs=coeffs, log_branch=False)


def fundamental_system(a: complex, b: complex, c: complex, N: int
                       ) -> tuple[FrobeniusExpansion, FrobeniusExpansion]:
    """Both local solutions of the hypergeometric equation at z = 0, for
    the exponents 0 and 1 - c ordered Re(s1) >= Re(s2).

    Non-resonant exponent gap: two plain series.  Integer gap m0 >= 0: the
    second solution is c_log * phi1 * log z + z^{s2} sum b_n z^n, with c_log
    fixed by the n = m0 step of the recurrence (c_log = 1 by convention
    when the exponents coincide, and c_log may turn out to be 0 — an
    apparent resonance, giving two analytic solutions).
    """
    s1, s2 = sorted((0j, 1.0 - c + 0j), key=lambda s: -s.real)
    m0 = round((s1 - s2).real)
    phi1 = frobenius_coeffs(a, b, c, s1, N)
    if abs(s1 - s2 - m0) >= _INT_TOL:
        return phi1, frobenius_coeffs(a, b, c, s2, N)

    # c_log phi1 log z leaves c_log z^{s1-1} g(z) in the equation, where
    # z^{s1} g = 2 z (1-z) phi1' + (c - 1 - (a+b) z) phi1
    k = np.arange(N + 1)
    g = (2.0 * (s1 + k) + c - 1.0) * phi1.coeffs
    g[1:] -= (2.0 * (s1 + k[:-1]) + a + b) * phi1.coeffs[:-1]
    coeffs = np.zeros(N + 1, dtype=complex)
    c_log = 1.0 + 0.0j
    if m0:
        # a plain series up to n = m0 - 1; the step to n = m0, where
        # (s2+n)(s2+n-1+c) vanishes, fixes c_log instead, and b_{m0}, a
        # free multiple of phi1, is left at 0
        coeffs[:m0] = frobenius_coeffs(a, b, c, s2, m0 - 1).coeffs
        c_log = (s1 - 1.0 + a) * (s1 - 1.0 + b) * coeffs[m0 - 1] / g[0]
    for n in range(m0 + 1, N + 1):
        x = s2 + n - 1.0
        coeffs[n] = (((x + a) * (x + b) * coeffs[n - 1] - c_log * g[n - m0])
                     / ((x + 1.0) * (x + c)))
    phi2 = FrobeniusExpansion(s=s2, coeffs=coeffs, log_branch=True,
                              c_log=c_log, base=phi1)
    return phi1, phi2


# ---------------------------------------------------------------------------
# Connection-defect scanner
# ---------------------------------------------------------------------------

def _smooth_solutions_at_one(a: complex, b: complex, c: complex, N: int
                             ) -> list[FrobeniusExpansion]:
    """Local solutions analytic at z = 1, as expansions in w = 1 - z.

    Generically one-dimensional (the exponent-0 branch); at degenerate
    parameters (p = 1, lam = 1 - n) both branches can be analytic.
    """
    # in w the equation is hypergeometric with lower parameter a + b + 1 - c
    phi1, phi2 = fundamental_system(a, b, a + b + 1.0 - c, N)
    out = [phi for phi in (phi1, phi2) if phi.smooth]
    if not out:
        raise RuntimeError("no analytic branch at z=1 found")
    return out


def connection_defect(p: float, lam: complex, N: int = DEFAULT_SERIES_N
                      ) -> float:
    """Singular-branch content at z=0 of the solution smooth at z=1.

    Matches each analytic-at-1 local solution against the two local
    branches at 0 (both normalised to leading coefficient 1) by value and
    slope at z = 1/2, and returns |B| / (|A| + |B|) where B multiplies the
    non-smooth branch.  Several analytic candidates at z=1 (degenerate
    case): the minimum of their defects is reported.  RuntimeError if any
    match is not finite.
    """
    return float(np.min(smooth_candidate_defects(p, lam, N)))


def smooth_candidate_defects(p: float, lam: complex, N: int = DEFAULT_SERIES_N
                             ) -> list[float]:
    """Defect of every analytic-at-1 candidate separately (degenerate cases),
    each from one 2 x 2 solve of the Frobenius series at z = 0 against the
    candidate's series at z = 1; RuntimeError naming p and lam if the
    match of any candidate is not finite."""
    a, b, c = lorentz_frame_params(p, lam)
    smooth_at_1 = _smooth_solutions_at_one(a, b, c, N)

    # order the pair so col 2 carries the non-smooth content
    smooth_b, sing_b = sorted(fundamental_system(a, b, c, N),
                              key=lambda psi: not psi.smooth)
    if smooth_b.smooth == sing_b.smooth:
        # both local branches analytic: every solution is smooth; neither:
        # nothing smooth can come through
        return [0.0 if smooth_b.smooth else 1.0] * len(smooth_at_1)

    # the series about z = 0 and about z = 1 both have radius 1, so z = 1/2
    # is where both converge fastest
    M = np.array([smooth_b.eval(0.5), sing_b.eval(0.5)]).T
    defects = []
    for cand in smooth_at_1:
        v, dv = cand.eval(0.5)           # w = 1 - z = 1/2; d/dz = -d/dw
        A, B = np.linalg.solve(M, [v, -dv])
        if not (cmath.isfinite(A) and cmath.isfinite(B)):
            raise RuntimeError(f"connection match not finite for p={p}, "
                               f"lam={lam}")
        defects.append(abs(B) / (abs(A) + abs(B)))
    return defects


def default_lambda_grid(re_min: float = 0.0, re_max: float = 3.0,
                        im_max: float = 3.0, step: float = 0.1) -> np.ndarray:
    res = np.arange(0, round((re_max - re_min) / step) + 1) * step + re_min
    ims = np.arange(-round(im_max / step), round(im_max / step) + 1) * step
    grid = (res[:, None] + 1j * ims[None, :]).ravel()
    return grid


def _log_abs_gamma(z: np.ndarray) -> np.ndarray:
    """log|Gamma(z)| for complex z off the poles of Gamma: reflection
    (DLMF 5.5.3) for Re z < 1/2, the recurrence (5.5.1) up to
    Re z >= _STIRLING_FROM, then the Stirling series (5.11.1)."""
    left = z.real < 0.5
    w = np.where(left, 1.0 - z, z)
    n = np.maximum(np.ceil(_STIRLING_FROM - w.real), 0.0)
    shift = np.ones(w.shape)                # |w (w+1) ... (w+n-1)|
    for j in range(int(_STIRLING_FROM)):    # Re w > 1/2, so n <= 7
        shift *= np.where(j < n, np.abs(w + j), 1.0)
    w = w + n
    inv_w2 = 1.0 / (w * w)
    series = np.zeros_like(w)
    for coeff in reversed(_STIRLING):
        series = series * inv_w2 + coeff
    log_gamma = (((w - 0.5) * np.log(w)).real - w.real
                 + 0.5 * math.log(2.0 * math.pi) + (series / w).real
                 - np.log(shift))
    # |sin(pi z)|^2 = e^{2 pi t} ((1 - q)^2 + 4 q sin^2(pi r)) / 4 with
    # t = |Im z|, q = e^{-2 pi t} and r = Re z - round(Re z): it cannot
    # overflow, and next to a pole r and t are exact
    zl = np.where(left, z, 0.5)
    r = zl.real - np.round(zl.real)
    t = np.abs(zl.imag)
    log_sin = (math.pi * t - math.log(2.0)
               + 0.5 * np.log(np.expm1(-2.0 * math.pi * t) ** 2
                              + 4.0 * np.exp(-2.0 * math.pi * t)
                              * np.sin(math.pi * r) ** 2))
    return np.where(left, math.log(math.pi) - log_sin - log_gamma, log_gamma)


def _log_abs_rgamma(x: np.ndarray) -> np.ndarray:
    """log|1/Gamma(x)|, exactly -inf at the poles x = 0, -1, -2, ... of
    Gamma, which are told by arithmetic on x."""
    pole = (x.imag == 0.0) & (x.real <= 0.0) & (x.real == np.floor(x.real))
    return np.where(pole, -np.inf, -_log_abs_gamma(np.where(pole, 1.0, x)))


def _near_integer(x: np.ndarray) -> np.ndarray:
    return np.abs(x - np.round(x.real)) < _INT_TOL


def _gauss_defects(p: float, lam: np.ndarray) -> np.ndarray:
    """Connection defect from the Gauss connection formula (DLMF 15.10.21),
    NaN where the formula degenerates or gives no finite number.

    F(a, b; a+b-c+1; 1-z), the solution analytic at z = 1, equals
    A F(a, b; c; z) + B z^{1-c} F(a-c+1, b-c+1; 2-c; z) with
    A ~ Gamma(1-c) / (Gamma(a-c+1) Gamma(b-c+1)) and
    B ~ Gamma(c-1) / (Gamma(a) Gamma(b)) (common factor Gamma(a+b-c+1)), so
    the defect |B| / (|A| + |B|) is 1 / (1 + exp(log|A| - log|B|)).  Here
    a - c + 1 = 1 + g and b - c + 1 = g exactly, with g = sqrt(1-p).
    Degenerate: c or c - a - b an integer, where a local exponent gap is
    an integer and log branches can appear.
    """
    a, b, c = lorentz_frame_params(p, lam)
    g = np.complex128(math.sqrt(1.0 - p))
    # inf - inf: NaN, continued.  A pole of Gamma in B's denominator makes
    # log_B = -inf and the defect exactly 0, one in A's exactly 1; a finite
    # log_A - log_B above ~709 overflows exp to inf, a defect of 0.
    with np.errstate(invalid="ignore", over="ignore"):
        log_A = (_log_abs_rgamma(1.0 + g) + _log_abs_rgamma(g)
                 - _log_abs_rgamma(1.0 - c))
        log_B = (_log_abs_rgamma(a) + _log_abs_rgamma(b)
                 - _log_abs_rgamma(c - 1.0))
        defects = 1.0 / (1.0 + np.exp(log_A - log_B))
    defects[_near_integer(c) | _near_integer(c - a - b)] = math.nan
    return defects


@dataclass(frozen=True)
class ModeScan:
    """Defects of a lambda grid and how each was computed.

    points: (lam, defect) in grid order, NaN where no defect could be had.
    continued: per point, whether the closed form could not take it and it
    was handed to `connection_defect`; the rest are closed form.
    failures: (lam, message) of every `connection_defect` call that raised.
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
