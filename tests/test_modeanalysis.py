"""Eigenequation analysis: Frobenius series, connection defects, mode scan."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, gammaln, hyp2f1, loggamma, rgamma

from blowuplab.modeanalysis import (
    _gauss_defects,
    _log_abs_gamma,
    _log_abs_rgamma,
    _near_integer,
    _smooth_solutions_at_one,
    connection_defect,
    default_lambda_grid,
    frobenius_coeffs,
    fundamental_system,
    lorentz_frame_params,
    mode_scan,
    smooth_candidate_defects,
)


def gauss_series(a, b, c, z, N=150):
    """2F1(a, b; c; z) as the exponent-0 Frobenius branch of the
    hypergeometric equation at z = 0, summed to N terms."""
    coeffs = frobenius_coeffs(a, b, c, 0.0, N).coeffs
    return np.polynomial.polynomial.polyval(z, coeffs)


# ---------------------------------------------------------------------------
# the Frobenius series of the hypergeometric equation against closed forms

@settings(max_examples=60, deadline=None)
@given(z=st.floats(-0.8, 0.8))
def test_2f1_log_closed_form(z):
    # 2F1(1, 1; 2; z) = -log(1-z)/z
    expected = 1.0 if z == 0 else -math.log1p(-z) / z
    assert gauss_series(1, 1, 2, z) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(z=st.floats(-0.8, 0.8), a=st.floats(-2.0, 2.0))
def test_2f1_binomial_closed_form(z, a):
    # 2F1(a, b; b; z) = (1-z)^(-a)
    expected = (1.0 - z) ** (-a)
    assert gauss_series(a, 0.5, 0.5, z) == pytest.approx(expected, rel=1e-10)


def test_2f1_arcsin_closed_form():
    # 2F1(1/2, 1/2; 3/2; z^2) = arcsin(z)/z
    z = 0.6
    val = gauss_series(0.5, 0.5, 1.5, z * z)
    assert val == pytest.approx(math.asin(z) / z, rel=1e-12)


def test_2f1_pole_detection():
    # c = -2: the exponents 0 and 1 - c = 3 differ by an integer, and the
    # plain exponent-0 series breaks down at n = 3
    with pytest.raises(ValueError, match="resonance"):
        frobenius_coeffs(0.3, 0.7, -2.0, 0.0, 10)
    # generically the second solution then carries a log term ...
    _, phi2 = fundamental_system(0.3, 0.7, -2.0, 10)
    assert not phi2.smooth
    # ... but a terminating numerator rescues it: the resonance is apparent
    # and the exponent-0 solution is the polynomial 1 + (a b / c) z
    _, phi2 = fundamental_system(-1.0, 0.7, -2.0, 10)
    assert phi2.smooth and phi2.c_log == 0.0
    val, _ = phi2.eval(0.5)
    assert val == pytest.approx(1.0 + (-1.0) * 0.7 / (-2.0) * 0.5, rel=1e-14)


def test_2f1_complex_argument():
    # complex parameters: verify against the defining term recurrence at low N
    a, b, c, z = 0.3 + 0.2j, -0.4j, 1.1, 0.3 + 0.1j
    brute = sum(
        np.prod([(a + k) * (b + k) / ((c + k) * (k + 1.0)) * z for k in range(n)])
        for n in range(40))
    assert gauss_series(a, b, c, z) == pytest.approx(brute, rel=1e-10)


# ---------------------------------------------------------------------------
# eigenequation structure

def test_lorentz_frame_params():
    a, b, c = lorentz_frame_params(0.75, 2.0)
    assert a == 2.0
    assert b == 1.0
    assert c == pytest.approx(1.5)
    with pytest.raises(ValueError, match="p must lie"):
        lorentz_frame_params(1.5, 2.0)
    with pytest.raises(ValueError, match="finite"):
        lorentz_frame_params(0.75, complex(math.inf, 0.0))


def _smooth_branch_at_one(p, lam, N):
    """Taylor coefficients in w = 1 - z of the solution analytic at z = 1."""
    (phi,) = _smooth_solutions_at_one(*lorentz_frame_params(p, lam), N)
    return phi.coeffs


def test_series_coeff_ratio_oracle():
    # alpha_{n+1}/alpha_n = (lam+n)(lam+n-1) / ((n+1)(lam+g+n)), g = sqrt(1-p),
    # at p = 0.75, lam = 2, n = 1
    coeffs = _smooth_branch_at_one(0.75, 2.0, 10)
    assert coeffs[2] / coeffs[1] == pytest.approx((3.0 * 2.0) / (2.0 * 3.5),
                                                  rel=1e-14)


def test_series_coeff_ratio_terminates():
    # at the symmetry modes lam = 0, 1 the smooth branch is a constant
    for lam in (0.0, 1.0):
        assert np.all(_smooth_branch_at_one(0.75, lam, 10)[1:] == 0.0)


def test_series_coeff_ratio_tends_to_one():
    """|r_n - 1| decays like C/n: measured log-log slope -1 within 20%, so
    the smooth branch has radius of convergence exactly 1."""
    coeffs = _smooth_branch_at_one(0.5, 2.3, 1000)
    ns = np.geomspace(1e2, 999, 9).astype(int)
    dev = [abs(coeffs[n + 1] / coeffs[n] - 1.0) for n in ns]
    slope = np.polyfit(np.log(ns), np.log(dev), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.2)


# ---------------------------------------------------------------------------
# Frobenius series

def test_frobenius_reproduces_hypergeometric():
    # at z=0 the s=0 branch of the hypergeometric equation is 2F1 itself
    a, b, c = 0.7, -0.3, 1.4
    coeffs = frobenius_coeffs(a, b, c, 0.0, 30).coeffs
    z = 0.3
    series = sum(coeffs[n] * z ** n for n in range(len(coeffs)))
    assert series == pytest.approx(hyp2f1(a, b, c, z), rel=1e-12)


def test_frobenius_radius_root_test():
    a, b, c = 0.7, -0.3, 1.4
    coeffs = frobenius_coeffs(a, b, c, 0.0, 60).coeffs
    # root test: |a_n|^(1/n) -> 1/R = 1
    tail = np.abs(coeffs[40:60])
    roots = tail ** (1.0 / np.arange(40, 60))
    assert np.all(np.abs(roots - 1.0) < 0.25)


def test_fundamental_system_log_branch():
    # c = 1 forces equal indicial roots at z = 0: the second solution
    # must carry a log term
    phi1, phi2 = fundamental_system(0.5, 0.5, 1.0, 20)
    assert not phi1.log_branch
    assert phi2.log_branch
    assert abs(phi2.c_log) > 1e-8


def test_fundamental_system_plain_pair():
    # non-integer exponent gap: two plain power-series branches, for the
    # exponents 1 - c and 0, ordered by real part
    phi1, phi2 = fundamental_system(0.3, 0.8, 0.4, 20)
    assert not phi1.log_branch and not phi2.log_branch
    assert (phi1.s, phi2.s) == pytest.approx((0.6, 0.0), abs=1e-15)
    # Wronskian-type independence at a sample point
    v1, d1 = phi1.eval(0.05)
    v2, d2 = phi2.eval(0.05)
    assert abs(v1 * d2 - v2 * d1) > 1e-12


@pytest.mark.parametrize("a,b,c,kind", [
    (0.3, 0.8, 0.4, "plain"),
    (0.3, 0.7, 1.0, "log"), (0.3, 0.7, 2.0, "log"),
    (0.3, 0.7, 0.0, "log"), (0.3, 0.7, -2.0, "log"),
    (-1.0, 0.7, -2.0, "apparent"),
])
def test_fundamental_system_branches_solve_the_equation(a, b, c, kind):
    """Both branches at z = 0 satisfy the hypergeometric equation, with phi''
    a central difference of phi'."""
    phi1, phi2 = fundamental_system(a, b, c, 60)
    assert phi2.log_branch == (kind != "plain")
    assert (phi2.c_log == 0.0) == (kind != "log")
    h = 1e-5
    for phi in (phi1, phi2):
        for z in (0.2, 0.5):
            val, dval = phi.eval(z)
            ddval = (phi.eval(z + h)[1] - phi.eval(z - h)[1]) / (2.0 * h)
            terms = (z * (1.0 - z) * ddval, (c - (a + b + 1.0) * z) * dval,
                     -a * b * val)
            assert abs(sum(terms)) < 1e-7 * sum(map(abs, terms)), (phi.s, z)


# ---------------------------------------------------------------------------
# connection defects

@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_defect_vanishes_at_symmetry_modes(p, lam):
    assert connection_defect(p, lam) < 1e-6


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
def test_defect_large_away_from_symmetry_modes(p):
    for lam in (0.5, 2.0, 0.1, 1.2 + 0.5j):
        assert connection_defect(p, lam) > 1e-3


def test_defect_stable_under_series_doubling():
    for lam in (0.5, 0.0):
        d1 = connection_defect(0.75, lam, N=40)
        d2 = connection_defect(0.75, lam, N=80)
        small1, small2 = d1 < 1e-6, d2 < 1e-6
        assert small1 == small2


def test_p1_degenerate_two_candidates_at_zero():
    # at p = 1 the lambda = 0 eigenspace is two-dimensional:
    # constants and the linear function both connect smoothly
    defects = smooth_candidate_defects(1.0, 0.0)
    assert len(defects) == 2
    assert max(defects) < 1e-6


@pytest.mark.parametrize("p,lam", [(1.0, 0.0), (0.5, 0.5)])
def test_connection_defect_is_least_candidate_defect(p, lam):
    assert connection_defect(p, lam) == min(smooth_candidate_defects(p, lam))


def test_p1_lambda_one_simple():
    defects = smooth_candidate_defects(1.0, 1.0)
    assert len(defects) == 1
    assert defects[0] < 1e-6


def test_p1_negative_integer_ladder():
    # 1 - n points remain defect-free; generic points do not
    assert connection_defect(1.0, -1.0) < 1e-6
    assert connection_defect(1.0, -0.5) > 1e-3
    assert connection_defect(1.0, 0.5) > 1e-3


# ---------------------------------------------------------------------------
# log|Gamma| in numpy, and the connection formula built on it, against scipy

SCAN_P = (0.25, 0.5, 0.75, 0.9, 0.99, 1.0)


def _is_gamma_pole(z):
    return (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))


def _assert_log_abs_gamma_matches(z, ref):
    err = np.abs(_log_abs_gamma(z) - ref)
    assert np.all(err <= 1e-14 * np.maximum(1.0, np.abs(ref))), z[err.argmax()]


@pytest.mark.parametrize("p", SCAN_P)
def test_log_abs_gamma_matches_scipy_on_scan_arguments(p):
    # every argument the connection formula forms on the default grid
    a, b, c = lorentz_frame_params(p, default_lambda_grid())
    g = np.complex128(math.sqrt(1.0 - p))
    z = np.concatenate([a, b, c - 1.0, 1.0 - c, [g, 1.0 + g]])
    z = z[~_is_gamma_pole(z)]
    _assert_log_abs_gamma_matches(z, loggamma(z).real)


def test_log_abs_gamma_matches_scipy_on_reflection_side():
    re, im = np.meshgrid(np.linspace(-4.0, 0.49, 91), np.linspace(-4.0, 4.0, 81))
    z = (re + 1j * im).ravel()
    z = z[~_is_gamma_pole(z)]
    _assert_log_abs_gamma_matches(z, loggamma(z).real)
    # far from the real axis, where sin(pi z) would overflow
    z = np.array([-3.3 + 400j, 0.2 - 1000j, -0.5 + 250j, 2.5 - 300j])
    _assert_log_abs_gamma_matches(z, loggamma(z).real)


def test_log_abs_gamma_next_to_poles():
    poles = -np.arange(0.0, 11.0)
    for off in (1e-8j, 1e-8 + 1e-8j, -1e-8 - 1e-8j):
        z = poles + off
        _assert_log_abs_gamma_matches(z, loggamma(z).real)
    # on the real axis scipy's complex loggamma is NaN: gammaln is log|Gamma|
    for off in (1e-8, -1e-8):
        z = poles + off
        _assert_log_abs_gamma_matches(z.astype(complex), gammaln(z))


def test_log_abs_rgamma_is_minus_inf_at_poles():
    poles = np.array([0.0, -0.0, -1.0, -2.0, -3.0, -17.0], dtype=complex)
    assert np.all(_log_abs_rgamma(poles) == -np.inf)
    near = poles + 1e-8j
    assert np.all(np.isfinite(_log_abs_rgamma(near)))


def _scipy_gauss_defects(p, lam):
    """The connection formula as it read with scipy.special: expit of the
    log ratio, Gamma's poles found where rgamma is exactly 0."""
    a, b, c = lorentz_frame_params(p, lam)
    g = np.complex128(math.sqrt(1.0 - p))

    def log_abs_rgamma(x):
        pole = (x.real <= 0.0) & (rgamma(x) == 0.0)
        return np.where(pole, -np.inf, -loggamma(np.where(pole, 1.0, x)).real)

    with np.errstate(invalid="ignore"):
        log_A = (log_abs_rgamma(1.0 + g) + log_abs_rgamma(g)
                 - log_abs_rgamma(1.0 - c))
        log_B = (log_abs_rgamma(a) + log_abs_rgamma(b)
                 - log_abs_rgamma(c - 1.0))
        defects = expit(log_B - log_A)
    defects[_near_integer(c) | _near_integer(c - a - b)] = math.nan
    return defects


@pytest.mark.parametrize("p", SCAN_P)
def test_gauss_defects_match_scipy_formula(p):
    lams = default_lambda_grid()
    ours, ref = _gauss_defects(p, lams), _scipy_gauss_defects(p, lams)
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(ours), nan)
    assert np.max(np.abs(ours[~nan] - ref[~nan]), initial=0.0) <= 1e-14


@pytest.mark.parametrize("p", SCAN_P)
def test_mode_scan_raises_no_floating_point_warnings(p):
    """Every inf - inf, overflow and pole of the scan is handled on purpose,
    so none of them reaches numpy's warnings."""
    far = np.array([0.3 + 300j, 2.7 - 300j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = mode_scan(p)
        far_scan = mode_scan(p, far)
    assert len(scan.points) == 1891 and scan.failures == []
    assert all(np.isfinite(d) for _, d in far_scan.points)


# ---------------------------------------------------------------------------
# mode scan: Gauss connection formula against the matched series

@pytest.mark.parametrize("p,n,re_min", [(0.25, 60, 0.0), (0.5, 60, 0.0),
                                        (0.75, 60, 0.0), (1.0, 40, -0.75)])
def test_mode_scan_closed_form_matches_continuation(p, n, re_min):
    # seeded points of the scanned rectangle (the strip Re > -1 at p = 1)
    rng = np.random.Generator(np.random.Philox(int(100 * p)))
    lams = rng.uniform(re_min, 3.0, n) + 1j * rng.uniform(-3.0, 3.0, n)
    scan = mode_scan(p, lams)
    assert scan.n_continuation == 0 and scan.failures == []
    for lam, defect in scan.points:
        assert defect == pytest.approx(connection_defect(p, lam), abs=1e-7), lam


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
def test_mode_scan_closed_form_exact_zeros(p):
    # Gamma(a) resp. Gamma(b) has a pole at lambda = 0 resp. 1: B = 0
    scan = mode_scan(p, [0.0, 1.0])
    assert scan.n_continuation == 0
    assert [d for _, d in scan.points] == [0.0, 0.0]


@pytest.mark.parametrize("p,lams", [(0.75, [0.5, 1.5, 2.5]),
                                    (1.0, [0.0, 1.0, 2.0, 3.0])])
def test_mode_scan_continues_where_closed_form_degenerates(p, lams):
    # an integer c or c - a - b: the connection formula has no finite
    # value there, so each such point is one continuation
    scan = mode_scan(p, lams + [0.25 + 0.5j])
    assert scan.n_continuation == len(lams) and scan.failures == []
    for lam, defect in scan.points[:-1]:
        assert defect == connection_defect(p, lam)


def test_connection_defect_nan_candidate_propagates(monkeypatch):
    """A NaN candidate defect is the minimum; Python's min keeps the finite
    first one."""
    from blowuplab import modeanalysis

    monkeypatch.setattr(modeanalysis, "smooth_candidate_defects",
                        lambda p, lam, N: [0.1, math.nan])
    assert math.isnan(connection_defect(0.75, 0.5))


def test_failed_candidate_continuation_is_a_scan_failure(monkeypatch):
    """When one of two candidates gives no finite match, connection_defect
    raises instead of reporting the other, and mode_scan records a failure
    with a NaN defect.  Two candidates arise at p = 1, lambda = 0, -1, -2,
    ..., where both branches at z = 0 are analytic too and nothing is
    matched; so the single candidate at (0.75, 0.5) is offered twice, the
    second copy with NaN coefficients."""
    from blowuplab import modeanalysis

    smooth_at_one = modeanalysis._smooth_solutions_at_one

    def with_nan_copy(*args):
        (cand,) = smooth_at_one(*args)
        return [cand, dataclasses.replace(cand, coeffs=cand.coeffs * math.nan)]

    assert connection_defect(0.75, 0.5) == pytest.approx(0.69, abs=5e-3)
    monkeypatch.setattr(modeanalysis, "_smooth_solutions_at_one", with_nan_copy)
    with pytest.raises(RuntimeError, match=r"p=0\.75, lam=0\.5"):
        connection_defect(0.75, 0.5)
    scan = mode_scan(0.75, [0.5])
    assert scan.continued == [True]
    assert [lam for lam, _ in scan.failures] == [0.5]
    assert math.isnan(scan.points[0][1])


# ---------------------------------------------------------------------------
# the matched series at the degenerate points, against ODE continuation

def _continuation_defects(p, lam, N=40):
    """Connection defect of every analytic-at-1 candidate by ODE
    continuation: DOP853 (rtol 1e-11, atol 1e-14) from z = 0.99 to the
    collar [0.01, 0.02], then a least-squares fit there against the two
    local branches at z = 0."""
    from scipy.integrate import solve_ivp

    a, b, c = lorentz_frame_params(p, lam)
    smooth_at_1 = _smooth_solutions_at_one(a, b, c, N)
    psi1, psi2 = fundamental_system(a, b, c, N)
    assert psi1.smooth != psi2.smooth
    smooth_b, sing_b = (psi1, psi2) if psi1.smooth else (psi2, psi1)

    delta = 1e-2
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
                        t_eval=zs, method="DOP853", rtol=1e-11, atol=1e-14)
        assert sol.success
        rvec = np.concatenate([sol.y[0], delta * sol.y[1]])
        ab_fit, *_ = np.linalg.lstsq(M, rvec, rcond=None)
        defects.append(abs(ab_fit[1]) / (abs(ab_fit[0]) + abs(ab_fit[1])))
    return defects


DEGENERATE = [(0.75, 0.5), (0.75, 1.5), (0.75, 2.5),
              (1.0, 1.0), (1.0, 2.0), (1.0, 3.0)]


@pytest.mark.parametrize("p,lam", DEGENERATE)
def test_matched_series_matches_continuation_at_degenerate_points(p, lam):
    # an integer c or c - a - b: the closed form cannot check these points
    assert mode_scan(p, [lam]).continued == [True]
    ours, ref = smooth_candidate_defects(p, lam), _continuation_defects(p, lam)
    assert ours == pytest.approx(ref, abs=1e-7)


@pytest.mark.parametrize("p,lam", DEGENERATE)
def test_matched_series_stable_under_series_doubling(p, lam):
    assert (smooth_candidate_defects(p, lam, 40)
            == pytest.approx(smooth_candidate_defects(p, lam, 80), abs=1e-9))
