"""Eigenequation analysis: Frobenius series, connection defects, mode scan."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import hyp2f1

from blowuplab.modeanalysis import (
    _smooth_solutions_at_one,
    connection_defect,
    frobenius_coeffs,
    fundamental_system,
    hypergeom_taylor_data,
    indicial_roots,
    lorentz_frame_params,
    mode_scan,
    smooth_candidate_defects,
)


def gauss_series(a, b, c, z, N=150):
    """2F1(a, b; c; z) as the exponent-0 Frobenius branch of the
    hypergeometric equation at z = 0, summed to N terms."""
    p_t, q_t = hypergeom_taylor_data(a, b, c, N)
    coeffs = frobenius_coeffs(p_t, q_t, 0.0, N).coeffs
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
        frobenius_coeffs(*hypergeom_taylor_data(0.3, 0.7, -2.0, 10), 0.0, 10)
    # generically the second solution then carries a log term ...
    _, phi2 = fundamental_system(*hypergeom_taylor_data(0.3, 0.7, -2.0, 10), 10)
    assert not phi2.smooth
    # ... but a terminating numerator rescues it: the resonance is apparent
    # and the exponent-0 solution is the polynomial 1 + (a b / c) z
    _, phi2 = fundamental_system(*hypergeom_taylor_data(-1.0, 0.7, -2.0, 10), 10)
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


def test_indicial_roots_ordering():
    s1, s2 = indicial_roots(0.3 + 0.0j, -0.7 + 0.0j)
    assert s1.real >= s2.real
    for s in (s1, s2):
        assert abs(s * (s - 1.0) + 0.3 * s - 0.7) < 1e-12


# ---------------------------------------------------------------------------
# Frobenius series

def test_frobenius_reproduces_hypergeometric():
    # at z=0 the s=0 branch of the hypergeometric equation is 2F1 itself
    a, b, c = 0.7, -0.3, 1.4
    p_t, q_t = hypergeom_taylor_data(a, b, c, 30)
    s1, s2 = indicial_roots(p_t[0], q_t[0])
    exp = frobenius_coeffs(p_t, q_t, s1 if abs(s1) < abs(s2) else s2, 30)
    coeffs = exp.coeffs
    z = 0.3
    series = sum(coeffs[n] * z ** n for n in range(len(coeffs)))
    assert series == pytest.approx(hyp2f1(a, b, c, z), rel=1e-12)


def test_frobenius_radius_root_test():
    a, b, c = 0.7, -0.3, 1.4
    p_t, q_t = hypergeom_taylor_data(a, b, c, 60)
    coeffs = frobenius_coeffs(p_t, q_t, 0.0, 60).coeffs
    # root test: |a_n|^(1/n) -> 1/R = 1
    tail = np.abs(coeffs[40:60])
    roots = tail ** (1.0 / np.arange(40, 60))
    assert np.all(np.abs(roots - 1.0) < 0.25)


def test_fundamental_system_log_branch():
    # c = 1 forces equal indicial roots at z = 0: the second solution
    # must carry a log term
    p_t, q_t = hypergeom_taylor_data(0.5, 0.5, 1.0, 20)
    phi1, phi2 = fundamental_system(p_t, q_t, 20)
    assert not phi1.log_branch
    assert phi2.log_branch
    assert abs(phi2.c_log) > 1e-8


def test_fundamental_system_plain_pair():
    # non-integer exponent gap: two plain power-series branches
    p_t, q_t = hypergeom_taylor_data(0.3, 0.8, 0.4, 20)
    phi1, phi2 = fundamental_system(p_t, q_t, 20)
    assert not phi1.log_branch and not phi2.log_branch
    # Wronskian-type independence at a sample point
    v1, d1 = phi1.eval(0.05)
    v2, d2 = phi2.eval(0.05)
    assert abs(v1 * d2 - v2 * d1) > 1e-12


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
# mode scan: Gauss connection formula against the ODE continuation

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
