"""Chebyshev collocation: differentiation, quadrature, interpolation, modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowuplab.chebgrid import (
    ChebGrid,
    cheb_coeffs,
    cheb_diff,
    cheb_vals,
    clenshaw_curtis_weights,
    exponential_filter,
    truncate_modes,
)


def test_nodes_and_endpoints():
    grid = ChebGrid.make(16)
    assert grid.y[0] == pytest.approx(1.0)
    assert grid.y[-1] == pytest.approx(-1.0)
    assert np.all(np.diff(grid.y) < 0)


@settings(max_examples=50, deadline=None)
@given(deg=st.integers(0, 12))
def test_differentiation_exact_on_polynomials(deg):
    grid = ChebGrid.make(16)
    c = np.zeros(deg + 1)
    c[deg] = 1.0
    vals = np.polynomial.polynomial.polyval(grid.y, c)
    dvals = np.polynomial.polynomial.polyval(
        grid.y, np.polynomial.polynomial.polyder(c))
    assert np.max(np.abs(grid.D @ vals - dvals)) < 1e-10


def test_second_derivative_matrix():
    grid = ChebGrid.make(20)
    vals = grid.y ** 5
    assert np.max(np.abs(grid.D2 @ vals - 20.0 * grid.y ** 3)) < 1e-9


def test_clenshaw_curtis_polynomial_exactness():
    N = 16
    w = clenshaw_curtis_weights(N)
    y = np.cos(np.pi * np.arange(N + 1) / N)
    for deg in range(0, N):
        exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
        assert w @ y ** deg == pytest.approx(exact, abs=1e-13)


def test_integrate_smooth_function():
    grid = ChebGrid.make(32)
    val = grid.integrate(np.exp(grid.y))
    assert val == pytest.approx(np.exp(1.0) - np.exp(-1.0), abs=1e-13)


def test_barycentric_interpolation_reproduces_nodes():
    grid = ChebGrid.make(24)
    vals = np.sin(3.0 * grid.y)
    out = grid.interpolate(vals, grid.y.copy())
    assert np.max(np.abs(out - vals)) < 1e-13


def test_barycentric_interpolation_off_grid():
    grid = ChebGrid.make(48)
    vals = np.sin(3.0 * grid.y)
    yq = np.linspace(-0.97, 0.97, 101)
    assert np.max(np.abs(grid.interpolate(vals, yq) - np.sin(3.0 * yq))) < 1e-12


def test_interpolation_sums_series_beyond_interval():
    """Nodal values of a degree-N Chebyshev series, read at |y| <= 1.2, give
    the series to 1e-12 of its largest value there; the oracle sums
    cos(k arccos y) inside and +-cosh(k arccosh |y|) outside [-1, 1]."""
    N = 64
    grid = ChebGrid.make(N)
    k = np.arange(N + 1)[:, None]

    def series(c, y):
        a = np.abs(y)
        inner = np.cos(k * np.arccos(np.clip(y, -1.0, 1.0)))
        outer = np.sign(y) ** k * np.cosh(k * np.arccosh(np.maximum(a, 1.0)))
        return c @ np.where(a <= 1.0, inner, outer)

    yq = np.linspace(-1.2, 1.2, 401)
    for seed in range(3):
        c = np.random.Generator(np.random.Philox(seed)).standard_normal(N + 1)
        exact = series(c, yq)
        err = np.max(np.abs(grid.interpolate(series(c, grid.y), yq) - exact))
        assert err < 1e-12 * np.max(np.abs(exact))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_cheb_coeff_round_trip(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    vals = rng.standard_normal(33)
    back = cheb_vals(cheb_coeffs(vals))
    assert np.max(np.abs(back - vals)) < 1e-12


def test_cheb_coeffs_identify_pure_mode():
    grid = ChebGrid.make(16)
    vals = np.cos(5.0 * np.arccos(np.clip(grid.y, -1, 1)))   # T_5
    c = cheb_coeffs(vals)
    assert c[5] == pytest.approx(1.0, abs=1e-12)
    c[5] = 0.0
    assert np.max(np.abs(c)) < 1e-12


def test_exponential_filter_preserves_low_modes():
    grid = ChebGrid.make(32)
    vals = 2.0 * grid.y ** 3 - grid.y
    filtered = exponential_filter(vals)
    assert np.max(np.abs(filtered - vals)) < 1e-10


@pytest.mark.parametrize("N", [32, 64])
def test_exponential_filter_matches_coefficient_space(N):
    # oracle: transform, damp the top third of the modes, transform back
    n = np.arange(N + 1)
    n0 = int(np.floor(2.0 * N / 3.0))
    sigma = np.where(n > n0, np.exp(np.log(1e-13) * ((n - n0) / (N - n0)) ** 8), 1.0)
    rng = np.random.Generator(np.random.Philox(N))
    rows = rng.standard_normal((2, N + 1))
    expected = np.stack([cheb_vals(sigma * cheb_coeffs(v)) for v in rows])
    assert np.max(np.abs(exponential_filter(rows) - expected)) < 1e-14
    assert np.max(np.abs(exponential_filter(rows[0]) - expected[0])) < 1e-14


def test_truncate_modes_zeroes_tail():
    grid = ChebGrid.make(30)
    rng = np.random.Generator(np.random.Philox(3))
    vals = rng.standard_normal(grid.N + 1)
    out = truncate_modes(vals)
    c = cheb_coeffs(out)
    keep = int(2.0 / 3.0 * len(c))        # modes 0..19 of 31
    assert np.max(np.abs(c[keep:])) < 1e-14
    # low modes untouched
    assert np.max(np.abs(c[:keep] - cheb_coeffs(vals)[:keep])) < 1e-12


def test_cheb_diff_rows_sum_to_zero():
    _, D = cheb_diff(20)
    assert np.max(np.abs(D.sum(axis=1))) < 1e-10
