"""Chebyshev-Gauss-Lobatto collocation utilities.

Standard differentiation matrix (Trefethen, Spectral Methods in MATLAB,
chap. 6) together with Clenshaw-Curtis quadrature weights.  Nodes are
y_n = cos(pi*n/N), n = 0..N, i.e. ordered from +1 down to -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

FILTER_STRENGTH = 1e-13        # damping of the top mode, near round-off
FILTER_FRACTION = 1.0 / 3.0    # share of the modes the filter damps
TRUNCATE_FRACTION = 2.0 / 3.0  # share of the modes truncate_modes keeps


def cheb_diff(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes cos(pi*n/N) and the (N+1)x(N+1) differentiation matrix."""
    if N == 0:
        return np.array([1.0]), np.zeros((1, 1))
    n = np.arange(N + 1)
    x = np.cos(np.pi * n / N)
    c = np.hstack([2.0, np.ones(N - 1), 2.0]) * (-1.0) ** n
    X = np.tile(x, (N + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    return x, D


def clenshaw_curtis_weights(N: int) -> np.ndarray:
    """Quadrature weights on [-1, 1] for the cos(pi*n/N) nodes."""
    if N == 0:
        return np.array([2.0])
    w = np.zeros(N + 1)
    theta = np.pi * np.arange(1, N) / N
    v = np.ones(N - 1)
    for k in range(1, N // 2 + 1):
        if 2 * k == N:
            v -= np.cos(2 * k * theta) / (4 * k * k - 1)
        else:
            v -= 2.0 * np.cos(2 * k * theta) / (4 * k * k - 1)
    w[1:N] = 2.0 * v / N
    w[0] = w[N] = 1.0 / (N * N - 1) if N % 2 == 0 else 1.0 / N**2
    return w


@dataclass(frozen=True)
class ChebGrid:
    """Collocation grid on [-1, 1]; nodes run from +1 down to -1."""

    N: int
    y: np.ndarray = field(repr=False)
    D: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)

    @classmethod
    def make(cls, N: int) -> "ChebGrid":
        return _make_grid(N)

    @property
    def D2(self) -> np.ndarray:
        return _grid_d2(self.N)

    def deriv_pow(self, k: int) -> np.ndarray:
        """k-th power of the differentiation matrix (cached)."""
        return _deriv_pow(self.N, k)

    def integrate(self, f: np.ndarray) -> complex | float:
        return self.w @ f

    def interpolate(self, vals: np.ndarray, yq: np.ndarray) -> np.ndarray:
        """Barycentric interpolation of nodal values at query points."""
        n = np.arange(self.N + 1)
        bw = (-1.0) ** n
        bw[0] *= 0.5
        bw[-1] *= 0.5
        yq = np.atleast_1d(np.asarray(yq, dtype=float))
        out = np.empty(yq.shape, dtype=np.result_type(vals, float))
        for i, yi in enumerate(yq):
            d = yi - self.y
            hit = np.argmin(np.abs(d))
            if abs(d[hit]) < 1e-14:
                out[i] = vals[hit]
                continue
            t = bw / d
            out[i] = (t @ vals) / t.sum()
        return out


@lru_cache(maxsize=None)
def _make_grid(N: int) -> ChebGrid:
    y, D = cheb_diff(N)
    w = clenshaw_curtis_weights(N)
    return ChebGrid(N=N, y=y, D=D, w=w)


@lru_cache(maxsize=None)
def _grid_d2(N: int) -> np.ndarray:
    g = _make_grid(N)
    return g.D @ g.D


@lru_cache(maxsize=None)
def _deriv_pow(N: int, k: int) -> np.ndarray:
    g = _make_grid(N)
    if k == 0:
        return np.eye(N + 1)
    return g.D @ _deriv_pow(N, k - 1)


def cheb_coeffs(vals: np.ndarray) -> np.ndarray:
    """Chebyshev expansion coefficients from nodal values (DCT-I)."""
    N = len(vals) - 1
    if N == 0:
        return vals.copy()
    ext = np.concatenate([vals, vals[-2:0:-1]])
    c = np.fft.fft(ext).real if np.isrealobj(vals) else np.fft.fft(ext)
    c = c[: N + 1] / N
    c[0] *= 0.5
    c[-1] *= 0.5
    return c


def cheb_vals(coeffs: np.ndarray) -> np.ndarray:
    """Nodal values from Chebyshev coefficients (inverse of cheb_coeffs)."""
    N = len(coeffs) - 1
    n = np.arange(N + 1)
    theta = np.pi * np.outer(n, n) / N if N > 0 else np.zeros((1, 1))
    return np.cos(theta) @ coeffs


def exponential_filter(vals: np.ndarray) -> np.ndarray:
    """Damp the top FILTER_FRACTION of Chebyshev modes of each row of `vals`.

    sigma(n) = exp(log(FILTER_STRENGTH) * ((n - n0)/(N - n0))^8) for n > n0,
    identity below.  Applied as one cached (N+1)x(N+1) matrix on nodal
    values, so a stack of states (last axis the grid) is filtered in a
    single matmul.
    """
    return vals @ _filter_matrix(vals.shape[-1] - 1).T


@lru_cache(maxsize=None)
def _filter_matrix(N: int) -> np.ndarray:
    """Matrix of v -> cheb_vals(sigma * cheb_coeffs(v)) on nodal values,
    built column by column from the coefficient-space definition."""
    sigma = np.ones(N + 1)
    n0 = int(np.floor((1.0 - FILTER_FRACTION) * N))
    if n0 < N:
        n = np.arange(n0 + 1, N + 1)
        sigma[n] = np.exp(np.log(FILTER_STRENGTH) * ((n - n0) / (N - n0)) ** 8)
    F = np.column_stack([cheb_vals(sigma * cheb_coeffs(e))
                         for e in np.eye(N + 1)])
    F.flags.writeable = False
    return F


def truncate_modes(vals: np.ndarray) -> np.ndarray:
    """Zero all Chebyshev modes above TRUNCATE_FRACTION of the grid order.

    Marginally resolved coefficient tails excite violent (though
    power-bounded) transients of the non-normal collocation operators;
    chopping them at the data-preparation stage costs only the truncation
    error of the representable part.
    """
    c = cheb_coeffs(vals)
    c[int(TRUNCATE_FRACTION * len(c)):] = 0.0
    return cheb_vals(c)
