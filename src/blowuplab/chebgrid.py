"""Chebyshev-Gauss-Lobatto collocation utilities.

Standard differentiation matrix (Trefethen, Spectral Methods in MATLAB,
chap. 6) together with Clenshaw-Curtis quadrature weights.  Nodes are
y_n = cos(pi*n/N), n = 0..N, i.e. ordered from +1 down to -1.  Both are
functions of the node array alone, so the float64 grid and the mpmath grid
of the eigen-triple certificate (linop._mp_cheb) share one formula each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

FILTER_STRENGTH = 1e-13        # damping of the top mode, near round-off
FILTER_FRACTION = 1.0 / 3.0    # share of the modes the filter damps
TRUNCATE_FRACTION = 2.0 / 3.0  # share of the modes truncate_modes keeps


def cheb_diff(y: np.ndarray) -> np.ndarray:
    """The (N+1)x(N+1) differentiation matrix on the nodes y_n = cos(pi*n/N),
    in their number type: float64, or mpmath objects."""
    N = len(y) - 1
    c = np.hstack([2.0, np.ones(N - 1), 2.0]) * (-1.0) ** np.arange(N + 1)
    D = np.outer(c, 1.0 / c) / (np.subtract.outer(y, y) + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    return D


def clenshaw_curtis_weights(y: np.ndarray) -> np.ndarray:
    """Quadrature weights on [-1, 1] for the nodes y_n = cos(pi*n/N), in their
    number type.  cos(2k theta_n) is the node y_m, m = 2kn mod 2N folded
    into [0, N] (Waldvogel, BIT 46:195, 2006)."""
    N = len(y) - 1
    k = np.arange(1, N // 2 + 1)[:, None]
    m = 2 * k * np.arange(1, N) % (2 * N)
    fac = np.where(2 * k == N, 1, 2)
    v = 1 - (fac * y[np.minimum(m, 2 * N - m)] / (4 * k * k - 1)).sum(axis=0)
    w = np.empty_like(y)
    w[1:N] = 2 * v / N
    w[0] = w[N] = y[0] / (N * N - 1 if N % 2 == 0 else N * N)
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
        return _deriv_pow(self.N, 2)

    def deriv_pow(self, k: int) -> np.ndarray:
        """k-th power of the differentiation matrix (cached)."""
        return _deriv_pow(self.N, k)

    def integrate(self, f: np.ndarray) -> complex | float:
        return self.w @ f

    def interpolate(self, vals: np.ndarray, yq: np.ndarray) -> np.ndarray:
        """The interpolant of nodal values at query points, summed as its
        Chebyshev series by Clenshaw's recurrence: forward stable also a
        little beyond [-1, 1], where the initial-data operator reads it and
        the barycentric formula is not (Higham, IMA J. Numer. Anal. 2004)."""
        return np.polynomial.chebyshev.chebval(yq, cheb_coeffs(vals))


@lru_cache(maxsize=None)
def _make_grid(N: int) -> ChebGrid:
    y = np.cos(np.pi * np.arange(N + 1) / N)
    return ChebGrid(N=N, y=y, D=cheb_diff(y), w=clenshaw_curtis_weights(y))


@lru_cache(maxsize=None)
def _deriv_pow(N: int, k: int) -> np.ndarray:
    D = _make_grid(N).D
    if k == 1:      # D itself: the cache holds no copy of D
        return D
    return D @ _deriv_pow(N, k - 1)


def cheb_coeffs(vals: np.ndarray) -> np.ndarray:
    """Chebyshev expansion coefficients from nodal values (DCT-I)."""
    N = len(vals) - 1
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
    return np.cos(np.pi * np.outer(n, n) / N) @ coeffs


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
