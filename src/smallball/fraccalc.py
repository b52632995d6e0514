"""Fractional integration and differentiation on uniform grids.

Order-M integral of f on [0, 1], I^M f(t) = (1/Gamma(M)) int_0^t (t-u)^{M-1} f(u) du,
discretised by product integration: f is piecewise linear through its grid
values, except on the first cell [0, t_1] where it is the constant f(t_1)
(paths start at 0 but rough paths are badly approximated by a linear ramp
there; the constant-cell rule keeps the quadrature exact for constants).

Orders M > 1 are handled by composition I^M = (I^1)^m o I^mu with
mu = M - m in (0, 1], which keeps every factor well conditioned.  The
derivative inverts the composed lower-triangular operator directly.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular, toeplitz

from ._cache import memo
from .errors import SpecError


@memo
def _weights(mu: float, n: int):
    """Convolution kernel and first-column correction for order mu on n nodes.

    Returns (kernel, first_col) without the h^mu/Gamma(mu) scale:
      kernel[0] = c0, kernel[d] = ctil(d);  first_col[i] = A(i).
    """
    d = np.arange(n, dtype=float)
    m1 = mu + 1.0
    # ctil(d) = ((d+1)^(mu+1) - 2 d^(mu+1) + (d-1)^(mu+1)) / (mu (mu+1)), d >= 1
    kernel = np.empty(n)
    kernel[0] = 1.0 / (mu * m1)
    if n > 1:
        dd = d[1:]
        kernel[1:] = ((dd + 1.0) ** m1 - 2.0 * dd**m1 + (dd - 1.0) ** m1) / (mu * m1)
    # A(d) = Q(d) - d P(d), the extra weight the constant first cell puts on f_1
    p = ((d + 1.0) ** mu - d**mu) / mu
    q = ((d + 1.0) ** m1 - d**m1) / m1
    first = q - d * p
    return kernel, first


def _split_order(order: float):
    if not (order > 0.0) or not math.isfinite(order):
        raise SpecError(f"fractional order must be finite and > 0, got {order}")
    m = math.ceil(order) - 1
    mu = order - m  # in (0, 1]
    return m, mu


def _apply_once(values: np.ndarray, mu: float) -> np.ndarray:
    """One factor I^mu, 0 < mu <= 1, by direct convolution (O(n^2) but exact
    accumulation order; FFT convolution loses ~2 digits here and the roundtrip
    tolerance needs them).  mu = 1 reduces to the trapezoid rule with the
    constant first cell and runs in O(n)."""
    n = values.shape[-1]
    if mu == 1.0:
        out = np.cumsum(values, axis=-1)
        out -= 0.5 * values
        out += 0.5 * values[..., :1]
        return out / n
    kernel, first = _weights(mu, n)
    scale = (1.0 / n) ** mu / math.gamma(mu)
    rows = values.reshape(-1, n)
    out = np.empty_like(rows)
    for i in range(rows.shape[0]):
        out[i] = np.convolve(rows[i], kernel)[:n]
        out[i] += first * rows[i, 0]
    return scale * out.reshape(values.shape)


def frac_integral(values, order: float) -> np.ndarray:
    """I^order applied to a path of shape (n,) or a batch of shape (count, n)."""
    values = np.asarray(values, dtype=float)
    if order == 0.0:
        return values.copy()
    m, mu = _split_order(order)
    out = _apply_once(values, mu)
    for _ in range(m):
        out = _apply_once(out, 1.0)
    return out


@memo
def operator_matrix(order: float, n: int) -> np.ndarray:
    """Dense lower-triangular matrix of I^order on n interior nodes
    (cached and read-only)."""
    m, mu = _split_order(order)

    def single(mu_k):
        kernel, first = _weights(mu_k, n)
        scale = (1.0 / n) ** mu_k / math.gamma(mu_k)
        mat = toeplitz(kernel, np.zeros(n))  # mat[i, j] = kernel[i - j] below the diagonal
        mat[:, 0] += first
        return scale * mat

    w = single(mu)
    if m:
        w1 = single(1.0)
        for _ in range(m):
            w = w1 @ w
    return w


def frac_derivative(values, order: float) -> np.ndarray:
    """Inverse of frac_integral at the same order, by forward substitution on
    the composed triangular operator plus one step of iterative refinement."""
    values = np.asarray(values, dtype=float)
    if order == 0.0:
        return values.copy()
    n = values.shape[-1]
    w = operator_matrix(order, n)
    rhs = values.T if values.ndim > 1 else values
    x = solve_triangular(w, rhs, lower=True)
    x += solve_triangular(w, rhs - w @ x, lower=True)
    return x.T if values.ndim > 1 else x


def semigroup_check(values, a: float, b: float) -> float:
    """Sup deviation of I^b(I^a f) from I^{a+b} f on the grid."""
    two_step = frac_integral(frac_integral(values, a), b)
    one_step = frac_integral(values, a + b)
    return float(np.max(np.abs(two_step - one_step)))
