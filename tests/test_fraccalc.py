import math

import numpy as np
import pytest

from smallball import (
    Grid,
    frac_derivative,
    frac_integral,
    operator_matrix,
    semigroup_check,
)
from smallball.fraccalc import _split_order, _weights


def _grid_values(n, f):
    t = Grid(n).points
    return t, f(t)


def test_order_one_of_constant_is_exact():
    for n in (64, 1000):
        t, v = _grid_values(n, lambda t: np.ones_like(t))
        out = frac_integral(v, 1.0)
        assert np.max(np.abs(out - t)) < 1e-14


def test_order_one_of_identity_on_fine_grid():
    # the midpoint-flavored first cell converges at O(h^2); the stated
    # 1e-12 target needs a fine grid
    n = 1 << 20
    t, v = _grid_values(n, lambda t: t)
    out = frac_integral(v, 1.0)
    assert np.max(np.abs(out - 0.5 * t * t)) < 1e-12


def test_half_integral_of_constant():
    n = 1024
    t, v = _grid_values(n, lambda t: np.ones_like(t))
    out = frac_integral(v, 0.5)
    ref = 2.0 * np.sqrt(t / math.pi)
    assert np.max(np.abs(out - ref)) < 1e-4


@pytest.mark.parametrize("order", [0.5, 1.0, 1.7])
def test_roundtrip(order):
    n = 1024
    t, v = _grid_values(n, lambda t: np.sin(math.pi * t))
    back = frac_derivative(frac_integral(v, order), order)
    assert np.max(np.abs(back - v)) < 1e-8


def test_half_derivative_of_identity():
    # D^{1/2} t = 2 sqrt(t/pi); endpoint cells excluded, interior only
    n = 1024
    t, v = _grid_values(n, lambda t: t)
    out = frac_derivative(v, 0.5)
    ref = 2.0 * np.sqrt(t / math.pi)
    err = np.abs(out - ref)[2:]
    assert np.max(err) < 1e-3


def test_semigroup_deviations():
    n = 1024
    t = Grid(n).points
    v = np.sin(math.pi * t)
    assert semigroup_check(v, 0.5, 0.5) < 1e-3
    assert semigroup_check(v, 1.0, 1.0) < 1e-10
    assert semigroup_check(v, 0.0, 0.7) == 0.0


def test_linearity():
    n = 512
    rng = np.random.default_rng(3)
    f, g = rng.standard_normal(n), rng.standard_normal(n)
    for order in (0.5, 1.3):
        lhs = frac_integral(2.0 * f - 3.0 * g, order)
        rhs = 2.0 * frac_integral(f, order) - 3.0 * frac_integral(g, order)
        assert np.max(np.abs(lhs - rhs)) < 1e-13


@pytest.mark.parametrize("order", [0.3, 0.5, 1.0, 1.7])
def test_monotonicity(order):
    rng = np.random.default_rng(11)
    f = np.abs(rng.standard_normal(400))
    out = frac_integral(f, order)
    assert np.min(out) >= -1e-15


def test_integer_order_matches_iterated_integration():
    # I^2 cos(pi t) = (1 - cos(pi t)) / pi^2 up to the O(n^-2) rule error
    errs = []
    for n in (256, 1024):
        t, v = _grid_values(n, lambda t: np.cos(math.pi * t))
        out = frac_integral(v, 2.0)
        ref = (1.0 - np.cos(math.pi * t)) / math.pi**2
        errs.append(np.max(np.abs(out - ref)))
    assert errs[1] < 1e-5
    rate = errs[0] / errs[1]
    assert 8.0 < rate < 32.0  # consistent with second order


def test_operator_matrix_lower_triangular():
    for order in (0.5, 1.0, 1.7):
        w = operator_matrix(order, 64)
        assert np.all(np.triu(w, 1) == 0.0)
        v = np.sin(np.arange(1, 65) / 64.0)
        assert np.allclose(w @ v, frac_integral(v, order), rtol=1e-12, atol=1e-15)


def test_sample_path_roundtrip():
    g = Grid(256)
    p = np.sin(math.pi * g.points)
    back = frac_derivative(frac_integral(p, 0.7), 0.7)
    assert np.max(np.abs(back - p)) < 1e-9


def _loop_operator_matrix(order, n):
    """Reference for operator_matrix: each factor filled one diagonal per
    Python step."""
    m, mu = _split_order(order)

    def single(mu_k):
        kernel, first = _weights(mu_k, n)
        scale = (1.0 / n) ** mu_k / math.gamma(mu_k)
        mat = np.zeros((n, n))
        idx = np.arange(n)
        for d in range(n):
            mat[idx[d:], idx[d:] - d] = kernel[d]
        mat[:, 0] += first
        return scale * mat

    w = single(mu)
    if m:
        w1 = single(1.0)
        for _ in range(m):
            w = w1 @ w
    return w


@pytest.mark.parametrize("order", [0.5, 1.0, 1.7, 2.3])
@pytest.mark.parametrize("n", [1, 2, 64])
def test_operator_matrix_matches_diagonal_loop_bitwise(order, n):
    assert np.array_equal(operator_matrix(order, n), _loop_operator_matrix(order, n))


@pytest.mark.parametrize("order", [0.3, 1.0, 1.7])
def test_frac_integral_path_is_row_of_batch(order):
    v = np.random.default_rng(5).standard_normal(64).cumsum()
    assert np.array_equal(frac_integral(v, order), frac_integral(v[None, :], order)[0])
