import math

import numpy as np
import pytest

from smallball import Grid, Holder, L2Squared, Lp, batch_norms, beta_p
from smallball.errors import SpecError

RNG = np.random.default_rng(7)


def _paths(count=5, n=128):
    return np.cumsum(RNG.standard_normal((count, n)), axis=1) / math.sqrt(n)


@pytest.mark.parametrize(
    "norm",
    [Lp(1.0), Lp(2.0), Lp(3.5), Lp(math.inf), Holder(0.3), Holder(0.7)],
)
def test_positive_homogeneity(norm):
    x = _paths()
    a = batch_norms(4.0 * x, norm)
    b = 4.0 * batch_norms(x, norm)
    assert np.allclose(a, b, rtol=1e-12)


def test_l2_squared_scales_quadratically():
    x = _paths()
    a = batch_norms(3.0 * x, L2Squared())
    b = 9.0 * batch_norms(x, L2Squared())
    assert np.allclose(a, b, rtol=1e-12)


@pytest.mark.parametrize(
    "norm", [Lp(1.0), Lp(2.0), Lp(math.inf), Holder(0.4)]
)
def test_triangle_inequality(norm):
    x, y = _paths(8), _paths(8)
    lhs = batch_norms(x + y, norm)
    rhs = batch_norms(x, norm) + batch_norms(y, norm)
    assert np.all(lhs <= rhs + 1e-12)


def test_classification_pairs():
    assert beta_p(Lp(2.0)) == (-0.5, 2.0)
    assert beta_p(Lp(5.0)) == (-0.2, 5.0)
    assert beta_p(Lp(math.inf)) == (0.0, math.inf)
    assert beta_p(Holder(0.25)) == (0.25, math.inf)
    assert beta_p(L2Squared()) == (-0.5, 2.0)


def test_batch_matches_single():
    x = _paths(6)
    for norm in (Lp(2.0), Lp(math.inf), Holder(0.5), L2Squared()):
        batch = batch_norms(x, norm)
        single = [batch_norms(row, norm)[0] for row in x]
        assert np.allclose(batch, single, rtol=1e-14)


def test_l2_of_sine_is_half():
    # the quadrature rule is exact for sin^2 on a uniform grid
    n = 512
    t = Grid(n).points
    v = np.sin(math.pi * t)
    assert batch_norms(v, L2Squared())[0] == pytest.approx(0.5, abs=1e-13)
    assert batch_norms(v, Lp(2.0))[0] == pytest.approx(math.sqrt(0.5), abs=1e-13)


def test_sup_norm_is_max_abs():
    v = np.array([0.1, -2.5, 1.0])
    assert batch_norms(v, Lp(math.inf))[0] == 2.5


def test_holder_of_linear_path():
    # |t - s| / |t - s|^eta maximized at the full span, origin included
    t = Grid(200).points
    assert batch_norms(t, Holder(0.5))[0] == pytest.approx(1.0, rel=1e-12)


def test_invalid_parameters_rejected():
    with pytest.raises(SpecError):
        Lp(0.5)
    with pytest.raises(SpecError):
        Holder(0.0)
    with pytest.raises(SpecError):
        Holder(1.0)
