"""Product lower bound: query validation, wiring, and the lambda balance."""

import math

import numpy as np
import pytest

from smallball.chenli import (
    ChenLiQuery,
    chenli_bound,
    derivative_spectrum,
    optimize_lambda,
    remainder_term_check,
)
from smallball.chenli import _SPECTRUM_MODES
from smallball.errors import SpecError
from smallball.estimation import (
    RateLaw,
    brownian_sup_prob,
    debruijn_constant,
    transfer_bound,
)
from smallball.norms import Holder, Lp
from smallball.processes import (
    BrownianMotion,
    FracIntegrated,
    FractionalBm,
    Grid,
    Integrated,
    RiemannLiouville,
    StableScaledFbm,
)
from smallball.spectral import (
    brownian_spectrum,
    laplace_transform_l2,
    nystrom_eigen,
)

INF = float("inf")
IBM = Integrated(BrownianMotion(), 1)
SUP = Lp(INF)


def query(eps=0.5, lam=2.0, target=IBM, comparison=None, m=1.0, norm=SUP):
    return ChenLiQuery(target, comparison or BrownianMotion(), m, norm, eps, lam)


# ---------------------------------------------------------------------------
# validation


def test_query_validation():
    with pytest.raises(SpecError):
        query(m=0.5)  # order must exceed 1/2
    with pytest.raises(SpecError):
        query(m=1.5)  # Brownian comparison demands m = 1
    with pytest.raises(SpecError):
        query(comparison=RiemannLiouville(0.3))  # index must equal m - 1/2
    with pytest.raises(SpecError):
        query(comparison=FractionalBm(0.5))
    with pytest.raises(SpecError):
        query(eps=-0.1)
    with pytest.raises(SpecError):
        query(lam=0.0)
    query(comparison=RiemannLiouville(0.7), m=1.2)  # valid pairing


# ---------------------------------------------------------------------------
# derivative spectra


def test_derivative_spectrum_exact_reduction():
    sp = derivative_spectrum(IBM, 1.0)
    ref = brownian_spectrum(_SPECTRUM_MODES)
    assert np.array_equal(sp.lambdas, ref.lambdas)
    assert sp.tail is not None


def test_derivative_spectrum_generic_base():
    base = FractionalBm(0.7)
    sp = derivative_spectrum(Integrated(base, 1), 1.0)
    ref = nystrom_eigen(base, Grid(1024), 8)
    assert sp.lambdas[:8] == pytest.approx(ref.lambdas, rel=1e-12)


@pytest.mark.parametrize(
    "target, derived",
    [
        (Integrated(BrownianMotion(), 2), Integrated(BrownianMotion(), 1)),
        (FracIntegrated(BrownianMotion(), 1.5), FracIntegrated(BrownianMotion(), 0.5)),
    ],
    ids=repr,
)
def test_derivative_spectrum_is_nystrom_of_derivative_spec(target, derived):
    sp = derivative_spectrum(target, 1.0)
    ref = nystrom_eigen(derived, Grid(1024), 1024)
    assert np.array_equal(sp.lambdas, ref.lambdas)


def test_derivative_spectrum_unsupported():
    with pytest.raises(SpecError):
        derivative_spectrum(FractionalBm(0.7), 1.0)  # not an integral
    with pytest.raises(SpecError):
        derivative_spectrum(IBM, 1.5)  # order mismatch, no kernel route


# ---------------------------------------------------------------------------
# bound evaluation


def test_rhs_factorisation():
    res = chenli_bound(query(eps=0.5, lam=2.0), 2000, seed=3)
    ref = brownian_sup_prob(1.0) * laplace_transform_l2(
        brownian_spectrum(_SPECTRUM_MODES), 2.0
    )
    assert res.rhs == pytest.approx(ref, rel=1e-12)
    assert res.margin_se == pytest.approx((res.lhs - res.rhs) / res.lhs_se, rel=1e-12)
    assert not res.trivial


def test_bound_holds_with_margin():
    res = chenli_bound(query(eps=0.5, lam=2.0), 2000, seed=3, grid=Grid(512))
    assert res.lhs >= res.rhs
    assert res.margin_se > 3.0


def test_trivial_when_comparison_underflows():
    res = chenli_bound(query(eps=0.5, lam=0.02), 500, seed=5, grid=Grid(128))
    assert res.trivial and res.rhs == 0.0
    assert res.lhs > 0.0  # lhs itself measured fine


# ---------------------------------------------------------------------------
# lambda balance


def test_optimize_lambda_brownian_example():
    law = RateLaw(0.125, 0.5)
    choice = optimize_lambda(query(eps=0.1, lam=1.0), law, math.pi**2 / 8.0)
    d_ref = (math.pi**2 / 2.0) ** (1.0 / 3.0)
    assert choice.d_star == pytest.approx(d_ref, rel=1e-14)
    assert choice.gamma == 2.0
    assert choice.k_const == pytest.approx(0.5, abs=1e-12)
    assert choice.constant == pytest.approx(0.75 * d_ref, rel=1e-14)
    # eps exponent is (tau+1/2)/(1/gamma+tau+1/2) = 2/3 here
    assert choice.lam_star == pytest.approx(d_ref * 0.1 ** (-2.0 / 3.0), rel=1e-6)


def test_optimize_lambda_scaling_in_eps():
    law = RateLaw(0.125, 0.5)
    c1 = optimize_lambda(query(eps=0.1, lam=1.0), law, 1.0)
    c2 = optimize_lambda(query(eps=0.01, lam=1.0), law, 1.0)
    assert c2.lam_star / c1.lam_star == pytest.approx(10.0 ** (2.0 / 3.0), rel=1e-9)
    assert c2.d_star == c1.d_star  # D* does not depend on eps


def test_optimize_lambda_scaling_in_kappa_norm():
    law = RateLaw(0.125, 0.5)
    base = optimize_lambda(query(eps=0.1, lam=1.0), law, 1.0)
    up = optimize_lambda(query(eps=0.1, lam=1.0), law, 8.0)
    assert up.d_star == pytest.approx(2.0 * base.d_star, rel=1e-14)
    assert up.lam_star == pytest.approx(2.0 * base.lam_star, rel=1e-14)


@pytest.mark.parametrize("norm", [SUP, Lp(2.0), Holder(0.3)])
@pytest.mark.parametrize(
    "law", [RateLaw(0.125, 0.5), RateLaw(0.4, 0.25, theta=0.5), RateLaw(2.0, 1.5)]
)
def test_optimize_lambda_is_stationary_point_of_transfer_balance(law, norm):
    # m = 2 keeps h - beta - 1/p positive for all three norms
    kappa_norm, m = 0.7, 2.0
    q = query(eps=0.1, lam=1.0, comparison=RiemannLiouville(1.5), m=m, norm=norm)
    choice = optimize_lambda(q, law, kappa_norm)
    res = transfer_bound(law, m, norm, kappa_norm)
    assert (choice.d_star, choice.constant) == (res.d_star, res.constant)
    g, e = choice.gamma, 1.0 / (law.tau + 0.5)
    d = res.d_star
    pull = g * kappa_norm * d**-g
    push = e * debruijn_constant(law.kappa, law.tau) * d**e
    assert pull == pytest.approx(push, rel=1e-13)
    assert res.constant == pytest.approx(kappa_norm * d**-g + push / e, rel=1e-13)


def test_optimize_lambda_log_factor():
    law = RateLaw(1.0, 0.5, theta=0.6)
    plain = optimize_lambda(query(eps=0.1, lam=1.0), RateLaw(1.0, 0.5), 1.0)
    logged = optimize_lambda(query(eps=0.1, lam=1.0), law, 1.0)
    # extra factor |log eps|^(-tau theta / (gamma denom)), denom = 3/2
    fac = abs(math.log(0.1)) ** (-0.5 * 0.6 / (2.0 * 1.5))
    assert logged.lam_star == pytest.approx(plain.lam_star * fac, rel=1e-9)


def test_optimize_lambda_validation():
    law = RateLaw(0.125, 0.5)
    with pytest.raises(SpecError):
        optimize_lambda(query(eps=1.5, lam=1.0), law, 1.0)
    with pytest.raises(SpecError):
        optimize_lambda(query(eps=0.1, lam=1.0), law, 0.0)
    with pytest.raises(SpecError):
        optimize_lambda(query(eps=0.1, lam=1.0), RateLaw(0.125, INF), 1.0)
    with pytest.raises(SpecError):
        # h - beta vanishes for the matching Holder index
        optimize_lambda(query(eps=0.1, lam=1.0, norm=Holder(0.5)), law, 1.0)


# ---------------------------------------------------------------------------
# remainder term


def test_remainder_same_law_agrees():
    # RL(1/2) carries the min kernel, so both fits estimate the same slope
    res = remainder_term_check(
        RiemannLiouville(0.5),
        1.0,
        BrownianMotion(),
        SUP,
        np.geomspace(0.45, 0.8, 8),
        20000,
        seed=7,
        grid=Grid(256),
    )
    assert res.agree
    assert res.diff < 0.12
    assert res.tolerance >= 0.2


def test_remainder_detects_rate_shift():
    # a stable amplitude genuinely flattens the curve at these radii
    res = remainder_term_check(
        StableScaledFbm(0.5, 1.0),
        1.0,
        FractionalBm(0.5),
        SUP,
        np.geomspace(0.45, 0.8, 8),
        20000,
        seed=7,
        grid=Grid(256),
    )
    assert not res.agree
    assert res.slope_x > res.slope_y + 0.5


def test_remainder_rejects_bad_order():
    with pytest.raises(SpecError):
        remainder_term_check(
            IBM, 0.0, BrownianMotion(), SUP, [0.5, 0.6, 0.7, 0.8], 100
        )
