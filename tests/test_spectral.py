import logging
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import log_ndtr
from scipy.stats import norm

from smallball import (
    covariance,
    BrownianMotion,
    EigenSpectrum,
    FracIntegrated,
    FractionalBm,
    Grid,
    Integrated,
    SpectralTail,
    brownian_spectrum,
    build_cov,
    derivative_kernel,
    eigen_rate_fit,
    integrated_brownian_spectrum,
    l2_smallball,
    laplace_transform_l2,
    neg_log_laplace,
    nystrom_eigen,
)
from smallball import spectral
from smallball.errors import NumericsError, SpecError
from smallball.spectral import _LOG_SQRT_2PI, _fit_tail

# clamped-beam frequencies, roots of cos w + sech w = 0
BEAM_W = [
    1.875104068712,
    4.694091132974,
    7.854757438238,
    10.995540734875,
    14.137168391046,
]

# lower-tail references for the L2 ball of the min kernel, from a
# high-precision Laplace inversion of prod (1 + 2 s lambda_k)^{-1/2};
# l2_smallball is ~1e-3 relative low deep in the tail, because its stop
# rule leaves up to 1e-3 eps^2 of trace unmaterialised and unaccounted,
# and its saddlepoint degrades toward ~1% as p leaves the small-ball regime
BM_L2_NEG_LOG = {
    0.1: (14.0252776232, 1e-3),
    0.15: (6.71419224126, 1e-3),
    0.2: (4.04192750644, 1e-2),
    0.25: (2.74346356284, 2e-2),
}
BM_L2_P = {0.5: (0.448744418277, 2e-2), 1.0: (0.863897754362, 1e-6)}


def test_brownian_spectrum_values_and_trace():
    sp = brownian_spectrum(1000)
    k = np.arange(1, 1001)
    assert np.allclose(sp.lambdas, (math.pi * (k - 0.5)) ** -2.0, rtol=1e-15)
    total = sp.trace + sp.tail.trace_beyond(1000)
    assert total == pytest.approx(0.5, abs=1e-12)


def test_beam_frequencies_and_trace():
    sp = integrated_brownian_spectrum(600)
    w = sp.lambdas ** -0.25
    assert np.allclose(w[:5], BEAM_W, atol=1e-9)
    total = sp.trace + sp.tail.trace_beyond(600)
    assert total == pytest.approx(1.0 / 12.0, abs=1e-10)


def test_laplace_matches_cosh_identity():
    sp = brownian_spectrum(4096)
    for lam in (1.0, 3.0, 10.0, 30.0):
        ref = math.cosh(lam) ** -0.5
        assert abs(laplace_transform_l2(sp, lam) - ref) < 1e-9
    assert neg_log_laplace(sp, 0.0) == 0.0


def _half_log_cosh(a):
    # 0.5 log cosh a without overflow
    return 0.5 * (a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0))


def _ibm_neg_log_laplace(lam):
    # prod (1 - z^4 / w_j^4) = (1 + cos z cosh z) / 2 over the clamped-beam
    # frequencies w_j, at z^4 = -lam^2: (cos^2 a + cosh^2 a) / 2, a = sqrt(lam / 2)
    a = math.sqrt(0.5 * lam)
    ratio = math.cos(a) / math.cosh(a)
    return 2.0 * _half_log_cosh(a) + 0.5 * (math.log1p(ratio * ratio) - math.log(2.0))


@pytest.mark.parametrize(
    "spectrum, exact",
    [(brownian_spectrum(k), _half_log_cosh) for k in (8, 64, 256, 4096)]
    + [(integrated_brownian_spectrum(k), _ibm_neg_log_laplace) for k in (16, 256)],
)
def test_laplace_matches_exact_oracles(spectrum, exact):
    # the tail-law modes past the head are summed exactly, so every head
    # size reads the closed form to rounding
    for lam in np.geomspace(1.0, 1e4, 9).tolist():
        assert neg_log_laplace(spectrum, lam) == pytest.approx(exact(lam), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
def test_laplace_rejects_bad_lambda(lam):
    with pytest.raises(SpecError, match="lambda"):
        neg_log_laplace(brownian_spectrum(64), lam)


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
def test_l2_ball_rejects_bad_radius(eps):
    with pytest.raises(SpecError, match="radius"):
        l2_smallball(brownian_spectrum(64), eps)


def test_laplace_tail_extension_matters():
    # few head modes + exact tail law still nails the closed form
    sp = brownian_spectrum(32)
    assert laplace_transform_l2(sp, 5.0) == pytest.approx(
        math.cosh(5.0) ** -0.5, rel=1e-6
    )


def test_tail_telescopes():
    tail = SpectralTail(2.0, 2.5, -0.5)
    for k in (3, 10, 50):
        drop = tail.trace_beyond(k) - tail.trace_beyond(k + 1)
        assert drop == pytest.approx(float(tail.values(np.array([k + 1.0]))[0]),
                                     rel=1e-12)


@pytest.mark.parametrize("eps,ref_tol", sorted(BM_L2_NEG_LOG.items()))
def test_l2_ball_saddlepoint_region(eps, ref_tol):
    ref, tol = ref_tol
    sp = brownian_spectrum(2048)
    assert l2_smallball(sp, eps) == pytest.approx(ref, rel=tol)


@pytest.mark.parametrize("eps,ref_tol", sorted(BM_L2_P.items()))
def test_l2_ball_large_radius(eps, ref_tol):
    # eps^2 at/above the trace exercises Imhof's inversion
    ref, tol = ref_tol
    sp = brownian_spectrum(2048)
    p = math.exp(-l2_smallball(sp, eps))
    assert p == pytest.approx(ref, abs=tol)


def test_l2_ball_single_mode():
    sp = EigenSpectrum([1.0])
    p_ref = 2.0 * 0.5398278372770290 - 1.0  # P(|xi| <= 0.1)
    nl = l2_smallball(sp, 0.1)
    assert nl == pytest.approx(-math.log(p_ref), rel=0.01)


def test_l2_ball_single_mode_above_trace():
    # Imhof's inversion is exact for a single mode
    sp = EigenSpectrum([1.0])
    p = math.exp(-l2_smallball(sp, 1.0))
    assert p == pytest.approx(0.6826894921370859, rel=1e-12)  # P(chi2_1 <= 1)


@pytest.mark.parametrize("f", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("j_modes", [1, 4, 16])
def test_l2_ball_above_trace_matches_paired_modes_closed_form(j_modes, f):
    # each eigenvalue twice makes Q a sum of exponentials, whose law is
    # P(Q <= x) = 1 - sum_j prod_{i != j} l_j / (l_j - l_i) exp(-x / (2 l_j))
    ev = brownian_spectrum(j_modes).lambdas
    sp = EigenSpectrum(np.repeat(ev, 2))
    eps = math.sqrt(f * sp.trace)
    x = eps * eps
    ref = 1.0 - sum(
        math.prod(lj / (lj - li) for i, li in enumerate(ev) if i != j)
        * math.exp(-x / (2.0 * lj))
        for j, lj in enumerate(ev)
    )
    assert abs(math.exp(-l2_smallball(sp, eps)) - ref) <= 1e-13


def test_l2_ball_far_above_trace_is_finite():
    # p is within 1e-14 of 1 here, and -log p must still be finite and >= 0
    nl = l2_smallball(brownian_spectrum(2048), 5.0)
    assert math.isfinite(nl) and nl >= 0.0
    # P(chi2_1 <= 100) rounds to 1, and -log 1 is +0.0, not -0.0
    assert math.copysign(1.0, l2_smallball(EigenSpectrum([1.0]), 10.0)) == 1.0


def test_l2_ball_unresolved_inversion_is_numerics_error(monkeypatch):
    # far past the trace, where the head segment holds more periods than
    # QUADPACK resolves, a Chernoff bound puts 1 - p below 2^-54: the answer
    # is +0.0 without integrating
    flat = EigenSpectrum(np.full(200, 0.01))
    for sp, eps in ((EigenSpectrum([1.0]), 100.0), (flat, math.sqrt(46.0 * flat.trace))):
        assert math.copysign(1.0, l2_smallball(sp, eps)) == 1.0
        assert l2_smallball(sp, eps) == 0.0
    # an inversion QUADPACK does not resolve still fails loudly rather than
    # returning a wrong p
    def unresolved(*args, **kwargs):
        return 0.0, 1.0, {}, "The maximum number of subdivisions (200) has been achieved.\n"

    monkeypatch.setattr(spectral, "quad", unresolved)  # bound at import
    with pytest.raises(NumericsError, match="Imhof"):
        l2_smallball(EigenSpectrum([1.0]), 1.5)


def test_l2_ball_monotone():
    sp = brownian_spectrum(1024)
    nl = [l2_smallball(sp, e) for e in (0.4, 0.2, 0.1, 0.05)]
    assert all(b > a for a, b in zip(nl, nl[1:]))


@pytest.mark.parametrize("eps, warnings", [(0.002, 1), (0.1, 0)])
def test_l2_ball_mode_cap_is_logged(caplog, eps, warnings):
    # at eps = 0.002 the 2^22 modes leave ~0.6% of eps^2 beyond the head
    with caplog.at_level(logging.WARNING, logger="smallball"):
        l2_smallball(brownian_spectrum(64), eps)
    records = [r for r in caplog.records if r.name == "smallball.spectral"]
    assert len(records) == warnings
    if warnings:
        assert "eps = 0.002" in records[0].getMessage()


# The saddlepoint as it was when it summed every one of the stop rule's modes
# as one array, frozen as the reference for the power sums that now stand in
# for the modes past an explicit prefix.
def _frozen_modes(spectrum, x):
    lam, tail = spectrum.lambdas, spectrum.tail
    k_head = lam.size
    while k_head < 2**22 and tail.trace_beyond(k_head) > 1e-3 * x:
        k_head = min(2 * k_head, 2**22)
    k = np.arange(lam.size + 1, k_head + 1, dtype=float)
    return np.concatenate([lam, tail.values(k)]) if k.size else lam


def _frozen_lr2_neg_log(lam, x):
    def kprime_gap(v):
        return float((lam / (1.0 + 2.0 * v * lam)).sum()) - x

    v_hi = 1.0
    while kprime_gap(v_hi) > 0.0:
        v_hi *= 4.0
    v = brentq(kprime_gap, 0.0, v_hi, rtol=8.9e-16, maxiter=200)
    u = -v
    r = 1.0 + 2.0 * v * lam
    cgf = -0.5 * float(np.log(r).sum())
    w = -math.sqrt(2.0 * (u * x - cgf))
    k2 = float((2.0 * lam**2 / r**2).sum())
    k3 = float((8.0 * lam**3 / r**3).sum())
    k4 = float((48.0 * lam**4 / r**4).sum())
    l3 = k3 / k2**1.5
    l4 = k4 / k2**2
    ut = u * math.sqrt(k2)
    c = (l4 / 8.0 - 5.0 * l3**2 / 24.0) / ut - 1.0 / ut**3 - l3 / (2.0 * ut**2) + 1.0 / w**3
    big_r = math.exp(log_ndtr(w) - (-(w * w) / 2.0 - _LOG_SQRT_2PI))
    g = (1.0 / w - 1.0 / ut) - c
    val = big_r + g
    return 0.5 * w * w + 0.5 * math.log(2.0 * math.pi) - math.log(val)


def _power_law_spectrum(k):
    j = np.arange(1.0, k + 1.0)
    return EigenSpectrum(0.7 * (j - 0.3) ** -2.6, tail=SpectralTail(0.7, 2.6, -0.3))


TAILED = [
    (brownian_spectrum, 64),
    (brownian_spectrum, 256),
    (brownian_spectrum, 2048),
    (integrated_brownian_spectrum, 16),
    (integrated_brownian_spectrum, 256),
    (_power_law_spectrum, 48),
]


@pytest.mark.parametrize("make, k", TAILED)
def test_l2_ball_power_sums_match_materialised_modes(make, k):
    # from 0.9 of the root mean energy down to a radius whose stop rule asks
    # for all 2^22 modes
    sp = make(k)
    trace = sp.trace + sp.tail.trace_beyond(len(sp))
    eps_cap = math.sqrt(500.0 * sp.tail.trace_beyond(2**21))
    summed = 0
    for eps in np.geomspace(0.9 * math.sqrt(trace), eps_cap, 7):
        x = eps * eps
        lam = _frozen_modes(sp, x)
        summed += lam.size > spectral._EXPLICIT_MODES
        ref = _frozen_lr2_neg_log(lam, x)
        assert abs(l2_smallball(sp, eps) / ref - 1.0) <= 1e-12, eps
        del lam
    assert summed >= 3  # the deepest radii go through the power sums


def test_l2_ball_tailless_spectrum_past_explicit_modes_is_unchanged():
    # a spectrum without a tail counts exactly its own modes, however many;
    # past _EXPLICIT_MODES they are still summed as one array, bit for bit
    lam = brownian_spectrum(10000).lambdas
    assert lam.size > spectral._EXPLICIT_MODES
    sp = EigenSpectrum(lam)
    for eps in (0.5, 0.1, 0.03):
        assert l2_smallball(sp, eps) == _frozen_lr2_neg_log(lam, eps * eps), eps


def test_l2_ball_deep_radius_materialises_few_modes():
    # the stop rule asks for 2^20 modes here (32 MiB as one array); the
    # saddlepoint builds only the prefix with 2 v lam_(M + 1) <= 1/4
    sp = brownian_spectrum(256)
    tracemalloc.start()
    try:
        l2_smallball(sp, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


_DEEP_HEX = """
import smallball as sb
for sp, radii in [(sb.brownian_spectrum(256), (0.05, 0.01, 0.005)),
                  (sb.integrated_brownian_spectrum(256), (1e-6, 1e-7, 1e-8))]:
    print(*(sb.l2_smallball(sp, e).hex() for e in radii))
"""


def test_deep_l2_radii_do_not_depend_on_blas_threads():
    # the power sums and the explicit prefix use elementwise sums only, so
    # no BLAS thread count can move the bits of a deep radius
    src = os.path.dirname(os.path.dirname(os.path.abspath(spectral.__file__)))
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    outs = []
    for blas in ("1", None):
        run_env = dict(env, OPENBLAS_NUM_THREADS=blas) if blas else env
        out = subprocess.run(
            [sys.executable, "-c", _DEEP_HEX], env=run_env, capture_output=True,
            text=True, check=True,
        )
        outs.append(out.stdout)
    assert len(outs[0].split()) == 6
    assert outs[0] == outs[1]


def test_derivative_kernel_of_integrated_brownian():
    # the derivative spec's covariance lives on the grid nodes
    g = Grid(256)
    d = derivative_kernel(Integrated(BrownianMotion(), 1), g)
    s, t = np.meshgrid(g.points, g.points, indexing="ij")
    assert np.max(np.abs(d - np.minimum(s, t))) < 1e-8


def test_derivative_kernel_of_integrated_fbm():
    h = 0.7
    g = Grid(2048)
    d = derivative_kernel(Integrated(FractionalBm(h), 1), g)
    s, t = np.meshgrid(g.points, g.points, indexing="ij")
    assert np.max(np.abs(d - covariance(FractionalBm(h), s, t))) < 1e-5


def test_derivative_kernel_is_build_cov_of_derivative_spec():
    g = Grid(256)
    d = derivative_kernel(FracIntegrated(BrownianMotion(), 1.5), g)
    ref = build_cov(FracIntegrated(BrownianMotion(), 0.5), g)
    assert np.array_equal(d, ref)


def test_derivative_kernel_requires_integrated_spec():
    with pytest.raises(SpecError):
        derivative_kernel(FractionalBm(0.7), Grid(64))


def test_nystrom_brownian():
    sp = nystrom_eigen(BrownianMotion(), Grid(1024), 64)
    assert sp.lambdas[0] == pytest.approx(4.0 / math.pi**2, rel=1e-3)
    slope = eigen_rate_fit(sp, (5, 40))
    # the analytic law (pi (k - 1/2))^-2 has exponent -2 exactly
    assert slope == pytest.approx(-2.0, abs=0.05)


def test_nystrom_trace_consistency():
    g = Grid(128)
    sp = nystrom_eigen(BrownianMotion(), g, 128)
    diag_mean = float(np.mean([covariance(BrownianMotion(), t, t) for t in g.points]))
    assert sp.trace == pytest.approx(diag_mean, abs=1e-12)


def test_nystrom_converges_for_smooth_kernel():
    spec = Integrated(BrownianMotion(), 1)
    a = nystrom_eigen(spec, Grid(256), 10).lambdas
    b = nystrom_eigen(spec, Grid(512), 10).lambdas
    assert np.max(np.abs(a / b - 1.0)) < 0.005


def test_nystrom_accepts_matrix():
    g = Grid(128)
    sp = nystrom_eigen(build_cov(BrownianMotion(), g), g, 16)
    ref = nystrom_eigen(BrownianMotion(), g, 16)
    assert np.allclose(sp.lambdas, ref.lambdas, rtol=1e-12)


def test_nystrom_clips_to_the_positive_modes():
    g = Grid(8)
    # rank one: the seven rounding-level eigenvalues fall below the clip
    assert nystrom_eigen(np.ones((8, 8)), g, 8).lambdas.tolist() == [1.0]
    with pytest.raises(NumericsError, match="no positive eigenvalue"):
        nystrom_eigen(-np.eye(8), g, 8)


def test_eigen_rate_fit_exact_power_law():
    k = np.arange(1, 101, dtype=float)
    sp = EigenSpectrum(k**-3.0)
    assert eigen_rate_fit(sp, (5, 40)) == pytest.approx(-3.0, abs=1e-12)


@pytest.mark.parametrize(
    "spectrum, rho", [(integrated_brownian_spectrum(64), 4.0), (brownian_spectrum(64), 2.0)]
)
def test_fitted_tail_recovers_shifted_analytic_law(spectrum, rho):
    # the tail fitted to the upper half of 64 exact modes is the analytic
    # pi^-rho (k - 1/2)^-rho, shift included
    tail = _fit_tail(spectrum.lambdas)
    assert tail.fitted
    assert tail.power == pytest.approx(rho, abs=1e-6)
    assert tail.shift == pytest.approx(-0.5, abs=1e-4)
    assert tail.coef == pytest.approx(math.pi**-rho, rel=1e-5)


def test_eigen_rate_fit_range_validation():
    sp = EigenSpectrum(np.arange(1, 21, dtype=float) ** -2.0)
    with pytest.raises(SpecError):
        eigen_rate_fit(sp, (15, 10))
    with pytest.raises(SpecError):
        eigen_rate_fit(sp, (5, 40))


@pytest.mark.parametrize(
    "spectrum, rho", [(integrated_brownian_spectrum(64), 4.0), (brownian_spectrum(64), 2.0)]
)
def test_eigen_rate_fit_recovers_shifted_analytic_law(spectrum, rho):
    # (pi (k - 1/2))^-rho up to exponentially small terms; a plain log-k
    # regression reads -4.148 and -2.074
    assert eigen_rate_fit(spectrum, (5, 40)) == pytest.approx(-rho, abs=1e-3)


def test_eigen_rate_fit_shift_stays_below_first_index():
    # k_range from 1: the fitted shifts, 1/2 and 0.9, must stay below 1
    sp = brownian_spectrum(16)
    assert eigen_rate_fit(sp, (1, 14)) == pytest.approx(-2.0, abs=1e-10)
    k = np.arange(1, 41, dtype=float)
    assert eigen_rate_fit(EigenSpectrum((k - 0.9) ** -3.0), (1, 40)) == pytest.approx(
        -3.0, abs=1e-8
    )


def test_eigen_rate_fit_needs_four_modes():
    sp = EigenSpectrum(np.arange(1, 21, dtype=float) ** -2.0)
    assert eigen_rate_fit(sp, (5, 8)) == pytest.approx(-2.0, abs=1e-10)
    with pytest.raises(SpecError):
        eigen_rate_fit(sp, (5, 7))


def test_fitted_tail_approximates_exact_tail():
    k = np.arange(1, 65, dtype=float)
    lam = 0.3 * k**-4.0
    with_tail = EigenSpectrum(lam, tail=SpectralTail(0.3, 4.0, 0.0))
    bare = EigenSpectrum(lam)
    for la in (20.0, 60.0):
        a = neg_log_laplace(with_tail, la)
        b = neg_log_laplace(bare, la)
        assert b == pytest.approx(a, rel=1e-2)


def test_spectrum_validation():
    with pytest.raises(SpecError):
        EigenSpectrum([])
    with pytest.raises(SpecError):
        EigenSpectrum([0.0, -1.0])
    sp = EigenSpectrum([1.0, 1e-20])  # negligible mode clipped
    assert len(sp) == 1


def test_laplace_grows_head_by_fitted_tail():
    # no analytic tail: the head is grown by the fitted one until its next
    # mode has lam^2 lam_k <= 1/4 at large lambda
    spec = EigenSpectrum(brownian_spectrum(64).lambdas)
    for lam in (300.0, 1000.0):
        val = neg_log_laplace(spec, lam)
        exact = 0.5 * (lam - math.log(2.0))  # 0.5 log cosh(lam), to 1e-260
        assert math.isfinite(val)
        assert val == pytest.approx(exact, rel=0.02)
    # below the growth threshold the fitted tail is summed as is; with its
    # index shift fitted it matches the exact 0.5 log cosh(100)
    assert abs(neg_log_laplace(spec, 100.0) - 0.5 * math.log(math.cosh(100.0))) < 1e-3


# float.hex of saddlepoint values: the first three frozen from the two growth
# loops the head materialiser replaced (bm64 at 0.002 stops at the mode cap),
# the rest captured with scipy.stats.norm's logcdf and logpdf
L2_PINNED = [
    (brownian_spectrum, 64, 0.01, "0x1.39256826c60fdp+10"),
    (brownian_spectrum, 64, 0.002, "0x1.e56f3b5681a89p+14"),
    (integrated_brownian_spectrum, 16, 1e-4, "0x1.5f9efc7b1c16dp+7"),
    (brownian_spectrum, 64, 0.5, "0x1.8ecbd095ede58p-1"),
    (brownian_spectrum, 64, 0.2, "0x1.03bd25a003f5ep+2"),
    (brownian_spectrum, 64, 0.05, "0x1.a148b50e5ac2ep+5"),
    (integrated_brownian_spectrum, 16, 0.2, "0x1.5695ae723ca23p-1"),
    (integrated_brownian_spectrum, 16, 0.05, "0x1.55a4a7431af0cp+1"),
    (integrated_brownian_spectrum, 16, 0.01, "0x1.0c6b38990de52p+3"),
    (integrated_brownian_spectrum, 16, 1e-3, "0x1.341a4b00adf0fp+5"),
]


@pytest.mark.parametrize("make, k, eps, ref", L2_PINNED)
def test_l2_ball_materialised_head_is_pinned(make, k, eps, ref):
    sp = make(k)
    assert eps * eps < sp.trace  # the saddlepoint branch
    assert l2_smallball(sp, eps).hex() == ref


def test_saddle_kernel_matches_scipy_stats_bitwise():
    # the saddlepoint's log Phi(w) - log phi(w) must keep the bits of
    # scipy.stats.norm.logcdf - logpdf, or every lower-tail value would move;
    # w < 0 there, down to about -500 at eps = 1e-3 on Brownian motion
    w = -np.geomspace(1e-4, 2e3, 25000)
    assert np.array_equal(
        log_ndtr(w) - (-(w * w) / 2.0 - _LOG_SQRT_2PI), norm.logcdf(w) - norm.logpdf(w)
    )
    for v in w[::50].tolist():  # the saddlepoint passes a Python float
        assert log_ndtr(v) - (-(v * v) / 2.0 - _LOG_SQRT_2PI) == norm.logcdf(v) - norm.logpdf(v)


@pytest.mark.parametrize("lam, ref", [(300.0, "0x1.2b4e8de8082cfp+7"), (1000.0, "0x1.f3a746f404125p+8")])
def test_laplace_materialised_head_is_pinned(lam, ref):
    assert neg_log_laplace(EigenSpectrum(brownian_spectrum(64).lambdas), lam).hex() == ref


def test_laplace_past_mode_cap_is_numerics_error():
    # the series argument at the 2^22nd mode is still ~58 at lambda = 1e8
    with pytest.raises(NumericsError, match="mode cap"):
        neg_log_laplace(brownian_spectrum(8), 1e8)
