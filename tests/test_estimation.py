"""Small-ball curves, rate-law fitting, and the transfer arithmetic."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import fdtri, ndtr
from scipy.stats import f as fdist
from scipy.stats import norm

from smallball import _rng, estimation, spectral
from smallball.errors import EmptyCurveError, FitDegenerateError, SpecError
from smallball.estimation import (
    ConverseLaw,
    CurveEntry,
    RateLaw,
    SmallBallCurve,
    brownian_sup_prob,
    converse_transfer,
    debruijn_check,
    debruijn_constant,
    mc_smallball,
    rate_fit,
    regularity_bound_check,
    spectral_smallball_curve,
    transfer_bound,
)
from smallball.norms import Holder, L2Squared, Lp, batch_norms
from smallball.processes import (
    BrownianMotion,
    FractionalBm,
    Grid,
    Integrated,
    RiemannLiouville,
    StableScaledFbm,
    _cholesky_factor,
    _route,
    sample_paths,
)
from smallball.spectral import (
    EigenSpectrum,
    brownian_spectrum,
    integrated_brownian_spectrum,
    l2_smallball,
)

from test_processes import (
    ROUTES,
    _gaussian_chunk_reference,
    _positive_stable_reference,
    one_row_tail_count,
)

INF = float("inf")

# two-sided reflection series at 30 digits
SUP_PROB = {
    0.5: 0.0091569902897607558,
    1.0: 0.37077742979952391,
    2.0: 0.90899947615363375,
}


def synthetic_curve(eps, neg_log, n_samples=None, stderr=None):
    eps = np.asarray(eps, dtype=float)
    neg_log = np.asarray(neg_log, dtype=float)
    if stderr is None:
        stderr = np.zeros_like(neg_log)
    order = np.argsort(-eps)  # entries are stored large radius first
    entries = tuple(
        CurveEntry(float(eps[i]), float(neg_log[i]), float(stderr[i]),
                   None, True, True, "synthetic")
        for i in order
    )
    return SmallBallCurve(entries, Lp(INF), spec=None, n_samples=n_samples)


# ---------------------------------------------------------------------------
# Monte Carlo curves


def test_mc_curve_basic():
    eps = [1.0, 0.7, 0.5]
    curve = mc_smallball(
        BrownianMotion(), Lp(2.0), eps, n_samples=4000, seed=7, grid=Grid(512)
    )
    assert [e.eps for e in curve.entries] == eps  # sorted descending
    nl = [e.neg_log_p for e in curve.entries]
    assert nl[0] < nl[1] < nl[2]
    assert all(e.method == "mc" and e.usable for e in curve.entries)
    assert curve.n_samples == 4000 and curve.grid_n == 512


def test_mc_curve_rejects_duplicates_and_bad_args():
    bm = BrownianMotion()
    with pytest.raises(SpecError):
        mc_smallball(bm, Lp(2.0), [0.5, 0.5], 100, grid=Grid(64))
    with pytest.raises(SpecError):
        mc_smallball(bm, Lp(2.0), [0.5, -0.1], 100, grid=Grid(64))
    with pytest.raises(SpecError):
        mc_smallball(bm, Lp(2.0), [0.5], 0, grid=Grid(64))


@pytest.mark.parametrize(
    "eps",
    [[0.1, 0.1, 0.05], [0.1, 0.0], [0.1, -0.05], []],
    ids=["duplicate", "zero", "negative", "empty"],
)
def test_curve_builders_share_radius_checks(eps):
    with pytest.raises(SpecError):
        spectral_smallball_curve(brownian_spectrum(64), eps)
    with pytest.raises(SpecError):
        mc_smallball(BrownianMotion(), Lp(2.0), eps, 100, grid=Grid(64))


@pytest.mark.parametrize(
    "entry, want",
    [
        (CurveEntry(0.5, math.log(4.0), 0.1, 25, True, True, "mc"), (0.25, 0.025)),
        (CurveEntry(0.1, math.inf, math.inf, 0, False, False, "mc"), (0.0, 0.0)),
    ],
    ids=["usable", "unusable"],
)
def test_curve_entry_prob_and_its_stderr(entry, want):
    assert entry.prob == want


def test_mc_curve_empty_raises():
    with pytest.raises(EmptyCurveError):
        mc_smallball(BrownianMotion(), Lp(INF), [0.01], 50, seed=3, grid=Grid(64))


def test_mc_curve_zero_hit_entry_unusable():
    # second radius is unreachable; entry stays, flagged unusable
    curve = mc_smallball(
        BrownianMotion(), Lp(2.0), [0.5, 0.01], 400, seed=5, grid=Grid(256)
    )
    good, dead = curve.entries
    assert good.usable and good.n_hits > 0
    assert not dead.usable and dead.n_hits == 0 and math.isinf(dead.neg_log_p)


def test_mc_curve_policy_grid():
    # Lipschitz-scale processes get n = 10 / eps_min
    curve = mc_smallball(BrownianMotion(), Lp(2.0), [0.5, 0.05], 200, seed=5)
    assert curve.grid_n == 200


def test_mc_trusted_flag_tracks_increment_scale():
    # 5 x median max-increment on Grid(2048) sits near 0.40 for this process
    curve = mc_smallball(
        BrownianMotion(), Lp(2.0), [1.0, 0.3], 2000, seed=11, grid=Grid(2048)
    )
    assert curve.entries[0].trusted
    assert not curve.entries[1].trusted


def test_mc_curve_deterministic(monkeypatch):
    # 20000 rows make 3 chunks on each grid, so map_chunks reaches the pool;
    # one case per sampler route
    cases = [
        (BrownianMotion(), Lp(2.0), Grid(256)),
        (FractionalBm(0.7), Lp(2.0), Grid(128)),
        (RiemannLiouville(0.3), Lp(1.0), Grid(64)),
        (StableScaledFbm(0.5, 1.0), Lp(INF), Grid(256)),
    ]
    for spec, norm, grid in cases:
        args = (spec, norm, [0.6, 0.4], 20000)
        a = mc_smallball(*args, seed=9, grid=grid)
        for workers in ("2", "3"):
            monkeypatch.setenv("SMALLBALL_THREADS", workers)
            assert mc_smallball(*args, seed=9, grid=grid).entries == a.entries
        monkeypatch.delenv("SMALLBALL_THREADS")


def _mc_entries_reference(spec, norm, eps, count, seed, grid):
    """(hits, -log p, stderr, trusted) per radius from mc_smallball's
    whole-chunk body before row blocks, frozen here; None when no radius has
    a hit."""
    amps = None
    if isinstance(spec, StableScaledFbm):
        amps = np.sqrt(_positive_stable_reference(spec.alpha / 2.0, count, seed))
        spec = FractionalBm(spec.h)
    norms_all = np.empty(count)
    incs_all = np.empty(count)
    rows = _rng.chunk_rows(grid.n, count)
    for c in range(-(-count // rows)):
        lo = c * rows
        k = min(rows, count - lo)
        vals = _gaussian_chunk_reference(spec, grid, k, _rng.stream(seed, _rng.DOMAIN_PATHS, c))
        if amps is not None:
            vals = vals * amps[lo : lo + k, None]
        norms_all[lo : lo + k] = batch_norms(vals, norm)
        d = np.subtract(vals[:, 1:], vals[:, :-1])
        np.abs(d, out=d)
        inc = d.max(axis=1, initial=0.0)
        incs_all[lo : lo + k] = np.maximum(inc, np.abs(vals[:, 0]))
    norms_all.sort()
    hits = np.searchsorted(norms_all, eps, side="right")
    if hits.max() == 0:
        return None
    inc_scale = float(np.median(incs_all))
    out = []
    for e, h in zip(eps, hits):
        if h == 0:
            out.append((0, math.inf, math.inf, False))
            continue
        p = h / count
        out.append(
            (int(h), -math.log(p), math.sqrt((1.0 - p) / (count * p)), bool(e >= 5.0 * inc_scale))
        )
    return out


MC_NORMS = {
    "sup": (Lp(INF), [4.0, 1.0, 0.7, 0.5]),
    "l2": (Lp(2.0), [4.0, 0.6, 0.4, 0.3]),
    "holder": (Holder(0.25), [9.0, 2.4, 1.7, 1.3]),
}


@pytest.mark.parametrize("norm_key", sorted(MC_NORMS))
@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("count", [1, 2, 17, 8193, 20000, "tail"])
def test_mc_smallball_matches_chunk_body_bitwise(count, route, norm_key, monkeypatch):
    spec, grid = ROUTES[route]
    norm, eps = MC_NORMS[norm_key]
    if norm_key == "holder":
        # the Holder norm scans all grid pairs of each row; on 72 points a
        # Cholesky chunk still spans two row blocks
        grid = Grid(72)
    if count == "tail":
        count = one_row_tail_count(spec, grid)
    ref = _mc_entries_reference(spec, norm, np.array(eps), count, 5, grid)
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("SMALLBALL_THREADS", workers)
        if ref is None:
            with pytest.raises(EmptyCurveError):
                mc_smallball(spec, norm, eps, count, seed=5, grid=grid)
            continue
        curve = mc_smallball(spec, norm, eps, count, seed=5, grid=grid)
        got = [(e.n_hits, e.neg_log_p, e.stderr, e.trusted) for e in curve.entries]
        assert got == ref


@pytest.mark.parametrize(
    "spec, n, limit_mib",
    # one worker holds one row block, not a chunk of 8192 rows (64, 32 and
    # 128 MiB per temporary on these grids)
    [
        (BrownianMotion(), 1024, 8),
        (Integrated(BrownianMotion(), 1), 512, 24),
        (FractionalBm(0.7), 1024, 16),
    ],
)
def test_mc_smallball_memory_is_per_block(spec, n, limit_mib):
    tracemalloc.start()
    try:
        mc_smallball(spec, Lp(INF), [1.0, 0.5], 20000, seed=3, grid=Grid(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20


def test_rl_half_on_cumsum_matches_dense_product():
    # RL(1/2) has BM's covariance, so the cumsum route replaces its dense
    # Cholesky product: the same normals, rounding-level path changes
    spec, grid, count, seed = RiemannLiouville(0.5), Grid(256), 20000, 11
    assert _route(spec) == "cumsum"
    fac = _cholesky_factor(spec, grid)
    rows = _rng.chunk_rows(grid.n, count)
    dense = np.concatenate([
        _rng.stream(seed, _rng.DOMAIN_PATHS, c).standard_normal(
            (min(rows, count - c * rows), grid.n)
        ) @ fac.T
        for c in range(-(-count // rows))
    ])
    assert np.abs(sample_paths(spec, grid, count, seed=seed) - dense).max() <= 1e-13
    eps = [3.0, 1.5, 1.0, 0.7, 0.5]
    curve = mc_smallball(spec, Lp(INF), eps, count, seed=seed, grid=grid)
    hits = np.searchsorted(np.sort(batch_norms(dense, Lp(INF))), eps, side="right")
    assert [e.n_hits for e in curve.entries] == hits.tolist()
    assert hits.min() > 0


def test_mc_matches_spectral_l2():
    curve = mc_smallball(
        BrownianMotion(), Lp(2.0), [0.5], 20000, seed=13, grid=Grid(1024)
    )
    entry = curve.entries[0]
    ref = l2_smallball(brownian_spectrum(2048), 0.5)
    # the saddle evaluator is a ~1% method this far from the small-ball
    # regime, so its class rides on top of the sampling band
    assert abs(entry.neg_log_p - ref) < 3.0 * entry.stderr + 0.01 * ref


def test_mc_matches_reflection_series():
    curve = mc_smallball(
        BrownianMotion(), Lp(INF), [1.0], 20000, seed=17, grid=Grid(4096)
    )
    entry = curve.entries[0]
    exact = -math.log(SUP_PROB[1.0])
    # discretisation misses excursions between nodes, so allow the bias to
    # sit on the low side of nl but not above the truth
    assert entry.neg_log_p <= exact + 3.0 * entry.stderr
    assert entry.neg_log_p >= exact - 5.0 * entry.stderr


# ---------------------------------------------------------------------------
# spectral curves


def test_spectral_curve_exact_entries():
    sp = brownian_spectrum(1024)
    eps = [0.2, 0.1, 0.05]
    curve = spectral_smallball_curve(sp, eps)
    for e in curve.entries:
        assert e.method == "saddle" and e.stderr == 0.0 and e.usable and e.trusted
        assert e.neg_log_p == l2_smallball(sp, e.eps)
    assert curve.n_samples is None


def test_spectral_curve_labels_the_route_taken():
    # eps^2 at or above the energy takes Imhof's inversion; with the analytic
    # tail the materialised energy is the trace 1/2 to within 1e-3 eps^2
    sp = brownian_spectrum(1024)
    curve = spectral_smallball_curve(sp, [math.sqrt(0.5 * f) for f in (4.0, 1.2, 0.8, 0.02)])
    assert [e.method for e in curve.entries] == ["imhof", "imhof", "saddle", "saddle"]
    for e in curve.entries:
        assert e.neg_log_p == l2_smallball(sp, e.eps)
    # without a tail the energy is the head's own sum
    head = EigenSpectrum(sp.lambdas[:4])
    trace = float(head.lambdas.sum())
    curve = spectral_smallball_curve(head, [math.sqrt(trace), math.sqrt(0.5 * trace)])
    assert [e.method for e in curve.entries] == ["imhof", "saddle"]


@pytest.mark.parametrize("f, route", [(0.999, "saddle"), (1.001, "imhof")])
@pytest.mark.parametrize(
    "sp",
    [
        brownian_spectrum(64),
        integrated_brownian_spectrum(16),
        EigenSpectrum(brownian_spectrum(64).lambdas),
        EigenSpectrum(brownian_spectrum(10000).lambdas),
    ],
)
def test_spectral_curve_label_is_the_branch_taken(monkeypatch, sp, f, route):
    # just below and above the energy of the modes the stop rule keeps, the
    # label must name the evaluator that l2_smallball ran
    count = spectral._l2_route(sp, sp.trace)[1]
    energy = sp.trace
    if sp.tail is not None:
        energy += sp.tail.trace_beyond(len(sp)) - sp.tail.trace_beyond(count)
    assert spectral._l2_route(sp, f * energy)[1] == count
    # the evaluators are stubbed: this close to the energy the saddlepoint
    # expansion loses positivity on spectra led by few modes
    taken = []
    for name in ("_lr2_neg_log", "_upper_tail_neg_log"):
        monkeypatch.setattr(spectral, name, lambda *args, _name=name: taken.append(_name) or 1.0)
    (entry,) = spectral_smallball_curve(sp, [math.sqrt(f * energy)]).entries
    assert taken == ["_lr2_neg_log" if route == "saddle" else "_upper_tail_neg_log"]
    assert entry.method == route


def test_spectral_curve_fit_recovers_brownian_rate():
    sp = brownian_spectrum(2048)
    curve = spectral_smallball_curve(sp, np.geomspace(1e-3, 1e-2, 8))
    law = rate_fit(curve)
    assert 1.0 / law.tau == pytest.approx(2.0, abs=0.02)
    assert law.kappa == pytest.approx(0.125, rel=0.08)
    # the L2 law's correction is a log term, not a constant: no offset
    assert law.offset == 0.0


@pytest.mark.parametrize("eps_lo", [0.3, 0.2, 0.1])
def test_rate_fit_recovers_sup_law_with_constant(eps_lo):
    # -log P(sup |B| <= eps) = (pi^2/8) eps^-2 - log(4/pi) + O(exp(-pi^2/eps^2));
    # a pure power law reads 2.156, 2.118 and 2.079 on these windows
    eps = np.geomspace(eps_lo, 1.0, 8)
    nl = [-math.log(brownian_sup_prob(e)) for e in eps]
    law = rate_fit(synthetic_curve(eps, nl))
    assert 1.0 / law.tau == pytest.approx(2.0, abs=1e-3)
    assert law.kappa == pytest.approx(math.pi**2 / 8.0, rel=1e-4)
    assert law.offset == pytest.approx(-math.log(4.0 / math.pi), abs=1e-3)
    # the standard error is that of the offset fit, on the residual scale
    assert 0.0 < law.slope_se < 1e-4


# ---------------------------------------------------------------------------
# rate_fit


def test_rate_fit_exact_power_law():
    eps = np.geomspace(0.05, 0.5, 12)
    law = rate_fit(synthetic_curve(eps, 2.0 * eps**-2.0))
    assert 1.0 / law.tau == pytest.approx(2.0, rel=1e-10)
    assert law.kappa == pytest.approx(2.0, rel=1e-10)
    assert law.theta == 0.0 and law.offset == 0.0
    assert law.r2 == pytest.approx(1.0, abs=1e-12)


def test_rate_fit_estimates_log_exponent():
    eps = np.geomspace(1e-4, 0.7, 14)
    nl = eps**-2.0 * np.abs(np.log(eps)) ** 0.5
    law = rate_fit(synthetic_curve(eps, nl), theta_fixed=None)
    assert 1.0 / law.tau == pytest.approx(2.0, abs=1e-8)
    assert law.theta == pytest.approx(0.5, abs=1e-6)
    assert law.kappa == pytest.approx(1.0, rel=1e-6)


def test_rate_fit_fixed_nonzero_log_exponent():
    eps = np.geomspace(1e-3, 0.5, 10)
    nl = 3.0 * eps**-1.5 * np.abs(np.log(eps)) ** 0.25
    law = rate_fit(synthetic_curve(eps, nl), theta_fixed=0.25)
    assert 1.0 / law.tau == pytest.approx(1.5, rel=1e-10)
    assert law.kappa == pytest.approx(3.0, rel=1e-10)


def test_rate_fit_collinear_window_degenerate():
    eps = np.geomspace(0.30, 0.28, 6)
    curve = synthetic_curve(eps, 2.0 * eps**-2.0)
    with pytest.raises(FitDegenerateError):
        rate_fit(curve, theta_fixed=None)


def test_rate_fit_needs_enough_points():
    eps = np.array([0.5, 0.25])
    with pytest.raises(SpecError):
        rate_fit(synthetic_curve(eps, 2.0 * eps**-2.0))


def test_rate_fit_rejects_increasing_curve():
    eps = np.geomspace(0.05, 0.5, 8)
    with pytest.raises(SpecError):
        rate_fit(synthetic_curve(eps, 2.0 * eps**2.0))


def test_rate_fit_probability_window():
    # junk points outside [10/N, 0.9] are dropped when N is known
    eps = np.geomspace(0.1, 1.0, 8)
    nl = 0.3 / eps
    eps_all = np.concatenate([eps, [2.0, 0.01]])
    nl_all = np.concatenate([nl, [0.05, 8.0]])  # p = 0.95 and p = 3e-4
    law = rate_fit(synthetic_curve(eps_all, nl_all, n_samples=10000))
    assert 1.0 / law.tau == pytest.approx(1.0, rel=1e-10)
    assert law.kappa == pytest.approx(0.3, rel=1e-10)
    # without N the same junk contaminates the slope
    law_raw = rate_fit(synthetic_curve(eps_all, nl_all))
    assert abs(1.0 / law_raw.tau - 1.0) > 0.05


# ---------------------------------------------------------------------------
# transfer arithmetic


def test_transfer_exponents_finite_tau():
    res = transfer_bound(RateLaw(0.125, 0.5), 1.0, Lp(INF))
    assert res.exponent == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert res.log_exponent == 0.0
    assert res.constant is None and res.d_star is None


def test_transfer_log_exponent():
    res = transfer_bound(RateLaw(1.0, 0.5, theta=0.3), 1.0, Holder(0.3))
    assert res.exponent == pytest.approx(1.0 / 1.2, abs=1e-15)
    assert res.log_exponent == pytest.approx(0.3 * 0.5 / 1.2, abs=1e-15)


def test_transfer_l2squared_norm():
    res = transfer_bound(RateLaw(0.125, 0.5), 1.0, L2Squared())
    # beta = -1/2 and p = 2 give denominator tau + 1 + 1/2 - 1/2
    assert res.exponent == pytest.approx(1.0 / 1.5, abs=1e-15)


def test_transfer_infinite_tau():
    res = transfer_bound(RateLaw(0.125, INF), 1.0, Lp(2.0))
    assert res.exponent == pytest.approx(1.0, abs=1e-15)
    assert res.log_exponent == 0.0
    assert res.constant == 0.125


def test_transfer_exponent_gap_must_be_positive():
    with pytest.raises(SpecError):
        transfer_bound(RateLaw(1.0, INF), 0.4, Holder(0.5))
    with pytest.raises(SpecError):
        transfer_bound(RateLaw(1.0, 0.5), 0.5, Lp(INF), kappa_norm=1.0)


def test_transfer_constant_brownian_example():
    law = RateLaw(0.125, 0.5)
    kappa_sup = math.pi**2 / 8.0
    res = transfer_bound(law, 1.0, Lp(INF), kappa_norm=kappa_sup)
    d_ref = (math.pi**2 / 2.0) ** (1.0 / 3.0)
    assert res.d_star == pytest.approx(d_ref, rel=1e-14)
    # at the optimum of A/d^2 + d/2 the value is (3/4) d_star
    assert res.constant == pytest.approx(0.75 * d_ref, rel=1e-14)


def test_transfer_constant_scaling():
    # kappa_norm -> c kappa_norm rescales d_star by c^(1/3) here
    law = RateLaw(0.125, 0.5)
    base = transfer_bound(law, 1.0, Lp(INF), kappa_norm=1.0)
    scaled = transfer_bound(law, 1.0, Lp(INF), kappa_norm=8.0)
    assert scaled.d_star == pytest.approx(2.0 * base.d_star, rel=1e-14)


def test_transfer_rejects_infinite_kappa_norm():
    # 0, -1 and NaN are rejected through the transfer command (test_cli.py)
    with pytest.raises(SpecError, match="kappa_norm"):
        transfer_bound(RateLaw(0.125, 0.5), 1.0, Lp(INF), kappa_norm=math.inf)


def test_converse_transfer():
    res = converse_transfer(ConverseLaw(2.0 / 3.0, 0.3), 1.0, Lp(INF))
    assert res.exponent == pytest.approx(2.0, abs=1e-12)
    assert res.log_exponent == pytest.approx(0.9, abs=1e-12)
    flat = converse_transfer(ConverseLaw(0.0), 1.0, Lp(2.0))
    assert flat.exponent == 0.0 and flat.log_exponent == 0.0
    with pytest.raises(SpecError):
        converse_transfer(ConverseLaw(2.0 / 3.0), 2.0, Lp(INF))


# ---------------------------------------------------------------------------
# regularity ceiling


def test_regularity_check_passes_below_bound():
    eps = np.geomspace(0.01, 0.3, 10)
    verdict = regularity_bound_check(
        BrownianMotion(), 1.0, Lp(INF), synthetic_curve(eps, eps**-0.9)
    )
    assert verdict.passed
    assert verdict.slope == pytest.approx(0.9, rel=1e-9)
    assert verdict.bound == pytest.approx(1.1, abs=1e-12)


def test_regularity_check_fails_above_bound():
    eps = np.geomspace(0.01, 0.3, 10)
    verdict = regularity_bound_check(
        BrownianMotion(), 1.0, Lp(INF), synthetic_curve(eps, eps**-1.3)
    )
    assert not verdict.passed


# ---------------------------------------------------------------------------
# Laplace growth


def test_debruijn_constant_values():
    assert debruijn_constant(0.125, 0.5) == pytest.approx(0.5, abs=1e-14)
    assert debruijn_constant(0.37, INF) == 0.37


def test_debruijn_check_brownian():
    res = debruijn_check(
        brownian_spectrum(2048), RateLaw(0.125, 0.5), lam_grid=np.geomspace(50, 1e3, 16)
    )
    assert res.max_rel_dev < 0.02
    assert res.k_hat == pytest.approx(0.5, rel=0.01)
    assert res.growth_exponent == pytest.approx(1.0, abs=2e-3)
    assert res.growth_coef == pytest.approx(0.5, rel=0.02)
    assert not res.degenerate


def test_debruijn_check_integrated():
    # kappa plays no role in the growth model, only tau does; the no-offset
    # k_hat carries the preasymptotic constant, the free fit sheds it
    res = debruijn_check(
        integrated_brownian_spectrum(2000),
        RateLaw(9.9, 1.5),
        lam_grid=np.geomspace(100, 1e3, 12),
    )
    assert res.growth_exponent == pytest.approx(0.5, abs=1e-3)
    assert res.growth_coef == pytest.approx(2.0**-0.5, rel=1e-3)
    assert res.k_hat == pytest.approx(2.0**-0.5, rel=0.10)
    assert res.max_rel_dev < 0.1
    assert not res.degenerate


def test_debruijn_check_degenerate_spectrum():
    res = debruijn_check(EigenSpectrum([1.0]), RateLaw(0.125, 0.5))
    assert res.degenerate and res.max_rel_dev > 0.25


def test_debruijn_check_grid_range():
    with pytest.raises(SpecError):
        debruijn_check(
            brownian_spectrum(256), RateLaw(0.125, 0.5), lam_grid=np.geomspace(5, 100, 8)
        )


def test_debruijn_check_rejects_nan_grid():
    grid = np.geomspace(50.0, 1000.0, 16)
    grid[3] = math.nan
    with pytest.raises(SpecError, match="lambda grid"):
        debruijn_check(brownian_spectrum(256), RateLaw(0.125, 0.5), lam_grid=grid)


# ---------------------------------------------------------------------------
# reflection series


def test_sup_prob_values():
    for eps, ref in SUP_PROB.items():
        assert brownian_sup_prob(eps) == pytest.approx(ref, rel=1e-12)


def test_sup_prob_continuous_at_series_switch():
    lo = brownian_sup_prob(1.0 - 1e-9)
    hi = brownian_sup_prob(1.0 + 1e-9)
    assert abs(hi - lo) < 1e-8


def test_sup_prob_monotone():
    eps = np.linspace(0.2, 3.0, 30)
    vals = [brownian_sup_prob(float(e)) for e in eps]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(SpecError):
        brownian_sup_prob(0.0)


def _sup_prob_stats(eps):
    # brownian_sup_prob's series for eps >= 1, over scipy.stats.norm.cdf
    k = np.arange(-40, 41)
    vals = (-1.0) ** np.abs(k) * (norm.cdf((2.0 * k + 1.0) * eps) - norm.cdf((2.0 * k - 1.0) * eps))
    return float(min(vals.sum(), 1.0))


def test_normal_and_f_kernels_match_scipy_stats_bitwise():
    # brownian_sup_prob and rate_fit's F-test call the scipy.special ufuncs
    # behind scipy.stats.norm.cdf and scipy.stats.f.ppf; they must keep
    # those bits, or the reflection series and the offset choice would move
    x = np.linspace(-40.0, 40.0, 200001)
    assert np.array_equal(ndtr(x), norm.cdf(x))
    dof1 = np.arange(1, 3000)
    assert np.array_equal(fdtri(1, dof1, 0.99), fdist.ppf(0.99, 1, dof1))
    for d in range(1, 3000, 37):
        assert fdtri(1, d, 0.99) == fdist.ppf(0.99, 1, d)
    for eps in np.linspace(1.0, 5.0, 401):
        assert brownian_sup_prob(float(eps)) == _sup_prob_stats(float(eps))


# float.hex of brownian_sup_prob on the normal-cdf branch, captured over
# scipy.stats.norm.cdf
SUP_PROB_PINNED = {
    1.0: "0x1.7bad141c55e78p-2",
    1.3: "0x1.39d9e24428ea8p-1",
    2.0: "0x1.d168611c526d3p-1",
    3.0: "0x1.fd3c43c0cf494p-1",
    5.0: "0x1.ffffd986ba1bcp-1",
}


@pytest.mark.parametrize("eps, ref", SUP_PROB_PINNED.items())
def test_sup_prob_is_pinned(eps, ref):
    assert brownian_sup_prob(eps).hex() == ref


def _offset_curve():
    eps = np.geomspace(0.3, 1.0, 8)
    return synthetic_curve(eps, [-math.log(brownian_sup_prob(e)) for e in eps])


def _pure_curve():
    # a power law with an alternating 1% wiggle, inside its stated errors
    eps = np.geomspace(0.05, 0.5, 10)
    nl = 2.0 * eps**-2.0 * (1.0 + 0.01 * (-1.0) ** np.arange(10))
    return synthetic_curve(eps, nl, stderr=np.full(10, 0.02))


# float.hex of (kappa, tau, r2, slope_se, offset), captured with the F-test
# threshold from scipy.stats.f.ppf
@pytest.mark.parametrize("make, dof1, ref", [
    (_offset_curve, 5, ("0x1.3bd1e8c609c0bp+0", "0x1.fffeccda68f22p-2", "0x1.ffffffffee0f2p-1",
                        "0x1.1060292c69724p-17", "-0x1.eea2a37619114p-3")),
    (_pure_curve, 7, ("0x1.fdcc1aeb316edp+0", "0x1.ff6813dbdb92dp-2", "0x1.fffa12e4bb540p-1",
                      "0x1.37f813d8fedaep-8", "0x0.0p+0")),
])
def test_rate_fit_f_test_is_pinned(make, dof1, ref, monkeypatch):
    seen = []

    def threshold(dfn, dfd, q):
        seen.append(dfd)
        return fdtri(dfn, dfd, q)

    monkeypatch.setattr(estimation, "fdtri", threshold)
    law = rate_fit(make())
    assert seen == [dof1]  # the F-test decided, not the exact-fit shortcut
    assert tuple(v.hex() for v in (law.kappa, law.tau, law.r2, law.slope_se, law.offset)) == ref


def test_mc_smallball_reads_a_generator_once():
    radii = [0.9, 0.7, 0.5]
    as_list = mc_smallball(BrownianMotion(), Lp(math.inf), radii, 3000, seed=8, grid=Grid(64))
    as_gen = mc_smallball(
        BrownianMotion(), Lp(math.inf), (e for e in radii), 3000, seed=8, grid=Grid(64)
    )
    assert as_gen.entries == as_list.entries
