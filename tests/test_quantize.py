"""Scalar codebooks, greedy allocation, and distortion estimation."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from smallball import _rng, quantize
from smallball.errors import SpecError
from smallball.processes import BrownianMotion
from smallball.quantize import (
    QuantCurve,
    _centroids,
    _distortion,
    gauss_scalar_codebook,
    product_quantizer,
    quant_curve,
    quant_error,
)
from smallball.spectral import EigenSpectrum, brownian_spectrum, integrated_brownian_spectrum

# Lloyd fixed points for the standard normal, 12 digits
E2_REF = {
    2: 0.363380227632,
    3: 0.190174039248,
    4: 0.117481847829,
    5: 0.079941127088,
    8: 0.034547760789,
}


def test_codebook_trivial():
    cb, e2 = gauss_scalar_codebook(1)
    assert cb.tolist() == [0.0] and e2 == 1.0
    with pytest.raises(SpecError):
        gauss_scalar_codebook(0)


def test_codebook_two_levels_analytic():
    cb, e2 = gauss_scalar_codebook(2)
    root = math.sqrt(2.0 / math.pi)
    assert cb == pytest.approx([-root, root], abs=1e-10)
    assert e2 == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-10)


def test_codebook_distortion_table():
    for n, ref in E2_REF.items():
        assert gauss_scalar_codebook(n)[1] == pytest.approx(ref, abs=1e-9)
    assert gauss_scalar_codebook(64)[1] == pytest.approx(6.442397e-4, rel=1e-5)


def test_codebook_monotone_and_symmetric():
    prev = 1.0
    for n in range(2, quantize._MAX_LEVELS + 1):
        cb, e2 = gauss_scalar_codebook(n)
        assert e2 < prev
        prev = e2
        assert np.all(np.diff(cb) > 0.0)
        assert cb + cb[::-1] == pytest.approx(np.zeros(n), abs=1e-10)


def test_codebook_root_solves_every_level_count():
    # Newton is the only solver, so every level count product_quantizer can
    # request must reach the fixed point through it
    for n in range(1, quantize._MAX_LEVELS + 1):
        cb = gauss_scalar_codebook(n)[0]
        assert np.max(np.abs(cb - _centroids(cb))) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 17, 131, 256])
def test_lloyd_jacobian_matches_central_differences(n):
    # at the Newton start and at the solved codebook; h = 1e-3 keeps the
    # tail cells' rounding (~1e-11 in the centroids) far below the tolerance
    h = 1e-3
    start = ndtri((2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)) * 0.95
    for c in (start, gauss_scalar_codebook(n)[0]):
        ab = quantize._lloyd_jacobian(c)
        jac = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
        fd = np.empty((n, n))
        for j in range(n):
            step = np.zeros(n)
            step[j] = h
            hi, lo = c + step, c - step
            fd[:, j] = ((hi - _centroids(hi)) - (lo - _centroids(lo))) / (2.0 * h)
        np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_codebook_against_mc_oracle(n):
    # independent 10^7-sample estimate of E min_c (xi - c)^2
    cb, e2 = gauss_scalar_codebook(n)
    mids = 0.5 * (cb[:-1] + cb[1:])
    rng = np.random.default_rng(1234 + n)
    total = sq = 0.0
    n_total = 10_000_000
    for _ in range(4):
        xi = rng.standard_normal(n_total // 4)
        err = (xi - cb[np.searchsorted(mids, xi)]) ** 2
        total += err.sum()
        sq += (err * err).sum()
    mean = total / n_total
    se = math.sqrt((sq / n_total - mean * mean) / n_total)
    assert abs(mean - e2) < 3.0 * se


def _cells_stats(c):
    # an upper cell's mass as a difference of survival functions, which is
    # ndtr of the mirrored cell
    b = 0.5 * (c[:-1] + c[1:])
    lo = np.concatenate([[-np.inf], b])
    hi = np.concatenate([b, [np.inf]])
    mass = np.where(lo >= 0.0, norm.sf(lo) - norm.sf(hi), norm.cdf(hi) - norm.cdf(lo))
    return lo, hi, mass


def _centroids_stats(c):
    lo, hi, mass = _cells_stats(c)
    return (norm.pdf(lo) - norm.pdf(hi)) / mass


def _distortion_stats(c):
    lo, hi, mass = _cells_stats(c)
    first = norm.pdf(lo) - norm.pdf(hi)
    return float(1.0 - 2.0 * (c * first).sum() + (c * c * mass).sum())


def test_kernels_match_scipy_stats_bitwise():
    # the ufunc kernels must give scipy.stats.norm's bits, or the solved
    # codebooks would move
    boards = [gauss_scalar_codebook(n)[0] for n in range(2, 65)]
    rng = np.random.default_rng(2024)
    for n in (2, 3, 7, 16, 64, 200, 256):
        for _ in range(5):
            boards.append(np.sort(rng.normal(scale=rng.uniform(0.5, 1.5), size=n)))
    for c in boards:
        assert np.array_equal(_centroids(c), _centroids_stats(c))
        assert _distortion(c) == _distortion_stats(c)
    for n in range(2, 65):
        q = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
        assert np.array_equal(ndtri(q), norm.ppf(q))


def test_centroids_exactly_antisymmetric():
    # upper-cell masses come from the mirrored cell, so a symmetric codebook
    # maps to exactly antisymmetric centroids (4.3e-11 off with 1 - ndtr)
    for n in range(1, quantize._MAX_LEVELS + 1):
        t = _centroids(gauss_scalar_codebook(n)[0])
        assert np.array_equal(t, -t[::-1]), n


# ---------------------------------------------------------------------------
# allocation


def _scan_allocation(spectrum, budget):
    """The greedy as a full rescan of every mode per increment: the
    reference the heap allocation must reproduce bit for bit."""
    lam = spectrum.lambdas
    levels = np.ones(lam.size, dtype=int)
    drops = {}
    used = 0.0
    while True:
        remaining = budget - used
        best_k, best_ratio = -1, -1.0
        for k in range(lam.size):
            n = levels[k]
            if n >= 256:
                continue
            cost = math.log(n + 1) - math.log(n)
            if cost > remaining + 1e-12:
                continue
            if n not in drops:
                drops[n] = gauss_scalar_codebook(n)[1] - gauss_scalar_codebook(n + 1)[1]
            ratio = lam[k] * drops[n] / cost
            if ratio > best_ratio:
                best_k, best_ratio = k, ratio
        if best_k < 0:
            break
        used += math.log(levels[best_k] + 1) - math.log(levels[best_k])
        levels[best_k] += 1
    return tuple(int(n) for n in levels), used


_LADDER = [0.4 * i for i in range(41)] + [10.3]


@pytest.mark.parametrize(
    "spectrum, budgets",
    [
        (brownian_spectrum(1500), _LADDER),
        (integrated_brownian_spectrum(1500), _LADDER),
        (EigenSpectrum([1.0] * 4), [0.0, 0.5, math.log(2.0), 1.5, math.log(24.0), 6.0]),
        (EigenSpectrum([1.0]), [7.0]),
        (EigenSpectrum([1.0, 1e-6]), [math.log(4.0)]),
    ],
    ids=["bm", "ibm", "ties", "level_cap", "exact_budget"],
)
def test_allocation_matches_full_scan(spectrum, budgets):
    for budget in budgets:
        qz = product_quantizer(spectrum, budget)
        levels, used = _scan_allocation(spectrum, budget)
        assert qz.levels == levels
        assert qz.rate == used
        assert all(
            np.array_equal(cb, gauss_scalar_codebook(n)[0])
            for cb, n in zip(qz.codebooks, levels)
        )


def test_allocation_dominant_mode():
    sp = EigenSpectrum([1.0, 1e-6])
    qz = product_quantizer(sp, math.log(4.0))
    assert qz.levels == (4, 1)
    assert qz.rate == pytest.approx(math.log(4.0), abs=1e-12)


def test_allocation_budget_validation():
    with pytest.raises(SpecError):
        product_quantizer(EigenSpectrum([1.0]), -0.5)


def test_allocation_zero_budget_is_trivial():
    sp = brownian_spectrum(32)
    qz = product_quantizer(sp, 0.0)
    assert qz.levels == (1,) * 32 and qz.rate == 0.0
    assert qz.implied_distortion_sq == pytest.approx(float(sp.lambdas.sum()), rel=1e-12)


def test_allocation_nonincreasing_and_exchange_stable():
    # decreasing eigenvalues get nonincreasing levels, and no budget-feasible
    # single up/down swap lowers the implied distortion
    budget = 8.0
    qz = product_quantizer(brownian_spectrum(256), budget)
    lv = qz.levels
    assert all(a >= b for a, b in zip(lv, lv[1:]))
    lam = qz.spectrum.lambdas
    slack = budget - qz.rate

    def e2(n):
        return gauss_scalar_codebook(n)[1]

    base = qz.implied_distortion_sq
    occupied = [k for k in range(len(lv)) if lv[k] > 1 or lam[k] > 1e-6]
    for k in occupied:
        up_cost = math.log(lv[k] + 1) - math.log(lv[k])
        up_gain = lam[k] * (e2(lv[k]) - e2(lv[k] + 1))
        # greedy terminated, so no single increment still fits
        assert up_cost > slack + 1e-12 or up_gain <= 0.0
        for j in occupied:
            if j == k or lv[j] <= 1:
                continue
            refund = math.log(lv[j]) - math.log(lv[j] - 1)
            if up_cost - refund > slack + 1e-12:
                continue
            swapped = base - up_gain + lam[j] * (e2(lv[j] - 1) - e2(lv[j]))
            assert swapped >= base - 1e-12


def test_separable_search_equals_product_search():
    # full product-codebook search (32 codewords) against the per-coordinate
    # route on the weighted distance sum lam_k (x_k - c_k)^2
    sp = EigenSpectrum([0.5, 0.25, 0.0625])
    qz = product_quantizer(sp, math.log(32.0))
    books = qz.codebooks
    combos = np.array(list(itertools.product(*[range(b.size) for b in books])))
    assert combos.shape[0] <= 4096
    codewords = np.stack([books[k][combos[:, k]] for k in range(3)], axis=1)
    rng = np.random.default_rng(99)
    x = rng.standard_normal((200, 3))
    lam = sp.lambdas
    dist = ((x[:, None, :] - codewords[None, :, :]) ** 2 @ lam)
    full = codewords[np.argmin(dist, axis=1)]
    per_coord = np.stack(
        [
            books[k][np.searchsorted(0.5 * (books[k][:-1] + books[k][1:]), x[:, k])]
            for k in range(3)
        ],
        axis=1,
    )
    assert np.array_equal(full, per_coord)


# ---------------------------------------------------------------------------
# distortion estimation


def test_quant_error_trivial_codebook_recovers_trace():
    # no active coordinate: nothing is drawn, and the trace is exact
    sp = brownian_spectrum(1500)
    qz = product_quantizer(sp, 0.0)
    d_hat, se = quant_error(BrownianMotion(), qz, 20000, seed=21)
    assert d_hat == math.sqrt(float(sp.lambdas.sum()))
    assert se == 0.0


def test_quant_error_takes_inactive_tail_at_its_mean():
    # the same head under two inactive tails: the drawn part is the same, so
    # D_hat^2 moves by exactly the tail difference and D_hat * stderr (the
    # drawn part's spread) keeps its value
    head = brownian_spectrum(8).lambdas.tolist()
    sp_a = EigenSpectrum(head + [1e-4] * 400)
    sp_b = EigenSpectrum(head + [2e-4] * 100 + [5e-5] * 50)
    qz_a, qz_b = product_quantizer(sp_a, 6.0), product_quantizer(sp_b, 6.0)
    assert qz_a.levels[:8] == qz_b.levels[:8] and qz_a.levels[1] > 1
    assert set(qz_a.levels[8:]) == set(qz_b.levels[8:]) == {1}
    d_a, se_a = quant_error(BrownianMotion(), qz_a, 20000, seed=17)
    d_b, se_b = quant_error(BrownianMotion(), qz_b, 20000, seed=17)
    tail_a, tail_b = float(sp_a.lambdas[8:].sum()), float(sp_b.lambdas[8:].sum())
    assert abs((d_a**2 - d_b**2) - (tail_a - tail_b)) <= 1e-14 * d_a**2
    assert d_a * se_a == pytest.approx(d_b * se_b, rel=1e-14)


@pytest.mark.parametrize("budget", [2.0, 8.0])
def test_quant_error_calibrated_against_implied_distortion(budget):
    # z of D_hat against the exact root of sum lambda_k e(n_k)^2 over 40
    # seeds: mean near 0 and spread near 1 (the stderr is honest)
    qz = product_quantizer(brownian_spectrum(1500), budget)
    exact = math.sqrt(qz.implied_distortion_sq)
    z = []
    for seed in range(1, 41):
        d_hat, se = quant_error(BrownianMotion(), qz, 20000, seed=seed)
        z.append((d_hat - exact) / se)
    assert abs(np.mean(z)) <= 0.5
    assert 0.7 <= np.std(z, ddof=1) <= 1.3


def test_quant_error_validation():
    qz = product_quantizer(EigenSpectrum([1.0]), 0.0)
    with pytest.raises(SpecError):
        quant_error(BrownianMotion(), qz, 1)


def test_quant_error_deterministic(monkeypatch):
    sp = brownian_spectrum(64)
    qz = product_quantizer(sp, 4.0)
    a = quant_error(BrownianMotion(), qz, 4000, seed=5)
    monkeypatch.setenv("SMALLBALL_THREADS", "3")
    b = quant_error(BrownianMotion(), qz, 4000, seed=5)
    assert a == b


def _mids_and_active(quantizer):
    mids = [
        0.5 * (cb[:-1] + cb[1:]) if cb.size > 1 else None
        for cb in quantizer.codebooks
    ]
    active = [k for k in range(len(mids)) if quantizer.levels[k] > 1]
    return mids, active


def _chunk_d2_matrix(rng, k_rows, quantizer, mids, active):
    """A chunk's active coordinates drawn as one len(active) x k_rows matrix
    from the same stream: the reference the per-coordinate draws must
    reproduce bit for bit."""
    lam = quantizer.spectrum.lambdas
    xi = rng.standard_normal((len(active), k_rows))
    d2 = np.zeros(k_rows)
    for j, k in enumerate(active):
        q = quantizer.codebooks[k][np.searchsorted(mids[k], xi[j])]
        d2 += lam[k] * (xi[j] - q) ** 2
    return d2


def _quant_error_matrix(quantizer, n_mc, seed):
    mids, active = _mids_and_active(quantizer)
    lam = quantizer.spectrum.lambdas
    fixed = float(lam[np.asarray(quantizer.levels) == 1].sum())
    rows = _rng.chunk_rows(len(mids), n_mc)
    n_chunks = -(-n_mc // rows)

    def work(c):
        rng = _rng.stream(seed, _rng.DOMAIN_QUANT, c)
        k_rows = min(rows, n_mc - c * rows)
        d2 = _chunk_d2_matrix(rng, k_rows, quantizer, mids, active)
        return float(d2.sum()), float((d2 * d2).sum())

    s1 = s2 = 0.0
    for a, b in _rng.map_chunks(work, n_chunks):
        s1 += a
        s2 += b
    mean = s1 / n_mc
    var = max(s2 / n_mc - mean * mean, 0.0) / (n_mc - 1)
    d_hat = math.sqrt(fixed + mean)
    se = math.sqrt(var) / (2.0 * d_hat) if d_hat > 0 else 0.0
    return d_hat, se


@pytest.mark.parametrize(
    "spectrum, row_counts",
    [
        (brownian_spectrum(1500), (1, 2, 3, 15, 16, 17, 159, 160, 161, 162, 163, 305, 3616, 8192)),
        (integrated_brownian_spectrum(700), (2, 17, 367, 368, 369, 370, 3616, 8192)),
    ],
    ids=["bm1500", "ibm700"],
)
def test_chunk_d2_matches_one_matrix_draw_bitwise(spectrum, row_counts):
    # row by row, which the summed outputs can hide; 3616 and 8192 rows are
    # the chunks of n_mc = 20000
    qz = product_quantizer(spectrum, 10.3)
    mids, active = _mids_and_active(qz)
    for k_rows in row_counts:
        got = quantize._chunk_d2(np.random.default_rng(k_rows), k_rows, qz, mids, active)
        ref = _chunk_d2_matrix(np.random.default_rng(k_rows), k_rows, qz, mids, active)
        assert np.array_equal(got, ref), k_rows


@pytest.mark.parametrize(
    "spectrum, budget, n_mc",
    [
        # 20000 rows of 1500 modes: chunks of 8192, 8192 and 3616 rows
        (brownian_spectrum(1500), 0.0, 20000),
        (brownian_spectrum(1500), 1.0, 20000),
        (brownian_spectrum(1500), 16.0, 20000),
        (integrated_brownian_spectrum(1500), 10.3, 20000),
        (brownian_spectrum(1500), 5.5, 2),
        (brownian_spectrum(1500), 5.5, 37),
        (brownian_spectrum(1500), 5.5, 161),
        (integrated_brownian_spectrum(700), 10.3, 4000),
        (EigenSpectrum([1.0]), 3.0, 4000),
        (EigenSpectrum([1.0] * 4), math.log(24.0), 4000),
    ],
    ids=[
        "bm0", "bm1", "bm16", "ibm10.3", "n2", "n37", "n161", "ibm700",
        "one_mode", "all_active",
    ],
)
def test_quant_error_matches_matrix_draw_bitwise(spectrum, budget, n_mc):
    qz = product_quantizer(spectrum, budget)
    assert quant_error(BrownianMotion(), qz, n_mc, seed=7) == _quant_error_matrix(
        qz, n_mc, 7
    )


def test_quant_error_deterministic_over_workers(monkeypatch):
    # three chunks, so map_chunks reaches the pool
    qz = product_quantizer(brownian_spectrum(1500), 16.0)
    assert -(-20000 // _rng.chunk_rows(1500, 20000)) >= 3
    results = []
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("SMALLBALL_THREADS", workers)
        results.append(quant_error(BrownianMotion(), qz, 20000, seed=13))
    assert results[0] == results[1] == results[2]


def test_quant_error_memory_is_bounded(monkeypatch):
    # drawing whole chunks held two 8192 x 1500 float64 matrices (~188 MiB);
    # a chunk now holds a few vectors of its rows
    monkeypatch.setenv("SMALLBALL_THREADS", "1")
    qz = product_quantizer(brownian_spectrum(1500), 16.0)
    tracemalloc.start()
    try:
        quant_error(BrownianMotion(), qz, 20000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_quant_curve_decreasing_distortion():
    sp = brownian_spectrum(200)
    curve = quant_curve(BrownianMotion(), sp, [1.0, 2.0, 4.0], 4000, seed=11)
    rs = [e[0] for e in curve.entries]
    ds = [e[1] for e in curve.entries]
    assert rs == [1.0, 2.0, 4.0]
    assert ds[0] > ds[1] > ds[2]


def test_quant_curve_rejects_flat_budgets():
    with pytest.raises(SpecError):
        QuantCurve(((2.0, 1.0, 0.0), (2.0, 0.9, 0.0)))


def test_quant_curve_rejects_duplicate_budgets_before_drawing(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("duplicate budgets reached the distortion draws")

    monkeypatch.setattr(quantize, "quant_error", fail)
    monkeypatch.setattr(quantize, "product_quantizer", fail)
    with pytest.raises(SpecError, match="strictly increasing"):
        quant_curve(BrownianMotion(), brownian_spectrum(200), [2.0, 1.0, 2.0], 4000)
