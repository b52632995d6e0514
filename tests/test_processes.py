import logging
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg.blas import dtrmm

import smallball
from smallball import (
    BrownianMotion,
    FbmRlDifference,
    FracIntegrated,
    FractionalBm,
    GaussianConvolution,
    Grid,
    Integrated,
    RiemannLiouville,
    StableScaledFbm,
    build_cov,
    covariance,
    effective_hurst,
    fbm_volterra_variance,
    sample_paths,
    sample_positive_stable,
)
from smallball import _rng, processes
from smallball.errors import SpecError
from smallball.fraccalc import operator_matrix
from smallball.processes import (
    MAX_CHOLESKY_N,
    _cholesky_factor,
    _cov_pairs,
    derivative,
    map_paths,
)


def test_grid_layout():
    g = Grid(8)
    assert np.allclose(g.points, np.arange(1, 9) / 8.0)
    assert g.h == 0.125


def test_brownian_covariance():
    s = np.array([0.2, 0.7, 0.5])
    t = np.array([0.4, 0.3, 0.5])
    assert np.allclose(covariance(BrownianMotion(), s, t), np.minimum(s, t))


def test_fbm_covariance_formula():
    h = 0.7
    s, t = 0.3, 0.8
    ref = 0.5 * (t ** (2 * h) + s ** (2 * h) - abs(t - s) ** (2 * h))
    assert covariance(FractionalBm(h), s, t) == pytest.approx(ref, rel=1e-14)


def test_riemann_liouville_half_is_brownian():
    s = np.linspace(0.05, 1.0, 7)
    t = s[::-1].copy()
    a = covariance(RiemannLiouville(0.5), s, t)
    assert np.allclose(a, np.minimum(s, t), rtol=1e-12)


@pytest.mark.parametrize("h", [0.3, 0.7, 1.2])
def test_riemann_liouville_against_quadrature(h):
    a = h - 0.5
    for s, t in [(0.3, 0.8), (0.55, 0.55), (0.9, 0.2)]:
        lo, hi = min(s, t), max(s, t)
        ref = quad(
            lambda u: ((hi - u) * (lo - u)) ** a,
            0.0,
            lo,
            points=[lo],
            limit=200,
        )[0]
        assert covariance(RiemannLiouville(h), s, t) == pytest.approx(ref, rel=1e-9)


def test_integrated_brownian_closed_form():
    for s, t in [(0.25, 0.75), (0.6, 0.6), (1.0, 0.4)]:
        lo, hi = min(s, t), max(s, t)
        ref = lo * lo * (3.0 * hi - lo) / 6.0
        got = covariance(Integrated(BrownianMotion(), 1), s, t)
        assert got == pytest.approx(ref, rel=1e-9)


def test_integrated_fbm_closed_form():
    h = 0.7

    def phi(x):
        return x ** (2 * h + 2) / ((2 * h + 1) * (2 * h + 2))

    spec = Integrated(FractionalBm(h), 1)
    for s, t in [(0.3, 0.9), (0.5, 0.5), (0.8, 0.2)]:
        ref = 0.5 * (
            t * s ** (2 * h + 1) / (2 * h + 1)
            + s * t ** (2 * h + 1) / (2 * h + 1)
            - phi(s)
            - phi(t)
            + phi(abs(t - s))
        )
        assert covariance(spec, s, t) == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("n", [17, 129])
def test_nested_integrated_cov_equals_flat(n):
    nested = build_cov(Integrated(Integrated(RiemannLiouville(0.3), 1), 1), Grid(n))
    flat = build_cov(Integrated(RiemannLiouville(0.3), 2), Grid(n))
    assert np.max(np.abs(nested - flat) / np.abs(flat)) <= 1e-13


def test_twice_integrated_brownian_cov_is_second_order():
    # int_0^s (s-r)^2 (t-r)^2 / 4 dr for s <= t, with d = t - s; the
    # trapezoid rule from the origin is second order, where the
    # constant-first-cell rule of operator_matrix(2, n) reads 2.4e-3 at n = 64
    errs = []
    for n in (64, 128, 256, 512):
        t = Grid(n).points
        s, d = np.minimum.outer(t, t), np.abs(np.subtract.outer(t, t))
        exact = (s**5 / 5.0 + d * s**4 / 2.0 + d * d * s**3 / 3.0) / 4.0
        got = build_cov(Integrated(BrownianMotion(), 2), Grid(n))
        errs.append(np.max(np.abs(got - exact)) / np.max(exact))
    assert errs[0] < 5e-5
    assert all(a / b >= 3.5 for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize(
    "spec, h, a",
    [
        (FracIntegrated(BrownianMotion(), 0.5), 0.5, 0.5),
        (FracIntegrated(BrownianMotion(), 1.5), 0.5, 1.5),
        (Integrated(RiemannLiouville(0.3), 1), 0.3, 1.0),
        (Integrated(RiemannLiouville(0.3), 2), 0.3, 2.0),
        (FracIntegrated(RiemannLiouville(0.3), 1.7), 0.3, 1.7),
    ],
)
def test_integration_sandwich_converges_to_riemann_liouville(spec, h, a):
    # the order-a integral of RL(h) is Gamma(h+1/2)/Gamma(h+a+1/2) RL(h+a),
    # and BM = RL(1/2), so the sandwich has an exact Volterra oracle
    scale = (math.gamma(h + 0.5) / math.gamma(h + a + 0.5)) ** 2
    errs = []
    for n in (64, 128, 256):
        exact = scale * build_cov(RiemannLiouville(h + a), Grid(n))
        got = build_cov(spec, Grid(n))
        errs.append(np.max(np.abs(got - exact)) / np.max(np.abs(exact)))
    assert errs[0] < 5e-3
    assert all(e0 / e1 >= 2.3 for e0, e1 in zip(errs, errs[1:]))


def test_gaussian_convolution_closed_form():
    # H = 1/2 and a single linear coefficient integrate to a cubic
    spec = GaussianConvolution(0.5, (1.0,))
    for s, t in [(0.3, 0.7), (0.5, 0.5), (0.95, 0.1)]:
        lo, d = min(s, t), abs(t - s)
        ref = ((1.0 + lo) ** 3 - 1.0) / 3.0 + d * ((1.0 + lo) ** 2 - 1.0) / 2.0
        assert covariance(spec, s, t) == pytest.approx(ref, rel=1e-12)


def test_gaussian_convolution_against_quadrature():
    h = 0.7
    coeffs = (0.5, -0.25)

    def k(t, u):
        x = t - u
        return x ** (h - 0.5) * (1.0 + 0.5 * x - 0.25 * x * x)

    spec = GaussianConvolution(h, coeffs)
    for s, t in [(0.4, 0.9), (0.6, 0.6)]:
        lo = min(s, t)
        ref = quad(lambda u: k(s, u) * k(t, u), 0.0, lo, points=[lo], limit=200)[0]
        assert covariance(spec, s, t) == pytest.approx(ref, rel=1e-8)


def test_volterra_variance_constant():
    h = 0.7
    ref = (
        math.gamma(h + 0.5)
        * math.gamma(2.0 - 2.0 * h)
        / (2.0 * h * math.gamma(1.5 - h))
    )
    assert fbm_volterra_variance(h) == pytest.approx(ref, rel=1e-14)
    assert fbm_volterra_variance(h) == pytest.approx(0.838892971872, abs=1e-10)


def test_difference_process_is_psd_and_smooth():
    g = Grid(128)
    c = build_cov(FbmRlDifference(0.7), g)
    assert np.allclose(c, c.T, atol=1e-14)
    w = np.linalg.eigvalsh(c)
    assert w[0] > -1e-10 * w[-1]
    # eigenvalues collapse fast: the difference process is far smoother
    # than either ingredient
    lam = np.sort(w)[::-1]
    assert lam[9] / lam[0] < 1e-8


def test_effective_hurst():
    assert effective_hurst(BrownianMotion()) == 0.5
    assert effective_hurst(FractionalBm(0.3)) == 0.3
    assert effective_hurst(Integrated(FractionalBm(0.3), 2)) == 1.0
    assert effective_hurst(FracIntegrated(FractionalBm(0.3), 0.1)) == pytest.approx(0.4)
    assert effective_hurst(FracIntegrated(BrownianMotion(), 0.7)) == 1.0


BM = BrownianMotion()


@pytest.mark.parametrize(
    "spec, order, expected",
    [
        (Integrated(BM, 1), 1.0, BM),
        (Integrated(BM, 3), 1, Integrated(BM, 2)),
        (Integrated(BM, 3), 2.0, Integrated(BM, 1)),
        (Integrated(FractionalBm(0.7), 2), 2, FractionalBm(0.7)),
        (FracIntegrated(BM, 1.5), 1.0, FracIntegrated(BM, 0.5)),
        (FracIntegrated(BM, 1.5), 0.5, FracIntegrated(BM, 1.0)),
        (FracIntegrated(RiemannLiouville(0.3), 1.0), 1.0, RiemannLiouville(0.3)),
        (FracIntegrated(BM, 2.5), 2.5, BM),
    ],
    ids=repr,
)
def test_derivative_by_structure(spec, order, expected):
    assert derivative(spec, order) == expected


@pytest.mark.parametrize(
    "spec, order",
    [
        (BM, 1.0),  # rough
        (FractionalBm(0.7), 1.0),
        (RiemannLiouville(1.2), 1.0),
        (FbmRlDifference(0.7), 1.0),
        (Integrated(BM, 1), 2),  # order too high
        (FracIntegrated(BM, 0.5), 1.0),
        (Integrated(BM, 2), 1.5),  # non-integer order on Integrated
        (Integrated(BM, 2), 0),
        (FracIntegrated(BM, 1.5), 0.0),
        (FracIntegrated(BM, 1.5), math.nan),
    ],
    ids=repr,
)
def test_derivative_rejects(spec, order):
    with pytest.raises(SpecError):
        derivative(spec, order)


def test_stable_spec_has_no_covariance():
    with pytest.raises(SpecError):
        covariance(StableScaledFbm(0.5, 1.0), 0.3, 0.5)


@pytest.mark.parametrize(
    "spec",
    [
        BrownianMotion(),
        FractionalBm(0.3),
        FractionalBm(0.7),
        RiemannLiouville(0.8),
        Integrated(BrownianMotion(), 1),
        FracIntegrated(FractionalBm(0.7), 0.5),
        FbmRlDifference(0.7),
        GaussianConvolution(0.6, (1.0,)),
    ],
)
def test_sampling_smoke(spec):
    paths = sample_paths(spec, Grid(64), 16, seed=5)
    assert paths.shape == (16, 64)
    assert np.all(np.isfinite(paths))


def _positive_stable_reference(a, count, seed):
    """sample_positive_stable's own chunk loop before ``_rng.map_rows``: the
    reference its stream must reproduce bit for bit."""
    out = np.empty(count)
    rows = _rng.chunk_rows(4, count)
    n_chunks = -(-count // rows)

    def one(c):
        rng = _rng.stream(seed, _rng.DOMAIN_STABLE, c)
        k = min(rows, count - c * rows)
        u = np.clip(rng.uniform(0.0, 1.0, size=k), 2e-16, 1.0 - 2e-16)
        e = rng.standard_exponential(size=k)
        th = math.pi * u
        s = (
            np.sin(a * th)
            * np.sin((1.0 - a) * th) ** ((1.0 - a) / a)
            / (np.sin(th) ** (1.0 / a) * e ** ((1.0 - a) / a))
        )
        return c, s

    for c, s in _rng.map_chunks(one, n_chunks):
        out[c * rows : c * rows + s.size] = s
    return out


def _gaussian_chunk_reference(spec, grid, rows, rng):
    """The whole-chunk path sampler before row blocks, frozen here: the
    reference the block stream must reproduce bit for bit.  Its Cholesky
    product is the triangular one that replaced ``z @ fac.T``."""
    n = grid.n
    if isinstance(spec, BrownianMotion) or (
        isinstance(spec, FractionalBm) and spec.h == 0.5
    ):
        z = rng.standard_normal((rows, n))
        np.cumsum(z, axis=1, out=z)
        z *= n**-0.5
        return z
    if isinstance(spec, FractionalBm):
        k = np.arange(n + 1, dtype=float)
        e = 2.0 * spec.h
        g = 0.5 * ((k + 1.0) ** e - 2.0 * k**e + np.abs(k - 1.0) ** e)
        c = np.concatenate([g[:n], g[n : n + 1], g[n - 1 : 0 : -1]])
        eig = np.maximum(np.fft.fft(c).real, 0.0)
        m = eig.size
        z = rng.standard_normal((rows, 2, m))
        wz = z[:, 0] + 1j * z[:, 1]
        x = np.fft.ifft(np.sqrt(eig) * wz, axis=1).real * math.sqrt(m)
        fgn = x[:, :n] * grid.h**spec.h
        return np.cumsum(fgn, axis=1)
    fac = _cholesky_factor(spec, grid)
    z = rng.standard_normal((rows, n))
    return dtrmm(1.0, fac.T, z.T, side=0, lower=0, trans_a=1, overwrite_b=1).T


def _sample_paths_reference(spec, grid, count, seed):
    """sample_paths's own chunk loop before ``_rng.map_rows`` and row blocks,
    stable branch included: the reference its streams must reproduce bit for
    bit."""
    if isinstance(spec, StableScaledFbm):
        amps = np.sqrt(_positive_stable_reference(spec.alpha / 2.0, count, seed))
        base = _sample_paths_reference(FractionalBm(spec.h), grid, count, seed)
        return amps[:, None] * base
    values = np.empty((count, grid.n))
    rows = _rng.chunk_rows(grid.n, count)
    for c in range(-(-count // rows)):
        rng = _rng.stream(seed, _rng.DOMAIN_PATHS, c)
        k = min(rows, count - c * rows)
        values[c * rows : c * rows + k] = _gaussian_chunk_reference(spec, grid, k, rng)
    return values


# one spec per sampler route; 20000 rows on these grids make 3 chunks, and
# each chunk of 8192 rows spans several row blocks
ROUTES = {
    "cumsum": (BrownianMotion(), Grid(128)),
    "circulant": (FractionalBm(0.7), Grid(128)),
    "cholesky": (RiemannLiouville(0.3), Grid(256)),
    "stable": (StableScaledFbm(0.6, 1.2), Grid(128)),
}


def one_row_tail_count(spec, grid):
    """A one-chunk count whose last row block would hold a single row."""
    if isinstance(spec, StableScaledFbm):
        spec = FractionalBm(spec.h)
    count = processes._block_rows(spec, grid.n) + 1
    assert count < _rng.chunk_rows(grid.n, 20000)
    return count


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("count", [1, 2, 17, 300, 8193, 20000, "tail"])
def test_sample_paths_matches_chunk_loop_bitwise(route, count, monkeypatch):
    spec, g = ROUTES[route]
    if count == "tail":
        count = one_row_tail_count(spec, g)
    ref = _sample_paths_reference(spec, g, count, 42)
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("SMALLBALL_THREADS", workers)
        assert np.array_equal(sample_paths(spec, g, count, seed=42), ref)


@pytest.mark.parametrize(
    "spec, grid, count",
    [
        (BrownianMotion(), Grid(8), 0),
        (StableScaledFbm(0.5, 1.0), Grid(8), -1),
        ("not a spec", Grid(8), 5),
        (RiemannLiouville(0.3), Grid(MAX_CHOLESKY_N + 1), 5),
    ],
    ids=["count-0", "count-negative", "not-gaussian", "cholesky-too-large"],
)
def test_map_paths_fails_before_drawing(spec, grid, count, monkeypatch):
    def no_draw(*args):
        raise AssertionError("a draw ran before the checks")

    monkeypatch.setattr(_rng, "map_rows", no_draw)
    with pytest.raises(SpecError):
        map_paths(spec, grid, count, 1, no_draw, stable=no_draw)
    with pytest.raises(SpecError):
        sample_paths(spec, grid, count)


def test_sampling_deterministic_and_thread_invariant(monkeypatch):
    for spec, g in ROUTES.values():
        assert -(-20000 // _rng.chunk_rows(g.n, 20000)) == 3
        a = sample_paths(spec, g, 20000, seed=42)
        assert np.array_equal(a, sample_paths(spec, g, 20000, seed=42))
        for workers in ("2", "3"):
            monkeypatch.setenv("SMALLBALL_THREADS", workers)
            assert np.array_equal(a, sample_paths(spec, g, 20000, seed=42))
        monkeypatch.delenv("SMALLBALL_THREADS")


@pytest.mark.parametrize("elems", [1, 2**13])
def test_block_size_does_not_move_a_bit(elems, monkeypatch):
    # one-row blocks, and a mid size that cuts every route and the
    # quadratures elsewhere than the defaults do; the constants stay far
    # below a whole chunk's quadrature in one block.  build_cov of
    # FracIntegrated is a sandwich, so its pointwise covariance covers the
    # double quadrature
    frac = FracIntegrated(BrownianMotion(), 0.5)
    t = Grid(16).points

    def outputs():
        return (
            *(sample_paths(spec, g, 300, seed=42) for spec, g in ROUTES.values()),
            build_cov(RiemannLiouville(0.3), Grid(64)),
            build_cov(frac, Grid(64)),
            covariance(frac, t[None, :], t[:, None]),
        )

    want = outputs()
    monkeypatch.setattr(processes, "BLOCK_ELEMS", elems)
    monkeypatch.setattr(processes, "CHOLESKY_BLOCK_ELEMS", elems)
    got = outputs()
    assert all(np.array_equal(a, b) for a, b in zip(want, got))


@pytest.mark.parametrize("rows", [1, 2, 17, 2048])
@pytest.mark.parametrize(
    "spec, grid",
    [(RiemannLiouville(0.3), Grid(256)), (Integrated(BrownianMotion(), 1), Grid(512))],
    ids=["rl03", "ibm"],
)
def test_triangular_product_matches_dense_product(spec, grid, rows):
    fac = _cholesky_factor(spec, grid)
    got = processes._gaussian_chunk(spec, grid, rows, np.random.default_rng(rows))
    z = np.random.default_rng(rows).standard_normal((rows, grid.n))
    assert got.shape == (rows, grid.n)
    assert np.abs(got - z @ fac.T).max() <= 1e-13


_SAMPLE_SHA = """
import hashlib, smallball as sb
h = hashlib.sha256()
for spec, n, count in [(sb.RiemannLiouville(0.3), 256, 20000),
                       (sb.Integrated(sb.RiemannLiouville(0.3), 2), 512, 100)]:
    h.update(sb.sample_paths(spec, sb.Grid(n), count, seed=5).tobytes())
h.update(sb.nystrom_eigen(sb.RiemannLiouville(0.3), sb.Grid(512), 64).lambdas.tobytes())
for m, n in [(1, 384), (2, 512)]:
    h.update(sb.build_cov(sb.Integrated(sb.RiemannLiouville(0.3), m), sb.Grid(n)).tobytes())
print(h.hexdigest())
"""


def test_cholesky_paths_do_not_depend_on_blas_threads():
    # potrf's bits change with the thread count from n = 128 on, and so do
    # those of the sandwich that integrates RL(0.3)'s covariance matrix into
    # Integrated(RL(0.3), m)'s, inside a factor or called directly, and
    # those of eigvalsh behind nystrom_eigen; each interpreter solves its
    # factors cold
    src = os.path.dirname(os.path.dirname(os.path.abspath(smallball.__file__)))
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    digests = []
    for blas in ("1", None):
        run_env = dict(env, OPENBLAS_NUM_THREADS=blas) if blas else env
        out = subprocess.run(
            [sys.executable, "-c", _SAMPLE_SHA], env=run_env, capture_output=True,
            text=True, check=True,
        )
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_circulant_fgn_is_distributionally_right():
    h, n, count = 0.7, 64, 40000
    vals = sample_paths(FractionalBm(h), Grid(n), count, seed=9)
    inc = np.diff(vals, axis=1, prepend=0.0)
    step_var = inc.var(axis=0).mean()
    assert step_var == pytest.approx((1.0 / n) ** (2 * h), rel=0.03)
    rho = np.mean(inc[:, :-1] * inc[:, 1:]) / inc.var()
    assert rho == pytest.approx((2.0 ** (2 * h) - 2.0) / 2.0, abs=0.01)
    # terminal marginal matches t^{2H} at t = 1
    assert vals[:, -1].var() == pytest.approx(1.0, rel=0.03)


def test_cholesky_marginal_variance():
    spec = RiemannLiouville(0.3)
    vals = sample_paths(spec, Grid(64), 20000, seed=17)
    v_hat = vals[:, -1].var()
    v = covariance(spec, 1.0, 1.0)
    assert v_hat == pytest.approx(float(v), rel=0.05)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_stable_sampler_laplace_transform(alpha):
    s = sample_positive_stable(alpha, 200000, seed=23)
    assert np.all(s > 0)
    vals = np.exp(-s)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - math.exp(-1.0)) <= 4.0 * se


def test_stable_sampler_matches_chunk_loop_over_workers(monkeypatch):
    # 200000 draws of 4 columns make 25 chunks, so the pool is compared
    ref = _positive_stable_reference(0.5, 200000, 5)
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("SMALLBALL_THREADS", workers)
        assert np.array_equal(sample_positive_stable(0.5, 200000, seed=5), ref)


def test_stable_half_median():
    # Levy(1/2): median = 1 / (2 erfcinv(1/2)^2)
    s = sample_positive_stable(0.5, 200000, seed=31)
    assert np.median(s) == pytest.approx(1.0990546692, abs=0.02)


def test_stable_scaled_paths_sample():
    paths = sample_paths(StableScaledFbm(0.5, 1.0), Grid(64), 500, seed=3)
    assert paths.shape == (500, 64)
    assert np.all(np.isfinite(paths))


@pytest.mark.parametrize("h", [0.3, 0.7])
def test_riemann_liouville_is_unmodulated_convolution(h):
    from smallball.processes import _cov_pairs

    rng = np.random.default_rng(2)
    s = np.concatenate([rng.uniform(0.0, 1.0, 200), [0.25, 1.0]])
    t = np.concatenate([rng.uniform(0.0, 1.0, 200), [0.25, 1.0]])
    rl = _cov_pairs(RiemannLiouville(h), s, t)
    gc = _cov_pairs(GaussianConvolution(h, ()), s, t)
    assert rl.tobytes() == gc.tobytes()


@dataclass(frozen=True)
class _RankOne:
    """A degenerate process X_t = xi for all t, so no cached factor is shared."""


def test_cholesky_jitter_is_logged_once(monkeypatch, caplog):
    # the all-ones covariance is PSD of rank one: the plain factorisation
    # fails and the ladder's first rung, 1e-12 times the mean variance, works
    monkeypatch.setattr(processes, "build_cov", lambda spec, grid: np.ones((grid.n, grid.n)))
    with caplog.at_level(logging.WARNING, logger="smallball"):
        fac = _cholesky_factor(_RankOne(), Grid(8))
        again = _cholesky_factor(_RankOne(), Grid(8))
    assert again is fac
    assert np.allclose(fac @ fac.T, np.ones((8, 8)) + 1e-12 * np.eye(8), rtol=0, atol=1e-15)
    records = [r for r in caplog.records if r.name == "smallball.processes"]
    assert len(records) == 1
    assert records[0].levelno == logging.WARNING
    assert records[0].getMessage() == (
        "covariance of _RankOne() on 8 points factored with jitter 1e-12"
    )
    handlers = logging.getLogger("smallball").handlers
    assert any(isinstance(h, logging.NullHandler) for h in handlers)


def test_cholesky_without_jitter_is_silent(caplog):
    with caplog.at_level(logging.WARNING, logger="smallball"):
        _cholesky_factor(RiemannLiouville(0.7), Grid(23))
    assert not [r for r in caplog.records if r.name.startswith("smallball")]


@dataclass(frozen=True)
class _Indefinite:
    """A process whose covariance no jitter rung makes positive definite."""


def test_factor_pins_blas_threads_and_restores_them(monkeypatch):
    calls, threads = [], [4]

    def set_threads(k):
        calls.append(k)
        threads[0] = k

    monkeypatch.setattr(processes, "_OPENBLAS_THREADS", (lambda: threads[0], set_threads))
    monkeypatch.setattr(processes, "build_cov", lambda spec, grid: -np.eye(grid.n))
    with pytest.raises(processes.NumericsError):
        _cholesky_factor(_Indefinite(), Grid(8))
    assert calls == [1, 4]
    # without numpy's OpenBLAS symbols the factor is solved unpinned
    monkeypatch.setattr(processes, "_OPENBLAS_THREADS", None)
    monkeypatch.setattr(processes, "build_cov", lambda spec, grid: np.eye(grid.n))
    assert np.array_equal(_cholesky_factor(_Indefinite(), Grid(8)), np.eye(8))
    assert calls == [1, 4]


def test_blas_pin_is_reentrant(monkeypatch):
    calls, threads, done = [], [4], []

    def set_threads(k):
        calls.append(k)
        threads[0] = k

    monkeypatch.setattr(processes, "_OPENBLAS_THREADS", (lambda: threads[0], set_threads))
    # a fresh lock of the module's kind, so that a pin that deadlocks leaves
    # only this one held
    rlock = type(threading.RLock())
    fresh = rlock() if isinstance(processes._OPENBLAS_LOCK, rlock) else threading.Lock()
    monkeypatch.setattr(processes, "_OPENBLAS_LOCK", fresh)

    def nested():
        with processes._one_blas_thread():
            with processes._one_blas_thread():
                done.append(list(calls))
            done.append(list(calls))
            done.append(build_cov(FracIntegrated(BrownianMotion(), 0.5), Grid(8)))

    # a plain Lock deadlocks on the inner pin, so run it where a timeout
    # fails the test instead of hanging the suite
    worker = threading.Thread(target=nested, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "a nested BLAS pin deadlocked"
    assert done[:2] == [[1, 1], [1, 1, 1]]
    assert done[2].shape == (8, 8)
    assert threads == [4]


def _full_square_cov(spec, grid):
    """Frozen copy of build_cov's full-square assembly: every pair of the
    n x n grid, or the sandwich of the base's own matrix, then the average
    with the transpose."""
    if isinstance(spec, FracIntegrated) or (
        isinstance(spec, Integrated)
        and not (spec.m == 1 and isinstance(spec.base, (BrownianMotion, FractionalBm)))
    ):
        n = grid.n
        if isinstance(spec, FracIntegrated):
            w = operator_matrix(spec.order, n)
        else:
            t = np.zeros((n, n))
            for i in range(n):
                t[i, :i] = 1.0
                t[i, i] = 0.5
            w = np.linalg.matrix_power(t / n, spec.m)
        k = w @ _full_square_cov(spec.base, grid) @ w.T
        return 0.5 * (k + k.T)
    t = grid.points
    k = covariance(spec, t[None, :], t[:, None])
    return 0.5 * (k + k.T)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


# the specs whose build_cov evaluates each pair once on the upper triangle
TRIANGLE_SPECS = [
    BrownianMotion(),
    FractionalBm(0.3),
    FractionalBm(0.7),
    RiemannLiouville(0.3),
    RiemannLiouville(0.5),
    RiemannLiouville(1.7),
    FbmRlDifference(0.3),
    FbmRlDifference(0.7),
    GaussianConvolution(0.3, (1.0,)),
    GaussianConvolution(0.7, (0.5, -2.0)),
    Integrated(BrownianMotion(), 1),
    Integrated(FractionalBm(0.3), 1),
]


PIN_CASES = [
    (spec, n)
    for spec in TRIANGLE_SPECS
    + [
        Integrated(RiemannLiouville(0.3), 1),
        Integrated(BrownianMotion(), 2),
        FracIntegrated(BrownianMotion(), 0.5),
        FracIntegrated(RiemannLiouville(0.3), 1.7),
        # a sandwich of a sandwich
        Integrated(Integrated(RiemannLiouville(0.3), 1), 1),
    ]
    for n in (1, 2, 3, 17, 64, 129, 384)
]


@pytest.mark.parametrize("spec, n", PIN_CASES, ids=repr)
def test_build_cov_matches_full_square_bitwise(spec, n):
    # build_cov runs its sandwiches' products at one BLAS thread; so does
    # the reference here, under a pin that encloses build_cov's own
    with processes._one_blas_thread():
        got = build_cov(spec, Grid(n))
        want = _full_square_cov(spec, Grid(n))
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("spec", TRIANGLE_SPECS, ids=repr)
def test_triangle_pair_functions_are_bitwise_symmetric(spec):
    rng = np.random.default_rng(5)
    t = Grid(129).points
    s = np.concatenate([rng.uniform(0.0, 1.0, 500), t, t, [0.0, 0.0, 1.0]])
    u = np.concatenate([rng.uniform(0.0, 1.0, 500), t[::-1], t, [0.0, 1.0, 1.0]])
    assert np.array_equal(_bits(_cov_pairs(spec, s, u)), _bits(_cov_pairs(spec, u, s)))


@pytest.mark.parametrize(
    "spec, n, limit_mib",
    [(GaussianConvolution(0.3, (1.0,)), 384, 24), (RiemannLiouville(0.3), 1024, 64)],
    ids=["gc03-384", "rl03-1024"],
)
def test_build_cov_memory_is_per_block(spec, n, limit_mib):
    tracemalloc.start()
    try:
        build_cov(spec, Grid(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20
