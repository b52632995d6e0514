"""Process specifications, covariance kernels, and path sampling on [0, 1].

All processes start at 0.  Paths are discretised on the uniform grid
t_i = i/n, i = 1..n (the origin value is implicit).  Covariances with a
Volterra representation X_t = int_0^t K(t-u) dW_u use Gauss-Jacobi product
quadrature that absorbs the (min(s,t)-u)^(H-1/2) endpoint singularity into
the weight, which is exact for smooth residual factors and accurate to
~1e-14 at 64 nodes for the kernels used here.
"""
from __future__ import annotations

import ctypes
import glob
import logging
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.linalg.blas import dtrmm
from scipy.special import gamma as _gamma
from scipy.special import roots_jacobi

from . import _rng
from ._cache import memo
from .errors import NumericsError, SpecError

_log = logging.getLogger(__name__)

_NQ = 64  # Gauss-Jacobi nodes for Volterra covariances

# Row blocks of the quadrature temporaries, and of one chunk on the
# elementwise sampling routes, hold about BLOCK_ELEMS values.  The Cholesky
# route takes blocks of at least CHOLESKY_BLOCK_ELEMS values, since smaller
# triangular products contend for BLAS threads.  Every row is computed on
# its own, so no block cut moves a bit.
BLOCK_ELEMS = 2**16
CHOLESKY_BLOCK_ELEMS = 2**19
_MIRROR_COLS = 64  # strip width of build_cov's triangle mirror

MAX_CHOLESKY_N = 4096


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class Grid:
    """Uniform grid with n interior points t_i = i/n on (0, 1]."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise SpecError(f"grid size must be a positive integer, got {self.n}")

    @property
    def points(self) -> np.ndarray:
        return np.arange(1, self.n + 1) / self.n

    @property
    def h(self) -> float:
        return 1.0 / self.n


# ---------------------------------------------------------------------------
# process specs


@dataclass(frozen=True)
class BrownianMotion:
    pass


@dataclass(frozen=True)
class FractionalBm:
    """Fractional Brownian motion, standard normalisation Var X_t = t^(2h)."""

    h: float

    def __post_init__(self):
        if not (0.0 < self.h < 1.0):
            raise SpecError(f"FractionalBm requires h in (0, 1), got {self.h}")


@dataclass(frozen=True)
class RiemannLiouville:
    """Volterra process with kernel (t-u)^(h-1/2), no normalising constant."""

    h: float

    def __post_init__(self):
        if not (self.h > 0.0):
            raise SpecError(f"RiemannLiouville requires h > 0, got {self.h}")


@dataclass(frozen=True)
class Integrated:
    """m-fold running integral of the base process."""

    base: object
    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise SpecError(f"Integrated requires integer m >= 1, got {self.m}")
        _require_gaussian(self.base)


@dataclass(frozen=True)
class FracIntegrated:
    """Fractional integral of order > 0 of the base process."""

    base: object
    order: float

    def __post_init__(self):
        if not (self.order > 0.0 and math.isfinite(self.order)):
            raise SpecError(f"FracIntegrated requires order > 0, got {self.order}")
        _require_gaussian(self.base)


@dataclass(frozen=True)
class FbmRlDifference:
    """Difference of fractional Brownian motion and its Volterra part, both
    driven by the same noise, so the rough components cancel.  Convention:
    the fBm factor carries the normalisation Var B_t = v(h) t^(2h) that makes
    the shared-driver cross covariance equal the Volterra covariance."""

    h: float

    def __post_init__(self):
        if not (0.0 < self.h < 1.0):
            raise SpecError(f"FbmRlDifference requires h in (0, 1), got {self.h}")


@dataclass(frozen=True)
class GaussianConvolution:
    """Volterra kernel (t-u)^(h-1/2) (1 + sum_j coeffs[j] (t-u)^(j+1))."""

    h: float
    coeffs: tuple

    def __post_init__(self):
        if not (0.0 < self.h < 1.0):
            raise SpecError(f"GaussianConvolution requires h in (0, 1), got {self.h}")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))


@dataclass(frozen=True)
class StableScaledFbm:
    """sqrt(A) B^h with A positive (alpha/2)-stable; symmetric alpha-stable
    scaling mixture of fractional Brownian motion.  Not Gaussian; covariance
    is undefined (E A = inf)."""

    h: float
    alpha: float

    def __post_init__(self):
        if not (0.0 < self.h < 1.0):
            raise SpecError(f"StableScaledFbm requires h in (0, 1), got {self.h}")
        if not (0.0 < self.alpha < 2.0):
            raise SpecError(
                f"StableScaledFbm requires alpha in (0, 2), got {self.alpha}"
            )


GAUSSIAN_SPECS = (
    BrownianMotion,
    FractionalBm,
    RiemannLiouville,
    Integrated,
    FracIntegrated,
    FbmRlDifference,
    GaussianConvolution,
)


def _require_gaussian(spec):
    if not isinstance(spec, GAUSSIAN_SPECS):
        raise SpecError(f"{spec!r} is not a Gaussian process spec")


def fbm_volterra_variance(h: float) -> float:
    """v(h) with Var B^h_t = v(h) t^(2h) for the shared-driver fBm factor."""
    return _gamma(h + 0.5) * _gamma(2.0 - 2.0 * h) / (2.0 * h * _gamma(1.5 - h))


def effective_hurst(spec) -> float:
    """Path regularity index used by grid-refinement policies, capped at 1
    (anything Lipschitz or better discretizes alike)."""
    if isinstance(spec, BrownianMotion):
        return 0.5
    if isinstance(spec, (FractionalBm, StableScaledFbm)):
        return spec.h
    if isinstance(spec, (RiemannLiouville, GaussianConvolution)):
        return min(spec.h, 1.0)
    if isinstance(spec, Integrated):
        return min(effective_hurst(spec.base) + spec.m, 1.0)
    if isinstance(spec, FracIntegrated):
        return min(effective_hurst(spec.base) + spec.order, 1.0)
    # the difference process is smoother than either ingredient
    return 1.0


def derivative(spec, order: float = 1.0):
    """Spec of the order-``order`` pathwise derivative, read off the
    structure: Integrated(B, k) loses an integer order j <= k and
    FracIntegrated(B, a) an order m <= a, giving B when nothing is left."""
    if isinstance(spec, Integrated) and float(order).is_integer() and 0 < order <= spec.m:
        k = spec.m - int(order)
        return Integrated(spec.base, k) if k else spec.base
    if isinstance(spec, FracIntegrated) and 0.0 < order <= spec.order:
        a = spec.order - order
        return FracIntegrated(spec.base, a) if a > 0.0 else spec.base
    raise SpecError(f"{spec!r} has no derivative of order {order}")


# ---------------------------------------------------------------------------
# covariance kernels


@memo
def _jacobi_nodes(alpha: float):
    return roots_jacobi(_NQ, alpha, 0.0)


def _volterra_cov_pairs(h: float, coeffs: tuple, lo, hi) -> np.ndarray:
    """int_0^lo k(hi-u) k(lo-u) du for lo <= hi, vectorised, with the kernel
    k(x) = x^(h-1/2) g(x), g(x) = 1 + sum_j coeffs[j] x^(j+1)."""
    a = h - 0.5
    c = np.array((1.0,) + coeffs)
    out = np.empty_like(lo)
    eq = hi <= lo * (1.0 + 1e-12)
    if np.any(eq):
        # diagonal closed form: int_0^lo x^(2a) g(x)^2 dx, term by term
        b = np.convolve(c, c)
        e = 2.0 * h + np.arange(b.size)
        out[eq] = (b * lo[eq, None] ** e / e).sum(axis=1)
    ne = np.flatnonzero(~eq)
    if ne.size:
        x, w = _jacobi_nodes(a)
        for r0, r1 in _rng.row_blocks(ne.size, max(1, BLOCK_ELEMS // x.size)):
            idx = ne[r0:r1]
            lo_, hi_ = lo[idx, None], hi[idx, None]
            u = lo_ * (1.0 + x) / 2.0
            whi = hi_ - u
            vals = whi**a
            if coeffs:
                vals = polyval(lo_ - u, c) * vals * polyval(whi, c)
            out[idx] = (lo_[:, 0] / 2.0) ** (a + 1.0) * (vals * w).sum(axis=1)
    return out


def _int_fbm_phi(x: np.ndarray, h: float) -> np.ndarray:
    e = 2.0 * h + 2.0
    return x**e / ((2.0 * h + 1.0) * e)


def _cov_pairs(spec, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Covariance on flat arrays of time pairs in [0, 1]."""
    lo = np.minimum(s, t)
    hi = np.maximum(s, t)
    if isinstance(spec, BrownianMotion):
        return lo.copy()
    if isinstance(spec, FractionalBm):
        e = 2.0 * spec.h
        return 0.5 * (s**e + t**e - np.abs(t - s) ** e)
    if isinstance(spec, RiemannLiouville):
        if spec.h == 0.5:
            return lo.copy()
        return _volterra_cov_pairs(spec.h, (), lo, hi)
    if isinstance(spec, FbmRlDifference):
        fbm = _cov_pairs(FractionalBm(spec.h), s, t)
        return fbm_volterra_variance(spec.h) * fbm - _volterra_cov_pairs(spec.h, (), lo, hi)
    if isinstance(spec, GaussianConvolution):
        return _volterra_cov_pairs(spec.h, spec.coeffs, lo, hi)
    if isinstance(spec, Integrated):
        if spec.m == 1 and isinstance(spec.base, BrownianMotion):
            return lo**2 * (3.0 * hi - lo) / 6.0
        if spec.m == 1 and isinstance(spec.base, FractionalBm):
            h = spec.base.h
            e = 2.0 * h + 1.0
            sym = t * s**e / e + s * t**e / e
            ph = _int_fbm_phi(s, h) + _int_fbm_phi(t, h) - _int_fbm_phi(np.abs(t - s), h)
            return 0.5 * (sym - ph)
        # double Gauss-Legendre over [0,s] x [0,t]; the tensor rule straddles
        # the base's diagonal kink, so this is good to ~1e-3 relative only
        inner = spec.base if spec.m == 1 else Integrated(spec.base, spec.m - 1)
        x, w = np.polynomial.legendre.leggauss(48)
        return _double_quad(inner, s, t, (x + 1.0) / 2.0, w / 2.0, s * t)
    if isinstance(spec, FracIntegrated):
        # Gamma(M)^-2 int_0^lo int_0^hi (lo-u)^(M-1) (hi-v)^(M-1) R_b(u,v);
        # Gauss-Jacobi absorbs both endpoint factors
        m = spec.order
        x, w = _jacobi_nodes(m - 1.0)
        pref = (lo * hi / 4.0) ** m / _gamma(m) ** 2
        return _double_quad(spec.base, lo, hi, (1.0 + x) / 2.0, w, pref)
    raise SpecError(f"covariance not defined for {spec!r}")


def _double_quad(base, s, t, x, w, pref) -> np.ndarray:
    """pref * sum_ij w_i w_j R_base(s x_i, t x_j) per pair, nodes x on [0, 1]."""
    nq = x.size
    out = np.empty_like(s)
    for a, b in _rng.row_blocks(s.size, max(1, BLOCK_ELEMS // (nq * nq))):
        uu = np.repeat((s[a:b, None] * x)[:, :, None], nq, axis=2)
        vv = np.repeat((t[a:b, None] * x)[:, None, :], nq, axis=1)
        r = _cov_pairs(base, uu.ravel(), vv.ravel()).reshape(uu.shape)
        out[a:b] = pref[a:b] * np.einsum("i,j,bij->b", w, w, r)
    return out


def covariance(spec, s, t):
    """Covariance function R(s, t); broadcasts over array arguments."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0) or np.any(s > 1) or np.any(t < 0) or np.any(t > 1):
        raise SpecError("covariance arguments must lie in [0, 1]")
    if isinstance(spec, StableScaledFbm):
        raise SpecError("StableScaledFbm has no finite covariance")
    _require_gaussian(spec)
    s, t = np.broadcast_arrays(s, t)
    shape = s.shape
    out = _cov_pairs(spec, s.ravel(), t.ravel())
    out = out.reshape(shape)
    return float(out) if shape == () else out


def build_cov(spec, grid: Grid) -> np.ndarray:
    """Dense covariance matrix at the interior grid points.  An integrated spec
    without a closed form is the sandwich w R w' of its base's matrix R, w
    being frac_integral's operator, or T^m for Integrated with T the trapezoid
    rule from the origin; its products run at one BLAS thread."""
    _require_gaussian(spec)
    n = grid.n
    if isinstance(spec, FracIntegrated) or (
        isinstance(spec, Integrated)
        and not (spec.m == 1 and isinstance(spec.base, (BrownianMotion, FractionalBm)))
    ):
        from .fraccalc import operator_matrix

        rb = build_cov(spec.base, grid)
        with _one_blas_thread():
            if isinstance(spec, FracIntegrated):
                w = operator_matrix(spec.order, n)
            else:
                w = np.linalg.matrix_power((np.tri(n) - 0.5 * np.eye(n)) / n, spec.m)
            k = w @ rb @ w.T
        return 0.5 * (k + k.T)
    # every pair function left is bitwise symmetric, so evaluate each pair
    # once, on the upper triangle, and mirror it: 0.5 * (v + v) == v
    t = grid.points
    i, j = np.triu_indices(n)
    k = np.empty((n, n))
    k[i, j] = covariance(spec, t[j], t[i])
    # mirror in column strips, so that each strip's transposed reads stay
    # in cache
    for lo in range(0, n, _MIRROR_COLS):
        hi = min(lo + _MIRROR_COLS, n)
        k[hi:, lo:hi] = k[lo:hi, hi:].T
        d = k[lo:hi, lo:hi]
        r, c = np.tril_indices(hi - lo, -1)
        d[r, c] = d[c, r]
    return k


# ---------------------------------------------------------------------------
# sampling


def _numpy_openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, through
    ctypes, or None where the wheel ships another BLAS."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(path)
            return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
    return None


_OPENBLAS_THREADS = _numpy_openblas_threads()
# held from pinning to restoring: factors of two memo keys can be solved at
# once, and interleaved set/restore pairs would leave a solve unpinned;
# re-entrant, so that a caller's pin may enclose build_cov's own
_OPENBLAS_LOCK = threading.RLock()


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS at one thread, then restore its
    count.  The bits of potrf (n >= 128), eigvalsh and build_cov's sandwich
    products change with the thread count, so each runs under this pin and
    factors, spectra and Cholesky paths are equal across machines."""
    if _OPENBLAS_THREADS is None:
        yield
        return
    get_threads, set_threads = _OPENBLAS_THREADS
    with _OPENBLAS_LOCK:
        before = get_threads()
        set_threads(1)
        try:
            yield
        finally:
            set_threads(before)


@memo
def _cholesky_factor(spec, grid: Grid) -> np.ndarray:
    if grid.n > MAX_CHOLESKY_N:
        raise SpecError(
            f"dense sampling supports n <= {MAX_CHOLESKY_N}, got {grid.n}"
        )
    k = build_cov(spec, grid)
    scale = np.trace(k) / grid.n
    with _one_blas_thread():
        for jit in [0.0] + [scale * 10.0**e for e in range(-12, -5)]:
            try:
                fac = np.linalg.cholesky(k + jit * np.eye(grid.n))
                break
            except np.linalg.LinAlgError:
                continue
        else:
            raise NumericsError(f"covariance of {spec!r} not positive definite")
    if jit > 0.0:
        _log.warning(
            "covariance of %r on %d points factored with jitter %.3g", spec, grid.n, jit
        )
    return fac


def _route(spec) -> str:
    # fBm(1/2) and RL(1/2) have exactly BM's covariance min(s, t)
    if isinstance(spec, BrownianMotion) or (
        isinstance(spec, (FractionalBm, RiemannLiouville)) and spec.h == 0.5
    ):
        return "cumsum"
    if isinstance(spec, FractionalBm):
        return "circulant"
    return "cholesky"


def _block_rows(spec, n: int) -> int:
    if _route(spec) == "cholesky":
        return -(-CHOLESKY_BLOCK_ELEMS // n)
    return max(1, BLOCK_ELEMS // n)


@memo
def _fgn_circulant_sqrt_eigs(h: float, n: int) -> np.ndarray:
    """Square roots of the circulant embedding's eigenvalues for fGn(h) on n
    steps; size 2n."""
    k = np.arange(n + 1, dtype=float)
    e = 2.0 * h
    g = 0.5 * ((k + 1.0) ** e - 2.0 * k**e + np.abs(k - 1.0) ** e)
    c = np.concatenate([g[:n], g[n : n + 1], g[n - 1 : 0 : -1]])
    eig = np.fft.fft(c).real
    if eig.min() < -1e-9 * eig.max():
        raise NumericsError(f"circulant embedding failed for h={h}")
    return np.sqrt(np.maximum(eig, 0.0))


def _gaussian_chunk(spec, grid: Grid, rows: int, rng) -> np.ndarray:
    """``rows`` paths of a Gaussian spec drawn from rng, row by row: each
    path takes its draws (on the circulant route its 2n real parts, then its
    2n imaginary parts) before the next path's."""
    n = grid.n
    route = _route(spec)
    if route == "cumsum":
        z = rng.standard_normal((rows, n))
        np.cumsum(z, axis=1, out=z)
        z *= n**-0.5
        return z
    if route == "circulant":
        sq = _fgn_circulant_sqrt_eigs(spec.h, n)
        m = sq.size
        z = rng.standard_normal((rows, 2, m))
        wz = z[:, 0] + 1j * z[:, 1]
        x = np.fft.ifft(sq * wz, axis=1).real * math.sqrt(m)
        fgn = x[:, :n] * grid.h**spec.h
        return np.cumsum(fgn, axis=1)
    fac = _cholesky_factor(spec, grid)
    z = rng.standard_normal((rows, n))
    # z @ fac.T in place as fac @ z.T, a triangular product at half GEMM's
    # flops whose bits depend on neither the row count nor the BLAS threads;
    # f2py may copy, so keep the returned array
    return dtrmm(1.0, fac.T, z.T, side=0, lower=0, trans_a=1, overwrite_b=1).T


def sample_positive_stable(a: float, count: int, seed: int = _rng.DEFAULT_SEED):
    """Positive a-stable draws with Laplace transform exp(-u^a), 0 < a < 1."""
    if not (0.0 < a < 1.0):
        raise SpecError(f"positive stable index must be in (0, 1), got {a}")
    out = np.empty(count)

    def one(rng, lo, k):
        u = np.clip(rng.uniform(0.0, 1.0, size=k), 2e-16, 1.0 - 2e-16)
        e = rng.standard_exponential(size=k)
        th = math.pi * u
        out[lo : lo + k] = (
            np.sin(a * th)
            * np.sin((1.0 - a) * th) ** ((1.0 - a) / a)
            / (np.sin(th) ** (1.0 / a) * e ** ((1.0 - a) / a))
        )

    _rng.map_rows(one, count, 4, seed, _rng.DOMAIN_STABLE)
    return out


def map_paths(
    spec, grid, count, seed, fn, chunk=_gaussian_chunk, stable=sample_positive_stable
):
    """Call fn(rows, values) once per row block of ``count`` paths of
    ``spec`` on ``grid``, values being the paths of the slice ``rows``: the
    bits of whole-chunk draws, whatever the worker count, with O(block x n)
    memory.  ``chunk`` and ``stable`` are the samplers or a caller's
    bindings of them.

    Before any draw it rejects count < 1 and specs that are neither Gaussian
    nor a stable mixture, and solves the Cholesky factor.  A stable mixture
    scales the fBm(h) blocks in place by amplitudes sqrt(A) drawn first.
    Every route draws row by row and computes each path on its own row, so
    no block cut moves a bit.
    """
    if count < 1:
        raise SpecError(f"count must be >= 1, got {count}")
    amps = None
    if isinstance(spec, StableScaledFbm):
        amps = np.sqrt(stable(spec.alpha / 2.0, count, seed))
        spec = FractionalBm(spec.h)
    _require_gaussian(spec)
    if _route(spec) == "cholesky":
        _cholesky_factor(spec, grid)

    def one(rng, lo, k):
        for a, b in _rng.row_blocks(k, _block_rows(spec, grid.n)):
            block = chunk(spec, grid, b - a, rng)
            rows = slice(lo + a, lo + b)
            if amps is not None:
                block *= amps[rows, None]
            fn(rows, block)

    _rng.map_rows(one, count, grid.n, seed, _rng.DOMAIN_PATHS)


def sample_paths(spec, grid: Grid, count: int, seed: int = _rng.DEFAULT_SEED):
    """Draw ``count`` paths of ``spec`` on ``grid`` as a (count, grid.n)
    array; reproducible in seed and independent of worker count."""
    values = np.empty((max(count, 0), grid.n))  # map_paths rejects count < 1
    map_paths(spec, grid, count, seed, values.__setitem__)
    return values
