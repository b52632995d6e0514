"""Functional quantization through per-coordinate scalar codebooks.

The Karhunen-Loeve expansion turns path quantization with squared-L2
distortion into independent scalar problems: a product codebook across
coordinates makes the nearest-codeword search separable, so the distortion
of a level allocation (n_1, ..., n_d) is sum_k lambda_k e(n_k)^2 with e(n)^2
the optimal standard-normal quantizer distortion.  Budgets are in nats,
r = sum log n_k.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import ndtr, ndtri

from . import _rng
from ._cache import memo
from .errors import NumericsError, SpecError
from .spectral import EigenSpectrum

_MAX_LEVELS = 256


def _pdf(x):
    # scipy.stats.norm.pdf's own expression, so the codebooks keep their bits
    return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)


def _cells(c: np.ndarray):
    """Bounds and standard-normal mass of each nearest-codeword cell.  An
    upper cell (lo >= 0) takes its mass as that of its mirror (-hi, -lo), so
    no mass is a difference of two numbers near 1."""
    b = 0.5 * (c[:-1] + c[1:])
    lo = np.concatenate([[-np.inf], b])
    hi = np.concatenate([b, [np.inf]])
    up = lo >= 0.0
    return lo, hi, ndtr(np.where(up, -lo, hi)) - ndtr(np.where(up, -hi, lo))


def _centroids(c: np.ndarray) -> np.ndarray:
    lo, hi, mass = _cells(c)
    return (_pdf(lo) - _pdf(hi)) / mass


def _distortion(c: np.ndarray) -> float:
    lo, hi, mass = _cells(c)
    first = _pdf(lo) - _pdf(hi)
    return float(1.0 - 2.0 * (c * first).sum() + (c * c * mass).sum())


def _lloyd_jacobian(c: np.ndarray) -> np.ndarray:
    """Jacobian of the Lloyd residual c - T(c), in solve_banded's (1, 1)
    layout.

    The centroid T_i of cell [b_{i-1}, b_i] with mass M_i moves by
    phi(b_i)(b_i - T_i)/M_i per unit of b_i and by
    phi(b_{i-1})(T_i - b_{i-1})/M_i per unit of b_{i-1}; the bounds at
    +-inf do not move, and b_i = (c_i + c_{i+1})/2 moves by half of each
    neighbour's move, so the Jacobian is tridiagonal.
    """
    lo, hi, mass = _cells(c)
    t = (_pdf(lo) - _pdf(hi)) / mass
    b, pb = lo[1:], _pdf(lo[1:])
    up = 0.5 * pb * (b - t[:-1]) / mass[:-1]  # half dT_i/db_i, i < n - 1
    down = 0.5 * pb * (t[1:] - b) / mass[1:]  # half dT_{i+1}/db_i
    ab = np.zeros((3, c.size))
    ab[0, 1:] = -up
    ab[1] = 1.0
    ab[1, :-1] -= up
    ab[1, 1:] -= down
    ab[2, :-1] = -down
    return ab


@memo
def gauss_scalar_codebook(n: int):
    """Optimal n-level standard-normal quantizer: (codebook, e(n)^2), the
    codebook cached and read-only.

    Newton's method on the Lloyd residual c - T(c) with its tridiagonal
    Jacobian, from the same start for every n (never from another level
    count's codebook).  Each iterate is made exactly symmetric, and the
    iteration stops at the first step whose residual does not halve,
    keeping the best iterate; its fixed-point residual is at most 1e-10 for
    every n up to 256.
    """
    if n < 1:
        raise SpecError(f"levels must be >= 1, got {n}")
    if n == 1:
        return np.zeros(1), 1.0
    c = ndtri((2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)) * 0.95
    best, best_res = c, np.inf
    while True:
        c = 0.5 * (c - c[::-1])
        f = c - _centroids(c)
        res = np.max(np.abs(f))
        if not res < 0.5 * best_res:  # NaN stops too
            break
        best, best_res = c, res
        c = c - solve_banded((1, 1), _lloyd_jacobian(c), f)
    if best_res > 1e-10 or not np.all(np.diff(best) > 0.0):
        raise NumericsError(f"Lloyd fixed point not reached for n={n}")
    return best, _distortion(best)


@dataclass(frozen=True)
class Quantizer:
    spectrum: EigenSpectrum
    levels: tuple
    codebooks: tuple
    rate: float  # nats actually used, sum log n_k

    @property
    def implied_distortion_sq(self) -> float:
        lam = self.spectrum.lambdas
        return float(
            sum(l * gauss_scalar_codebook(n)[1] for l, n in zip(lam, self.levels))
        )


def product_quantizer(spectrum: EigenSpectrum, budget: float) -> Quantizer:
    """Greedy level allocation under a nats budget.

    Repeatedly increments the level of the coordinate with the largest
    marginal distortion decrease per added log-cost (ties to the lowest
    index); stops when no increment fits the remaining budget.  Coordinates
    never exceed 256 levels.
    """
    if budget < 0.0:
        raise SpecError(f"budget must be >= 0, got {budget}")
    lam = spectrum.lambdas
    levels = np.ones(lam.size, dtype=int)
    drops = {}  # e(n)^2 - e(n+1)^2 by level n, looked up once per call
    heap = []  # (-ratio, k, cost): the best ratio first, ties to the lowest k
    used = 0.0

    def push(k):
        n = levels[k]
        cost = math.log(n + 1) - math.log(n)
        # the remaining budget only falls, so an increment that does not fit
        # now never will
        if n >= _MAX_LEVELS or cost > budget - used + 1e-12:
            return
        if n not in drops:
            drops[n] = gauss_scalar_codebook(n)[1] - gauss_scalar_codebook(n + 1)[1]
        heapq.heappush(heap, (-(lam[k] * drops[n] / cost), k, cost))

    for k in range(lam.size):
        push(k)
    while heap:
        _, k, cost = heapq.heappop(heap)
        if cost > budget - used + 1e-12:
            continue
        used += cost
        levels[k] += 1
        push(k)
    books = tuple(gauss_scalar_codebook(int(n))[0] for n in levels)
    return Quantizer(spectrum, tuple(int(n) for n in levels), books, used)


def _chunk_d2(rng, k_rows, quantizer, mids, active):
    """sum over k in ``active`` of lambda_k (xi_k - q_k(xi_k))^2 for k_rows
    rows: each active coordinate in turn draws its k_rows normals into one
    reused vector, and the rows accumulate in coordinate order (no BLAS)."""
    lam = quantizer.spectrum.lambdas
    xi = np.empty(k_rows)
    d2 = np.zeros(k_rows)
    for k in active:
        rng.standard_normal(out=xi)
        d2 += lam[k] * (xi - quantizer.codebooks[k][np.searchsorted(mids[k], xi)]) ** 2
    return d2


def quant_error(
    spec,
    quantizer: Quantizer,
    n_mc: int,
    seed: int = _rng.DEFAULT_SEED,
):
    """MC estimate of the squared-L2 distortion root, (D_hat, stderr).

    Works in the quantizer's own KL coordinates; the caller guarantees the
    quantizer was built on the spectrum of ``spec`` (not verifiable cheaply
    here).  A row's squared distortion is sum_k lambda_k (xi_k - q_k(xi_k))^2,
    and a one-level coordinate (codeword 0) contributes lambda_k xi_k^2, of
    exact mean lambda_k.  D_hat^2 takes those means and draws only the
    active (n_k > 1) terms, so it keeps its expectation and loses the
    variance of the one-level terms (Rao-Blackwell); with no active
    coordinate it is exactly (sqrt(trace), 0.0).  Chunk c of ``map_rows``
    (d columns) draws from stream(seed, DOMAIN_QUANT, c), one active
    coordinate after another in index order, so the budgets of a ladder on
    a decreasing spectrum share their draws.  stderr is the delta-method
    error of D_hat.
    """
    if n_mc < 2:
        raise SpecError("n_mc must be >= 2")
    levels = np.asarray(quantizer.levels)
    mids = [
        0.5 * (cb[:-1] + cb[1:]) if cb.size > 1 else None
        for cb in quantizer.codebooks
    ]
    active = np.flatnonzero(levels > 1).tolist()
    fixed = float(quantizer.spectrum.lambdas[levels == 1].sum())

    def work(rng, lo, k):
        d2 = _chunk_d2(rng, k, quantizer, mids, active)
        return float(d2.sum()), float((d2 * d2).sum())

    s1 = s2 = 0.0
    for a, b in _rng.map_rows(work, n_mc, levels.size, seed, _rng.DOMAIN_QUANT):
        s1 += a
        s2 += b
    mean = s1 / n_mc
    var = max(s2 / n_mc - mean * mean, 0.0) / (n_mc - 1)
    d_hat = math.sqrt(fixed + mean)
    se = math.sqrt(var) / (2.0 * d_hat) if d_hat > 0 else 0.0
    return d_hat, se


@dataclass(frozen=True)
class QuantCurve:
    entries: tuple  # (r, distortion, stderr), r increasing

    def __post_init__(self):
        rs = [e[0] for e in self.entries]
        if any(b <= a for a, b in zip(rs, rs[1:])):
            raise SpecError("quantization budgets must be strictly increasing")


def quant_curve(
    spec,
    spectrum: EigenSpectrum,
    budgets,
    n_mc: int,
    seed: int = _rng.DEFAULT_SEED,
) -> QuantCurve:
    rs = sorted(float(r) for r in budgets)
    # fail before any quantizer is built or any normal drawn
    if any(b == a for a, b in zip(rs, rs[1:])):
        raise SpecError("quantization budgets must be strictly increasing")
    entries = []
    for r in rs:
        qz = product_quantizer(spectrum, r)
        d_hat, se = quant_error(spec, qz, n_mc, seed=seed)
        entries.append((r, d_hat, se))
    return QuantCurve(tuple(entries))
