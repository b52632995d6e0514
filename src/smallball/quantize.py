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
from scipy.optimize import root
from scipy.special import ndtr, ndtri

from . import _rng
from ._cache import memo
from .errors import NumericsError, SpecError
from .spectral import EigenSpectrum

_MAX_LEVELS = 256
# quant_error streams each chunk through one row block of at most about this
# many float64 elements (2 MiB), so a worker holds O(block x d), not
# O(chunk x d)
_BLOCK_ELEMS = 2**18


def _pdf(x):
    # scipy.stats.norm.pdf's own expression, so the codebooks keep their bits
    return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)


def _centroids(c: np.ndarray) -> np.ndarray:
    b = 0.5 * (c[:-1] + c[1:])
    lo = np.concatenate([[-np.inf], b])
    hi = np.concatenate([b, [np.inf]])
    mass = ndtr(hi) - ndtr(lo)
    return (_pdf(lo) - _pdf(hi)) / mass


def _distortion(c: np.ndarray) -> float:
    b = 0.5 * (c[:-1] + c[1:])
    lo = np.concatenate([[-np.inf], b])
    hi = np.concatenate([b, [np.inf]])
    mass = ndtr(hi) - ndtr(lo)
    first = _pdf(lo) - _pdf(hi)
    return float(1.0 - 2.0 * (c * first).sum() + (c * c * mass).sum())


@memo
def gauss_scalar_codebook(n: int):
    """Optimal n-level standard-normal quantizer: (codebook, e(n)^2), the
    codebook cached and read-only.

    Lloyd fixed point solved as a root problem (hybrid Powell), which
    reaches a fixed-point residual of at most 1e-10 for every n up to 256.
    """
    if n < 1:
        raise SpecError(f"levels must be >= 1, got {n}")
    if n == 1:
        return np.zeros(1), 1.0
    c0 = ndtri((2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)) * 0.95
    sol = root(lambda c: np.sort(c) - _centroids(np.sort(c)), c0, method="hybr", tol=1e-13)
    c = np.sort(sol.x)
    # judge by the fixed-point residual, not sol.success: MINPACK reports
    # "not making progress" on large boards whose root is already converged
    if np.max(np.abs(c - _centroids(c))) > 1e-10:
        raise NumericsError(f"Lloyd fixed point not reached for n={n}")
    return c, _distortion(c)


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
    """Squared distance of each of k_rows standard-normal draws (C order,
    d per row) to its product codeword, weighted by the eigenvalues.

    The draws stream through one reused row block.  einsum sums each row on
    its own, without BLAS, so the bits depend neither on the block cuts nor
    on the BLAS thread count.
    """
    lam = quantizer.spectrum.lambdas
    d = lam.size
    block_rows = max(1, _BLOCK_ELEMS // d)
    buf = np.empty((min(block_rows, k_rows), d))
    d2 = np.empty(k_rows)
    for lo, hi in _rng.row_blocks(k_rows, block_rows):
        xi = buf[: hi - lo]
        rng.standard_normal(out=xi)
        raw = xi[:, active]
        np.multiply(xi, xi, out=xi)
        for j, k in enumerate(active):
            q = quantizer.codebooks[k][np.searchsorted(mids[k], raw[:, j])]
            xi[:, k] = (raw[:, j] - q) ** 2
        d2[lo:hi] = np.einsum("ij,j->i", xi, lam)
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
    here).  Nearest-codeword search is separable per coordinate.
    """
    if n_mc < 2:
        raise SpecError("n_mc must be >= 2")
    d = len(quantizer.levels)
    mids = [
        0.5 * (cb[:-1] + cb[1:]) if cb.size > 1 else None
        for cb in quantizer.codebooks
    ]
    active = [k for k in range(d) if quantizer.levels[k] > 1]

    def work(rng, lo, k):
        d2 = _chunk_d2(rng, k, quantizer, mids, active)
        return float(d2.sum()), float((d2 * d2).sum())

    s1 = s2 = 0.0
    for a, b in _rng.map_rows(work, n_mc, d, seed, _rng.DOMAIN_QUANT):
        s1 += a
        s2 += b
    mean = s1 / n_mc
    var = max(s2 / n_mc - mean * mean, 0.0) / (n_mc - 1)
    d_hat = math.sqrt(mean)
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
