"""Spectral route to L2 small-ball probabilities.

Covariance operators on L2[0,1] are represented by their eigenvalue
sequences, either analytically known or estimated from a grid covariance
matrix by the Nystrom rule (eigenvalues of CovMatrix / n).  A spectrum may
carry a power-law tail lambda_k ~ A (k + shift)^(-rho) describing the modes
beyond the retained head.  One materialiser appends tail-law modes to the
head, doubling the mode count up to 2^22, with a stop rule per caller: the
small-ball evaluator grows the analytic tail until what lies beyond holds at
most 1e-3 eps^2 (at the cap it logs a warning on ``smallball.spectral``),
and the Laplace transform grows its tail (analytic, else fitted) until the
Hurwitz series that sums the rest converges fast (at the cap it raises).

Below the mean energy, small-ball probabilities come from a second-order
saddlepoint whose normal kernel is scipy.special.log_ndtr (scipy.stats.norm's
bits); at and above it, from Imhof's inversion by scipy.integrate.quad.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import log_ndtr
from scipy.special import zeta as _hurwitz

from ._lsq import gauss_newton
from .errors import NumericsError, SpecError
from .processes import Grid, _one_blas_thread, build_cov, derivative

_log = logging.getLogger(__name__)
_CLIP_REL = 1e-14
_MAX_MODES = 2**22
_LOG_SQRT_2PI = np.log(np.sqrt(2 * np.pi))  # scipy.stats.norm's logpdf constant


@dataclass(frozen=True)
class SpectralTail:
    """lambda_k ~ coef * (k + shift)^(-power) for k beyond the retained head."""

    coef: float
    power: float
    shift: float = 0.0
    fitted: bool = False

    def __post_init__(self):
        if not (self.coef > 0.0 and self.power > 1.0):
            raise SpecError("tail needs coef > 0 and power > 1 (trace class)")

    def values(self, k: np.ndarray) -> np.ndarray:
        return self.coef * (k + self.shift) ** -self.power

    def trace_beyond(self, k_head: int) -> float:
        # sum_{k > k_head} coef (k+shift)^-power
        return float(self.coef * _hurwitz(self.power, k_head + 1 + self.shift))


class EigenSpectrum:
    """Decreasing positive eigenvalues, optionally with an analytic tail."""

    def __init__(self, lambdas, tail: Optional[SpectralTail] = None):
        lam = np.sort(np.asarray(lambdas, dtype=float))[::-1]
        if lam.size == 0 or not np.all(np.isfinite(lam)):
            raise SpecError("spectrum must be a nonempty finite sequence")
        lam = lam[lam > _CLIP_REL * lam[0]]
        if lam.size == 0 or lam[0] <= 0.0:
            raise SpecError("spectrum has no positive eigenvalues")
        self.lambdas = lam
        self.tail = tail

    def __len__(self) -> int:
        return self.lambdas.size

    @property
    def trace(self) -> float:
        return float(self.lambdas.sum())


def brownian_spectrum(k: int) -> EigenSpectrum:
    """First k eigenvalues (pi (j - 1/2))^-2 of the min kernel, exact tail."""
    j = np.arange(1, k + 1)
    lam = (math.pi * (j - 0.5)) ** -2.0
    return EigenSpectrum(lam, tail=SpectralTail(math.pi**-2.0, 2.0, -0.5))


def _beam_frequencies(k: int) -> np.ndarray:
    # roots of cos(w) + 1/cosh(w) = 0, one per half-period
    j = np.arange(1, k + 1, dtype=float)
    w = (j - 0.5) * math.pi + 2.0 * (-1.0) ** (j + 1.0) * np.exp(-(j - 0.5) * math.pi)
    for _ in range(60):
        sech = 2.0 * np.exp(-w) / (1.0 + np.exp(-2.0 * w))  # w > 0 throughout
        f = np.cos(w) + sech
        df = -np.sin(w) - np.tanh(w) * sech
        step = f / df
        w = w - step
        if np.max(np.abs(step)) < 1e-14:
            break
    return w


def integrated_brownian_spectrum(k: int) -> EigenSpectrum:
    """Eigenvalues w_j^-4 of the once-integrated Brownian covariance."""
    lam = _beam_frequencies(k) ** -4.0
    return EigenSpectrum(lam, tail=SpectralTail(math.pi**-4.0, 4.0, -0.5))


def nystrom_eigen(spec_or_matrix, grid: Grid, k: int) -> EigenSpectrum:
    """Top-k eigenvalues of CovMatrix / n; returns fewer if the rest fall
    below the relative clip (smooth kernels exhaust double precision fast)."""
    if k < 1:
        raise SpecError(f"need k >= 1 modes, got {k}")
    if isinstance(spec_or_matrix, np.ndarray):
        mat = spec_or_matrix
        if mat.shape != (grid.n, grid.n):
            raise SpecError("matrix shape does not match grid")
    else:
        mat = build_cov(spec_or_matrix, grid)
    # the bits of eigvalsh change with the BLAS thread count
    with _one_blas_thread():
        lam = np.linalg.eigvalsh(mat / grid.n)[::-1]
    if not lam[0] > 0.0:
        raise NumericsError("covariance has no positive eigenvalue")
    return EigenSpectrum(lam[:k])


def derivative_kernel(spec, grid: Grid) -> np.ndarray:
    """Covariance matrix at the grid points of the pathwise derivative,
    assembled as the covariance of the structural derivative spec."""
    return build_cov(derivative(spec), grid)


# ---------------------------------------------------------------------------
# Laplace transform of the squared L2 norm


def _shifted_power_fit(k: np.ndarray, y: np.ndarray):
    """Fit y = c - rho log(k - delta) by least squares over increasing
    indices k, the index shift delta kept below k[0] so that every k - delta
    stays positive; Gauss-Newton starts from the log-k regression
    (delta = 0).  Returns (c, rho, delta)."""
    slope, intercept = np.polyfit(np.log(k), y, 1)

    def model(p):
        c, rho, delta = p
        if not delta < k[0]:
            return None
        u = k - delta
        return c - rho * np.log(u), np.column_stack([np.ones_like(k), -np.log(u), rho / u])

    p = gauss_newton(model, y, np.ones_like(y), np.array([intercept, -slope, 0.0]))[0]
    return tuple(float(v) for v in p)


def _fit_tail(lam: np.ndarray) -> Optional[SpectralTail]:
    """The shifted power law of the upper half of the head, or None when it
    cannot be fitted or is not trace class."""
    k_head = lam.size
    if k_head < 8:
        return None
    k = np.arange(k_head // 2 + 1, k_head + 1, dtype=float)
    try:
        c, rho, delta = _shifted_power_fit(k, np.log(lam[k_head // 2 :]))
    except NumericsError:
        return None
    if not rho > 1.01:
        return None
    return SpectralTail(math.exp(c), rho, -delta, fitted=True)


def _effective_tail(spectrum: EigenSpectrum) -> Optional[SpectralTail]:
    if spectrum.tail is not None:
        return spectrum.tail
    return _fit_tail(spectrum.lambdas)


def _materialise(lam: np.ndarray, tail: Optional[SpectralTail], short) -> np.ndarray:
    """The head ``lam`` followed by tail-law modes: the mode count doubles
    from the head's while ``short(count)`` holds, up to ``_MAX_MODES``, where
    each caller decides what a head still short means.  No tail, no growth."""
    if tail is None:
        return lam
    k_head = lam.size
    while k_head < _MAX_MODES and short(k_head):
        k_head = min(2 * k_head, _MAX_MODES)
    k = np.arange(lam.size + 1, k_head + 1, dtype=float)
    return np.concatenate([lam, tail.values(k)]) if k.size else lam


def neg_log_laplace(spectrum: EigenSpectrum, lam: float) -> float:
    """-log E exp(-(lam^2 / 2) ||X||_2^2) for the Gaussian law with this
    spectrum; head summed directly, tail by alternating Hurwitz-zeta series
    to a relative truncation target of 1e-8."""
    if lam < 0.0:
        raise SpecError(f"lambda must be >= 0, got {lam}")
    if lam == 0.0:
        return 0.0
    tail = _effective_tail(spectrum)
    t2 = lam * lam

    def short(k):  # the series argument past k modes is not inside |q| <= 1/2
        return t2 * tail.values(np.array([k + 1.0]))[0] > 0.5

    ev = _materialise(spectrum.lambdas, tail, short)
    if tail is not None and short(ev.size):
        raise NumericsError("tail materialisation exceeded mode cap")
    total = 0.5 * float(np.log1p(t2 * ev).sum())
    if tail is not None:
        q, a = t2 * tail.coef, ev.size + 1 + tail.shift
        term_sum = 0.0
        for j in range(1, 200):
            term = (-1.0) ** (j + 1) * q**j * _hurwitz(j * tail.power, a) / j
            term_sum += term
            if abs(term) < 1e-10 * max(abs(total + 0.5 * term_sum), 1e-30):
                break
        total += 0.5 * term_sum
    return total


def laplace_transform_l2(spectrum: EigenSpectrum, lam: float) -> float:
    """E exp(-(lam^2 / 2) ||X||_2^2), a real number in (0, 1]."""
    return math.exp(-neg_log_laplace(spectrum, lam))


# ---------------------------------------------------------------------------
# small-ball evaluation


def _lr2_neg_log(lam: np.ndarray, x: float) -> float:
    """Second-order saddlepoint lower-tail of Q = sum lam_k xi_k^2 at x."""

    def kprime_gap(v):
        return float((lam / (1.0 + 2.0 * v * lam)).sum()) - x

    v_hi = 1.0
    while kprime_gap(v_hi) > 0.0:
        v_hi *= 4.0
        if v_hi > 1e300:
            raise NumericsError("saddlepoint bracket failed")
    v = brentq(kprime_gap, 0.0, v_hi, rtol=8.9e-16, maxiter=200)
    u = -v
    r = 1.0 + 2.0 * v * lam
    cgf = -0.5 * float(np.log(r).sum())
    s2 = 2.0 * (u * x - cgf)
    if s2 <= 0.0:
        raise NumericsError("degenerate saddlepoint")
    w = -math.sqrt(s2)  # lower tail: u < 0
    k2 = float((2.0 * lam**2 / r**2).sum())
    k3 = float((8.0 * lam**3 / r**3).sum())
    k4 = float((48.0 * lam**4 / r**4).sum())
    l3 = k3 / k2**1.5
    l4 = k4 / k2**2
    ut = u * math.sqrt(k2)
    c = (l4 / 8.0 - 5.0 * l3**2 / 24.0) / ut - 1.0 / ut**3 - l3 / (2.0 * ut**2) + 1.0 / w**3
    # log Phi(w) - log phi(w), as scipy.stats.norm computes it
    big_r = math.exp(log_ndtr(w) - (-(w * w) / 2.0 - _LOG_SQRT_2PI))
    g = (1.0 / w - 1.0 / ut) - c
    val = big_r + g
    if val <= 0.0:
        raise NumericsError("saddlepoint expansion lost positivity")
    return 0.5 * w * w + 0.5 * math.log(2.0 * math.pi) - math.log(val)


def _upper_tail_neg_log(lam: np.ndarray, x: float) -> float:
    """-log P(Q <= x) for Q = sum lam_k xi_k^2 and x at or above the mean
    energy, where no lower saddle exists, by Imhof's inversion (Biometrika
    48, 1961):

        P(Q <= x) = 1/2 - (1/pi) int_0^inf sin(phi(u) - x u / 2) / (u rho(u)) du,

    phi = sum arctan(lam_k u) / 2, rho = prod (1 + lam_k^2 u^2)^(1/4).  Exact
    for any number of modes: [0, 1/lam_1] by plain quadrature, the rest as
    two QUADPACK Fourier integrals in x u / 2, which converge even for one
    mode.  Where a Chernoff bound puts P(Q > x) below 2^-54, p rounds to 1
    and +0.0 is returned without integrating.  ``quad`` is imported with the
    module, so the first inversion pays no import.  Elementwise sums only,
    so no BLAS call can move the bits."""
    # P(Q > x) <= exp(-s x) E exp(s Q), with the s that is optimal when every
    # mode equals lam_1
    s = max(1.0 - float(lam.sum()) / x, 0.0) / (2.0 * lam[0])
    if -s * x - 0.5 * float(np.log1p(-2.0 * s * lam).sum()) < -54.0 * math.log(2.0):
        return 0.0

    def phase(u):
        return 0.5 * float(np.arctan(lam * u).sum())

    def inv_u_rho(u):
        return math.exp(-0.25 * float(np.log1p((lam * u) ** 2).sum())) / u

    def head(u):
        return math.sin(phase(u) - 0.5 * x * u) * inv_u_rho(u)

    def integral(f, lo, hi, **weight):
        out = quad(f, lo, hi, epsabs=1e-13, limit=200, full_output=1, **weight)
        if len(out) > 3:  # QUADPACK's warning message
            raise NumericsError(f"Imhof inversion at x = {x!r}: {out[3].splitlines()[0]}")
        return out[0]

    a, w = 1.0 / lam[0], 0.5 * x
    # sin(phi - w u) = sin(phi) cos(w u) - cos(phi) sin(w u)
    val = (
        integral(head, 0.0, a)
        + integral(lambda u: math.sin(phase(u)) * inv_u_rho(u), a, np.inf, weight="cos", wvar=w)
        - integral(lambda u: math.cos(phase(u)) * inv_u_rho(u), a, np.inf, weight="sin", wvar=w)
    )
    p = 0.5 - val / math.pi
    if not p > 0.0:
        raise NumericsError(f"Imhof inversion gave P(Q <= {x!r}) = {p!r}")
    return 0.0 if p >= 1.0 else -math.log(p)


def _l2_route(spectrum: EigenSpectrum, x: float):
    """(route, modes) of ``l2_smallball`` at energy x = eps^2: the modes it
    materialises, and "saddle" below their energy or "imhof" at or above
    it."""
    # a head still short at the mode cap is used as it is
    lam = _materialise(
        spectrum.lambdas, spectrum.tail, lambda k: spectrum.tail.trace_beyond(k) > 1e-3 * x
    )
    return ("imhof" if x >= float(lam.sum()) * (1.0 - 1e-12) else "saddle"), lam


def l2_smallball(spectrum: EigenSpectrum, eps: float) -> float:
    """-log P(||X||_2 <= eps) for the Gaussian law with this spectrum.

    Saddlepoint (second order) on the materialised spectrum; if eps^2 is at
    or above the mean energy there is no lower saddle and Imhof's exact
    inversion is used instead.  A saddle short of modes at the cap warns.
    """
    if not (eps > 0.0):
        raise SpecError(f"radius must be > 0, got {eps}")
    x = eps * eps
    route, lam = _l2_route(spectrum, x)
    resid = spectrum.tail.trace_beyond(lam.size) if spectrum.tail else 0.0
    if route == "imhof":
        # unmaterialised modes act as exp(-s * residual trace) here, i.e. a
        # plain shift of the energy level
        return _upper_tail_neg_log(lam, x - resid)
    if resid > 1e-3 * x:  # the head stopped short at the mode cap
        msg = "l2_smallball at eps = %g: the %d-mode cap leaves out %.2g of eps^2"
        _log.warning(msg, eps, _MAX_MODES, resid / x)
    return _lr2_neg_log(lam, x)


def eigen_rate_fit(spectrum: EigenSpectrum, k_range) -> float:
    """Decay exponent -rho of lambda_k over k in k_range (inclusive).

    Fits log lambda_k = c - rho log(k - delta) with the index shift delta
    fitted alongside (``_shifted_power_fit``).  Exact spectra follow the
    shifted law, e.g. (pi (k - 1/2))^-2 for Brownian motion, and a plain
    regression on log k reads -2.074 there over k in [5, 40].  Returns the
    slope -rho.
    """
    lo, hi = int(k_range[0]), int(k_range[1])
    if lo < 1 or hi <= lo:
        raise SpecError(f"bad index range {k_range}")
    if hi > len(spectrum):
        raise SpecError(
            f"range {k_range} exceeds the {len(spectrum)} retained modes"
        )
    if hi - lo < 3:
        raise SpecError("need at least 4 modes to fit a slope and an index shift")
    k = np.arange(lo, hi + 1, dtype=float)
    return -_shifted_power_fit(k, np.log(spectrum.lambdas[lo - 1 : hi]))[1]
