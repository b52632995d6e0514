"""Spectral route to L2 small-ball probabilities.

Covariance operators on L2[0,1] are represented by their eigenvalue
sequences, either analytically known or estimated from a grid covariance
matrix by the Nystrom rule (eigenvalues of CovMatrix / n).  A spectrum may
carry a power-law tail lambda_k ~ A (k + shift)^(-rho) describing the modes
beyond the retained head.  Tail-law modes extend the head, the mode count
doubling up to 2^22.  The small-ball evaluator counts modes until the
analytic tail beyond holds at most 1e-3 eps^2 (at the cap it logs a warning
on ``smallball.spectral``); Imhof's inversion materialises every counted
mode.  The saddlepoint materialises only the first M, the smallest doubling
of the head of at least 8192 modes with 2 v lambda_(M+1) <= 1/4 at its saddle
variable v, and sums the tail-law modes from M to the stop count by Hurwitz
power sums.  The Laplace transform takes the same rule at v = lambda^2 / 2
from the head itself (at the cap it raises), and sums every tail-law mode
past M, of the analytic tail or else of one fitted to the head, by the same
power sums.

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


def _grown(count: int, short, cap: int = _MAX_MODES) -> int:
    """The mode count, doubled while ``short(count)`` holds, up to ``cap``,
    where each caller decides what a head still short means."""
    while count < cap and short(count):
        count = min(2 * count, cap)
    return count


def _materialise(lam: np.ndarray, tail: Optional[SpectralTail], count: int) -> np.ndarray:
    """The head ``lam`` followed by tail-law modes up to ``count`` modes (the
    head alone, with or without a tail, at its own size)."""
    k = np.arange(lam.size + 1, count + 1, dtype=float)
    return np.concatenate([lam, tail.values(k)]) if k.size else lam


def neg_log_laplace(spectrum: EigenSpectrum, lam: float) -> float:
    """-log E exp(-(lam^2 / 2) ||X||_2^2) = (1/2) sum_k log(1 + lam^2 lam_k)
    for the Gaussian law with this spectrum, exact to rounding.

    The spectrum's tail (analytic, else fitted to the head; none if that
    fails) extends the head to the saddlepoint's count at v = lam^2 / 2:
    the smallest doubling M with lam^2 lam_(M + 1) <= 1/4.  Modes 1..M are
    summed as an array and the tail-law modes past M by their Hurwitz power
    sums.  A head still short at the 2^22-mode cap raises NumericsError.
    """
    if not (math.isfinite(lam) and lam >= 0.0):
        raise SpecError(f"lambda must be finite and >= 0, got {lam}")
    if lam == 0.0:
        return 0.0
    head, t2 = spectrum.lambdas, lam * lam
    tail = spectrum.tail if spectrum.tail is not None else _fit_tail(head)
    if tail is None:
        return 0.5 * float(np.log1p(t2 * head).sum())

    def short(k):  # y = lam^2 lam_(k + 1) past k modes is above 1/4
        return t2 * tail.values(k + 1.0) > 0.25

    m = _grown(head.size, short)
    if short(m):
        raise NumericsError("tail materialisation exceeded mode cap")
    rest = _TailSums(tail, m, math.inf, np.zeros(_TERMS + 3)).log1p(0.5 * t2)
    return 0.5 * (float(np.log1p(t2 * _materialise(head, tail, m)).sum()) + rest)


def laplace_transform_l2(spectrum: EigenSpectrum, lam: float) -> float:
    """E exp(-(lam^2 / 2) ||X||_2^2), a real number in (0, 1]."""
    return math.exp(-neg_log_laplace(spectrum, lam))


# ---------------------------------------------------------------------------
# small-ball evaluation


# The Laplace transform and the saddlepoint sum the tail-law modes past an
# explicit prefix by power series in y = 2 v lam_k <= 1/4: lam^m / (1 + y)^m
# = lam^m sum_j C(j + m - 1, m - 1) (-y)^j and log(1 + y) = -sum_j (-y)^j / j,
# whose power sums over k are Hurwitz zeta values.  At y = 1/4 the first
# omitted term of the fourth-order sum is ~1e-20 of it.
_TERMS = 40
# Up to this many modes the saddlepoint sums every mode as an array: that
# costs less than building the power sums, and keeps those values' bits.
_EXPLICIT_MODES = 8192
_J = np.arange(float(_TERMS))
_BINOM = (np.ones(_TERMS), _J + 1.0, (_J + 1.0) * (_J + 2.0) / 2.0,
          (_J + 1.0) * (_J + 2.0) * (_J + 3.0) / 6.0)  # C(j + m - 1, m - 1), m = 1..4
# B_2k / (2k)!, k = 1..8, for the Euler-Maclaurin remainder of zeta
_EM_COEF = np.array([1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                     -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000])


def _scaled_zeta(s: np.ndarray, c: float) -> np.ndarray:
    """c^s zeta(s, c) = sum_{n >= 0} (1 + n / c)^-s, elementwise over s > 1.

    scipy's Hurwitz zeta times c^s where both stay normal; where they would
    not (zeta underflows past s log c ~ 708), the first n terms directly and
    the rest by the Euler-Maclaurin remainder at c + n >= 2 s, scaled by
    (1 + n / c)^-s."""
    out = np.empty_like(s)
    direct = s * abs(math.log(c)) <= 600.0
    out[direct] = c ** s[direct] * _hurwitz(s[direct], c)
    s = s[~direct]
    if s.size:
        n = np.maximum(np.ceil(2.0 * s - c), 0.0)
        a = (c + n)[:, None]
        # (s)_(2k - 1) / a^(2k - 1) = prod_{i < 2k - 1} (s + i) / a
        ratio = (s[:, None] + np.arange(2.0 * _EM_COEF.size - 1.0)) / a
        terms = _EM_COEF * np.cumprod(ratio, axis=1)[:, ::2]
        rest = a[:, 0] / (s - 1.0) + 0.5 + terms.sum(axis=1)
        j = np.arange(n.max())
        head = np.where(j < n[:, None], np.exp(-s[:, None] * np.log1p(j / c)), 0.0)
        out[~direct] = head.sum(axis=1) + np.exp(-s * np.log1p(n / c)) * rest
    return out


class _TailSums:
    """Sums over the tail-law modes lo + 1..hi, from their power sums
    sum_{k > n} lam_k^j = p_n^j Z_j(c_n) past n = lo and n = hi:
    p_n = lam_(n + 1), c_n = n + 1 + shift and Z_j(c) = c^(j rho)
    zeta(j rho, c), so that y = 2 v p_n <= 1/4 keeps every term finite.
    ``z_hi`` is Z_j(c_hi), j = 1.._TERMS + 3: zero at hi = inf, as is p_hi."""

    def __init__(self, tail: SpectralTail, lo: int, hi: int, z_hi: np.ndarray):
        self.p = np.array([tail.values(lo + 1.0), tail.values(hi + 1.0)])[:, None]
        z = np.stack([_past_zeta(tail, lo), z_hi])
        # the weight of (-y)^j: +-p^m C(j + m - 1, m - 1) Z_(j + m), the sum
        # past lo less the sum past hi
        sign = np.array([1.0, -1.0])[:, None]
        self.w = [
            sign * self.p**m * _BINOM[m - 1] * z[:, m - 1 : m - 1 + _TERMS] for m in (1, 2, 3, 4)
        ]
        self.w_log = -sign * z[:, :_TERMS] / (_J + 1.0)  # of (-y)^(j + 1)

    def _powers(self, v: float) -> np.ndarray:
        # (-y)^j at both ends, j = 0.._TERMS - 1
        t = np.empty((2, _TERMS))
        t[:, 0], t[:, 1:] = 1.0, -2.0 * v * self.p
        return np.cumprod(t, axis=1)

    def moment(self, v: float, m: int) -> float:
        """sum_{lo < k <= hi} lam_k^m / (1 + 2 v lam_k)^m"""
        return float((self.w[m - 1] * self._powers(v)).sum())

    def log1p(self, v: float) -> float:
        """sum_{lo < k <= hi} log(1 + 2 v lam_k)"""
        return float((self.w_log * self._powers(v) * (-2.0 * v * self.p)).sum())


def _past_zeta(tail: SpectralTail, n: int) -> np.ndarray:
    # Z_j(n + 1 + shift) for j = 1.._TERMS + 3
    return _scaled_zeta(tail.power * np.arange(1.0, _TERMS + 4.0), n + 1.0 + tail.shift)


class _NoTail:
    def moment(self, v: float, m: int) -> float:
        return 0.0

    def log1p(self, v: float) -> float:
        return 0.0


_NO_TAIL = _NoTail()


def _saddle_modes(spectrum: EigenSpectrum, count: int):
    """The first ``count`` modes of the spectrum for ``_lr2_neg_log``: modes
    1..M as an array and modes M + 1..count by their power sums, where M is
    the smallest doubling of the head of at least ``_EXPLICIT_MODES`` modes
    with 2 v lam_(M + 1) <= 1/4, at most count.  Where that leaves nothing
    past M at any v (at most ``_EXPLICIT_MODES`` counted modes, or no tail),
    the array of all count modes; otherwise modes(v), the arrays cached by M.
    """
    lam, tail = spectrum.lambdas, spectrum.tail
    m_least = _grown(lam.size, lambda k: k < _EXPLICIT_MODES, count)
    if m_least == count:
        return _materialise(lam, tail, count)
    split, z_count = {}, _past_zeta(tail, count)

    def modes(v):
        m = _grown(m_least, lambda k: 2.0 * v * tail.values(k + 1.0) > 0.25, count)
        if m not in split:
            rest = _TailSums(tail, m, count, z_count) if m < count else _NO_TAIL
            split[m] = (_materialise(lam, tail, m), rest)
        return split[m]

    return modes


def _lr2_neg_log(modes, x: float) -> float:
    """Second-order saddlepoint lower-tail of Q = sum lam_k xi_k^2 at x.
    ``modes`` is the array lam, or a function giving (lam, rest) at the
    saddle variable v: modes summed elementwise and a ``_TailSums`` over the
    others.  An array spares each brentq step that call, ~5% of a radius on
    a few hundred modes."""
    split = None if isinstance(modes, np.ndarray) else modes

    def kprime_gap(v):
        if split is None:
            return float((modes / (1.0 + 2.0 * v * modes)).sum()) - x
        lam, rest = split(v)
        return float((lam / (1.0 + 2.0 * v * lam)).sum()) + rest.moment(v, 1) - x

    v_hi = 1.0
    while kprime_gap(v_hi) > 0.0:
        v_hi *= 4.0
        if v_hi > 1e300:
            raise NumericsError("saddlepoint bracket failed")
    v = brentq(kprime_gap, 0.0, v_hi, rtol=8.9e-16, maxiter=200)
    u = -v
    lam, rest = (modes, _NO_TAIL) if split is None else split(v)
    r = 1.0 + 2.0 * v * lam
    cgf = -0.5 * (float(np.log(r).sum()) + rest.log1p(v))
    s2 = 2.0 * (u * x - cgf)
    if s2 <= 0.0:
        raise NumericsError("degenerate saddlepoint")
    w = -math.sqrt(s2)  # lower tail: u < 0
    k2 = float((2.0 * lam**2 / r**2).sum()) + 2.0 * rest.moment(v, 2)
    k3 = float((8.0 * lam**3 / r**3).sum()) + 8.0 * rest.moment(v, 3)
    k4 = float((48.0 * lam**4 / r**4).sum()) + 48.0 * rest.moment(v, 4)
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
    """(route, count) of ``l2_smallball`` at energy x = eps^2: the number of
    modes it sums, the head grown while the tail beyond holds more than
    1e-3 x (a count still short at the mode cap used as it is), and "saddle"
    below the energy of those modes or "imhof" at or above it.  Builds no
    mode array."""
    lam, tail = spectrum.lambdas, spectrum.tail
    count, energy = lam.size, float(lam.sum())
    if tail is not None:
        count = _grown(count, lambda k: tail.trace_beyond(k) > 1e-3 * x)
        energy += tail.trace_beyond(lam.size) - tail.trace_beyond(count)
    return ("imhof" if x >= energy * (1.0 - 1e-12) else "saddle"), count


def l2_smallball(spectrum: EigenSpectrum, eps: float) -> float:
    """-log P(||X||_2 <= eps) for the Gaussian law with this spectrum.

    Saddlepoint (second order) over the head and the tail-law modes up to the
    stop count of ``_l2_route``: only the first M modes are materialised
    (``_saddle_modes``), the rest summed by Hurwitz power sums.  If eps^2 is
    at or above the mean energy there is no lower saddle, and Imhof's exact
    inversion runs on all the modes instead.  A saddle short of modes at the
    cap warns.
    """
    if not (0.0 < eps < math.inf):
        raise SpecError(f"radius must be finite and > 0, got {eps}")
    x = eps * eps
    route, count = _l2_route(spectrum, x)
    tail = spectrum.tail
    resid = tail.trace_beyond(count) if tail else 0.0
    if route == "imhof":
        # unmaterialised modes act as exp(-s * residual trace) here, i.e. a
        # plain shift of the energy level
        return _upper_tail_neg_log(_materialise(spectrum.lambdas, tail, count), x - resid)
    if resid > 1e-3 * x:  # the head stopped short at the mode cap
        msg = "l2_smallball at eps = %g: the %d-mode cap leaves out %.2g of eps^2"
        _log.warning(msg, eps, _MAX_MODES, resid / x)
    return _lr2_neg_log(_saddle_modes(spectrum, count), x)


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
