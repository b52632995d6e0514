"""Small-ball curves, rate fitting, and rate-transfer arithmetic.

A small-ball curve tabulates -log P(||X|| <= eps) on a decreasing radius
grid, either by Monte Carlo (with delta-method standard errors) or from the
spectral evaluator.  Rates follow the parametrisation

    -log P(||X|| <= eps) ~ kappa * eps^(-1/tau) * |log eps|^theta

and converse-side assumptions use P(||X|| <= eps) >= exp(-c eps^(-1/gamma'))
style laws with gamma in [0, 1).  The fitter is weighted least squares in
log-log coordinates with an intrinsic-scatter term solved so that the
weighted chi-square equals its degrees of freedom; this keeps deep, tiny-
stderr points from dominating when the power law is only asymptotic.  It
fits the pure law above and, nested in it, the law plus an additive
constant c, kappa * eps^(-1/tau) * |log eps|^theta + c, which it keeps only
when an F-test on the weighted residuals rejects the pure law at the 1%
level (the Brownian sup-norm law, for one, carries c = -log(4/pi)).  The
normal and F kernels are the scipy.special ufuncs ndtr and fdtri, with the
bits of scipy.stats.norm.cdf and scipy.stats.f.ppf.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq
from scipy.special import fdtri, ndtr

from . import _rng
from ._lsq import gauss_newton
from .errors import EmptyCurveError, FitDegenerateError, NumericsError, SpecError
from .norms import Lp, _regularity_gap, batch_norms
from .processes import (
    Grid,
    _gaussian_chunk,
    effective_hurst,
    map_paths,
    sample_positive_stable,
)
from .spectral import EigenSpectrum, _l2_route, l2_smallball

MAX_GRID = 4096


# ---------------------------------------------------------------------------
# curves


@dataclass(frozen=True)
class CurveEntry:
    eps: float
    neg_log_p: float
    stderr: float  # stderr of neg_log_p (delta method for MC, 0 for exact)
    n_hits: Optional[int]
    usable: bool
    trusted: bool
    method: str

    @property
    def prob(self) -> tuple:
        """(p, stderr of p) by the delta method; (0, 0) when unusable."""
        if not self.usable:
            return 0.0, 0.0
        p = math.exp(-self.neg_log_p)
        return p, p * self.stderr


@dataclass(frozen=True)
class SmallBallCurve:
    entries: tuple
    norm: object
    spec: object = None
    n_samples: Optional[int] = None
    grid_n: Optional[int] = None

    def __post_init__(self):
        eps = [e.eps for e in self.entries]
        if len(eps) == 0:
            raise SpecError("curve needs at least one entry")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise SpecError("curve radii must be strictly decreasing")


def _radii(eps_list) -> list:
    """Radii as floats, read once (a generator works), checked positive and
    distinct, sorted decreasing."""
    eps_list = [float(e) for e in eps_list]
    eps = sorted(set(eps_list), reverse=True)
    if not eps or len(eps) != len(eps_list) or not all(e > 0.0 for e in eps):
        raise SpecError(f"need distinct positive radii, got {eps_list}")
    return eps


def _policy_grid(spec, eps_min: float) -> Grid:
    h = effective_hurst(spec)
    if h >= 0.5:
        n = 10.0 / eps_min
    else:
        n = (10.0 / eps_min) ** (1.0 / h)
    return Grid(int(np.clip(math.ceil(n), 64, MAX_GRID)))


def mc_smallball(
    spec,
    norm,
    eps_list,
    n_samples: int,
    seed: int = _rng.DEFAULT_SEED,
    grid: Optional[Grid] = None,
) -> SmallBallCurve:
    """Monte Carlo small-ball curve; one path batch serves every radius.

    Entries with zero hits are kept but flagged unusable; an all-zero curve
    raises EmptyCurveError.  Each entry also carries a ``trusted`` flag,
    False when eps is within 5 median max-increments of the discretisation
    scale (the curve is then dominated by grid bias, not the process).
    """
    eps = np.asarray(_radii(eps_list))
    if grid is None:
        grid = _policy_grid(spec, float(eps.min()))
    norms_all = np.empty(max(n_samples, 0))  # map_paths rejects n_samples < 1
    incs_all = np.empty_like(norms_all)

    def reduce(rows, vals):
        norms_all[rows] = batch_norms(vals, norm)
        # max |increment| from the origin on, in one temporary
        d = np.subtract(vals[:, 1:], vals[:, :-1])
        np.abs(d, out=d)
        inc = d.max(axis=1, initial=0.0)
        incs_all[rows] = np.maximum(inc, np.abs(vals[:, 0]))

    # this module's sampler bindings, so that each block's draw is one
    # estimation._gaussian_chunk call
    map_paths(spec, grid, n_samples, seed, reduce, _gaussian_chunk, sample_positive_stable)

    norms_all.sort()
    hits = np.searchsorted(norms_all, eps, side="right")
    if hits.max() == 0:
        raise EmptyCurveError("no radius received a single hit; enlarge eps or N")
    # E max-increment is infinite for stable mixtures, so use the median
    inc_scale = float(np.median(incs_all))
    entries = []
    for e, h in zip(eps, hits):
        if h == 0:
            entries.append(
                CurveEntry(float(e), math.inf, math.inf, 0, False, False, "mc")
            )
            continue
        p = h / n_samples
        nl = -math.log(p)
        se = math.sqrt((1.0 - p) / (n_samples * p))
        entries.append(
            CurveEntry(float(e), nl, se, int(h), True, bool(e >= 5.0 * inc_scale), "mc")
        )
    return SmallBallCurve(
        tuple(entries), norm, spec=spec, n_samples=n_samples, grid_n=grid.n
    )


def spectral_smallball_curve(spectrum: EigenSpectrum, eps_list) -> SmallBallCurve:
    """Exact-method curve from the spectral evaluator (stderr 0), each entry
    labelled with the route ``l2_smallball`` took: "saddle" or "imhof"."""
    entries = tuple(
        CurveEntry(
            e, l2_smallball(spectrum, e), 0.0, None, True, True, _l2_route(spectrum, e * e)[0]
        )
        for e in _radii(eps_list)
    )
    return SmallBallCurve(entries, Lp(2.0), spec=None, n_samples=None, grid_n=None)


# ---------------------------------------------------------------------------
# rate laws and fitting


@dataclass(frozen=True)
class RateLaw:
    """neg log p ~ kappa * eps^(-1/tau) * |log eps|^theta + offset (tau may
    be inf); ``offset`` is the additive constant, 0 unless a fit found one."""

    kappa: float
    tau: float
    theta: float = 0.0
    r2: Optional[float] = None
    slope_se: Optional[float] = None
    offset: float = 0.0

    def __post_init__(self):
        if not (self.kappa > 0.0):
            raise SpecError(f"kappa must be > 0, got {self.kappa}")
        if not (self.tau > 0.0):
            raise SpecError(f"tau must be > 0, got {self.tau}")


@dataclass(frozen=True)
class ConverseLaw:
    """Lower-bound law with exponent 1/gamma', gamma in [0, 1); gamma = 0
    encodes a sub-polynomial (logarithmic) small-ball decay."""

    gamma: float
    delta: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.gamma < 1.0):
            raise SpecError(f"gamma must be in [0, 1), got {self.gamma}")


def _selected_points(curve: SmallBallCurve):
    xs, ys, ss = [], [], []
    for e in curve.entries:
        if not e.usable or not math.isfinite(e.neg_log_p) or e.neg_log_p <= 0.0:
            continue
        if curve.n_samples is not None:
            p = math.exp(-e.neg_log_p)
            if p < 10.0 / curve.n_samples or p > 0.9:
                continue
        xs.append(math.log(1.0 / e.eps))
        ys.append(math.log(e.neg_log_p))
        ss.append(e.stderr / e.neg_log_p)
    return np.array(xs), np.array(ys), np.array(ss)


def _wls(design: np.ndarray, y: np.ndarray, w: np.ndarray):
    a = design.T @ (design * w[:, None])
    b = design.T @ (w * y)
    coef = np.linalg.solve(a, b)
    cov = np.linalg.inv(a)
    resid = y - design @ coef
    return coef, cov, resid


def _scatter_fit(fit, sig: np.ndarray, dof: int):
    """Run ``fit(w) -> (coef, cov, resid)`` with weights 1/(sig^2 + s2), the
    intrinsic scatter s2 solved so that the weighted chi-square equals dof.
    Returns the fit at the solved scatter and its weights."""
    s2 = 0.0
    for _ in range(200):
        w = 1.0 / np.maximum(sig**2 + s2, 1e-300)
        coef, cov, resid = fit(w)
        if dof <= 0:
            break
        hi = float((resid**2).sum()) / dof + 1.0

        def gap(s):
            return float((resid**2 / np.maximum(sig**2 + s, 1e-300)).sum()) - dof

        # zero scatter when these residuals already fit within their errors
        s2_new = brentq(gap, 0.0, hi, rtol=1e-12) if gap(0.0) > 0 else 0.0
        if abs(s2_new - s2) <= 1e-12 * (1.0 + s2):
            s2 = s2_new
            break
        s2 = s2_new
    w = 1.0 / np.maximum(sig**2 + s2, 1e-300)
    coef, cov, resid = fit(w)
    return coef, cov, resid, w, s2


def rate_fit(curve: SmallBallCurve, theta_fixed: Optional[float] = 0.0) -> RateLaw:
    """Fit the rate law neg log p = kappa eps^(-1/tau) |log eps|^theta + c.

    The pure power law (c = 0) is a weighted linear fit in log-log
    coordinates.  The nested offset model, with c free, is fitted by
    Gauss-Newton in the same coordinates and enters only when the curve's
    own residuals reject the pure law: an F-test at the 1% level on the
    weighted residuals of both fits.  The Brownian sup-norm law
    (pi^2/8) eps^-2 - log(4/pi) needs it: over eps in [0.3, 1] a pure fit to
    the exact curve reads 2.156.  Laws whose correction is not constant (the
    L2 law carries a log term) are not improved enough by it and keep the
    pure fit.  When the offset enters,
    kappa, tau, r2 and slope_se are those of the offset fit, with its own
    intrinsic scatter, and the law carries the fitted c as ``offset``.

    theta_fixed pins the log exponent (default 0); pass None to estimate it,
    which raises FitDegenerateError when log eps and log|log eps| are too
    collinear over the requested radius range to separate.
    """
    x, y, sig = _selected_points(curve)
    est_theta = theta_fixed is None
    n_par = 3 if est_theta else 2
    if x.size < n_par + 1:
        raise SpecError(
            f"need at least {n_par + 1} usable points in the fit window, have {x.size}"
        )
    if (est_theta or theta_fixed != 0.0) and np.any(x <= 0.0):
        raise SpecError("log-log-log terms need every radius < 1")
    if est_theta:
        lx = np.log(x)
        # collinearity guard: R^2 of log x regressed on x
        r = np.corrcoef(x, lx)[0, 1]
        if r * r > 0.995:
            raise FitDegenerateError(
                "log eps and log|log eps| are collinear here; pass theta_fixed"
            )
        design = np.column_stack([np.ones_like(x), x, lx])
    else:
        design = np.column_stack([np.ones_like(x), x])
    base = theta_fixed * np.log(np.maximum(x, 1e-300)) if theta_fixed else np.zeros_like(x)
    y_fit = y - base

    dof = x.size - n_par
    fit = _scatter_fit(lambda w: _wls(design, y_fit, w), sig, dof)
    if float(fit[0][1]) <= 0.0:
        raise SpecError("curve does not decrease in eps; no rate to fit")
    nested = _offset_fit(design, base, y, sig, fit, dof)
    if nested is not None:
        fit, dof = nested, dof - 1
    coef, cov, resid, w, s2 = fit
    slope = float(coef[1])
    ybar = float((w * y_fit).sum() / w.sum())
    tss = float((w * (y_fit - ybar) ** 2).sum())
    r2 = 1.0 - float((w * resid**2).sum()) / tss if tss > 0 else 1.0
    slope_se = float(math.sqrt(max(cov[1, 1], 0.0)))
    if dof <= 0 or (s2 == 0.0 and np.all(sig == 0.0)):
        # unweighted residual scale for exact curves
        scale = float((resid**2).sum()) / dof if dof > 0 else 0.0
        slope_se = float(math.sqrt(max(cov[1, 1] * scale, 0.0)))
    theta = float(coef[2]) if est_theta else float(theta_fixed)
    return RateLaw(
        kappa=float(math.exp(coef[0])),
        tau=1.0 / slope,
        theta=theta,
        r2=r2,
        slope_se=slope_se,
        offset=float(coef[-1]) if nested is not None else 0.0,
    )


def _offset_fit(design, base, y, sig, pure, dof):
    """The offset fit of ``rate_fit``, y = log(exp(design @ b + base) + c),
    with its own scatter; None when the F-test at the 1% level keeps the
    pure fit ``pure`` (or when the offset law cannot be fitted)."""
    coef0, _cov, resid0, w0, _s2 = pure
    dof1 = dof - 1
    # a pure law that fits to 1e-10 leaves the offset only rounding to fit
    if dof1 < 1 or np.all(np.abs(resid0) <= 1e-10 * np.ptp(y)):
        return None

    def model(p):
        g = np.exp(design @ p[:-1] + base)
        m = g + p[-1]
        if not np.all(m > 0.0):
            return None
        return np.log(m), np.column_stack([design * (g / m)[:, None], 1.0 / m])

    def fit(w):
        return gauss_newton(model, y, w, p0)

    p0 = np.append(coef0, 0.0)
    try:
        rss0 = float((w0 * resid0**2).sum())
        rss1 = float((w0 * fit(w0)[2] ** 2).sum())
        f_stat = (rss0 - rss1) / (rss1 / dof1) if rss1 > 0.0 else math.inf
        if not f_stat > fdtri(1, dof1, 0.99):  # scipy.stats.f.ppf's kernel
            return None
        nested = _scatter_fit(fit, sig, dof1)
    except NumericsError:
        return None
    return nested if nested[0][1] > 0.0 else None


# ---------------------------------------------------------------------------
# transfer arithmetic


@dataclass(frozen=True)
class TransferResult:
    exponent: float
    log_exponent: float
    constant: Optional[float] = None
    d_star: Optional[float] = None

    @property
    def resolved(self) -> bool:
        return self.constant is not None


def debruijn_constant(kappa: float, tau: float) -> float:
    """Growth constant of -log Laplace at lambda -> inf implied by the rate
    (kappa, tau): K = (1+a) a^(-a/(1+a)) kappa^(1/(1+a)) 2^(-a/(1+a)),
    a = 1/(2 tau)."""
    if math.isinf(tau):
        return kappa
    a = 1.0 / (2.0 * tau)
    return (
        (1.0 + a)
        * a ** (-a / (1.0 + a))
        * kappa ** (1.0 / (1.0 + a))
        * 0.5 ** (a / (1.0 + a))
    )


def transfer_bound(
    law: RateLaw, m: float, norm, kappa_norm: Optional[float] = None
) -> TransferResult:
    """Rate of the m-fold antiderivative in the given norm, from the L2 rate
    of the rough part.  The constant is resolved only when the comparison
    norm constant is supplied; otherwise it is reported as unresolved.

    The resolved constant is the minimum over D > 0 of the Chen-Li balance
    kappa_norm * D^(-g) + K * D^e, with g = 1/(m - 1/2 - beta - 1/p),
    e = 1/(tau + 1/2) and K the Laplace growth constant of the law.  It sits
    where g * kappa_norm * D^(-g) = e * K * D^e, in closed form
    D* = (g kappa_norm / (e K))^(1/(g+e)), with minimum (1 + e/g) K D*^e."""
    if not (m > 0.0):
        raise SpecError(f"order m must be > 0, got {m}")
    if kappa_norm is not None and not (0.0 < kappa_norm < math.inf):
        raise SpecError(f"kappa_norm must be positive and finite, got {kappa_norm}")
    gap = _regularity_gap(m, norm)
    if math.isinf(law.tau):
        if gap <= 0.0:
            raise SpecError("m - beta - 1/p must be positive for the transfer")
        return TransferResult(1.0 / gap, 0.0, constant=law.kappa, d_star=None)
    denom = law.tau + gap
    if denom <= 0.0:
        raise SpecError("tau + m - beta - 1/p must be positive for the transfer")
    exponent = 1.0 / denom
    log_exponent = law.theta * law.tau / denom
    if kappa_norm is None:
        return TransferResult(exponent, log_exponent)
    gamma_gap = _regularity_gap(m - 0.5, norm)
    if gamma_gap <= 0.0:
        raise SpecError("constant resolution needs m - 1/2 - beta - 1/p > 0")
    g, e = 1.0 / gamma_gap, 1.0 / (law.tau + 0.5)
    k_const = debruijn_constant(law.kappa, law.tau)
    d_star = (g * kappa_norm / (e * k_const)) ** (1.0 / (g + e))
    constant = (1.0 + e / g) * k_const * d_star**e
    return TransferResult(exponent, log_exponent, constant=constant, d_star=d_star)


def converse_transfer(law: ConverseLaw, m: float, norm) -> TransferResult:
    """Converse direction: a lower-bound exponent for the rough part from an
    upper small-ball law of the smooth image."""
    if not (m > 0.0):
        raise SpecError(f"order m must be > 0, got {m}")
    gap = _regularity_gap(m, norm)
    if law.gamma == 0.0:
        return TransferResult(0.0, 0.0)
    denom = 1.0 / law.gamma - gap
    if denom <= 0.0:
        raise SpecError("1/gamma - m + beta + 1/p must be positive")
    return TransferResult(1.0 / denom, law.delta / (law.gamma * denom))


# ---------------------------------------------------------------------------
# verification helpers


@dataclass(frozen=True)
class RegularityVerdict:
    passed: bool
    slope: float
    bound: float
    slope_se: Optional[float]


def regularity_bound_check(spec, m: float, norm, curve: SmallBallCurve):
    """PASS iff the fitted small-ball slope does not exceed the regularity
    ceiling 1/(m - beta - 1/p) by more than the 0.1 allowance."""
    if not (m > 0.0):
        raise SpecError(f"order m must be > 0, got {m}")
    gap = _regularity_gap(m, norm)
    if gap <= 0.0:
        raise SpecError("m - beta - 1/p must be positive")
    fit = rate_fit(curve, theta_fixed=0.0)
    slope = 1.0 / fit.tau
    bound = 1.0 / gap + 0.1
    return RegularityVerdict(bool(slope <= bound), slope, bound, fit.slope_se)


@dataclass(frozen=True)
class DebruijnResult:
    k_hat: float
    max_rel_dev: float
    growth_exponent: float
    growth_coef: float
    degenerate: bool


def debruijn_check(spectrum: EigenSpectrum, law: RateLaw, lam_grid=None):
    """Compare -log Laplace growth against K lambda^(1/(tau+1/2)).

    Fits K by least squares on the fixed-exponent model and reports the sup
    relative deviation, then refits the growth exponent freely; curves whose
    deviation exceeds 25% are flagged degenerate (the spectrum does not obey
    the claimed rate at these lambda).
    """
    from .spectral import neg_log_laplace

    if lam_grid is None:
        lam_grid = np.geomspace(10.0, 1e3, 16)
    lam_grid = np.asarray(lam_grid, dtype=float)
    if not np.all((lam_grid >= 10.0 - 1e-9) & (lam_grid <= 1e3 + 1e-6)):  # NaN too
        raise SpecError("lambda grid must lie within [10, 1000]")
    y = np.array([neg_log_laplace(spectrum, la) for la in lam_grid])
    a = 1.0 / (law.tau + 0.5)
    t_exp = law.theta * law.tau / (law.tau + 0.5)
    phi = lam_grid**a * np.log(lam_grid) ** t_exp
    k_hat = float((phi * y).sum() / (phi * phi).sum())
    model = k_hat * phi
    dev = float(np.max(np.abs(y - model) / model))

    def growth(p):  # c + k lambda^b
        pw = lam_grid ** p[2]
        jac = np.column_stack([np.ones_like(pw), pw, p[1] * pw * np.log(lam_grid)])
        return p[0] + p[1] * pw, jac

    p0 = np.array([0.0, max(k_hat, 1e-3), max(a, 0.1)])
    try:
        popt = gauss_newton(growth, y, np.ones_like(y), p0)[0]
        g_coef, g_exp = float(popt[1]), float(popt[2])
    except NumericsError:
        g_coef, g_exp = math.nan, math.nan
    return DebruijnResult(k_hat, dev, g_exp, g_coef, bool(dev > 0.25))


def brownian_sup_prob(eps: float) -> float:
    """P(sup_{[0,1]} |B| <= eps), two-sided reflection series (exact)."""
    if not (eps > 0.0):
        raise SpecError(f"radius must be > 0, got {eps}")
    if eps < 1.0:
        k = np.arange(64)
        terms = (-1.0) ** k / (2.0 * k + 1.0) * np.exp(
            -math.pi**2 * (2.0 * k + 1.0) ** 2 / (8.0 * eps**2)
        )
        return float(4.0 / math.pi * terms.sum())
    k = np.arange(-40, 41)
    vals = (-1.0) ** np.abs(k) * (ndtr((2.0 * k + 1.0) * eps) - ndtr((2.0 * k - 1.0) * eps))
    return float(min(vals.sum(), 1.0))
