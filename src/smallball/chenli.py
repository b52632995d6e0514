"""Lower-bound comparison for small balls of smooth Gaussian processes.

For Y with an order-m rough derivative X, the product inequality

    P(||Y|| <= eps)  >=  P(||R|| <= lam * eps) * E exp(-(lam^2/2) ||X||_2^2)

holds for every lam > 0, with R the comparison process tied to m by
h = m - 1/2.  ``chenli_bound`` evaluates both sides (left by Monte Carlo,
right by exact series / spectral Laplace transform where available) and
reports the margin in standard errors.  ``optimize_lambda`` picks the lam
that balances the two right-hand factors under a fitted rate law, at the
closed-form balance point D* of ``estimation.transfer_bound``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import _rng
from .errors import SpecError
from .estimation import (
    RateLaw,
    brownian_sup_prob,
    debruijn_constant,
    mc_smallball,
    rate_fit,
    transfer_bound,
)
from .norms import Lp, _regularity_gap
from .processes import BrownianMotion, Grid, RiemannLiouville, derivative
from .spectral import brownian_spectrum, laplace_transform_l2, nystrom_eigen

_SPECTRUM_GRID = 1024
_SPECTRUM_MODES = 4096


@dataclass(frozen=True)
class ChenLiQuery:
    target: object
    comparison: object
    m: float
    norm: object
    eps: float
    lam: float

    def __post_init__(self):
        if not (self.eps > 0.0 and self.lam > 0.0):
            raise SpecError("eps and lam must be positive")
        if not (self.m > 0.5):
            raise SpecError(f"order m must exceed 1/2, got {self.m}")
        h = self.m - 0.5
        if isinstance(self.comparison, BrownianMotion):
            if abs(h - 0.5) > 1e-12:
                raise SpecError("Brownian comparison requires m = 1")
        elif isinstance(self.comparison, RiemannLiouville):
            if abs(self.comparison.h - h) > 1e-12:
                raise SpecError(
                    f"comparison index {self.comparison.h} != m - 1/2 = {h}"
                )
        else:
            raise SpecError("comparison must be BrownianMotion or RiemannLiouville")


@dataclass(frozen=True)
class ChenLiResult:
    eps: float
    lam: float
    lhs: float
    lhs_se: float
    rhs: float
    margin_se: float
    trivial: bool  # rhs underflowed to 0; the inequality holds vacuously


def derivative_spectrum(target, m: float):
    """Spectrum of the order-m derivative of the target: analytic when the
    structural derivative is Brownian motion, else Nystrom on its spec."""
    d = derivative(target, m)
    if isinstance(d, BrownianMotion):
        return brownian_spectrum(_SPECTRUM_MODES)
    return nystrom_eigen(d, Grid(_SPECTRUM_GRID), _SPECTRUM_GRID)


def _comparison_prob(comparison, norm, radius: float, n_samples: int, seed: int):
    """P(||R|| <= radius): exact series for the Brownian sup norm, MC else."""
    if isinstance(comparison, BrownianMotion) and isinstance(norm, Lp) and math.isinf(
        norm.p
    ):
        return brownian_sup_prob(radius), 0.0
    return mc_smallball(comparison, norm, [radius], n_samples, seed=seed).entries[0].prob


def chenli_bound(
    q: ChenLiQuery,
    n_samples: int,
    seed: int = _rng.DEFAULT_SEED,
    grid: Optional[Grid] = None,
) -> ChenLiResult:
    """Evaluate both sides of the product lower bound at (eps, lam)."""
    # the two Monte Carlo sides draw from decoupled child seeds
    lhs_curve = mc_smallball(
        q.target, q.norm, [q.eps], n_samples, seed=_rng.child_seed(seed, 0), grid=grid
    )
    lhs, lhs_se = lhs_curve.entries[0].prob
    comp_p, _comp_se = _comparison_prob(
        q.comparison, q.norm, q.lam * q.eps, n_samples, _rng.child_seed(seed, 1)
    )
    lap = laplace_transform_l2(derivative_spectrum(q.target, q.m), q.lam)
    rhs = comp_p * lap
    margin = (lhs - rhs) / max(lhs_se, 1e-300)
    return ChenLiResult(q.eps, q.lam, lhs, lhs_se, rhs, margin, rhs == 0.0)


@dataclass(frozen=True)
class LambdaChoice:
    lam_star: float
    d_star: float
    constant: float
    gamma: float
    k_const: float


def optimize_lambda(q: ChenLiQuery, law: RateLaw, kappa_norm: float) -> LambdaChoice:
    """Balance the two right-hand factors: with gamma = 1/(h - beta - 1/p)
    and K the Laplace growth constant of the rate law, ``transfer_bound``
    gives the closed-form minimiser D* and minimum over D > 0 of

        kappa_norm * D^(-gamma) + K * D^(1/(tau+1/2))

    and lam = D* * eps^(-(tau+1/2)/(1/gamma+tau+1/2))
                 * |log eps|^(-tau theta/(gamma (1/gamma+tau+1/2))).
    """
    if not (0.0 < q.eps < 1.0):
        raise SpecError("lambda optimisation needs eps in (0, 1)")
    tau = law.tau
    if math.isinf(tau):
        raise SpecError("lambda optimisation needs a finite tau")
    res = transfer_bound(law, q.m, q.norm, kappa_norm)
    gamma = 1.0 / _regularity_gap(q.m - 0.5, q.norm)
    denom = 1.0 / gamma + tau + 0.5
    lam = res.d_star * q.eps ** (-(tau + 0.5) / denom)
    if law.theta != 0.0:
        lam *= abs(math.log(q.eps)) ** (-tau * law.theta / (gamma * denom))
    k_const = debruijn_constant(law.kappa, tau)
    return LambdaChoice(lam, res.d_star, res.constant, gamma, k_const)


@dataclass(frozen=True)
class RemainderResult:
    slope_x: float
    slope_y: float
    diff: float
    tolerance: float
    agree: bool


def remainder_term_check(
    y_spec,
    z_order: float,
    x_spec,
    norm,
    eps_list,
    n_samples: int,
    seed: int = _rng.DEFAULT_SEED,
    grid: Optional[Grid] = None,
) -> RemainderResult:
    """Fit both small-ball slopes on a shared radius range and test whether
    adding the order-z_order smooth remainder moved the rate.

    Tolerance is 3 combined slope standard errors, floored at 0.2; the floor
    reflects the fit granularity at feasible sample sizes.
    """
    if not (z_order > 0.0):
        raise SpecError(f"smooth-part order must be > 0, got {z_order}")
    eps_list = list(eps_list)  # both curves read it
    sx_seed, sy_seed = (_rng.child_seed(seed, tag) for tag in (2, 3))
    cx = mc_smallball(x_spec, norm, eps_list, n_samples, sx_seed, grid=grid)
    cy = mc_smallball(y_spec, norm, eps_list, n_samples, sy_seed, grid=grid)
    fx = rate_fit(cx, theta_fixed=0.0)
    fy = rate_fit(cy, theta_fixed=0.0)
    sx, sy = 1.0 / fx.tau, 1.0 / fy.tau
    tol = max(0.2, 3.0 * ((fx.slope_se or 0.0) + (fy.slope_se or 0.0)))
    diff = abs(sx - sy)
    return RemainderResult(sx, sy, diff, tol, bool(diff <= tol))
