"""Norms and seminorms on discretised paths over [0, 1].

A path is represented by its values at the interior grid points t_i = i/n,
i = 1..n, with the value at t_0 = 0 pinned to zero.  Integral norms use the
trapezoid rule on the full grid including the origin.

Each norm variant reports a regularity pair (beta, p) through ``beta_p``;
the pair feeds the rate-transfer arithmetic in :mod:`smallball.estimation`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecError


@dataclass(frozen=True)
class Lp:
    """L^p norm, 1 <= p <= inf (math.inf for the sup norm)."""

    p: float

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise SpecError(f"Lp requires p >= 1, got {self.p}")


@dataclass(frozen=True)
class Holder:
    """Holder seminorm of exponent eta in (0, 1), over all grid pairs."""

    eta: float

    def __post_init__(self):
        if not (0.0 < self.eta < 1.0):
            raise SpecError(f"Holder requires eta in (0, 1), got {self.eta}")


@dataclass(frozen=True)
class L2Squared:
    """Squared L^2 norm; auxiliary functional for reproducing-kernel terms."""


NormSpec = (Lp, Holder, L2Squared)


def beta_p(norm):
    """Regularity pair (beta, p) of a norm variant.

    Lp(p) -> (-1/p, p); the sup norm gives (0, inf).  Holder(eta) -> (eta, inf).
    L2Squared is classified like the underlying L^2 norm, (-1/2, 2).
    """
    if isinstance(norm, Lp):
        if math.isinf(norm.p):
            return (0.0, math.inf)
        return (-1.0 / norm.p, norm.p)
    if isinstance(norm, Holder):
        return (norm.eta, math.inf)
    if isinstance(norm, L2Squared):
        return (-0.5, 2.0)
    raise SpecError(f"unknown norm spec {norm!r}")


def _regularity_gap(m: float, norm) -> float:
    """m - beta - 1/p for the norm's regularity pair (1/p = 0 for p = inf)."""
    beta, p = beta_p(norm)
    return m - beta - (0.0 if math.isinf(p) else 1.0 / p)


def _trapz_pow(values: np.ndarray, p: float) -> np.ndarray:
    # values: (..., n) at t_1..t_n, origin value 0 implicit
    n = values.shape[-1]
    a = np.abs(values) ** p
    # trapezoid with x_0 = 0: h * (sum_{1..n-1} + x_n / 2)
    return (a[..., :-1].sum(axis=-1) + 0.5 * a[..., -1]) / n


def batch_norms(values: np.ndarray, norm) -> np.ndarray:
    """Norms of a batch of paths, shape (count, n) -> (count,); a single
    path of shape (n,) gives shape (1,)."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[None, :]
    if isinstance(norm, Lp):
        if math.isinf(norm.p):
            return np.abs(values).max(axis=-1)
        return _trapz_pow(values, norm.p) ** (1.0 / norm.p)
    if isinstance(norm, L2Squared):
        return _trapz_pow(values, 2.0)
    if isinstance(norm, Holder):
        n = values.shape[-1]
        t = np.arange(n + 1) / n
        out = np.empty(values.shape[0])
        full = np.concatenate([np.zeros((values.shape[0], 1)), values], axis=1)
        dt = np.abs(t[None, :] - t[:, None])
        np.fill_diagonal(dt, 1.0)  # avoid 0/0; diagonal differences are 0
        w = dt**-norm.eta
        for i in range(values.shape[0]):
            dx = np.abs(full[i, None, :] - full[i, :, None])
            out[i] = (dx * w).max()
        return out
    raise SpecError(f"unknown norm spec {norm!r}")
