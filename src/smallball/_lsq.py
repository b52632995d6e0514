"""Damped Gauss-Newton for the package's small nonlinear least-squares fits.

All three nonlinear fitters (the offset rate law in ``estimation.rate_fit``,
the shifted eigenvalue law in ``spectral.eigen_rate_fit`` and the growth law
c + k lambda^b in ``estimation.debruijn_check``) have three or four parameters
and a few dozen points, so a plain Levenberg-damped Gauss-Newton is enough.
"""
from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import NumericsError


def gauss_newton(
    model: Callable, y: np.ndarray, w: np.ndarray, p0: np.ndarray, max_iter: int = 100
):
    """Minimise sum w (y - f(p))^2 from p0.

    ``model(p)`` returns ``(f, jac)`` with ``jac[i, j] = d f_i / d p_j``, or
    None where p is infeasible; p0 must be feasible.  A step is accepted only
    if it is feasible and does not raise the weighted residual sum; a rejected
    step raises the Levenberg damping tenfold.  Returns ``(p, cov, resid)``
    with ``cov = (J' W J)^-1`` at the solution; raises NumericsError when a
    normal matrix is singular.
    """
    # the minimiser does not depend on the weights' scale; normalising them
    # keeps the damped normal matrix finite for weights near 1e300
    w_max = float(w.max())
    w = w / w_max
    p = np.asarray(p0, dtype=float)
    f, jac = model(p)
    resid = y - f
    rss = float((w * resid**2).sum())
    mu = 0.0
    for _ in range(max_iter):
        a = jac.T @ (jac * w[:, None])
        g = jac.T @ (w * resid)
        trial: Optional[tuple] = None
        while mu <= 1e12:
            try:
                step = np.linalg.solve(a + mu * np.diag(np.diag(a)), g)
            except np.linalg.LinAlgError as exc:
                raise NumericsError("singular normal matrix in Gauss-Newton") from exc
            out = model(p + step)
            if out is not None:
                r_new = y - out[0]
                rss_new = float((w * r_new**2).sum())
                if rss_new <= rss:
                    trial = (p + step, out[1], r_new, rss_new)
                    break
            mu = max(10.0 * mu, 1e-3)
        if trial is None:
            break
        small = np.all(np.abs(step) <= 1e-13 * (1.0 + np.abs(p)))
        p, jac, resid, rss_old, rss = trial[0], trial[1], trial[2], rss, trial[3]
        mu *= 0.1
        if small or rss_old - rss <= 1e-15 * rss:
            break
    a = jac.T @ (jac * w[:, None])
    try:
        cov = np.linalg.inv(a) / w_max
    except np.linalg.LinAlgError as exc:
        raise NumericsError("singular normal matrix in Gauss-Newton") from exc
    return p, cov, resid
