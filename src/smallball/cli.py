"""Config-driven experiment runner.

Usage: smallball KIND --config cfg.json [--seed N] [--out DIR] [--n-samples N]

KIND is one of simulate | smallball | ratefit | transfer | chenli | eigen |
quantize | verify-all.  The config is a single JSON object; the three flags
override the matching scalar fields.  Every artifact starts with the manifest
header as '#'-prefixed comment lines (strip them before parsing JSON
artifacts).  Exit codes: 0 ok, 1 bad config/arguments, 2 numerical failure,
3 verification failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from ._rng import DEFAULT_SEED, DOMAIN_VERIFY, stream
from .errors import SmallballError, SpecError, VerificationError
from .estimation import (
    ConverseLaw,
    RateLaw,
    brownian_sup_prob,
    converse_transfer,
    debruijn_check,
    mc_smallball,
    rate_fit,
    transfer_bound,
)
from .norms import Holder, L2Squared, Lp, batch_norms
from .processes import (
    BrownianMotion,
    FbmRlDifference,
    FracIntegrated,
    FractionalBm,
    GaussianConvolution,
    Grid,
    Integrated,
    RiemannLiouville,
    StableScaledFbm,
    derivative,
    sample_paths,
    sample_positive_stable,
)
from .spectral import (
    EigenSpectrum,
    brownian_spectrum,
    eigen_rate_fit,
    integrated_brownian_spectrum,
    laplace_transform_l2,
    nystrom_eigen,
)


def _parse_spec(d):
    if not isinstance(d, dict) or "kind" not in d:
        raise SpecError("process spec must be an object with a 'kind' field")
    kind = str(d["kind"]).lower()
    try:
        if kind in ("brownian", "brownian_motion", "bm"):
            return BrownianMotion()
        if kind in ("fractional_bm", "fbm"):
            return FractionalBm(float(d["h"]))
        if kind in ("riemann_liouville", "rl"):
            return RiemannLiouville(float(d["h"]))
        if kind == "integrated":
            return Integrated(_parse_spec(d["base"]), int(d["m"]))
        if kind == "frac_integrated":
            return FracIntegrated(_parse_spec(d["base"]), float(d["order"]))
        if kind == "fbm_rl_difference":
            return FbmRlDifference(float(d["h"]))
        if kind == "gaussian_convolution":
            return GaussianConvolution(float(d["h"]), tuple(d["coeffs"]))
        if kind in ("stable_scaled_fbm", "stable_fbm"):
            return StableScaledFbm(float(d["h"]), float(d["alpha"]))
    except KeyError as k:
        raise SpecError(f"process spec '{kind}' missing field {k}") from None
    except (TypeError, ValueError) as e:
        raise SpecError(f"process spec '{kind}' has a bad field: {e}") from None
    raise SpecError(f"unknown process kind '{kind}'")


def _parse_norm(d):
    if not isinstance(d, dict) or "kind" not in d:
        raise SpecError("norm spec must be an object with a 'kind' field")
    kind = str(d["kind"]).lower()
    try:
        if kind == "lp":
            p = d.get("p")
            return Lp(math.inf if p in ("inf", "Inf", None) else float(p))
        if kind == "holder":
            return Holder(float(d["eta"]))
        if kind in ("l2sq", "l2_squared"):
            return L2Squared()
    except KeyError as k:
        raise SpecError(f"norm spec '{kind}' missing field {k}") from None
    except (TypeError, ValueError) as e:
        raise SpecError(f"norm spec '{kind}' has a bad field: {e}") from None
    raise SpecError(f"unknown norm kind '{kind}'")


def _version() -> str:
    return f"smallball-v{__version__}"


def _echo_config(config: dict) -> dict:
    # artifact placement is not part of the experiment
    return {k: v for k, v in config.items() if k != "out"}


def _manifest_lines(config: dict):
    echo = json.dumps(_echo_config(config), sort_keys=True, separators=(",", ":"))
    return [f"# {_version()}", f"# config: {echo}"]


def _write_lines(path: str, lines):
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def _write_csv(path, config, header, rows):
    lines = _manifest_lines(config) + [header]
    # str and repr agree on Python floats
    lines += [",".join(str(v) for v in row) for row in rows]
    _write_lines(path, lines)


def _write_json_artifact(path, config, payload: dict):
    body = json.dumps(payload, sort_keys=True, indent=2)
    _write_lines(path, _manifest_lines(config) + [body])


def _write_manifest(path, config, wall_s):
    payload = {"config": _echo_config(config), "version": _version()}
    if wall_s is not None:
        payload["wall_time_s"] = wall_s
    _write_lines(path, [json.dumps(payload, sort_keys=True, indent=2)])


_REQUIRED = object()


def _field(config: dict, name: str, conv, default=_REQUIRED):
    """config[name] read through conv, or default when absent; a missing
    required field, or a value conv rejects, raises SpecError naming it."""
    if name not in config:
        if default is _REQUIRED:
            raise SpecError(f"config missing required field: {name}")
        return default
    try:
        return conv(config[name])
    except (TypeError, ValueError, OverflowError) as e:
        raise SpecError(f"config field '{name}' is malformed: {e}") from None


def _floats(values):
    return [float(v) for v in values]


def _opt_float(value):
    return None if value is None else float(value)


def _tau(value):
    return math.inf if value in ("inf", None) else float(value)


def _grid(value):
    return Grid(int(value))


def _int_pair(value):
    lo, hi = value
    return int(lo), int(hi)


# ---------------------------------------------------------------------------
# experiment handlers; each writes its own artifacts into `out`


def _run_simulate(cfg, out):
    spec = _field(cfg, "process", _parse_spec)
    grid = _field(cfg, "grid_n", _grid)
    count = _field(cfg, "count", int, 8)
    paths = sample_paths(spec, grid, count, seed=_field(cfg, "seed", int))
    header = "t," + ",".join(f"path_{j}" for j in range(count))
    rows = [
        [float(t)] + [float(v) for v in paths[:, i]]
        for i, t in enumerate(grid.points)
    ]
    _write_csv(os.path.join(out, "simulate.csv"), cfg, header, rows)


def _curve_rows(curve):
    return [
        [e.eps, e.neg_log_p, e.stderr, e.method]
        for e in curve.entries
    ]


def _run_smallball(cfg, out):
    spec = _field(cfg, "process", _parse_spec)
    norm = _field(cfg, "norm", _parse_norm)
    eps = _field(cfg, "eps", _floats)
    n_samples = _field(cfg, "n_samples", int)
    grid = _field(cfg, "grid_n", _grid, None)
    seed = _field(cfg, "seed", int)
    curve = mc_smallball(spec, norm, eps, n_samples, seed=seed, grid=grid)
    _write_csv(
        os.path.join(out, "smallball.csv"),
        cfg,
        "eps,neg_log_p,stderr,method",
        _curve_rows(curve),
    )
    return curve


def _run_ratefit(cfg, out):
    curve = _run_smallball(cfg, out)
    law = rate_fit(curve, theta_fixed=_field(cfg, "theta_fixed", _opt_float, 0.0))
    _write_json_artifact(
        os.path.join(out, "ratefit.json"),
        cfg,
        {
            "kappa": law.kappa,
            "inv_tau": 1.0 / law.tau,
            "theta": law.theta,
            "r2": law.r2,
        },
    )


def _run_transfer(cfg, out):
    norm = _field(cfg, "norm", _parse_norm)
    m = _field(cfg, "m", float)
    direction = cfg.get("direction", "forward")
    if direction == "forward":
        law_cfg = _field(cfg, "law", dict)
        kappa = _field(law_cfg, "kappa", float)
        tau = _field(law_cfg, "tau", _tau, math.inf)
        law = RateLaw(kappa, tau, _field(law_cfg, "theta", float, 0.0))
        kn = _field(cfg, "kappa_norm", _opt_float, None)
        res = transfer_bound(law, m, norm, kappa_norm=kn)
    elif direction == "converse":
        law_cfg = _field(cfg, "law", dict)
        gamma = _field(law_cfg, "gamma", float)
        res = converse_transfer(
            ConverseLaw(gamma, _field(law_cfg, "delta", float, 0.0)), m, norm
        )
    else:
        raise SpecError(f"unknown transfer direction '{direction}'")
    _write_json_artifact(
        os.path.join(out, "transfer.json"),
        cfg,
        {
            "exponent": res.exponent,
            "log_exponent": res.log_exponent,
            "constant": res.constant if res.resolved else "unresolved",
            "d_star": res.d_star,
        },
    )


def _run_chenli(cfg, out):
    from .chenli import ChenLiQuery, chenli_bound

    target = _field(cfg, "target", _parse_spec)
    comparison = _field(cfg, "comparison", _parse_spec)
    norm = _field(cfg, "norm", _parse_norm)
    m = _field(cfg, "m", float)
    n_samples = _field(cfg, "n_samples", int)
    grid = _field(cfg, "grid_n", _grid, None)
    seed = _field(cfg, "seed", int)
    rows = []
    worst = math.inf
    for eps in sorted(_field(cfg, "eps", _floats), reverse=True):
        for lam in sorted(_field(cfg, "lam", _floats)):
            q = ChenLiQuery(target, comparison, m, norm, eps, lam)
            r = chenli_bound(q, n_samples, seed=seed, grid=grid)
            rows.append([lam, eps, r.lhs, r.rhs, r.margin_se])
            worst = min(worst, r.margin_se)
    _write_csv(
        os.path.join(out, "chenli.csv"),
        cfg,
        "lambda,eps,lhs,rhs,margin_stderr",
        rows,
    )
    if worst < -2.0:
        raise VerificationError(
            f"comparison inequality violated: margin {worst:.2f} stderr"
        )


def _make_spectrum(cfg):
    analytic = cfg.get("analytic")
    k = _field(cfg, "modes", int, 256)
    wants_derivative = _field(cfg, "derivative", bool, False)
    if analytic is not None and wants_derivative:
        raise SpecError("'derivative' needs a process spectrum, not 'analytic'")
    if analytic == "bm":
        return brownian_spectrum(k)
    if analytic == "ibm":
        return integrated_brownian_spectrum(k)
    if analytic is not None:
        raise SpecError(f"unknown analytic spectrum '{analytic}'")
    spec = _field(cfg, "process", _parse_spec)
    if wants_derivative:
        spec = derivative(spec)
    return nystrom_eigen(spec, _field(cfg, "grid_n", _grid), k)


def _run_eigen(cfg, out):
    spectrum = _make_spectrum(cfg)
    rows = [[int(i + 1), float(v)] for i, v in enumerate(spectrum.lambdas)]
    _write_csv(os.path.join(out, "eigen.csv"), cfg, "k,lambda", rows)
    k_range = _field(cfg, "k_range", _int_pair, None)
    if k_range is not None:
        lo, hi = k_range
        slope = eigen_rate_fit(spectrum, k_range)
        print(f"eigen slope over k in [{lo},{hi}]: {slope!r}")


def _run_quantize(cfg, out):
    from .quantize import quant_curve

    spectrum = _make_spectrum(cfg)
    spec = _field(cfg, "process", _parse_spec, None)
    budgets = _field(cfg, "budgets", _floats)
    n_mc = _field(cfg, "n_mc", int, 20000)
    qc = quant_curve(spec, spectrum, budgets, n_mc, seed=_field(cfg, "seed", int))
    _write_csv(
        os.path.join(out, "quantize.csv"),
        cfg,
        "r,distortion,stderr",
        [list(e) for e in qc.entries],
    )


# ---------------------------------------------------------------------------
# verify-all battery


def _verify_all(cfg, out):
    from .chenli import ChenLiQuery, chenli_bound
    from .fraccalc import frac_derivative, frac_integral
    from .quantize import quant_curve

    seed = _field(cfg, "seed", int)
    checks = []

    def record(name, value, threshold, passed):
        checks.append((name, float(value), float(threshold), bool(passed)))

    # transfer algebra is exact
    law = RateLaw(0.125, 0.5)
    fwd = transfer_bound(law, 1.0, Lp(math.inf))
    conv = converse_transfer(ConverseLaw(2.0 / 3.0), 1.0, Lp(math.inf))
    err = abs(fwd.exponent - 2.0 / 3.0) + abs(conv.exponent - 2.0)
    record("transfer_algebra", err, 1e-12, err < 1e-12)

    # Laplace transform against the closed form for the min kernel
    sp = brownian_spectrum(4096)
    err = max(
        abs(laplace_transform_l2(sp, la) - math.cosh(la) ** -0.5)
        for la in (1.0, 3.0, 10.0, 30.0)
    )
    record("laplace_identity", err, 1e-6, err < 1e-6)

    # fractional roundtrips
    t = np.arange(1, 1025) / 1024.0
    f = np.sin(math.pi * t)
    err = max(
        float(np.max(np.abs(frac_derivative(frac_integral(f, m), m) - f)))
        for m in (0.5, 1.0, 1.7)
    )
    record("frac_roundtrip", err, 1e-8, err < 1e-8)

    # sup-norm level at eps = 1 against the reflection series
    curve = mc_smallball(
        BrownianMotion(), Lp(math.inf), [1.0], 5000, seed=seed, grid=Grid(65536)
    )
    p_hat, se_p = curve.entries[0].prob
    gap = abs(p_hat - brownian_sup_prob(1.0))
    record("supnorm_level", gap, 3.0 * se_p, gap <= 3.0 * se_p)

    # eigenvalue slope gap between a kernel and its derivative kernel
    g = Grid(256)
    ibm = Integrated(BrownianMotion(), 1)
    s_ibm = eigen_rate_fit(nystrom_eigen(ibm, g, 64), (5, 40))
    s_der = eigen_rate_fit(nystrom_eigen(derivative(ibm), g, 64), (5, 40))
    gap = abs((s_der - s_ibm) - 2.0)
    record("eigen_gap", gap, 0.15, gap < 0.15)

    # quantization curve monotone
    qc = quant_curve(None, brownian_spectrum(200), [1.0, 2.0, 4.0], 4000, seed=seed)
    worst = 0.0
    for (r0, d0, s0), (r1, d1, s1) in zip(qc.entries, qc.entries[1:]):
        worst = max(worst, d1 - d0 - 2.0 * (s0 + s1))
    record("quant_monotone", worst, 0.0, worst <= 0.0)

    # Laplace growth against the fitted-rate prediction
    res = debruijn_check(sp, RateLaw(0.125, 0.5), np.geomspace(50.0, 1000.0, 16))
    record("debruijn_bm", res.max_rel_dev, 0.02, res.max_rel_dev < 0.02)

    # comparison inequality spot check
    q = ChenLiQuery(ibm, BrownianMotion(), 1.0, Lp(math.inf), 0.5, 2.0)
    r = chenli_bound(q, 4000, seed=seed, grid=Grid(256))
    record("chenli_margin", r.margin_se, -2.0, r.margin_se >= -2.0)

    # norm homogeneity
    x = stream(seed, DOMAIN_VERIFY, 0).standard_normal(200)
    worst = 0.0
    for nrm in (Lp(1.0), Lp(2.0), Lp(math.inf), Holder(0.5)):
        a, b = batch_norms(3.0 * x, nrm)[0], 3.0 * batch_norms(x, nrm)[0]
        worst = max(worst, abs(a - b) / b)
    record("norm_homogeneity", worst, 1e-12, worst < 1e-12)

    # positive stable sampler Laplace transform at u = 1
    s = sample_positive_stable(0.5, 200000, seed=seed)
    vals = np.exp(-s)
    gap = abs(float(vals.mean()) - math.exp(-1.0))
    se = float(vals.std(ddof=1)) / math.sqrt(vals.size)
    record("stable_laplace", gap, 4.0 * se, gap <= 4.0 * se)

    rows = [
        [name, value, threshold, "PASS" if ok else "FAIL"]
        for name, value, threshold, ok in checks
    ]
    _write_csv(
        os.path.join(out, "verify_all.csv"),
        cfg,
        "check,value,threshold,verdict",
        rows,
    )
    width = max(len(name) for name, *_ in checks)
    for name, value, threshold, ok in checks:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  value={value:.3g}")
    failed = [name for name, *_rest, ok in checks if not ok]
    if failed:
        raise VerificationError(f"checks failed: {', '.join(failed)}")


_HANDLERS = {
    "simulate": _run_simulate,
    "smallball": _run_smallball,
    "ratefit": _run_ratefit,
    "transfer": _run_transfer,
    "chenli": _run_chenli,
    "eigen": _run_eigen,
    "quantize": _run_quantize,
    "verify-all": _verify_all,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="smallball", description=__doc__)
    parser.add_argument("kind", choices=sorted(_HANDLERS))
    parser.add_argument("--config", required=False)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--n-samples", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            try:
                with open(args.config) as fh:
                    cfg = json.load(fh)
            except OSError as e:
                raise SpecError(f"cannot read config: {e}") from None
            except json.JSONDecodeError as e:
                raise SpecError(f"config is not valid JSON: {e}") from None
            if not isinstance(cfg, dict):
                raise SpecError("config must be a JSON object")
        else:
            cfg = {}
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg["out"] = args.out
        if args.n_samples is not None:
            cfg["n_samples"] = args.n_samples
        if "seed" not in cfg:
            if args.kind == "verify-all":
                cfg["seed"] = DEFAULT_SEED
            else:
                raise SpecError("config missing required field: seed")
        out = cfg.get("out", ".")
        os.makedirs(out, exist_ok=True)
        t0 = time.monotonic()
        _HANDLERS[args.kind](cfg, out)
        wall = time.monotonic() - t0
        # verify-all artifacts must be bitwise stable run to run, so its
        # manifest omits the wall time (reported on stdout instead)
        include_wall = args.kind != "verify-all"
        _write_manifest(
            os.path.join(out, f"{args.kind}.manifest.json"),
            cfg,
            round(wall, 6) if include_wall else None,
        )
        print(f"{args.kind}: done in {wall:.2f}s, artifacts in {out}")
        return 0
    except SmallballError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
