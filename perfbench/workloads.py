"""Seeded operation sequences for the benchmark workloads, with their checks.

Each workload is a closed loop with one client: ``build`` turns (workload,
seed, cycles) into a fixed list of operations that one process runs back to
back.  The op mix of a cycle and the order of its ops are fixed, so the
work does not depend on the seed; the seed draws only the radii, budgets,
Chen-Li points and per-op seeds.  The package sees only the generated
inputs.

Every op returns its result; ``digest`` hashes what the result says (hit
counts, curve values, spectra, distortions) so that two passes at different
worker counts can be compared byte for byte, and ``check`` tests it against
a reference the package already has.  Checks run after the timed loop.

Workloads, and why each was chosen:

* ``mc_curves`` -- Monte Carlo sup-norm curves each followed by a rate fit,
  plus L2-norm curves and Chen-Li bounds.  The specs cover every sampler
  route: cumsum (BM, and the stable mixture's fBm(1/2) base), circulant
  (fBm 0.7) and dense Cholesky (RL(1/2), integrated BM).  Some Cholesky ops
  repeat a (spec, grid) pair and some do not, so the factor cache both hits
  and misses.  This is the Monte Carlo hot path: RNG, path construction,
  norm reduction, increment scan and sort.
* ``spectral_l2`` -- Nystrom spectra and analytic BM / integrated-BM spectra
  evaluated by the saddlepoint and contour routes, Laplace transforms and de
  Bruijn checks.  No path is sampled: it is the bypass workload for every
  Monte Carlo change, and it loads covariance assembly and eigvalsh.
* ``quant_curves`` -- ``quant_curve`` ladders on 1500-mode BM and
  integrated-BM spectra, one of which reaches more than 128 levels on a
  coordinate, from a cold codebook cache.  Codebook solves, the greedy
  allocation and the distortion draws dominate; no covariance is built.
"""
from __future__ import annotations

import hashlib
import math
import random
import struct

import numpy as np

import smallball
from smallball import chenli, estimation, quantize, spectral

SUP = smallball.Lp(math.inf)
L2 = smallball.Lp(2.0)
BM = smallball.BrownianMotion()
IBM = smallball.Integrated(BM, 1)

SPECS = {
    "bm": BM,
    "fbm07": smallball.FractionalBm(0.7),
    "rl05": smallball.RiemannLiouville(0.5),
    "ibm": IBM,
    "stable": smallball.StableScaledFbm(0.5, 1.0),
    "ifbm03": smallball.Integrated(smallball.FractionalBm(0.3), 1),
    "frd07": smallball.FbmRlDifference(0.7),
    "rl03": smallball.RiemannLiouville(0.3),
    "fi05": smallball.FracIntegrated(BM, 0.5),
    "gc03": smallball.GaussianConvolution(0.3, (1.0,)),
}

# -- tolerances ------------------------------------------------------------------

# Discrete-grid maxima undershoot the continuous supremum by about
# beta * sqrt(1/n), beta = -zeta(1/2)/sqrt(2*pi) (Asmussen, Glynn & Pitman),
# so the reflection series is evaluated at eps + beta/sqrt(n).  What remains
# is Monte Carlo noise plus an O(1/n) bias: allow 5 delta-method standard
# errors (a false alarm about once in 10^6 entries) plus 0.01 in -log p.
AGP_BETA = 0.5825971579390107
REFLECTION_SE = 5.0
REFLECTION_ABS = 0.01
# Chen-Li: the product bound must hold up to Monte Carlo noise on the left
# side; the acceptance battery uses the same -2 standard-error margin.
CHENLI_MARGIN_SE = -2.0
# neg_log_laplace truncates its tail series at a relative target of 1e-8.
COSH_REL = 1e-8
# The trapezoid sandwich biases the Nystrom integrated-BM eigenvalues by
# about 2/n relative (measured: 3.9e-3 at n = 512, 1.95e-3 at n = 1024).
NYSTROM_REL_PER_N = 3.0
NYSTROM_MODES = 16
# e(2)^2 of the optimal two-level normal quantizer is 1 - 2/pi exactly.
E2_ABS = 1e-12
# MC distortions share the per-op seed across budgets (common random
# numbers); a larger budget may not read worse by more than 3 combined
# standard errors.
QUANT_MONO_SE = 3.0


class Op:
    """One client request: ``run(results)`` calls the package and returns the
    result; ``needs`` is the index of an earlier op whose result it uses."""

    __slots__ = ("kind", "args", "needs")

    def __init__(self, kind, args, needs=None):
        self.kind = kind
        self.args = args
        self.needs = needs

    def run(self, results):
        return RUNNERS[self.kind](self, results)


def _radii(rng, lo, hi, k):
    """k distinct decreasing values, one in the middle half of each of k equal
    log-space strata of [lo, hi]; narrow strata keep each op's cost nearly
    the same for every seed."""
    span = math.log(hi / lo)
    return sorted(
        (lo * math.exp(span * (i + 0.25 + 0.5 * rng.random()) / k) for i in range(k)),
        reverse=True,
    )


def _seed(rng):
    return rng.randrange(2**32)


def _interleave(ops):
    """Fixed pseudo-random order that mixes the op kinds of a cycle."""
    random.Random(0x5B).shuffle(ops)
    return ops


# -- mc_curves -------------------------------------------------------------------

# Sample counts follow the package's documented configurations: 20000
# paths is the README's Chen-Li example (its rate-fit example draws 200000;
# quant_curves uses the command line's default n_mc, also 20000).  With
# chunks of 8192 rows every op spans three chunks, so each one reaches the
# worker pool.
# The time budget is met by the grids instead (256 to 1024 points, against
# the README's 1024), which leave the chunk count unchanged.
MC_SAMPLES = 20000

# (spec, norm, grid n, radius range, fit the rate law).  rl05 at n = 384
# repeats, so the second op finds its Cholesky factor cached; rl05 at 512
# and ibm at 512 factor once (the Chen-Li ops then reuse the ibm factor).
MC_CYCLE = (
    ("bm", "sup", 256, (0.55, 1.1), True),
    ("bm", "sup", 512, (0.55, 1.1), True),
    ("bm", "sup", 1024, (0.55, 1.1), True),
    ("fbm07", "sup", 256, (0.4, 0.9), True),
    ("rl05", "sup", 384, (0.55, 1.1), True),
    ("rl05", "sup", 384, (0.55, 1.1), True),
    ("rl05", "sup", 512, (0.55, 1.1), True),
    ("ibm", "sup", 512, (0.09, 0.3), True),
    ("stable", "sup", 256, (0.4, 1.0), True),
    ("stable", "sup", 512, (0.4, 1.0), True),
    ("bm", "l2", 256, (0.3, 0.6), False),
    ("bm", "l2", 512, (0.3, 0.6), False),
)
CHENLI_CYCLE = 2
CHENLI_GRID = 512


def _build_mc(rng, cycles):
    ops = []
    for _ in range(cycles):
        for key, norm, n, (lo, hi), fit in MC_CYCLE:
            radii = _radii(rng, lo, hi, 5)
            ops.append(Op("mc", (key, norm, n, MC_SAMPLES, radii, _seed(rng), fit)))
        for _ in range(CHENLI_CYCLE):
            eps = 0.2 + 0.1 * rng.random()
            lam = 1.0 + 3.0 * rng.random()
            ops.append(Op("chenli", (eps, lam, CHENLI_GRID, MC_SAMPLES, _seed(rng))))
    return _interleave(ops)


def _run_mc(op, results):
    key, norm, n, samples, radii, seed, fit = op.args
    curve = estimation.mc_smallball(
        SPECS[key], SUP if norm == "sup" else L2, radii, samples, seed=seed,
        grid=smallball.Grid(n),
    )
    law = estimation.rate_fit(curve) if fit else None
    return curve, law


def _run_chenli(op, results):
    eps, lam, n, samples, seed = op.args
    q = smallball.ChenLiQuery(IBM, BM, 1.0, SUP, eps, lam)
    return chenli.chenli_bound(q, samples, seed=seed, grid=smallball.Grid(n))


# -- spectral_l2 -----------------------------------------------------------------

# (spec, grid n) of the Nystrom ops.  The Jacobi-quadrature covariances
# (rl03, gc03, frd07) run at n = 384: build_cov vectorises them over n^2
# pairs x 64 nodes, and the pass peaked at 1 GiB RSS with gc03 at n = 512
# (1.7 GiB with rl03 at n = 1024).
NYSTROM = tuple((key, n) for n in (512, 1024) for key in ("ibm", "ifbm03", "fi05")) + tuple(
    (key, 384) for key in ("rl03", "gc03", "frd07")
)
# The contour route, radii just above the mean energy, runs where it
# converges.  On spectra dominated by one mode (ibm, ifbm03, frd07) it
# raises or returns values that are not monotone in eps.
CONTOUR_KEYS = {("rl03", 384), ("gc03", 384)}
SADDLE_RANGE = (1e-4, 1e-2)
# Saddlepoint curves per Nystrom spectrum.  They take a few ms each; three
# per spectrum put op_p50_s well inside them, where with one it fell on the
# edge between ms-scale and 10-ms-scale ops (quartile spread over ten seeds:
# 0.21 of the median).
SADDLE_CURVES = 3
CONTOUR_FACTORS = (1.02, 1.2)  # eps^2 / trace
BM_CONTOUR_FACTORS = (1.05, 1.3)
ANALYTIC_MODES = 256
# -log P(||X||_2 <= eps) ~ kappa eps^(-1/tau): BM (1/8, 1/2), integrated BM
# (3/8, 3/2); the de Bruijn check compares Laplace growth with these laws.
L2_LAWS = {"bm": (0.125, 0.5), "ibm": (0.375, 1.5)}
DEEP_RANGE = {"bm": (0.01, 0.05), "ibm": (1e-4, 1e-3)}
LAPLACE_RANGE = (1.0, 1000.0)


def _build_spectral(rng, cycles):
    ops = []
    for _ in range(cycles):
        for key, n in NYSTROM:
            src = len(ops)
            ops.append(Op("nystrom", (key, n)))
            for _ in range(SADDLE_CURVES):
                ops.append(Op("curve", (_radii(rng, *SADDLE_RANGE, 4), None), needs=src))
            if (key, n) in CONTOUR_KEYS:
                f = sorted(rng.uniform(*CONTOUR_FACTORS) for _ in range(2))
                ops.append(Op("curve", (None, f), needs=src))
        for fam in ("bm", "ibm"):
            for _ in range(2):
                ops.append(Op("analytic", (fam, _radii(rng, *DEEP_RANGE[fam], 3), None)))
            ops.append(Op("laplace", (fam, sorted(_radii(rng, *LAPLACE_RANGE, 4)))))
            ops.append(Op("debruijn", (fam,)))
        f = sorted(rng.uniform(*BM_CONTOUR_FACTORS) for _ in range(2))
        ops.append(Op("analytic", ("bm", None, f)))
        ops.append(Op("laplace", ("bm", sorted(_radii(rng, *LAPLACE_RANGE, 4)))))
    return _ready_order(ops)


def _ready_order(ops):
    """Fixed mixed order in which every op comes after the op it needs."""
    rng = random.Random(0x5B)
    pending = list(range(len(ops)))
    done, order = set(), []
    while pending:
        ready = [i for i in pending if ops[i].needs is None or ops[i].needs in done]
        pick = ready[rng.randrange(len(ready))]
        pending.remove(pick)
        done.add(pick)
        order.append(pick)
    where = {old: new for new, old in enumerate(order)}
    out = []
    for old in order:
        op = ops[old]
        out.append(Op(op.kind, op.args, None if op.needs is None else where[op.needs]))
    return out


def _analytic_spectrum(fam):
    if fam == "bm":
        return spectral.brownian_spectrum(ANALYTIC_MODES)
    return spectral.integrated_brownian_spectrum(ANALYTIC_MODES)


def _run_nystrom(op, results):
    key, n = op.args
    return spectral.nystrom_eigen(SPECS[key], smallball.Grid(n), n)


def _run_curve(op, results):
    radii, factors = op.args
    spectrum = results[op.needs]
    if factors is not None:
        radii = [math.sqrt(f * spectrum.trace) for f in factors]
    return estimation.spectral_smallball_curve(spectrum, radii)


def _run_analytic(op, results):
    fam, radii, factors = op.args
    spectrum = _analytic_spectrum(fam)
    if factors is not None:
        # the analytic BM trace is 1/2 including the tail
        radii = [math.sqrt(0.5 * f) for f in factors]
    return estimation.spectral_smallball_curve(spectrum, radii)


def _run_laplace(op, results):
    fam, lams = op.args
    spectrum = _analytic_spectrum(fam)
    return [spectral.neg_log_laplace(spectrum, lam) for lam in lams]


def _run_debruijn(op, results):
    (fam,) = op.args
    kappa, tau = L2_LAWS[fam]
    return estimation.debruijn_check(_analytic_spectrum(fam), smallball.RateLaw(kappa, tau))


# -- quant_curves ----------------------------------------------------------------

QUANT_MODES = 1500
# Every op draws the command line's default n_mc = 20000: three chunks of
# 8192 rows, so every distortion estimate reaches the worker pool.
QUANT_MC = 20000
# (family, fixed top budget or None, budget range, drawn budgets per op,
# ops); the drawn budgets of a row are stratified across its ops.
# The integrated-BM ladder tops out at 10.3 nats, where the first coordinate
# takes 130 levels; it runs first and solves every level up to 131 from the
# cold cache, as the largest budget of a command-line quantize run does.
# The ops after it find their codebooks cached, so their costs do not
# depend on the seed.  The BM ladder top at 16 nats, the longest greedy
# allocation, runs last.  Five ops per pass keep the run near its time
# budget; op_tail_s, over the ten ops of two passes, is then their maximum,
# one of the cold-cache ops.
QUANT_FIRST = ("ibm", 10.3, (2.0, 7.0), 1, 1)
QUANT_CYCLE = (
    ("bm", None, (4.0, 7.0), 1, 1),
    ("ibm", None, (0.3, 2.0), 1, 1),
    ("bm", None, (0.3, 2.5), 1, 1),
)
QUANT_LAST = ("bm", 16.0, None, 0, 1)


def _quant_row(rng, fam, top, lo_hi, k, n_ops):
    """n_ops ops, each with k drawn budgets (stratified across the row) and
    the fixed top budget, if any."""
    ladder = _radii(rng, *lo_hi, k * n_ops)[::-1] if k else []
    tops = [top] if top is not None else []
    return [
        Op("quant", (fam, ladder[j::n_ops] + tops, QUANT_MC, _seed(rng))) for j in range(n_ops)
    ]


def _build_quant(rng, cycles):
    ops = []
    for _ in range(cycles):
        rest = [op for row in QUANT_CYCLE for op in _quant_row(rng, *row)]
        ops += _quant_row(rng, *QUANT_FIRST) + _interleave(rest) + _quant_row(rng, *QUANT_LAST)
    return ops


def _quant_spectrum(fam):
    if fam == "bm":
        return spectral.brownian_spectrum(QUANT_MODES)
    return spectral.integrated_brownian_spectrum(QUANT_MODES)


def _run_quant(op, results):
    fam, budgets, n_mc, seed = op.args
    spec = BM if fam == "bm" else IBM
    return quantize.quant_curve(spec, _quant_spectrum(fam), budgets, n_mc, seed=seed)


RUNNERS = {
    "mc": _run_mc,
    "chenli": _run_chenli,
    "nystrom": _run_nystrom,
    "curve": _run_curve,
    "analytic": _run_analytic,
    "laplace": _run_laplace,
    "debruijn": _run_debruijn,
    "quant": _run_quant,
}

BUILDERS = {
    "mc_curves": _build_mc,
    "spectral_l2": _build_spectral,
    "quant_curves": _build_quant,
}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, cycles: int):
    return BUILDERS[workload](random.Random(seed), cycles)


# -- digests -----------------------------------------------------------------------


def _feed(h, x):
    if isinstance(x, np.ndarray):
        h.update(b"a" + str(x.dtype).encode() + repr(x.shape).encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, bool) or x is None:
        h.update(repr(x).encode())
    elif isinstance(x, (int, np.integer)):
        h.update(b"i" + str(int(x)).encode())
    elif isinstance(x, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(x)))
    elif isinstance(x, str):
        h.update(b"s" + x.encode())
    elif isinstance(x, (tuple, list)):
        h.update(b"(")
        for item in x:
            _feed(h, item)
        h.update(b")")
    else:
        raise TypeError(f"no digest for {type(x).__name__}")


def _curve_parts(curve):
    return [
        (e.eps, e.neg_log_p, e.stderr, e.n_hits, e.usable, e.trusted, e.method)
        for e in curve.entries
    ]


def _parts(kind, result):
    if kind == "mc":
        curve, law = result
        fit = None if law is None else (law.kappa, law.tau, law.r2, law.slope_se)
        return [_curve_parts(curve), fit]
    if kind == "chenli":
        r = result
        return [r.lhs, r.lhs_se, r.rhs, r.margin_se, r.trivial]
    if kind == "nystrom":
        return [result.lambdas]
    if kind in ("curve", "analytic"):
        return _curve_parts(result)
    if kind == "laplace":
        return list(result)
    if kind == "debruijn":
        r = result
        return [r.k_hat, r.max_rel_dev, r.growth_exponent, r.growth_coef, r.degenerate]
    if kind == "quant":
        return [list(e) for e in result.entries]
    raise KeyError(kind)


def digest(op: Op, result) -> str:
    h = hashlib.sha256()
    _feed(h, _parts(op.kind, result))
    return h.hexdigest()


# -- checks ------------------------------------------------------------------------


def _log_cosh(x):
    return x + math.log1p(math.exp(-2.0 * x)) - math.log(2.0)


def _check_curve_shape(curve, expect_n, fails):
    """Finite, usable entries whose -log p grows as eps shrinks."""
    entries = curve.entries
    if len(entries) != expect_n:
        fails.append(f"curve has {len(entries)} entries, expected {expect_n}")
    for e in entries:
        if not (e.usable and math.isfinite(e.neg_log_p) and e.neg_log_p >= 0.0):
            fails.append(f"entry at eps={e.eps!r} unusable: -log p={e.neg_log_p!r}")
    nl = [e.neg_log_p for e in entries]  # eps decreasing
    if any(b < a for a, b in zip(nl, nl[1:])):
        fails.append(f"-log p not monotone in eps: {nl}")


def _check_mc(op, result, fails):
    key, norm, n, _samples, radii, _seed_, fit = op.args
    curve, law = result
    _check_curve_shape(curve, len(radii), fails)
    if key in ("bm", "rl05") and norm == "sup":
        # RL(1/2) has kernel 1: it is Brownian motion through the Cholesky route
        for e in curve.entries:
            exact = -math.log(estimation.brownian_sup_prob(e.eps + AGP_BETA / math.sqrt(n)))
            if abs(e.neg_log_p - exact) > REFLECTION_SE * e.stderr + REFLECTION_ABS:
                fails.append(
                    f"{key} sup level at eps={e.eps:.4f}: {e.neg_log_p:.4f} vs "
                    f"reflection series {exact:.4f} (se {e.stderr:.4f})"
                )
    # the fitted slope is not gated: it is a known standing failure
    if fit and not (law is not None and math.isfinite(law.tau) and law.tau > 0.0):
        fails.append(f"rate fit returned {law!r}")


def _check_chenli(op, result, fails):
    if not (result.trivial or result.margin_se >= CHENLI_MARGIN_SE):
        fails.append(f"Chen-Li margin {result.margin_se:.3f} se at {op.args[:2]}")


def _check_nystrom(op, result, fails):
    key, n = op.args
    lam = result.lambdas
    if not (np.all(lam > 0.0) and np.all(np.diff(lam) <= 0.0)):
        fails.append("Nystrom eigenvalues not positive and decreasing")
    if key == "ibm":
        exact = spectral.integrated_brownian_spectrum(NYSTROM_MODES).lambdas
        rel = float(np.max(np.abs(lam[:NYSTROM_MODES] / exact - 1.0)))
        if rel > NYSTROM_REL_PER_N / n:
            fails.append(f"Nystrom integrated-BM eigenvalues off by {rel:.2e} at n={n}")


def _check_laplace(op, result, fails):
    fam, lams = op.args
    if any(not math.isfinite(v) for v in result) or any(
        b <= a for a, b in zip(result, result[1:])
    ):
        fails.append(f"-log Laplace not finite and increasing: {result}")
    if fam == "bm":
        for lam, v in zip(lams, result):
            ref = 0.5 * _log_cosh(lam)  # E exp(-lam^2/2 ||B||_2^2) = cosh(lam)^(-1/2)
            if abs(v - ref) > COSH_REL * ref:
                fails.append(f"cosh identity at lambda={lam:.3f}: {v!r} vs {ref!r}")


def _check_debruijn(op, result, fails):
    if not (math.isfinite(result.k_hat) and result.k_hat > 0.0):
        fails.append(f"de Bruijn constant {result.k_hat!r}")


def _check_quant(op, result, fails):
    fam, budgets, _n_mc, _seed_ = op.args
    entries = result.entries
    if [e[0] for e in entries] != sorted(float(b) for b in budgets):
        fails.append("quantization curve budgets differ from the request")
    for (_r1, d1, s1), (r2, d2, s2) in zip(entries, entries[1:]):
        if d2 > d1 + QUANT_MONO_SE * math.hypot(s1, s2):
            fails.append(f"distortion rises to {d2:.5g} at r={r2:.3f} from {d1:.5g}")
    e2 = quantize.gauss_scalar_codebook(2)[1]
    if abs(e2 - (1.0 - 2.0 / math.pi)) > E2_ABS:
        fails.append(f"e(2)^2 = {e2!r}, expected 1 - 2/pi")


def check(op: Op, result, results) -> list:
    fails = []
    if op.kind == "mc":
        _check_mc(op, result, fails)
    elif op.kind == "chenli":
        _check_chenli(op, result, fails)
    elif op.kind == "nystrom":
        _check_nystrom(op, result, fails)
    elif op.kind == "curve":
        radii, factors = op.args
        _check_curve_shape(result, len(radii or factors), fails)
    elif op.kind == "analytic":
        _fam, radii, factors = op.args
        _check_curve_shape(result, len(radii or factors), fails)
    elif op.kind == "laplace":
        _check_laplace(op, result, fails)
    elif op.kind == "debruijn":
        _check_debruijn(op, result, fails)
    elif op.kind == "quant":
        _check_quant(op, result, fails)
    return fails
