"""smallball benchmark: closed-loop workloads measured end to end and per layer.

    python3 perfbench/run.py --workload mc_curves --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each pass runs in a fresh interpreter, so every cache starts
cold as it does on each command-line run.

``--trace 0`` makes, over the same seeded op sequence, ``REPEATS`` passes of

* the nproc pass: ``SMALLBALL_THREADS`` = nproc, BLAS at its default;
* the 1t pass: ``SMALLBALL_THREADS`` = 1 and BLAS pinned to one thread.

It reports ``wall_s``, ``wall_1t_s``, ``op_p50_s``, ``op_tail_s`` and
``peak_rss_mb`` as medians over the passes of their kind (latency
percentiles over the pooled ops of the nproc passes), and ``setup_s`` as
the median set-up time over all passes.  Every op's output is checked
(see workloads.py), and its digest must be identical in every pass.
``failed`` counts the ops that raised, failed a check, or whose digest
differs between passes, whatever the cause; the report line
``ops_failed_frac`` gives the share with both counts.  ``correct`` is false
when an op raised, failed a check, or changed with the worker count; a
digest that changes with the BLAS thread count alone (see
``thread_invariance``) counts as failed but leaves ``correct`` true, so that
the broken byte-stability promise shows in every run without hiding the
timings.

``--trace 1`` runs a traced nproc pass (pool utilisation), a traced
one-worker pass (layer self times, since spans from pool threads overlap)
and untraced nproc passes before and after them (tracing overhead), and
reports the per-layer metrics in ``LAYER_METRICS``.

``--seconds`` sets the work, not a deadline: the op sequence repeats a
fixed cycle round(seconds / CYCLE_SECONDS) times, at least once, so equal
arguments give equal work on every commit.  CYCLE_SECONDS is what one run of
one cycle takes, so a run lasts about ``--seconds`` on the machine it was
measured on.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it say what was
measured and on which machine.
"""
from __future__ import annotations

import argparse
import collections
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("mc_curves", "spectral_l2", "quant_curves")
# (nproc passes, 1t passes) per run: the end-to-end times are medians over
# them, which damps the pass-to-pass noise of a shared host (identical
# passes differ by up to 30% there, the nproc ones most).  quant_curves
# makes three passes only, because its cold codebook solves alone take ~9 s
# in each.
# CYCLE_SECONDS is the time a whole run of one op cycle takes, measured on
# a shared 2-core x86 host with OpenBLAS.
REPEATS = {"mc_curves": (3, 3), "spectral_l2": (4, 4), "quant_curves": (2, 1)}
CYCLE_SECONDS = {"mc_curves": 40.0, "spectral_l2": 40.0, "quant_curves": 40.0}

RUN_BUDGET_S = 170.0  # every pass of one run must end within this
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("wall_1t_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# name -> (unit, call sites it reads, workloads designed to exercise it).
# Layers are named after the package modules; the _rng layer is "rng"
# because metric names must start with a letter or digit.
MC, SP, QU = "mc_curves", "spectral_l2", "quant_curves"
_SB = "smallball."
_SAMPLE = (_SB + "estimation._gaussian_chunk",)
_CHOL = (_SB + "processes.np.linalg.cholesky",)
_COV = (_SB + "spectral.build_cov", _SB + "processes.build_cov")
_NORMS = (_SB + "estimation.batch_norms",)
_MC = (_SB + "estimation.mc_smallball", _SB + "chenli.mc_smallball")
_NYSTROM = (_SB + "spectral.nystrom_eigen",)
_L2 = (_SB + "estimation.l2_smallball",)
_OPMAT = (_SB + "fraccalc.operator_matrix",)
_CODEBOOK = (_SB + "quantize.gauss_scalar_codebook",)
_GREEDY = (_SB + "quantize.product_quantizer",)
_QERR = (_SB + "quantize.quant_error",)
_POOL = (_SB + "_rng.map_chunks", _SB + "_rng.worker_count")
LAYER_METRICS = {
    "processes.sample.cumsum_ns_per_elem": ("ns", _SAMPLE, {MC}),
    "processes.sample.circulant_ns_per_elem": ("ns", _SAMPLE, {MC}),
    "processes.sample.cholesky_ns_per_elem": ("ns", _SAMPLE, {MC}),
    "processes.sample.elems": ("count", _SAMPLE, {MC}),
    "processes.cholesky.calls": ("count", _CHOL, {MC}),
    "processes.cholesky.s": ("s", _CHOL, {MC}),
    "processes.build_cov.calls": ("count", _COV, {MC, SP}),
    "processes.build_cov.ns_per_entry": ("ns", _COV, {MC, SP}),
    "processes.build_cov.s": ("s", _COV, {MC, SP}),
    "processes.stable.ns_per_draw": ("ns", (_SB + "estimation.sample_positive_stable",), {MC}),
    "norms.ns_per_elem": ("ns", _NORMS, {MC}),
    "norms.s": ("s", _NORMS, {MC}),
    "estimation.mc_self_ns_per_elem": ("ns", _MC, {MC}),
    "estimation.rate_fit.s": ("s", (_SB + "estimation.rate_fit",), {MC}),
    "spectral.eigvalsh.s": ("s", _NYSTROM, {SP}),
    "spectral.nystrom.calls": ("count", _NYSTROM, {SP}),
    "spectral.l2_smallball.calls": ("count", _L2, {SP}),
    "spectral.l2_smallball.ms_per_radius": ("ms", _L2, {SP}),
    "spectral.laplace.s": ("s", (_SB + "spectral.neg_log_laplace",), {MC, SP}),
    "fraccalc.operator_matrix.calls": ("count", _OPMAT, {SP}),
    "fraccalc.operator_matrix.s": ("s", _OPMAT, {SP}),
    "chenli.bound_self.s": ("s", (_SB + "chenli.chenli_bound",), {MC}),
    "chenli.derivative_spectrum.s": ("s", (_SB + "chenli.derivative_spectrum",), {MC}),
    "quantize.codebook.calls": ("count", _CODEBOOK, {QU}),
    "quantize.codebook.distinct_n": ("count", _CODEBOOK, {QU}),
    "quantize.codebook.s": ("s", _CODEBOOK, {QU}),
    "quantize.greedy.s": ("s", _GREEDY, {QU}),
    "quantize.greedy.increments": ("count", _GREEDY, {QU}),
    "quantize.quant_error.ns_per_elem": ("ns", _QERR, {QU}),
    "quantize.quant_error.elems": ("count", _QERR, {QU}),
    "rng.chunks": ("chunks/call", _POOL, {MC, QU}),
    "rng.pool_util": ("ratio", _POOL, {MC, QU}),
    "trace_overhead_frac": ("ratio", (), {MC, SP, QU}),
}


class BenchError(RuntimeError):
    pass


# -- machine record ----------------------------------------------------------------


def _nproc():
    return len(os.sched_getaffinity(0))


def machine():
    """nproc, cache sizes and interpreter; library versions come from the
    passes, which import them."""
    caches = {}
    try:
        res = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10)
        for line in res.stdout.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1] != "0":
                caches[parts[0].lower()] = int(parts[1])
    except (OSError, subprocess.SubprocessError, ValueError):
        caches = {"unknown": 0}
    return {"nproc": _nproc(), "caches_bytes": caches, "python": sys.version.split()[0]}


# -- passes ------------------------------------------------------------------------


def _env(workers: int, pin_blas: bool):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["SMALLBALL_THREADS"] = str(workers)
    if pin_blas:
        env.update({k: "1" for k in BLAS_VARS})
    env["PYTHONPATH"] = SRC
    return env


class Runner:
    def __init__(self, args, cycles):
        self.args = args
        self.cycles = cycles
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def run_pass(self, workers, pin_blas, trace=False, tag="", only=None):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run budget exhausted before all passes ran")
        req = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "cycles": self.cycles,
            "max_ops": self.args.ops,
            "only": only,
            "trace": trace,
            "src": SRC,
            "spans_path": os.path.join(
                TRACE_DIR, f"spans-{self.args.workload}-{self.args.seed}-{tag}.json"
            ),
        }
        cmd = [sys.executable, os.path.join(HERE, "passrun.py")]
        req["spawned"] = time.perf_counter()
        try:
            res = subprocess.run(
                cmd + [json.dumps(req)],
                env=_env(workers, pin_blas),
                cwd=ROOT,
                stdout=subprocess.PIPE,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"pass {tag} ran past the run budget") from exc
        if res.returncode != 0 or not res.stdout.strip():
            raise BenchError(f"pass {tag} exited with {res.returncode}")
        out = json.loads(res.stdout.strip().splitlines()[-1])
        out.update(label=tag, pin_blas=pin_blas)
        return out


# -- statistics --------------------------------------------------------------------


def tail(values):
    """(value, percentile): the highest percentile with at least ten values
    beyond it, by nearest rank; the maximum when there are ten or fewer."""
    xs = sorted(values)
    n = len(xs)
    for p in (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0) + tuple(range(89, 0, -1)):
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return xs[rank - 1], p
    return xs[-1], 100.0


def failures(res):
    """(pass label, op index, reasons) for every op that raised or failed a
    check in one pass."""
    return [
        (res["label"], int(i), msgs)
        for i, msgs in sorted(res["failures"].items(), key=lambda kv: int(kv[0]))
    ]


def _with_needs(indices, needs):
    keep, todo = set(), list(indices)
    while todo:
        i = todo.pop()
        if i not in keep:
            keep.add(i)
            if needs[i] is not None:
                todo.append(needs[i])
    return sorted(keep)


def thread_invariance(runner, base, other, nproc):
    """Compare op digests of the nproc pass with another pass of the same ops.

    Returns (failed, blas_only, arbiter pass or None).  When both passes ran
    with the same BLAS setting, any difference fails.  When only ``other``
    pinned BLAS to one thread, the differing ops are re-run with nproc
    workers and BLAS pinned: an op that then matches ``other`` differs only
    with the BLAS thread count (LAPACK's own threading; the README promises
    byte-stable artifacts across machines, whose default BLAS thread counts
    differ) and is returned in ``blas_only``; one that still differs changed
    with the worker count and is returned in ``failed``.
    """
    diff = [
        i
        for i, (a, b) in enumerate(zip(base["digests"], other["digests"]))
        if a is not None and b is not None and a != b
    ]
    if not diff:
        return [], [], None
    label = other["label"]
    if other["pin_blas"] == base["pin_blas"]:
        why = ["digest differs between passes of one configuration"]
        return [(label, i, why) for i in diff], [], None
    only = _with_needs(diff, base["needs"])
    arb = runner.run_pass(nproc, True, tag="arbiter", only=only)
    failed, blas_only = failures(arb), []
    why = ["digest differs between worker counts at one BLAS thread"]
    for i in diff:
        if arb["digests"][i] == other["digests"][i]:
            blas_only.append(i)
        else:
            failed.append((label, i, why))
    return failed, blas_only, arb


# -- per-layer metrics ---------------------------------------------------------------


def layer_values(one, traced_n, untraced_wall):
    """Per-layer metric values from the traced one-worker pass (self times),
    the traced nproc pass (pool) and the untraced nproc wall (overhead)."""
    lay = one["trace"]["layers"]

    def get(name, key="self_s"):
        return lay.get(name, {}).get(key, 0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def ns_per(name, key="elems"):
        return ratio(get(name), get(name, key), 1e9)

    routes = ("cumsum", "circulant", "cholesky")
    pool = traced_n["trace"]["pool"]
    busy = sum(p[2] for p in pool)
    capacity = sum(p[0] * p[1] for p in pool)
    return {
        "processes.sample.cumsum_ns_per_elem": ns_per("processes.sample.cumsum"),
        "processes.sample.circulant_ns_per_elem": ns_per("processes.sample.circulant"),
        "processes.sample.cholesky_ns_per_elem": ns_per("processes.sample.cholesky"),
        "processes.sample.elems": sum(get(f"processes.sample.{r}", "elems") for r in routes),
        "processes.cholesky.calls": get("processes.cholesky", "calls"),
        "processes.cholesky.s": get("processes.cholesky", "s"),
        "processes.build_cov.calls": get("processes.build_cov", "calls"),
        "processes.build_cov.ns_per_entry": ns_per("processes.build_cov", "entries"),
        "processes.build_cov.s": get("processes.build_cov"),
        "processes.stable.ns_per_draw": ns_per("processes.stable", "draws"),
        "norms.ns_per_elem": ns_per("norms"),
        "norms.s": get("norms"),
        "estimation.mc_self_ns_per_elem": ns_per("estimation.mc_smallball"),
        "estimation.rate_fit.s": get("estimation.rate_fit"),
        "spectral.eigvalsh.s": get("spectral.nystrom"),
        "spectral.nystrom.calls": get("spectral.nystrom", "calls"),
        "spectral.l2_smallball.calls": get("spectral.l2_smallball", "calls"),
        "spectral.l2_smallball.ms_per_radius": ratio(
            get("spectral.l2_smallball"), get("spectral.l2_smallball", "calls"), 1e3
        ),
        "spectral.laplace.s": get("spectral.laplace"),
        "fraccalc.operator_matrix.calls": get("fraccalc.operator_matrix", "calls"),
        "fraccalc.operator_matrix.s": get("fraccalc.operator_matrix"),
        "chenli.bound_self.s": get("chenli.bound"),
        "chenli.derivative_spectrum.s": get("chenli.derivative_spectrum"),
        "quantize.codebook.calls": one["trace"]["codebook_calls"],
        "quantize.codebook.distinct_n": one["trace"]["codebook_distinct"],
        "quantize.codebook.s": get("quantize.codebook"),
        "quantize.greedy.s": get("quantize.greedy"),
        "quantize.greedy.increments": get("quantize.greedy", "increments"),
        "quantize.quant_error.ns_per_elem": ns_per("quantize.quant_error"),
        "quantize.quant_error.elems": get("quantize.quant_error", "elems"),
        "rng.chunks": ratio(sum(p[3] for p in pool), len(pool)),
        "rng.pool_util": ratio(busy, capacity),
        "trace_overhead_frac": ratio(traced_n["wall_s"] - untraced_wall, untraced_wall),
    }


def absent_reasons(workload, values, missing):
    """Metric -> why it cannot be reported: its call site is gone, or the
    workload built to exercise it never entered the site."""
    out = {}
    for name, (_unit, sites, exercised) in LAYER_METRICS.items():
        gone = [s for s in sites if s in missing]
        if gone:
            out[name] = "call site missing: " + ", ".join(gone)
        elif workload in exercised and values[name] == 0 and sites:
            out[name] = "call site never entered: " + ", ".join(sites)
    return out


# -- main --------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--ops", type=int, default=0, help="run only the first N ops (smoke tests)")
    return ap.parse_args(argv)


def emit(lines, result):
    for line in lines:
        print("# " + line)
    print(json.dumps(result))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "smallball", "__init__.py")):
        print(f"no smallball sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.makedirs(TRACE_DIR, exist_ok=True)
    cycles = max(1, round(args.seconds / CYCLE_SECONDS[args.workload]))
    runner = Runner(args, cycles)
    nproc = _nproc()
    mach = machine()
    try:
        if args.trace:
            # untraced passes on both sides of the traced ones, for the overhead
            base = runner.run_pass(nproc, False, tag="nproc")
            traced_n = runner.run_pass(nproc, False, trace=True, tag="nproc-traced")
            traced_1 = runner.run_pass(1, True, trace=True, tag="1w-traced")
            after = runner.run_pass(nproc, False, tag="nproc-after")
            groups = ([base, traced_n, after], [traced_1])
        else:
            groups = ([], [])
            reps_n, reps_1 = REPEATS[args.workload]
            for r in range(max(reps_n, reps_1)):  # alternating
                if r < reps_n:
                    groups[0].append(runner.run_pass(nproc, False, tag=f"nproc{r}"))
                if r < reps_1:
                    groups[1].append(runner.run_pass(1, True, tag=f"1t{r}"))
        base, one = groups[0][0], groups[1][0]
        passes = groups[0] + groups[1]
        failed = [f for res in passes for f in failures(res)]
        attempted = sum(res["ops"] for res in passes)
        # passes of one configuration must agree exactly; across the two
        # configurations the arbiter separates worker count from BLAS threads
        for ref, group in ((base, groups[0]), (one, groups[1])):
            for res in group[1:]:
                failed += thread_invariance(runner, ref, res, nproc)[0]
        bad, blas_only, arb = thread_invariance(runner, base, one, nproc)
        failed += bad
        attempted += arb["ops"] if arb else 0
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    mach.update(base["versions"])
    lines = [
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"cycles={cycles} ops_per_pass={base['ops']} trace={args.trace}",
        "machine " + json.dumps(mach, sort_keys=True),
    ]
    for label, i, msgs in failed:
        lines.append(f"FAILED {label} pass, op {i} ({base['kinds'][i]}): " + "; ".join(msgs))
    for i in blas_only:
        lines.append(
            f"FAILED {one['label']} pass, op {i} ({base['kinds'][i]}): digest differs from "
            f"the {base['label']} pass with the BLAS thread count alone (equal at one BLAS "
            f"thread for 1 and {nproc} workers)"
        )
    if blas_only:
        kinds = collections.Counter(base["kinds"][i] for i in blas_only)
        lines.append(
            f"{len(blas_only)} ops change with the BLAS thread count, which breaks "
            f"byte-stability across machines: {dict(kinds)}"
        )
    n_failed = len(failed) + len(blas_only)
    lines.append(
        f"ops_failed_frac {n_failed / attempted:.6g} ratio "
        f"({n_failed} failed of {attempted} attempted, over all passes)"
    )

    metrics = {}
    if args.trace:
        values = layer_values(one, traced_n, statistics.mean([base["wall_s"], after["wall_s"]]))
        missing = set(one["trace"]["missing"]) | set(traced_n["trace"]["missing"])
        absent = absent_reasons(args.workload, values, missing)
        for name, (unit, _sites, exercised) in LAYER_METRICS.items():
            if name in absent:
                lines.append(f"ABSENT {name} [{unit}]: {absent[name]}")
                continue
            metrics[name] = {"value": values[name], "unit": unit}
            note = "" if args.workload in exercised else "  (not exercised by this workload)"
            lines.append(f"{name} {values[name]:.6g} {unit}{note}")
    else:
        lat = [x for res in groups[0] for x in res["latencies"]]
        tail_s, tail_p = tail(lat)
        reps = len(groups[0])
        # every pass imports the same modules and builds the same inputs
        # (the 1t pass only pins BLAS first), so set-up is timed in all of
        # them: at least three set-ups per run, even for quant_curves
        setups = [res["setup_s"] for res in passes]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(res["wall_s"] for res in groups[0]),
            "wall_1t_s": statistics.median(res["wall_s"] for res in groups[1]),
            "op_p50_s": statistics.median(lat),
            "op_tail_s": tail_s,
            "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in groups[0]),
        }
        notes = {
            "setup_s": f"median of {len(setups)} set-ups; nproc "
            + ", ".join(f"{res['setup_s']:.4f}" for res in groups[0])
            + "; 1t "
            + ", ".join(f"{res['setup_s']:.4f}" for res in groups[1]),
            "wall_s": "median of " + ", ".join(f"{res['wall_s']:.4f}" for res in groups[0]),
            "wall_1t_s": "median of " + ", ".join(f"{res['wall_s']:.4f}" for res in groups[1]),
            "op_p50_s": f"over {len(lat)} ops of {reps} passes",
            "op_tail_s": f"p{tail_p:g} over {len(lat)} ops of {reps} passes",
            "peak_rss_mb": f"median of {reps} nproc passes",
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            note = f"  ({notes[name]})" if name in notes else ""
            lines.append(f"{name} {values[name]:.6g} {unit}{note}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": metrics,
    }
    emit(lines, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
