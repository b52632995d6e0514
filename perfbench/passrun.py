"""One benchmark pass in a fresh interpreter; started by run.py.

    python3 perfbench/passrun.py '<json request>'

The request names the workload, seed, cycle count, op limit, the ops to
run (all when null), the spawn time on the parent's performance clock,
whether to trace, and where to write spans.  The pass prints one JSON
object on stdout: set-up time, wall time of the op loop, per-op latencies
and digests, failed checks, peak RSS and library versions, and the trace
aggregates when traced.  Worker and BLAS thread counts come from
the environment run.py gives it, set before numpy is imported.
"""
import json
import os
import sys
import time

import numpy  # set-up time includes these imports
import scipy
import smallball

import workloads


def _versions():
    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "smallball": getattr(smallball, "__version__", "unknown"),
    }


def _peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main():
    req = json.loads(sys.argv[1])
    src = os.path.realpath(req["src"])
    if not os.path.realpath(smallball.__file__).startswith(src + os.sep):
        sys.exit(f"imported smallball from {smallball.__file__}, not from {src}")
    ops = workloads.build(req["workload"], req["seed"], req["cycles"])
    if req["max_ops"]:
        ops = ops[: req["max_ops"]]
    chosen = set(range(len(ops)) if req["only"] is None else req["only"])
    setup_s = time.perf_counter() - req["spawned"]
    out = {"setup_s": setup_s, "versions": _versions(), "ops": len(chosen)}

    tracer = None
    if req["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    results, latencies, errors = [], [], {}
    t_loop = time.perf_counter()
    for i, op in enumerate(ops):
        if i not in chosen:
            results.append(None)
            continue
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = op.run(results)
            else:
                tracer.op = i
                res = tracer.span("op", op.run, (results,), {})
        except Exception as exc:  # noqa: BLE001  an op failure is a result, not a crash
            res = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        results.append(res)
    wall_s = time.perf_counter() - t_loop
    peak = _peak_rss_mb()

    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = {
            "layers": tracer.layer_totals(),
            "missing": tracer.missing,
            "pool": tracer.pool,
            "codebook_calls": tracer.codebook_calls,
            "codebook_distinct": len(tracer.codebook_seen),
        }
        with open(req["spans_path"], "w") as fh:
            json.dump(tracer.dump(), fh)

    digests, failures = [], {}
    for i, (op, res) in enumerate(zip(ops, results)):
        if i not in chosen or i in errors:
            digests.append(None)
            if i in errors:
                failures[i] = [errors[i]]
            continue
        digests.append(workloads.digest(op, res))
        fails = workloads.check(op, res, results)
        if fails:
            failures[i] = fails
    out.update(
        wall_s=wall_s,
        latencies=latencies,
        kinds=[op.kind for op in ops],
        needs=[op.needs for op in ops],
        digests=digests,
        failures={str(k): v for k, v in failures.items()},
        peak_rss_mb=peak,
        trace=trace,
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
