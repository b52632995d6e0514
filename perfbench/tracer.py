"""Layer tracing for the benchmark, installed from outside the package.

The tracer replaces the names one smallball module binds for another (for
example ``estimation._gaussian_chunk`` or ``spectral.build_cov``) with
wrappers that record a span per call: name, start, end, parent and thread,
plus work counts.  Spans stay in memory until the pass ends.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans.  ``_rng.map_chunks`` gets no span, only pool
counts: its chunk functions run inside the caller's layer (the increment
scan of ``mc_smallball`` happens there), so they must not subtract from the
caller's self time.  Pool threads inherit the submitting thread's current
span as their parent.

A site that no longer exists is reported as missing, so its metrics are
printed as absent with the site named, never as zero.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time

_clock = time.perf_counter


class _Proxy:
    """Stand-in for a module that overrides some attributes and forwards the
    rest; used to wrap ``numpy.linalg.cholesky`` as ``processes`` calls it."""

    def __init__(self, target, overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent_id, thread_id, counts]
        self.missing = []  # "module.attr" sites not found
        self.codebook_calls = 0  # final count, read when uninstalled
        self.codebook_seen = set()
        self._codebook_counter = itertools.count()
        self.pool = []  # (workers, wall, busy, n_chunks) per map_chunks call
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore = []
        self.op = -1

    # -- spans ---------------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _parent(self):
        st = self._stack()
        return st[-1] if st else None

    def span(self, name, fn, args, kwargs, counts=None):
        """Run fn inside a span; counts(args, kwargs, result) adds work counts.
        A callable name is applied to the call's arguments."""
        if callable(name):
            name = name(args)
        rec = [name, 0.0, 0.0, self._parent(), threading.get_ident(), None, self.op]
        with self._lock:  # pool threads open spans concurrently
            sid = len(self.spans)
            self.spans.append(rec)
        st = self._stack()
        st.append(sid)
        rec[1] = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = _clock()
            st.pop()
        if counts is not None:
            rec[5] = counts(args, kwargs, result)
        return result

    # -- installation --------------------------------------------------------

    def _swap(self, module, attr, new):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def wrap(self, module, attr, name, counts=None, outermost=False):
        """Record a span per call of module.attr.  With ``outermost``, a call
        made inside a span of the same name (a function recursing through
        its wrapped module global) runs unrecorded, so calls and counts
        stay one per top-level call."""
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            parent = self._parent()
            if outermost and parent is not None and self.spans[parent][0] == name:
                return orig(*args, **kwargs)
            return self.span(name, orig, args, kwargs, counts)

        self._swap(module, attr, wrapper)

    def wrap_codebook(self, module, attr):
        """Count every codebook lookup; time only the first call per level,
        which is the one that solves it (the cache starts cold in every
        pass).  The ~10^6 cached lookups run through a one-argument wrapper
        that adds ~0.02 us each; a span apiece would cost more than they do.
        A changed signature is reported as a missing site."""
        orig = getattr(module, attr, None)
        params = inspect.signature(orig).parameters if callable(orig) else {}
        if len(params) != 1:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        seen, counter = self.codebook_seen, self._codebook_counter

        @functools.wraps(orig)
        def wrapper(n):
            next(counter)
            if n in seen:
                return orig(n)
            seen.add(n)
            return self.span("quantize.codebook", orig, (n,), {})

        self._swap(module, attr, wrapper)

    def wrap_cholesky(self, module):
        np_mod = getattr(module, "np", None)
        linalg = getattr(np_mod, "linalg", None)
        orig = getattr(linalg, "cholesky", None)
        if orig is None:
            self.missing.append(f"{module.__name__}.np.linalg.cholesky")
            return

        @functools.wraps(orig)
        def cholesky(*args, **kwargs):
            return self.span("processes.cholesky", orig, args, kwargs)

        self._swap(module, "np", _Proxy(np_mod, {"linalg": _Proxy(linalg, {"cholesky": cholesky})}))

    def wrap_map_chunks(self, module, attr):
        orig = getattr(module, attr, None)
        worker_count = getattr(module, "worker_count", None)
        for name, found in ((attr, orig), ("worker_count", worker_count)):
            if found is None:
                self.missing.append(f"{module.__name__}.{name}")
        if orig is None or worker_count is None:
            return

        @functools.wraps(orig)
        def map_chunks(fn, n_chunks, *args, **kwargs):
            parent = self._parent()
            busy = []

            def chunk(c):
                st = self._stack()
                st.append(parent)
                t0 = _clock()
                try:
                    return fn(c)
                finally:
                    busy.append(_clock() - t0)
                    st.pop()

            t0 = _clock()
            out = orig(chunk, n_chunks, *args, **kwargs)
            wall = _clock() - t0
            self.pool.append((worker_count(), wall, sum(busy), n_chunks))
            return out

        self._swap(module, attr, map_chunks)

    def uninstall(self):
        self.codebook_calls = next(self._codebook_counter)
        while self._restore:
            module, attr, orig = self._restore.pop()
            setattr(module, attr, orig)

    # -- aggregation ---------------------------------------------------------

    def layer_totals(self):
        """Per span name: calls, summed duration, summed self time, and the
        summed work counts."""
        children = {}
        for sid, rec in enumerate(self.spans):
            if rec[3] is not None:
                children.setdefault(rec[3], []).append((rec[1], rec[2]))
        out = {}
        for sid, (name, t0, t1, _p, _t, counts, _op) in enumerate(self.spans):
            dur = t1 - t0
            covered = _union_length(children.get(sid, ()), t0, t1)
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - covered
            for key, val in (counts or {}).items():
                agg[key] = agg.get(key, 0) + val
        return out

    def dump(self):
        return {
            "spans": self.spans,
            "missing": self.missing,
            "pool": self.pool,
            "codebook_calls": self.codebook_calls,
        }


def _union_length(intervals, lo, hi):
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


# -- the call sites ------------------------------------------------------------


def _route(spec):
    from smallball.processes import BrownianMotion, FractionalBm

    if isinstance(spec, BrownianMotion) or (isinstance(spec, FractionalBm) and spec.h == 0.5):
        return "cumsum"
    if isinstance(spec, FractionalBm):
        return "circulant"
    return "cholesky"


def _sample_name(args):
    return "processes.sample." + _route(args[0])


def _result_size(key):
    return lambda args, kwargs, result: {key: int(result.size)}


def _norm_elems(args, kwargs, result):
    return {"elems": int(getattr(args[0], "size", 0))}


def _mc_elems(args, kwargs, result):
    return {"elems": int(result.n_samples) * int(result.grid_n)}


def _increments(args, kwargs, result):
    return {"increments": sum(n - 1 for n in result.levels)}


def _quant_elems(args, kwargs, result):
    from smallball.quantize import quant_error

    bound = inspect.signature(quant_error).bind(*args, **kwargs).arguments
    return {"elems": int(bound["n_mc"]) * len(bound["quantizer"].levels)}


def install(tracer: Tracer):
    """Wrap every cross-module call site the layer metrics read."""
    from smallball import _rng, chenli, estimation, fraccalc, processes, quantize, spectral

    w = tracer.wrap
    w(estimation, "_gaussian_chunk", _sample_name, _result_size("elems"))
    tracer.wrap_cholesky(processes)
    # FracIntegrated's build_cov calls build_cov on its base: one assembly
    w(processes, "build_cov", "processes.build_cov", _result_size("entries"), outermost=True)
    w(spectral, "build_cov", "processes.build_cov", _result_size("entries"), outermost=True)
    w(estimation, "sample_positive_stable", "processes.stable", _result_size("draws"))
    w(estimation, "batch_norms", "norms", _norm_elems)
    w(estimation, "mc_smallball", "estimation.mc_smallball", _mc_elems)
    w(chenli, "mc_smallball", "estimation.mc_smallball", _mc_elems)
    w(estimation, "rate_fit", "estimation.rate_fit")
    w(spectral, "nystrom_eigen", "spectral.nystrom")
    w(estimation, "l2_smallball", "spectral.l2_smallball")
    w(spectral, "neg_log_laplace", "spectral.laplace")
    w(fraccalc, "operator_matrix", "fraccalc.operator_matrix")
    w(chenli, "chenli_bound", "chenli.bound")
    w(chenli, "derivative_spectrum", "chenli.derivative_spectrum")
    tracer.wrap_codebook(quantize, "gauss_scalar_codebook")
    w(quantize, "product_quantizer", "quantize.greedy", _increments)
    w(quantize, "quant_error", "quantize.quant_error", _quant_elems)
    tracer.wrap_map_chunks(_rng, "map_chunks")
