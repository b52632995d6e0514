"""One memo for the package's deterministic solves: a least-recently-used
store shared by every memoised function and bounded by ``CACHE_BYTES`` of
cached arrays.  Cached arrays are read-only (copy one before writing), and a
key is solved once even when several pool workers miss it together."""
from __future__ import annotations

import functools
import itertools
import threading

import numpy as np

CACHE_BYTES = 2**29  # 512 MiB: four Cholesky factors at MAX_CHOLESKY_N

_lock = threading.Lock()  # held for every change to _store, _solving, _held
_store: dict = {}  # (fn, args) -> [value, nbytes, tick of last use]
_solving: dict = {}  # (fn, args) -> Event set when its solver is done
_held = 0
_tick = itertools.count()


def memo(fn):
    """Memoise ``fn`` on its (hashable) positional arguments."""

    @functools.wraps(fn)
    def wrapper(*args):
        global _held
        key = (fn, args)
        while True:
            # a hit changes only its own entry's tick, so it needs no lock
            hit = _store.get(key)
            if hit is not None:
                hit[2] = next(_tick)
                return hit[0]
            with _lock:
                if key in _store:
                    continue
                done = _solving.get(key)
                if done is None:
                    done = _solving[key] = threading.Event()
                    break
            done.wait()  # then look again; a failed solve is retried
        try:
            value = fn(*args)
            size = 0
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
                    size += a.nbytes
            with _lock:
                if size <= CACHE_BYTES:
                    _store[key] = [value, size, next(_tick)]
                    _held += size
                    while _held > CACHE_BYTES:
                        oldest = min(_store, key=lambda k: _store[k][2])
                        _held -= _store.pop(oldest)[1]
            return value
        finally:
            with _lock:
                del _solving[key]
            done.set()

    return wrapper
