"""The shared memo: cached arrays are read-only and each key is solved once."""
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from smallball import _cache, processes
from smallball._cache import memo
from smallball.estimation import mc_smallball
from smallball.fraccalc import operator_matrix
from smallball.norms import Lp
from smallball.processes import Grid, RiemannLiouville, _cholesky_factor
from smallball.quantize import gauss_scalar_codebook


@pytest.mark.parametrize(
    "get",
    [
        lambda: gauss_scalar_codebook(4)[0],
        lambda: operator_matrix(0.5, 8),
        lambda: _cholesky_factor(RiemannLiouville(0.3), Grid(16)),
    ],
    ids=["codebook", "operator_matrix", "cholesky"],
)
def test_cached_arrays_are_read_only(get):
    first = get()
    before = first.copy()
    with pytest.raises(ValueError):
        first[0] = 99.0
    again = get()
    assert again is first
    assert np.array_equal(again, before)


class _Proxy:
    """Forwards to ``target`` except for the given attributes."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def test_concurrent_misses_factor_once(monkeypatch):
    calls = []
    real = np.linalg.cholesky

    def cholesky(a):
        calls.append(a.shape)
        return real(a)

    linalg = _Proxy(np.linalg, cholesky=cholesky)
    monkeypatch.setattr(processes, "np", _Proxy(np, linalg=linalg))
    monkeypatch.setenv("SMALLBALL_THREADS", "2")
    # a grid no other test uses, so the factor cache starts cold; 20000
    # paths of 173 points make three chunks that two workers start together
    curve = mc_smallball(RiemannLiouville(0.7), Lp(np.inf), [1.0, 0.5], 20000, seed=4,
                         grid=Grid(173))
    assert curve.entries[0].n_hits > 0
    assert calls == [(173, 173)]


@pytest.mark.parametrize("bound", [None, 4 * 8000], ids=["unbounded", "evicting"])
def test_memo_under_thread_stress(monkeypatch, bound):
    if bound is not None:
        monkeypatch.setattr(_cache, "CACHE_BYTES", bound)  # four entries fit
    solves = []

    @memo
    def filled(k):
        solves.append(k)
        return np.full(1000, float(k))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as ex:
            got = list(ex.map(lambda i: filled(i % 16)[0], range(4000), timeout=60))
    finally:
        sys.setswitchinterval(old)
    assert got == [float(i % 16) for i in range(4000)]
    if bound is None:
        assert sorted(solves) == list(range(16))
    with _cache._lock:
        held = sum(entry[1] for entry in _cache._store.values())
    assert _cache._held == held <= _cache.CACHE_BYTES
    assert not _cache._solving
