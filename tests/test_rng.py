"""Seeded chunk plumbing: the row-chunk rule and the worker count."""

import os

import numpy as np
import pytest

from smallball import _rng
from smallball.errors import SpecError


def test_map_rows_chunks_and_streams(monkeypatch):
    # 8192 rows per chunk of 128 columns; 20001 is not a multiple of it
    count, n_cols, seed, domain = 20001, 128, 5, _rng.DOMAIN_PATHS
    assert _rng.chunk_rows(n_cols, count) == 8192

    def fn(rng, lo, k):
        return lo, k, rng.standard_normal(3)

    for workers in ("1", "3"):
        monkeypatch.setenv("SMALLBALL_THREADS", workers)
        got = _rng.map_rows(fn, count, n_cols, seed, domain)
        assert [(lo, k) for lo, k, _ in got] == [(0, 8192), (8192, 8192), (16384, 3617)]
        for c, (_lo, _k, draws) in enumerate(got):
            ref = _rng.stream(seed, domain, c).standard_normal(3)
            assert np.array_equal(draws, ref)


def test_map_rows_empty_count_draws_nothing():
    assert _rng.map_rows(lambda rng, lo, k: k, 0, 4, 1, _rng.DOMAIN_STABLE) == []


def test_worker_count_default_and_value(monkeypatch):
    monkeypatch.delenv("SMALLBALL_THREADS", raising=False)
    assert _rng.worker_count() == 1
    monkeypatch.setenv("SMALLBALL_THREADS", "3")
    assert _rng.worker_count() == 3


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_worker_count_rejects_bad_values(monkeypatch, value):
    monkeypatch.setenv("SMALLBALL_THREADS", value)
    with pytest.raises(SpecError, match=repr(value)):
        _rng.worker_count()


@pytest.mark.parametrize(
    "k, rows, want",
    [
        (1, 16, [(0, 1)]),
        (16, 16, [(0, 16)]),
        (17, 16, [(0, 16), (16, 17)]),
        (18, 16, [(0, 16), (16, 18)]),
        (33, 16, [(0, 16), (16, 32), (32, 33)]),
        (40, 16, [(0, 16), (16, 32), (32, 40)]),
        (3, 1, [(0, 1), (1, 2), (2, 3)]),
    ],
)
def test_row_blocks_tile_in_whole_blocks(k, rows, want):
    blocks = _rng.row_blocks(k, rows)
    assert blocks == want
    # the blocks tile [0, k) and all but the last hold exactly `rows` rows
    assert blocks[0][0] == 0 and blocks[-1][1] == k
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    assert all(hi - lo == rows for lo, hi in blocks[:-1])


def test_no_generator_outside_rng():
    # every seeded draw comes from _rng.stream, so no other module may build
    # a generator or a seed sequence of its own
    pkg = os.path.dirname(os.path.abspath(_rng.__file__))
    offenders = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py") and name != "_rng.py":
            with open(os.path.join(pkg, name)) as fh:
                text = fh.read()
            if "default_rng(" in text or "SeedSequence(" in text:
                offenders.append(name)
    assert offenders == []
