"""Deterministic random-stream plumbing.

Every seeded draw comes from a generator ``stream(seed, domain, c)``.  The
Monte Carlo loops draw through ``map_rows``, which splits the work into
chunks of whole sample rows; chunk c always consumes ``stream(seed, domain,
c)`` regardless of how many workers execute the chunks, so results are
bitwise reproducible across worker counts.  Inside a chunk, the path
samplers stream the rows through ``row_blocks``, drawing row by row, so the
bits do not depend on the block size either.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import SpecError

DEFAULT_SEED = 20090520

# domain tags; keep stable forever, appending only.  3, 5 and 6 are
# retired (once DOMAIN_MC, DOMAIN_CHENLI_LHS, DOMAIN_CHENLI_RHS): never reuse
DOMAIN_PATHS = 1
DOMAIN_STABLE = 2
DOMAIN_QUANT = 4
DOMAIN_VERIFY = 7


def stream(seed: int, domain: int, chunk: int) -> np.random.Generator:
    """Independent generator for one (domain, chunk) cell of a run."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(domain), int(chunk)))
    return np.random.default_rng(ss)


def child_seed(seed: int, tag: int) -> int:
    """Seed of side loop ``tag`` of a seeded run, under spawn key (97, tag)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(97, int(tag)))
    return int(ss.generate_state(1)[0])


def chunk_rows(n_cols: int, total_rows: int) -> int:
    """Rows per chunk: at most 8192 and at most ``total_rows``, and few
    enough that a chunk of float64 holds at most 128 MiB
    (rows * n_cols * 8 <= 2**27 bytes)."""
    rows = int(2**27 // max(8 * n_cols, 1))
    return int(np.clip(rows, 1, min(8192, max(total_rows, 1))))


def worker_count() -> int:
    env = os.environ.get("SMALLBALL_THREADS")
    if env is None:
        return 1
    try:
        k = int(env)
    except ValueError:
        k = 0
    if k < 1:
        raise SpecError(f"SMALLBALL_THREADS must be a positive integer, got {env!r}")
    return k


def map_chunks(fn, n_chunks: int):
    """Apply fn(chunk_index) for every chunk, in index order of the results.

    Uses a thread pool when SMALLBALL_THREADS > 1.  The reduction order is
    fixed by chunk index, never by completion order.
    """
    k = worker_count()
    if k <= 1 or n_chunks <= 1:
        return [fn(c) for c in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=k) as ex:
        return list(ex.map(fn, range(n_chunks)))


def map_rows(fn, count: int, n_cols: int, seed: int, domain: int):
    """Apply fn(rng, lo, k) to the row chunks of a count-row draw, results in
    chunk order.

    Chunk c holds rows [c*rows, c*rows + k), rows = chunk_rows(n_cols, count),
    and draws from stream(seed, domain, c), whatever the worker count.
    """
    rows = chunk_rows(n_cols, count)

    def one(c):
        lo = c * rows
        return fn(stream(seed, domain, c), lo, min(rows, count - lo))

    return map_chunks(one, -(-count // rows))


def row_blocks(k: int, rows: int):
    """(lo, hi) blocks tiling [0, k): every block but the last holds
    ``rows`` rows."""
    return [(lo, min(lo + rows, k)) for lo in range(0, k, rows)]
