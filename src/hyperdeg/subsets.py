"""Colexicographic enumeration of r-subsets of {0, ..., n-1}.

Colex order compares subsets by their largest element first, so all subsets
contained in {0, ..., c-1} precede every subset whose maximum is c.  This is
the fixed enumeration order used by every subset sweep in the library: the
deterministic-reduction contract relies on all callers agreeing on it.

A family of at most ``CHUNK`` subsets is unranked once into a shared,
read-only table, which ``all_subsets`` returns and ``colex_unrank``
gathers from; a larger one is unranked by searching the colex rank tables.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterator

import numpy as np

CHUNK = 4096


@lru_cache(maxsize=16)
def _rank_tables(n: int, r: int) -> tuple[np.ndarray, ...]:
    """``tables[k][c] = min(C(c, k), C(n, r))`` for c < n and k = 1..r.

    The cap keeps every entry within int64 where C(c, k) for k < r exceeds
    it (C(69, 34) > 2^63 while C(70, 68) = 2415); a rank is always below
    C(n, r), so a capped entry is never picked.  Built once per (n, r) and
    shared, so the arrays are read-only.
    """
    total = comb(n, r)
    tables = (np.zeros(0, dtype=np.int64),) + tuple(
        np.array([min(comb(c, k), total) for c in range(n)], dtype=np.int64)
        for k in range(1, r + 1)
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _unrank(rank: np.ndarray, r: int, tables) -> np.ndarray:
    """The subsets with the given int64 colex ranks as a (rank.size, r) array.

    Position k - 1 of each row is the largest c with C(c, k) at most the
    remaining rank, for k = r down to 1.  ``rank`` is consumed in place.
    """
    out = np.empty((rank.size, r), dtype=np.int64)
    for k in range(r, 0, -1):
        table = tables[k]
        c = np.searchsorted(table, rank, side="right") - 1
        rank -= table[c]
        out[:, k - 1] = c
    return out


def colex_unrank(ranks, n: int, r: int) -> np.ndarray:
    """The r-subsets of {0..n-1} with the given colex ranks, one per row.

    Every rank must lie in [0, C(n, r)); the result is a (len(ranks), r)
    int64 array with each row in increasing order.  A family of at most
    ``CHUNK`` subsets is one gather from its shared table of all subsets; a
    larger one is unranked column by column.
    """
    ranks = np.array(ranks, dtype=np.int64)
    if comb(n, r) <= CHUNK:
        return _subset_table(n, r).take(ranks, axis=0)
    return _unrank(ranks, r, _rank_tables(n, r))


@lru_cache(maxsize=16)
def _subset_table(n: int, r: int) -> np.ndarray:
    """All r-subsets in colex order, read-only; cached for the families of
    at most ``CHUNK`` subsets, which share it."""
    table = _unrank(np.arange(comb(n, r), dtype=np.int64), r, _rank_tables(n, r))
    table.setflags(write=False)
    return table


def iter_chunks(n: int, r: int) -> Iterator[np.ndarray]:
    """Yield (c, r) integer arrays of consecutive colex subsets from rank 0.

    Every chunk except possibly the last has exactly ``CHUNK`` rows, so chunk
    boundaries depend only on (n, r), never on the consumer.  Each chunk is
    unranked from its rank range in vectorised form.
    """
    total = comb(n, r)
    tables = _rank_tables(n, r)
    for first in range(0, total, CHUNK):
        rank = np.arange(first, min(first + CHUNK, total), dtype=np.int64)
        yield _unrank(rank, r, tables)


def iter_multisets(k: int, r: int) -> Iterator[np.ndarray]:
    """Yield (c, r) arrays of the size-r multisets of {0..k-1}, rows sorted.

    Stars and bars: subtracting (0, 1, ..., r-1) from a sorted r-subset of
    {0..k+r-2} gives a sorted multiset and every multiset once, so the
    C(k+r-1, r) multisets come in the colex order of those subsets, in the
    chunks of ``iter_chunks``.
    """
    shift = np.arange(r, dtype=np.int64)
    for idx in iter_chunks(k + r - 1, r):
        yield idx - shift


def all_subsets(n: int, r: int) -> np.ndarray:
    """All r-subsets in colex order as one read-only (comb(n, r), r) array,
    built once and shared for a family of at most ``CHUNK`` subsets."""
    if comb(n, r) <= CHUNK:
        return _subset_table(n, r)
    return _subset_table.__wrapped__(n, r)


def incidence(n: int, r: int) -> np.ndarray:
    """The (comb(n, r), n) 0/1 float matrix of the r-subsets in colex order."""
    subsets = all_subsets(n, r)
    out = np.zeros((subsets.shape[0], n))
    np.put_along_axis(out, subsets, 1.0, axis=1)
    return out
