import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdeg import subsets
from hyperdeg.subsets import (
    CHUNK,
    all_subsets,
    colex_unrank,
    incidence,
    iter_chunks,
)


def colex_rank(subset):
    """Reference: the rank of a sorted subset in colex order."""
    return sum(math.comb(c, i + 1) for i, c in enumerate(subset))


def iter_colex(n, r):
    """Reference: the recursive colex generator the vectorised chunks replace."""
    if r == 0:
        yield ()
        return
    if r > n:
        return
    for c in range(r - 1, n):
        for rest in iter_colex(c, r - 1):
            yield rest + (c,)


def colex_unrank_scalar(rank, n, r):
    """Reference: one rank at a time, by a descending scan per position."""
    out = [0] * r
    k = r
    while k > 0:
        # largest c with comb(c, k) <= rank
        c = n - 1
        while math.comb(c, k) > rank:
            c -= 1
        rank -= math.comb(c, k)
        k -= 1
        out[k] = c
        n = c
    return tuple(out)


def colex_combinations(n, r):
    """All r-subsets from itertools, sorted into colex order."""
    return sorted(combinations(range(n), r), key=lambda w: w[::-1])


def rows(array):
    return [tuple(row) for row in array.tolist()]


def test_colex_order_small():
    expected = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert list(iter_colex(4, 2)) == expected
    assert rows(all_subsets(4, 2)) == expected


def test_enumeration_is_complete():
    for n, r in [(6, 3), (7, 4), (5, 1), (4, 4)]:
        got = rows(all_subsets(n, r))
        assert len(got) == math.comb(n, r)
        assert set(got) == set(combinations(range(n), r))
        assert got == list(iter_colex(n, r))


def test_rank_matches_enumeration_order():
    for rank, subset in enumerate(iter_colex(7, 3)):
        assert colex_rank(subset) == rank
        assert colex_unrank_scalar(rank, 7, 3) == subset


def test_unrank_matches_the_scalar_reference_on_every_rank():
    for n, r in [(7, 3), (9, 8), (20, 1), (12, 4)]:
        ranks = np.arange(math.comb(n, r))
        got = colex_unrank(ranks, n, r)
        assert got.dtype == np.int64 and got.shape == (ranks.size, r)
        assert rows(got) == [colex_unrank_scalar(int(k), n, r) for k in ranks]
        assert np.array_equal(ranks, np.arange(math.comb(n, r)))  # not consumed


def test_unrank_matches_the_scalar_reference_near_r_equals_n():
    # C(69, 34) > 2^63 while C(70, 68) = 2415
    ranks = np.random.default_rng(3).integers(0, math.comb(70, 68), size=2000)
    got = rows(colex_unrank(ranks, 70, 68))
    assert got == [colex_unrank_scalar(int(k), 70, 68) for k in ranks]


def test_unrank_of_no_ranks_is_an_empty_array():
    for n, r in [(7, 3), (70, 68), (5, 1)]:
        got = colex_unrank(np.array([], dtype=np.int64), n, r)
        assert got.shape == (0, r) and got.dtype == np.int64
        assert colex_unrank([], n, r).shape == (0, r)


@pytest.mark.parametrize("n,r", [(12, 4), (70, 68), (20, 4), (40, 3)])
def test_unrank_gathers_and_searches_the_same_rows(n, r, monkeypatch):
    # up to CHUNK subsets colex_unrank gathers from the shared table, above
    # it it searches the rank tables; each side, forced onto the other path
    # by moving CHUNK, returns the same rows
    total = math.comb(n, r)
    gathers = total <= CHUNK
    assert gathers == ((n, r) in [(12, 4), (70, 68)])
    ranks = np.random.default_rng(n * r).integers(0, total, size=4000)
    for asked in (ranks, np.array([], dtype=np.int64), [total - 1, 0]):
        got = colex_unrank(asked, n, r)
        monkeypatch.setattr(subsets, "CHUNK", 0 if gathers else total)
        other = colex_unrank(asked, n, r)
        monkeypatch.undo()
        assert got.dtype == other.dtype == np.int64
        assert got.shape == other.shape == (len(asked), r)
        assert np.array_equal(got, other)
    assert rows(got) == [colex_unrank_scalar(total - 1, n, r), colex_unrank_scalar(0, n, r)]
    assert rows(colex_unrank(ranks[:50], n, r)) == [
        colex_unrank_scalar(int(k), n, r) for k in ranks[:50]]
    # only a family within CHUNK caches the table all_subsets returns; the
    # gathered rows are the caller's own, and the table stays read-only
    subsets._subset_table.cache_clear()
    colex_unrank(ranks, n, r)
    assert subsets._subset_table.cache_info().misses == int(gathers)
    got[0, 0] = -1
    table = all_subsets(n, r)
    assert not table.flags.writeable and table[total - 1, 0] != -1
    assert (table is all_subsets(n, r)) == gathers


@settings(max_examples=80, deadline=None)
@given(st.integers(4, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n - 1)).flatmap(
        lambda nr: st.tuples(
            st.just(nr[0]), st.just(nr[1]),
            st.integers(0, math.comb(nr[0], nr[1]) - 1),
        )
    )
))
def test_unrank_rank_round_trip(data):
    n, r, rank = data
    (subset,) = colex_unrank([rank], n, r).tolist()
    assert len(subset) == r
    assert all(0 <= v < n for v in subset)
    assert colex_rank(subset) == rank


def test_chunk_boundaries_fixed(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(subsets, "CHUNK", 10)
        chunks = list(iter_chunks(8, 3))
    sizes = [c.shape[0] for c in chunks]
    assert sizes == [10] * 5 + [6]
    stacked = np.vstack(chunks)
    assert np.array_equal(stacked, all_subsets(8, 3))


def test_chunks_match_the_recursive_reference(monkeypatch):
    for n, r, chunk in [(9, 4, 7), (12, 3, 64), (20, 4, 4096), (11, 1, 3), (10, 6, 50)]:
        monkeypatch.setattr(subsets, "CHUNK", chunk)
        chunks = list(iter_chunks(n, r))
        assert all(c.dtype == np.int64 and c.shape[1] == r for c in chunks)
        assert [c.shape[0] for c in chunks[:-1]] == [chunk] * (len(chunks) - 1)
        assert rows(np.vstack(chunks)) == list(iter_colex(n, r))


def test_unranking_without_int64_overflow_near_r_equals_n(monkeypatch):
    # C(69, 34) > 2^63 while C(70, 68) = 2415; chunks of 1000 rows unrank
    # by searching the rank tables, and all_subsets reads the shared table
    with monkeypatch.context() as m:
        m.setattr(subsets, "CHUNK", 1000)
        got = rows(np.vstack(list(iter_chunks(70, 68))))
    assert got == colex_combinations(70, 68)
    assert rows(all_subsets(70, 68)) == got
    assert rows(all_subsets(66, 64)[-3:]) == colex_combinations(66, 64)[-3:]


def test_degenerate_edge_sizes():
    for n in (0, 1, 5):
        # r = 0: one empty row
        for got in (np.vstack(list(iter_chunks(n, 0))), all_subsets(n, 0)):
            assert got.shape == (1, 0)
        full = list(iter_chunks(n, n))
        assert len(full) == 1 and rows(full[0]) == colex_combinations(n, n)
        assert rows(all_subsets(n, n)) == [tuple(range(n))]
        assert list(iter_chunks(n, n + 1)) == []
        assert all_subsets(n, n + 2).shape == (0, n + 2)


def test_complementing_reverses_colex_order():
    # the complement of the r-subset of rank p is the (n - r)-subset of rank
    # C(n, r) - 1 - p
    for n in range(13):
        for r in range(n):
            ranks = np.arange(math.comb(n, r))
            complements = [sorted(set(range(n)) - set(row))
                           for row in colex_unrank(ranks, n, r).tolist()]
            assert colex_unrank(ranks[::-1], n, n - r).tolist() == complements


def test_incidence_rows_mark_the_colex_subsets():
    for n, r in [(5, 2), (6, 3), (4, 0), (3, 4)]:
        inc = incidence(n, r)
        assert inc.shape == (math.comb(n, r), n)
        rows = [tuple(np.flatnonzero(row)) for row in inc]
        assert rows == [tuple(w) for w in all_subsets(n, r).tolist()]
        assert set(np.unique(inc)) <= {0.0, 1.0}
