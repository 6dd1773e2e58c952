import itertools
import math
from collections import Counter

import numpy as np
import pytest

from hyperdeg.core import DegreeSequence, QuadrantTransform, apply_symmetry
from hyperdeg import oracle
from hyperdeg.errors import BudgetExceeded
from hyperdeg.oracle import (
    _arrangements,
    _count_sparse,
    _sorted_degree_vectors,
    cauchy_quadrature,
    exact_count,
    total_identity_check,
)
from hyperdeg.solver import solve
from hyperdeg.subsets import all_subsets
from lemmas import compositions


def _count_dense(n: int, r: int, degrees: tuple[int, ...]) -> int:
    """Dense coefficient tensor, exponents capped at the target degrees.

    The reference that ``_count_sparse`` is tested against.  Safe in int64
    only while every coefficient, at most 2^(number of subsets), fits:
    C(n, r) <= 62.
    """
    shape = tuple(d + 1 for d in degrees)
    grid = np.zeros(shape, dtype=np.int64)
    grid[(0,) * n] = 1
    full = slice(None)
    for w in all_subsets(n, r).tolist():
        src = [full] * n
        dst = [full] * n
        for j in w:
            src[j] = slice(0, degrees[j])
            dst[j] = slice(1, degrees[j] + 1)
        grid[tuple(dst)] += grid[tuple(src)].copy()
    return int(grid[tuple(degrees)])


def brute_count(n, r, degrees):
    """Oracle: enumerate every edge subset of the full r-subset family."""
    subsets = list(itertools.combinations(range(n), r))
    m = sum(degrees) // r
    count = 0
    for chosen in itertools.combinations(range(len(subsets)), m):
        deg = [0] * n
        for i in chosen:
            for v in subsets[i]:
                deg[v] += 1
        if tuple(deg) == tuple(degrees):
            count += 1
    return count


def test_examples_with_unique_hypergraphs():
    assert exact_count(DegreeSequence(4, 3, (3, 3, 3, 3))) == 1
    assert exact_count(DegreeSequence(4, 3, (2, 2, 1, 1))) == 1
    assert exact_count(DegreeSequence(4, 3, (1, 1, 1, 0))) == 1
    assert exact_count(DegreeSequence(4, 3, (0, 0, 0, 0))) == 1


def test_exact_count_is_a_plain_int():
    import hyperdeg

    count = exact_count(DegreeSequence(6, 3, (5,) * 6))
    assert type(count) is int and count == 1044
    assert not hasattr(hyperdeg, "ExactCount") and "ExactCount" not in hyperdeg.__all__
    assert not hasattr(oracle, "ExactCount")


def test_unrealizable_sequences_count_zero():
    assert exact_count(DegreeSequence(4, 3, (3, 1, 1, 1)).__class__(4, 3, (3, 1, 1, 1))) == 0
    assert exact_count(DegreeSequence(6, 3, (9, 3, 3, 3, 3, 3))) == 0


def test_counts_match_brute_force():
    cases = [
        (5, 3, (2, 2, 2, 2, 1)),
        (5, 3, (3, 3, 2, 2, 2)),
        (5, 2, (2, 2, 2, 1, 1)),
        (6, 3, (2, 2, 2, 1, 1, 1)),
    ]
    for n, r, degrees in cases:
        expected = brute_count(n, r, degrees)
        assert exact_count(DegreeSequence(n, r, degrees)) == expected
        assert _count_sparse(n, r, degrees) == expected
        assert _count_dense(n, r, degrees) == expected


def test_regular_six_vertex_count():
    # frozen; verified against full enumeration of the C(20, 10) edge sets
    assert exact_count(DegreeSequence(6, 3, (5,) * 6)) == 1044


def test_count_invariant_under_quadrant_images():
    seq = DegreeSequence(5, 3, (3, 3, 2, 2, 2))
    base = exact_count(seq)
    for t in QuadrantTransform:
        image = apply_symmetry(seq, t)
        assert exact_count(image) == base, t


def test_count_invariant_under_degree_permutations():
    rng = np.random.default_rng(6)
    degrees = (3, 2, 2, 1, 1, 0)
    base = exact_count(DegreeSequence(6, 3, degrees))
    for _ in range(5):
        perm = tuple(rng.permutation(degrees).tolist())
        assert exact_count(DegreeSequence(6, 3, perm)) == base


def test_dense_and_sparse_paths_agree():
    for n, r, degrees in [
        (5, 3, (3, 3, 2, 2, 2)),
        (6, 3, (5, 5, 5, 5, 5, 5)),
        (6, 3, (4, 4, 3, 3, 2, 2)),
    ]:
        assert _count_dense(n, r, degrees) == _count_sparse(n, r, degrees)


@pytest.mark.parametrize("n, r, m", [(14, 4, 3), (16, 4, 2), (12, 3, 3)])
def test_matching_counts_beyond_a_thousand_subsets(n, r, m):
    """All degrees 1 on r*m vertices: (rm)! / (r!^m m!) perfect matchings.

    C(14, 4) = 1001 and C(16, 4) = 1820 colex positions once exhausted the
    interpreter's recursion limit."""
    degrees = (1,) * (r * m) + (0,) * (n - r * m)
    expected = math.factorial(r * m) // (math.factorial(r) ** m * math.factorial(m))
    assert exact_count(DegreeSequence(n, r, degrees)) == expected


def test_count_wider_than_an_int64_state():
    # 32 fields of two bits each: states stay Python ints throughout
    assert _count_sparse(32, 2, (1,) * 32) == math.prod(range(1, 32, 2))


@pytest.mark.parametrize("degrees, expected", [
    ((10,) * 4 + (11,) * 4, 202161821625),
    ((9,) * 8, 155405550825),
])
def test_half_density_n8_counts_agree_with_edge_complement(degrees, expected, monkeypatch):
    """Counts with thousands of DP states, checked against the image that
    replaces every edge W by its complement V - W: an r = 5 instance,
    (8, 5, 18^4 17^4) and (8, 5, 15^8), whose DP runs on other states."""
    seq = DegreeSequence(8, 3, degrees)
    image = apply_symmetry(seq, QuadrantTransform.EDGE_COMPLEMENT)
    assert image.r == 5
    monkeypatch.setenv("HYPERDEG_BUDGET", str(10**11))
    assert exact_count(seq) == expected
    assert _count_sparse(8, 3, degrees) == expected
    assert _count_sparse(8, 5, image.degrees) == expected


def _state_form_instances():
    cap = math.comb(5, 2)
    for m in range(math.comb(6, 3) + 1):
        for degrees in _sorted_degree_vectors(3 * m, 6, cap):
            yield 6, 3, degrees
    for n, r, m in [(12, 3, 3), (14, 4, 3), (16, 4, 2)]:
        yield n, r, (1,) * (r * m) + (0,) * (n - r * m)
    yield 8, 3, (9,) * 8


def test_dict_and_array_states_agree(monkeypatch):
    """Every state held in the dict, every state in arrays from the first
    step, and the default switch between them give the same counts."""
    monkeypatch.setenv("HYPERDEG_BUDGET", str(10**11))  # (8, 3, 9^8): 2.4e9
    instances = [DegreeSequence(*args) for args in _state_form_instances()]
    default = [exact_count(seq) for seq in instances]
    for threshold in (0, 10**9):
        monkeypatch.setattr(oracle, "VECTOR_MIN_STATES", threshold)
        assert [exact_count(seq) for seq in instances] == default
    assert default[-1] == 155405550825


def test_budget_guard_raises():
    seq = DegreeSequence(10, 3, (18,) * 10)
    with pytest.raises(BudgetExceeded):
        exact_count(seq)


def _trivial_face_vectors(n, r):
    """Every sorted degree vector at (n, r) with a degree 0 or C(n-1, r-1)."""
    cap = math.comb(n - 1, r - 1)
    return [d for m in range(math.comb(n, r) + 1)
            for d in _sorted_degree_vectors(r * m, n, cap) if 0 in d or cap in d]


def _assert_reduction_exact(n, r, degrees):
    cap = math.comb(n - 1, r - 1)
    expected = _count_sparse(n, r, degrees)
    assert exact_count(DegreeSequence(n, r, degrees)) == expected, degrees
    mirror = tuple(cap - d for d in degrees)
    assert exact_count(DegreeSequence(n, r, mirror)) == expected, mirror


@pytest.mark.parametrize("n, r", [(4, 1), (6, 1), (5, 2), (6, 2), (6, 3)])
def test_trivial_face_reduction_keeps_every_count(n, r):
    vectors = _trivial_face_vectors(n, r)
    assert vectors
    for degrees in vectors:
        _assert_reduction_exact(n, r, degrees)


def test_trivial_face_reduction_on_seeded_vectors_at_n7():
    vectors = _trivial_face_vectors(7, 3)
    rng = np.random.default_rng(7)
    for i in rng.choice(len(vectors), size=200, replace=False):
        _assert_reduction_exact(7, 3, vectors[i])


def test_trivial_faces_reduce_repeatedly():
    # the full vertex gives each other vertex C(4, 0) = 1 edge, which leaves
    # a 0; dropping it leaves the 2-regular graphs on 4 vertices, the 4-cycles
    degrees = [5, 3, 3, 3, 3, 1]
    assert oracle._drop_trivial_faces(6, 2, degrees) == 4
    assert degrees == [2, 2, 2, 2]
    assert exact_count(DegreeSequence(6, 2, (5, 3, 3, 3, 3, 1))) == 3


def test_full_vertex_leaving_a_negative_degree_counts_zero():
    # d_1 = C(4, 2) = 6 puts C(3, 1) = 3 edges on every other vertex
    degrees = (6, 2, 2, 1, 1)
    assert oracle._drop_trivial_faces(5, 3, list(degrees)) is None
    assert exact_count(DegreeSequence(5, 3, degrees)) == 0 == _count_sparse(5, 3, degrees)


def test_budget_guard_charges_the_unreduced_instance(monkeypatch):
    # the (16, 4) matching reduces to (8, 4) but is charged 2^8 * C(16, 4)
    seq = DegreeSequence(16, 4, (1,) * 8 + (0,) * 8)
    work = 2**8 * math.comb(16, 4)
    monkeypatch.setenv("HYPERDEG_BUDGET", str(work - 1))
    with pytest.raises(BudgetExceeded, match=f"DP bound of {work} "):
        exact_count(seq)
    monkeypatch.setenv("HYPERDEG_BUDGET", str(work))
    assert exact_count(seq) == 35


def test_total_identity_small_cases():
    assert total_identity_check(4, 3, 0)
    assert total_identity_check(4, 3, 2)
    assert total_identity_check(5, 3, 3)


# (4, 3, 4) has a binding cap: C(3, 2) = 3 leaves only (3, 3, 3, 3)
@pytest.mark.parametrize("n, r, m", [(4, 3, 4), (5, 3, 4), (6, 3, 3), (5, 2, 3), (6, 4, 5)])
def test_sorted_vectors_weighted_by_arrangements_cover_the_compositions(n, r, m):
    cap = math.comb(n - 1, r - 1)
    every = list(compositions(r * m, n, cap))
    vectors = list(_sorted_degree_vectors(r * m, n, cap))
    assert len(set(vectors)) == len(vectors)
    assert set(vectors) == {tuple(sorted(d, reverse=True)) for d in every}
    assert sum(_arrangements(d) for d in vectors) == len(every)
    assert Counter(tuple(sorted(d, reverse=True)) for d in every) == {
        d: _arrangements(d) for d in vectors
    }


@pytest.fixture
def exact_calls(monkeypatch):
    """The degree vectors that ``oracle.exact_count`` is called on, in order."""
    real = oracle.exact_count
    calls = []

    def counting(seq):
        calls.append(seq.degrees)
        return real(seq)

    monkeypatch.setattr(oracle, "exact_count", counting)
    return calls


def test_total_identity_counts_each_sorted_vector_once(exact_calls):
    assert total_identity_check(6, 3, 3)
    # one call per sorted vector, where there are 2,002 compositions
    assert len(exact_calls) == len(set(exact_calls)) == 26
    assert len(list(compositions(9, 6, 10))) == 2002


def test_total_identity_detects_one_wrong_class_count(monkeypatch):
    real = oracle.exact_count
    target = (2, 2, 2, 1, 1, 1)

    def off_by_one(seq):
        count = real(seq)
        if seq.degrees == target:
            count += 1
        return count

    monkeypatch.setattr(oracle, "exact_count", off_by_one)
    assert not total_identity_check(6, 3, 3)


def test_total_identity_budget_is_checked_before_any_count(exact_calls, monkeypatch):
    # each sorted vector's bound, the smaller of prod(d + 1) and its mirror's
    work = math.comb(6, 3) * sum(
        min(math.prod(d + 1 for d in v), math.prod(10 - d + 1 for d in v))
        for v in _sorted_degree_vectors(9, 6, 10)
    )
    monkeypatch.setenv("HYPERDEG_BUDGET", str(work - 1))
    with pytest.raises(
        BudgetExceeded,
        match=f"DP bound of {work} state-edge operations exceeds budget {work - 1}",
    ):
        total_identity_check(6, 3, 3)
    assert exact_calls == []
    monkeypatch.setenv("HYPERDEG_BUDGET", str(work))
    assert total_identity_check(6, 3, 3)
    assert len(exact_calls) == 26


def test_quadrature_equals_exact_at_zero_contour():
    seq = DegreeSequence(4, 3, (2, 2, 1, 1))
    res = cauchy_quadrature(seq)
    assert res.points_per_axis == 4  # C(n-1, r-1) + 1
    assert res.grid_points == 4**4
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.imag_residual <= 1e-9

    complete = DegreeSequence(4, 3, (3, 3, 3, 3))
    assert cauchy_quadrature(complete).value == pytest.approx(1.0, abs=1e-9)


def test_quadrature_contour_independence():
    seq = DegreeSequence(5, 3, (3, 3, 2, 2, 2))
    exact = exact_count(seq)
    at_zero = cauchy_quadrature(seq).value
    beta = solve(seq).beta_star
    at_solution = cauchy_quadrature(seq, beta=beta).value
    rng = np.random.default_rng(2)
    at_random = cauchy_quadrature(seq, beta=rng.normal(scale=0.3, size=5)).value
    for value in (at_zero, at_solution, at_random):
        assert value == pytest.approx(exact, abs=1e-8 * max(1.0, exact))


def test_quadrature_zero_count_sequence():
    seq = DegreeSequence(4, 3, (3, 1, 1, 1))
    assert exact_count(seq) == 0
    assert cauchy_quadrature(seq).value == pytest.approx(0.0, abs=1e-8)


def test_quadrature_guards(monkeypatch):
    big = DegreeSequence(7, 3, (6,) * 7)
    with pytest.raises(BudgetExceeded, match=r"enumeration of 9395240960 subsets"):
        cauchy_quadrature(big)  # 16^7 grid points times C(7, 3) factors
    # 498,502^1000 grid points: refused without forming the 5,706-digit work
    wide = DegreeSequence(1000, 3, (498,) * 1000)
    with pytest.raises(BudgetExceeded, match="enumeration of inf subsets"):
        cauchy_quadrature(wide)
    seq = DegreeSequence(5, 3, (3, 3, 2, 2, 2))
    monkeypatch.setenv("HYPERDEG_BUDGET", "100")
    with pytest.raises(BudgetExceeded):
        cauchy_quadrature(seq)
    monkeypatch.delenv("HYPERDEG_BUDGET")
    # 7^7 grid points times C(7, 2) factors fit the default subset budget
    pairs = DegreeSequence(7, 2, (2,) * 7)
    res = cauchy_quadrature(pairs)
    assert res.grid_points == 7**7
    assert exact_count(pairs) == 465
    assert res.value == pytest.approx(465, rel=1e-10)


@pytest.mark.parametrize("n, r", [(4, 2), (4, 3), (5, 2), (5, 3)])
def test_quadrature_equals_exact_on_every_sorted_vector(n, r):
    """At the zero contour and at a seeded random one, to 1e-12 relative."""
    contours = [None, np.random.default_rng(10 * n + r).normal(scale=0.5, size=n)]
    cap = math.comb(n - 1, r - 1)
    for m in range(math.comb(n, r) + 1):
        for degrees in _sorted_degree_vectors(r * m, n, cap):
            seq = DegreeSequence(n, r, degrees)
            count = exact_count(seq)
            for beta in contours:
                res = cauchy_quadrature(seq, beta)
                assert abs(res.value - count) <= 1e-12 * max(1, count)
                assert res.imag_residual <= 1e-12 * max(1, count)


@pytest.mark.parametrize(
    "r, degrees, count",
    [
        (2, (4, 3, 3, 2, 2, 2), 27),  # 6 points per axis
        (3, (5,) * 6, 1044),  # 11 points per axis, 1.8M grid points
    ],
)
def test_quadrature_equals_exact_at_n6(r, degrees, count):
    seq = DegreeSequence(6, r, degrees)
    assert exact_count(seq) == count
    res = cauchy_quadrature(seq)
    assert res.points_per_axis == math.comb(5, r - 1) + 1
    assert res.value == pytest.approx(count, rel=1e-10)
    assert res.imag_residual <= 1e-8 * count
