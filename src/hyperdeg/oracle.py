"""Ground-truth oracles: exact counts and the coefficient-extraction check.

``exact_count`` extracts the coefficient of ``x_1^{d_1} ... x_n^{d_n}`` in
the product over all r-subsets W of ``(1 + prod_{j in W} x_j)`` — each
factor decides whether W is an edge — by an iterative DP over subsets in
colex order, in exact integer arithmetic.  Its states are residual-degree
vectors, pruned by the supply of later subsets and merged up to the vertex
permutations that fix the rest of the family (orbit compression); the
peak state count is 70, 733, 16,023, 178,745 and 1.9 million for
half-density r = 3 instances at n = 6..10.  Before the DP it removes
trivial-face vertices, which decide their own subsets: a vertex of degree
0 lies in no edge, and one of degree C(n-1, r-1) lies in every subset
through it, so each other vertex gets C(n-2, r-2) edges from those.  The
budget guard still charges the instance as given.

``total_identity_check`` checks the completeness identity: the counts of
all degree vectors with m edges sum to ``C(C(n, r), m)``.  It counts each
sorted degree vector once and weights it by its number of arrangements,
which is exact because the DP sorts its input and the mirror choice of
``exact_count`` is symmetric in the degrees.

``cauchy_quadrature`` evaluates the same coefficient as a prefactor times a
tensor-grid sum of the extraction integrand.  Write T = C(n-1, r-1), the
largest possible degree.  The integrand is a trigonometric polynomial whose
frequencies on axis j are the T + 1 consecutive integers ``-d_j .. T - d_j``,
and an M-point rule on that axis sums frequency k to 0 unless M divides k.
With ``M = T + 1`` every nonzero frequency has ``|k| <= T < M``, so only
frequency 0 survives, and the grid sum is the constant term exactly, up to
floating rounding, for any finite contour vector beta.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .budgets import check_dp_budget, check_subset_budget
from .core import DegreeSequence
from .fields import Twofold, as_beta_array, logistic, softplus
from .subsets import all_subsets, incidence

# Below this many DP states a dict of Python ints beats the per-step
# overhead of numpy arrays.
VECTOR_MIN_STATES = 128
# quadrature grid points evaluated per chunk
GRID_CHUNK = 1 << 15


@lru_cache(maxsize=64)
def _colex_plan(n: int, r: int, width: int):
    """Bit masks for each colex position, for the packed states of
    ``_count_sparse``.

    Each step is ``(guard, unit, excess, lo, hi)`` for a subset U:
    ``guard`` has the guard bit of every vertex of U set, ``unit`` a one in
    each of their fields, and adding ``excess`` carries into a guard bit
    exactly when that vertex needs more edges than the subsets after U
    contain.  ``lo`` and ``hi`` are the orbit block sizes before and after
    U.  The block before U is {0..U[p]-1}, where U[0..p-1] = 0..p-1:
    whether a subset comes at or after U in colex order depends only on its
    vertices from U[p] up, so the family left before U is invariant under
    any permutation of {0..U[p]-1}.  Before the first subset the whole
    family remains (block n); after the last nothing is left to order
    (block 0).
    """
    field = width + 1
    ones = (1 << width) - 1
    subsets = all_subsets(n, r).tolist()
    blocks = []
    for w in subsets:
        p = 0
        while p < r and w[p] == p:
            p += 1
        blocks.append(n if p == r else w[p])
    blocks.append(0)
    later = [0] * n
    steps = []
    for i in range(len(subsets) - 1, -1, -1):
        w = subsets[i]
        for j in w:
            later[j] += 1
        steps.append((
            sum(1 << (field * j + width) for j in w),
            sum(1 << (field * j) for j in w),
            sum(max(0, ones - later[j] + 1) << (field * j) for j in w),
            blocks[i],
            blocks[i + 1],
        ))
    steps.reverse()
    return tuple(steps)


def _count_sparse(n: int, r: int, degrees: tuple[int, ...]) -> int:
    """Orbit-compressed coefficient DP over colex positions.

    A state is the vector of residual degrees, packed into one integer with
    ``width`` value bits and one guard bit per vertex; its value is the
    number of ways the subsets already passed reach it.  Before subset U
    the residuals on the block {0..U[p]-1} are kept sorted ascending (see
    ``_colex_plan``), which merges every state with the states it equals up
    to a permutation that leaves the rest of the family unchanged.  Taking
    U lowers the p smallest residuals of the block, so sorting is needed
    only where the next block is larger.  A state is dropped as soon as
    some vertex needs more edges than the later subsets can give it.

    States live in a dict of Python ints while they are few, and in sorted
    numpy arrays (int64 keys, exact Python-int counts) beyond
    ``VECTOR_MIN_STATES`` when a packed state fits in 63 bits.
    """
    width = max(max(degrees, default=0), 1).bit_length()
    field = width + 1
    ones = (1 << width) - 1
    shifts = [field * j for j in range(n)]
    vector_ok = n * field <= 63
    states: dict[int, int] | None = {
        sum(d << sh for d, sh in zip(sorted(degrees), shifts)): 1
    }
    keys = counts = None
    for guard, unit, excess, lo, hi in _colex_plan(n, r, width):
        if states is not None:
            if not states or states.keys() == {0}:
                break  # every later subset can only be skipped
            if vector_ok and len(states) > VECTOR_MIN_STATES:
                ordered = sorted(states)
                keys = np.array(ordered, dtype=np.int64)
                counts = np.array([states[s] for s in ordered], dtype=object)
                states = None
        if states is not None:
            nxt: dict[int, int] = {}
            for s, c in states.items():
                if not (s + excess) & guard:
                    nxt[s] = nxt.get(s, 0) + c
                if ((s | guard) - unit) & guard == guard:
                    nxt[s - unit] = nxt.get(s - unit, 0) + c
            if hi > lo:
                low = (1 << shifts[hi - 1] + field) - 1
                states = {}
                for s, c in nxt.items():
                    block = sorted((s >> sh) & ones for sh in shifts[:hi])
                    s = (s & ~low) | sum(v << sh for v, sh in zip(block, shifts))
                    states[s] = states.get(s, 0) + c
            else:
                states = nxt
            continue
        skip = np.flatnonzero(((keys + excess) & guard) == 0)
        take = np.flatnonzero((((keys | guard) - unit) & guard) == guard)
        source = np.concatenate([skip, take])
        keys = np.concatenate([keys[skip], keys[take] - unit])
        if hi > lo:
            sh = np.asarray(shifts[:hi], dtype=np.int64)
            block = keys[:, None] >> sh
            block &= ones
            block.sort(axis=1)
            low = (1 << shifts[hi - 1] + field) - 1
            keys = (keys & ~low) | (block @ (np.int64(1) << sh))
            order = np.argsort(keys)
        else:
            # both halves are already sorted; a stable sort merges two runs
            order = np.argsort(keys, kind="stable")
        keys = keys[order]
        counts = counts[source[order]]
        fresh = np.empty(keys.size, dtype=bool)
        fresh[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        if not fresh.all():
            starts = np.flatnonzero(fresh)
            counts = np.add.reduceat(counts, starts)
            keys = keys[starts]
    if states is not None:
        return states.get(0, 0)
    return int(counts[0]) if keys.size and keys[0] == 0 else 0


def _drop_trivial_faces(n: int, r: int, degrees: list[int]) -> int | None:
    """Remove trivial-face vertices from ``degrees`` in place, while n > r.

    A vertex of degree 0 is in no edge and is dropped.  A vertex of degree
    C(n-1, r-1) is in every subset through it: it is dropped and each other
    vertex loses the C(n-2, r-2) of those subsets it lies in (none at
    r = 1).  The count is unchanged.  Returns the vertices left, or None
    when a degree goes negative, so that the count is 0.
    """
    while n > r:
        full = math.comb(n - 1, r - 1)
        if 0 in degrees:
            degrees.remove(0)
        elif full in degrees:
            degrees.remove(full)
            shared = math.comb(n - 2, r - 2) if r >= 2 else 0
            degrees[:] = [d - shared for d in degrees]
            if min(degrees) < 0:
                return None
        else:
            break
        n -= 1
    return n


def exact_count(seq: DegreeSequence) -> int:
    """Exact number of hypergraphs with the given degrees (big integer).

    The DP bound ``prod_j (d_j + 1) * C(n, r)`` is checked against the
    budget before any state is built, and it is the only check: an
    instance within budget is counted.  The set-complement degrees
    C(n-1, r-1) - d_j are counted instead whenever their bound is smaller
    (the two counts are equal).  Trivial-face vertices are then removed
    (``_drop_trivial_faces``), and what is left is counted by the
    orbit-compressed DP of ``_count_sparse``, which holds far fewer states
    than the bound.  The guard charges the instance before the reduction.
    """
    total, cap = math.comb(seq.n, seq.r), seq.degree_cap
    work = list(seq.degrees)
    bound = math.prod(d + 1 for d in work)
    mirror = [cap - d for d in work]
    mirror_bound = math.prod(d + 1 for d in mirror)
    if mirror_bound < bound:
        work, bound = mirror, mirror_bound
    check_dp_budget(bound * total)

    n = _drop_trivial_faces(seq.n, seq.r, work)
    if n is None:
        return 0
    return _count_sparse(n, seq.r, tuple(work))


def _sorted_degree_vectors(total: int, parts: int, cap: int):
    """Every non-increasing vector of length ``parts`` with entries in
    [0, cap] summing to total: one per multiset of degrees."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    # the head is the largest entry, so it is at least the mean
    for head in range(min(total, cap), -(-total // parts) - 1, -1):
        for rest in _sorted_degree_vectors(total - head, parts - 1, head):
            yield (head,) + rest


def _arrangements(degrees: tuple[int, ...]) -> int:
    """Number of distinct orderings of a degree vector: n! over the
    factorials of the multiplicities of its values."""
    return math.factorial(len(degrees)) // math.prod(
        math.factorial(k) for k in Counter(degrees).values()
    )


def total_identity_check(n: int, r: int, m: int) -> bool:
    """Sum of exact counts over all degree vectors with m edges.

    Every m-edge hypergraph has exactly one degree sequence, so the sum
    must equal ``C(C(n, r), m)`` exactly.  The sum runs over the sorted
    degree vectors, each counted once and weighted by its number of
    arrangements.  That is the same integer as the sum over every vector:
    the DP sorts its input before its first step, and the mirror choice,
    the trivial-face reduction and the state width of ``exact_count`` read
    only the multiset of the degrees, so every arrangement of a vector has
    the same count.  The budget guard still charges
    C(r·m + n - 1, n - 1) · C(n, r), as if every composition of r·m were
    counted.
    """
    total_subsets = math.comb(n, r)
    cap = math.comb(n - 1, r - 1)
    n_compositions = math.comb(r * m + n - 1, n - 1)
    check_dp_budget(n_compositions * total_subsets)
    acc = 0
    for degrees in _sorted_degree_vectors(r * m, n, cap):
        seq = DegreeSequence(n, r, degrees)
        acc += _arrangements(degrees) * exact_count(seq)
    return acc == math.comb(total_subsets, m)


@dataclass
class QuadratureResult:
    value: float
    imag_residual: float
    points_per_axis: int
    grid_points: int


def cauchy_quadrature(seq: DegreeSequence, beta=None) -> QuadratureResult:
    """Coefficient extraction on a tensor grid; exact up to rounding.

    Valid at any finite contour vector beta (default all zeros): the result
    is independent of the contour because the summed integrand is the same
    trigonometric polynomial on every contour.  Each grid point evaluates
    one factor per r-subset, so the grid points times C(n, r) are charged
    to the subset budget before any point is evaluated.  The grid is walked
    in fixed chunks of ``GRID_CHUNK`` points, folded in order with twofold
    compensation.  The imaginary part of the accumulated sum is returned as
    a residual diagnostic.
    """
    n, r = seq.n, seq.r
    arr = np.zeros(n) if beta is None else as_beta_array(beta, n)
    subsets = math.comb(n, r)
    m_axis = math.comb(n - 1, r - 1) + 1
    # a work of 2^1024 or more exceeds every finite budget; it is charged
    # as inf, not formed exactly (millions of digits at large n)
    bits = n * math.log2(m_axis) + math.log2(subsets)
    check_subset_budget(m_axis**n * subsets if bits < 1024 else math.inf)
    grid_total = m_axis**n

    inc = incidence(n, r)
    s_w = inc @ arr
    lam = logistic(s_w)
    degrees = np.asarray(seq.degrees, dtype=np.float64)

    # scale = P_r(beta) * (2 pi / M)^n, with the (2 pi)^{-n} cancelled
    log_scale = (
        -float(arr @ degrees) + float(softplus(s_w).sum()) - n * math.log(m_axis)
    )
    scale = math.exp(log_scale)

    thetas = -math.pi + 2.0 * math.pi * (np.arange(m_axis) + 1.0) / m_axis
    powers = m_axis ** np.arange(n - 1, -1, -1, dtype=np.int64)

    real_acc = Twofold(0.0)
    imag_acc = Twofold(0.0)
    for lo in range(0, grid_total, GRID_CHUNK):
        linear = np.arange(lo, min(lo + GRID_CHUNK, grid_total), dtype=np.int64)
        digits = (linear[:, None] // powers[None, :]) % m_axis
        theta = thetas[digits]
        phase = theta @ inc.T
        factors = 1.0 + lam[None, :] * (np.exp(1j * phase) - 1.0)
        values = factors.prod(axis=1) * np.exp(-1j * (theta @ degrees))
        total_c = values.sum()
        real_acc.add(float(total_c.real))
        imag_acc.add(float(total_c.imag))

    return QuadratureResult(
        value=scale * real_acc.value(),
        imag_residual=scale * abs(imag_acc.value()),
        points_per_axis=m_axis,
        grid_points=grid_total,
    )
