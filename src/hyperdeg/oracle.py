"""Ground-truth oracles: exact counts and the coefficient-extraction check.

``exact_count`` extracts the coefficient of ``x_1^{d_1} ... x_n^{d_n}`` in
the product over all r-subsets W of ``(1 + prod_{j in W} x_j)`` — each
factor decides whether W is an edge — by an iterative DP over subsets in
colex order, in exact integer arithmetic.  Its states are residual-degree
vectors, pruned by the supply of later subsets and merged up to the vertex
permutations that fix the rest of the family (orbit compression); the
peak state count is 70, 733, 16,023, 178,745 and 1.9 million for
half-density r = 3 instances at n = 6..10.  A merge sorts a block of
residuals, and the sorted form of each block is computed once per count and
looked up for every later state that has it.  Before the DP it removes
trivial-face vertices, which decide their own subsets: a vertex of degree
0 lies in no edge, and one of degree C(n-1, r-1) lies in every subset
through it, so each other vertex gets C(n-2, r-2) edges from those.  The
budget guard still charges the instance as given.

``total_identity_check`` checks the completeness identity: the counts of
all degree vectors with m edges sum to ``C(C(n, r), m)``.  It counts each
sorted degree vector once and weights it by its number of arrangements,
which is exact because the DP sorts its input and the mirror choice of
``exact_count`` is symmetric in the degrees.  Its guard charges the sum of
those vectors' own bounds.

``cauchy_quadrature`` evaluates the same coefficient as a prefactor times a
tensor-grid sum of the extraction integrand.  Write T = C(n-1, r-1), the
largest possible degree.  The integrand is a trigonometric polynomial whose
frequencies on axis j are the T + 1 consecutive integers ``-d_j .. T - d_j``,
and an M-point rule on that axis sums frequency k to 0 unless M divides k.
With ``M = T + 1`` every nonzero frequency has ``|k| <= T < M``, so only
frequency 0 survives, and the grid sum is the constant term exactly, up to
floating rounding, for any finite contour vector beta.  Every grid angle is
a multiple of 2 pi / M up to a shift by pi, so every phase of the integrand
is a signed power of the M-th root of unity: the factors are read from a
table by integer digit sums, and no exponential is taken per point.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .budgets import check_dp_budget, check_subset_budget, dp_budget
from .core import DegreeSequence
from .fields import Twofold, as_beta_array, logistic, softplus
from .subsets import all_subsets

# Below this many DP states a dict of Python ints beats the per-step
# overhead of numpy arrays.  Measured on matchings to (16, 4, 2), which
# peak at 9 states over up to 495 steps and must stay in the dict, and on
# half-density (6..7, 3), which peak at 60 to 1,300 states.
VECTOR_MIN_STATES = 16
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

    The sorted form of the block depends only on the block's bits, so each
    one is computed once: the dict form keeps a memo per block size, and
    the array form sorts the distinct blocks of a step only.
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
    # the sorted form of each low block seen, per block size
    canon: dict[int, dict[int, int]] = {}
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
                sorted_block = canon.setdefault(hi, {})
                states = {}
                for s, c in nxt.items():
                    b = s & low
                    t = sorted_block.get(b)
                    if t is None:
                        block = sorted((b >> sh) & ones for sh in shifts[:hi])
                        t = sum(v << sh for v, sh in zip(block, shifts))
                        sorted_block[b] = t
                    s ^= b ^ t
                    states[s] = states.get(s, 0) + c
            else:
                states = nxt
            continue
        skip = np.flatnonzero(((keys + excess) & guard) == 0)
        take = np.flatnonzero((((keys | guard) - unit) & guard) == guard)
        source = np.concatenate([skip, take])
        keys = np.concatenate([keys[skip], keys[take] - unit])
        if hi > lo:
            low = (1 << shifts[hi - 1] + field) - 1
            blocks, inverse = np.unique(keys & low, return_inverse=True)
            sh = np.asarray(shifts[:hi], dtype=np.int64)
            block = blocks[:, None] >> sh
            block &= ones
            block.sort(axis=1)
            keys = (keys & ~low) | (block @ (np.int64(1) << sh))[inverse]
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


def _mirror_choice(degrees, cap: int) -> tuple[list[int], int]:
    """The degrees ``exact_count`` counts, and their bound prod_j (d_j + 1):
    the set-complement degrees cap - d_j when their bound is smaller."""
    work = list(degrees)
    bound = math.prod(d + 1 for d in work)
    mirror = [cap - d for d in work]
    mirror_bound = math.prod(d + 1 for d in mirror)
    if mirror_bound < bound:
        return mirror, mirror_bound
    return work, bound


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
    work, bound = _mirror_choice(seq.degrees, seq.degree_cap)
    check_dp_budget(bound * math.comb(seq.n, seq.r))

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
    the same count.  The budget guard charges what those counts charge,
    C(n, r) times the sum of each sorted vector's own bound (after the
    mirror choice), before any of them is counted; the vectors are listed
    only until that charge passes the budget.
    """
    total_subsets = math.comb(n, r)
    cap = math.comb(n - 1, r - 1)
    limit = dp_budget()
    vectors, work = [], 0
    for degrees in _sorted_degree_vectors(r * m, n, cap):
        vectors.append(degrees)
        work += _mirror_choice(degrees, cap)[1] * total_subsets
        if work > limit:
            break  # refused below, without listing the rest
    check_dp_budget(work)
    acc = 0
    for degrees in vectors:
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
    to the subset budget before any point is evaluated.  Those factors,
    1 + lambda_W (e^{i theta_W} - 1), take C(n, r) * (r (M - 1) + 1)
    values in all, one per subset and digit sum; they are tabled once, and
    each point gathers its row of the table.  The grid is walked in fixed
    chunks of ``GRID_CHUNK`` points, folded in order with twofold
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

    rows = all_subsets(n, r)
    s_w = arr[rows].sum(axis=1)
    lam = logistic(s_w)
    degrees = np.asarray(seq.degrees, dtype=np.float64)

    # scale = P_r(beta) * (2 pi / M)^n, with the (2 pi)^{-n} cancelled
    log_scale = (
        -float(arr @ degrees) + float(softplus(s_w).sum()) - n * math.log(m_axis)
    )
    scale = math.exp(log_scale)

    # theta_j = -pi + 2 pi (k_j + 1) / M at digit k_j, so every phase is a
    # power of omega = e^{2 pi i / M}: e^{i theta_W} = (-1)^r omega^{t + r}
    # with t = sum_{j in W} k_j in 0..r (M - 1), and each factor of the
    # integrand is read from row W, column t of a table
    omega = np.exp(2j * math.pi * np.arange(m_axis) / m_axis)
    sums = r * (m_axis - 1) + 1
    phase = (-1) ** r * omega[(np.arange(sums) + r) % m_axis]
    factor_table = (1.0 + lam[:, None] * (phase[None, :] - 1.0)).ravel()
    row_offsets = (np.arange(subsets, dtype=np.int64) * sums)[:, None]
    # and e^{-i theta . d} = (-1)^{sum d} omega^{(-sum_j d_j k_j - sum d) mod M}
    deg_int = np.asarray(seq.degrees, dtype=np.int64)
    deg_sum = sum(seq.degrees)
    twist_table = (-1) ** deg_sum * omega

    real_acc = Twofold(0.0)
    imag_acc = Twofold(0.0)
    for lo in range(0, grid_total, GRID_CHUNK):
        rest = np.arange(lo, min(lo + GRID_CHUNK, grid_total), dtype=np.int64)
        # digits[j] is axis j's grid index, the last axis varying fastest
        digits = np.empty((n, rest.size), dtype=np.int64)
        for j in range(n - 1, -1, -1):
            np.divmod(rest, m_axis, out=(rest, digits[j]))
        index = digits[rows[:, 0]] + row_offsets
        for q in range(1, r):
            index += digits[rows[:, q]]
        twist = twist_table[(-(deg_int @ digits) - deg_sum) % m_axis]
        values = factor_table[index].prod(axis=0) * twist
        total_c = values.sum()
        real_acc.add(float(total_c.real))
        imag_acc.add(float(total_c.imag))

    return QuadratureResult(
        value=scale * real_acc.value(),
        imag_residual=scale * abs(imag_acc.value()),
        points_per_axis=m_axis,
        grid_points=grid_total,
    )
