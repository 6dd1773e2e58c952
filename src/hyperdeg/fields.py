"""Edge weights of the maximum-entropy model and their subset sums.

Given a vertex parameter vector beta, each r-subset W carries the weight
``lambda_W = logistic(sum_{j in W} beta_j)``, the probability that W is an
edge.  One sweep of the r-subset family accumulates the per-vertex sums,
per-pair variance weights, the average weight, the average variance weight
and the entropy sum.  At a solution of the degree system the log-prefactor
of the exact coefficient-extraction identity is ``-n log(2 pi)`` plus that
entropy sum; elsewhere it adds ``sum_j beta_j (vertex_sums_j - d_j)``.

Vertices with equal beta can be swept as classes (``core.VertexClasses``): with
class sizes n_i, the subsets fall into compositions a of r (a_i vertices
from class i), each standing for prod C(n_i, a_i) subsets with one weight,
so a sweep over the C(k+r-1, r) compositions replaces one over all C(n, r)
subsets.  Every vertex its own class is the plain colex sweep.

Every field sweep folds one chunk kernel, ``_chunk_terms``, over fixed
4096-row chunks, serially, in chunk order, with twofold compensation, so
every result is a fixed function of its inputs.  The kernel returns one
vector ``[lam, q, entropy, vertex_lam (k), vertex_q (k), pair_q (k^2)]``
and one ``Twofold`` folds it, entry by entry.  It scatters straight from
the row plan: one ``np.add.at`` per pair position, and one complex
``np.add.at`` per vertex position for both vertex sums, with no workspace.

The rows and pair keys of a sweep depend on no beta, so they are unranked
once into a read-only row plan per (k, r, colex or multisets) and read from
it by every later sweep.  A plan stores each chunk's rows column-major, as
a contiguous (r, rows) array; the sweeps read its transposed (rows, r) view
and sum rows with ``row_sums``, in numpy's order for a row-major row: left
to right below 8 terms, pairwise from 8 on.  ``PLAN_CACHE_BYTES`` is the
one bound on the plans.  A family whose plan fits it is planned whole, and
the plans stay cached within it, least recently used evicted first, so the
frames a process cycles through are unranked once.  A family whose plan
does not fit is streamed: every sweep unranks its chunks again, so memory
stays bounded however many rows a sweep visits.
"""

from __future__ import annotations

import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .budgets import check_subset_budget, subset_budget
from .core import VertexClasses
from .errors import BudgetExceeded
from .subsets import iter_chunks, iter_multisets

# Bytes the row plans hold at most, one plan or all the cached ones; a
# family whose plan would hold more is streamed, unranked again by every
# sweep.  One fit round of (20..40, 4) solves and their audits cycles
# through 12 plans of 5.6 MB in all, (40, 4) the largest at 1.74 MB.
PLAN_CACHE_BYTES = 8 << 20


def as_beta_array(beta, n: int | None = None) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(beta, dtype=np.float64))
    if n is not None and arr.size != n:
        raise ValueError(f"beta has {arr.size} entries, expected {n}")
    return arr


def logistic(s):
    """Numerically stable logistic, elementwise, valued in (0, 1)."""
    s = np.asarray(s, dtype=np.float64)
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    es = np.exp(s[~pos])
    out[~pos] = es / (1.0 + es)
    return out


def softplus(s):
    """log(1 + e^s) without overflow."""
    s = np.asarray(s, dtype=np.float64)
    return np.maximum(s, 0.0) + np.log1p(np.exp(-np.abs(s)))


@dataclass
class FieldSummary:
    """Subset sums observed at one beta, per vertex class.

    ``class_sums[i]`` and ``class_variance[i]`` are the weight and
    variance-weight sums over the subsets through one vertex of class i;
    ``pair_blocks[i, j]`` is the variance-weight sum over the subsets
    through one vertex of class i and another vertex of class j (0 within a
    one-vertex class).  On singletons these are the per-vertex and per-pair
    sums.  ``beta`` holds one value per class.  ``entropy`` is the sum over
    all C(n, r) subsets of the binary entropy of the edge weight, taken by the
    same sweep on every route.
    """

    n: int
    r: int
    beta: np.ndarray
    classes: VertexClasses
    class_sums: np.ndarray
    class_variance: np.ndarray
    pair_blocks: np.ndarray
    avg_lambda: float
    big_lambda: float
    entropy: float

    @property
    def vertex_sums(self) -> np.ndarray:
        return self.class_sums[self.classes.index]

    @property
    def pair_weights(self) -> np.ndarray:
        """The symmetric n x n matrix of per-vertex (diagonal) and per-pair
        sums: twice the weight matrix A, the Jacobian of the degree system.

        This is the one n x n expansion of the class blocks, read only by
        ``solve --dump-field`` and ``--dump-matrix``.  Class blocks are
        expanded only when the n^2 entries fit the subset budget in force
        when the matrix is read; beyond it ``BudgetExceeded`` is raised.
        """
        n, k, index = self.n, self.classes.k, self.classes.index
        limit = subset_budget()
        if k < n and n * n > limit:
            raise BudgetExceeded(
                f"expanding {k}x{k} class blocks to the {n}x{n} weight matrix "
                f"({n * n} entries) exceeds budget {limit}"
            )
        pw = self.pair_blocks[np.ix_(index, index)]
        np.fill_diagonal(pw, self.class_variance[index])
        return pw

    def class_jacobian(self) -> np.ndarray:
        """U^T (2A) U, with U the n x k class indicator matrix.

        This is the Jacobian of the class-summed degree residuals in the
        class betas; on singletons it is 2A itself.
        """
        sizes = self.classes.sizes.astype(np.float64)
        jac = self.pair_blocks * np.outer(sizes, sizes)
        np.fill_diagonal(
            jac,
            sizes * self.class_variance
            + sizes * (sizes - 1.0) * np.diag(self.pair_blocks),
        )
        return jac

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "vertex_sums": self.vertex_sums.tolist(),
            "pair_weights": self.pair_weights.tolist(),
            "avg_lambda": self.avg_lambda,
            "big_lambda": self.big_lambda,
        }


class Twofold:
    """Compensated accumulator for a scalar or a fixed-shape ndarray."""

    def __init__(self, zero):
        self.total = np.asarray(zero, dtype=np.float64).copy()
        self.comp = np.zeros_like(self.total)

    def add(self, value) -> None:
        # total' = total + y and comp' = (total' - total) - y, in place
        y = np.asarray(value, dtype=np.float64) - self.comp
        np.copyto(self.comp, self.total)
        self.total += y
        np.subtract(self.total, self.comp, out=self.comp)
        self.comp -= y

    def value(self):
        out = self.total
        return float(out) if out.ndim == 0 else out.copy()


def _comb_table(sizes: np.ndarray, r: int, cap: int) -> np.ndarray:
    """``table[i, a] = min(C(n_i, a), cap)`` for a = 0..r, each rounded once."""
    return np.array(
        [[float(min(math.comb(int(s), a), cap)) for a in range(r + 1)] for s in sizes]
    )


def _multiplicities(idx: np.ndarray, table: np.ndarray, cap: float) -> np.ndarray:
    """prod_i C(n_i, a_i) for each row of sorted class indices.

    a_i is the length of the run of i in the row; each run's factor is read
    at its last position.  A row with some a_i > n_i stands for no subset
    and gets a zero factor.  The running product is capped at C(n, r),
    which no feasible row exceeds, so the large factors of an infeasible
    row cannot overflow before its zero factor.
    """
    rows, r = idx.shape
    out = np.ones(rows)
    run = np.zeros(rows, dtype=np.int64)
    for t in range(r):
        c = idx[:, t]
        if t:
            run = np.where(c == idx[:, t - 1], run + 1, 0)
        last = c != idx[:, t + 1] if t + 1 < r else True
        out = np.where(last, np.minimum(out * table[c, run + 1], cap), out)
    return out


def row_sums(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``x`` summed over each row of ``idx``, bit-identical to
    ``np.ascontiguousarray(x[idx]).sum(axis=1)``.

    numpy adds fewer than 8 terms left to right from 0, as one ``take`` per
    column added in place does; on a plan's transposed view each column is
    contiguous.  From 8 terms on numpy adds a contiguous row pairwise, with
    eight accumulators, but the columns of a column-major gather left to
    right, so there the gather is made row-major first.
    """
    if idx.shape[1] >= 8:
        return np.ascontiguousarray(x.take(idx)).sum(axis=1)
    s = np.zeros(idx.shape[0])
    for col in idx.T:
        s += x.take(col)
    return s


def _row_chunks(k: int, r: int, multisets: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (rows, pair keys) chunks of a sweep over k classes.

    The rows are the size-r multisets of the k classes if ``multisets``,
    else the colex r-subsets of k vertices, stored column-major: each chunk
    is a contiguous (r, rows) array.  A chunk's pair keys are
    ``idx[:, a] * k + idx[:, b]`` for the positions a < b, in column-major
    order.  Both are stored in the smallest dtype that holds k^2.
    """
    # the smallest signed dtype holding -k^2 holds every key up to k^2 - 1
    dtype = np.min_scalar_type(-k * k)
    a, b = np.triu_indices(r, 1)
    source = iter_multisets if multisets else iter_chunks
    for idx in source(k, r):
        keys = (idx[:, a] * k + idx[:, b]).T.ravel()
        yield np.ascontiguousarray(idx.T, dtype=dtype), keys.astype(dtype)


PlanCacheInfo = namedtuple("PlanCacheInfo", "hits misses plans nbytes")


class _PlanCache:
    """Row plans by key, least recently used first, bounded by stored bytes.

    A new plan evicts the least recently used ones while the plans hold more
    than ``PLAN_CACHE_BYTES``; the build keeps every plan within it, so the
    newest always stays.
    ``cache_info()`` and ``cache_clear()`` read and reset the cache as
    ``functools.lru_cache`` does.
    """

    def __init__(self, build):
        self.build = build
        self.cache_clear()

    def __call__(self, *key):
        plan = self.plans.get(key)
        if plan is not None:
            self.hits += 1
            self.plans.move_to_end(key)
            return plan
        self.misses += 1
        plan = self.plans[key] = self.build(*key)
        while self.nbytes() > PLAN_CACHE_BYTES:
            self.plans.popitem(last=False)
        return plan

    def nbytes(self) -> int:
        return sum(arr.nbytes for plan in self.plans.values()
                   for arrays in plan for arr in arrays)

    def cache_info(self) -> PlanCacheInfo:
        return PlanCacheInfo(self.hits, self.misses, len(self.plans), self.nbytes())

    def cache_clear(self) -> None:
        self.plans: OrderedDict[tuple, tuple] = OrderedDict()
        self.hits = self.misses = 0


@_PlanCache
def _row_plan(k: int, r: int, multisets: bool) -> tuple:
    """All the chunks of ``_row_chunks(k, r, multisets)``, read-only, or ().

    Rows and pair keys depend on no beta, so every sweep over the same
    (k, r, multisets) reads them from here.  A row stores r(r+1)/2 entries
    (r class indices and r(r-1)/2 pair keys) in the dtype of
    ``_row_chunks``, so a plan's bytes are known before it is built.  A
    plan that fits in ``PLAN_CACHE_BYTES`` holds the whole family; one that
    does not is empty, stored at 0 bytes, and its sweeps stream the chunks.
    The plans stay cached up to ``PLAN_CACHE_BYTES``, enough for the frames
    a process cycles through: the solves at each (n, r) and their images
    under the edge complement (r -> n - r) in an audit.
    """
    rows = math.comb(k + r - 1 if multisets else k, r)
    if rows * (r * (r + 1) // 2) * np.min_scalar_type(-k * k).itemsize > PLAN_CACHE_BYTES:
        return ()
    plan = tuple(_row_chunks(k, r, multisets))
    for arrays in plan:
        for arr in arrays:
            arr.setflags(write=False)
    return plan


def class_chunks(
    classes: VertexClasses, r: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """The (rows, pair keys, multiplicities) chunks of a sweep over the classes.

    On singletons the rows are the colex r-subsets and the multiplicities
    None (each row is one subset); otherwise the rows are the size-r
    multisets of classes, one per composition, each with its
    prod C(n_i, a_i) from exact ``math.comb``.  Rows and pair keys come
    from the cached row plan, or, for a family too large to plan, are
    unranked here on every sweep, in the same chunks.  The rows are the
    (rows, r) transposed view of the column-major chunk.
    """
    k, multisets = classes.k, classes.k < classes.n
    chunks = _row_plan(k, r, multisets) or _row_chunks(k, r, multisets)
    if multisets:
        total = math.comb(classes.n, r)
        table = _comb_table(classes.sizes, r, total)
    for cols, keys in chunks:
        idx = cols.T
        yield idx, keys, _multiplicities(idx, table, float(total)) if multisets else None


def _chunk_terms(
    idx: np.ndarray, keys: np.ndarray, beta: np.ndarray, mult: np.ndarray | None = None
) -> np.ndarray:
    """The field sums over one chunk of rows, as one vector
    ``[lam, q, entropy, vertex_lam (k), vertex_q (k), pair_q (k^2)]``.

    Each row counts ``mult`` times (once if ``mult`` is None).  One
    ``exp(-|s|)`` per row gives the weight, its complement and the softplus
    by the same operations as ``logistic(s)``, ``logistic(-s)`` and
    ``softplus(s)``, so each is bit-identical to them.  Every vertex and pair
    sum is one ``np.add.at`` per row position into a zeroed vector, read
    straight from the plan's column-major indices and pair ``keys`` (pairs
    in (a, b) order, a < b), so each entry adds its rows in column-major
    order, starting from zero.  Both vertex sums come from one complex
    pass: its real part adds ``lam`` and its imaginary part ``q``, each
    rounded on its own, so each has the bits of a pass of its own.
    """
    k, (rows, r) = beta.size, idx.shape
    s = row_sums(beta, idx)
    e = np.exp(-np.abs(s))
    denom = 1.0 + e
    upper, lower = 1.0 / denom, e / denom
    pos = s >= 0
    lam = np.where(pos, upper, lower)
    # variance weight as a product of the two logistic branches, never as
    # lam - lam**2, to keep accuracy near weights 0 and 1
    q = lam * np.where(pos, lower, upper)
    # -lam*log(lam) - (1-lam)*log(1-lam) == softplus(s) - lam*s
    entropy = np.maximum(s, 0.0) + np.log1p(e) - lam * s
    if mult is not None:
        lam, q, entropy = lam * mult, q * mult, entropy * mult
    head = 3 + 2 * k
    out = np.zeros(head + k * k)
    out[:3] = lam.sum(), q.sum(), entropy.sum()
    # the pair sums fill the vector from entry 3 + 2k on
    pair_q = out[head:]
    for keys_row in keys.reshape(r * (r - 1) // 2, rows):
        np.add.at(pair_q, keys_row, q)
    w = np.empty(rows, dtype=np.complex128)
    w.real, w.imag = lam, q
    both = np.zeros(k, dtype=np.complex128)
    for col in idx.T:
        np.add.at(both, col, w)
    out[3:3 + k], out[3 + k:head] = both.real, both.imag
    return out


def field_summary(
    beta,
    n: int,
    r: int,
    classes: VertexClasses | None = None,
) -> FieldSummary:
    """One deterministic sweep at beta.

    Without ``classes`` beta is per vertex and the sweep visits all C(n, r)
    subsets.  With ``classes`` beta holds one value per class and the sweep
    visits the compositions.  The budget counts the rows visited.
    ``ValueError`` if r > n or ``classes`` partition other than n vertices.
    """
    classes = VertexClasses.singletons(n) if classes is None else classes
    if classes.n != n:
        raise ValueError(f"classes partition {classes.n} vertices, expected n = {n}")
    if r > n:
        raise ValueError(f"no {r}-subsets of {n} vertices to sweep")
    arr = as_beta_array(beta, classes.k)
    check_subset_budget(classes.rows(r))
    k = classes.k
    # chunks fold serially, in chunk order, entry by entry
    acc = Twofold(np.zeros(3 + 2 * k + k * k))
    for idx, keys, mult in class_chunks(classes, r):
        acc.add(_chunk_terms(idx, keys, arr, mult))
    sums = acc.value()
    lam, q, entropy = sums[:3].tolist()
    pair_q = sums[3 + 2 * k:].reshape(k, k)
    # a row with a_i vertices of class i counts a_i a_j position pairs for
    # classes i < j and a_i (a_i - 1) / 2 within class i; divide by the vertex
    # pairs each block entry stands for (all 1 on singletons)
    sizes = classes.sizes.astype(np.float64)
    per_pair = np.outer(sizes, sizes)
    np.fill_diagonal(per_pair, np.maximum(sizes * (sizes - 1.0), 1.0))
    total = math.comb(n, r)
    return FieldSummary(
        n=n,
        r=r,
        beta=arr,
        classes=classes,
        class_sums=sums[3:3 + k] / sizes,
        class_variance=sums[3 + k:3 + 2 * k] / sizes,
        pair_blocks=(pair_q + pair_q.T) / per_pair,
        avg_lambda=lam / total,
        big_lambda=q / total,
        entropy=entropy,
    )


@dataclass
class BoundCheck:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    slack: float | None = None
    detail: str = ""


def graded(name: str, slack: float, tol: float = 0.0) -> BoundCheck:
    """A check that passes when its slack is at least ``-tol``."""
    return BoundCheck(name, "pass" if slack >= -tol else "fail", float(slack))


def skipped_checks(
    names: Sequence[str], field: FieldSummary, delta_hat: float, pairs: bool = False
) -> list[BoundCheck] | None:
    """The checks ``names`` all skipped if the field fails their precondition.

    Every bound check needs spread(beta) * r <= delta_hat (to 1e-12
    relative); checks of pair entries (``pairs``) also need r >= 2.
    """
    if pairs and field.r < 2:
        detail = "no pair entries at r < 2"
    elif float(field.beta.max() - field.beta.min()) * field.r > delta_hat * (1 + 1e-12):
        detail = "spread*r exceeds delta_hat"
    else:
        return None
    return [BoundCheck(name, "skipped", detail=detail) for name in names]


RATIO_CHECKS = ("pair-ratio-lambda", "pair-ratio-complement", "ratio-to-average",
                "variance-ratio-to-average", "average-vs-variance-average")


def _sum_nearest_zero(field: FieldSummary) -> float:
    """The subset sum of beta nearest 0, by one pass over the field's rows
    (on classes, the compositions of nonzero multiplicity)."""
    best = math.inf
    for idx, _, mult in class_chunks(field.classes, field.r):
        s = row_sums(field.beta, idx)
        s = s if mult is None else s[mult > 0]
        if s.size:
            best = min(best, float(s[np.argmin(np.abs(s))]), key=abs)
    return best


def check_weight_ratio_bounds(field: FieldSummary, delta_hat: float) -> list[BoundCheck]:
    """Weight-ratio inequalities at the field's beta, of spread at most delta_hat / r.

    Checks, with s = spread(beta) * r <= delta_hat required:

    * for all distinct subsets W, W': |log(lambda_W / lambda_W')| and
      |log((1-lambda_W) / (1-lambda_W'))| at most
      delta_hat * (1 - |W cap W'| / r);
    * for all W: |log(lambda_W / avg)| <= delta_hat and
      |log(weight variance ratio)| <= 2 * delta_hat;
    * if avg <= 7/8: e^{-delta_hat}/256 * avg <= big_lambda <= avg.

    If the spread precondition fails, every check is reported as skipped.
    The averages are the field's; every other term is read at the few
    subsets that attain the extremes, so no C(n, r)-row array is built.

    The pair checks read only the pair that attains the largest gap for
    each k = |W minus W'| = 1 .. min(r, n - r).  log lambda = -softplus(-s)
    is increasing and concave in the subset sum s, so for W = C + A and
    W' = C + B the gap log lambda(c + a) - log lambda(c + b) grows with a
    and shrinks as b or c grows; by exchange, B holds the lowest betas, C
    the next and A the highest.  log(1 - lambda) is the mirror image under
    beta -> -beta.  The gap to the average is largest at the r lowest or
    the r highest betas for log lambda, which increases with s, and also
    possibly at the sum nearest 0 for log lambda(1 - lambda), which is even
    in s and falls as |s| grows.
    """
    skipped = skipped_checks(RATIO_CHECKS, field, delta_hat)
    if skipped is not None:
        return skipped
    n, r = field.n, field.r
    beta = field.beta[field.classes.index]
    order = np.argsort(beta, kind="stable").tolist()
    # k >= 1: a subset paired with itself has allowance and gap both 0 and
    # is left out, or every slack would read 0
    ks = range(1, min(r, n - r) + 1)
    rows = [order[:r], order[n - r:]]
    rows += [order[k:r] + order[n - k:] for k in ks]
    rows += [order[:k] + order[n - r:n - k] for k in ks]
    # each row in ascending vertex order, as the sweeps' colex rows are, so
    # every sum adds the same terms in the same order as a scan of all subsets
    s = beta[np.sort(rows, axis=1)].sum(axis=1)
    log_lam = np.log(logistic(s))
    log_one = np.log(logistic(-s))
    up, down = slice(2, 2 + len(ks)), slice(2 + len(ks), None)

    allowance = np.array([delta_hat * (1.0 - (r - k) / r) for k in ks])
    slack_lam = float(np.min(allowance - np.abs(log_lam[up] - log_lam[0]), initial=np.inf))
    slack_one = float(np.min(allowance - np.abs(log_one[1] - log_one[down]), initial=np.inf))

    avg, big = field.avg_lambda, field.big_lambda
    slack_avg = float(delta_hat - np.abs(log_lam[:2] - math.log(avg)).max())
    # where every sum has one sign, the one nearest 0 is an end
    near = s[0] if s[0] >= 0 else s[1] if s[1] <= 0 else _sum_nearest_zero(field)
    ends = np.array([s[0], s[1], near])
    gap_var = np.abs(np.log(logistic(ends) * logistic(-ends)) - math.log(big))
    slack_var = float(2.0 * delta_hat - gap_var.max())

    slacks = (slack_lam, slack_one, slack_avg, slack_var)
    checks = [graded(name, slack) for name, slack in zip(RATIO_CHECKS, slacks)]
    if avg > 7.0 / 8.0:
        return checks + [BoundCheck(RATIO_CHECKS[4], "skipped", detail="avg weight > 7/8")]
    lower = math.exp(-delta_hat) / 256.0 * avg
    return checks + [graded(RATIO_CHECKS[4], min(big - lower, avg - big))]
