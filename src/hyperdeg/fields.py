"""Edge weights of the maximum-entropy model and their subset sums.

Given a vertex parameter vector beta, each r-subset W carries the weight
``lambda_W = logistic(sum_{j in W} beta_j)``, the probability that W is an
edge.  This module sweeps the full r-subset family once and accumulates the
per-vertex sums, per-pair variance weights, the average weight, the average
variance weight, the entropy sum, and the log-prefactor of the exact
coefficient-extraction identity.

Every sweep, here and in the solver's uniqueness diagnostic, folds a chunk
kernel over fixed 4096-subset colex chunks, serially, in chunk order, with
twofold compensation, so every result is a fixed function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .budgets import check_subset_budget
from .core import DegreeSequence
from .subsets import CHUNK, colex_rank, incidence, iter_chunks

LOG_2PI = math.log(2.0 * math.pi)


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


def lambda_of_subset(beta, subset: Sequence[int]) -> float:
    """Edge weight of one subset: logistic of its beta sum."""
    arr = as_beta_array(beta)
    idx = np.asarray(list(subset), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= arr.size):
        raise ValueError("subset not contained in the vertex set")
    s = float(arr[idx].sum())
    return float(logistic(s))


@dataclass
class FieldSummary:
    """Subset sums observed at one beta.

    ``pair_weights`` is symmetric; its diagonal holds the per-vertex
    variance-weight sums, the off-diagonal entries the per-pair sums.
    """

    n: int
    r: int
    vertex_sums: np.ndarray
    pair_weights: np.ndarray
    avg_lambda: float
    big_lambda: float

    @property
    def weight_matrix(self) -> np.ndarray:
        """The weight matrix A; the Jacobian of the degree system is 2A."""
        return 0.5 * self.pair_weights

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
        value = np.asarray(value, dtype=np.float64)
        y = value - self.comp
        t = self.total + y
        self.comp = (t - self.total) - y
        self.total = t

    def value(self):
        out = self.total
        return float(out) if out.ndim == 0 else out.copy()


# the terms a sweep can accumulate; ``want`` names a subset of them
FIELD_TERMS = ("lam", "q", "vertex_lam", "vertex_q", "pair_q")
PREFACTOR_TERMS = ("softplus", "entropy")


def _chunk_terms(idx: np.ndarray, beta: np.ndarray, want) -> dict:
    """Sums of the wanted terms over one chunk of subsets.

    Vertex and pair sums are ``np.bincount`` over the column-major indices
    (pairs in (a, b) order, a < b), so every entry adds its rows in the
    same order as a per-column ``np.add.at`` loop, starting from zero.
    """
    s = beta[idx].sum(axis=1)
    lam = logistic(s)
    out = {}
    if "pair_q" in want:
        n, r = beta.size, idx.shape[1]
        # variance weight as a product of the two logistic branches, never
        # as lam - lam**2, to keep accuracy near weights 0 and 1
        q = lam * logistic(-s)
        flat = idx.T.ravel()
        a, b = np.triu_indices(r, 1)
        keys = (idx[:, a] * n + idx[:, b]).T.ravel()
        out["lam"] = lam.sum()
        out["q"] = q.sum()
        out["vertex_lam"] = np.bincount(flat, np.tile(lam, r), minlength=n)
        out["vertex_q"] = np.bincount(flat, np.tile(q, r), minlength=n)
        out["pair_q"] = np.bincount(
            keys, np.tile(q, a.size), minlength=n * n
        ).reshape(n, n)
    if "entropy" in want:
        sp = softplus(s)
        out["softplus"] = sp.sum()
        # -lam*log(lam) - (1-lam)*log(1-lam) == softplus(s) - lam*s
        out["entropy"] = (sp - lam * s).sum()
    return {name: out[name] for name in want}


def _sweep(n: int, r: int, kernel) -> dict:
    """Sum ``kernel(idx)`` over all r-subsets, chunk by chunk.

    The kernel maps one chunk of subset rows to a dict of sums.  Chunks are
    folded serially in colex chunk order with twofold compensation, so the
    result is a fixed function of the kernel and (n, r).  The fold starts
    from the kernel of an empty chunk, so with no subsets at all (r > n)
    every sum is zero.
    """
    empty = np.empty((0, r), dtype=np.int64)
    acc = {name: Twofold(zero) for name, zero in kernel(empty).items()}
    for idx in iter_chunks(n, r, CHUNK):
        for name, value in kernel(idx).items():
            acc[name].add(value)
    return {name: total.value() for name, total in acc.items()}


def field_summary(
    beta,
    n: int,
    r: int,
    budget: int | None = None,
) -> FieldSummary:
    """One deterministic sweep over all C(n, r) subsets."""
    arr = as_beta_array(beta, n)
    total = math.comb(n, r)
    check_subset_budget(total, budget)
    sums = _sweep(n, r, lambda idx: _chunk_terms(idx, arr, FIELD_TERMS))
    pw = sums["pair_q"]
    pw = pw + pw.T
    np.fill_diagonal(pw, sums["vertex_q"])
    return FieldSummary(
        n=n,
        r=r,
        vertex_sums=sums["vertex_lam"],
        pair_weights=pw,
        avg_lambda=sums["lam"] / total,
        big_lambda=sums["q"] / total,
    )


def entropy_sum(
    beta,
    n: int,
    r: int,
    budget: int | None = None,
) -> float:
    """Sum over subsets of the binary entropy of the edge weight.

    This is the natural log of the product factor in the general counting
    formula.
    """
    arr = as_beta_array(beta, n)
    check_subset_budget(math.comb(n, r), budget)
    return _sweep(n, r, lambda idx: _chunk_terms(idx, arr, ("entropy",)))["entropy"]


@dataclass
class PrefactorResult:
    value: float
    discrepancy: float


def log_prefactor(
    beta,
    seq: DegreeSequence,
    budget: int | None = None,
) -> PrefactorResult:
    """Log of the coefficient-extraction prefactor, by both algebraic forms.

    The direct form is ``-n log(2 pi) - sum_j beta_j d_j + sum_W
    log(1 + e^{s_W})``; the entropy form replaces the last two terms by the
    subset entropy sum.  The two agree exactly only when beta solves the
    degree system, so their absolute difference is returned as a residual
    diagnostic.  The entropy form is the reported value.
    """
    arr = as_beta_array(beta, seq.n)
    n, r = seq.n, seq.r
    check_subset_budget(math.comb(n, r), budget)
    sums = _sweep(n, r, lambda idx: _chunk_terms(idx, arr, PREFACTOR_TERMS))
    degree_dot = float(arr @ np.asarray(seq.degrees, dtype=np.float64))
    direct = -n * LOG_2PI - degree_dot + sums["softplus"]
    entropy_form = -n * LOG_2PI + sums["entropy"]
    return PrefactorResult(
        value=entropy_form, discrepancy=abs(direct - entropy_form)
    )


@dataclass
class BoundCheck:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    slack: float | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def check_weight_ratio_bounds(
    beta,
    n: int,
    r: int,
    delta_hat: float,
    budget: int | None = None,
) -> list[BoundCheck]:
    """Weight-ratio inequalities at spread at most delta_hat / r.

    Checks, with s = spread(beta) * r <= delta_hat required:

    * for all distinct subsets W, W': |log(lambda_W / lambda_W')| and
      |log((1-lambda_W) / (1-lambda_W'))| at most
      delta_hat * (1 - |W cap W'| / r);
    * for all W: |log(lambda_W / avg)| <= delta_hat and
      |log(weight variance ratio)| <= 2 * delta_hat;
    * if avg <= 7/8: e^{-delta_hat}/256 * avg <= big_lambda <= avg.

    If the spread precondition fails, every check is reported as skipped.

    The pair checks read only the pair that attains the largest gap for
    each k = |W minus W'| = 1 .. min(r, n - r).  log lambda = -softplus(-s)
    is increasing and concave in the subset sum s, so for W = C + A and
    W' = C + B the gap log lambda(c + a) - log lambda(c + b) grows with a
    and shrinks as b or c grows; by exchange, B holds the lowest betas, C
    the next and A the highest.  log(1 - lambda) is the mirror image under
    beta -> -beta.
    """
    arr = as_beta_array(beta, n)
    check_subset_budget(math.comb(n, r), budget)
    spread = float(arr.max() - arr.min())
    if spread * r > delta_hat * (1 + 1e-12):
        return [
            BoundCheck(name, "skipped", detail="spread*r exceeds delta_hat")
            for name in (
                "pair-ratio-lambda",
                "pair-ratio-complement",
                "ratio-to-average",
                "variance-ratio-to-average",
                "average-vs-variance-average",
            )
        ]

    s = incidence(n, r) @ arr
    lam = logistic(s)
    one_minus = logistic(-s)
    log_lam = np.log(lam)
    log_one = np.log(one_minus)

    order = np.argsort(arr, kind="stable").tolist()

    def row(vertices) -> int:
        return colex_rank(sorted(vertices))

    low, high = row(order[:r]), row(order[n - r:])
    # k >= 1: a subset paired with itself has allowance and gap both 0 and
    # is left out, or every slack would read 0
    ks = range(1, min(r, n - r) + 1)
    allowance = np.array([delta_hat * (1.0 - (r - k) / r) for k in ks])
    up = np.array([row(order[k:r] + order[n - k:]) for k in ks], dtype=np.int64)
    down = np.array([row(order[:k] + order[n - r:n - k]) for k in ks], dtype=np.int64)
    gap_lam = np.abs(log_lam[up] - log_lam[low])
    gap_one = np.abs(log_one[high] - log_one[down])
    slack_lam = float(np.min(allowance - gap_lam, initial=np.inf))
    slack_one = float(np.min(allowance - gap_one, initial=np.inf))

    avg = float(lam.mean())
    big = float((lam * one_minus).mean())
    gap_avg = np.abs(log_lam - math.log(avg))
    slack_avg = float(delta_hat - gap_avg.max())
    gap_var = np.abs(np.log(lam * one_minus) - math.log(big))
    slack_var = float(2.0 * delta_hat - gap_var.max())

    checks = [
        BoundCheck("pair-ratio-lambda", "pass" if slack_lam >= 0 else "fail", slack_lam),
        BoundCheck("pair-ratio-complement", "pass" if slack_one >= 0 else "fail", slack_one),
        BoundCheck("ratio-to-average", "pass" if slack_avg >= 0 else "fail", slack_avg),
        BoundCheck(
            "variance-ratio-to-average", "pass" if slack_var >= 0 else "fail", slack_var
        ),
    ]
    if avg <= 7.0 / 8.0:
        lower = math.exp(-delta_hat) / 256.0 * avg
        slack = min(big - lower, avg - big)
        checks.append(
            BoundCheck(
                "average-vs-variance-average",
                "pass" if slack >= 0 else "fail",
                float(slack),
            )
        )
    else:
        checks.append(
            BoundCheck(
                "average-vs-variance-average", "skipped", detail="avg weight > 7/8"
            )
        )
    return checks
