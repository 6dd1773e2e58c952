"""The weight matrix in class form: its log-determinant and its bounds.

The weight matrix A has entries a_jj = half the variance-weight sum over
subsets containing j, and a_jk = half the sum over subsets containing both
j and k.  Its determinant enters the general counting formula, and the
bound checks read its entries and those of its inverse.  All three come
from ``class_form``, the one reading of A from a field: a per-class
diagonal plus the k x k matrix U^T A U, so nothing here is n x n.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite
from .fields import BoundCheck, FieldSummary, graded, skipped_checks

PIVOT_RTOL = 1e-13


def aI_bJ_logdet(a: float, b: float, n: int) -> float:
    """log |aI + bJ| = (n-1) log a + log(a + bn); requires positivity."""
    if a <= 0 or a + b * n <= 0:
        raise NotPositiveDefinite("aI + bJ has a non-positive eigenvalue")
    return (n - 1) * math.log(a) + math.log(a + b * n)


def logdet_pd(matrix: np.ndarray) -> float:
    """Log-determinant via a symmetric Cholesky factorization.

    Raises ``NotPositiveDefinite`` when a pivot falls below
    ``PIVOT_RTOL * max diagonal`` (scale-aware singularity detection).
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(m).max())):
        raise ValueError("matrix must be symmetric")
    diag_max = float(np.max(np.diag(m))) if m.size else 0.0
    if diag_max <= 0:
        raise NotPositiveDefinite("non-positive diagonal")
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    pivots = np.diag(chol) ** 2
    if np.min(pivots) < PIVOT_RTOL * diag_max:
        raise NotPositiveDefinite(
            f"pivot {np.min(pivots):.3e} below tolerance {PIVOT_RTOL * diag_max:.3e}"
        )
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


ClassForm = namedtuple("ClassForm", "sizes d m logdet")


def class_form(field: FieldSummary) -> ClassForm:
    """The weight matrix A of a field in class form: (n_i, d_i, M, log |A|).

    With U the n x k class indicators, N = U^T U = diag(n_i), P = U N^{-1} U^T
    and O the pair blocks, A = D + U (O / 2) U^T, where D = d_i on class i,
    d_i = e_i / 2 and e_i = (variance sum of a vertex of class i) - O_ii.
    A preserves span(U) and its complement, acting on span(U) through
    M = U^T A U, half the Newton Jacobian ``class_jacobian()``, and as D on
    the complement.  So A = D (I - P) + U N^{-1} M N^{-1} U^T,
    A^{-1} = D^{-1} (I - P) + U M^{-1} U^T and
    log |A| = sum_i (n_i - 1) log d_i - log |N| + log |M|.  On class i
    (A^{-1})_vv = (1/d_i)(1 - 1/n_i) + (M^{-1})_ii, an entry off the diagonal
    is (M^{-1})_ii - 1/(d_i n_i), and one between classes i and j (M^{-1})_ij.
    One-vertex classes add nothing to the sums and their D terms are exact
    zeros, so on singletons M is A and every value has the bits of the n x n
    computation.  Raises ``NotPositiveDefinite`` if d_i <= 0 where n_i > 1,
    or if ``logdet_pd`` refuses M.
    """
    sizes = field.classes.sizes
    shared = sizes > 1
    d = 0.5 * (field.class_variance - np.diag(field.pair_blocks))
    if np.any(d[shared] <= 0):
        raise NotPositiveDefinite("non-positive class diagonal")
    n_i = sizes[shared].astype(np.float64)
    m = 0.5 * field.class_jacobian()
    return ClassForm(sizes, d, m, float((n_i - 1.0) @ np.log(d[shared]))
                     - float(np.log(n_i).sum()) + logdet_pd(m))


def weight_logdet(field: FieldSummary) -> float:
    """log |A| of a field's weight matrix, read from ``class_form``."""
    return class_form(field).logdet


@dataclass
class MatrixBoundReport:
    checks: list[BoundCheck]
    measured_inverse_constant: float | None = None
    measured_offdiag_constant: float | None = None


MATRIX_CHECKS = ("offdiag-entry-ratio", "diag-entry-ratio", "offdiag-sandwich",
                 "diag-sandwich", "row-identity", "determinant-comparison")


def bound_suite(field: FieldSummary, delta_hat: float) -> MatrixBoundReport:
    """Entry-ratio, sandwich, determinant, and inverse-entry checks.

    Reads ``big_lambda`` and the ``class_form`` of the field's weight matrix
    A and builds nothing n x n: on class i, a_vv is class_variance_i / 2, an
    off-diagonal entry is pair_blocks_ij / 2 (within class i only if
    n_i > 1), and the row sums are those of M / n_i.  With
    spread(beta) * r <= delta_hat:

    * all off-diagonal entries lie within a factor e^{4 delta_hat / r} of
      each other, and likewise all diagonal entries;
    * entries are sandwiched by (big_lambda/2) C(n-2, r-2) e^{+-4d/r}
      (off-diagonal) and (big_lambda/2) C(n-1, r-1) e^{+-4d/r} (diagonal);
    * a_vv is the sum of the other entries of row v over r - 1;
    * log|A| is at most log of the comparison determinant
      |e^{2 delta_hat}/2 big_lambda (C(n-2, r-1) I + C(n-2, r-2) J)|;
    * inverse entries (A^{-1} in class form) scaled by big_lambda
      C(n-1, r-1) e^{-35 delta_hat}, and by n off the diagonal, give the
      measured constants of the inverse-entry bound, reported and not
      asserted because the constant in that bound is existential.

    If r < 2 or the spread precondition fails, all checks are skipped.
    """
    skipped = skipped_checks(MATRIX_CHECKS, field, delta_hat, pairs=True)
    if skipped is not None:
        return MatrixBoundReport(checks=skipped)

    sizes, d, m, logdet = class_form(field)
    n, r, big = field.n, field.r, field.big_lambda
    ratio_cap = 4.0 * delta_hat / r
    # the distinct off-diagonal entries: every block between classes, and
    # the one within each class of more than one vertex
    present = ~np.eye(sizes.size, dtype=bool) | np.diag(sizes > 1)
    off, diag = 0.5 * field.pair_blocks[present], 0.5 * field.class_variance
    mids = 0.5 * big * math.comb(n - 2, r - 2), 0.5 * big * math.comb(n - 1, r - 1)
    slacks = [ratio_cap - np.ptp(np.log(x)) for x in (off, diag)]
    slacks += [ratio_cap - np.abs(np.log(x / mid)).max() for x, mid in zip((off, diag), mids)]

    # a_jj = sum of off-diagonal row entries / (r-1); exact identity
    row = (m.sum(axis=1) / sizes - diag) / (r - 1)
    slacks.append(1e-10 * max(1.0, float(diag.max())) - float(np.abs(row - diag).max()))
    checks = [graded(name, slack) for name, slack in zip(MATRIX_CHECKS, slacks)]

    ap = 0.5 * math.exp(2.0 * delta_hat) * big
    comparison = aI_bJ_logdet(ap * math.comb(n - 2, r - 1), ap * math.comb(n - 2, r - 2), n)
    # at delta_hat = 0 the two matrices coincide and the two log-determinant
    # routes differ only by rounding; allow that much
    checks.append(graded("determinant-comparison", comparison - logdet,
                         1e-10 * max(1.0, abs(comparison))))

    inv = np.linalg.inv(m)
    inv_diag = (1.0 / d) * (1.0 - 1.0 / sizes) + np.diag(inv)
    np.fill_diagonal(inv, -1.0 / (d * sizes) + np.diag(inv))
    scale = big * math.comb(n - 1, r - 1) * math.exp(-35.0 * delta_hat)
    return MatrixBoundReport(
        checks=checks,
        measured_inverse_constant=float(np.abs(inv_diag).max() * scale),
        measured_offdiag_constant=float(np.abs(inv[present]).max() * scale * n),
    )
