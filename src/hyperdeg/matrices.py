"""Log-determinants of the weight matrix, its regular closed form, and bounds.

The weight matrix A has entries a_jj = half the variance-weight sum over
subsets containing j, and a_jk = half the sum over subsets containing both
j and k.  Its determinant enters the general counting formula.  For a
regular instance the matrix is a closed-form combination aI + bJ with an
explicit determinant.  On any classes A is constant on class blocks: a
per-class diagonal on the vectors that sum to zero within every class and
the k x k Newton Jacobian on the class indicators.  One Cholesky of that
Jacobian gives the determinant, its inverse and the per-class diagonal give
A^{-1} in class form, and the bound checks read the k x k blocks, so
nothing here is n x n (on singletons the Jacobian is 2A itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DerivedParams
from .errors import DensityDegenerate, NotPositiveDefinite
from .fields import BoundCheck, FieldSummary, graded, skipped_checks

PIVOT_RTOL = 1e-13


def aI_bJ_logdet(a: float, b: float, n: int) -> float:
    """log |aI + bJ| = (n-1) log a + log(a + bn); requires positivity."""
    if a <= 0 or a + b * n <= 0:
        raise NotPositiveDefinite("aI + bJ has a non-positive eigenvalue")
    return (n - 1) * math.log(a) + math.log(a + b * n)


def regular_closed_form(params: DerivedParams) -> tuple[float, float, float]:
    """The regular instance's weight matrix aI + bJ, as (a, b, log-determinant).

    ``a = (1-lam)(n-r)d/(2(n-1))`` and ``b = (1-lam)(r-1)d/(2(n-1))``; the
    determinant equals ``r Q^n / (2^n (n-r) (n-1)^{n-1})``.  No n x n array
    is built, so this is O(1) at any n.
    """
    n, r = params.n, params.r
    lam, d, q = params.lam, params.d, params.q
    if not (0.0 < lam < 1.0):
        raise DensityDegenerate(f"density {lam} admits no closed-form matrix")
    a = (1.0 - lam) * (n - r) * d / (2.0 * (n - 1))
    b = (1.0 - lam) * (r - 1) * d / (2.0 * (n - 1))
    logdet = (
        math.log(r) + n * math.log(q) - n * math.log(2.0)
        - math.log(n - r) - (n - 1) * math.log(n - 1)
    )
    return a, b, logdet


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


def weight_logdet(field: FieldSummary) -> float:
    """log |A| of a field's weight matrix, from the k x k class Jacobian.

    A = D + U (O / 2) U^T, with U the n x k class indicator matrix, O the
    pair blocks and D = e_i / 2 on class i, e_i = (variance sum of a vertex
    of class i) - O_ii.  A preserves span(U) and its orthogonal complement,
    and on the complement it is D, so with N = U^T U = diag(n_i)
    ``log |A| = sum_i (n_i - 1) log(e_i / 2) - log |N| + log |U^T A U|``,
    where U^T A U is half the Newton Jacobian ``field.class_jacobian()``.
    One-vertex classes add nothing to the sums, so on singletons this is
    ``logdet_pd`` of the n x n matrix bit for bit.
    """
    sizes = field.classes.sizes
    shared = sizes > 1
    e = (field.class_variance - np.diag(field.pair_blocks))[shared]
    if np.any(e <= 0):
        raise NotPositiveDefinite("non-positive class diagonal")
    n_i = sizes[shared].astype(np.float64)
    return (
        float((n_i - 1.0) @ np.log(0.5 * e))
        - float(np.log(n_i).sum())
        + logdet_pd(0.5 * field.class_jacobian())
    )


@dataclass
class MatrixBoundReport:
    checks: list[BoundCheck]
    measured_inverse_constant: float | None = None
    measured_offdiag_constant: float | None = None


MATRIX_CHECKS = ("offdiag-entry-ratio", "diag-entry-ratio", "offdiag-sandwich",
                 "diag-sandwich", "row-identity", "determinant-comparison")


def bound_suite(field: FieldSummary, delta_hat: float) -> MatrixBoundReport:
    """Entry-ratio, sandwich, determinant, and inverse-entry checks.

    Reads ``big_lambda`` and the class form of the weight matrix A of the
    field at beta, and builds nothing n x n: on class i, a_vv is
    class_variance_i / 2, an off-diagonal entry is pair_blocks_ij / 2
    (within class i only if n_i > 1), and the row sums are those of
    M / n_i, with M = U^T A U = ``class_jacobian() / 2``.  With
    spread(beta) * r <= delta_hat:

    * all off-diagonal entries lie within a factor e^{4 delta_hat / r} of
      each other, and likewise all diagonal entries;
    * entries are sandwiched by (big_lambda/2) C(n-2, r-2) e^{+-4d/r}
      (off-diagonal) and (big_lambda/2) C(n-1, r-1) e^{+-4d/r} (diagonal);
    * a_vv is the sum of the other entries of row v over r - 1;
    * log|A| (``weight_logdet``) is at most log of the comparison
      determinant |e^{2 delta_hat}/2 big_lambda (C(n-2, r-1) I + C(n-2, r-2) J)|;
    * inverse entries scaled by big_lambda C(n-1, r-1) e^{-35 delta_hat}
      (and additionally n off-diagonal) give the measured constants of the
      inverse-entry bound; they are reported, not asserted, because the
      constant in that bound is existential.  With D, U and N as in
      ``weight_logdet``, A^{-1} = D^{-1} (I - U N^{-1} U^T) + U M^{-1} U^T:
      (A^{-1})_vv = (2/e_i)(1 - 1/n_i) + (M^{-1})_ii on class i, within
      class i off the diagonal -2/(e_i n_i) + (M^{-1})_ii, and between
      classes i and j (M^{-1})_ij.

    On singletons M is A and the D terms are exact zeros, so every value
    has the bits of the n x n computation.  If r < 2 or the spread
    precondition fails, all checks are reported skipped.
    """
    skipped = skipped_checks(MATRIX_CHECKS, field, delta_hat, pairs=True)
    if skipped is not None:
        return MatrixBoundReport(checks=skipped)

    n, r, sizes = field.n, field.r, field.classes.sizes
    big = field.big_lambda
    ratio_cap = 4.0 * delta_hat / r
    # the distinct off-diagonal entries: every block between classes, and
    # the one within each class of more than one vertex
    present = ~np.eye(sizes.size, dtype=bool) | np.diag(sizes > 1)
    off, diag = 0.5 * field.pair_blocks[present], 0.5 * field.class_variance
    mids = 0.5 * big * math.comb(n - 2, r - 2), 0.5 * big * math.comb(n - 1, r - 1)
    slacks = [ratio_cap - np.ptp(np.log(x)) for x in (off, diag)]
    slacks += [ratio_cap - np.abs(np.log(x / mid)).max() for x, mid in zip((off, diag), mids)]

    # a_jj = sum of off-diagonal row entries / (r-1); exact identity
    m = 0.5 * field.class_jacobian()
    row = (m.sum(axis=1) / sizes - diag) / (r - 1)
    slacks.append(1e-10 * max(1.0, float(diag.max())) - float(np.abs(row - diag).max()))
    checks = [graded(name, slack) for name, slack in zip(MATRIX_CHECKS, slacks)]

    ap = 0.5 * math.exp(2.0 * delta_hat) * big
    comparison = aI_bJ_logdet(ap * math.comb(n - 2, r - 1), ap * math.comb(n - 2, r - 2), n)
    # at delta_hat = 0 the two matrices coincide and the two log-determinant
    # routes differ only by rounding; allow that much
    checks.append(graded("determinant-comparison", comparison - weight_logdet(field),
                         1e-10 * max(1.0, abs(comparison))))

    e = field.class_variance - np.diag(field.pair_blocks)
    inv = np.linalg.inv(m)
    inv_diag = (2.0 / e) * (1.0 - 1.0 / sizes) + np.diag(inv)
    np.fill_diagonal(inv, -2.0 / (e * sizes) + np.diag(inv))
    scale = big * math.comb(n - 1, r - 1) * math.exp(-35.0 * delta_hat)
    return MatrixBoundReport(
        checks=checks,
        measured_inverse_constant=float(np.abs(inv_diag).max() * scale),
        measured_offdiag_constant=float(np.abs(inv[present]).max() * scale * n),
    )
