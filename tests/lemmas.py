"""Lemma formulas that the tests check and no command computes: the
Stirling series of a log binomial, the entropy's curvature along a segment
of weights, the degree-spread proxy, the enumeration of every capped
degree vector, the regular closed form of the weight matrix, and the bound
suite on the n x n weight matrix.  Shared by the acceptance suite and the
unit tests."""

import math

import numpy as np

from hyperdeg.errors import DensityDegenerate
from hyperdeg.fields import graded, logistic, skipped_checks
from hyperdeg.matrices import MATRIX_CHECKS, MatrixBoundReport, aI_bJ_logdet, weight_logdet
from hyperdeg.subsets import all_subsets


def stirling_log_binom(big_k, lam, x):
    """The Stirling series of log C(K, lam K + x) through its x^4 / K^3
    term, with no error term."""
    one = 1.0 - lam
    klam = lam * one * big_k
    main = (
        -(lam * big_k + x + 0.5) * math.log(lam)
        - (one * big_k - x + 0.5) * math.log(one)
        - 0.5 * math.log(2.0 * math.pi * big_k)
    )
    first = (-x * x - (1.0 - 2.0 * lam) * x - (1.0 - lam + lam * lam) / 6.0) / (2.0 * klam)
    second = (
        (1.0 - 2.0 * lam) * x**3 / 6.0
        + (1.0 - 2.0 * lam + 2.0 * lam * lam) * x * x / 4.0
        + (1.0 - 2.0 * lam) * x / 12.0
    ) / klam**2
    third = -(1.0 - 3.0 * lam + 3.0 * lam * lam) * x**4 / (12.0 * klam**3)
    return main + first + second + third


def degree_spread_ok(seq):
    """Proxy for the solved-spread condition: every degree positive and the
    degree log-spread max_j |log(d_j / d)| at most 1/r."""
    d = seq.params.d
    return min(seq.degrees) > 0 and max(abs(math.log(dj / d)) for dj in seq.degrees) <= 1.0 / seq.r


def segment_curvature(seq, a, b):
    """Minimum over 33 evenly spaced y in [0, 1] of
    sum_W (lambda_W(b) - lambda_W(a))^2 / (xi_W (1 - xi_W)), with
    xi_W = (1 - y) lambda_W(a) + y lambda_W(b): the negated second
    derivative of the entropy along the segment of weights from a to b,
    strictly positive when the two weight vectors differ, so the degree
    system has at most one solution."""
    rows = all_subsets(seq.n, seq.r)
    la = logistic(a[rows].sum(axis=1))
    lb = logistic(b[rows].sum(axis=1))
    ys = np.linspace(0.0, 1.0, 33)[:, None]
    xi = (1.0 - ys) * la + ys * lb
    return float(((lb - la) ** 2 / (xi * (1.0 - xi))).sum(axis=1).min())


def compositions(total, parts, cap):
    """All vectors of length ``parts`` with entries in [0, cap] summing to total."""
    if parts == 1:
        if 0 <= total <= cap:
            yield (total,)
        return
    for head in range(min(total, cap) + 1):
        for rest in compositions(total - head, parts - 1, cap):
            yield (head,) + rest


def regular_closed_form(params):
    """The regular instance's weight matrix aI + bJ, as (a, b, log-determinant).

    ``a = (1-lam)(n-r)d/(2(n-1))`` and ``b = (1-lam)(r-1)d/(2(n-1))``; the
    determinant equals ``r Q^n / (2^n (n-r) (n-1)^{n-1})``.  No n x n array
    is built, so this is O(1) at any n.  It is the one-class case of
    ``matrices.class_form``.
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


def dense_bound_suite(field, delta_hat):
    """Reference: ``matrices.bound_suite`` on the n x n weight matrix
    A = pair_weights / 2, its entries read off A and its inverse-entry
    constants off ``np.linalg.inv(A)``."""
    skipped = skipped_checks(MATRIX_CHECKS, field, delta_hat, pairs=True)
    if skipped is not None:
        return MatrixBoundReport(checks=skipped)

    n, r = field.n, field.r
    a = 0.5 * field.pair_weights
    big = field.big_lambda
    ratio_cap = 4.0 * delta_hat / r

    off = a[~np.eye(n, dtype=bool)]
    log_off = np.log(off)
    slack_off = float(ratio_cap - (log_off.max() - log_off.min()))
    diag = np.diag(a)
    log_diag = np.log(diag)
    slack_diag = float(ratio_cap - (log_diag.max() - log_diag.min()))

    mid_off = 0.5 * big * math.comb(n - 2, r - 2)
    mid_diag = 0.5 * big * math.comb(n - 1, r - 1)
    slack_off_sand = float(ratio_cap - np.abs(np.log(off / mid_off)).max())
    slack_diag_sand = float(ratio_cap - np.abs(np.log(diag / mid_diag)).max())

    row = (a.sum(axis=1) - diag) / (r - 1)
    row_gap = float(np.abs(row - diag).max())
    row_slack = 1e-10 * max(1.0, float(diag.max())) - row_gap

    logdet_a = weight_logdet(field)
    ap = 0.5 * math.exp(2.0 * delta_hat) * big
    comparison = aI_bJ_logdet(ap * math.comb(n - 2, r - 1), ap * math.comb(n - 2, r - 2), n)
    slack_det = float(comparison - logdet_a)
    det_tol = 1e-10 * max(1.0, abs(comparison))

    inv = np.linalg.inv(a)
    scale = big * math.comb(n - 1, r - 1) * math.exp(-35.0 * delta_hat)
    measured_diag = float(np.abs(np.diag(inv)).max() * scale)
    measured_off = float(np.abs(inv[~np.eye(n, dtype=bool)]).max() * scale * n)

    slacks = (slack_off, slack_diag, slack_off_sand, slack_diag_sand, row_slack)
    checks = [graded(name, slack) for name, slack in zip(MATRIX_CHECKS, slacks)]
    checks.append(graded("determinant-comparison", slack_det, det_tol))
    return MatrixBoundReport(
        checks=checks,
        measured_inverse_constant=measured_diag,
        measured_offdiag_constant=measured_off,
    )
