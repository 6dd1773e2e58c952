"""Lemma formulas that the tests check and no command computes: the
Stirling series of a log binomial, the entropy's curvature along a segment
of weights, the degree-spread proxy and the enumeration of every capped
degree vector.  Shared by the acceptance suite and the unit tests."""

import math

import numpy as np

from hyperdeg.fields import logistic
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
