"""Closed-form subset summation identities and their brute-force oracle.

For a zero-sum deviation vector delta and an r-subset W, write
``G_s(W) = sum_{l in W} delta_l^s`` and ``R_s = sum_l delta_l^s`` (so
R_1 = 0).  Averaging monomials in the G_s over all subsets, all subsets
through a vertex, or all subsets through a pair yields exact rational
functions of n, r, the R_s, and the pinned deviations.  Everything here is
exact: the deviations are scaled by the lcm L of their denominators onto an
integer lattice e_v = L·delta_v, power sums and subset sums are exact int64
or Python-int sums of lattice values, and each result is one Fraction with
a power of L in its denominator.  The closed forms are compared to literal
enumeration with zero tolerance.

Only the exact displayed forms are implemented; approximate variants with
unspecified constants are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .budgets import check_subset_budget
from .errors import DegenerateDenominator
from .subsets import all_subsets

# (scope, expression, takes_ell)
FAMILIES: tuple[tuple[str, str, bool], ...] = (
    ("all", "gamma_l", True),
    ("all", "gamma1_gamma_l", True),
    ("all", "gamma1_sq", False),
    ("all", "gamma1_cube", False),
    ("all", "gamma1_quartic", False),
    ("all", "gamma2_sq", False),
    ("all", "gamma1sq_gamma2", False),
    ("vertex", "gamma_l", True),
    ("vertex", "gamma1_gamma_l", True),
    ("vertex", "gamma1_sq", False),
    ("vertex", "gamma1_cube", False),
    ("vertex", "gamma1_quartic", False),
    ("pair", "gamma_l", True),
    ("pair", "gamma1_sq", False),
)
# the n and r that ``selftest`` draws each trial from
SELFTEST_N = (6, 7, 8, 9, 10)
SELFTEST_R = (3, 4)


@dataclass(frozen=True)
class IdentityFamily:
    scope: str
    expression: str
    ell: int | None = None

    def __post_init__(self):
        if (self.scope, self.expression, self.ell is not None) not in FAMILIES:
            raise ValueError(
                f"unlisted identity family {self.scope}/{self.expression}"
                f"{'' if self.ell is None else f' ell={self.ell}'}"
            )


def _lattice(delta: Sequence, n: int) -> tuple[int, list[int]]:
    """The lcm L of the deviations' denominators and the integers L·delta_v;
    ``ValueError`` unless there are n deviations summing to zero exactly."""
    d = [Fraction(x) for x in delta]
    scale = math.lcm(*(x.denominator for x in d))
    e = [x.numerator * (scale // x.denominator) for x in d]
    if sum(e) != 0:
        raise ValueError("deviations must sum to zero exactly")
    if len(e) != n:
        raise ValueError(f"{len(e)} deviations for n={n}")
    return scale, e


def _denominator(n: int, *factors: int) -> int:
    prod = 1
    for f in factors:
        if n - f == 0:
            raise DegenerateDenominator(
                f"closed form needs n != {f} (got n = {n})"
            )
        prod *= n - f
    return prod


# Each expression is the product of the subset power sums G_s for the
# listed s; None stands for ell.  The sum of the s is its homogeneous degree.
_FACTORS: dict[str, tuple[int | None, ...]] = {
    "gamma_l": (None,),
    "gamma1_gamma_l": (1, None),
    "gamma1_sq": (1, 1),
    "gamma1_cube": (1, 1, 1),
    "gamma1_quartic": (1, 1, 1, 1),
    "gamma2_sq": (2, 2),
    "gamma1sq_gamma2": (1, 1, 2),
}


def _powers(family: IdentityFamily) -> list[int]:
    return [family.ell if s is None else s for s in _FACTORS[family.expression]]


def closed_sum(
    family: IdentityFamily,
    n: int,
    r: int,
    delta: Sequence,
    j: int | None = None,
    k: int | None = None,
) -> Fraction:
    """Exact closed form of the normalized subset sum.

    The normalization is 1 / C(n-1, r-1) for every scope.  ``j`` (and
    ``k``) select the pinned vertices for the vertex and pair scopes.
    """
    return _closed_lattice(family, n, r, *_lattice(delta, n), j, k)


def _closed_lattice(
    family: IdentityFamily, n: int, r: int, scale: int, e: list[int],
    j: int | None, k: int | None,
) -> Fraction:
    """``closed_sum`` at the deviations e_v / scale.

    Each closed form is homogeneous of degree deg in the deviations, so its
    numerator is formed from the integer power sums R_s = sum e_v^s and the
    pinned e_j, and the result is one Fraction over the integer
    denominator times scale**deg.
    """
    scope, expr, ell = family.scope, family.expression, family.ell
    nr = n - r
    rs = [sum(x**s for x in e) for s in range(max(4, (ell or 1) + 1) + 1)]
    lattice = scale ** sum(_powers(family))

    def value(num: int, *factors: int) -> Fraction:
        return Fraction(num, _denominator(n, *factors) * lattice)

    if scope == "all":
        if expr == "gamma_l":
            return value(rs[ell])
        if expr == "gamma1_gamma_l":
            return value(nr * rs[ell + 1], 1)
        if expr == "gamma1_sq":
            return value(nr * rs[2], 1)
        if expr == "gamma1_cube":
            return value(nr * (n - 2 * r) * rs[3], 1, 2)
        if expr == "gamma1_quartic":
            num = 3 * (r - 1) * nr * (nr - 1) * rs[2] ** 2 + nr * (
                n * n - 6 * r * n + 6 * r * r + n
            ) * rs[4]
            return value(num, 1, 2, 3)
        if expr == "gamma2_sq":
            return value((r - 1) * rs[2] ** 2 + nr * rs[4], 1)
        if expr == "gamma1sq_gamma2":
            num = (r - 1) * nr * rs[2] ** 2 + nr * (n - 2 * r) * rs[4]
            return value(num, 1, 2)

    if scope == "vertex":
        if j is None:
            raise ValueError("vertex scope needs j")
        dj = e[j]
        if expr == "gamma_l":
            return value((r - 1) * rs[ell] + nr * dj**ell, 1)
        if expr == "gamma1_gamma_l":
            num = (
                (r - 1) * nr * dj * rs[ell]
                + (r - 1) * nr * rs[ell + 1]
                + nr * (n - 2 * r) * dj ** (ell + 1)
            )
            return value(num, 1, 2)
        if expr == "gamma1_sq":
            num = (r - 1) * nr * rs[2] + nr * (n - 2 * r) * dj**2
            return value(num, 1, 2)
        if expr == "gamma1_cube":
            num = (
                3 * (r - 1) * nr * (nr - 1) * dj * rs[2]
                + (r - 1) * nr * (n - 2 * r + 1) * rs[3]
                + nr * (n * n - 6 * r * n + 6 * r * r + n) * dj**3
            )
            return value(num, 1, 2, 3)
        if expr == "gamma1_quartic":
            num = (
                3 * (r - 2) * (r - 1) * nr * (nr - 1) * rs[2] ** 2
                + 6 * (r - 1) * nr * (nr - 1) * (n - 2 * r) * dj**2 * rs[2]
                + 4 * (r - 1) * nr * (nr - 1) * (n - 2 * r) * dj * rs[3]
                + (r - 1) * nr * (n * n - 6 * r * n + 6 * r * r + 5 * n - 6 * r) * rs[4]
                + nr * (n - 2 * r) * (n * n - 12 * r * n + 12 * r * r + 5 * n) * dj**4
            )
            return value(num, 1, 2, 3, 4)

    if scope == "pair":
        if j is None or k is None or j == k:
            raise ValueError("pair scope needs distinct j, k")
        dj, dk = e[j], e[k]
        if expr == "gamma_l":
            num = (r - 2) * (r - 1) * rs[ell] + (r - 1) * nr * (dj**ell + dk**ell)
            return value(num, 1, 2)
        if expr == "gamma1_sq":
            num = (r - 2) * (r - 1) * nr * rs[2] + (r - 1) * nr * (
                (n - 2 * r + 1) * (dj**2 + dk**2) + 2 * (nr - 1) * dj * dk
            )
            return value(num, 1, 2, 3)

    raise ValueError(f"no closed form for {scope}/{expr}")


def brute_sum(
    family: IdentityFamily,
    n: int,
    r: int,
    delta: Sequence,
    j: int | None = None,
    k: int | None = None,
) -> Fraction:
    """Literal enumeration oracle, exact on the common-denominator lattice.

    The deviations are scaled to integers e_v = L·delta_v.  The subsets in
    scope are gathered as one array of lattice values, each needed G_s is
    one row sum of ``e**s``, and the expression, homogeneous of degree deg
    in the deviations, is summed over the rows and divided by
    L**deg · C(n-1, r-1).  The sums are int64 when (r·max|e|)**deg · rows
    stays below 2**62, so no partial value can overflow, and Python ints
    otherwise; either way the result is exact.
    """
    return _brute_lattice(family, n, r, *_lattice(delta, n), j, k)


def _brute_lattice(
    family: IdentityFamily, n: int, r: int, scale: int, e: list[int],
    j: int | None, k: int | None,
) -> Fraction:
    """``brute_sum`` at the deviations e_v / scale."""
    check_subset_budget(math.comb(n, r))
    powers = _powers(family)
    degree = sum(powers)
    rows = all_subsets(n, r)
    if family.scope == "vertex":
        rows = rows[(rows == j).any(axis=1)]
    elif family.scope == "pair":
        rows = rows[(rows == j).any(axis=1) & (rows == k).any(axis=1)]
    bound = (r * max(map(abs, e), default=0)) ** degree * max(len(rows), 1)
    values = np.array(e, dtype=np.int64 if bound < 2**62 else object)[rows]
    gammas = {s: (values**s).sum(axis=1) for s in set(powers)}
    total = int(math.prod(gammas[s] for s in powers).sum())
    return Fraction(total, scale**degree * math.comb(n - 1, r - 1))


def selftest(rng, trials_per_family: int = 50) -> list[dict]:
    """Randomized exact-equality sweep over every listed family.

    Each trial draws n, r, ell (for the families that take it), integer
    deviations in [-9, 9], a coin for halves, and the pinned j and k, in
    that order.  The deviations are drawn on their lattice: integers e_v
    with e_n adjusted to zero sum, at scale 2 (halves) or 1.  Both sides
    are evaluated on that lattice, with no Fraction until their results.
    Returns one record per family with the number of trials and failures;
    a failure means closed and brute values differ as rationals.
    """
    results = []
    for scope, expr, takes_ell in FAMILIES:
        failures = 0
        trials = 0
        for _ in range(trials_per_family):
            n = SELFTEST_N[rng.integers(0, len(SELFTEST_N))]
            r = SELFTEST_R[rng.integers(0, len(SELFTEST_R))]
            ell = int(rng.integers(1, 4)) if takes_ell else None
            e = rng.integers(-9, 10, size=n).tolist()
            scale = 2 if rng.integers(0, 2) else 1
            e[-1] -= sum(e)
            j = int(rng.integers(0, n))
            k = int((j + 1 + rng.integers(0, n - 1)) % n)
            family = IdentityFamily(scope, expr, ell)
            closed = _closed_lattice(family, n, r, scale, e, j, k)
            brute = _brute_lattice(family, n, r, scale, e, j, k)
            trials += 1
            if closed != brute:
                failures += 1
        results.append(
            {"scope": scope, "expression": expr, "trials": trials,
             "failures": failures}
        )
    return results
