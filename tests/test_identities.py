import math
from fractions import Fraction

import numpy as np
import pytest

from hyperdeg import identities
from hyperdeg.errors import DegenerateDenominator
from hyperdeg.identities import (
    FAMILIES,
    IdentityFamily,
    brute_sum,
    closed_sum,
    selftest,
)
from hyperdeg.subsets import all_subsets


def _expression_value(expr, ell, gammas):
    if expr == "gamma_l":
        return gammas[ell]
    if expr == "gamma1_gamma_l":
        return gammas[1] * gammas[ell]
    if expr == "gamma1_sq":
        return gammas[1] ** 2
    if expr == "gamma1_cube":
        return gammas[1] ** 3
    if expr == "gamma1_quartic":
        return gammas[1] ** 4
    if expr == "gamma2_sq":
        return gammas[2] ** 2
    if expr == "gamma1sq_gamma2":
        return gammas[1] ** 2 * gammas[2]
    raise ValueError(f"unknown expression {expr!r}")


def reference_brute_sum(family, n, r, delta, j=None, k=None):
    """The per-subset Fraction loop the lattice oracle replaced."""
    d = tuple(Fraction(x) for x in delta)
    assert sum(d) == 0 and len(d) == n
    scope, expr, ell = family.scope, family.expression, family.ell
    needed = {1, 2}
    if ell is not None:
        needed.update({ell, ell + 1})
    total = Fraction(0)
    for w in all_subsets(n, r).tolist():
        if scope == "vertex" and j not in w:
            continue
        if scope == "pair" and not (j in w and k in w):
            continue
        gammas = {s: sum(d[v] ** s for v in w) for s in needed}
        total += _expression_value(expr, ell, gammas)
    return total / math.comb(n - 1, r - 1)


# Homogeneous degree of each expression in the deviations, ell excluded.
DEGREE = {"gamma_l": 0, "gamma1_gamma_l": 1, "gamma1_sq": 2, "gamma1_cube": 3,
          "gamma1_quartic": 4, "gamma2_sq": 4, "gamma1sq_gamma2": 4}


def _zero_sum(rng, n, denominator, spread=9):
    raw = [Fraction(int(x), denominator)
           for x in rng.integers(-spread, spread + 1, size=n)]
    raw[-1] -= sum(raw)
    return raw


def test_family_registry_rejects_unlisted_pairs():
    with pytest.raises(ValueError):
        IdentityFamily("pair", "gamma1_quartic")
    with pytest.raises(ValueError):
        IdentityFamily("all", "gamma_l")  # needs ell


def test_first_moment_identities():
    delta = [1, -1, 0, 0, 0, 0]
    assert closed_sum(IdentityFamily("all", "gamma_l", 2), 6, 3, delta) == 2
    assert closed_sum(
        IdentityFamily("vertex", "gamma_l", 1), 6, 3, delta, j=0
    ) == Fraction(3, 5)
    got = closed_sum(IdentityFamily("all", "gamma1_gamma_l", 2), 6, 3, [2, -1, -1, 0, 0, 0])
    assert got == Fraction(18, 5)
    assert brute_sum(
        IdentityFamily("all", "gamma1_gamma_l", 2), 6, 3, [2, -1, -1, 0, 0, 0]
    ) == Fraction(18, 5)


def test_zero_deviations_give_zero():
    delta = [0] * 6
    for scope, expr, takes_ell in FAMILIES:
        family = IdentityFamily(scope, expr, 1 if takes_ell else None)
        assert brute_sum(family, 6, 3, delta, j=0, k=1) == 0
        assert closed_sum(family, 6, 3, delta, j=0, k=1) == 0


def test_cube_closed_form_antisymmetric():
    delta = [Fraction(3), Fraction(-1), Fraction(-1), Fraction(-1), 0, 0, 0]
    fam = IdentityFamily("all", "gamma1_cube")
    plus = closed_sum(fam, 7, 3, delta)
    minus = closed_sum(fam, 7, 3, [-x for x in delta])
    assert plus == -minus != 0


def test_pinned_vertex_quartic_against_brute_force():
    rng = np.random.default_rng(31)
    raw = [Fraction(int(x)) for x in rng.integers(-5, 6, size=9)]
    raw[-1] -= sum(raw)
    fam = IdentityFamily("vertex", "gamma1_quartic")
    assert closed_sum(fam, 9, 4, raw, j=2) == brute_sum(fam, 9, 4, raw, j=2)


def test_pair_square_against_brute_force():
    rng = np.random.default_rng(32)
    raw = [Fraction(int(x), 2) for x in rng.integers(-8, 9, size=8)]
    raw[-1] -= sum(raw)
    fam = IdentityFamily("pair", "gamma1_sq")
    assert closed_sum(fam, 8, 3, raw, j=0, k=5) == brute_sum(fam, 8, 3, raw, j=0, k=5)


def test_degenerate_denominator():
    fam = IdentityFamily("vertex", "gamma1_quartic")
    with pytest.raises(DegenerateDenominator):
        closed_sum(fam, 4, 3, [1, -1, 0, 0], j=0)


def test_nonzero_sum_rejected():
    fam = IdentityFamily("all", "gamma_l", 2)
    with pytest.raises(ValueError):
        closed_sum(fam, 6, 3, [1, 0, 0, 0, 0, 0])


def test_randomized_sweep_all_families():
    rng = np.random.default_rng(20240701)
    results = selftest(rng, trials_per_family=12)
    assert all(row["failures"] == 0 for row in results)
    assert len(results) == len(FAMILIES)


def test_brute_sum_matches_reference_on_every_family():
    rng = np.random.default_rng(909)
    cases = 0
    for r in range(2, 6):
        for n in range(r + 1, 11):
            for i, (scope, expr, takes_ell) in enumerate(FAMILIES):
                ell = 1 + (n + i) % 3 if takes_ell else None
                family = IdentityFamily(scope, expr, ell)
                delta = _zero_sum(rng, n, (1, 2, 3, 6)[(n + r + i) % 4])
                j = int(rng.integers(0, n))
                k = int((j + 1 + rng.integers(0, n - 1)) % n)
                got = brute_sum(family, n, r, delta, j=j, k=k)
                assert got == reference_brute_sum(family, n, r, delta, j=j, k=k), (
                    family, n, r, delta, j, k)
                cases += 1
    assert cases == 26 * len(FAMILIES)


def test_pair_scope_with_singleton_subsets_is_zero():
    for delta in ([Fraction(5, 3), Fraction(-1, 2), Fraction(-7, 6), 0, 0],
                  [10**30, -(10**30), Fraction(1, 7), Fraction(-1, 7), 0]):
        for expr, ell in (("gamma_l", 2), ("gamma1_sq", None)):
            family = IdentityFamily("pair", expr, ell)
            got = brute_sum(family, 5, 1, delta, j=0, k=3)
            assert got == 0 == reference_brute_sum(family, 5, 1, delta, j=0, k=3)


def _bound(r, largest, degree, rows):
    return (r * largest) ** degree * rows


def test_large_deviations_take_the_python_int_path_exactly():
    rng = np.random.default_rng(17)
    delta = [Fraction(int(s) * 10**6 + int(t), 3)
             for s, t in zip(rng.choice([-1, 1], size=8), rng.integers(-5, 6, size=8))]
    delta[-1] -= sum(delta)
    # (3 · 10^6)^4 · 56 rows is far beyond int64: a wrapped sum would differ
    assert _bound(3, 10**6, 4, 56) > 2**63
    for scope, expr in (("all", "gamma1_quartic"), ("vertex", "gamma1_quartic"),
                        ("all", "gamma2_sq")):
        family = IdentityFamily(scope, expr)
        got = brute_sum(family, 8, 3, delta, j=4)
        assert got == reference_brute_sum(family, 8, 3, delta, j=4)
        assert got == closed_sum(family, 8, 3, delta, j=4)


def test_int64_bound_is_exact_on_both_sides():
    # gamma1_sq over all 20 subsets of (6, 3): degree 2, max |e| = m, and the
    # subset {0, 1, 2} attains G_1 = 3m, so the bound (3m)^2 · 20 is tight
    family = IdentityFamily("all", "gamma1_sq")
    m = math.isqrt((2**62 - 1) // 20) // 3
    assert _bound(3, m, 2, 20) < 2**62 <= _bound(3, m + 1, 2, 20)
    for top in (m, m + 1):
        delta = [top, top, top, -top, -top, -top]
        got = brute_sum(family, 6, 3, delta)
        assert got == reference_brute_sum(family, 6, 3, delta)
        assert got == closed_sum(family, 6, 3, delta)


@pytest.mark.parametrize("target", FAMILIES, ids=lambda f: f"{f[0]}-{f[1]}")
def test_selftest_catches_one_lattice_step(monkeypatch, target):
    """A closed form off by the smallest lattice step fails every trial.

    ``selftest`` evaluates the closed forms at lattice deviations e_v /
    scale; the step is taken on the smallest lattice of those deviations."""
    exact = identities._closed_lattice

    def off_by_one_step(family, n, r, scale, e, j, k):
        value = exact(family, n, r, scale, e, j, k)
        if (family.scope, family.expression) != target[:2]:
            return value
        step = math.lcm(*(Fraction(x, scale).denominator for x in e))
        degree = DEGREE[family.expression] + (family.ell or 0)
        return value + Fraction(1, step**degree * math.comb(n - 1, r - 1))

    monkeypatch.setattr(identities, "_closed_lattice", off_by_one_step)
    results = selftest(np.random.default_rng(5), trials_per_family=6)
    for row in results:
        hit = (row["scope"], row["expression"]) == target[:2]
        assert row["failures"] == (row["trials"] if hit else 0), row


# (n, r, ell, deviations, j, k) of the first two trials of each family, in
# FAMILIES order, as ``selftest(default_rng(5), 2)`` draws them
SELFTEST_SEED5_DRAWS = [
    (9, 4, 1, '3 -1/2 0 1 -2 9/2 -4 -2 0', 3, 5),
    (6, 3, 1, '-7 9 -6 3 5 -4', 2, 4),
    (10, 3, 3, '3 7/2 -7/2 -1 1 0 3/2 3/2 3/2 -15/2', 5, 4),
    (7, 3, 3, '-6 -8 -2 3 -7 7 13', 3, 2),
    (10, 4, None, '-2 -9/2 5/2 2 5/2 -9/2 -9/2 0 -3/2 10', 2, 7),
    (7, 3, None, '3 -7/2 -3/2 -7/2 -7/2 -2 11', 3, 5),
    (9, 4, None, '-5/2 -4 -3/2 -7/2 3 0 0 -2 21/2', 2, 0),
    (6, 3, None, '8 7 -8 7 7 -21', 5, 4),
    (9, 3, None, '-3 4 -2 1/2 3/2 -5/2 -2 5/2 1', 8, 5),
    (9, 3, None, '9/2 -5/2 -3/2 3/2 3/2 -7/2 -3 2 1', 8, 3),
    (7, 4, None, '-9 -6 -6 -2 -7 6 24', 0, 5),
    (6, 4, None, '-6 8 3 9 2 -16', 4, 5),
    (6, 3, None, '2 0 7/2 4 -1 -17/2', 3, 0),
    (9, 4, None, '2 -3/2 -1/2 -1 -7/2 -9/2 3 -1 7', 5, 4),
    (9, 4, 2, '-3/2 -3/2 9/2 1 -3 3 3 -9/2 -1', 3, 6),
    (6, 3, 3, '3 3 1/2 -7/2 -3/2 -3/2', 1, 4),
    (8, 4, 2, '4 -7 9 7 5 -4 -1 -13', 0, 6),
    (6, 4, 1, '3 -3 -5 8 0 -3', 2, 4),
    (8, 3, None, '3 -3 7 -5 -3 -9 6 4', 7, 4),
    (10, 4, None, '1 0 -3 2 3 2 -1 -9/2 2 -3/2', 1, 4),
    (7, 4, None, '-6 -5 -9 9 -5 -6 22', 6, 4),
    (7, 3, None, '-3 4 -2 -4 3 -7 9', 6, 1),
    (7, 4, None, '2 -9/2 -3/2 -9/2 3 -1 13/2', 6, 0),
    (8, 3, None, '4 8 1 5 -3 2 0 -17', 1, 2),
    (10, 4, 2, '0 -9/2 3 7/2 -9/2 1 1/2 -1 0 2', 4, 1),
    (9, 4, 3, '1 2 0 2 2 8 -5 -3 -7', 6, 4),
    (6, 3, None, '9 0 5 5 9 -28', 5, 2),
    (7, 3, None, '-9/2 -9/2 9/2 -9/2 -7/2 -5/2 15', 2, 3),
]


def test_selftest_draws_are_pinned(monkeypatch):
    draws = []
    exact = identities._closed_lattice

    def recording(family, n, r, scale, e, j, k):
        deviations = " ".join(str(Fraction(x, scale)) for x in e)
        draws.append((n, r, family.ell, deviations, j, k))
        return exact(family, n, r, scale, e, j, k)

    monkeypatch.setattr(identities, "_closed_lattice", recording)
    results = selftest(np.random.default_rng(5), trials_per_family=2)
    assert all(row["failures"] == 0 for row in results)
    assert draws == SELFTEST_SEED5_DRAWS
