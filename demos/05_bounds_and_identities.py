"""Inequality suite and exact summation identities.

The analysis behind the counting formulas rests on weight-ratio bounds,
matrix entry sandwiches, a determinant comparison, and a family of exact
rational summation identities over subsets.  This script runs all of them
on concrete inputs.  Both bound suites read one field summary at the
solved point: the class blocks of its weight matrix, average weight and
average variance weight.
"""

from fractions import Fraction

import numpy as np

from hyperdeg import DegreeSequence, bound_suite, solve
from hyperdeg.fields import check_weight_ratio_bounds
from hyperdeg.identities import FAMILIES, IdentityFamily, brute_sum, closed_sum

seq = DegreeSequence(6, 3, (6, 5, 5, 5, 5, 4))
report = solve(seq)
delta_hat = report.spread * seq.r
field = report.field
print(f"solved instance, spread*r = {delta_hat:.4f}")

print("\nweight-ratio bounds at the solved point:")
for check in check_weight_ratio_bounds(field, delta_hat):
    slack = "" if check.slack is None else f" slack={check.slack:.4f}"
    print(f"  {check.name:28s} {check.status}{slack}")

print("\nmatrix entry and determinant bounds:")
suite = bound_suite(field, delta_hat)
for check in suite.checks:
    slack = "" if check.slack is None else f" slack={check.slack:.4f}"
    print(f"  {check.name:28s} {check.status}{slack}")
print(f"  measured inverse-entry constant: {suite.measured_inverse_constant:.3f}")
print(f"  measured off-diagonal constant:  {suite.measured_offdiag_constant:.3f}")

print("\nexact summation identities (zero-sum rational deviations):")
delta = [Fraction(3), Fraction(-2), Fraction(1, 2), Fraction(-3, 2), 0, 0, 0, 0]
for scope, expr, takes_ell in FAMILIES:
    family = IdentityFamily(scope, expr, 2 if takes_ell else None)
    closed = closed_sum(family, 8, 3, delta, j=0, k=3)
    brute = brute_sum(family, 8, 3, delta, j=0, k=3)
    print(f"  {scope:6s} {expr:16s} closed = {str(closed):>14s}  "
          f"equal to enumeration: {closed == brute}")

rng = np.random.default_rng(1)
from hyperdeg.identities import selftest

results = selftest(rng, trials_per_family=10)
failures = sum(r["failures"] for r in results)
trials = sum(r["trials"] for r in results)
print(f"\nrandomized sweep: {trials} exact comparisons, {failures} failures")
