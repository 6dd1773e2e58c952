"""Fit the maximum-entropy model to a degree sequence and count.

Walks the main pipeline on a small skewed instance: validate, solve the
degree system by damped Newton, inspect the fitted edge weights, and
compare the three asymptotic counting routes against the exact count.
"""

import math

import numpy as np

from hyperdeg import (
    DegreeSequence,
    estimate_corollary,
    estimate_general,
    estimate_near_regular,
    exact_count,
    solve,
)

seq = DegreeSequence(6, 3, (6, 5, 5, 5, 5, 4))
params = seq.params
print("instance:", seq.to_json_dict())
print(f"average degree d = {params.d}, edges m = {params.m}, "
      f"density = {params.lam}, Q = {params.q}")
print("deviation power sums:", params.r2, params.r3, params.r4)
print("hypothesis flags:", params.flags)

report = solve(seq)
beta = report.beta_star
print(f"\nsolved in {report.iterations} Newton steps, "
      f"residual {report.residual_inf:.2e}, spread {report.spread:.3f}")
print("beta* =", np.round(beta, 6))

# the solve's last sweep is at beta*: it holds the fitted degrees
field = report.field
print("fitted expected degrees:", np.round(field.vertex_sums, 8))
print("average edge weight:", field.avg_lambda)

# the instance is in the first quadrant, so this repeats the solve above
# and makes no sweep
general = estimate_general(seq)
near = estimate_near_regular(seq)
corollary = estimate_corollary(seq)
exact = exact_count(seq)
print(f"\nln H (general formula)      = {general.ln_value:.6f}")
print(f"ln H (near-regular formula) = {near.ln_value:.6f}")
print(f"ln H (corollary grouping)   = {corollary.ln_value:.6f}")
print(f"ln H (exact count {exact})  = {math.log(exact):.6f}")
print("\nerror indicators (constant 1, indicators not bounds):")
for name, value in near.error_terms.items():
    print(f"  {name}: {value:.4g}")
print("\nAt n = 6 the asymptotic error is O(1); the formulas land within "
      "an O(1) factor of the exact count, and the gap shrinks as n grows "
      "(see demos/02_exact_oracles.py).")
