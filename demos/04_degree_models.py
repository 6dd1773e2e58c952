"""Degree-sequence probability models of random uniform hypergraphs.

Compares the exact degree-sequence law of a random m-edge hypergraph with
the conditioned-binomial and conditioned-hypergeometric models, measures
the log-ratios against their closed predictions, and checks the sampler
against the per-vertex hypergeometric marginal.
"""

import numpy as np

from hyperdeg import (
    DegreeSequence,
    HypergeomSpec,
    hypergeom_pmf,
    measured_ratio,
    predicted_ratio,
    prob_model,
    sample_degree_batch,
)

seq = DegreeSequence(6, 3, (5,) * 6)
print("instance:", seq.to_json_dict())
for model in ("D-exact", "B", "T"):
    point = prob_model(seq, model)
    print(f"  {model:8s} ln prob = {point.ln_prob:.6f}")

print("\npredicted versus measured log-ratios (exact counts, dp normalizer):")
for pair in ("d-vs-t", "b-vs-d", "klw"):
    prediction = predicted_ratio(seq, pair)
    measured = measured_ratio(seq, pair)
    print(f"  {pair:7s} predicted {prediction['predicted_ln_ratio']:+.5f}  "
          f"measured {measured:+.5f}")

print("\nthe measured-vs-predicted gap shrinks as n grows:")
for n, d in [(5, 3), (6, 5), (7, 6)]:
    inst = DegreeSequence(n, 3, (d,) * n)
    predicted = predicted_ratio(inst, "d-vs-t")["predicted_ln_ratio"]
    measured = measured_ratio(inst, "d-vs-t")
    print(f"  n={n}: |measured - predicted| = {abs(measured - predicted):.4f}")

print("\nsampler marginals versus the hypergeometric pmf (20000 draws):")
spec = HypergeomSpec(6, 3, 10)
batch = sample_degree_batch(6, 3, 10, 2024, 20000)
empirical = np.bincount(batch[:, 0], minlength=11) / 20000
print("  k   pmf       empirical")
for k in range(11):
    p = hypergeom_pmf(spec, k)
    if p > 1e-4:
        print(f"  {k:2d}  {p:.5f}   {empirical[k]:.5f}")

one = tuple(sample_degree_batch(6, 3, 10, 42, 1)[0].tolist())
print("\none deterministic sample at seed 42:", one, "(degree sum", sum(one), ")")
