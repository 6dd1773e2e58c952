import math
from itertools import combinations

import numpy as np
import pytest

from hyperdeg.core import DegreeSequence, derive
from hyperdeg.errors import BudgetExceeded
from hyperdeg.fields import (
    check_weight_ratio_bounds,
    field_summary,
    logistic,
)
from hyperdeg import fields
from hyperdeg.fields import Twofold
from hyperdeg.solver import solve
from hyperdeg.subsets import CHUNK, all_subsets, incidence, iter_chunks, iter_multisets

E = math.e


def colex_rank(subset):
    """Reference: the rank of a sorted subset in colex order."""
    return sum(math.comb(c, i + 1) for i, c in enumerate(subset))


def test_lambda_of_subset_closed_values():
    assert logistic(np.zeros(6)[[0, 1, 2]].sum()) == 0.5
    assert logistic(np.full(6, math.log(2) / 3)[[0, 1, 2]].sum()) == pytest.approx(
        2 / 3, abs=1e-15
    )
    assert logistic(np.full(6, -math.log(3) / 3)[[0, 1, 2]].sum()) == pytest.approx(
        1 / 4, abs=1e-15
    )


def test_lambda_monotone_and_interior():
    # s = 36 is near the largest argument where the float result stays < 1
    values = [float(logistic(np.full(4, s / 3)[[0, 1, 2]].sum()))
              for s in (-40, -1, 0, 1, 36)]
    assert all(0.0 < v < 1.0 for v in values)
    assert values == sorted(values)


def test_field_summary_uniform_six():
    f = field_summary(np.zeros(6), 6, 3)
    assert np.allclose(f.vertex_sums, 5.0)
    assert f.pair_weights[0, 0] == pytest.approx(2.5)
    assert f.pair_weights[0, 1] == pytest.approx(1.0)
    assert f.avg_lambda == pytest.approx(0.5)
    assert f.big_lambda == pytest.approx(0.25)


def test_field_summary_uniform_four():
    f = field_summary(np.zeros(4), 4, 3)
    assert np.allclose(f.vertex_sums, 1.5)
    assert np.allclose(np.diag(f.pair_weights), 0.75)
    assert f.pair_weights[0, 1] == pytest.approx(0.5)


def brute_field(beta, n, r):
    """Oracle: literal loops over itertools.combinations."""
    beta = np.asarray(beta, dtype=float)
    vertex = np.zeros(n)
    pair = np.zeros((n, n))
    lam_total = 0.0
    q_total = 0.0
    for w in combinations(range(n), r):
        s = beta[list(w)].sum()
        lam = 1.0 / (1.0 + math.exp(-s))
        q = lam * (1.0 - lam)
        lam_total += lam
        q_total += q
        for j in w:
            vertex[j] += lam
            pair[j, j] += q
        for a, b in combinations(w, 2):
            pair[a, b] += q
            pair[b, a] += q
    return vertex, pair, lam_total, q_total


def test_field_summary_against_brute_force():
    beta = np.array([1.0, 0.0, 0.0, 0.0])
    f = field_summary(beta, 4, 3)
    vertex, pair, lam_total, q_total = brute_field(beta, 4, 3)
    # hand values: vertex 1 in three subsets of sum 1, vertex 2 in two plus one of sum 0
    assert f.vertex_sums[0] == pytest.approx(3 * E / (1 + E), abs=1e-12)
    assert f.vertex_sums[1] == pytest.approx(2 * E / (1 + E) + 0.5, abs=1e-12)
    assert np.allclose(f.vertex_sums, vertex, atol=1e-12)
    assert np.allclose(f.pair_weights, pair, atol=1e-12)
    assert f.avg_lambda == pytest.approx(lam_total / 4, abs=1e-14)
    assert f.big_lambda == pytest.approx(q_total / 4, abs=1e-14)


def test_vertex_sum_identity_and_row_identity():
    rng = np.random.default_rng(11)
    beta = rng.normal(scale=0.2, size=7)
    f = field_summary(beta, 7, 3)
    # sum over vertices counts every subset r times
    assert f.vertex_sums.sum() == pytest.approx(
        3 * f.avg_lambda * math.comb(7, 3), rel=1e-13
    )
    # (r-1) * diagonal = row sum of off-diagonal entries
    diag = np.diag(f.pair_weights)
    off = f.pair_weights.sum(axis=1) - diag
    assert np.allclose(2 * diag, off, rtol=1e-12)
    assert 0.0 < f.avg_lambda < 1.0
    assert 0.0 < f.big_lambda <= 0.25


def test_entropy_sum_values():
    assert field_summary(np.zeros(6), 6, 3).entropy == pytest.approx(
        20 * math.log(2), rel=1e-15
    )
    # all weights 2/3: frozen from a 50-digit evaluation of 20*h(2/3)
    val = field_summary(np.full(6, math.log(2) / 3), 6, 3).entropy
    assert val == pytest.approx(12.730283365896256, abs=1e-12)


def test_entropy_sum_matches_term_by_term_oracle():
    rng = np.random.default_rng(8)
    beta = rng.normal(scale=0.7, size=4)
    brute = 0.0
    for w in combinations(range(4), 3):
        lam = 1.0 / (1.0 + math.exp(-beta[list(w)].sum()))
        brute += -lam * math.log(lam) - (1 - lam) * math.log(1 - lam)
    assert field_summary(beta, 4, 3).entropy == pytest.approx(brute, abs=1e-12)


def test_log_prefactor_trivial_cases():
    # every weight is 1/2, so the prefactor's entropy form is C(n, r) ln 2
    assert field_summary(np.zeros(4), 4, 3).entropy == pytest.approx(4 * math.log(2))
    assert field_summary(np.zeros(6), 6, 3).entropy == pytest.approx(20 * math.log(2))


def test_log_prefactor_agrees_at_solution():
    # the direct and entropy forms differ by beta . (vertex_sums - d)
    seq = DegreeSequence(6, 3, (6, 5, 5, 5, 5, 4))
    beta = solve(seq).beta_star
    field = field_summary(beta, 6, 3)
    residual = field.vertex_sums - np.asarray(seq.degrees, dtype=np.float64)
    assert abs(float(beta @ residual)) <= 1e-10


def test_budget_guard(monkeypatch):
    monkeypatch.setenv("HYPERDEG_BUDGET", str(10**6))
    with pytest.raises(BudgetExceeded):
        field_summary(np.zeros(40), 40, 20)


def test_field_summary_refuses_an_edge_size_above_n():
    # no subsets: every average would divide by C(3, 4) = 0
    with pytest.raises(ValueError, match="no 4-subsets of 3 vertices"):
        field_summary(np.zeros(3), 3, 4)


def test_field_summary_refuses_classes_of_another_n():
    # the averages would divide by C(10, 3) the sums over C(8, 3) subsets
    with pytest.raises(ValueError, match="classes partition 8 vertices, expected n = 10"):
        field_summary(np.zeros(8), 10, 3, classes=fields.VertexClasses.singletons(8))
    assert field_summary(np.zeros(8), 8, 3).avg_lambda == 0.5


def test_complement_weight_identities():
    rng = np.random.default_rng(4)
    beta = rng.normal(scale=0.4, size=6)
    shifted = beta.sum() / (6 - 3) - beta
    for w in combinations(range(6), 3):
        comp = tuple(sorted(set(range(6)) - set(w)))
        lw = float(logistic(beta[list(w)].sum()))
        assert logistic(shifted[list(comp)].sum()) == pytest.approx(lw, abs=1e-14)
        assert logistic(-beta[list(w)].sum()) == pytest.approx(1.0 - lw, abs=1e-14)


def test_ratio_bounds_pass_at_zero_and_on_smooth_vectors():
    checks = check_weight_ratio_bounds(field_summary(np.zeros(6), 6, 3), delta_hat=0.0)
    assert all(c.status == "pass" for c in checks)
    assert all(abs(c.slack) < 1e-14 for c in checks if c.name.startswith("pair"))

    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(6, 10))
        r = int(rng.choice([3, 4]))
        delta_hat = float(rng.uniform(0.05, 1.0))
        base = float(rng.uniform(-1.0, 0.1))
        beta = base + rng.uniform(-delta_hat / (2 * r), delta_hat / (2 * r), size=n)
        f = field_summary(beta, n, r)
        checks = check_weight_ratio_bounds(f, delta_hat)
        for check in checks:
            assert check.status != "fail", (check, n, r, delta_hat, f.avg_lambda)


def test_ratio_bounds_skipped_outside_precondition():
    beta = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    checks = check_weight_ratio_bounds(field_summary(beta, 6, 3), delta_hat=0.01)
    assert all(c.status == "skipped" for c in checks)


def test_pair_ratio_slack_is_positive_inside_the_spread_bound():
    # a subset paired with itself has allowance and gap both 0; only
    # distinct pairs count, so an interior beta leaves room on both checks
    rng = np.random.default_rng(7)
    for n, r, delta_hat in [(6, 3, 0.5), (8, 4, 0.2), (9, 3, 1.0)]:
        beta = -0.3 + rng.uniform(-delta_hat / (2 * r), delta_hat / (2 * r), size=n)
        field = field_summary(beta, n, r)
        slacks = {c.name: c.slack for c in check_weight_ratio_bounds(field, delta_hat)}
        assert slacks["pair-ratio-lambda"] > 0
        assert slacks["pair-ratio-complement"] > 0


def test_pair_ratio_checks_still_fail_on_a_violating_beta():
    # the precondition admits spread * r up to delta_hat * (1 + 1e-12); with
    # weights near 0 the log-weight gap of two disjoint subsets then exceeds
    # the allowance by about 3e-12 (and the complement gap near weight 1)
    delta_hat = 10.0
    beta = np.full(6, -30.0)
    beta[0] += delta_hat / 3 * (1 + 0.9e-12)
    for sign, name in ((1, "pair-ratio-lambda"), (-1, "pair-ratio-complement")):
        field = field_summary(sign * beta, 6, 3)
        checks = {c.name: c for c in check_weight_ratio_bounds(field, delta_hat)}
        assert checks[name].status == "fail"
        assert -1e-11 < checks[name].slack < 0


def test_logistic_extreme_arguments_saturate_without_overflow():
    vals = logistic(np.array([-800.0, 800.0]))
    assert vals[0] == 0.0 and vals[1] == 1.0
    mid = logistic(np.array([0.0]))
    assert mid[0] == 0.5


def reference_field_summary(beta, n, r):
    """Reference: a per-column ``np.add.at`` chunk kernel on row-major
    int64 rows, folded in chunk order."""
    beta = np.asarray(beta, dtype=np.float64)
    acc = [Twofold(0.0), Twofold(0.0), Twofold(np.zeros(n)), Twofold(np.zeros(n)),
           Twofold(np.zeros((n, n))), Twofold(0.0)]
    for idx in iter_chunks(n, r):
        s = beta[idx].sum(axis=1)
        lam = logistic(s)
        q = lam * logistic(-s)
        entropy = fields.softplus(s) - lam * s
        vertex_lam, vertex_q, pair_q = np.zeros(n), np.zeros(n), np.zeros((n, n))
        for a in range(r):
            np.add.at(vertex_lam, idx[:, a], lam)
            np.add.at(vertex_q, idx[:, a], q)
            for b in range(a + 1, r):
                np.add.at(pair_q, (idx[:, a], idx[:, b]), q)
        parts = (lam.sum(), q.sum(), vertex_lam, vertex_q, pair_q, entropy.sum())
        for total, part in zip(acc, parts):
            total.add(part)
    sum_lam, sum_q, vertex_lam, vertex_q, pair_q, entropy = (t.value() for t in acc)
    pw = pair_q + pair_q.T
    np.fill_diagonal(pw, vertex_q)
    total = math.comb(n, r)
    return vertex_lam, pw, sum_lam / total, sum_q / total, entropy


def reference_solve(seq, seed_beta=None, tol=1e-10):
    """Reference: damped Newton with a separate vertex-sum sweep for each
    candidate and a fresh field sweep for each Jacobian."""
    n, r = seq.n, seq.r
    lam = derive(seq).lam
    beta = np.full(n, math.log(lam / (1.0 - lam)) / r) if seed_beta is None else seed_beta
    degrees = np.asarray(seq.degrees, dtype=np.float64)
    target = tol * max(derive(seq).d, 1.0)
    residual = reference_field_summary(beta, n, r)[0] - degrees
    res_norm = float(np.abs(residual).max())
    for iteration in range(101):
        if res_norm <= target:
            return beta, res_norm, iteration
        jacobian = reference_field_summary(beta, n, r)[1]
        # the same linear algebra as solve: the sweeps and the Newton path are
        # pinned here, not a LAPACK build
        np.linalg.cholesky(jacobian)
        step = np.linalg.solve(jacobian, -residual)
        scale = 1.0
        while True:
            candidate = beta + scale * step
            cand_residual = reference_field_summary(candidate, n, r)[0] - degrees
            cand_norm = float(np.abs(cand_residual).max())
            if cand_norm < res_norm:
                break
            scale *= 0.5
        beta, residual, res_norm = candidate, cand_residual, cand_norm
    raise AssertionError("reference solve did not converge")


# pairs of these reach the subset sums 0, +-30, +-745 (exp(-745) is the
# smallest subnormal) and +-800 (the weight saturates at 0 and 1)
EXTREME_BETA = np.repeat([0.0, 15.0, -15.0, 372.5, -372.5, 400.0, -400.0], 2)


# r = 7, 8, 9 and 12 straddle numpy's switch from left-to-right row sums to
# pairwise ones at 8 terms
@pytest.mark.parametrize("n,r,beta", [
    pytest.param(
        n, r, np.random.default_rng(n * 10 + r).normal(scale=0.4, size=n) - 0.3,
        id=f"{n}-{r}",
    )
    for n, r in [(9, 1), (9, 2), (20, 4), (12, 5), (24, 5),
                 (16, 7), (16, 8), (15, 9), (16, 12)]
] + [pytest.param(14, 2, EXTREME_BETA, id="extreme-beta"),
     # every q of the first chunk underflows to 0 (subset sum 800); the
     # second adds rows through the last vertex, of q = e^-400
     pytest.param(21, 4, np.r_[np.full(20, 200.0), -200.0], id="q-underflow")])
def test_bincount_kernel_is_bit_identical_to_add_at(n, r, beta):
    f = field_summary(beta, n, r)
    vertex, pair, avg, big, entropy = reference_field_summary(beta, n, r)
    assert np.array_equal(f.vertex_sums, vertex)
    assert np.array_equal(f.pair_weights, pair)
    assert f.avg_lambda == avg
    assert f.big_lambda == big
    assert f.entropy == entropy


def reference_class_field(values, sizes, r):
    """Reference: the class sweep composition by composition, each weighted
    by its prod C(n_i, a_i) from exact integers, with per-column
    ``np.add.at`` sums folded in chunk order; returns every float of the
    field in the order of ``field_bits``."""
    k, n = len(sizes), sum(sizes)
    acc = [Twofold(np.zeros(k)), Twofold(np.zeros(k)), Twofold(np.zeros((k, k))),
           Twofold(0.0), Twofold(0.0), Twofold(0.0)]
    for idx in iter_multisets(k, r):
        mult = np.array([
            float(math.prod(math.comb(sizes[i], row.count(i)) for i in set(row)))
            for row in idx.tolist()
        ])
        s = values[idx].sum(axis=1)
        lam = logistic(s)
        q = lam * logistic(-s)
        entropy = fields.softplus(s) - lam * s
        lam, q, entropy = lam * mult, q * mult, entropy * mult
        vertex_lam, vertex_q, pair_q = np.zeros(k), np.zeros(k), np.zeros((k, k))
        for a in range(r):
            np.add.at(vertex_lam, idx[:, a], lam)
            np.add.at(vertex_q, idx[:, a], q)
            for b in range(a + 1, r):
                np.add.at(pair_q, (idx[:, a], idx[:, b]), q)
        parts = (vertex_lam, vertex_q, pair_q, lam.sum(), q.sum(), entropy.sum())
        for total, part in zip(acc, parts):
            total.add(part)
    vertex_lam, vertex_q, pair_q, sum_lam, sum_q, entropy = (t.value() for t in acc)
    size = np.array(sizes, dtype=np.float64)
    per_pair = np.outer(size, size)
    np.fill_diagonal(per_pair, np.maximum(size * (size - 1.0), 1.0))
    total = math.comb(n, r)
    parts = (vertex_lam / size, vertex_q / size, (pair_q + pair_q.T) / per_pair,
             sum_lam / total, sum_q / total, entropy)
    return b"".join(np.asarray(x, dtype=np.float64).tobytes() for x in parts)


# 4368 compositions (two chunks) at r = 5, and pairwise row sums at r = 8;
# classes of size 1 leave compositions of multiplicity 0; r = 1 has no pair
# positions; C(4000, 5) = 8.5e15 is within 6% of both 2^53 and the cap C(n, r)
@pytest.mark.parametrize("sizes,r", [
    ((3, 1, 5, 2, 1, 4, 2, 6, 1, 3, 2, 5), 5), ((3, 1, 5, 2, 1), 8),
    ((3, 1, 5, 2, 1), 1), ((4000, 1, 2, 1), 5),
])
def test_class_kernel_is_bit_identical_to_a_per_composition_reference(sizes, r):
    k = len(sizes)
    index = np.repeat(np.arange(k), sizes)
    first = np.cumsum((0,) + sizes[:-1])
    classes = fields.VertexClasses(index, np.array(sizes), first)
    values = np.random.default_rng(k * r).normal(scale=0.4, size=k) - 0.3
    field = field_summary(values, sum(sizes), r, classes=classes)
    assert field_bits(field) == reference_class_field(values, sizes, r)


@pytest.mark.parametrize("r", list(range(1, 18)) + [130])
def test_row_sums_are_bit_identical_to_a_row_major_gather_sum(r):
    # magnitudes over 16 decades make every order of addition round
    # differently; an all -0.0 vector checks the sign of zero sums
    rng = np.random.default_rng(r)
    n = r + 6
    x = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, size=n)
    idx = next(iter_chunks(n, r))
    # a plan chunk: contiguous columns in int16, read through the transposed view
    planned = np.ascontiguousarray(idx.T, dtype=np.int16).T
    for values in (x, np.full(n, -0.0)):
        want = np.ascontiguousarray(values[idx]).sum(axis=1).tobytes()
        assert fields.row_sums(values, idx).tobytes() == want
        assert fields.row_sums(values, planned).tobytes() == want


def test_entropy_and_prefactor_sweeps_are_bit_identical_to_per_chunk_sums():
    seq = DegreeSequence(13, 4, (60,) * 12 + (64,))
    beta = np.random.default_rng(2).normal(scale=0.2, size=13) - 0.9
    soft, ent = Twofold(0.0), Twofold(0.0)
    for idx in iter_chunks(13, 4):
        s = beta[idx].sum(axis=1)
        sp = fields.softplus(s)
        soft.add(float(sp.sum()))
        ent.add(float((sp - logistic(s) * s).sum()))
    field = field_summary(beta, 13, 4)
    assert field.entropy == ent.value()
    degrees = np.asarray(seq.degrees, dtype=np.float64)
    log_2pi = math.log(2.0 * math.pi)
    entropy_form = -13 * log_2pi + field.entropy
    direct = -13 * log_2pi - float(beta @ degrees) + soft.value()
    gap = float(beta @ (field.vertex_sums - degrees))
    assert direct - entropy_form == pytest.approx(gap, rel=1e-12)


@pytest.mark.parametrize("degrees,seed", [
    ((6, 5, 5, 5, 5, 4), None),
    ((20, 22, 25, 27, 30, 31, 33, 35, 36, 38, 41, 43), None),
    # a far seed: 7 iterations with 10 step halvings
    ((4, 1, 1, 2, 5, 8, 9, 9, 9, 9, 9, 9), -3.0),
])
def test_solve_is_bit_identical_to_the_reference_path(degrees, seed, colex_route):
    # the reference is the n-dimensional Newton path; repeated degrees would
    # otherwise take the class route, which agrees only to rounding
    n = len(degrees)
    seq = DegreeSequence(n, 3, degrees)
    seed_beta = None if seed is None else np.full(n, seed)
    report = solve(seq, seed_beta=seed_beta)
    beta, residual, iterations = reference_solve(seq, seed_beta)
    assert np.array_equal(report.beta_star, beta)
    assert report.residual_inf == residual
    assert report.iterations == iterations


def reference_pair_slacks(beta, n, r, delta_hat, block=1 << 20):
    """Reference: the pair-ratio slacks by comparing every pair of distinct
    subsets, in row blocks of about ``block`` pairs."""
    inc = incidence(n, r)
    s = beta[all_subsets(n, r)].sum(axis=1)
    logs = (np.log(logistic(s)), np.log(logistic(-s)))
    total = math.comb(n, r)
    rows = max(1, block // max(total, 1))
    mins = ([], [])
    for lo in range(0, total, rows):
        hi = min(lo + rows, total)
        overlap = inc[lo:hi] @ inc.T
        allowance = delta_hat * (1.0 - overlap / r)
        own = (np.arange(hi - lo), np.arange(lo, hi))
        for log_w, found in zip(logs, mins):
            slack = allowance - np.abs(log_w[lo:hi, None] - log_w[None, :])
            slack[own] = np.inf
            found.append(slack.min())
    return tuple(float(np.min(found)) for found in mins)


def _pair_checks(beta, n, r, delta_hat):
    field = field_summary(beta, n, r)
    checks = {c.name: c for c in check_weight_ratio_bounds(field, delta_hat)}
    return tuple(checks[name] for name in ("pair-ratio-lambda", "pair-ratio-complement"))


PAIR_CASES = [(6, 1), (6, 3), (7, 2), (7, 5), (7, 6), (9, 4), (10, 7), (12, 4), (13, 9)]


@pytest.mark.parametrize("n,r", PAIR_CASES)
def test_pair_ratio_slacks_equal_the_full_scan_on_generic_beta(n, r):
    rng = np.random.default_rng(100 * n + r)
    for _ in range(8):
        delta_hat = float(rng.uniform(0.05, 3.0))
        base = float(rng.uniform(-1.5, 0.5))
        beta = base + rng.uniform(-delta_hat / (2 * r), delta_hat / (2 * r), size=n)
        got = _pair_checks(beta, n, r, delta_hat)
        want = reference_pair_slacks(beta, n, r, delta_hat)
        assert tuple(c.slack for c in got) == want
        assert tuple(c.status for c in got) == tuple(
            "pass" if slack >= 0 else "fail" for slack in want
        )


@pytest.mark.parametrize("n,r", PAIR_CASES)
def test_pair_ratio_slacks_match_the_full_scan_on_tied_beta(n, r):
    """Beta with pairs whose gaps tie in exact arithmetic: repeated values,
    one value plus 1e-15 noise, and saturated weights (|s| near 40, where
    log lambda is linear in s to below rounding, so all pairs with the same
    swapped parts have the same gap).  The scan's maximum then picks among
    gaps that differ only by the rounding of the subset sums, so the slacks
    agree to a few units in the last place of the largest |log weight|, and
    a status can differ only where the slack is itself that small."""
    rng = np.random.default_rng(1000 + 100 * n + r)
    for trial in range(9):
        delta_hat = float(rng.uniform(0.05, 2.0))
        base = float(rng.uniform(-1.5, 0.5))
        scale = max(1.0, delta_hat)
        if trial % 3 == 0:
            levels = rng.uniform(-delta_hat / (2 * r), delta_hat / (2 * r), size=3)
            beta = base + levels[rng.integers(0, 3, size=n)]
        elif trial % 3 == 1:
            beta = base + rng.uniform(-1e-15, 1e-15, size=n)
            if trial == 1:
                # the spread bound met with equality: every slack is rounding
                delta_hat = float(beta.max() - beta.min()) * r
        else:
            base = float(rng.choice([-40.0, 40.0])) / r
            beta = base + rng.uniform(-delta_hat / (2 * r), delta_hat / (2 * r), size=n)
            scale = max(scale, 40.0)
        tol = 1e-14 * scale
        got = _pair_checks(beta, n, r, delta_hat)
        want = reference_pair_slacks(beta, n, r, delta_hat)
        for check, slack in zip(got, want):
            assert abs(check.slack - slack) <= tol, (trial, check, slack)
            if abs(slack) > tol:
                assert check.status == ("pass" if slack >= 0 else "fail")


RATIO_NAMES = (
    "pair-ratio-lambda",
    "pair-ratio-complement",
    "ratio-to-average",
    "variance-ratio-to-average",
    "average-vs-variance-average",
)


def dense_ratio_checks(beta, n, r, delta_hat):
    """Reference: the weight-ratio checks from the dense C(n, r) x n incidence
    matrix, every subset's weight and the averages over all of them."""
    if float(beta.max() - beta.min()) * r > delta_hat * (1 + 1e-12):
        return {name: ("skipped", None) for name in RATIO_NAMES}
    s = incidence(n, r) @ beta
    lam, one_minus = logistic(s), logistic(-s)
    log_lam, log_one = np.log(lam), np.log(one_minus)
    order = np.argsort(beta, kind="stable").tolist()

    def row(vertices):
        return colex_rank(sorted(vertices))

    low, high = row(order[:r]), row(order[n - r:])
    ks = range(1, min(r, n - r) + 1)
    allowance = np.array([delta_hat * (1.0 - (r - k) / r) for k in ks])
    up = np.array([row(order[k:r] + order[n - k:]) for k in ks], dtype=np.int64)
    down = np.array([row(order[:k] + order[n - r:n - k]) for k in ks], dtype=np.int64)
    avg = float(lam.mean())
    big = float((lam * one_minus).mean())
    slacks = {
        "pair-ratio-lambda": float(
            np.min(allowance - np.abs(log_lam[up] - log_lam[low]), initial=np.inf)
        ),
        "pair-ratio-complement": float(
            np.min(allowance - np.abs(log_one[high] - log_one[down]), initial=np.inf)
        ),
        "ratio-to-average": float(delta_hat - np.abs(log_lam - math.log(avg)).max()),
        "variance-ratio-to-average": float(
            2.0 * delta_hat - np.abs(np.log(lam * one_minus) - math.log(big)).max()
        ),
    }
    if avg <= 7.0 / 8.0:
        lower = math.exp(-delta_hat) / 256.0 * avg
        slacks["average-vs-variance-average"] = float(min(big - lower, avg - big))
    out = {name: ("pass" if slack >= 0 else "fail", slack) for name, slack in slacks.items()}
    out.setdefault("average-vs-variance-average", ("skipped", None))
    return out


def ratio_beta(rng, n, r, kind):
    """A beta inside the spread bound of a random delta_hat: generic, with
    subset sums on both sides of 0, saturated (|s| near 40), or tied (two
    levels)."""
    delta_hat = float(rng.uniform(0.05, 3.0))
    half = delta_hat / (2 * r)
    if kind == "generic":
        beta = float(rng.uniform(-1.5, 0.5)) + rng.uniform(-half, half, size=n)
    elif kind == "straddle":
        beta = float(rng.uniform(-half, half)) + rng.uniform(-half, half, size=n)
    elif kind == "saturated":
        beta = float(rng.choice([-40.0, 40.0])) / r + rng.uniform(-half, half, size=n)
    else:
        levels = float(rng.uniform(-1.0, 0.5)) + rng.uniform(-half, half, size=2)
        beta = levels[rng.integers(0, 2, size=n)]
    return beta, delta_hat


@pytest.mark.parametrize("n", range(5, 12))
def test_ratio_checks_match_the_dense_reference(n):
    """The checks read at the extreme subsets and the field's averages agree
    with the dense scan to a few ulps of the largest |subset sum|; a status
    may differ only where the slack itself is that small."""
    rng = np.random.default_rng(500 + n)
    eps = np.finfo(np.float64).eps
    compared = 0
    for r in range(1, n):
        for kind in ("generic", "straddle", "saturated", "tied"):
            for _ in range(2):
                beta, delta_hat = ratio_beta(rng, n, r, kind)
                got = {c.name: c for c in check_weight_ratio_bounds(
                    field_summary(beta, n, r), delta_hat)}
                assert tuple(got) == RATIO_NAMES
                for name, (status, slack) in dense_ratio_checks(beta, n, r, delta_hat).items():
                    check = got[name]
                    if slack is None:
                        assert (check.status, check.slack) == (status, None), (name, kind)
                        continue
                    tol = 4 * eps * max(1.0, abs(slack), r * float(np.abs(beta).max()))
                    assert abs(check.slack - slack) <= tol, (name, kind, r, check.slack, slack)
                    if abs(slack) > tol:
                        assert check.status == status, (name, kind, r)
                    compared += 1
    assert compared > 30 * (n - 1)


def test_ratio_checks_on_the_class_route_match_the_colex_field():
    # vertices of equal degree share one beta, and the nearest-zero search
    # skips the compositions that stand for no subset
    seq = DegreeSequence(8, 3, (10,) * 4 + (11,) * 4)
    report = solve(seq)
    assert report.field.classes.k == 2
    delta_hat = max(report.spread * seq.r, 1e-6)
    got = check_weight_ratio_bounds(report.field, delta_hat)
    want = check_weight_ratio_bounds(field_summary(report.beta_star, seq.n, seq.r), delta_hat)
    for a, b in zip(got, want):
        assert (a.name, a.status) == (b.name, b.status)
        assert a.slack == pytest.approx(b.slack, rel=1e-12, abs=1e-12)
    classes = fields.VertexClasses(
        np.array([0, 1, 1, 1, 1, 1]), np.array([1, 5]), np.array([0, 1])
    )
    field = field_summary(np.array([0.15, -0.2]), 6, 3, classes=classes)
    # the composition (0, 0, 1) has multiplicity 0: its sum 0.1 is nearer 0
    # than any real subset's, of which (0, 1, 1) at -0.25 is the nearest
    assert fields._sum_nearest_zero(field) == pytest.approx(-0.25)


def field_bits(field):
    """Every float a field sweep returns, as bytes, for bit comparisons."""
    parts = (field.class_sums, field.class_variance, field.pair_blocks,
             field.avg_lambda, field.big_lambda, field.entropy)
    return b"".join(np.asarray(x, dtype=np.float64).tobytes() for x in parts)


# colex at r = 2..5 and 12..16 (the edge complements of the r = 4 audits),
# then the class route; r = 1 has no pair positions, and the compositions of
# 12 classes at r = 5 fill two chunks
@pytest.mark.parametrize("n,r,sizes", [(20, r, None) for r in range(2, 6)]
                         + [(18, r, None) for r in range(12, 17)]
                         + [(12, 4, (3, 1, 5, 2, 1)), (60, 4, (15, 15, 15, 15))]
                         + [(20, 1, None), (35, 5, (3, 1, 5, 2, 1, 4, 2, 6, 1, 3, 2, 5))])
def test_sweeps_read_the_same_bits_from_a_cold_a_warm_and_a_capped_row_plan(
    n, r, sizes, monkeypatch, plan_cache
):
    rng = np.random.default_rng(n * r)
    classes = fields.VertexClasses.singletons(n)
    if sizes is not None:
        index = np.repeat(np.arange(len(sizes)), sizes)
        first = np.cumsum((0,) + sizes[:-1])
        classes = fields.VertexClasses(index, np.array(sizes), first)
    k = classes.k
    beta = rng.normal(scale=0.3, size=k) - 0.2
    cold = field_bits(field_summary(beta, n, r, classes=classes))
    assert field_bits(field_summary(beta, n, r, classes=classes)) == cold
    info = plan_cache.cache_info()
    # the plan holds r(r + 1)/2 entries a row, in the dtype that holds -k^2
    itemsize = np.min_scalar_type(-k * k).itemsize
    assert (info.misses, info.nbytes) == (1, classes.rows(r) * r * (r + 1) // 2 * itemsize)
    # with the bound one byte below the plan nothing is planned, and every
    # sweep streams the family again
    monkeypatch.setattr(fields, "PLAN_CACHE_BYTES", info.nbytes - 1)
    plan_cache.cache_clear()
    for _ in range(2):
        assert field_bits(field_summary(beta, n, r, classes=classes)) == cold
    assert plan_cache(k, r, sizes is not None) == ()
    assert plan_cache.cache_info().nbytes == 0


def record_row_chunks(monkeypatch) -> list:
    """The argument tuples of every ``_row_chunks`` call from here on."""
    seen = []
    real = fields._row_chunks
    monkeypatch.setattr(fields, "_row_chunks", lambda *a: seen.append(a) or real(*a))
    return seen


def test_a_family_within_the_plan_limit_is_planned_whole(monkeypatch, plan_cache):
    # C(20, 16) = 4845 rows of 16 indices and 120 pair keys in int16:
    # 1,317,840 bytes, two chunks, neither unranked again by a later sweep
    beta = np.random.default_rng(16).normal(scale=0.3, size=20) - 0.2
    whole = field_bits(field_summary(beta, 20, 16))
    plan = plan_cache(20, 16, False)
    assert [idx.shape[1] for idx, _ in plan] == [CHUNK, 749]
    info = plan_cache.cache_info()
    assert (info.misses, info.plans, info.nbytes) == (1, 1, 4845 * 136 * 2)
    seen = record_row_chunks(monkeypatch)
    assert field_bits(field_summary(beta, 20, 16)) == whole
    assert seen == []
    # one byte short of the whole family, nothing is planned and every
    # sweep unranks all of it again, with the same bits
    monkeypatch.setattr(fields, "PLAN_CACHE_BYTES", 4845 * 136 * 2 - 1)
    plan_cache.cache_clear()
    for _ in range(2):
        assert field_bits(field_summary(beta, 20, 16)) == whole
    assert plan_cache(20, 16, False) == ()
    assert seen == [(20, 16, False)] * 2


def test_a_family_past_two_to_the_twenty_entries_within_the_bound_is_planned_whole(
    monkeypatch, plan_cache
):
    # C(45, 4) = 148,995 rows of 4 indices and 6 pair keys in int16: 1.49
    # million entries in 2.98 MB, within PLAN_CACHE_BYTES, so after one
    # sweep no later one unranks a row
    beta = np.random.default_rng(45).normal(scale=0.3, size=45) - 0.2
    first = field_bits(field_summary(beta, 45, 4))
    seen = record_row_chunks(monkeypatch)
    assert field_bits(field_summary(beta, 45, 4)) == first
    assert seen == []
    assert plan_cache.cache_info().nbytes == 148_995 * 10 * 2


def test_a_family_above_the_bound_is_streamed_and_the_cache_stays_within_it(
    monkeypatch, plan_cache
):
    beta = {n: np.random.default_rng(n).normal(scale=0.3, size=n) - 0.2 for n in (12, 20)}

    def sweep(n):
        return field_bits(field_summary(beta[n], n, 4))

    bits = {n: sweep(n) for n in (12, 20)}
    # 495 and 4845 rows of 10 int16 entries
    nbytes = {n: sum(arr.nbytes for arrays in plan_cache(n, 4, False) for arr in arrays)
              for n in (12, 20)}
    assert nbytes == {12: 9900, 20: 96900}
    monkeypatch.setattr(fields, "PLAN_CACHE_BYTES", nbytes[20] - 1)
    plan_cache.cache_clear()
    for n in (12, 20, 12, 20):
        assert sweep(n) == bits[n]
        assert plan_cache.cache_info().nbytes <= fields.PLAN_CACHE_BYTES
    # the (20, 4) plan is empty, and the (12, 4) one stays beside it
    assert plan_cache(20, 4, False) == ()
    info = plan_cache.cache_info()
    assert (info.misses, info.plans, info.nbytes) == (2, 2, nbytes[12])


def test_row_plans_are_read_only_in_the_smallest_dtype_that_holds_every_key(plan_cache):
    for k, r, multisets, dtype in [(4, 4, True, np.int8), (20, 4, False, np.int16),
                                   (182, 2, False, np.int32)]:
        plan = plan_cache(k, r, multisets)
        for idx, keys in plan:
            assert idx.dtype == keys.dtype == dtype
            assert not idx.flags.writeable and not keys.flags.writeable
        with pytest.raises(ValueError):
            plan[0][0][0, 0] = 1


def test_a_solve_unranks_its_rows_once(plan_cache):
    # the sparse degrees too: no (r - 1)-subset sweep seeds them from a
    # second plan
    for degrees in [(20, 22, 25, 27, 30, 31, 33, 35, 36, 38, 41, 43), tuple(range(3, 15))]:
        plan_cache.cache_clear()
        report = solve(DegreeSequence(12, 3, degrees))
        info = plan_cache.cache_info()
        assert report.field.classes.k == 12 and report.iterations >= 2
        assert info.misses == 1 and info.hits >= report.iterations, degrees


def test_the_frames_a_process_cycles_through_stay_resident(monkeypatch, plan_cache):
    # a (20, 4) solve, its audit's edge-complement frame, a (30, 4) solve,
    # then the first frame again
    frames = [(20, 4), (20, 16), (30, 4), (20, 4)]
    beta = {n: np.random.default_rng(n).normal(scale=0.3, size=n) - 0.2 for n in (20, 30)}

    def sweep(n, r):
        return field_bits(field_summary(beta[n], n, r))

    bits = {frame: sweep(*frame) for frame in frames}
    info = plan_cache.cache_info()
    assert (info.misses, info.hits, info.plans) == (3, 1, 3)
    nbytes = {(n, r): sum(arr.nbytes for arrays in plan_cache(n, r, False) for arr in arrays)
              for n, r in bits}
    # room for (20, 4) beside either other plan but not for all three: after
    # (20, 4), (20, 16) and (20, 4) again, the (30, 4) plan evicts the least
    # recently used (20, 16), not the older (20, 4)
    monkeypatch.setattr(fields, "PLAN_CACHE_BYTES", nbytes[20, 4] + nbytes[20, 16])
    plan_cache.cache_clear()
    for frame in [(20, 4), (20, 16), (20, 4), (30, 4), (20, 4)]:
        assert sweep(*frame) == bits[frame]
    info = plan_cache.cache_info()
    assert (info.misses, info.plans, info.nbytes) == (3, 2, nbytes[20, 4] + nbytes[30, 4])
    assert sweep(20, 16) == bits[20, 16]
    assert plan_cache.cache_info().misses == 4
    # below the two smallest plans only the newest stays, (20, 16) is
    # streamed, and every frame is rebuilt with the same bits
    monkeypatch.setattr(fields, "PLAN_CACHE_BYTES", nbytes[20, 4] + nbytes[30, 4] - 1)
    plan_cache.cache_clear()
    for frame in frames:
        assert sweep(*frame) == bits[frame]
    info = plan_cache.cache_info()
    assert (info.misses, info.hits, info.plans) == (4, 0, 1)
