import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from hyperdeg.core import DegreeSequence
from hyperdeg import models
from hyperdeg.errors import BudgetExceeded, InvalidInstance, NonIntegral
from hyperdeg.models import (
    HypergeomSpec,
    conditioned_sum_log_prob,
    hypergeom_pmf,
    measured_ratio,
    predicted_ratio,
    prob_model,
    sample_degree_batch,
)
from hyperdeg.oracle import exact_count
from hyperdeg.subsets import CHUNK, colex_unrank, incidence
from lemmas import compositions, stirling_log_binom

TINY = DegreeSequence(4, 3, (2, 2, 1, 1))
REG6 = DegreeSequence(6, 3, (5,) * 6)


def log_pmf_vector(spec):
    """The log-pmf at every degree 0..marked, the references' operand."""
    return models._log_pmf(spec, np.arange(spec.marked + 1))


def test_pmf_examples():
    spec = HypergeomSpec(4, 3, 2)
    assert hypergeom_pmf(spec, 1) == pytest.approx(0.5, abs=1e-14)
    assert hypergeom_pmf(spec, 0) == 0.0
    assert hypergeom_pmf(spec, 3) == 0.0
    # outside [0, marked] the pmf is 0, not an entry read from the other end
    wide = HypergeomSpec(6, 3, 10)
    assert hypergeom_pmf(wide, -1) == 0.0
    assert hypergeom_pmf(wide, 11) == 0.0
    assert hypergeom_pmf(wide, 10) > 0.0


@pytest.mark.parametrize("n,r,m", [(5, 3, 11), (5, 6, 1), (5, 0, 0), (5, 3, -1)])
def test_spec_outside_its_range_is_refused(n, r, m):
    # (5, 3, 11) drew 11 edges of C(5, 3) = 10: an empty support and a
    # variance of -0.293; (5, 6, 1) has no 6-subsets of 5 vertices
    with pytest.raises(InvalidInstance, match="0 <= m <= C"):
        HypergeomSpec(n, r, m)
    assert HypergeomSpec(5, 3, 10).support() == range(6, 7)


def test_spec_takes_integers_only():
    # a float m reached numpy's untyped TypeError in the normalizer, a bool n
    # was read as 1, and an np.int64 m wrapped the mean in int64 products
    for args in [(6, 3, 10.0), (True, 1, 0), (6, True, 10), (6, 3, False),
                 (6.0, 3, 10), (6, 3, "10"), (6, 3, Fraction(10)), (6, 3, None)]:
        with pytest.raises(NonIntegral, match="is not an integer"):
            HypergeomSpec(*args)
    spec = HypergeomSpec(np.int64(2000), np.int32(4), np.int64(10**11))
    assert [type(x) for x in (spec.n, spec.r, spec.m)] == [int] * 3
    assert spec == HypergeomSpec(2000, 4, 10**11)
    assert spec.mean == 2 * 10**8
    # the parsed ints are the ones validated: the range check still applies
    with pytest.raises(InvalidInstance, match="0 <= m <= C"):
        HypergeomSpec(np.int64(5), np.int64(3), np.int64(11))


def test_pmf_takes_integer_degrees_only():
    spec = HypergeomSpec(6, 3, 10)
    # a non-integer was truncated: 2.5 read P(2), -0.5 P(0) and 10.9 P(10)
    for k in (2.5, -0.5, 10.9, 2.0, np.float64(3.0), "3", None, True, False):
        with pytest.raises(ValueError, match="not an integer"):
            hypergeom_pmf(spec, k)
    for k in range(-1, 12):
        want = math.exp(models._log_pmf(spec, [k])[0])
        for typed in (k, np.int64(k), np.int32(k), np.int8(k)):
            assert hypergeom_pmf(spec, typed) == want
    assert hypergeom_pmf(spec, 5) == pytest.approx(252 * 252 / 184756, rel=1e-13)
    assert hypergeom_pmf(spec, 10**20) == hypergeom_pmf(spec, -(10**20)) == 0.0


def test_pmf_normalizes_and_matches_moments():
    spec = HypergeomSpec(6, 3, 10)
    pmf = np.array([hypergeom_pmf(spec, k) for k in range(spec.marked + 1)])
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    ks = np.arange(spec.marked + 1)
    assert (pmf * ks).sum() == pytest.approx(spec.mean, abs=1e-10)
    var = (pmf * (ks - spec.mean) ** 2).sum()
    assert var == pytest.approx(spec.variance, rel=1e-10)


def test_variance_closed_forms_agree():
    for n, r, m in [(6, 3, 10), (7, 3, 12), (8, 4, 20)]:
        spec = HypergeomSpec(n, r, m)
        d = spec.mean
        lam = d / spec.marked
        q = (1 - lam) * (n - r) * d
        alt = (q / n) / (1.0 - 1.0 / spec.population)
        assert spec.variance == pytest.approx(alt, rel=1e-12)


def test_conditioned_sum_dp_exact_value():
    # Z in {1, 2} each with probability 1/2; four copies summing to 6
    spec = HypergeomSpec(4, 3, 2)
    assert math.exp(conditioned_sum_log_prob(spec, "dp")) == pytest.approx(
        0.375, abs=1e-12
    )


def test_conditioned_sum_clt_center_formula():
    spec = HypergeomSpec(6, 3, 10)
    got = conditioned_sum_log_prob(spec, "clt")
    sigma = math.sqrt(spec.variance)
    assert got == pytest.approx(-math.log(sigma * math.sqrt(2 * math.pi * 6)), abs=1e-12)


def test_dp_and_clt_close_at_desk_scale():
    spec = HypergeomSpec(6, 3, 10)
    dp = conditioned_sum_log_prob(spec, "dp")
    clt = conditioned_sum_log_prob(spec, "clt")
    assert abs(dp - clt) <= 0.2


def test_prob_model_values(monkeypatch):
    b = prob_model(TINY, "B")
    assert b.ln_prob == pytest.approx(math.log(81 / 924), abs=1e-12)

    d_exact = prob_model(TINY, "D-exact")
    assert d_exact.ln_prob == pytest.approx(math.log(1 / 6), abs=1e-12)
    assert d_exact.components["exact"] == Fraction(1, 6)

    t = prob_model(TINY, "T")
    assert t.ln_prob == pytest.approx(math.log(1 / 6), abs=1e-12)
    assert t.components["normalizer_method"] == "dp"

    d_asym = prob_model(REG6, "D-asymptotic")
    assert math.isfinite(d_asym.ln_prob)
    assert d_asym.ln_prob <= 0.0

    # one operation short of the dp charge, T takes the clt normalizer
    spec = HypergeomSpec(TINY.n, TINY.r, TINY.edge_count)
    monkeypatch.setenv("HYPERDEG_BUDGET", str(models._power_ops(spec) - 1))
    t_clt = prob_model(TINY, "T")
    assert t_clt.components["normalizer_method"] == "clt"
    assert abs(t_clt.ln_prob - t.ln_prob) <= 0.2


def test_b_model_sums_to_one():
    for n, r, m in [(4, 3, 2), (5, 3, 3)]:
        cap = math.comb(n - 1, r - 1)
        total = 0.0
        for degrees in compositions(r * m, n, cap):
            total += math.exp(prob_model(DegreeSequence(n, r, degrees), "B").ln_prob)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_t_model_sums_to_one():
    for n, r, m in [(4, 3, 2), (5, 3, 3)]:
        cap = math.comb(n - 1, r - 1)
        total = 0.0
        for degrees in compositions(r * m, n, cap):
            total += math.exp(
                prob_model(DegreeSequence(n, r, degrees), "T").ln_prob
            )
        assert total == pytest.approx(1.0, abs=1e-10)


def test_exact_model_ratio_is_an_algebraic_identity():
    """ln Prob_D - ln Prob_T must equal the directly assembled ratio."""
    for seq in (TINY, DegreeSequence(5, 3, (3, 3, 2, 2, 2)), REG6):
        n, r = seq.n, seq.r
        m = seq.edge_count
        marked = math.comb(n - 1, r - 1)
        population = math.comb(n, r)
        via_models = (
            prob_model(seq, "D-exact").ln_prob
            - prob_model(seq, "T").ln_prob
        )
        spec = HypergeomSpec(n, r, m)
        ln_p = conditioned_sum_log_prob(spec, "dp")
        direct = (
            math.log(exact_count(seq))
            + (n - 1) * math.log(math.comb(population, m))
            + ln_p
        )
        for dj in seq.degrees:
            direct -= math.log(math.comb(marked, dj))
            direct -= math.log(math.comb(population - marked, m - dj))
        assert via_models == pytest.approx(direct, abs=1e-9)


def test_predicted_ratios_regular_values():
    dvst = predicted_ratio(REG6, "d-vs-t")
    assert dvst["predicted_ln_ratio"] == pytest.approx(2.5 * math.log(5 / 6), abs=1e-12)
    bvsd = predicted_ratio(REG6, "b-vs-d")
    assert bvsd["predicted_ln_ratio"] == pytest.approx(2.5 * math.log(5 / 3), abs=1e-12)
    klw = predicted_ratio(REG6, "klw")
    assert klw["predicted_ln_ratio"] == pytest.approx(1.0, abs=1e-12)
    klw4 = predicted_ratio(DegreeSequence(8, 4, (10,) * 8), "klw")
    assert klw4["predicted_ln_ratio"] == pytest.approx(1.5, abs=1e-12)


def test_unknown_ratio_pair_raises_in_both_ratio_functions():
    seq = DegreeSequence(6, 3, (5, 5, 5, 5, 5, 5))
    with pytest.raises(ValueError, match="unknown ratio pair 'typo'"):
        predicted_ratio(seq, "typo")
    with pytest.raises(ValueError, match="unknown ratio pair 'typo'"):
        measured_ratio(seq, "typo")


def test_measured_ratio_gap_shrinks_with_n():
    """Gap between measured and predicted D/T log-ratio, exact H and dp
    normalizer, on regular instances near half density: half density at
    n = 5 and 6, density 2/5 at n = 7, where half density does not exist.
    Half density is also regular at n = 9 and 10 and near-regular at n = 8;
    the ladder n = 6, 8, 10 is checked by acceptance criterion 10.  Frozen
    from measured runs."""
    gaps = []
    for n, d in [(5, 3), (6, 5), (7, 6)]:
        seq = DegreeSequence(n, 3, (d,) * n)
        measured = measured_ratio(seq, "d-vs-t", d_model="D-exact")
        predicted = predicted_ratio(seq, "d-vs-t")["predicted_ln_ratio"]
        gaps.append(abs(measured - predicted))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps == pytest.approx([0.414765, 0.266572, 0.219191], abs=1e-5)


def test_stirling_binom_accuracy():
    def exact(k_, x_):
        return float(
            gammaln(k_ + 1) - gammaln(x_ + 1) - gammaln(k_ - x_ + 1)
        )

    for big_k, lam, x in [(10**4, 0.5, 0.0), (10**4, 0.5, 50.0), (10**6, 0.3, 500.0)]:
        got = stirling_log_binom(big_k, lam, x)
        want = exact(big_k, lam * big_k + x)
        assert abs(got - want) <= 1e-6 * abs(want)


def test_sampler_edge_cases_and_determinism():
    assert sample_degree_batch(6, 3, 0, 1, 1)[0].tolist() == [0] * 6
    assert sample_degree_batch(6, 3, 20, 1, 1)[0].tolist() == [10] * 6
    assert np.array_equal(sample_degree_batch(6, 3, 10, 42, 1)[0],
                          sample_degree_batch(6, 3, 10, 42, 1)[0])
    batch = sample_degree_batch(6, 3, 10, 7, 64)
    assert (batch.sum(axis=1) == 30).all()
    assert np.array_equal(batch, sample_degree_batch(6, 3, 10, 7, 64))


def test_batch_rows_depend_only_on_seed_and_index():
    long = sample_degree_batch(6, 3, 10, 7, 1100)
    assert np.array_equal(long[:1030], sample_degree_batch(6, 3, 10, 7, 1030))
    assert (long.sum(axis=1) == 30).all()


def test_sampler_regular_rate_matches_exact_model():
    """10^5 samples at the pinned seed: empirical regular-sequence rate
    within 3 standard errors of the exact model probability."""
    batch = sample_degree_batch(6, 3, 10, 42, 100000)
    empirical = float((batch == 5).all(axis=1).mean())
    p = 1044 / math.comb(20, 10)
    se = math.sqrt(p * (1 - p) / 100000)
    assert abs(empirical - p) <= 3 * se


def marginal_within_band(values, spec, support):
    """Whether every bin's share of ``values`` is within 5 standard errors
    of the pmf.

    A normal band needs an expected count of at least 5, so each bin below
    that is first pooled into its neighbour toward the mode.
    """
    draws = values.size
    counts = np.bincount(values, minlength=support).astype(np.float64)
    probs = np.array([hypergeom_pmf(spec, k) for k in range(support)])
    mode = int(np.argmax(probs))
    tails = (range(mode), range(support - 1, mode, -1))
    for tail, step in zip(tails, (1, -1)):
        for k in tail:
            if probs[k] * draws < 5:
                counts[k + step] += counts[k]
                probs[k + step] += probs[k]
                counts[k] = probs[k] = 0.0
    kept = probs > 0
    emp, p = counts[kept] / draws, probs[kept]
    return bool(np.all(np.abs(emp - p) <= 5 * np.sqrt(p * (1 - p) / draws)))


def test_sampler_marginal_matches_pmf():
    spec = HypergeomSpec(6, 3, 10)
    batch = sample_degree_batch(6, 3, 10, 11, 20000)
    assert marginal_within_band(batch[:, 0], spec, 11)
    # negative control: a marginal shifted by one degree fails the band
    assert not marginal_within_band(np.minimum(batch[:, 0] + 1, 10), spec, 11)


def subsets_within_band(subsets, population):
    """Whether every size-subset of range(population) has a share of the
    sorted rows ``subsets`` within 5 standard errors of uniform."""
    draws, size = subsets.shape
    index = {c: i for i, c in enumerate(itertools.combinations(range(population), size))}
    counts = np.bincount([index[tuple(row)] for row in subsets.tolist()], minlength=len(index))
    p = 1.0 / len(index)
    return bool(np.all(np.abs(counts / draws - p) <= 5 * math.sqrt(p * (1 - p) / draws)))


def recorded_subsets(monkeypatch, n, r, m, seed, count):
    """The sampled rows, and the ranks each block unranked, one row per sample."""
    blocks = []

    def recording(ranks, n_, r_):
        blocks.append(np.array(ranks))
        return colex_unrank(ranks, n_, r_)

    monkeypatch.setattr(models, "colex_unrank", recording)
    batch = sample_degree_batch(n, r, m, seed, count)
    drawn = min(m, math.comb(n, r) - m)
    return batch, np.concatenate(blocks).reshape(-1, drawn)[:count]


@pytest.mark.parametrize("m", [3, 7])
def test_sampler_draws_uniform_subsets(monkeypatch, m):
    # C(5, 2) = 10 edges; m = 7 draws the 3 left out and tallies the rest
    count = 20 * models.SAMPLE_BATCH
    batch, ranks = recorded_subsets(monkeypatch, 5, 2, m, 17, count)
    assert (np.diff(ranks, axis=1) > 0).all()
    assert subsets_within_band(ranks, 10)
    held = np.zeros((count, 10), dtype=bool)
    np.put_along_axis(held, ranks, True, axis=1)
    # the degrees are those of the drawn edges, or of the edges not left out
    assert np.array_equal(batch, (held if m == 3 else ~held) @ incidence(5, 2))
    # negative control: a repeat redrawn as the next value not held
    rng = np.random.default_rng(5)
    biased = []
    for row in rng.integers(0, 10, size=(count, 3)).tolist():
        held_set = set()
        for v in row:
            while v in held_set:
                v = (v + 1) % 10
            held_set.add(v)
        biased.append(sorted(held_set))
    assert not subsets_within_band(np.array(biased), 10)


@pytest.mark.parametrize("m", [14, 19])
def test_sampler_marginal_matches_pmf_on_dense_specs(m):
    # m' = C(6, 3) - m left-out edges: 6 at m = 14 and 1 at m = C(n, r) - 1
    spec = HypergeomSpec(6, 3, m)
    batch = sample_degree_batch(6, 3, m, 23, 20000)
    assert (batch.sum(axis=1) == 3 * m).all()
    assert marginal_within_band(batch[:, 0], spec, 11)
    assert not marginal_within_band(np.maximum(batch[:, 0] - 1, 0), spec, 11)


@pytest.mark.parametrize("n,r,m,block", [(12, 4, 100, 40), (6, 3, 14, 682)])
def test_rows_do_not_depend_on_count_at_block_edges(n, r, m, block):
    # a block holds max(1, CHUNK // m') samples from the start of its stream;
    # at (6, 3, 14) the third block starts the second stream, at 1024
    assert block == max(1, CHUNK // min(m, math.comb(n, r) - m))
    assert np.array_equal(sample_degree_batch(n, r, m, 3, 1)[0],
                          sample_degree_batch(n, r, m, 3, 500)[0])
    long = sample_degree_batch(n, r, m, 3, 3 * block)
    for count in (block - 1, block, block + 1, 2 * block + 3):
        assert np.array_equal(sample_degree_batch(n, r, m, 3, count), long[:count]), count


class RecordingGenerator:
    """A numpy ``Generator`` that logs its ``integers`` and ``choice`` calls."""

    def __init__(self, rng, log):
        self.rng, self.log = rng, log

    def integers(self, *args, **kwargs):
        self.log.append("integers")
        return self.rng.integers(*args, **kwargs)

    def choice(self, *args, **kwargs):
        self.log.append("choice")
        return self.rng.choice(*args, **kwargs)


def test_sampler_draws_each_block_in_a_few_integers_calls(monkeypatch):
    log = []

    def unrank(ranks, n, r):
        log.append("unrank")
        return colex_unrank(ranks, n, r)

    monkeypatch.setattr(models, "colex_unrank", unrank)
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: RecordingGenerator(default_rng(seed), log))
    batch = sample_degree_batch(12, 4, 100, 3, 500)
    monkeypatch.undo()
    assert np.array_equal(batch, sample_degree_batch(12, 4, 100, 3, 500))
    assert "choice" not in log
    # 13 blocks of 40 samples; a block of 40 x 100 ranks of 495 holds about
    # 40 C(100, 2) / 495 = 400 repeats, and a redraw repeats again about
    # one time in five, so a block ends in about five rounds
    per_block = " ".join(log).split(" unrank")
    assert len(per_block) == 13 + 1 and per_block[-1] == ""
    rounds = [part.split().count("integers") for part in per_block[:-1]]
    assert all(1 <= k <= 10 for k in rounds), rounds


def test_tail_bound_holds_everywhere():
    # exact two-sided tails Prob(|k - d| >= t), from the public pmf, against
    # 2 exp(-t^2 / (2(d + t/3)))
    spec = HypergeomSpec(6, 3, 10)
    d = spec.mean
    pmf = {k: hypergeom_pmf(spec, k) for k in range(spec.marked + 1)}
    assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)
    for t in range(1, 16):
        tail = sum(p for k, p in pmf.items() if abs(k - d) >= t)
        assert tail <= 2.0 * math.exp(-t * t / (2.0 * (d + t / 3.0))), t


def log_convolve(a, b):
    """Reference log-domain convolution of two log-pmf vectors, every entry.

    One in-place ``logaddexp`` of a shifted copy of the longer operand per
    finite entry of the shorter, in ascending order; ``-inf`` entries add
    nothing and are skipped.
    """
    if a.size < b.size:
        a, b = b, a
    out = np.full(a.size + b.size - 1, -math.inf)
    for j in np.flatnonzero(b > -math.inf):
        seg = out[j:j + a.size]
        np.logaddexp(seg, a + b[j], out=seg)
    return out


def log_sum_pmf(pmf, copies, convolve=log_convolve):
    """Reference log-pmf of the sum of ``copies`` iid draws, every entry, by
    repeated full convolution."""
    acc = pmf.copy()
    for _ in range(copies - 1):
        acc = convolve(acc, pmf)
    return acc


def full_convolution_entry(spec, convolve=log_convolve):
    """Entry r m of the full n-fold convolution."""
    return float(log_sum_pmf(log_pmf_vector(spec), spec.n, convolve)[spec.r * spec.m])


def conditioning_factor(spec, ys, convolve=log_convolve, ln_p=None):
    """C(y) = Prob(n - 1 iid degrees sum to r m - y) / Prob(n sum to r m),
    the partial sums by ``convolve`` and the normalizer from the library."""
    partial = log_sum_pmf(log_pmf_vector(spec), spec.n - 1, convolve)
    target = spec.r * spec.m
    if ln_p is None:
        ln_p = conditioned_sum_log_prob(spec)
    return np.array([math.exp(partial[target - y] - ln_p) if 0 <= target - y < partial.size
                     else 0.0 for y in ys])


def test_conditioning_factor_close_to_gaussian():
    spec = HypergeomSpec(6, 3, 10)
    sigma = math.sqrt(spec.variance)
    ys = np.arange(int(5 - 3 * sigma), int(5 + 3 * sigma) + 1)
    gaussian = np.exp(-((ys - spec.mean) ** 2) / (2.0 * (spec.n - 1) * spec.variance))
    assert np.abs(conditioning_factor(spec, ys) - gaussian).max() <= 0.25


def per_shift_log_convolve(a, b):
    """Reference log-domain convolution: one logsumexp per output shift."""
    out = np.full(a.size + b.size - 1, -math.inf)
    for shift in range(out.size):
        lo = max(0, shift - b.size + 1)
        hi = min(a.size - 1, shift)
        idx = np.arange(lo, hi + 1)
        terms = a[idx] + b[shift - idx]
        finite = terms > -math.inf
        if finite.any():
            out[shift] = float(logsumexp(terms[finite]))
    return out


def assert_log_close(got, want, rel):
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    finite = np.isfinite(want)
    assert np.isfinite(got[finite]).all()
    gap = np.abs(got[finite] - want[finite])
    assert (gap <= rel * np.maximum(1.0, np.abs(want[finite]))).all()


def random_log_vector(rng, size, holes):
    v = rng.normal(0.0, 30.0, size)
    v[rng.random(size) < holes] = -math.inf
    return v


@pytest.mark.parametrize(
    "sizes",
    [(1, 1), (1, 9), (9, 1), (7, 40), (40, 7), (33, 33)],
)
@pytest.mark.parametrize("holes", [0.0, 0.3, 0.8])
def test_log_convolve_matches_per_shift_reference(sizes, holes):
    rng = np.random.default_rng(sizes[0] * 1000 + sizes[1] + int(holes * 10))
    a = random_log_vector(rng, sizes[0], holes)
    b = random_log_vector(rng, sizes[1], holes)
    want = per_shift_log_convolve(a, b)
    assert_log_close(log_convolve(a, b), want, 1e-13)
    assert_log_close(log_convolve(b, a), want, 1e-13)


def test_log_convolve_with_an_all_zero_operand():
    rng = np.random.default_rng(5)
    a = random_log_vector(rng, 12, 0.2)
    empty = np.full(4, -math.inf)
    for x, y in ((a, empty), (empty, a), (empty, empty)):
        got = log_convolve(x, y)
        assert got.size == x.size + y.size - 1
        assert np.isneginf(got).all()
        assert np.isneginf(per_shift_log_convolve(x, y)).all()


def exact_sum_counts(n, r, m):
    """Coefficients of (sum_k C(marked,k) C(pop-marked,m-k) x^k)^n, exactly."""
    marked = math.comb(n - 1, r - 1)
    rest = math.comb(n, r) - marked
    base = [
        math.comb(marked, k) * math.comb(rest, m - k) if 0 <= m - k <= rest else 0
        for k in range(marked + 1)
    ]
    acc = [1]
    for _ in range(n):
        nxt = [0] * (len(acc) + marked)
        for i, x in enumerate(acc):
            if x:
                for k, y in enumerate(base):
                    nxt[i + k] += x * y
        acc = nxt
    return acc


# m = 1 and m = C(n, r) - 1 at r = 5: a two-point pmf at either end
SPARSE_R5 = [(n, 5, m) for n in range(6, 11) for m in (1, math.comb(n, 5) - 1)]


@pytest.mark.parametrize("n,r,m", [(7, 3, 14), (10, 3, 48), (12, 4, 100)] + SPARSE_R5)
def test_normalizer_matches_exact_integer_convolution(n, r, m):
    spec = HypergeomSpec(n, r, m)
    got = log_sum_pmf(log_pmf_vector(spec), n)
    counts = exact_sum_counts(n, r, m)
    assert got.size == len(counts)
    ln_total = n * math.log(math.comb(spec.population, m))

    def close(value, count):
        want = math.log(count) - ln_total
        return abs(value - want) <= 1e-11 * max(1.0, abs(want))

    for s, count in enumerate(counts):
        if count == 0:
            assert got[s] == -math.inf
        else:
            assert close(got[s], count), s
    assert close(conditioned_sum_log_prob(spec), counts[r * m])


def test_normalizer_and_conditioning_factor_match_per_shift_reference():
    # the normalizer itself, and the conditioning factor formed
    # from it, against one logsumexp per output shift of the full convolution
    for n, r, m in [(4, 3, 2), (5, 3, 3), (6, 3, 10), (7, 3, 6), (7, 3, 12), (8, 4, 20)]:
        spec = HypergeomSpec(n, r, m)
        want = full_convolution_entry(spec, per_shift_log_convolve)
        assert conditioned_sum_log_prob(spec) == pytest.approx(want, rel=1e-13)
        ys = range(0, 2 * spec.marked)
        reference = conditioning_factor(spec, ys, per_shift_log_convolve, want)
        assert conditioning_factor(spec, ys) == pytest.approx(reference, rel=1e-13)


def normalizer_grid():
    """(n, r, m) for n = 2..16, r = 2..4: m = 0, 1, C(n, r) - 1, C(n, r) and
    densities 1/5, 1/3 and 1/2."""
    for n in range(2, 17):
        for r in range(2, min(n, 4) + 1):
            population = math.comb(n, r)
            for m in sorted({0, 1, population // 5, population // 3, population // 2,
                             population - 1, population}):
                yield n, r, m


def test_normalizer_is_within_1e13_of_the_full_convolution_entry():
    # the FFT power rounds differently from the log-domain reference, so
    # the gate is a band, not the bits
    grid = list(normalizer_grid())
    assert len(grid) == 271
    for n, r, m in grid + SPARSE_R5:
        spec = HypergeomSpec(n, r, m)
        got = conditioned_sum_log_prob(spec)
        want = full_convolution_entry(spec)
        if want == -math.inf:
            assert got == -math.inf, (n, r, m)
        else:
            assert abs(got - want) <= 1e-13, (n, r, m)


@pytest.mark.parametrize("n,r,m,want", [
    (40, 3, 3952, -5.31489792680188),
    (20, 4, 1938, -5.029919371622181),
    (60, 3, 13688, -5.949339569668812),
    (30, 4, 10962, -5.936237585394069),
])
def test_normalizer_matches_the_recorded_windowed_dp(n, r, m, want):
    # recorded from the former windowed logaddexp fold, every entry of which
    # had the bits of the full log-domain convolution, run with the budget
    # raised: it took 37 s and 40 s on the last two
    assert abs(conditioned_sum_log_prob(HypergeomSpec(n, r, m)) - want) <= 1e-12


def test_log_gamma_forms_match_the_scipy_reference():
    # both sides round each log-gamma term, so the tolerance is relative to
    # the largest term, log Gamma(C(n, r) + 1), not to the cancelled difference
    def reference(a, b):
        return gammaln(a + 1.0) - gammaln(b + 1.0) - gammaln(a - b + 1.0)

    for n in range(2, 61):
        for r in range(1, min(n, 4) + 1):
            population = math.comb(n, r)
            tol = 1e-13 * max(1.0, float(gammaln(population + 1.0)))
            for m in sorted({0, 1, population // 3, population // 2, population}):
                spec = HypergeomSpec(n, r, m)
                support = np.arange(spec.support().start, spec.support().stop)
                rest = population - spec.marked
                want = (reference(spec.marked, support) + reference(rest, m - support)
                        - reference(population, m))
                assert np.abs(log_pmf_vector(spec)[support] - want).max() <= tol
                for a, b in [(population, m), (spec.marked, 1), (spec.marked, spec.marked // 2)]:
                    assert abs(models.log_comb(a, b) - reference(a, b)) <= tol


@pytest.mark.parametrize("a", [0, 7, 10**6, 2**70])
def test_log_comb_takes_an_integer_or_an_array(a):
    # one log-binomial: an array entry has the bits of the scalar call, and
    # anything off [0, a] is -inf, a b beyond int64 included
    bs = [-(2**70), -1, 0, 1, a // 2, a, a + 1, 2**70 + 1]
    scalars = [models.log_comb(a, b) for b in bs]
    assert all(type(x) is float for x in scalars)
    assert [x == models.LOG_ZERO for x in scalars] == [b < 0 or b > a for b in bs]
    assert models.log_comb(a, bs).tobytes() == np.array(scalars).tobytes()
    assert scalars[2] == scalars[5] == 0.0


@pytest.mark.parametrize("n,r,m", [(12, 4, 100), (60, 4, 10**5), (20, 3, 0), (20, 3, 1140)])
def test_log_pmf_vector_has_the_bits_of_a_per_entry_lgamma_sum(n, r, m):
    # the vector is formed from whole arrays of lgamma values; every entry
    # must keep the bits of its own three math.lgamma calls per log-binomial
    spec = HypergeomSpec(n, r, m)
    rest = spec.population - spec.marked
    support = spec.support()
    want = [
        models.log_comb(spec.marked, k) + models.log_comb(rest, m - k)
        - models.log_comb(spec.population, m)
        if k in support else models.LOG_ZERO
        for k in range(spec.marked + 1)
    ]
    assert log_pmf_vector(spec).tobytes() == np.array(want).tobytes()
    degrees = [0, 1, spec.marked // 2, spec.marked]
    assert models._log_pmf(spec, degrees).tobytes() == np.array(want)[degrees].tobytes()


class RecordingNumpy:
    """numpy as ``models`` sees it, with every ``fft.rfft`` and ``fft.irfft``
    call appended to ``log`` as (name, length)."""

    def __init__(self, log):
        self.fft = RecordingFFT(log)

    def __getattr__(self, name):
        return getattr(np, name)


class RecordingFFT:
    def __init__(self, log):
        self.log = log

    def rfft(self, a, n):
        self.log.append(("rfft", n))
        return np.fft.rfft(a, n)

    def irfft(self, a, n):
        self.log.append(("irfft", n))
        return np.fft.irfft(a, n)


def _recorded_calls(monkeypatch, call):
    """The dp guard's calls, as ("guard", count), and the transforms, in order."""
    log = []
    guard = models.check_dp_budget

    def recording_guard(count):
        log.append(("guard", count))
        return guard(count)

    monkeypatch.setattr(models, "check_dp_budget", recording_guard)
    monkeypatch.setattr(models, "np", RecordingNumpy(log))
    try:
        call()
    finally:
        monkeypatch.setattr(models, "np", np)
    return log


def test_normalizer_guard_counts_the_convolution_work(monkeypatch):
    # (6, 3, 8): a 9-entry support, a 49-entry 6-fold support held by L = 64,
    # so a charge of 2 bit_length(6) L log2 L = 2 * 3 * 64 * 6
    spec = HypergeomSpec(6, 3, 8)
    log = _recorded_calls(monkeypatch, lambda: conditioned_sum_log_prob(spec))
    assert len(spec.support()) == 9
    # 6 = 110b: squares at 2 and 4 copies, one product 2 * 4; each square
    # is one rfft and one irfft, the product two rffts and one irfft
    assert log == [("guard", 2304), ("rfft", 32), ("irfft", 32), ("rfft", 64),
                   ("irfft", 64), ("rfft", 64), ("rfft", 64), ("irfft", 64)]
    for n, r, m in [(4, 3, 2), (7, 3, 12), (10, 3, 36), (14, 3, 138), (16, 4, 364),
                    (12, 5, 1), (9, 5, 125)]:
        spec = HypergeomSpec(n, r, m)
        (name, charge), *transforms = _recorded_calls(
            monkeypatch, lambda: conditioned_sum_log_prob(spec))
        # the guard first, once, with n and the support width alone
        assert name == "guard" and charge == models._power_ops(spec), (n, r, m)
        size = n * (len(spec.support()) - 1) + 1
        length = 1 << (size - 1).bit_length()
        products = [k for name, k in transforms if name == "irfft"]
        assert len(products) <= 2 * n.bit_length()
        assert all(k <= length and k & (k - 1) == 0 for _, k in transforms)
        assert charge == 2 * n.bit_length() * length * int(math.log2(length))
        assert charge >= sum(k * math.log2(k) for k in products), (n, r, m)
    # 14 * 78 + 1 = 1093 sums at (14, 3, 138), held by L = 2048
    assert models._power_ops(HypergeomSpec(14, 3, 138)) == 2 * 4 * 2048 * 11 == 180_224


def test_normalizer_guard_admits_n60_and_refuses_n200(monkeypatch):
    monkeypatch.delenv("HYPERDEG_BUDGET", raising=False)
    # 1712 support degrees at n = 60: 60 * 1711 + 1 sums, held by L = 2^17
    spec = HypergeomSpec(60, 3, 13_690)
    log = _recorded_calls(monkeypatch, lambda: conditioned_sum_log_prob(spec))
    assert log[0] == ("guard", 2 * 6 * 17 << 17) == ("guard", 26_738_688)
    assert len(log) > 1

    big = HypergeomSpec(200, 3, 525_360)

    def refused():
        with pytest.raises(BudgetExceeded):
            conditioned_sum_log_prob(big)

    # refused by the guard, before any transform: L = 2^22
    assert _recorded_calls(monkeypatch, refused) == [("guard", 2 * 8 * 22 << 22)]
    assert 2 * 8 * 22 << 22 == 1_476_395_008
