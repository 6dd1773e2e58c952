"""Degree-sequence probability models and their predicted log-ratios.

Three laws on degree vectors are compared:

* the degree sequence of a uniformly random hypergraph with m edges
  (exact probability = exact count / C(C(n, r), m));
* independent binomials Bin(C(n-1, r-1), p) conditioned on sum n*d,
  which is p-free and has the closed product-of-binomials form;
* independent per-vertex hypergeometrics conditioned on sum n*d, whose
  normalizer has no closed form: the dp budget alone picks it, exact
  convolution within the budget and a central-limit approximation beyond.
  The exact one is the n-th convolution power of the pmf, by binary
  powering with real FFTs, and the budget is charged a bound on that work.

``log_comb`` is the one log-binomial, at a scalar or at an array.  The
hypergeometric log-pmf has one form, ``_log_pmf``, evaluated at the
degrees a caller needs; ``sample_degree_batch`` is the one sampler, which
draws the ranks of a block of samples in one vectorised pass.

Everything is carried in natural-log domain: the binomial normalizers
overflow binary64 immediately at desk scale.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import counts, oracle
from .budgets import check_dp_budget, check_subset_budget
from .core import DegreeSequence
from .errors import BudgetExceeded, DensityDegenerate, InvalidInstance, NonIntegral
from .subsets import CHUNK, colex_unrank

LOG_ZERO = -math.inf
# samples per spawned random stream in sample_degree_batch
SAMPLE_BATCH = 1024
# the degree-spread exponent phi of the klw error indicator
KLW_PHI = 0.47


def log_comb(a: int, b):
    """log C(a, b) via log-gamma at an integer b or at each entry of an integer
    array b, with the same bits either way; -inf outside [0, a].  Exact
    integer arithmetic beyond int64, where a needs it."""
    # numpy's own dtype keeps a b beyond int64 as Python ints
    b = np.asarray(b, dtype=None if a < 2**63 else object)
    on = (b >= 0) & (b <= a)
    out = np.full(b.shape, LOG_ZERO)
    out[on] = math.lgamma(a + 1.0) - _lgamma_each(b[on] + 1.0) - _lgamma_each(a - b[on] + 1.0)
    return out if out.ndim else float(out)


def _lgamma_each(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.lgamma, x.tolist()), np.float64, x.size)


@dataclass(frozen=True)
class HypergeomSpec:
    """Per-vertex degree law of a uniform random m-edge hypergraph.

    Sampling m edges out of C(n, r), of which C(n-1, r-1) contain a fixed
    vertex; the vertex degree counts the marked edges drawn.  Needs
    integers (not bools) n, r and m, else ``NonIntegral``, kept as Python
    ints, and 1 <= r <= n and 0 <= m <= C(n, r), else ``InvalidInstance``.
    """

    n: int
    r: int
    m: int

    def __post_init__(self):
        for name in ("n", "r", "m"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise NonIntegral(f"{name} {value!r} is not an integer")
            # numpy integers would wrap in int64 products: keep Python ints
            object.__setattr__(self, name, int(value))
        if not (1 <= self.r <= self.n and 0 <= self.m <= self.population):
            raise InvalidInstance(
                f"need 1 <= r <= n and 0 <= m <= C(n, r), got n={self.n}, "
                f"r={self.r}, m={self.m}"
            )

    @property
    def population(self) -> int:
        return math.comb(self.n, self.r)

    @property
    def marked(self) -> int:
        return math.comb(self.n - 1, self.r - 1)

    @property
    def mean(self) -> float:
        return self.m * self.marked / self.population

    @property
    def variance(self) -> float:
        """(1-lam)(n-r)d^2 / (nd - lam r); equals the classical form."""
        n, r = self.n, self.r
        d = self.mean
        lam = d / self.marked
        if self.m == 0 or self.m == self.population:
            return 0.0
        return (1.0 - lam) * (n - r) * d * d / (n * d - lam * r)

    def support(self) -> range:
        lo = max(0, self.m - (self.population - self.marked))
        hi = min(self.marked, self.m)
        return range(lo, hi + 1)


def hypergeom_pmf(spec: HypergeomSpec, k: int) -> float:
    """Prob(degree = k); 0.0 off the support, so outside [0, marked].

    k must be an integer, Python or numpy; anything else, a bool or a
    float such as 2.5 included, raises ``ValueError`` rather than being
    truncated.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValueError(f"degree {k!r} is not an integer")
    k = int(k)
    # off the support before any int64 conversion, which a huge k overflows
    return math.exp(_log_pmf(spec, [k])[0]) if k in spec.support() else 0.0


def _log_pmf(spec: HypergeomSpec, ks) -> np.ndarray:
    """The hypergeometric log-pmf at each degree in ``ks``; -inf off the support.

    The only form of the pmf: log C(marked, k) + log C(rest, m - k)
    - log C(population, m), each term a ``log_comb``, so an entry has the
    same bits wherever it is evaluated.  Exact integer arithmetic beyond
    int64, where C(n, r) needs it.
    """
    ks = np.asarray(ks, dtype=np.int64 if spec.population < 2**63 else object)
    rest = spec.population - spec.marked
    return (log_comb(spec.marked, ks) + log_comb(rest, spec.m - ks)
            - log_comb(spec.population, spec.m))


def _power_ops(spec: HypergeomSpec) -> int:
    """The dp budget charge of the convolution power, from n and the support
    width alone: at most 2 bit_length(n) products, each L log2 L, where L is
    the power of two that holds the n-fold support."""
    size = spec.n * (len(spec.support()) - 1) + 1
    log_length = (size - 1).bit_length()
    return (2 * spec.n.bit_length() * log_length) << log_length


def _scaled_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """The convolution a * b by one real FFT pair at the power-of-two length
    that holds it, scaled to a largest entry of 1, and the log of the scale."""
    size = a.size + b.size - 1
    length = 1 << (size - 1).bit_length()
    fa = np.fft.rfft(a, length)
    fa *= fa if b is a else np.fft.rfft(b, length)
    out = np.fft.irfft(fa, length)[:size]
    top = out.max()
    out /= top
    return out, math.log(top)


def conditioned_sum_log_prob(spec: HypergeomSpec, method: str = "dp") -> float:
    """log Prob(n iid per-vertex degrees sum to r m), with the n, r, m of ``spec``.

    ``dp`` is exact: the pmf on its support, scaled to a largest entry of
    1 with the scale kept in log domain, is raised to the n-th convolution
    power by the bits of n.  Each product is a ``_scaled_product``, its
    scale added in log domain; the power of k copies starts at k times the
    least support degree.  r m is the mean of the sum, so the entry read
    is within a constant factor of the largest, and no underflow in the
    far tails reaches it.  The dp budget is charged ``_power_ops`` once,
    before any transform.  ``clt`` uses
    the local-limit approximation ``(sigma sqrt(2 pi n))^{-1}
    exp(-y^2 / (2 n sigma^2))`` with y the offset from the mean sum.
    """
    n, target = spec.n, spec.r * spec.m
    if method == "clt":
        sigma2 = spec.variance
        if sigma2 <= 0:
            raise DensityDegenerate("degenerate hypergeometric variance")
        y = target - n * spec.mean
        return (
            -0.5 * math.log(2.0 * math.pi * n * sigma2)
            - y * y / (2.0 * n * sigma2)
        )
    if method != "dp":
        raise ValueError(f"unknown normalizer method {method!r}")
    check_dp_budget(_power_ops(spec))
    support = spec.support()
    log_pmf = _log_pmf(spec, support)
    power_log = float(log_pmf.max())
    power = np.exp(log_pmf - power_log)
    # power holds 2^i copies at bit i of n; acc gathers those of the set bits
    acc, acc_log, bits = None, 0.0, n
    while True:
        if bits & 1 and acc is None:
            acc, acc_log = power, power_log
        elif bits & 1:
            acc, scale = _scaled_product(acc, power)
            acc_log += power_log + scale
        bits >>= 1
        if not bits:
            break
        power, scale = _scaled_product(power, power)
        power_log = 2.0 * power_log + scale
    return acc_log + math.log(acc[target - n * support.start])


@dataclass
class ModelPoint:
    model: str  # "D-exact" | "D-asymptotic" | "B" | "T"
    ln_prob: float
    components: dict = field(default_factory=dict)


def prob_model(seq: DegreeSequence, model: str) -> ModelPoint:
    """Log-probability of one degree vector under one model (D-asymptotic: near-regular).

    T's normalizer is the exact convolution power (dp) within the dp budget
    and the local limit (clt) beyond it; ``components["normalizer_method"]``
    names it.
    """
    n, r = seq.n, seq.r
    m = seq.edge_count
    marked = math.comb(n - 1, r - 1)
    population = math.comb(n, r)
    nd = r * m

    if model == "B":
        # the per-degree terms summed left to right
        ln = sum(log_comb(marked, seq.degrees).tolist()) - log_comb(n * marked, nd)
        return ModelPoint(model="B", ln_prob=ln, components={})

    if model == "T":
        spec = HypergeomSpec(n, r, m)
        try:
            method, ln_p = "dp", conditioned_sum_log_prob(spec, "dp")
        except BudgetExceeded:
            method, ln_p = "clt", conditioned_sum_log_prob(spec, "clt")
        ln = float(_log_pmf(spec, seq.degrees).sum()) - ln_p
        return ModelPoint(
            model="T", ln_prob=ln,
            components={"ln_normalizer": ln_p, "normalizer_method": method},
        )

    if model == "D-exact":
        count = oracle.exact_count(seq)
        total = math.comb(population, m)
        ln = (math.log(count) if count else LOG_ZERO) - math.log(total)
        return ModelPoint(
            model="D-exact", ln_prob=ln,
            components={
                "count": count,
                "total": total,
                "exact": Fraction(count, total),
            },
        )

    if model == "D-asymptotic":
        est = counts.estimate_near_regular(seq)
        ln = est.ln_value - log_comb(population, m)
        return ModelPoint(
            model="D-asymptotic", ln_prob=ln,
            components={"estimate_method": est.method, "ln_count": est.ln_value},
        )

    raise ValueError(f"unknown model {model!r}")


# each ratio pair and the model its D probability is compared with
RATIO_PAIRS = {"b-vs-d": "B", "d-vs-t": "T", "klw": "B"}


def predicted_ratio(seq: DegreeSequence, pair: str) -> dict:
    """Predicted ln(Prob_D / Prob_other) without the error term.

    Returns the prediction together with its error indicator (implicit
    constant 1; an indicator, not a bound).
    """
    params = seq.params
    n, r = params.n, params.r
    lam, d, q = params.lam, params.d, params.q
    if not (0.0 < lam < 1.0):
        raise DensityDegenerate("ratio formulas need density strictly inside (0,1)")
    r2 = params.r2
    eps = sum(counts.error_indicators(params).values())
    if pair == "b-vs-d":
        value = (n - 1) / 2.0 * math.log((n - 1) / (n - r)) - (r - 1) * r2 / (
            2.0 * (1.0 - lam) * (n - r) * d
        )
        indicator = eps + counts._corollary_extra(params)
        extras = {}
    elif pair == "d-vs-t":
        value = (n - 1) / 2.0 * math.log((n - 1) / n) + r2 / (2.0 * q)
        indicator = eps + counts._near_regular_extra(params)
        extras = {}
    elif pair == "klw":
        value = (r - 1) / 2.0 - (r - 1) * r2 / (2.0 * (1.0 - lam) * (n - r) * d)
        log_n = math.log(n)
        if r == 3:
            indicator = (
                log_n**2 / math.sqrt(n)
                + d ** (2.0 - 4.0 * KLW_PHI) / n
                + d ** (1.0 - 3.0 * KLW_PHI)
            )
        else:
            indicator = (
                r**2 * log_n**2 / math.sqrt(n)
                + (lam * n + r) * r**2 * d ** (1.0 - 3.0 * KLW_PHI)
            )
        extras = {
            "phi": KLW_PHI,
            "hypothesis_r_small": r**3 * d ** (1.0 - 3.0 * KLW_PHI) < 1.0,
            "hypothesis_degree_spread": params.delta_max <= d ** (1.0 - KLW_PHI),
        }
    else:
        raise ValueError(f"unknown ratio pair {pair!r}")
    return {"pair": pair, "predicted_ln_ratio": value, "error_indicator": indicator, **extras}


def measured_ratio(
    seq: DegreeSequence,
    pair: str,
    d_model: str = "D-exact",
) -> float:
    """Measured ln(Prob_D / Prob_other) from the model probabilities."""
    if pair not in RATIO_PAIRS:
        raise ValueError(f"unknown ratio pair {pair!r}")
    other = RATIO_PAIRS[pair]
    pd = prob_model(seq, d_model)
    po = prob_model(seq, other)
    return pd.ln_prob - po.ln_prob


def sample_degree_batch(
    n: int, r: int, m: int, rng_seed, count: int
) -> np.ndarray:
    """Degrees of ``count`` uniform random simple m-edge hypergraphs, one per row.

    A sample is a uniform m'-subset of the colex ranks of the r-subsets,
    m' = min(m, C(n, r) - m): the m edges, or the C(n, r) - m left out when
    2m > C(n, r), whose degrees are then C(n-1, r-1) minus their tally.
    Deterministic given the seed.  Sample i is drawn
    from the stream spawned for batch i // SAMPLE_BATCH, in blocks of
    max(1, CHUNK // m') samples from the start of the batch: a block's
    ranks are one ``_distinct_ranks`` draw, unranked in one call and tallied
    by one ``np.bincount`` with each sample offset into its own n bins.
    Every block is drawn whole and the rows past ``count`` dropped, so a
    row depends only on the seed and its index, not on ``count``.  The
    arguments are checked, and count * m' ranks charged to the subset
    budget, once, before any draw.
    """
    if n < 2 or not 1 <= r <= n - 1:
        raise ValueError(f"need n >= 2 and 1 <= r <= n-1, got n={n}, r={r}")
    population = math.comb(n, r)
    if population >= 2**63:
        raise ValueError(f"C(n, r) = {population} does not fit the int64 ranks")
    if not 0 <= m <= population:
        raise ValueError(f"need 0 <= m <= C(n, r) = {population}")
    if count < 0:
        raise ValueError(f"need count >= 0, got {count}")
    drawn = min(m, population - m)
    check_subset_budget(count * drawn)
    batches = (count + SAMPLE_BATCH - 1) // SAMPLE_BATCH
    seeds = np.random.SeedSequence(rng_seed).spawn(batches)
    out = np.empty((count, n), dtype=np.int64)
    block = max(1, CHUNK // max(drawn, 1))
    for b, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        end = (b + 1) * SAMPLE_BATCH
        for lo in range(b * SAMPLE_BATCH, min(end, count), block):
            rows = min(block, end - lo)
            ranks = _distinct_ranks(rng, population, rows, drawn)
            edges = colex_unrank(ranks.ravel(), n, r).reshape(rows, drawn * r)
            # offset each sample's vertices into its own n bins
            edges += n * np.arange(rows, dtype=np.int64)[:, None]
            tally = np.bincount(edges.ravel(), minlength=rows * n).reshape(rows, n)
            out[lo:lo + rows] = tally[:count - lo]
    return out if drawn == m else math.comb(n - 1, r - 1) - out


def _distinct_ranks(rng, population: int, rows: int, size: int) -> np.ndarray:
    """``rows`` uniform size-subsets of range(population), one sorted row each.

    Every rank is drawn at once, uniform on range(population); each row is
    sorted, and every entry equal to its left neighbour is drawn again,
    until no row repeats a rank.  A row keeps the set of values it holds
    and redraws uniformly, so the law of its final set is unchanged by any
    relabelling of the population: a uniform size-subset.
    """
    ranks = rng.integers(0, population, size=(rows, size))
    ranks.sort(axis=1)
    repeat = ranks[:, 1:] == ranks[:, :-1]
    while repeat.any():
        ranks[:, 1:][repeat] = rng.integers(0, population, size=int(repeat.sum()))
        ranks.sort(axis=1)
        repeat = ranks[:, 1:] == ranks[:, :-1]
    return ranks
