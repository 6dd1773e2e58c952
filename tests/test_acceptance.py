"""Acceptance suite: one test per criterion, one printed line per criterion.

Criteria 6 and 10 walk the half-density ladder r = 3, n in {6, 8, 10, 12}:
at each n the most nearly regular degree sequence with m = C(n, 3) / 2
edges, which is regular at n = 6 and 10 (5^6, 18^10) and near-regular at
n = 8 and 12 (10^4 11^4, 27^6 28^6).  Exact counts are computed at
n = 6, 8 and 10 with ``HYPERDEG_BUDGET`` at 10^15 DP operations; at n = 12
the oracle's a-priori bound, about 6·10^19, is above that budget, so the
criteria assert that it refuses with ``BudgetExceeded`` before any
enumeration.  See the repository root README.
"""

import io
import math
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

from hyperdeg.cli import run as cli_run
from hyperdeg.core import (
    DegreeSequence,
    QuadrantTransform,
    apply_symmetry,
    derive,
)
from hyperdeg.counts import estimate_general, estimate_near_regular, symmetry_audit
from hyperdeg.errors import (
    BudgetExceeded,
    DensityDegenerate,
    NonConvergence,
    SingularJacobian,
)
from hyperdeg.fields import check_weight_ratio_bounds, field_summary
from hyperdeg.identities import selftest as identities_selftest
from hyperdeg.matrices import bound_suite, logdet_pd
from hyperdeg.models import (
    HypergeomSpec,
    _log_pmf,
    measured_ratio,
    predicted_ratio,
    prob_model,
)
from hyperdeg.oracle import cauchy_quadrature, exact_count, total_identity_check
from hyperdeg.solver import solve
from lemmas import compositions, degree_spread_ok, segment_curvature, stirling_log_binom

INSTANCES = Path(__file__).resolve().parent.parent / "demos" / "instances"


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number:02d} {name}: {status}{suffix}")


def test_criterion_01_exact_oracle_completeness():
    start = time.time()
    checked = []
    for n, r, max_m in [(4, 3, 4), (5, 3, 4), (6, 3, 3), (7, 3, 5), (8, 3, 4)]:
        for m in range(max_m + 1):
            checked.append(total_identity_check(n, r, m))
    elapsed = time.time() - start
    ok = all(checked) and elapsed < 60.0
    report(1, "exact-oracle completeness", ok, f"{len(checked)} identities, {elapsed:.1f}s")
    assert all(checked)
    assert elapsed < 60.0


def _solved_or_fallback_contour(seq):
    params = derive(seq)
    try:
        return solve(seq, max_iter=60).beta_star
    except (NonConvergence, SingularJacobian, DensityDegenerate):
        if 0.0 < params.lam < 1.0:
            return np.full(seq.n, math.log(params.lam / (1.0 - params.lam)) / seq.r)
        return None


def test_criterion_02_cauchy_integral_identity():
    start = time.time()
    worst = 0.0
    cases = 0

    def check(seq):
        nonlocal worst, cases
        exact = exact_count(seq)
        second = _solved_or_fallback_contour(seq)
        contours = [np.zeros(seq.n)] + ([second] if second is not None else [])
        for beta in contours:
            result = cauchy_quadrature(seq, beta=beta)
            assert result.points_per_axis == math.comb(seq.n - 1, seq.r - 1) + 1
            value = result.value
            gap = abs(value - exact) / max(1.0, exact)
            worst = max(worst, gap)
            assert gap <= 1e-8, (seq, exact, value)
            cases += 1

    for degrees in product(range(4), repeat=4):
        if sum(degrees) % 3 == 0:
            check(DegreeSequence(4, 3, degrees))

    rng = np.random.default_rng(5)
    seen = set()
    while len(seen) < 10:
        degrees = tuple(int(x) for x in rng.integers(0, 7, size=5))
        if sum(degrees) % 3 or degrees in seen:
            continue
        seen.add(degrees)
        check(DegreeSequence(5, 3, degrees))

    elapsed = time.time() - start
    report(2, "coefficient-integral identity", elapsed < 120.0,
           f"{cases} evaluations, worst gap {worst:.2e}, {elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_03_regular_closed_form():
    seq = DegreeSequence(6, 3, (5,) * 6)
    rep = solve(seq)
    det = math.exp(logdet_pd(0.5 * field_summary(rep.beta_star, 6, 3).pair_weights))
    general = estimate_general(seq).ln_value
    near = estimate_near_regular(seq).ln_value
    ok = (
        rep.iterations <= 1
        and rep.residual_inf <= 1e-12 * 5.0
        and np.array_equal(rep.beta_star, np.zeros(6))
        and abs(det - 0.889892578125) <= 1e-12 * 0.889892578125
        and abs(general - near) <= 1e-10
    )
    report(3, "regular closed form", ok,
           f"iters={rep.iterations}, |A|={det:.12f}, |gap|={abs(general-near):.1e}")
    assert ok


def _random_near_regular(rng, n_choices=(6, 8, 10)):
    """Degree sequence of a uniformly random hypergraph, kept when it is
    near-regular (delta_max <= d^{3/5}) and inside the existence regime
    (degree log-spread at most 1/r, in both complement frames)."""
    from hyperdeg.models import sample_degree_batch

    while True:
        n = int(rng.choice(list(n_choices)))
        total = math.comb(n, 3)
        m = int(rng.integers(total // 4, 3 * total // 4))
        degrees = sample_degree_batch(n, 3, m, int(rng.integers(2**32)), 1)[0]
        seq = DegreeSequence(n, 3, tuple(degrees.tolist()))
        params = derive(seq)
        if params.delta_max > params.d**0.6:
            continue
        mirror = apply_symmetry(seq, QuadrantTransform.SET_COMPLEMENT)
        if degree_spread_ok(seq) and degree_spread_ok(mirror):
            return seq


def test_criterion_04_solver_certification():
    rng = np.random.default_rng(404)
    worst_residual = 0.0
    min_diag = math.inf
    for _ in range(50):
        seq = _random_near_regular(rng)
        params = derive(seq)
        assert params.delta_max <= params.d**0.6
        rep = solve(seq)
        assert rep.converged
        assert rep.residual_inf <= 1e-10 * params.d
        worst_residual = max(worst_residual, rep.residual_inf / params.d)
        perturbed = rep.beta_star + rng.normal(scale=1e-3, size=seq.n)
        diag = segment_curvature(seq, rep.beta_star, perturbed)
        assert diag > 0.0
        min_diag = min(min_diag, diag)
    report(4, "solver certification", True,
           f"50 solves, worst residual {worst_residual:.1e}·d, min diagnostic {min_diag:.2e}")


def test_criterion_05_symmetry_suite():
    rng = np.random.default_rng(505)
    worst_ln = 0.0
    worst_det = 0.0
    worst_inv = 0.0
    count = 0
    while count < 20:
        seq = _random_near_regular(rng, n_choices=(6, 7, 8, 9))
        audit = symmetry_audit(seq, rng_seed=int(rng.integers(10**6)))
        worst_ln = max(worst_ln, audit.max_ln_gap)
        worst_det = max(worst_det, max(
            c["rel_gap"] for c in audit.det_ratio_checks.values()
        ))
        base = estimate_near_regular(seq).ln_value
        for t in (QuadrantTransform.EDGE_COMPLEMENT, QuadrantTransform.SET_COMPLEMENT):
            image = apply_symmetry(seq, t)
            worst_inv = max(worst_inv, abs(estimate_near_regular(image).ln_value - base))
        count += 1
    ok = worst_ln <= 1e-8 and worst_det <= 1e-6 and worst_inv <= 1e-10
    report(5, "symmetry suite", ok,
           f"ln gap {worst_ln:.1e}, det gap {worst_det:.1e}, closed-form gap {worst_inv:.1e}")
    assert ok, (worst_ln, worst_det, worst_inv)


HALF_DENSITY_LADDER = (6, 8, 10, 12)
# above the n = 10 DP bound (7.4e14), below the n = 12 one (6.3e19)
LADDER_BUDGET = 10**15


def _half_density_rung(n):
    """Most nearly regular r = 3 degree sequence with m = C(n, 3) / 2 edges."""
    subsets = math.comb(n, 3)
    assert subsets % 2 == 0, n
    low, extra = divmod(3 * subsets // 2, n)
    return DegreeSequence(n, 3, (low,) * (n - extra) + (low + 1,) * extra)


def _ladder(measure):
    """Run ``measure`` on every rung.

    Returns the measured values by n, a report of the refusals, and the
    blockers: any refused rung below n = 12, and an n = 12 rung that was
    computed or refused by anything but the a-priori DP guard.
    """
    values, refusals = {}, {}
    for n in HALF_DENSITY_LADDER:
        try:
            values[n] = measure(_half_density_rung(n))
        except BudgetExceeded as exc:
            refusals[n] = str(exc)
    blockers = [f"n={n}: {msg}" for n, msg in refusals.items() if n != 12]
    if 12 in values:
        blockers.append("n=12: computed, but its DP bound exceeds the budget")
    elif not refusals.get(12, "").startswith("DP bound of"):
        blockers.append(f"n=12: not refused by the a-priori guard: {refusals.get(12)}")
    refused = "; ".join(f"n={n}: {msg}" for n, msg in refusals.items()) or "none"
    return values, refused, blockers


def test_criterion_06_asymptotic_vs_exact_band(monkeypatch):
    """Half-density ladder, r = 3: near-regular estimate against exact count.

    The ln-gap must not grow with n and must end below 0.5, over the rungs
    n = 6, 8 and 10, which must all be counted.  At n = 12 the exact count
    must be refused by the budget guard (its bound exceeds 10^15).
    """
    monkeypatch.setenv("HYPERDEG_BUDGET", str(LADDER_BUDGET))

    def gap(seq):
        exact = exact_count(seq)
        return abs(estimate_near_regular(seq).ln_value - math.log(exact))

    gaps, refused, blockers = _ladder(gap)
    values = [gaps[n] for n in sorted(gaps)]
    trend_ok = all(a >= b for a, b in zip(values, values[1:]))
    ok = not blockers and trend_ok and values and values[-1] < 0.5
    report(6, "asymptotic-vs-exact band", ok,
           f"computed {gaps}; refused: {refused}")
    assert trend_ok and all(math.isfinite(v) for v in values)
    assert not blockers, "; ".join(blockers)
    assert values[-1] < 0.5


def test_criterion_07_appendix_identities():
    start = time.time()
    rng = np.random.default_rng(707)
    results = identities_selftest(rng, trials_per_family=50)
    elapsed = time.time() - start
    failures = sum(r["failures"] for r in results)
    trials = sum(r["trials"] for r in results)
    ok = failures == 0 and elapsed < 120.0
    report(7, "appendix identities", ok, f"{trials} exact trials, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 120.0


def test_criterion_08_bound_suite():
    rng = np.random.default_rng(808)
    draws = 0
    while draws < 100:
        n = int(rng.integers(6, 11))
        r = int(rng.choice([3, 4]))
        delta_hat = float(rng.uniform(0.05, 1.0))
        base = float(rng.uniform(-1.2, 0.1))
        beta = base + rng.uniform(-delta_hat / (2 * r), delta_hat / (2 * r), size=n)
        field = field_summary(beta, n, r)
        if field.avg_lambda > 7.0 / 8.0:
            continue
        checks = check_weight_ratio_bounds(field, delta_hat)
        checks += bound_suite(field, delta_hat).checks
        failed = [c.name for c in checks if c.status == "fail"]
        assert not failed, (failed, n, r, delta_hat)
        draws += 1
    report(8, "weight and matrix bound suite", True, "100 draws, no violations")


def test_criterion_09_model_identities():
    worst = 0.0
    for n, r, m in [(4, 3, 2), (5, 3, 3)]:
        cap = math.comb(n - 1, r - 1)
        total_b = 0.0
        total_t = 0.0
        for degrees in compositions(r * m, n, cap):
            seq = DegreeSequence(n, r, degrees)
            total_b += math.exp(prob_model(seq, "B").ln_prob)
            total_t += math.exp(prob_model(seq, "T").ln_prob)
            point = prob_model(seq, "D-exact")
            expected = Fraction(
                exact_count(seq), math.comb(math.comb(n, r), m)
            )
            assert point.components["exact"] == expected
        worst = max(worst, abs(total_b - 1.0), abs(total_t - 1.0))
        assert abs(total_b - 1.0) <= 1e-10
        assert abs(total_t - 1.0) <= 1e-10
    report(9, "model identities", True, f"normalization gap {worst:.1e}")


def test_criterion_10_model_ratio_trend(monkeypatch):
    """Half-density ladder, r = 3: measured D/T log-ratio against prediction.

    D is the exact-count model and T uses the dp normalizer.  The gap must
    not grow with n and must end below 0.2, over the rungs n = 6, 8 and 10,
    which must all be computed.  At n = 12 the D-exact model must be
    refused by the budget guard, as in criterion 6.
    """
    monkeypatch.setenv("HYPERDEG_BUDGET", str(LADDER_BUDGET))

    def gap(seq):
        measured = measured_ratio(seq, "d-vs-t", d_model="D-exact")
        return abs(measured - predicted_ratio(seq, "d-vs-t")["predicted_ln_ratio"])

    gaps, refused, blockers = _ladder(gap)
    values = [gaps[n] for n in sorted(gaps)]
    trend_ok = all(a >= b for a, b in zip(values, values[1:]))
    ok = not blockers and trend_ok and 10 in gaps and gaps[10] < 0.2
    report(10, "model ratio trend", ok,
           f"computed {gaps}; refused: {refused}")
    assert trend_ok
    assert not blockers, "; ".join(blockers)
    assert gaps[10] < 0.2


def test_criterion_11_stirling_accuracy():
    from scipy.special import gammaln

    worst = 0.0
    for big_k, lam, x in [(10**4, 0.5, 0.0), (10**4, 0.5, 50.0),
                          (10**6, 0.3, 500.0)]:
        got = stirling_log_binom(big_k, lam, x)
        want = float(
            gammaln(big_k + 1)
            - gammaln(lam * big_k + x + 1)
            - gammaln(big_k - lam * big_k - x + 1)
        )
        rel = abs(got - want) / abs(want)
        worst = max(worst, rel)
        assert rel <= 1e-6
    report(11, "binomial expansion accuracy", True, f"worst rel err {worst:.1e}")


def test_criterion_12_tail_bound():
    # exact two-sided tails Prob(|k - d| >= t) against 2 exp(-t^2 / (2(d + t/3)))
    spec = HypergeomSpec(6, 3, 10)
    ks = np.arange(spec.marked + 1)
    pmf = np.exp(_log_pmf(spec, ks))
    d = spec.mean
    ok = all(
        pmf[np.abs(ks - d) >= t].sum() <= 2.0 * math.exp(-t * t / (2.0 * (d + t / 3.0)))
        for t in range(1, 16)
    )
    report(12, "hypergeometric tail bound", ok, f"t=1..15 at d=5")
    assert ok


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_run(argv)
    return code, out.getvalue()


def test_criterion_13_cli_determinism():
    commands = []
    for name in ("reg6.json", "skew6.json", "near8.json"):
        path = str(INSTANCES / name)
        commands.append(["count", "--input", path, "--method", "near-regular"])
        if name != "near8.json":  # exact count there exceeds the budget
            commands.append(["count", "--input", path, "--method", "exact"])
        commands.append(["solve", "--input", path])
        commands.append(["models", "--input", path, "--compare",
                         "d-vs-t,b-vs-d,klw"])
    commands.append(
        ["count", "--input", str(INSTANCES / "tiny4.json"), "--method", "general"]
    )
    commands.append(
        ["models", "--input", str(INSTANCES / "tiny4.json"), "--compare", "d-vs-t"]
    )
    max_threads = str(max(2, min(8, os.cpu_count() or 1)))
    for argv in commands:
        outputs = set()
        for threads in ("1", "2", max_threads):
            code, out = _cli(["--threads", threads] + argv)
            assert code == 0, (argv, code)
            outputs.add(out)
        assert len(outputs) == 1, argv
    report(13, "CLI determinism across thread counts", True,
           f"{len(commands)} commands x 3 thread counts")
