import math
from itertools import combinations

import numpy as np
import pytest
from scipy.special import logsumexp

from hyperdeg.core import DegreeSequence, QuadrantTransform, apply_symmetry
from hyperdeg import fields, solver
from hyperdeg.errors import DensityDegenerate, NonConvergence, SingularJacobian, ZeroDegree
from hyperdeg.fields import Twofold, field_summary, logistic
from hyperdeg.matrices import bound_suite
from hyperdeg.solver import (
    apply_beta_symmetry,
    initial_beta,
    inverse_jacobian_bound_check,
    solve,
    uniqueness_diagnostic,
)
from hyperdeg.subsets import iter_chunks

REG6 = DegreeSequence(6, 3, (5,) * 6)
SKEW6 = DegreeSequence(6, 3, (6, 5, 5, 5, 5, 4))


def test_regular_seed_is_zero_at_half_density():
    seed, used = initial_beta(REG6, "regular")
    assert used == "regular"
    assert np.array_equal(seed, np.zeros(6))


def test_near_regular_seed_equals_regular_when_deviations_vanish():
    seed, used = initial_beta(REG6, "near-regular")
    assert used == "near-regular"
    assert np.array_equal(seed, np.zeros(6))


def test_product_seed_matches_brute_force():
    seed, used = initial_beta(SKEW6, "product")
    assert used == "product"
    degrees = np.array(SKEW6.degrees, dtype=float)
    s = (6 - 3 + 1) / 6 * sum(
        math.prod(degrees[list(w)]) for w in combinations(range(6), 2)
    )
    expected = np.log(degrees) - math.log(s) / 3
    assert np.allclose(seed, expected, atol=1e-12)
    assert seed[0] > seed[5]


def test_logsumexp_drops_zero_weights():
    x = np.array([1.0, 800.0, -2.0, 3.5])
    weights = np.array([2.0, 0.0, 5.0, 1.0])
    # the zero-weight 800 neither sets the shift nor overflows exp
    assert solver._logsumexp(x, weights) == pytest.approx(logsumexp(x, b=weights), rel=1e-15)
    assert solver._logsumexp(x[[0, 2, 3]]) == pytest.approx(logsumexp(x[[0, 2, 3]]), rel=1e-15)
    assert solver._logsumexp(x, np.zeros(4)) == -math.inf
    assert solver._logsumexp(np.array([-math.inf, -math.inf])) == -math.inf


def test_non_positive_definite_jacobian_raises_singular_jacobian(monkeypatch):
    monkeypatch.setattr(
        fields.FieldSummary, "class_jacobian",
        lambda self: np.diag(np.r_[1.0, -np.ones(self.classes.k - 1)]),
    )
    with pytest.raises(SingularJacobian, match="iteration 0") as info:
        solve(SKEW6)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_seed_errors():
    empty = DegreeSequence(4, 3, (0, 0, 0, 0))
    with pytest.raises(DensityDegenerate):
        initial_beta(empty, "regular")
    zero = DegreeSequence(4, 3, (2, 2, 2, 0))
    with pytest.raises(ZeroDegree):
        initial_beta(zero, "product")


def test_regular_solve_converges_at_seed():
    report = solve(REG6)
    assert report.converged
    assert report.iterations <= 1
    assert report.residual_inf <= 1e-12 * 5.0
    assert np.array_equal(report.beta_star, np.zeros(6))


def test_skew_solve_reproduces_degrees():
    report = solve(SKEW6)
    assert report.converged
    assert report.residual_inf <= 1e-10 * 5.0
    field = field_summary(report.beta_star, 6, 3)
    assert np.allclose(field.vertex_sums, SKEW6.degrees, atol=1e-9)


def test_all_seeds_reach_the_same_solution():
    solutions = []
    for strategy in ("regular", "product", "near-regular"):
        report = solve(SKEW6, strategy=strategy)
        assert report.seed_used == strategy
        solutions.append(report.beta_star)
    for other in solutions[1:]:
        assert np.allclose(solutions[0], other, atol=1e-8)


def test_near_regular_seed_improves_on_regular_seed():
    # validates the direction of the expansion seed, not just convergence
    for degrees in [(7, 7, 7, 6, 6, 6, 5, 4), (8, 7, 7, 6, 6, 6, 5, 3)]:
        seq = DegreeSequence(8, 3, degrees)
        star = solve(seq, tol=1e-12).beta_star
        regular = initial_beta(seq, "regular")[0]
        near = initial_beta(seq, "near-regular")[0]
        reg_dist = np.abs(regular - star).max()
        near_dist = np.abs(near - star).max()
        assert near_dist < 0.5 * reg_dist, (degrees, reg_dist, near_dist)


def test_custom_seed_and_monotone_residual():
    degrees = np.array(SKEW6.degrees, dtype=float)
    rough = np.full(6, 0.3)
    seed_res = float(
        np.abs(field_summary(rough, 6, 3).vertex_sums - degrees).max()
    )
    report = solve(SKEW6, seed_beta=rough)
    assert report.seed_used == "custom"
    assert report.converged
    assert report.residual_inf < seed_res


def test_infeasible_degree_zero_never_reports_false_convergence():
    seq = DegreeSequence(6, 3, (9, 3, 3, 3, 3, 3))  # d_1 at its maximum cap
    hopeless = DegreeSequence(6, 3, (6, 6, 6, 6, 6, 0))
    for instance in (seq, hopeless):
        try:
            report = solve(instance, max_iter=40)
        except NonConvergence:
            continue
        field = field_summary(report.beta_star, 6, 3)
        assert np.allclose(field.vertex_sums, instance.degrees, atol=1e-8)


def test_solution_symmetry_relations():
    base = solve(SKEW6, tol=1e-11)
    beta = base.beta_star
    tol = 10 * 1e-11 * 5

    edge_image = apply_symmetry(SKEW6, QuadrantTransform.EDGE_COMPLEMENT)
    edge_report = solve(edge_image, tol=1e-11)
    got = edge_report.beta_star
    gaps_base = beta[:, None] - beta[None, :]
    gaps_image = got[:, None] - got[None, :]
    assert np.abs(np.abs(gaps_image) - np.abs(gaps_base)).max() <= tol

    set_image = apply_symmetry(SKEW6, QuadrantTransform.SET_COMPLEMENT)
    set_report = solve(set_image, tol=1e-11, seed_beta=-beta)
    assert np.allclose(set_report.beta_star, -beta, atol=tol)


def test_transformed_solutions_satisfy_image_systems():
    base = solve(SKEW6, tol=1e-11).beta_star
    for t in QuadrantTransform:
        image = apply_symmetry(SKEW6, t)
        moved = apply_beta_symmetry(base, t, 6, 3)
        field = field_summary(moved, image.n, image.r)
        assert np.allclose(field.vertex_sums, image.degrees, atol=1e-8), t


def test_degree_sum_identity_at_solution():
    report = solve(SKEW6)
    field = field_summary(report.beta_star, 6, 3)
    n_d = sum(SKEW6.degrees)
    assert abs(field.vertex_sums.sum() - n_d) <= 6 * 1e-10 * 5


def test_uniqueness_diagnostic_zero_for_identical_vectors():
    assert uniqueness_diagnostic(REG6, np.zeros(6), np.zeros(6)) == 0.0
    # the complement transform fixes the zero vector when the sum is zero
    shifted = apply_beta_symmetry(np.zeros(6), QuadrantTransform.EDGE_COMPLEMENT, 6, 3)
    assert uniqueness_diagnostic(REG6, np.zeros(6), shifted) == 0.0


def test_uniqueness_diagnostic_matches_brute_force():
    seq = DegreeSequence(4, 3, (2, 2, 1, 1))
    a = np.zeros(4)
    b = np.array([0.1, 0.0, 0.0, 0.0])
    got = uniqueness_diagnostic(seq, a, b)

    def lam(beta, w):
        return 1.0 / (1.0 + math.exp(-beta[list(w)].sum()))

    values = []
    for y in np.linspace(0.0, 1.0, 33):
        total = 0.0
        for w in combinations(range(4), 3):
            la, lb = lam(a, w), lam(b, w)
            xi = (1 - y) * la + y * lb
            total += (lb - la) ** 2 / (xi * (1 - xi))
        values.append(total)
    assert got == pytest.approx(min(values), abs=1e-12)
    assert got > 0.0


def test_uniqueness_diagnostic_positive_for_perturbed_solutions():
    report = solve(SKEW6)
    beta = report.beta_star
    rng = np.random.default_rng(17)
    for _ in range(5):
        other = beta + rng.normal(scale=1e-3, size=6)
        assert uniqueness_diagnostic(SKEW6, beta, other) >= 0.0


def test_inverse_jacobian_bound_regular_and_perturbed():
    # the bound's size hypothesis needs n >= 16 e^{4 d1 + 8 d2}
    n = 20
    seq = DegreeSequence(n, 3, (57,) * n)  # lam = 1/3
    center, _ = initial_beta(seq, "regular")
    suite = bound_suite(field_summary(center, n, 3), delta_hat=0.0)
    constant = suite.measured_inverse_constant
    res = inverse_jacobian_bound_check(
        seq, center, center, delta1=0.0, delta2=0.0, constant=constant
    )
    assert res.status == "pass", res

    rng = np.random.default_rng(23)
    delta1, delta2 = 0.02, 0.015
    wobble = center + rng.uniform(-delta1 / (2 * 3), delta1 / (2 * 3), size=n)
    point = wobble + rng.uniform(-delta2 / 3, delta2 / 3, size=n)
    res2 = inverse_jacobian_bound_check(
        seq, wobble, point, delta1=delta1, delta2=delta2, constant=constant
    )
    assert res2.status == "pass", res2


def test_uniqueness_diagnostic_is_bit_identical_to_a_chunk_loop():
    """Reference: the curvature sums folded by their own loop over chunks."""
    seq = DegreeSequence(24, 4, (100,) * 24)  # 10626 subsets, three chunks
    rng = np.random.default_rng(31)
    a = rng.normal(scale=0.3, size=24)
    b = a + rng.normal(scale=0.05, size=24)
    ys = np.linspace(0.0, 1.0, 33)
    acc = Twofold(np.zeros(33))
    for idx in iter_chunks(24, 4):
        la = logistic(a[idx].sum(axis=1))
        lb = logistic(b[idx].sum(axis=1))
        xi = (1.0 - ys[:, None]) * la[None, :] + ys[:, None] * lb[None, :]
        acc.add((((lb - la) ** 2)[None, :] / (xi * (1.0 - xi))).sum(axis=1))
    assert uniqueness_diagnostic(seq, a, b) == float(acc.value().min())


def test_uniqueness_diagnostic_budget_guard():
    from hyperdeg.errors import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        uniqueness_diagnostic(REG6, np.zeros(6), np.zeros(6), budget=10)


def test_unconverged_report_is_rejected_by_estimates():
    from hyperdeg.counts import estimate_general
    from hyperdeg.errors import Unsolved
    from hyperdeg.solver import SolveReport

    fake = SolveReport(
        beta_star=np.zeros(6), iterations=0, residual_inf=1.0,
        spread=0.0, converged=False, seed_used="custom",
    )
    with pytest.raises(Unsolved):
        estimate_general(REG6, report=fake)


def test_converged_report_without_a_field_is_unsolved():
    from hyperdeg.counts import estimate_general, symmetry_audit
    from hyperdeg.errors import Unsolved
    from hyperdeg.solver import SolveReport

    solved = solve(REG6)
    bare = SolveReport(
        beta_star=solved.beta_star, iterations=0, residual_inf=0.0,
        spread=0.0, converged=True, seed_used="custom",
    )
    assert bare.field is None
    with pytest.raises(Unsolved, match="no field"):
        estimate_general(REG6, report=bare)
    with pytest.raises(Unsolved, match="no field"):
        symmetry_audit(REG6, report=bare)


def test_inverse_jacobian_bound_skips_small_n():
    seq = DegreeSequence(6, 3, (5,) * 6)
    res = inverse_jacobian_bound_check(
        seq, np.zeros(6), np.zeros(6), delta1=0.0, delta2=0.0, constant=1.0
    )
    assert res.status == "skipped"
    assert "16" in res.detail
