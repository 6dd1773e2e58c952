import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from hyperdeg import fields, matrices
from hyperdeg.core import DegreeSequence, derive
from hyperdeg.errors import NotPositiveDefinite
from hyperdeg.fields import VertexClasses, field_summary
from hyperdeg.matrices import (
    aI_bJ_logdet,
    bound_suite,
    class_form,
    logdet_pd,
    weight_logdet,
)
from hyperdeg.solver import solve
from lemmas import regular_closed_form

REG6_LOGDET = math.log(0.889892578125)  # 3 * 7.5^6 / (2^6 * 3 * 5^5), exact dyadic


def test_assembled_entries_uniform():
    mat = 0.5 * field_summary(np.zeros(6), 6, 3).pair_weights
    assert mat[0, 0] == pytest.approx(1.25)
    assert mat[0, 1] == pytest.approx(0.5)
    mat4 = 0.5 * field_summary(np.zeros(4), 4, 3).pair_weights
    assert mat4[0, 0] == pytest.approx(3 / 8)
    assert mat4[0, 1] == pytest.approx(2 / 8)


def test_single_subset_instance_is_rank_one():
    mat = 0.5 * field_summary(np.zeros(3), 3, 3).pair_weights
    assert np.allclose(mat, mat[0, 0])
    with pytest.raises(NotPositiveDefinite):
        logdet_pd(mat)


def test_regular_closed_form_matches_assembly_and_dense_determinant():
    params = derive(DegreeSequence(6, 3, (5,) * 6))
    a, b, logdet0 = regular_closed_form(params)
    mat0 = a * np.eye(6) + b * np.ones((6, 6))
    assembled = 0.5 * field_summary(np.zeros(6), 6, 3).pair_weights
    assert np.allclose(mat0, assembled, atol=1e-14)
    assert logdet0 == pytest.approx(REG6_LOGDET, abs=1e-13)
    sign, dense = np.linalg.slogdet(mat0)
    assert sign == 1.0 and logdet0 == pytest.approx(dense, abs=1e-12)


def test_regular_closed_form_low_rank_case():
    # n=4, r=2, d=1: lam = 1/3, determinant 16/2187 by hand
    params = derive(DegreeSequence(4, 2, (1, 1, 1, 1)))
    a, b, logdet0 = regular_closed_form(params)
    mat0 = a * np.eye(4) + b * np.ones((4, 4))
    assert logdet0 == pytest.approx(math.log(16 / 2187), abs=1e-12)
    assert logdet0 == pytest.approx(-4.917697298436987, abs=1e-12)
    sign, dense = np.linalg.slogdet(mat0)
    assert sign == 1.0 and logdet0 == pytest.approx(dense, abs=1e-12)


def test_logdet_examples():
    six = 0.75 * np.eye(6) + 0.5 * np.ones((6, 6))
    assert logdet_pd(six) == pytest.approx(REG6_LOGDET, abs=1e-13)
    assert logdet_pd(np.eye(5)) == 0.0
    with pytest.raises(NotPositiveDefinite):
        logdet_pd(np.ones((3, 3)))


def test_logdet_maps_a_rejected_cholesky_to_not_positive_definite():
    # positive diagonal, second pivot 1 - 4 < 0: the factorization itself fails
    with pytest.raises(NotPositiveDefinite) as info:
        logdet_pd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_aI_bJ_identity_against_dense():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = float(rng.uniform(0.1, 2.0))
        b = float(rng.uniform(0.0, 1.0))
        n = int(rng.integers(2, 8))
        dense = np.linalg.slogdet(a * np.eye(n) + b * np.ones((n, n)))[1]
        assert aI_bJ_logdet(a, b, n) == pytest.approx(dense, abs=1e-12)


def test_assembled_matrix_positive_definite_and_symmetric():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(5, 9))
        r = int(rng.integers(2, n - 1))
        beta = rng.normal(scale=0.5, size=n)
        a = 0.5 * field_summary(beta, n, r).pair_weights
        assert np.array_equal(a, a.T)
        assert (a > 0).all()
        logdet_pd(a)  # must not raise for n > r


def test_bound_suite_zero_beta():
    report = bound_suite(field_summary(np.zeros(6), 6, 3), delta_hat=0.0)
    assert all(check.status != "fail" for check in report.checks)
    for check in report.checks:
        if "ratio" in check.name or "sandwich" in check.name:
            assert check.status == "pass" and abs(check.slack) < 1e-12
    # measured inverse-entry constant is small in the uniform case
    assert report.measured_inverse_constant <= 10.0


def test_bound_suite_solved_instance():
    seq = DegreeSequence(6, 3, (6, 5, 5, 5, 5, 4))
    rep = solve(seq)
    delta_hat = rep.spread * seq.r
    report = bound_suite(field_summary(rep.beta_star, seq.n, seq.r), delta_hat)
    assert not [c for c in report.checks if c.status == "fail"]


def test_bound_suite_skips_outside_precondition():
    report = bound_suite(field_summary(np.array([2.0, -2.0, 0.0, 0.0, 0.0, 0.0]), 6, 3), 0.1)
    assert all(c.status == "skipped" for c in report.checks)
    # no pair entries exist at r = 1
    report1 = bound_suite(field_summary(np.zeros(6), 6, 1), 1.0)
    assert all(c.status == "skipped" for c in report1.checks)


def test_determinant_symmetry_on_solved_instance():
    from hyperdeg.core import QuadrantTransform, apply_symmetry
    from hyperdeg.solver import apply_beta_symmetry

    seq = DegreeSequence(7, 3, (7, 6, 6, 6, 6, 6, 5))
    rep = solve(seq)
    base = logdet_pd(0.5 * field_summary(rep.beta_star, 7, 3).pair_weights)
    for t, factor in [
        (QuadrantTransform.EDGE_COMPLEMENT, 2 * math.log((7 - 3) / 3)),
        (QuadrantTransform.SET_COMPLEMENT, 0.0),
        (QuadrantTransform.BOTH, 2 * math.log((7 - 3) / 3)),
    ]:
        image = apply_symmetry(seq, t)
        beta_image = apply_beta_symmetry(rep.beta_star, t, 7, 3)
        image_logdet = logdet_pd(
            0.5 * field_summary(beta_image, image.n, image.r).pair_weights
        )
        assert image_logdet == pytest.approx(base + factor, abs=1e-8)


def test_logdet_requires_symmetry():
    m = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        logdet_pd(m)


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_weight_logdet_on_singletons_has_the_bits_of_the_dense_cholesky(n):
    rng = np.random.default_rng(n)
    for r in range(1, n):
        field = field_summary(rng.normal(scale=0.5, size=n) - 0.3, n, r)
        assert field.classes.k == n
        assert weight_logdet(field) == logdet_pd(0.5 * field.pair_weights), r


def eleven_on_four_classes():
    """The (11, 4) field on classes (3, 1, 5, 2), its class index and
    indicators U; spread(beta) * r = 3.6."""
    sizes = (3, 1, 5, 2)
    index = np.repeat(np.arange(4), sizes)
    classes = VertexClasses(index, np.array(sizes), np.array([0, 3, 4, 9]))
    field = field_summary(np.array([-0.6, 0.1, -0.2, 0.3]), 11, 4, classes=classes)
    return field, index, np.eye(4)[index]


def test_weight_logdet_factors_through_the_class_jacobian():
    # A preserves span(U) and its complement, acting there as
    # U^T A U = class_jacobian() / 2 and D
    field, index, u = eleven_on_four_classes()
    a = 0.5 * field.pair_weights
    assert np.allclose(u.T @ a @ u, 0.5 * field.class_jacobian(), rtol=1e-13, atol=0)
    assert weight_logdet(field) == pytest.approx(logdet_pd(a), rel=1e-13)
    # the class form rebuilds A, and its formula for A^{-1} inverts it
    form = class_form(field)
    assert form.logdet == weight_logdet(field)
    u_n = u / form.sizes  # U N^{-1}
    complement = np.eye(11) - u_n @ u.T
    rebuilt = np.diag(form.d[index]) @ complement + u_n @ form.m @ u_n.T
    assert np.abs(rebuilt - a).max() <= 1e-12 * np.abs(a).max()
    inverse = np.diag(1.0 / form.d[index]) @ complement + u @ np.linalg.inv(form.m) @ u.T
    assert np.abs(inverse @ a - np.eye(11)).max() <= 1e-12


def test_a_non_positive_class_diagonal_is_refused():
    # e_i = class_variance_i - pair_blocks_ii forced to 0 on the class of five
    field, _, _ = eleven_on_four_classes()
    variance = field.class_variance.copy()
    variance[2] = field.pair_blocks[2, 2]
    broken = dataclasses.replace(field, class_variance=variance)
    with pytest.raises(NotPositiveDefinite, match="non-positive class diagonal"):
        weight_logdet(broken)
    with pytest.raises(NotPositiveDefinite, match="non-positive class diagonal"):
        bound_suite(broken, 4.0)


def test_bound_suite_reads_one_class_form(monkeypatch):
    # one class Jacobian and one checked Cholesky per suite
    field, _, _ = eleven_on_four_classes()
    calls = Counter()

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(fields.FieldSummary, "class_jacobian",
                        counted("class_jacobian", fields.FieldSummary.class_jacobian))
    monkeypatch.setattr(matrices, "logdet_pd", counted("logdet_pd", matrices.logdet_pd))
    report = bound_suite(field, 4.0)
    assert "skipped" not in {c.status for c in report.checks}
    assert calls == {"class_jacobian": 1, "logdet_pd": 1}


@pytest.mark.parametrize("degrees", [(10,) * 4 + (11,) * 4, (4, 5, 6, 7, 8, 9, 10, 11)],
                         ids=["classes", "colex"])
def test_determinant_comparison_slack_reads_weight_logdet(degrees):
    seq = DegreeSequence(8, 3, degrees)
    report = solve(seq)
    field = report.field
    assert (field.classes.k < seq.n) == (len(set(degrees)) < seq.n)
    delta_hat = max(report.spread * seq.r, 1e-6)
    check = next(c for c in bound_suite(field, delta_hat).checks
                 if c.name == "determinant-comparison")
    n, r = seq.n, seq.r
    ap = 0.5 * math.exp(2.0 * delta_hat) * field.big_lambda
    comparison = aI_bJ_logdet(ap * math.comb(n - 2, r - 1), ap * math.comb(n - 2, r - 2), n)
    assert check.status == "pass"
    assert check.slack == comparison - weight_logdet(field)
