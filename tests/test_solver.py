import json
import math
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from hyperdeg.core import DegreeSequence, QuadrantTransform, apply_symmetry
from hyperdeg import fields, solver
from hyperdeg.errors import DensityDegenerate, NonConvergence, SingularJacobian
from hyperdeg.fields import field_summary
from hyperdeg.matrices import bound_suite
from hyperdeg.solver import apply_beta_symmetry, solve
from lemmas import segment_curvature

REG6 = DegreeSequence(6, 3, (5,) * 6)
SKEW6 = DegreeSequence(6, 3, (6, 5, 5, 5, 5, 4))


def test_regular_seed_is_zero_at_half_density():
    # logit(1/2) / 3 = 0 solves the regular instance with no Newton step
    report = solve(REG6, max_iter=0)
    assert report.seed_used == "regular"
    assert report.iterations == 0
    assert np.array_equal(report.beta_star, np.zeros(6))


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
        solve(empty)


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
    # the solution is unique: seeds on either side of it reach it too
    report = solve(SKEW6)
    assert report.seed_used == "regular"
    for seed in ([0.4, 0.1, 0.1, 0.1, 0.1, -0.2], [-0.5, 0.2, 0.2, 0.2, 0.2, 0.6]):
        other = solve(SKEW6, seed_beta=seed)
        assert other.seed_used == "custom" and other.converged
        assert np.allclose(report.beta_star, other.beta_star, atol=1e-8)


def lp_margin(n, r, degrees):
    """The largest t such that weights in [t, 1 - t] on the r-subsets have
    vertex sums equal to the degrees: positive exactly on the interior of
    the degree polytope, -inf outside it."""
    incidence = np.zeros((n, math.comb(n, r)))
    for col, w in enumerate(combinations(range(n), r)):
        incidence[list(w), col] = 1.0
    rows = incidence.shape[1]
    # variables (x, t), all nonnegative: maximise t with t <= x <= 1 - t
    ones = np.ones((rows, 1))
    res = linprog(
        np.r_[np.zeros(rows), -1.0],
        A_ub=np.block([[-np.eye(rows), ones], [np.eye(rows), ones]]),
        b_ub=np.r_[np.zeros(rows), np.ones(rows)],
        A_eq=np.c_[incidence, np.zeros(n)],
        b_eq=np.asarray(degrees, dtype=float),
        method="highs",
    )
    return -res.fun if res.status == 0 else -math.inf


def test_every_interior_degree_vector_at_six_three_solves():
    # the solution exists exactly on the interior and is unique, so one seed
    # must reach it from every interior point
    cap = math.comb(5, 2)
    interior = [
        degrees[::-1]
        for degrees in combinations_with_replacement(range(cap + 1), 6)
        if sum(degrees) % 3 == 0 and lp_margin(6, 3, degrees) > 1e-9
    ]
    assert len(interior) == 149
    for degrees in interior:
        report = solve(DegreeSequence(6, 3, degrees))
        assert report.converged, degrees


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
    shift = base.sum() / 3
    # the edge complement, then the set complement, rounds as each form alone
    formula = {"identity": base, "edge-complement": shift - base,
               "set-complement": -base, "both": base - shift}
    for t in QuadrantTransform:
        image = apply_symmetry(SKEW6, t)
        moved = apply_beta_symmetry(base, t, 6, 3)
        assert np.array_equal(moved, formula[t.value]), t
        field = field_summary(moved, image.n, image.r)
        assert np.allclose(field.vertex_sums, image.degrees, atol=1e-8), t


def test_degree_sum_identity_at_solution():
    report = solve(SKEW6)
    field = field_summary(report.beta_star, 6, 3)
    n_d = sum(SKEW6.degrees)
    assert abs(field.vertex_sums.sum() - n_d) <= 6 * 1e-10 * 5


def test_uniqueness_diagnostic_positive_for_perturbed_solutions():
    report = solve(SKEW6)
    beta = report.beta_star
    rng = np.random.default_rng(17)
    for _ in range(5):
        other = beta + rng.normal(scale=1e-3, size=6)
        assert segment_curvature(SKEW6, beta, other) > 0.0


def test_inverse_jacobian_bound_regular_and_perturbed():
    # the sup norm of (2A)^{-1} at beta, within delta2 / r of a center of
    # spread at most delta1 / r, is at most 2^8 c e^{36 delta1 + 73 delta2}
    # / (C(n-1, r-1) avg), with avg the center's average weight and c the
    # measured inverse-entry constant; the size hypothesis needs
    # n >= 16 e^{4 delta1 + 8 delta2}
    n = 20
    seq = DegreeSequence(n, 3, (57,) * n)  # lam = 1/3
    lam = seq.params.lam
    center = np.full(n, math.log(lam / (1.0 - lam)) / 3)
    suite = bound_suite(field_summary(center, n, 3), delta_hat=0.0)
    constant = suite.measured_inverse_constant

    rng = np.random.default_rng(23)
    delta1, delta2 = 0.02, 0.015
    wobble = center + rng.uniform(-delta1 / (2 * 3), delta1 / (2 * 3), size=n)
    point = wobble + rng.uniform(-delta2 / 3, delta2 / 3, size=n)
    for c, beta, d1, d2 in [(center, center, 0.0, 0.0), (wobble, point, delta1, delta2)]:
        assert (c.max() - c.min()) * 3 <= d1 and np.abs(beta - c).max() * 3 <= d2
        assert n >= 16.0 * math.exp(4.0 * d1 + 8.0 * d2)
        avg = field_summary(c, n, 3).avg_lambda
        assert math.exp(d2) * avg <= 7.0 / 8.0
        inverse = np.linalg.inv(field_summary(beta, n, 3).pair_weights)
        row_sum = float(np.abs(inverse).sum(axis=1).max())
        scale = math.exp(36.0 * d1 + 73.0 * d2) / (math.comb(n - 1, 2) * avg)
        assert row_sum <= 2.0**8 * constant * scale


# --- the remembered solve -------------------------------------------------

RECORDED = json.loads(
    (Path(__file__).resolve().parent / "data" / "colex_stdout.json").read_text()
)
DISTINCT16 = DegreeSequence.from_json_dict(RECORDED["instances"]["distinct16"])


def same_bits(a, b):
    assert a.beta_star.tobytes() == b.beta_star.tobytes()
    assert (a.iterations, a.spread, a.converged, a.seed_used) == (
        b.iterations, b.spread, b.converged, b.seed_used)
    assert a.residual_inf.hex() == b.residual_inf.hex()
    for name in ("beta", "class_sums", "class_variance", "pair_blocks"):
        assert getattr(a.field, name).tobytes() == getattr(b.field, name).tobytes()
    for name in ("avg_lambda", "big_lambda", "entropy"):
        assert getattr(a.field, name).hex() == getattr(b.field, name).hex()


@pytest.mark.parametrize("seq", [SKEW6, DISTINCT16], ids=["classes", "singletons"])
def test_a_repeated_solve_sweeps_nothing_and_keeps_every_bit(seq, sweeps, monkeypatch):
    first = solve(seq)
    assert len(sweeps) == 1 + first.iterations
    again = solve(DegreeSequence(seq.n, seq.r, seq.degrees))
    assert len(sweeps) == 1 + first.iterations
    assert again.field.classes is not first.field.classes
    monkeypatch.setattr(solver, "_last", None)
    fresh = solve(seq)
    assert len(sweeps) == 2 * (1 + first.iterations)
    same_bits(again, fresh)
    same_bits(first, fresh)


def test_max_iter_must_be_a_non_negative_integer():
    for bad in (-1, 2.5, True, "3"):
        with pytest.raises(ValueError, match="max_iter"):
            solve(SKEW6, max_iter=bad)
    assert solve(SKEW6, max_iter=np.int64(100)).converged


def test_each_part_of_the_key_makes_its_own_miss(sweeps, request):
    def misses(*args, **kwargs):
        before = len(sweeps)
        report = solve(*args, **kwargs)
        assert report.converged
        return len(sweeps) > before

    assert misses(SKEW6)
    assert not misses(SKEW6)
    assert misses(SKEW6, tol=1e-11)
    assert misses(SKEW6, tol=1e-11, max_iter=99)
    assert not misses(SKEW6, tol=1e-11, max_iter=99)

    # the regular start at half density is +0.0; a custom seed with the same
    # bytes hits under its own label, one starting at -0.0 misses and keeps
    # its sign
    assert misses(REG6)
    assert not misses(REG6, seed_beta=np.zeros(6))
    assert solve(REG6, seed_beta=np.zeros(6)).seed_used == "custom"
    signed = np.zeros(6)
    signed[0] = -0.0
    assert misses(REG6, seed_beta=signed)
    assert np.signbit(solve(REG6, seed_beta=signed).beta_star).all()

    # singletons keep the degrees in vertex order, so a permutation misses
    assert misses(DISTINCT16)
    assert misses(DegreeSequence(16, 4, DISTINCT16.degrees[::-1]))

    # the same distinct degrees and start, with other multiplicities
    solve(SKEW6)
    assert misses(DegreeSequence(6, 3, (6, 6, 5, 5, 4, 4)))

    # on classes a permutation of the same degrees hits, its beta permuted
    base = solve(SKEW6)
    permuted = DegreeSequence(6, 3, SKEW6.degrees[::-1])
    assert not misses(permuted)
    assert solve(permuted).beta_star.tobytes() == base.beta_star[::-1].tobytes()

    # the same degrees forced onto singletons have k = n classes
    request.getfixturevalue("colex_route")
    assert misses(DegreeSequence(6, 3, SKEW6.degrees))


def test_a_would_be_hit_still_refuses(sweeps, monkeypatch):
    from hyperdeg.errors import BudgetExceeded

    seed = np.array([0.1, 0.0, 0.0, 0.0, 0.0, -0.1])
    solve(SKEW6, seed_beta=seed)
    solved = len(sweeps)
    # a class-splitting seed starts from the same class vector
    split = seed.copy()
    split[4] = 0.05
    with pytest.raises(ValueError, match="equal on vertices of equal degree"):
        solve(SKEW6, seed_beta=split)
    # three classes of edge size 3: C(5, 3) = 10 rows
    monkeypatch.setenv("HYPERDEG_BUDGET", "9")
    with pytest.raises(BudgetExceeded, match="10 subsets"):
        solve(SKEW6, seed_beta=seed)
    monkeypatch.delenv("HYPERDEG_BUDGET")
    assert solve(SKEW6, seed_beta=seed).converged
    assert len(sweeps) == solved


def test_what_a_solve_returns_cannot_change_a_later_hit(sweeps):
    first = solve(SKEW6)
    beta, sums = first.beta_star.copy(), first.field.class_sums.copy()
    for arr in (first.beta_star, first.field.beta, first.field.class_sums,
                first.field.class_variance, first.field.pair_blocks):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    first.field.entropy = 0.0
    solved = len(sweeps)
    hit = solve(SKEW6)
    assert len(sweeps) == solved
    assert hit.beta_star.tobytes() == beta.tobytes()
    assert hit.field.class_sums.tobytes() == sums.tobytes()
    assert hit.field.entropy != 0.0
    with pytest.raises(ValueError, match="read-only"):
        hit.beta_star[0] = 1.0


def test_a_solve_that_fails_raises_every_time_and_keeps_the_slot(sweeps):
    hopeless = DegreeSequence(6, 3, (6, 6, 6, 6, 6, 0))
    base = solve(SKEW6)
    for _ in range(2):
        before = len(sweeps)
        with pytest.raises(NonConvergence):
            solve(hopeless)
        assert len(sweeps) > before
    solved = len(sweeps)
    assert solve(SKEW6).beta_star.tobytes() == base.beta_star.tobytes()
    assert len(sweeps) == solved


def test_one_process_prints_the_bytes_of_each_command_run_alone(monkeypatch):
    from contextlib import redirect_stderr, redirect_stdout
    from io import StringIO

    from hyperdeg.cli import run

    argv = {"solve": ["solve"], "count": ["count", "--method", "general"],
            "audit": ["audit"]}

    def stdout(command, name):
        out = StringIO()
        with redirect_stdout(out), redirect_stderr(StringIO()):
            code = run(argv[command] + ["--input",
                                        json.dumps(RECORDED["instances"][name])])
        assert code == 0
        return out.getvalue()

    alone = {}
    for name in RECORDED["instances"]:
        for command in argv:
            monkeypatch.setattr(solver, "_last", None)
            alone[name, command] = stdout(command, name)
    # skew6 solves on classes and its solve and audit moved at rounding level
    # with that route; every other recorded output holds bytewise
    pinned = {key for key in alone if key[0] != "skew6" or key[1] == "count"}
    for name, command in pinned:
        assert alone[name, command] == RECORDED["stdout"][name][command]
    monkeypatch.setattr(solver, "_last", None)
    for name in RECORDED["instances"]:
        for command in ("solve", "count", "audit", "count"):
            assert stdout(command, name) == alone[name, command], (name, command)
