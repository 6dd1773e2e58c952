"""The class route (sums over class compositions) against the colex route
(sums over all C(n, r) subsets), and the class route at large n."""

import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

from hyperdeg import core, fields, subsets
from lemmas import dense_bound_suite, regular_closed_form
from hyperdeg.cli import run
from hyperdeg.core import DegreeSequence, QuadrantTransform, apply_symmetry, derive
from hyperdeg.counts import estimate_general, symmetry_audit
from hyperdeg.errors import BudgetExceeded
from hyperdeg.fields import VertexClasses, check_weight_ratio_bounds, field_summary
from hyperdeg.matrices import bound_suite, logdet_pd, weight_logdet
from hyperdeg.solver import solve
from hyperdeg.subsets import iter_multisets

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "demos" / "instances"
RECORDED = json.loads((ROOT / "tests" / "data" / "colex_stdout.json").read_text())
RTOL = 1e-12


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def near_regular(n, r, seed, lam=0.3, spread=2):
    """Degrees d +- spread around d = lam * C(n-1, r-1), sum divisible by r."""
    rng = np.random.default_rng(seed)
    d = int(lam * math.comb(n - 1, r - 1))
    degrees = [d + int(x) for x in rng.integers(-spread, spread + 1, size=n)]
    degrees[-1] += -sum(degrees) % r
    return DegreeSequence(n, r, tuple(degrees))


def load(name):
    return DegreeSequence.from_json_dict(json.loads((INSTANCES / name).read_text()))


BASE = [
    DegreeSequence(6, 3, (5,) * 6),
    DegreeSequence(6, 2, (4, 3, 3, 2, 2, 2)),
    DegreeSequence(8, 3, (10,) * 4 + (11,) * 4),
    load("reg6.json"),
    load("skew6.json"),
    load("near8.json"),
    near_regular(20, 4, 1),
    near_regular(20, 4, 2),
    # one class of a single vertex
    DegreeSequence(10, 3, (12,) * 9 + (9,)),
]
IMAGES = [
    apply_symmetry(seq, t)
    for seq in (DegreeSequence(8, 3, (10,) * 4 + (11,) * 4),
                DegreeSequence(10, 3, (12,) * 9 + (9,)))
    for t in QuadrantTransform
]
CASES = BASE + IMAGES


def case_id(seq):
    return f"{seq.n}-{seq.r}-{'.'.join(map(str, sorted(set(seq.degrees))))}"


def route_values(seq):
    report = solve(seq)
    return report, estimate_general(seq).ln_value


def colex_values(seq):
    # an instance fixes its route when first derived, so the forced route
    # needs an instance built inside the forcing context
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VertexClasses, "route",
                   classmethod(lambda cls, grouped, r: cls.singletons(grouped.n)))
        report, ln = route_values(DegreeSequence(seq.n, seq.r, seq.degrees))
    assert report.field.classes.k == seq.n
    return report, ln


def assert_routes_agree(seq):
    report, ln = route_values(seq)
    report0, ln0 = colex_values(seq)
    beta, sums = report.beta_star, report.field.vertex_sums
    beta0, sums0 = report0.beta_star, report0.field.vertex_sums
    assert np.abs(beta - beta0).max() <= RTOL * max(1.0, np.abs(beta0).max())
    assert np.abs(sums - sums0).max() <= RTOL * max(1.0, np.abs(sums0).max())
    assert abs(ln - ln0) <= RTOL * max(1.0, abs(ln0))


@pytest.mark.parametrize("seq", CASES, ids=case_id)
def test_class_route_agrees_with_colex_route(seq):
    assert seq.params.classes.k == len(set(seq.degrees)) < seq.n
    assert_routes_agree(seq)


def test_agreement_check_fails_when_one_multiplicity_is_off_by_one(monkeypatch):
    seq = DegreeSequence(8, 3, (10,) * 4 + (11,) * 4)
    real = fields._multiplicities

    def one_more(idx, table, cap):
        out = real(idx, table, cap)
        out[0] += 1.0
        return out

    monkeypatch.setattr(fields, "_multiplicities", one_more)
    with pytest.raises(AssertionError):
        assert_routes_agree(seq)


@pytest.mark.parametrize("n,r,sizes", [
    (8, 3, (4, 4)), (10, 3, (9, 1)), (12, 4, (3, 1, 5, 2, 1)), (7, 2, (1, 6)),
    (9, 5, (2, 2, 2, 3)), (60, 4, (15, 15, 15, 15)),
])
def test_class_sweep_equals_the_subset_sweep_at_the_same_beta(n, r, sizes):
    rng = np.random.default_rng(n * r)
    index = np.repeat(np.arange(len(sizes)), sizes)
    rng.shuffle(index)
    first = np.array([np.flatnonzero(index == i)[0] for i in range(len(sizes))])
    classes = VertexClasses(index, np.array(sizes), first)
    values = rng.normal(scale=0.5, size=len(sizes)) - 0.4
    beta = values[index]
    got = field_summary(values, n, r, classes=classes)
    want = field_summary(beta, n, r)
    assert np.allclose(got.vertex_sums, want.vertex_sums, rtol=RTOL, atol=0)
    assert np.allclose(got.pair_weights, want.pair_weights, rtol=RTOL, atol=0)
    assert got.avg_lambda == pytest.approx(want.avg_lambda, rel=RTOL)
    assert got.big_lambda == pytest.approx(want.big_lambda, rel=RTOL)
    assert got.entropy == pytest.approx(want.entropy, rel=RTOL)
    assert weight_logdet(got) == pytest.approx(logdet_pd(0.5 * want.pair_weights), rel=RTOL)


@pytest.mark.parametrize("n,r", [(6, 3), (9, 4), (30, 3), (1000, 4)])
def test_one_class_reproduces_the_regular_closed_form(n, r):
    cap = math.comb(n - 1, r - 1)
    d = next(d for d in range(int(0.4 * cap), cap) if n * d % r == 0)
    seq = DegreeSequence(n, r, (d,) * n)
    report = solve(seq)
    assert report.field.classes.k == 1
    _, _, logdet = regular_closed_form(derive(seq))
    assert weight_logdet(report.field) == pytest.approx(logdet, rel=RTOL)


@pytest.mark.parametrize("k,r", [(1, 3), (3, 1), (4, 3), (5, 4), (2, 0)])
def test_multisets_in_order(k, r, monkeypatch):
    monkeypatch.setattr(subsets, "CHUNK", 7)
    rows = np.concatenate(list(iter_multisets(k, r)))
    assert rows.shape == (math.comb(k + r - 1, r), r)
    want = sorted(combinations_with_replacement(range(k), r),
                  key=lambda row: tuple(reversed(row)))
    assert [tuple(row) for row in rows.tolist()] == want


def test_route_choice_and_budget_count_compositions(monkeypatch):
    seq = DegreeSequence(8, 3, (10,) * 4 + (11,) * 4)
    classes = seq.params.classes
    assert (classes.k, classes.rows(3)) == (2, 4)
    monkeypatch.setenv("HYPERDEG_BUDGET", "4")
    solve(seq)
    monkeypatch.setenv("HYPERDEG_BUDGET", "3")
    with pytest.raises(BudgetExceeded, match="enumeration of 4 subsets"):
        solve(seq)
    # all-distinct degrees, and k < n with more compositions than subsets
    for degrees in ((1, 2, 3, 4, 5, 6, 7, 8, 9), (3, 3, 4, 5, 6, 7, 8, 9, 9)):
        classes = DegreeSequence(9, 3, degrees).params.classes
        assert classes.k == 9
        assert np.array_equal(classes.index, np.arange(9))
    # C(2000, 200) is beyond what the class sums can hold in float64
    assert DegreeSequence(2000, 200, (7,) * 2000).params.classes.k == 2000
    assert DegreeSequence(2000, 20, (7,) * 2000).params.classes.k == 1


def test_seed_that_splits_a_class_is_rejected():
    seq = DegreeSequence(8, 3, (10,) * 4 + (11,) * 4)
    seed = np.linspace(-0.5, -0.2, 8)
    with pytest.raises(ValueError, match="equal degree"):
        solve(seq, seed_beta=seed)
    # the same seed read on the degree classes stays on the class route
    report = solve(seq, seed_beta=seed[[0, 0, 0, 0, 4, 4, 4, 4]])
    assert report.field.classes.k == 2
    # another path to the same solution, within the solve tolerance
    assert np.abs(report.beta_star - solve(seq).beta_star).max() <= 1e-9


def test_expanding_class_blocks_is_held_to_the_subset_budget(tmp_path, monkeypatch):
    seq = near_regular(40, 3, 3)
    monkeypatch.setenv("HYPERDEG_BUDGET", "1600")
    field = solve(seq).field
    assert field.classes.k < 40
    assert field.pair_weights.shape == (40, 40)
    monkeypatch.setenv("HYPERDEG_BUDGET", "1599")
    field = solve(seq).field
    with pytest.raises(BudgetExceeded, match="1600 entries"):
        field.pair_weights
    text = json.dumps(seq.to_json_dict())
    matrix = tmp_path / "matrix.csv"
    for extra in (["--dump-field"], ["--dump-matrix", str(matrix)]):
        code, out, err = invoke(["solve", "--input", text] + extra)
        assert code == 4, extra
        assert out == ""
        assert err.splitlines()[-1].startswith("error: expanding")
    assert not matrix.exists()


@pytest.mark.parametrize("name", ["distinct16", "distinct20"])
@pytest.mark.parametrize("command", ["solve", "count", "audit"])
def test_all_distinct_degrees_print_the_recorded_bytes(name, command):
    argv = {"solve": ["solve"], "count": ["count", "--method", "general"],
            "audit": ["audit"]}[command]
    text = json.dumps(RECORDED["instances"][name])
    code, out, _ = invoke(argv + ["--input", text])
    assert code == 0
    assert out == RECORDED["stdout"][name][command]


@pytest.mark.parametrize("command", ["solve", "count", "audit"])
def test_skew6_moves_only_at_rounding_level(command):
    # skew6 has k = 3 distinct degrees, so it now takes the class route; the
    # all-distinct instances keep their route and are held to the bytes they
    # printed while the Cholesky and the Newton step ran through scipy
    argv = {"solve": ["solve"], "count": ["count", "--method", "general"],
            "audit": ["audit"]}[command]
    recorded = {
        "skew6": (str(INSTANCES / "skew6.json"), RECORDED["stdout"]["skew6"]),
        **{name: (json.dumps(RECORDED["instances"][name]), stdout)
           for name, stdout in RECORDED["stdout_scipy_linalg"].items()},
    }

    def numbers(value):
        if isinstance(value, dict):
            return [x for v in value.values() for x in numbers(v)]
        if isinstance(value, list):
            return [x for v in value for x in numbers(v)]
        return [] if isinstance(value, (bool, str)) else [value]

    for name, (instance, stdout) in recorded.items():
        code, out, _ = invoke(argv + ["--input", instance])
        assert code == 0
        got = numbers(json.loads(out))
        want = numbers(json.loads(stdout[command]))
        assert len(got) == len(want)
        scale = max(1.0, max(abs(x) for x in want))
        assert all(abs(a - b) <= RTOL * scale for a, b in zip(got, want)), name


@pytest.mark.parametrize("seed", ["1", "7", "61"])
def test_selftest_identities_prints_the_recorded_bytes(seed):
    code, out, _ = invoke(["selftest", "identities", "--seed", seed])
    assert code == 0
    assert out == RECORDED["selftest_identities"][seed]


@pytest.mark.parametrize("r", [3, 4])
def test_solve_and_general_count_at_a_hundred_thousand_vertices(r, tmp_path):
    seq = near_regular(10**5, r, 5)
    assert len(set(seq.degrees)) <= 6
    path = tmp_path / "large.json"
    path.write_text(json.dumps(seq.to_json_dict()))
    for argv in (["solve"], ["count", "--method", "general"]):
        start = time.perf_counter()
        code, out, err = invoke(argv + ["--input", str(path)])
        elapsed = time.perf_counter() - start
        assert code == 0, err
        assert elapsed < 2.0, (argv, elapsed)
        payload = json.loads(out)
        if argv == ["solve"]:
            assert payload["converged"] is True
            assert len(payload["beta"]) == 10**5
        else:
            assert math.isfinite(payload["ln"])


BEYOND_INT64 = json.loads((ROOT / "tests" / "data" / "beyond_int64_stdout.json").read_text())


@pytest.mark.parametrize("method", ["general", "near-regular", "corollary"])
def test_degrees_beyond_int64_print_the_recorded_bytes(method):
    # C(9999, 6) > 2^63: the degrees are tabulated as Python ints
    spec = BEYOND_INT64["instance"]
    seq = near_regular(spec["n"], spec["r"], spec["seed"], spec["lam"], spec["spread"])
    assert seq.degree_cap > 2**63 and seq.params.classes.k == 5
    code, out, err = invoke(["count", "--method", method,
                             "--input", json.dumps(seq.to_json_dict())])
    assert code == 0, err
    assert out == BEYOND_INT64["stdout"][method]


def test_degree_classes_start_at_the_least_vertex_of_each_degree():
    # shuffled repeats, and the beyond-int64 instance, whose degrees are
    # tabulated in an object array
    spec = BEYOND_INT64["instance"]
    wide = near_regular(spec["n"], spec["r"], spec["seed"], spec["lam"], spec["spread"])
    for seq in (DegreeSequence(12, 3, (7, 5, 9, 5, 7, 7, 9, 5, 6, 6, 9, 6)), wide):
        classes = derive(seq).classes
        distinct = sorted(set(seq.degrees))
        assert 1 < classes.k == len(distinct) < seq.n
        assert classes.index.tolist() == [distinct.index(d) for d in seq.degrees]
        assert classes.sizes.tolist() == [seq.degrees.count(d) for d in distinct]
        assert classes.first.tolist() == [seq.degrees.index(d) for d in distinct]


def test_each_instance_is_derived_once(monkeypatch):
    seq = DegreeSequence(8, 3, (10,) * 4 + (11,) * 4)
    assert seq.params is seq.params
    calls = []
    real = core.derive

    def counted(instance):
        calls.append(instance)
        return real(instance)

    monkeypatch.setattr(core, "derive", counted)
    text = json.dumps(seq.to_json_dict())
    # one instance in the first quadrant, then the four quadrant images
    for argv, passes in ((["count", "--method", "general"], 1), (["audit"], 4)):
        calls.clear()
        code, _, err = invoke(argv + ["--input", text])
        assert code == 0, err
        assert len(calls) == passes, argv


def test_audit_at_a_hundred_thousand_vertices_exits_four(tmp_path):
    path = tmp_path / "large.json"
    path.write_text(json.dumps(near_regular(10**5, 3, 5).to_json_dict()))
    code, out, err = invoke(["audit", "--input", str(path)])
    assert code == 4
    assert out == ""
    assert err.splitlines()[-1] == (
        "error: enumeration of 166661666700000 subsets exceeds budget 100000000"
    )
    assert "Traceback" not in err


def test_symmetry_audit_on_the_class_route():
    seq = DegreeSequence(8, 3, (10,) * 4 + (11,) * 4)
    audit = symmetry_audit(seq)
    assert audit.max_ln_gap <= 1e-10 * max(abs(v) for v in audit.ln_values.values())
    for check in audit.det_ratio_checks.values():
        assert check["rel_gap"] <= 1e-10


@pytest.mark.parametrize("name", ["distinct16", "distinct20"])
def test_bound_suites_read_the_solve_field_bit_for_bit_at_k_equal_n(name):
    seq = DegreeSequence.from_json_dict(RECORDED["instances"][name])
    report = solve(seq)
    assert report.field.classes.k == seq.n
    delta_hat = max(report.spread * seq.r, 1e-6)
    fresh = field_summary(report.beta_star, seq.n, seq.r)
    got, want = bound_suite(report.field, delta_hat), bound_suite(fresh, delta_hat)
    assert got.checks == want.checks
    assert got.measured_inverse_constant == want.measured_inverse_constant
    assert got.measured_offdiag_constant == want.measured_offdiag_constant
    assert (check_weight_ratio_bounds(report.field, delta_hat)
            == check_weight_ratio_bounds(fresh, delta_hat))


def solved_suite_input(seq):
    report = solve(seq)
    return report.field, max(report.spread * seq.r, 1e-6)


def singleton_fields():
    yield from (solved_suite_input(DegreeSequence.from_json_dict(RECORDED["instances"][name]))
                for name in ("distinct16", "distinct20"))
    rng = np.random.default_rng(30)
    for n in (8, 9, 10):
        for r in (3, 4):
            delta_hat = float(rng.uniform(0.05, 1.0))
            beta = rng.uniform(-1.0, 0.1) + rng.uniform(
                -delta_hat / (2 * r), delta_hat / (2 * r), size=n)
            yield field_summary(beta, n, r), delta_hat


def test_class_form_bound_suite_has_the_bits_of_the_dense_one_on_singletons():
    for field, delta_hat in singleton_fields():
        assert field.classes.k == field.n
        got = bound_suite(field, delta_hat)
        assert "skipped" not in {c.status for c in got.checks}
        assert got == dense_bound_suite(field, delta_hat)


@pytest.mark.parametrize("seq", [
    load("skew6.json"), load("near8.json"),
    near_regular(12, 3, 1), near_regular(20, 4, 1), near_regular(30, 5, 1),
], ids=case_id)
def test_class_form_bound_suite_matches_the_dense_one_on_classes(seq):
    field, delta_hat = solved_suite_input(seq)
    assert field.classes.k < seq.n
    got, want = bound_suite(field, delta_hat), dense_bound_suite(field, delta_hat)
    assert [c.status for c in got.checks] == [c.status for c in want.checks]
    assert "skipped" not in {c.status for c in got.checks}
    for a, b in zip(got.checks, want.checks):
        # the row identity's slack is 1e-10 max diag less a rounding residue
        tol = 1e-12 * (field.class_variance.max() / 2 if a.name == "row-identity"
                       else abs(b.slack))
        assert abs(a.slack - b.slack) <= tol, a.name
    for name in ("measured_inverse_constant", "measured_offdiag_constant"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0)


def test_class_form_bound_suite_builds_nothing_n_by_n(monkeypatch):
    n, r = 200, 3
    index = np.repeat([0, 1], n // 2)
    classes = VertexClasses(index, np.array([n // 2, n // 2]), np.array([0, n // 2]))
    field = field_summary(np.array([-0.5, -0.4]), n, r, classes=classes)
    want = dense_bound_suite(field, 0.3)
    monkeypatch.setenv("HYPERDEG_BUDGET", str(n * n - 1))

    def refuse(self):
        raise AssertionError("the n x n weight matrix was built")

    monkeypatch.setattr(fields.FieldSummary, "pair_weights", property(refuse))
    got = bound_suite(field, 0.3)
    assert [c.status for c in got.checks] == [c.status for c in want.checks]
    assert "skipped" not in {c.status for c in got.checks}
    assert got.measured_inverse_constant == pytest.approx(
        want.measured_inverse_constant, rel=1e-12, abs=0)


def two_class_audit_input(n):
    """Near-regular degrees at r = 4 with two distinct values, half each."""
    d = int(0.3 * math.comb(n - 1, 3))
    return json.dumps({"n": n, "r": 4, "degrees": [d] * (n // 2) + [d + 4] * (n - n // 2)})


def test_two_class_audit_enumerates_far_fewer_rows_than_its_subsets(monkeypatch):
    # the bound checks read the solves' own class fields, so no pass visits
    # the C(80, 4) = 1,581,580 subsets
    rows = []
    real = fields.class_chunks

    def counted(classes, r):
        for chunk in real(classes, r):
            rows.append(len(chunk[0]))
            yield chunk

    monkeypatch.setattr(fields, "class_chunks", counted)
    code, out, err = invoke(["audit", "--input", two_class_audit_input(80)])
    assert code == 0, err
    assert "fail" not in {c["status"] for c in json.loads(out)["weight_ratio_checks"]}
    assert 0 < sum(rows) < math.comb(80, 4) // 1000


# VmHWM is the peak resident size of this process image; getrusage's
# ru_maxrss would also carry the forking test process's peak across exec
PEAK_RSS = """
import sys
from hyperdeg.cli import run
code = run(sys.argv[1:])
with open("/proc/self/status") as status:
    sys.stderr.write([line for line in status if line.startswith("VmHWM:")][0])
sys.exit(code)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
@pytest.mark.parametrize("n", [80, 120])
def test_two_class_audit_runs_in_little_memory(n):
    # the dense C(n, r) x n incidence matrix of the former ratio checks took
    # over 1 GB at (80, 4) and would take 7.9 GB at (120, 4)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, "audit", "--input", two_class_audit_input(n)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stderr.split("VmHWM:")[-1].split()[0]) / 1024
    assert peak_mb < 300, peak_mb
