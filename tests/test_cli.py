import dataclasses
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperdeg
from hyperdeg import cli
from hyperdeg.cli import render_json, run
from hyperdeg.fields import FieldSummary

INSTANCES = Path(__file__).resolve().parent.parent / "demos" / "instances"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_count_exact_prints_decimal_integer():
    code, out, _ = invoke(
        ["count", "--input", str(INSTANCES / "reg6.json"), "--method", "exact"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"method": "exact", "count": 1044}
    assert '"count": 1044' in out  # decimal integer, not a float


def test_bad_parity_exits_two_and_names_the_violation():
    code, _, err = invoke(
        ["solve", "--input", str(INSTANCES / "bad-parity.json")]
    )
    assert code == 2
    assert "divide" in err


def test_count_near_regular_json_fields():
    code, out, _ = invoke(
        ["count", "--input", str(INSTANCES / "reg6.json"), "--method",
         "near-regular"]
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"ln", "log10", "method", "error_terms", "flags"}
    assert payload["ln"] == pytest.approx(7.426810420097436, abs=1e-12)
    assert payload["log10"] == pytest.approx(payload["ln"] / math.log(10))


def test_solve_json_contract():
    code, out, _ = invoke(["solve", "--input", str(INSTANCES / "skew6.json")])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"beta", "residual_inf", "iterations", "converged", "seed"}
    assert payload["converged"] is True
    assert len(payload["beta"]) == 6


def test_inline_json_input():
    code, out, _ = invoke(
        ["count", "--input", '{"n":4,"r":3,"degrees":[2,2,1,1]}',
         "--method", "exact"]
    )
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_count_exact_on_a_thousand_subsets():
    # C(14, 4) = 1001 colex positions; 12!/(4!^3 3!) perfect matchings
    code, out, _ = invoke(
        ["count", "--method", "exact", "--input",
         '{"n":14,"r":4,"degrees":[1,1,1,1,1,1,1,1,1,1,1,1,0,0]}']
    )
    assert code == 0
    assert json.loads(out)["count"] == 5775


def test_quadrature_method():
    code, out, _ = invoke(
        ["count", "--input", str(INSTANCES / "tiny4.json"), "--method", "quadrature"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(1.0, abs=1e-9)
    assert payload["points_per_axis"] == 4  # C(3, 2) + 1


def test_models_command():
    code, out, _ = invoke(
        ["models", "--input", str(INSTANCES / "tiny4.json"),
         "--compare", "d-vs-t,b-vs-d"]
    )
    assert code == 0
    payload = json.loads(out)
    pairs = {row["pair"]: row for row in payload["comparisons"]}
    assert pairs["d-vs-t"]["d_model"] == "D-exact"
    assert math.isfinite(pairs["b-vs-d"]["measured_ln_ratio"])


def test_models_falls_back_to_asymptotic_beyond_budget(monkeypatch):
    monkeypatch.setenv("HYPERDEG_BUDGET", "1000")
    code, out, _ = invoke(
        ["models", "--input", str(INSTANCES / "near8.json"), "--compare", "d-vs-t"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["comparisons"][0]["d_model"] == "D-asymptotic"


def test_models_counts_the_instance_once_for_all_pairs(monkeypatch):
    from hyperdeg import models, oracle
    from hyperdeg.cli import load_instance

    path = str(INSTANCES / "reg6.json")
    seq = load_instance(path)
    pairs = ("d-vs-t", "b-vs-d", "klw")
    one_by_one = [models.measured_ratio(seq, pair) for pair in pairs]
    calls = []
    original = oracle._count_sparse

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(oracle, "_count_sparse", counted)
    code, out, _ = invoke(["models", "--input", path, "--compare", ",".join(pairs)])
    assert code == 0
    assert len(calls) == 1
    rows = json.loads(out)["comparisons"]
    assert [row["d_model"] for row in rows] == ["D-exact"] * 3
    assert [row["measured_ln_ratio"] for row in rows] == one_by_one


def test_models_falls_back_once_for_all_pairs(monkeypatch):
    from hyperdeg import oracle

    calls = []
    original = oracle.exact_count

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(oracle, "exact_count", counted)
    monkeypatch.setenv("HYPERDEG_BUDGET", "1000")
    code, out, _ = invoke(
        ["models", "--input", str(INSTANCES / "near8.json"),
         "--compare", "d-vs-t,b-vs-d,klw"]
    )
    assert code == 0
    assert len(calls) == 1
    rows = json.loads(out)["comparisons"]
    assert [row["d_model"] for row in rows] == ["D-asymptotic"] * 3


def test_models_reports_the_normalizer_that_produced_t(monkeypatch):
    # the 8-fold convolution power of the 22-entry pmf is charged 16,384
    # operations, over the budget, so T falls back to clt
    monkeypatch.setenv("HYPERDEG_BUDGET", "1000")
    code, out, _ = invoke(
        ["models", "--input", str(INSTANCES / "near8.json"),
         "--compare", "d-vs-t,b-vs-d,klw"]
    )
    assert code == 0
    rows = {row["pair"]: row for row in json.loads(out)["comparisons"]}
    assert rows["d-vs-t"]["normalizer"] == "clt"
    assert rows["b-vs-d"]["normalizer"] == "dp"
    assert rows["klw"]["normalizer"] == "dp"


def test_sample_csv_shape(tmp_path):
    path = tmp_path / "samples.csv"
    code, out, _ = invoke(
        ["sample", "-n", "6", "-r", "3", "-m", "10", "--seed", "42",
         "--count", "5", "--csv", str(path)]
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "d_1,d_2,d_3,d_4,d_5,d_6"
    assert len(lines) == 6
    for line in lines[1:]:
        values = [int(x) for x in line.split(",")]
        assert sum(values) == 30
        assert all(0 <= d <= math.comb(5, 2) for d in values)


def test_sample_stdout_matches_csv(tmp_path):
    args = ["sample", "-n", "5", "-r", "3", "-m", "4", "--seed", "9",
            "--count", "3"]
    _, out, _ = invoke(args)
    path = tmp_path / "s.csv"
    invoke(args + ["--csv", str(path)])
    assert out == path.read_text()


SAMPLE_12_4_100_SEED3 = """\
d_1,d_2,d_3,d_4,d_5,d_6,d_7,d_8,d_9,d_10,d_11,d_12
35,28,33,35,31,31,35,35,34,36,33,34
32,30,34,33,33,41,32,31,34,32,35,33
27,35,32,34,37,33,35,38,30,38,32,29
37,43,31,33,34,25,27,31,39,34,30,36
29,34,33,28,24,35,33,33,32,40,42,37
"""


def test_sample_stdout_is_pinned():
    # the recorded streams: a change to the draws or their order shows here;
    # 1030 samples cross the boundary between the first two spawned streams
    code, out, _ = invoke(["sample", "-n", "12", "-r", "4", "-m", "100",
                           "--seed", "3", "--count", "5"])
    assert code == 0
    assert out == SAMPLE_12_4_100_SEED3
    code, out, _ = invoke(["sample", "-n", "6", "-r", "3", "-m", "10",
                           "--seed", "7", "--count", "1030"])
    assert code == 0
    assert len(out.splitlines()) == 1031
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b765b26e3162769b53b997abcce1a79cd8542af84ee9e20d6a57a07984b67594"
    )


MODELS_RECORDED = json.loads(
    (Path(__file__).resolve().parent / "data" / "models_stdout.json").read_text())


@pytest.mark.parametrize("name", sorted(MODELS_RECORDED["models"]))
def test_models_prints_the_recorded_bytes_on_each_demo_instance(name):
    code, out, err = invoke(["models", "--compare", MODELS_RECORDED["compare"],
                             "--input", str(INSTANCES / name)])
    assert code == 0, err
    assert out == MODELS_RECORDED["models"][name]


def test_models_prints_the_recorded_bytes_where_t_convolves_further():
    # every instance file the command accepts is pinned, and two inline
    # instances whose dp normalizer convolves 14 and 20 degrees
    accepted = {p.name for p in INSTANCES.glob("*.json")} - {"bad-parity.json"}
    assert set(MODELS_RECORDED["models"]) == accepted
    for text, want in MODELS_RECORDED["inline"].items():
        code, out, err = invoke(["models", "--compare", MODELS_RECORDED["compare"],
                                 "--input", text])
        assert code == 0, err
        assert out == want


@pytest.mark.parametrize("case", MODELS_RECORDED["sample"], ids=lambda c: " ".join(c["argv"]))
def test_sample_prints_the_recorded_bytes(case):
    # (12, 4) gathers its subsets from the shared table, (20, 4) is above it
    code, out, err = invoke(["sample", *case["argv"]])
    assert code == 0, err
    assert len(out.splitlines()) == case["lines"]
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


def test_sample_charges_its_ranks_to_the_subset_budget(monkeypatch):
    # 10^10 ranks for one sample refuse before any draw, not in an allocation
    code, out, err = invoke(["sample", "-n", "40", "-r", "20", "-m", "10000000000",
                             "--count", "1", "--seed", "1"])
    assert code == 4
    assert out == ""
    assert err.splitlines()[-1] == "error: enumeration of 10000000000 subsets exceeds budget 100000000"
    # count x m' ranks, m' = min(m, C(n, r) - m): 3 x 6 at (6, 3, 14)
    argv = ["sample", "-n", "6", "-r", "3", "-m", "14", "--count", "3", "--seed", "1"]
    monkeypatch.setenv("HYPERDEG_BUDGET", "18")
    assert invoke(argv)[0] == 0
    monkeypatch.setenv("HYPERDEG_BUDGET", "17")
    code, out, err = invoke(argv)
    assert code == 4 and out == ""
    assert "enumeration of 18 subsets exceeds budget 17" in err


@pytest.mark.parametrize("argv, message", [
    (["-n", "70", "-r", "35", "-m", "2"], "C(n, r) = 112186277816662845432"),
    (["-n", "0", "-r", "0", "-m", "1"], "need n >= 2"),
    (["-n", "1", "-r", "1", "-m", "0"], "need n >= 2"),
    (["-n", "3", "-r", "5", "-m", "0"], "1 <= r <= n-1"),
    (["-n", "6", "-r", "0", "-m", "0"], "1 <= r <= n-1"),
    (["-n", "6", "-r", "6", "-m", "1"], "1 <= r <= n-1"),
    (["-n", "6", "-r", "3", "-m", "21"], "0 <= m <= C(n, r) = 20"),
    (["-n", "6", "-r", "3", "-m", "-1"], "0 <= m <= C(n, r) = 20"),
    # an empty batch is validated like any other
    (["-n", "6", "-r", "3", "-m", "99", "--count", "0"], "0 <= m <= C(n, r) = 20"),
    (["-n", "-3", "-r", "1", "-m", "0", "--count", "0"], "need n >= 2"),
])
def test_sample_rejects_bad_inputs_with_exit_two(argv, message):
    code, out, err = invoke(["sample", *argv, "--seed", "1"])
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("error: ")
    assert message in err
    assert "Traceback" not in err


def test_audit_command():
    code, out, _ = invoke(["audit", "--input", str(INSTANCES / "skew6.json")])
    assert code == 0
    payload = json.loads(out)
    assert payload["quadrants"]["max_ln_gap"] <= 1e-8
    statuses = {c["status"] for c in payload["matrix_checks"]}
    assert "fail" not in statuses


def test_audit_within_budget_for_subsets_not_for_pairs():
    # C(24, 4) = 10,626 subsets fit the default budget of 10^8, while the
    # C(24, 4)^2 = 1.13e8 subset pairs would not
    degrees = [300 + 25 * j for j in range(24)]
    text = json.dumps({"n": 24, "r": 4, "degrees": degrees})
    code, out, err = invoke(["audit", "--input", text])
    assert code == 0, err
    checks = {c["name"]: c for c in json.loads(out)["weight_ratio_checks"]}
    assert checks["pair-ratio-lambda"]["status"] == "pass"
    assert checks["pair-ratio-complement"]["status"] == "pass"


def test_audit_solves_the_base_instance_once(sweeps, monkeypatch):
    from hyperdeg import cli, counts, solver

    solves = []

    def counted(caller):
        def call(*args, **kwargs):
            before = len(sweeps)
            report = solver.solve(*args, **kwargs)
            solves.append((caller, "seed_beta" in kwargs, len(sweeps) - before))
            return report
        return call

    monkeypatch.setattr(cli, "solve", counted("cli"))
    monkeypatch.setattr(counts, "solve", counted("counts"))
    code, _, _ = invoke(["audit", "--input", str(INSTANCES / "skew6.json")])
    assert code == 0
    # cmd_audit's solve sweeps the base instance; the audit's base solve hits
    # the slot, and each other quadrant image gets one seeded solve
    assert [s[:2] for s in solves] == (
        [("cli", False), ("counts", False)] + [("counts", True)] * 3)
    made = [s[2] for s in solves]
    assert made[0] > 0 and made[1] == 0 and len(sweeps) == sum(made)


def test_over_budget_audit_refuses_before_any_solve(monkeypatch):
    # audit's one up-front rule: all C(30, 2) = 435 subsets fit the budget.
    # The bound suite reads the 2x2 class blocks, so the 30x30 weight
    # matrix is charged nowhere.
    text = json.dumps({"n": 30, "r": 2, "degrees": [10] * 15 + [12] * 15})
    solved = []
    real = cli.solve
    monkeypatch.setattr(cli, "solve", lambda *a, **k: solved.append(a) or real(*a, **k))
    monkeypatch.setenv("HYPERDEG_BUDGET", "400")
    code, out, err = invoke(["audit", "--input", text])
    assert (code, out) == (4, "")
    assert err.splitlines()[-1] == "error: enumeration of 435 subsets exceeds budget 400"
    assert solved == []
    monkeypatch.setenv("HYPERDEG_BUDGET", "500")
    code, out, err = invoke(["audit", "--input", text])
    assert code == 0, err
    assert len(solved) == 1
    assert "fail" not in {c["status"] for c in json.loads(out)["matrix_checks"]}


def test_an_allocation_that_fails_exits_four_without_a_traceback(monkeypatch):
    def starved(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.34 GiB for an array")

    monkeypatch.setattr(cli, "solve", starved)
    code, out, err = invoke(["audit", "--input", str(INSTANCES / "skew6.json")])
    assert (code, out) == (4, "")
    assert err.splitlines()[-1] == (
        "error: out of memory: Unable to allocate 1.34 GiB for an array"
    )
    assert "Traceback" not in err


def test_selftest_commands():
    for suite in ("identities", "bounds", "oracle"):
        code, out, _ = invoke(["selftest", suite, "--trials", "5"])
        assert code == 0, (suite, out)


def test_unknown_method_exits_two():
    code, _, err = invoke(
        ["count", "--input", str(INSTANCES / "tiny4.json"), "--method", "exact"]
    )
    assert code == 0
    for tol in ("-1", "0", "nan", "inf"):
        code, out, err = invoke(
            ["solve", "--input", str(INSTANCES / "tiny4.json"), "--tol", tol]
        )
        assert (code, out) == (2, ""), tol
        assert "error: tol must be positive and finite" in err


def test_budget_exceeded_exits_four(monkeypatch):
    monkeypatch.setenv("HYPERDEG_BUDGET", "10")
    code, _, err = invoke(
        ["count", "--input", str(INSTANCES / "reg6.json"), "--method", "exact"]
    )
    assert code == 4
    assert "budget" in err.lower()
    monkeypatch.delenv("HYPERDEG_BUDGET")
    # 16^7 quadrature grid points, each evaluating C(7, 3) = 35 subset factors
    code, out, err = invoke(
        ["count", "--method", "quadrature",
         "--input", '{"n": 7, "r": 3, "degrees": [6, 6, 6, 6, 6, 6, 6]}']
    )
    assert (code, out) == (4, "")
    assert "enumeration of 9395240960 subsets exceeds budget" in err


def test_nonconvergence_exits_three():
    # degree 0 forces the corresponding weight sums toward zero, which no
    # finite parameter vector reaches
    code, _, err = invoke(
        ["solve", "--input", '{"n":6,"r":3,"degrees":[6,6,6,6,6,0]}']
    )
    assert code == 3
    # (2,2,1,1) is an extreme point of the expected-degree region at r=3:
    # realizable, but with no interior solution in its own frame
    code, _, _ = invoke(["solve", "--input", str(INSTANCES / "tiny4.json")])
    assert code == 3


@pytest.mark.parametrize("argv", [["solve"], ["count", "--method", "general"], ["audit"]])
def test_an_interior_instance_solves_from_the_regular_seed(argv):
    # LP margin 0.05 and exact count 810: an interior instance, so it has a
    # solution, though one far enough from the regular point that a
    # near-regular expansion seed overshot it past the spread guard
    text = '{"n":7,"r":3,"degrees":[7,11,12,12,12,12,12]}'
    code, out, err = invoke(argv + ["--input", text])
    assert code == 0, err
    payload = json.loads(out)
    if argv == ["solve"]:
        assert payload["converged"] and payload["seed"] == "regular"
    if argv[0] == "count":
        assert payload["ln"] == pytest.approx(7.32296817642833, rel=1e-9)


def test_solve_takes_no_seed_option():
    out, err = io.StringIO(), io.StringIO()
    argv = ["solve", "--seed", "regular", "--input", str(INSTANCES / "skew6.json")]
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        run(argv)
    assert (exc.value.code, out.getvalue()) == (2, "")
    assert "unrecognized arguments: --seed regular" in err.getvalue()


def test_warnings_go_to_stderr_not_stdout():
    code, out, err = invoke(
        ["count", "--input", str(INSTANCES / "tiny4.json"), "--method",
         "near-regular"]
    )
    assert code == 0
    assert "warning" in err
    assert "warning" not in out
    json.loads(out)  # stdout stays valid JSON


def test_byte_identical_output_across_thread_counts():
    commands = []
    for name in ("reg6.json", "skew6.json", "near8.json"):
        path = str(INSTANCES / name)
        commands.append(["count", "--input", path, "--method", "near-regular"])
        commands.append(["solve", "--input", path])
        commands.append(["models", "--input", path, "--compare", "d-vs-t"])
    # the boundary instance has no interior solution in its own frame, so
    # it joins through the routes that canonicalize internally
    commands.append(
        ["count", "--input", str(INSTANCES / "tiny4.json"), "--method", "general"]
    )
    commands.append(
        ["models", "--input", str(INSTANCES / "tiny4.json"), "--compare", "d-vs-t"]
    )
    for argv in commands:
        outputs = set()
        for threads in ("1", "2", "8"):
            code, out, _ = invoke(["--threads", threads] + argv)
            assert code == 0, argv
            outputs.add(out)
        assert len(outputs) == 1, argv


def test_solve_dump_field_and_matrix(tmp_path):
    matrix_path = tmp_path / "weights.csv"
    code, out, _ = invoke(
        ["solve", "--input", str(INSTANCES / "reg6.json"), "--dump-field",
         "--dump-matrix", str(matrix_path)]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["field"]["avg_lambda"] == pytest.approx(0.5)
    assert payload["field"]["vertex_sums"] == [5.0] * 6
    rows = [line.split(",") for line in matrix_path.read_text().strip().splitlines()]
    assert len(rows) == 6 and all(len(r) == 6 for r in rows)
    assert float(rows[0][0]) == pytest.approx(1.25)
    assert float(rows[0][1]) == pytest.approx(0.5)


def test_env_budget_override(monkeypatch):
    monkeypatch.setenv("HYPERDEG_BUDGET", "10")
    code, _, err = invoke(
        ["count", "--input", str(INSTANCES / "reg6.json"), "--method", "exact"]
    )
    assert code == 4
    assert "budget" in err.lower()
    assert "[HYPERDEG_BUDGET=10]" in err  # echoed so the run is reproducible
    monkeypatch.delenv("HYPERDEG_BUDGET")
    code, out, _ = invoke(
        ["count", "--input", str(INSTANCES / "reg6.json"), "--method", "exact"]
    )
    assert code == 0 and json.loads(out)["count"] == 1044


@pytest.mark.parametrize("raw", ["abc", "0", "inf", "-5", "nan", "0.5"])
def test_malformed_env_budget_exits_two(monkeypatch, raw):
    monkeypatch.setenv("HYPERDEG_BUDGET", raw)
    # near-regular reads no budget; the variable is checked before any work
    code, out, err = invoke(
        ["count", "--input", str(INSTANCES / "reg6.json"), "--method", "near-regular"]
    )
    assert code == 2
    assert out == ""
    assert "error: HYPERDEG_BUDGET" in err
    assert "Traceback" not in err


def test_env_budget_in_exponent_form(monkeypatch):
    monkeypatch.setenv("HYPERDEG_BUDGET", "1e3")
    code, _, err = invoke(
        ["count", "--input", str(INSTANCES / "reg6.json"), "--method", "exact"]
    )
    assert code == 4
    assert "exceeds budget 1000\n" in err
    code, out, _ = invoke(
        ["count", "--input", str(INSTANCES / "tiny4.json"), "--method", "exact"]
    )
    assert code == 0 and json.loads(out)["count"] == 1


def test_render_json_17_digit_floats():
    text = render_json({"x": 1 / 3, "y": [1, 2.5], "z": "s", "w": None})
    assert text == '{"x": 0.33333333333333331, "y": [1, 2.5], "z": "s", "w": null}'
    value = json.loads(text)
    assert value["x"] == 1 / 3  # round-trips exactly


def test_outputs_validate_against_shipped_schemas():
    import jsonschema

    schemas = Path(__file__).resolve().parent.parent / "src" / "hyperdeg" / "schemas"

    def validate(payload, name):
        schema = json.loads((schemas / name).read_text())
        jsonschema.validate(payload, schema)

    path = str(INSTANCES / "skew6.json")
    validate(json.loads((INSTANCES / "skew6.json").read_text()), "instance.json")
    _, out, _ = invoke(["solve", "--input", path])
    validate(json.loads(out), "solve_report.json")
    _, out, _ = invoke(["count", "--input", path, "--method", "near-regular"])
    validate(json.loads(out), "log_estimate.json")
    _, out, _ = invoke(["count", "--input", path, "--method", "exact"])
    validate(json.loads(out), "exact_count.json")
    _, out, _ = invoke(
        ["count", "--input", str(INSTANCES / "tiny4.json"), "--method", "quadrature"]
    )
    validate(json.loads(out), "quadrature.json")
    _, out, _ = invoke(["models", "--input", path, "--compare", "d-vs-t,klw"])
    validate(json.loads(out), "model_comparisons.json")
    # one class-route audit and one on singletons (all degrees distinct)
    _, out, _ = invoke(["audit", "--input", path])
    validate(json.loads(out), "audit.json")
    colex = '{"n": 8, "r": 3, "degrees": [4, 5, 6, 7, 8, 9, 10, 11]}'
    code, out, _ = invoke(["audit", "--input", colex])
    assert code == 0
    validate(json.loads(out), "audit.json")
    # exact count 0: the measured ratios print as the non-finite tokens
    zero = '{"n": 6, "r": 3, "degrees": [9, 3, 3, 3, 3, 3]}'
    _, out, _ = invoke(["models", "--input", zero])
    validate(json.loads(out), "model_comparisons.json")
    assert {row["measured_ln_ratio"] for row in json.loads(out)["comparisons"]} == {"nan", "-inf"}


@pytest.mark.parametrize("method", ["general", "corollary"])
def test_no_edge_complement_image_names_the_input_degree(method):
    # d_1 = 6 < m - C(n-1, r) = 12 - 5: the exact count is 0, and the
    # instance has no edge-complement image to canonicalize through
    instance = '{"n": 6, "r": 4, "degrees": [6, 8, 8, 8, 9, 9]}'
    code, out, _ = invoke(["count", "--method", "exact", "--input", instance])
    assert code == 0 and json.loads(out)["count"] == 0
    code, out, err = invoke(["count", "--method", method, "--input", instance])
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        "error: degree d_1=6 outside [m - C(n-1, r)=7, m=12]: "
        "no hypergraph has these degrees"
    )


@pytest.mark.parametrize("instance,message", [
    ('{"n": 6, "r": 3, "degrees": [9, 3, 3, 3, 3, 3]}',
     "degree d_1=9 outside [m - C(n-1, r)=-2, m=8]"),
    ('{"n": 6, "r": 4, "degrees": [6, 8, 8, 8, 9, 9]}',
     "degree d_1=6 outside [m - C(n-1, r)=7, m=12]"),
], ids=["above-m", "below-m-minus-complement"])
@pytest.mark.parametrize("method", ["general", "near-regular", "corollary"])
def test_every_estimate_refuses_degrees_no_hypergraph_has(instance, message, method):
    # exact count 0; the closed routes once printed an estimate for these
    code, out, _ = invoke(["count", "--method", "exact", "--input", instance])
    assert code == 0 and json.loads(out)["count"] == 0
    code, out, err = invoke(["count", "--method", method, "--input", instance])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"error: {message}: no hypergraph has these degrees"


def test_pretty_mode_is_human_readable():
    code, out, _ = invoke(
        ["--pretty", "count", "--input", str(INSTANCES / "reg6.json"),
         "--method", "near-regular"]
    )
    assert code == 0
    assert "ln:" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


@pytest.mark.parametrize("text", [
    '{"n":4,"r":3,"degrees":[1.9,1,1,0]}',
    '{"n":4,"r":3,"degrees":[true,1,1,0]}',
    '{"n":4.5,"r":3,"degrees":[1,1,1,0]}',
    '{"n":"4","r":3,"degrees":[1,1,1,0]}',
])
def test_non_integer_instance_values_exit_two(text):
    code, out, err = invoke(["count", "--method", "exact", "--input", text])
    assert code == 2
    assert out == ""
    assert "is not an integer" in err


def test_integral_floats_count_as_integers():
    code, out, _ = invoke(
        ["count", "--method", "exact", "--input",
         '{"n":4.0,"r":3,"degrees":[2.0,2,1,1]}']
    )
    assert code == 0
    assert json.loads(out)["count"] == 1


@pytest.mark.parametrize(
    "case", ["missing-input", "directory-input", "csv", "dump-matrix"]
)
def test_file_errors_exit_two(tmp_path, case):
    unwritable = str(tmp_path / "no-such-dir" / "out.csv")
    reg6 = str(INSTANCES / "reg6.json")
    argv = {
        "missing-input": ["solve", "--input", str(tmp_path / "absent.json")],
        "directory-input": ["solve", "--input", str(tmp_path)],
        "csv": ["sample", "-n", "6", "-r", "3", "-m", "4", "--seed", "1",
                "--csv", unwritable],
        "dump-matrix": ["solve", "--input", reg6, "--dump-matrix", unwritable],
    }[case]
    code, out, err = invoke(argv)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("error: ")
    assert "Traceback" not in err


def test_closed_forms_at_a_hundred_thousand_vertices(tmp_path, monkeypatch):
    # near-regular degrees 30 +- 1 at (10^5, 3): the closed forms are O(k)
    # in the k distinct degrees, and so is the general formula, which sums
    # over the C(k+2, 3) = 10 class compositions instead of C(n, 3) subsets
    n = 10**5
    degrees = [31] * 1000 + [29] * 1000 + [30] * (n - 2000)
    path = tmp_path / "large.json"
    path.write_text(json.dumps({"n": n, "r": 3, "degrees": degrees}))
    ln = {}
    for method in ("near-regular", "corollary", "general"):
        code, out, _ = invoke(["count", "--method", method, "--input", str(path)])
        assert code == 0, method
        ln[method] = json.loads(out)["ln"]
        assert math.isfinite(ln[method])
    assert abs(ln["general"] - ln["near-regular"]) <= 1e-9 * abs(ln["near-regular"])
    # the budget counts the compositions the class route visits
    monkeypatch.setenv("HYPERDEG_BUDGET", "9")
    code, out, err = invoke(["count", "--method", "general", "--input", str(path)])
    assert code == 4
    assert out == ""
    assert "enumeration of 10 subsets exceeds budget 9" in err


def test_importing_the_package_loads_no_tooling_modules():
    # every CLI start pays for what ``import hyperdeg`` loads; these are test,
    # schema and study tools, and scipy, which only the tests use as a reference
    tooling = ("mpmath", "sympy", "jsonschema", "hypothesis", "scipy")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(hyperdeg.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for module in ("hyperdeg", "hyperdeg.cli"):
        code = (
            f"import sys, {module}; "
            f"print(sorted({{m for m in sys.modules if m.split('.')[0] in {tooling!r}}}))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", module


def test_importing_the_package_leaves_numpy_fft_unloaded():
    # the T normalizer reaches np.fft at call time, so a start that never
    # convolves does not pay for loading it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(hyperdeg.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    def loads_fft(module):
        code = f"import sys, {module}; print('numpy.fft' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip() == "True"

    if loads_fft("numpy"):
        pytest.skip("this numpy loads numpy.fft on its own import")
    assert not loads_fft("hyperdeg")
    assert not loads_fft("hyperdeg.cli")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_importing_the_cli_starts_no_blas_threads():
    # the package pins the BLAS pools before numpy loads; with the variables
    # unset, a pin placed after numpy's import leaves BLAS worker threads
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(hyperdeg.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = "import os, hyperdeg.cli; print(len(os.listdir('/proc/self/task')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


@pytest.mark.parametrize("value", ["0", "-3"])
def test_budget_below_one_exits_two(monkeypatch, value):
    argv = ["count", "--input", str(INSTANCES / "reg6.json"), "--method", "exact"]
    monkeypatch.setenv("HYPERDEG_BUDGET", value)
    code, out, err = invoke(argv)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        f"error: HYPERDEG_BUDGET='{value}' is not a finite number of at least 1"
    )


def _public_functions_taking(parameter):
    """Public functions and methods of every ``hyperdeg`` module that take
    ``parameter``, by qualified name."""
    found = []
    for info in pkgutil.iter_modules(hyperdeg.__path__):
        module = importlib.import_module(f"hyperdeg.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                members = [(f"{name}.{m}", f) for m, f in vars(obj).items()]
            else:
                members = [(name, obj)]
            for qualname, func in members:
                if inspect.isfunction(func) and not qualname.split(".")[-1].startswith("_"):
                    if parameter in inspect.signature(func).parameters:
                        found.append(f"{module.__name__}.{qualname}")
    return found


def test_the_budget_is_set_only_by_the_environment(capsys):
    # HYPERDEG_BUDGET is read at each check: no public function takes a
    # budget, no field stores one, and there is no --budget flag
    assert _public_functions_taking("budget") == []
    assert "budget" not in {f.name for f in dataclasses.fields(FieldSummary)}
    with pytest.raises(SystemExit) as exc:
        run(["--budget", "10", "count", "--input", str(INSTANCES / "reg6.json"),
             "--method", "exact"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_a_solve_is_reused_only_through_the_solver_slot():
    # no public function takes a solve report, and no error names one
    import hyperdeg.errors

    assert _public_functions_taking("report") == []
    assert not hasattr(hyperdeg.errors, "Unsolved")


def test_the_dp_budget_alone_picks_the_t_normalizer(monkeypatch, capsys):
    from hyperdeg import models

    # no switch picks it: no public function takes a normalizer, and there
    # is no --normalizer flag
    assert _public_functions_taking("normalizer") == []
    with pytest.raises(SystemExit) as exc:
        run(["models", "--input", str(INSTANCES / "tiny4.json"), "--normalizer", "dp"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    # dp up to the convolution power's charge, clt one below it
    seq = cli.load_instance(str(INSTANCES / "near8.json"))
    ops = models._power_ops(models.HypergeomSpec(seq.n, seq.r, seq.edge_count))
    assert ops == 16_384
    for budget, method in [(ops, "dp"), (ops - 1, "clt")]:
        monkeypatch.setenv("HYPERDEG_BUDGET", str(budget))
        point = models.prob_model(seq, "T")
        assert point.components["normalizer_method"] == method, budget


@pytest.mark.parametrize("argv, flag", [
    (["selftest", "bounds", "--trials", "-2"], "--trials"),
    (["selftest", "identities", "--trials", "-1"], "--trials"),
    (["sample", "-n", "6", "-r", "3", "-m", "4", "--seed", "1", "--count", "-1"],
     "--count"),
    (["sample", "-n", "6", "-r", "3", "-m", "4", "--seed", "-1"], "--seed"),
    (["selftest", "identities", "--seed", "-3"], "--seed"),
    (["selftest", "bounds", "--trials", "1", "--seed", "-3"], "--seed"),
])
def test_negative_counts_exit_two_naming_the_flag(argv, flag):
    code, out, err = invoke(argv)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith(f"error: {flag} must be at least 0")
    assert "Traceback" not in err


def test_zero_counts_are_valid():
    code, out, _ = invoke(["selftest", "bounds", "--trials", "0"])
    assert code == 0
    assert json.loads(out) == {"trials": 0, "failures": 0, "rows": []}
    code, out, _ = invoke(["sample", "-n", "6", "-r", "3", "-m", "4", "--seed", "1",
                           "--count", "0"])
    assert code == 0
    assert out == "d_1,d_2,d_3,d_4,d_5,d_6\n"


def test_runs_in_one_process_share_no_state(monkeypatch):
    # the parser is built once per process; every run parses afresh and
    # calls the command function the module holds at that time
    reg6 = str(INSTANCES / "reg6.json")
    with pytest.raises(SystemExit) as exc:
        invoke(["count", "--input", reg6, "--method", "none"])
    assert exc.value.code == 2
    code, out, _ = invoke(["count", "--input", reg6, "--method", "exact"])
    assert (code, json.loads(out)) == (0, {"method": "exact", "count": 1044})
    code, out, _ = invoke(["solve", "--input", reg6, "--dump-field"])
    assert code == 0 and "field" in json.loads(out)
    code, out, _ = invoke(["count", "--input", reg6, "--method", "general"])
    assert code == 0 and json.loads(out)["method"] == "general"
    code, out, _ = invoke(["solve", "--input", reg6])
    assert code == 0 and "field" not in json.loads(out)
    monkeypatch.setattr(cli, "cmd_count", lambda args: 7)
    code, out, _ = invoke(["count", "--input", reg6, "--method", "exact"])
    assert (code, out) == (7, "")


@st.composite
def valid_instances(draw):
    """(n, r, degrees) with n <= 8, 1 <= r <= n - 1 and every degree in
    [0, C(n-1, r-1)], the degree sum lowered to a multiple of r."""
    n = draw(st.integers(2, 8))
    r = draw(st.integers(1, n - 1))
    degrees = draw(st.lists(st.integers(0, math.comb(n - 1, r - 1)), min_size=n, max_size=n))
    excess = sum(degrees) % r
    for j, dj in enumerate(degrees):
        drop = min(excess, dj)
        degrees[j] -= drop
        excess -= drop
    return n, r, degrees


@settings(max_examples=100, deadline=None)
@given(valid_instances())
def test_every_command_ends_in_a_documented_exit_code(instance):
    n, r, degrees = instance
    text = json.dumps({"n": n, "r": r, "degrees": degrees})
    runs = [["solve"], ["audit"], ["models"]]
    runs += [["count", "--method", m] for m in ("general", "near-regular", "corollary", "exact")]
    for argv in runs:
        code, _, err = invoke(argv[:1] + ["--input", text] + argv[1:])
        # exit 5 is an internal error, which no valid instance may reach
        assert code in (0, 2, 3, 4), (argv, code, err)
