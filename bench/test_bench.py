"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import jobs
import layers
import run
from tracer import Tracer

LIB = run.load_library()
CHECKER = checks.Checker()


def _cli(argv) -> str:
    job = jobs.Job("probe", {}, argv=argv)
    outcome = run.run_job(job, LIB)
    assert outcome.error is None, outcome.error
    return outcome.stdout


def _inline(n, r, degrees) -> str:
    return json.dumps({"n": n, "r": r, "degrees": degrees})


# -- checks reject perturbed outputs ------------------------------------------


def test_general_ln_check_rejects_shift():
    n, r, degrees = 20, 4, [300] * 19 + [304]
    meta = jobs.instance_meta(n, r, degrees, "near-regular", 0)
    solved = json.loads(_cli(["solve", "--input", _inline(n, r, degrees)]))
    assert CHECKER.check_solve(meta, solved) is None
    payload = json.loads(_cli(["count", "--method", "general", "--input", _inline(n, r, degrees)]))
    assert CHECKER.check_general(meta, payload, solved["beta"]) is None
    payload["ln"] += 1e-6
    assert CHECKER.check_general(meta, payload, solved["beta"]) is not None


def test_solve_check_rejects_perturbed_beta():
    n, r, degrees = 20, 4, [300] * 19 + [304]
    meta = jobs.instance_meta(n, r, degrees, "near-regular", 0)
    solved = json.loads(_cli(["solve", "--input", _inline(n, r, degrees)]))
    solved["beta"][3] += 1e-6
    assert CHECKER.check_solve(meta, solved) is not None


@pytest.mark.parametrize("n, r, degrees, shape", [
    (6, 3, [4, 5, 6, 5, 5, 5], "half-density"),
    (7, 3, [7, 8, 8, 7, 9, 8, 7], "half-density"),
    (12, 3, [1] * 9 + [0] * 3, "matching"),
])
def test_exact_check_rejects_off_by_one(n, r, degrees, shape):
    meta = jobs.instance_meta(n, r, degrees, shape, 0)
    meta["m"] = sum(degrees) // r
    payload = json.loads(_cli(["count", "--method", "exact", "--input", _inline(n, r, degrees)]))
    assert CHECKER.check_exact(meta, payload) is None
    payload["count"] += 1
    assert CHECKER.check_exact(meta, payload) is not None


def test_matching_closed_form():
    assert CHECKER.matching_count(4, 3) == 5775
    assert CHECKER.brute_count(6, 2, [1] * 6) == CHECKER.matching_count(2, 3)


def test_quadrature_check_rejects_shift():
    meta = jobs.instance_meta(5, 3, [4, 3, 3, 2, 3], "uniform", 0)
    payload = json.loads(
        _cli(["count", "--method", "quadrature", "--input", _inline(5, 3, meta["degrees"])])
    )
    assert CHECKER.check_quadrature(meta, payload) is None
    payload["value"] += 1.0
    assert CHECKER.check_quadrature(meta, payload) is not None


def test_models_check_rejects_shift():
    meta = jobs.instance_meta(6, 3, [4, 5, 5, 4, 5, 4], "near-regular", 0)
    argv = ["models", "--compare", "d-vs-t,b-vs-d,klw", "--input", _inline(6, 3, meta["degrees"])]
    payload = json.loads(_cli(argv))
    assert CHECKER.check_models(meta, payload) is None
    for i in range(3):
        bad = json.loads(json.dumps(payload))
        bad["comparisons"][i]["measured_ln_ratio"] += 1e-6
        assert CHECKER.check_models(meta, bad) is not None


def test_ratio_pair_check_rejects_shift():
    rnd = jobs.build("models", 3, 1)[0]
    pair = [job for job in rnd if job.label == "measured-ratio"][:2]
    values = [run.run_job(job, LIB).value for job in pair]
    metas = [job.meta for job in pair]
    assert CHECKER.check_ratio_pair(metas, values) is None
    assert CHECKER.check_ratio_pair(metas, [values[0] + 1e-6, values[1]]) is not None


def test_sample_check_rejects_bad_row():
    job = [j for j in jobs.build("models", 4, 1)[0] if j.label == "sample"][0]
    stdout = run.run_job(job, LIB).stdout
    assert CHECKER.check_sample(job.meta, stdout) is None
    lines = stdout.splitlines()
    row = [int(x) for x in lines[1].split(",")]
    row[0] += 1
    lines[1] = ",".join(map(str, row))
    assert CHECKER.check_sample(job.meta, "\n".join(lines) + "\n") is not None


def test_audit_check_rejects_failed_bound():
    payload = json.loads(_cli(["audit", "--input", _inline(16, 4, [100 + 7 * j for j in range(16)])]))
    assert CHECKER.check_audit(payload) is None
    payload["matrix_checks"][0]["status"] = "fail"
    assert CHECKER.check_audit(payload) is not None


# -- failed jobs ------------------------------------------------------------


def _raise(exc):
    def fn(*args, **kwargs):
        raise exc
    return fn


@pytest.mark.parametrize("job, lib", [
    (jobs.Job("count-exact", {}, argv=["count"]), {"cli": SimpleNamespace(run=_raise(RecursionError()))}),
    (jobs.Job("total-identity", {}, call="oracle.total_identity_check", args=(5, 3, 2)),
     {"oracle": SimpleNamespace(total_identity_check=_raise(KeyError("x"))), "parallel": None}),
])
def test_untyped_exception_fails_the_job(job, lib):
    outcome = run.run_job(job, lib)
    assert outcome.error is not None
    (verdict,), = run.verdicts_for(CHECKER, [[job]], [[outcome]])
    assert verdict[0] == "error"


def test_unexpected_exit_code_fails_the_job():
    job = jobs.Job("count-exact", {}, argv=["count", "--method", "exact",
                                            "--input", _inline(6, 3, [5, 5, 5, 5, 5, 4])])
    outcome = run.run_job(job, LIB)
    assert outcome.error == "exit code 2"


# -- generator --------------------------------------------------------------


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_generator_is_reproducible_and_valid(workload):
    first = jobs.build(workload, 17, 4)
    again = jobs.build(workload, 17, 4)
    other = jobs.build(workload, 18, 4)
    assert [[(j.argv, j.args, j.instance, j.meta) for j in r] for r in first] == \
        [[(j.argv, j.args, j.instance, j.meta) for j in r] for r in again]
    assert [j.meta for j in first[0]] != [j.meta for j in other[0]]
    for rnd in first + other:
        for job in rnd:
            if "degrees" in job.meta:
                jobs.validate_degrees(job.meta["n"], job.meta["r"], job.meta["degrees"])
                assert job.meta["k"] == len(set(job.meta["degrees"]))
                if job.meta["shape"] == "skewed":
                    assert job.meta["k"] == job.meta["n"]


def test_parity_repair_stays_in_range():
    for degrees, r, cap in (([3, 1, 3, 1], 3, 3), ([3, 3, 3, 2], 3, 3), ([0, 0, 1], 2, 1)):
        out = jobs.repair_parity(degrees, r, cap)
        assert sum(out) % r == 0 and all(0 <= d <= cap for d in out)


# -- tracing ----------------------------------------------------------------


def test_stdout_identical_with_tracing():
    picked = []
    for workload in jobs.WORKLOADS:
        rnd = jobs.build(workload, 5, 1)[0]
        picked += [j for j in rnd if j.is_cli and j.meta.get("n") in (6, 12, 16, 20)][:3]
    plain = [run.run_job(job, LIB) for job in picked]
    tracer = Tracer()
    tracer.install(LIB)
    try:
        traced = [run.run_job(job, LIB) for job in picked]
    finally:
        tracer.uninstall()
    assert tracer.spans
    for job, a, b in zip(picked, plain, traced):
        assert (a.error, a.stdout) == (b.error, b.stdout), job.argv
    assert not hasattr(LIB["solver"].field_summary, "__wrapped__")


def test_layer_self_time_excludes_children():
    spans = [
        (0, "cli.run", 0.0, 10.0, None, None),
        (1, "solver.solve", 1.0, 9.0, 0, {"iterations": 1}),
        (2, "subsets.iter_chunks", 1.0, 1.0, 1, {"sweep": True}),
        (3, "subsets.iter_chunks.next", 1.0, 2.0, 1, {"rows": 5, "sweep": 2}),
        (4, "fields.field_summary", 3.0, 6.0, 1, None),
        (5, "subsets.iter_chunks", 3.0, 3.0, 4, {"sweep": True}),
        (6, "subsets.iter_chunks", 7.0, 7.0, 1, {"sweep": True}),
    ]
    out = layers.layer_metrics(spans, 1, 1.0, 0.0)
    assert out["cli.run.self_s"] == 2.0
    assert out["solver.solve.self_s"] == 4.0
    assert out["solver.sweeps_per_solve"] == 3
    assert out["solver.step_halvings"] == 0
    assert out["subsets.rows"] == 5


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in layers.METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)


def test_tail_latency_leaves_ten_beyond():
    per_round = 7
    for rounds in (run.MIN_ROUNDS, run.MIN_ROUNDS + 2):
        lat = list(range(per_round * rounds))
        value, _, n = run.tail_latency(lat, per_round)
        assert n - 1 - value >= run.TAIL_BEYOND
    value, _, _ = run.tail_latency(list(range(per_round * run.MIN_ROUNDS)), per_round)
    assert value == per_round * run.MIN_ROUNDS - 1 - run.TAIL_BEYOND
    assert math.isfinite(value)
