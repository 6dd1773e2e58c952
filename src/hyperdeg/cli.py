"""Command-line front end.

JSON goes to stdout (floats printed with 17 significant digits for
round-trip fidelity); the invocation echo, hypothesis warnings, and errors
go to stderr.  Exit codes: 0 success, 2 invalid input or a file that
cannot be read or written, 3 solver non-convergence, 4 budget exceeded or
out of memory, 5 internal assertion.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import budgets, identities, models
from .core import DegreeSequence
from .counts import (
    estimate_corollary,
    estimate_general,
    estimate_near_regular,
    symmetry_audit,
)
from .errors import (
    BudgetExceeded,
    HyperdegError,
    InvalidInstance,
    DensityDegenerate,
    NonConvergence,
    SingularJacobian,
)
from .fields import check_weight_ratio_bounds, field_summary
from .matrices import bound_suite
from .oracle import cauchy_quadrature, exact_count, total_identity_check
from .solver import solve


def render_json(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    parts: list[str] = []
    _render(obj, parts)
    return "".join(parts)


def _render(obj, parts: list[str]) -> None:
    if obj is None or isinstance(obj, bool):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            parts.append(json.dumps(str(x)))
        else:
            parts.append(format(x, ".17g"))
    elif isinstance(obj, Fraction):
        parts.append(json.dumps(str(obj)))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            parts.append(json.dumps(str(key)))
            parts.append(": ")
            _render(value, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        parts.append("[")
        for i, value in enumerate(seq):
            if i:
                parts.append(", ")
            _render(value, parts)
        parts.append("]")
    else:
        parts.append(json.dumps(str(obj)))


def emit(obj, pretty: bool) -> None:
    if pretty:
        _emit_pretty(obj)
    else:
        sys.stdout.write(render_json(obj) + "\n")


def _emit_pretty(obj, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)):
                sys.stdout.write(f"{pad}{key}:\n")
                _emit_pretty(value, indent + 1)
            else:
                sys.stdout.write(f"{pad}{key}: {_pretty_scalar(value)}\n")
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                _emit_pretty(value, indent + 1)
                sys.stdout.write("\n")
            else:
                sys.stdout.write(f"{pad}- {_pretty_scalar(value)}\n")
    else:
        sys.stdout.write(f"{pad}{_pretty_scalar(obj)}\n")


def _pretty_scalar(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def load_instance(raw: str) -> DegreeSequence:
    text = raw.strip()
    if not text.startswith("{"):
        with open(text, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInstance(f"cannot parse instance JSON: {exc}") from exc
    return DegreeSequence.from_json_dict(data)


def warn_hypotheses(seq: DegreeSequence) -> None:
    flags = seq.params.flags
    messages = {
        "edge_size_in_range": "edge size outside the hypothesis 3 <= r <= n-3",
        "main_growth": "density growth condition fails at this size",
        "density_nondegenerate": "instance is empty or complete",
    }
    for key, message in messages.items():
        if not flags.get(key, True):
            sys.stderr.write(f"warning: {message}\n")


def cmd_solve(args) -> int:
    seq = load_instance(args.input)
    warn_hypotheses(seq)
    report = solve(seq, tol=args.tol)
    payload = report.to_json_dict()
    if args.dump_field:
        payload["field"] = report.field.to_json_dict()
    if args.dump_matrix:
        matrix = 0.5 * report.field.pair_weights  # may refuse before the file opens
        with open(args.dump_matrix, "w", encoding="utf-8") as handle:
            for row in matrix:
                handle.write(",".join(format(x, ".17g") for x in row) + "\n")
    emit(payload, args.pretty)
    return 0


def cmd_count(args) -> int:
    seq = load_instance(args.input)
    warn_hypotheses(seq)
    method = args.method
    if method == "exact":
        emit({"method": "exact", "count": exact_count(seq)}, args.pretty)
        return 0
    if method == "quadrature":
        result = cauchy_quadrature(seq)
        emit(
            {
                "method": "quadrature",
                "value": result.value,
                "imag_residual": result.imag_residual,
                "points_per_axis": result.points_per_axis,
            },
            args.pretty,
        )
        return 0
    if method == "general":
        estimate = estimate_general(seq)
    elif method == "near-regular":
        estimate = estimate_near_regular(seq)
    elif method == "corollary":
        estimate = estimate_corollary(seq)
    else:
        raise InvalidInstance(f"unknown count method {method!r}")
    emit(estimate.to_json_dict(), args.pretty)
    return 0


def cmd_models(args) -> int:
    seq = load_instance(args.input)
    warn_hypotheses(seq)
    pairs = [p.strip() for p in args.compare.split(",") if p.strip()]
    rows = []
    d_point = None  # the D model, evaluated once at the first pair
    for pair in pairs:
        if pair not in models.RATIO_PAIRS:
            raise InvalidInstance(f"unknown comparison pair {pair!r}")
        prediction = models.predicted_ratio(seq, pair)
        if d_point is None:
            try:
                d_point = models.prob_model(seq, "D-exact")
            except BudgetExceeded:
                d_point = models.prob_model(seq, "D-asymptotic")
        other = models.prob_model(seq, models.RATIO_PAIRS[pair])
        measured = d_point.ln_prob - other.ln_prob
        rows.append(
            {
                **prediction,
                "measured_ln_ratio": measured,
                "difference": measured - prediction["predicted_ln_ratio"],
                "d_model": d_point.model,
                # T names the normalizer the dp budget picked; B rows read dp
                "normalizer": other.components.get("normalizer_method", "dp"),
            }
        )
    emit({"instance": seq.to_json_dict(), "comparisons": rows}, args.pretty)
    return 0


def cmd_sample(args) -> int:
    if args.count < 0:
        raise InvalidInstance(f"--count must be at least 0, got {args.count}")
    if args.seed < 0:
        raise InvalidInstance(f"--seed must be at least 0, got {args.seed}")
    batch = models.sample_degree_batch(
        args.n, args.r, args.m, args.seed, args.count
    )
    header = ",".join(f"d_{j+1}" for j in range(args.n))
    lines = [header] + [",".join(map(str, row)) for row in batch.tolist()]
    text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(text)
        emit({"written": args.csv, "count": int(args.count)}, args.pretty)
    else:
        sys.stdout.write(text)
    return 0


def cmd_audit(args) -> int:
    seq = load_instance(args.input)
    warn_hypotheses(seq)
    # one refusal rule on every route, checked before any solve so that an
    # audit too large refuses at once: all C(n, r) subsets fit the budget.
    # The bound checks read the base solve's field in class form.
    budgets.check_subset_budget(math.comb(seq.n, seq.r))
    report = solve(seq)
    audit = symmetry_audit(seq)  # its base solve hits the slot
    delta_hat = max(report.spread * seq.r, 1e-6)
    matrix_checks = bound_suite(report.field, delta_hat)
    ratio_checks = check_weight_ratio_bounds(report.field, delta_hat)
    emit(
        {
            "quadrants": vars(audit),
            "delta_hat": delta_hat,
            "weight_ratio_checks": [vars(c) for c in ratio_checks],
            "matrix_checks": [vars(c) for c in matrix_checks.checks],
            "measured_inverse_constant": matrix_checks.measured_inverse_constant,
        },
        args.pretty,
    )
    return 0


def cmd_selftest(args) -> int:
    if args.trials < 0:
        raise InvalidInstance(f"--trials must be at least 0, got {args.trials}")
    if args.seed < 0:
        raise InvalidInstance(f"--seed must be at least 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    if args.suite == "identities":
        results = identities.selftest(rng, trials_per_family=args.trials)
        emit(results, args.pretty)
        return 0 if all(r["failures"] == 0 for r in results) else 5
    if args.suite == "bounds":
        failures = 0
        rows = []
        for _ in range(args.trials):
            n = int(rng.integers(6, 11))
            r = int(rng.choice([3, 4]))
            delta_hat = float(rng.uniform(0.05, 1.0))
            base = float(rng.uniform(-1.0, 0.1))
            beta = base + rng.uniform(
                -delta_hat / (2 * r), delta_hat / (2 * r), size=n
            )
            field = field_summary(beta, n, r)
            checks = check_weight_ratio_bounds(field, delta_hat)
            checks += bound_suite(field, delta_hat).checks
            bad = [c.name for c in checks if c.status == "fail"]
            failures += len(bad)
            rows.append({"n": n, "r": r, "delta_hat": delta_hat, "failures": bad})
        emit({"trials": args.trials, "failures": failures, "rows": rows}, args.pretty)
        return 0 if failures == 0 else 5
    if args.suite == "oracle":
        ok = True
        rows = []
        for (n, r, m) in [(4, 3, 2), (4, 3, 3), (5, 3, 2), (5, 3, 3)]:
            holds = total_identity_check(n, r, m)
            rows.append({"n": n, "r": r, "m": m, "holds": holds})
            ok = ok and holds
        for degrees in [(2, 2, 1, 1), (3, 3, 3, 3), (1, 1, 1, 0)]:
            seq = DegreeSequence(4, 3, degrees)
            exact = exact_count(seq)
            quad = cauchy_quadrature(seq).value
            match = abs(quad - exact) <= 1e-8 * max(1.0, exact)
            rows.append(
                {"degrees": list(degrees), "exact": exact, "quadrature": quad,
                 "match": match}
            )
            ok = ok and match
        emit(rows, args.pretty)
        return 0 if ok else 5
    raise InvalidInstance(f"unknown selftest suite {args.suite!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every ``run``.

    Parsing leaves the parser unchanged: each call gets a fresh namespace,
    whose ``command`` names the ``cmd_*`` function that runs it.
    """
    parser = argparse.ArgumentParser(
        prog="hyperdeg",
        description="Count uniform hypergraphs by degree sequence and "
        "compare degree-sequence probability models.",
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored: all work is serial")
    parser.add_argument("--pretty", action="store_true",
                        help="human-readable tables instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the degree system")
    p.add_argument("--input", required=True, help="instance file or inline JSON")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--dump-field", action="store_true")
    p.add_argument("--dump-matrix", metavar="PATH", default=None)

    p = sub.add_parser("count", help="estimate or count hypergraphs")
    p.add_argument("--input", required=True)
    p.add_argument("--method", required=True,
                   choices=["general", "near-regular", "corollary", "exact",
                            "quadrature"])

    p = sub.add_parser("models", help="compare degree-sequence models")
    p.add_argument("--input", required=True)
    p.add_argument("--compare", default="d-vs-t,b-vs-d,klw")

    p = sub.add_parser("sample", help="sample degree sequences")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--csv", default=None)

    p = sub.add_parser("audit", help="four-quadrant and bound-suite audit")
    p.add_argument("--input", required=True)

    p = sub.add_parser("selftest", help="randomized self-test suites")
    p.add_argument("suite", choices=["identities", "bounds", "oracle"])
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=2024)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    echo = "invocation: hyperdeg " + " ".join(
        argv if argv is not None else sys.argv[1:]
    )
    env_budget = os.environ.get("HYPERDEG_BUDGET")
    if env_budget is not None:
        # part of the effective configuration, so part of the echo
        echo += f"  [HYPERDEG_BUDGET={env_budget}]"
    sys.stderr.write(echo + "\n")
    try:
        # a malformed HYPERDEG_BUDGET is invalid input
        budgets.env_budget()
        # looked up per call, not bound into the shared parser, so a
        # command function replaced after the first run is the one called
        return globals()["cmd_" + args.command](args)
    except (InvalidInstance, DensityDegenerate, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (NonConvergence, SingularJacobian) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except BudgetExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return 4
    except HyperdegError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 5


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
