"""Per-layer metrics derived from a traced run's spans.

``METRICS`` lists every per-layer metric with its unit, its direction, and
the end-to-end metric and workload it should move.  Counts and seconds are
reported per round (one pass over the workload's job list); ratios are
taken over the whole traced phase.  A metric whose layer did not run in
the workload reads 0.
"""

from __future__ import annotations

from collections import defaultdict

# name, unit, better, what it should move
METRICS = [
    ("subsets.sweeps", "count", "lower", "wall_s and job_p50_s on fit"),
    ("subsets.rows", "count", "lower", "wall_s and job_p50_s on fit"),
    ("subsets.enum_s", "s", "lower", "wall_s and job_p50_s on fit"),
    ("subsets.colex_unrank.calls", "count", "lower", "job_p50_s on models"),
    ("subsets.colex_unrank.s", "s", "lower", "job_p50_s on models"),
    ("parallel.map_chunks.calls", "count", "lower", "wall_s on fit"),
    ("parallel.kernel_s", "s", "lower", "wall_s on fit"),
    ("parallel.workers", "count", "higher", "wall_s on fit"),
    ("parallel.thread_speedup", "ratio", "higher", "wall_s on fit"),
    ("fields.field_summary.calls", "count", "lower", "wall_s on fit"),
    ("fields.field_summary.s", "s", "lower", "wall_s on fit"),
    ("fields.field_summary.enum_share", "share", "lower", "wall_s on fit"),
    ("fields.entropy_sum.s", "s", "lower", "wall_s on fit"),
    ("fields.check_weight_ratio_bounds.s", "s", "lower", "job_tail_s and peak_rss_mb on fit"),
    ("fields.check_weight_ratio_bounds.pairs", "count", "lower",
     "job_tail_s and peak_rss_mb on fit"),
    ("solver.solve.calls", "count", "lower", "job_tail_s on fit"),
    ("solver.solve.s", "s", "lower", "job_tail_s on fit"),
    ("solver.solve.self_s", "s", "lower", "job_tail_s on fit"),
    ("solver.newton_iterations", "count", "lower", "job_tail_s on fit"),
    ("solver.sweeps_per_solve", "count", "lower", "job_tail_s on fit"),
    ("solver.step_halvings", "count", "lower", "job_tail_s on fit"),
    ("matrices.assemble_weight_matrix.s", "s", "lower", "wall_s on fit (predict no change)"),
    ("matrices.logdet_pd.calls", "count", "lower", "wall_s on fit (predict no change)"),
    ("matrices.logdet_pd.s", "s", "lower", "wall_s on fit (predict no change)"),
    ("matrices.bound_suite.s", "s", "lower", "wall_s on fit (predict no change)"),
    ("counts.estimate_general.self_s", "s", "lower", "job_tail_s on fit"),
    ("counts.symmetry_audit.s", "s", "lower", "job_tail_s on fit"),
    ("counts.solves_per_audit", "count", "lower", "job_tail_s on fit"),
    ("oracle.exact_count.calls", "count", "lower",
     "wall_s and job_tail_s on exact; job_p50_s on models"),
    ("oracle.exact_count.s", "s", "lower",
     "wall_s and job_tail_s on exact; job_p50_s on models"),
    ("oracle.exact_count.dp_bound", "count", "lower",
     "wall_s and job_tail_s on exact; job_p50_s on models"),
    ("oracle.cauchy_quadrature.s", "s", "lower", "job_tail_s on exact"),
    ("oracle.grid_points", "count", "lower", "job_tail_s on exact"),
    ("oracle.grid_points_per_s", "1/s", "higher", "job_tail_s on exact"),
    ("oracle.total_identity_check.s", "s", "lower", "wall_s on exact"),
    ("models.prob_model.B.s", "s", "lower", "wall_s on models"),
    ("models.prob_model.T.s", "s", "lower", "wall_s on models"),
    ("models.prob_model.D-exact.s", "s", "lower", "wall_s on models"),
    ("models.prob_model.D-asymptotic.s", "s", "lower", "wall_s on models"),
    ("models.conditioned_sum_log_prob.s", "s", "lower", "wall_s on models"),
    ("models.sample_degree_batch.s", "s", "lower", "job_p50_s on models"),
    ("models.samples_per_s", "1/s", "higher", "job_p50_s on models"),
    ("models.normalizer_fallbacks", "count", "lower", "nothing; a change means outputs changed"),
    ("models.d_model_fallbacks", "count", "lower", "nothing; a change means outputs changed"),
    ("identities.selftest.s", "s", "lower", "wall_s on exact"),
    ("cli.run.self_s", "s", "lower", "job_p50_s on every workload"),
    ("cli.render_json.s", "s", "lower", "job_p50_s on every workload"),
    ("core.derive.calls", "count", "lower", "job_p50_s on every workload"),
    ("trace.overhead_share", "share", "lower", "nothing; reported per workload"),
]

UNITS = {name: unit for name, unit, _, _ in METRICS}

SWEEP = "subsets.iter_chunks"
NEXT = SWEEP + ".next"


class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.by_name = defaultdict(list)
        self.child_time = defaultdict(float)
        for s in spans:
            self.by_name[s[1]].append(s)
            if s[4] is not None:
                self.child_time[s[4]] += s[3] - s[2]

    def ancestor(self, span, name):
        """Nearest proper ancestor with the given name, or None."""
        parent = span[4]
        while parent is not None:
            up = self.by_id[parent]
            if up[1] == name:
                return up
            parent = up[4]
        return None

    def outermost(self, name):
        return [s for s in self.by_name[name] if self.ancestor(s, name) is None]

    def total(self, name) -> float:
        return sum(s[3] - s[2] for s in self.outermost(name))

    def self_time(self, name) -> float:
        return sum(s[3] - s[2] - self.child_time[s[0]] for s in self.by_name[name])

    def calls(self, name) -> int:
        return len(self.by_name[name])

    def info_sum(self, name, key) -> float:
        return sum(_info(s).get(key, 0) for s in self.by_name[name])


def _info(span) -> dict:
    return span[5] or {}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, rounds: int, thread_speedup: float, overhead_share: float) -> dict:
    """Every per-layer metric, per round where it is a count or a time."""
    ix = SpanIndex(spans)
    nexts = ix.by_name[NEXT]
    sweeps = ix.by_name[SWEEP]
    enum_s = sum(s[3] - s[2] for s in nexts)
    map_chunks = ix.by_name["parallel.map_chunks"]
    map_ids = {s[0] for s in map_chunks}
    enum_in_map = sum(s[3] - s[2] for s in nexts if s[4] in map_ids)
    field_s = ix.total("fields.field_summary")
    enum_in_field = sum(
        s[3] - s[2] for s in nexts if ix.ancestor(s, "fields.field_summary") is not None
    )

    solves = ix.by_name["solver.solve"]
    solve_ids = {s[0] for s in solves}
    sweeps_under_solve = sum(
        1 for s in sweeps if ix.ancestor(s, "solver.solve") is not None
    )
    direct = defaultdict(int)  # sweeps made by the solver's own residual evaluations
    for s in sweeps:
        if s[4] in solve_ids:
            direct[s[4]] += 1
    halvings = sum(
        direct[s[0]] - 1 - _info(s)["iterations"] for s in solves if "iterations" in _info(s)
    )
    audits = ix.by_name["counts.symmetry_audit"]
    solves_in_audit = sum(
        1 for s in solves if ix.ancestor(s, "counts.symmetry_audit") is not None
    )

    model_s = defaultdict(float)
    for s in ix.outermost("models.prob_model"):
        model_s[_info(s).get("model")] += s[3] - s[2]
    normalizer_fallbacks = sum(
        1 for s in ix.by_name["models.prob_model"] if _info(s).get("normalizer_fallback")
    )
    d_model_fallbacks = sum(
        1 for s in ix.by_name["models.measured_ratio"]
        if _info(s).get("d_model") == "D-exact"
        and "BudgetExceeded" in _info(s).get("error", "")
    )
    quad_s = ix.total("oracle.cauchy_quadrature")
    grid_points = ix.info_sum("oracle.cauchy_quadrature", "grid_points")
    sample_s = ix.total("models.sample_degree_batch")
    samples = ix.info_sum("models.sample_degree_batch", "samples")
    workers = [_info(s).get("workers", 0) for s in ix.by_name["parallel.resolve_threads"]]

    per_round = {
        "subsets.sweeps": len(sweeps),
        "subsets.rows": sum(_info(s)["rows"] for s in nexts),
        "subsets.enum_s": enum_s,
        "subsets.colex_unrank.calls": ix.calls("subsets.colex_unrank"),
        "subsets.colex_unrank.s": ix.total("subsets.colex_unrank"),
        "parallel.map_chunks.calls": len(map_chunks),
        "parallel.kernel_s": ix.total("parallel.map_chunks") - enum_in_map,
        "fields.field_summary.calls": ix.calls("fields.field_summary"),
        "fields.field_summary.s": field_s,
        "fields.entropy_sum.s": ix.total("fields.entropy_sum"),
        "fields.check_weight_ratio_bounds.s": ix.total("fields.check_weight_ratio_bounds"),
        "fields.check_weight_ratio_bounds.pairs":
            ix.info_sum("fields.check_weight_ratio_bounds", "pairs"),
        "solver.solve.calls": len(solves),
        "solver.solve.s": ix.total("solver.solve"),
        "solver.solve.self_s": ix.self_time("solver.solve"),
        "solver.newton_iterations": ix.info_sum("solver.solve", "iterations"),
        "solver.step_halvings": halvings,
        "matrices.assemble_weight_matrix.s": ix.total("matrices.assemble_weight_matrix"),
        "matrices.logdet_pd.calls": ix.calls("matrices.logdet_pd"),
        "matrices.logdet_pd.s": ix.total("matrices.logdet_pd"),
        "matrices.bound_suite.s": ix.total("matrices.bound_suite"),
        "counts.estimate_general.self_s": ix.self_time("counts.estimate_general"),
        "counts.symmetry_audit.s": ix.total("counts.symmetry_audit"),
        "oracle.exact_count.calls": ix.calls("oracle.exact_count"),
        "oracle.exact_count.s": ix.total("oracle.exact_count"),
        "oracle.exact_count.dp_bound": ix.info_sum("oracle.exact_count", "dp_bound"),
        "oracle.cauchy_quadrature.s": quad_s,
        "oracle.grid_points": grid_points,
        "oracle.total_identity_check.s": ix.total("oracle.total_identity_check"),
        "models.prob_model.B.s": model_s["B"],
        "models.prob_model.T.s": model_s["T"],
        "models.prob_model.D-exact.s": model_s["D-exact"],
        "models.prob_model.D-asymptotic.s": model_s["D-asymptotic"],
        "models.conditioned_sum_log_prob.s": ix.total("models.conditioned_sum_log_prob"),
        "models.sample_degree_batch.s": sample_s,
        "models.normalizer_fallbacks": normalizer_fallbacks,
        "models.d_model_fallbacks": d_model_fallbacks,
        "identities.selftest.s": ix.total("identities.selftest"),
        "cli.run.self_s": ix.self_time("cli.run"),
        "cli.render_json.s": ix.total("cli.render_json"),
        "core.derive.calls": ix.calls("core.derive"),
    }
    out = {name: value / rounds for name, value in per_round.items()}
    out.update({
        "parallel.workers": max(workers, default=0),
        "parallel.thread_speedup": thread_speedup,
        "fields.field_summary.enum_share": _ratio(enum_in_field, field_s),
        "solver.sweeps_per_solve": _ratio(sweeps_under_solve, len(solves)),
        "counts.solves_per_audit": _ratio(solves_in_audit, len(audits)),
        "oracle.grid_points_per_s": _ratio(grid_points, quad_s),
        "models.samples_per_s": _ratio(samples, sample_s),
        "trace.overhead_share": overhead_share,
    })
    return {name: out[name] for name, _, _, _ in METRICS}
