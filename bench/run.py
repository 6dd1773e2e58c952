#!/usr/bin/env python3
"""hyperdeg benchmark: seeded closed-loop workloads with checked outputs.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload fit|exact|models --seed N --seconds S --trace 0|1

One client sends the jobs of a round (the workload's full job list) one
after another, each after the previous one returns; rounds repeat, with
fresh instances from the seed, until ``--seconds`` have passed and at
least ``MIN_ROUNDS`` rounds are done.  A job is one ``hyperdeg.cli.run``
request with its stdout captured, or one public library call.  The
library runs with its default worker count; BLAS and OpenMP pools are
pinned to one thread before numpy is imported, as the CLI does.

Every output is checked after the timed section (see ``checks.py``).  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones below; with ``--trace 1`` they are the per-layer metrics of
``layers.py``, from a traced pass over the same rounds.  A per-run report
with every job's record goes to ``.bench_out/`` in the checkout.

Times are scaled to a reference speed.  The host this runs on changes
speed by a quarter or more over tens of seconds, which would swamp any
change in the library, so before every job the client times a fixed
pure-Python-and-numpy loop (``reference_loop``), and each round's job
latencies are multiplied by ``(REF_SECONDS / m) ** SCALE_EXPONENT``, with
m the median loop time in that round.  The loop swings more than the
library's mix of interpreter, numpy and memory-bound work does: least
squares of log round time on log loop time gave slopes of 0.39 to 0.63 on
fit and models, hence the exponent 0.5.  ``REF_SECONDS`` is about the
loop's median time on the 2-core x86 virtual machine (Xeon, 4 MiB L2 per
core) the benchmark was defined on.  The report in ``.bench_out/`` keeps
the raw latencies and each round's scale.

End-to-end metrics:
  setup_s      median over fresh processes of importing hyperdeg and
               generating the workload's inputs (no warm-up job)
  wall_s       median over rounds of the time to finish the round's jobs
  job_p50_s    median job latency
  job_tail_s   job latency at the percentile leaving ten jobs beyond it in
               MIN_ROUNDS rounds (percentile and sample count on stderr)
  ok_share     jobs that returned and passed their check, over attempted;
               the failed share is 1 - ok_share
  peak_rss_mb  peak resident memory of the measuring process
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import pkgutil
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_ROUNDS = 3
MAX_ROUNDS = 64
SETUP_PROBES = 5
TAIL_BEYOND = 10
REF_SECONDS = 0.003
SCALE_EXPONENT = 0.5
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def pin_pools() -> None:
    """One BLAS/OpenMP thread, set before anything imports numpy."""
    for var in PINNED:
        os.environ[var] = "1"


def load_library() -> dict:
    """Import hyperdeg from this checkout's ``src``; map short names to modules."""
    if not (SRC / "hyperdeg" / "__init__.py").is_file():
        raise BenchError(f"no hyperdeg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hyperdeg

    if Path(hyperdeg.__file__).resolve().parent != SRC / "hyperdeg":
        raise BenchError(f"imported hyperdeg from {hyperdeg.__file__}, not {SRC}")
    modules = {"hyperdeg": hyperdeg}
    for info in pkgutil.iter_modules(hyperdeg.__path__):
        if not info.name.startswith("_"):  # importing a __main__ would run it
            modules[info.name] = importlib.import_module(f"hyperdeg.{info.name}")
    return modules


# -- one job ---------------------------------------------------------------


def reference_loop() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array numpy work."""
    import numpy as np

    start = perf_counter()
    table: dict = {}
    acc = 0
    for i in range(6000):
        key = (i & 255, i % 7)
        acc += table.get(key, 0) + (i * i) % 11
        table[key] = acc & 0xFFFF
    x = np.linspace(0.0, 1.0, 4096)
    for _ in range(30):
        x = np.exp(-x) * 0.5 + np.log1p(x)
    return perf_counter() - start


class Outcome:
    __slots__ = ("latency", "raw", "error", "stdout", "value")

    def __init__(self, latency, error, stdout, value):
        self.latency = self.raw = latency
        self.error = error
        self.stdout = stdout
        self.value = value


def _set_threads(lib: dict, threads) -> None:
    setter = getattr(lib.get("parallel"), "set_default_threads", None)
    if setter is not None:
        setter(threads)


def run_job(job, lib: dict, threads=None) -> Outcome:
    """Run one job; any exception escaping the library fails the job."""
    error = stdout = value = None
    if job.is_cli:
        argv = (["--threads", str(threads)] if threads else []) + job.argv
        out = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = lib["cli"].run(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an untyped exception is a failed job
            code = None
            error = f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - start
        stdout = out.getvalue()
        if error is None and code != 0:
            error = f"exit code {code}"
    else:
        module, name = job.call.split(".")
        _set_threads(lib, threads)
        start = perf_counter()
        try:
            fn = getattr(lib[module], name)
            args = job.args
            if job.instance is not None:
                args = (lib["hyperdeg"].DegreeSequence(*job.instance),) + args
            value = fn(*args, **job.kwargs)
        except Exception as exc:  # an untyped exception is a failed job
            error = f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - start
        _set_threads(lib, None)
    return Outcome(latency, error, stdout, value)


def run_rounds(rounds, lib, seconds=None, min_rounds=1, count=None, threads=None):
    """Closed loop over rounds; stop after ``count`` rounds or once time is up.

    Returns the scaled time of each round (the sum of its scaled job
    latencies), the outcomes, and each round's scale.
    """
    walls, outcomes, scales = [], [], []
    begin = perf_counter()
    for i, jobs in enumerate(rounds):
        if count is not None and i >= count:
            break
        if count is None and i >= min_rounds and perf_counter() - begin >= seconds:
            break
        refs, outs = [], []
        for job in jobs:
            refs.append(reference_loop())
            outs.append(run_job(job, lib, threads))
        refs.append(reference_loop())
        scale = (REF_SECONDS / statistics.median(refs)) ** SCALE_EXPONENT
        for o in outs:
            o.latency = o.raw * scale
        walls.append(sum(o.latency for o in outs))
        outcomes.append(outs)
        scales.append(scale)
    return walls, outcomes, scales


# -- checks ----------------------------------------------------------------


def verdicts_for(checker, rounds, outcomes) -> list:
    """Per round, per job: None for a correct job, else why it failed."""
    from checks import check_round

    out = []
    for jobs, round_outcomes in zip(rounds, outcomes):
        given = [None if o.error else (o.stdout, o.value) for o in round_outcomes]
        checked = check_round(checker, jobs, given)
        out.append([
            ("error", o.error) if o.error else (("check", c) if c else None)
            for o, c in zip(round_outcomes, checked)
        ])
    return out


def check_repeats(rounds, outcomes, verdicts, lib) -> None:
    """Sampling jobs of the first round must repeat byte for byte."""
    for i, job in enumerate(rounds[0]):
        if job.label == "sample" and verdicts[0][i] is None:
            again = run_job(job, lib)
            if again.stdout != outcomes[0][i].stdout:
                verdicts[0][i] = ("check", "sample output does not repeat for its seed")


def check_same(outcomes, other, verdicts, what: str) -> None:
    """Outputs of a second pass over the same rounds must match the first."""
    for r, (first, second) in enumerate(zip(outcomes, other)):
        for i, (a, b) in enumerate(zip(first, second)):
            if verdicts[r][i] is None and (
                a.stdout != b.stdout or a.value != b.value or b.error
            ):
                verdicts[r][i] = ("check", f"output differs {what}")


# -- metrics ---------------------------------------------------------------


def tail_latency(latencies, per_round: int):
    """Latency leaving TAIL_BEYOND jobs beyond it in MIN_ROUNDS rounds.

    The percentile is fixed by the minimum sample count, so it does not
    move when a run fits in more rounds; more rounds only add samples.
    """
    base = per_round * MIN_ROUNDS
    n = len(latencies)
    rank = -(-(base - TAIL_BEYOND) * n // base)  # ceil, in exact integers
    return sorted(latencies)[max(rank, 1) - 1], (base - TAIL_BEYOND) / base, n


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes, each scaled by reference loops timed before it."""
    times = []
    for _ in range(SETUP_PROBES):
        ref = statistics.median(reference_loop() for _ in range(5))
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) * (REF_SECONDS / ref) ** SCALE_EXPONENT)
    return statistics.median(times)


def setup_probe(workload: str, seed: int) -> None:
    start = perf_counter()
    load_library()
    import jobs

    jobs.build(workload, seed, MAX_ROUNDS)
    print(perf_counter() - start)


def write_report(name: str, report: dict) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w", encoding="utf-8") as handle:
        json.dump(report, handle)


def job_records(rounds, outcomes, verdicts) -> list:
    return [
        {"round": r, "index": i, "label": job.label, **job.meta,
         "latency_s": o.latency, "raw_latency_s": o.raw, "verdict": v}
        for r, (jobs, outs, vs) in enumerate(zip(rounds, outcomes, verdicts))
        for i, (job, o, v) in enumerate(zip(jobs, outs, vs))
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fit", "exact", "models"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_pools()

    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        lib = load_library()
        setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    import checks
    import jobs
    import layers
    from tracer import Tracer

    rounds = jobs.build(args.workload, args.seed, MAX_ROUNDS)
    per_round = len(rounds[0])
    checker = checks.Checker()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if not args.trace:
        walls, outcomes, scales = run_rounds(rounds, lib, args.seconds, MIN_ROUNDS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        done = rounds[: len(outcomes)]
        verdicts = verdicts_for(checker, done, outcomes)
        check_repeats(done, outcomes, verdicts, lib)
        latencies = [o.latency for outs in outcomes for o in outs]
        tail, percentile, samples = tail_latency(latencies, per_round)
        flat = [v for vs in verdicts for v in vs]
        failed = sum(v is not None for v in flat)
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": tail,
            "ok_share": (len(flat) - failed) / len(flat),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        print(f"{tag}: {len(outcomes)} rounds of {per_round} jobs; job_tail_s at "
              f"p{100 * percentile:.1f} of {samples} jobs", file=sys.stderr)
        write_report(tag + ".json", {
            "walls_s": walls, "scales": scales,
            "tail_percentile": percentile, "tail_samples": samples, "metrics": metrics, "jobs": job_records(done, outcomes, verdicts),
        })
    else:
        # warm lazy imports and caches on a round the measured passes do not use
        run_rounds(rounds[:1], lib, count=1)
        rest = rounds[1:]
        walls, outcomes, _ = run_rounds(rest, lib, args.seconds / 3, 1)
        count = len(outcomes)
        done = rest[:count]
        walls_one, outcomes_one, _ = run_rounds(done, lib, count=count, threads=1)
        tracer = Tracer()
        tracer.install(lib)
        try:
            walls_traced, outcomes_traced, _ = run_rounds(done, lib, count=count)
        finally:
            tracer.uninstall()
        verdicts = verdicts_for(checker, done, outcomes)
        check_same(outcomes, outcomes_one, verdicts, "with --threads 1")
        check_same(outcomes, outcomes_traced, verdicts, "with tracing on")
        flat = [v for vs in verdicts for v in vs]
        failed = sum(v is not None for v in flat)
        values = layers.layer_metrics(
            tracer.spans, count,
            thread_speedup=sum(walls_one) / sum(walls),
            overhead_share=sum(walls_traced) / sum(walls) - 1.0,
        )
        metrics = {k: {"value": v, "unit": layers.UNITS[k]} for k, v in values.items()}
        print(f"{tag}: {count} rounds of {per_round} jobs per pass, "
              f"{len(tracer.spans)} spans", file=sys.stderr)
        write_report(tag + ".json", {
            "walls_s": walls, "walls_threads1_s": walls_one, "walls_traced_s": walls_traced,
            "metrics": metrics, "jobs": job_records(done, outcomes, verdicts),
        })
        write_report(f"{args.workload}-seed{args.seed}-spans.json",
                     {"fields": ["id", "name", "start", "end", "parent", "info"],
                      "spans": tracer.spans})

    for (kind, reason), times in Counter(v for v in flat if v is not None).items():
        print(f"  failed {times}x, {kind}: {reason}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": not any(v is not None and v[0] == "check" for v in flat),
        "attempted": len(flat),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
