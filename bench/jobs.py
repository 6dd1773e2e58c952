"""Seeded job lists for the three benchmark workloads.

A workload is a list of rounds; a round is the workload's full job list,
run in order by one closed-loop client.  Every instance is drawn from the
benchmark seed and validated here, so the library only ever sees valid
instances.  Each job records n, r, C(n, r), its distinct-degree count k,
its shape and the seed that produced it.

Only the standard library and numpy's random generator are used, so
building a job list costs nothing beyond the import of numpy that
``import hyperdeg`` already pays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("fit", "exact", "models")

FIT_LADDER = ((20, 4), (30, 4), (40, 4), (24, 5))
FIT_AUDIT_N = (16, 18, 20)  # r = 4; C(n, 4)^2 stays within the subset budget
EXACT_HALF = ((6, 3), (6, 3), (7, 3), (7, 3), (7, 3), (7, 3))
# all degrees 1 on r*m vertices; C(14, 4) = 1001 and C(16, 4) = 1820 pass
# the oracle's recursion depth, which is the defect these jobs keep in view
EXACT_MATCHING = ((12, 3, 3), (14, 4, 3), (16, 4, 2))
EXACT_QUADRATURE = ((4, 2), (4, 3), (5, 2), (5, 3))
MODELS_SMALL = ((6, 3, 0.45, 0.45), (6, 3, 0.45, 0.45), (7, 3, 0.3, 0.3), (7, 3, 0.3, 0.3))
MODELS_RATIO_N = (10, 11, 12, 13, 14)  # r = 3, pinned to D-asymptotic
MODELS_SAMPLE = (12, 4, 100, 500)  # n, r, m, count


@dataclass
class Job:
    """One request: a CLI argv or a named public library call."""

    label: str
    meta: dict
    argv: list[str] | None = None
    call: str | None = None  # "module.function"
    instance: tuple | None = None  # (n, r, degrees), passed as a DegreeSequence
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    group: str = ""  # jobs on the same instance share a group, for paired checks

    @property
    def is_cli(self) -> bool:
        return self.argv is not None


def instance_meta(n: int, r: int, degrees, shape: str, seed: int) -> dict:
    return {
        "n": n,
        "r": r,
        "subsets": math.comb(n, r),
        "k": len(set(degrees)),
        "shape": shape,
        "seed": seed,
        "degrees": list(degrees),
    }


def validate_degrees(n: int, r: int, degrees) -> None:
    """Raise ValueError unless the degrees form a valid instance."""
    cap = math.comb(n - 1, r - 1)
    if len(degrees) != n:
        raise ValueError(f"{len(degrees)} degrees for n={n}")
    if any(d < 0 or d > cap for d in degrees):
        raise ValueError(f"degree outside [0, {cap}]: {degrees}")
    if sum(degrees) % r:
        raise ValueError(f"r={r} does not divide degree sum {sum(degrees)}")


def repair_parity(degrees: list[int], r: int, cap: int) -> list[int]:
    """Make the sum divisible by r, keeping every degree in [0, cap].

    Adds one at a time to the largest degree that is below the cap, so
    all-distinct degrees stay distinct.  Room always suffices: n * cap =
    r * C(n, r), so the total room is congruent to the shortfall mod r.
    """
    out = list(degrees)
    order = sorted(range(len(out)), key=out.__getitem__, reverse=True)
    for _ in range(-sum(out) % r):
        out[next(j for j in order if out[j] < cap)] += 1
    return out


def near_regular(rng, n: int, r: int, lo: float, hi: float, spread: int) -> list[int]:
    """Degrees d + U{-spread..spread} around d = lam * cap, lam ~ U[lo, hi]."""
    cap = math.comb(n - 1, r - 1)
    d = int(round(rng.uniform(lo, hi) * cap))
    degrees = [int(x) for x in d + rng.integers(-spread, spread + 1, size=n)]
    degrees = [min(max(x, 0), cap) for x in degrees]
    return repair_parity(degrees, r, cap)


def skewed(rng, n: int, r: int, lo: float = 0.15, hi: float = 0.5) -> list[int]:
    """All-distinct degrees drawn from [lo * cap, hi * cap]."""
    cap = math.comb(n - 1, r - 1)
    pool = np.arange(math.ceil(lo * cap), math.floor(hi * cap) + 1)
    degrees = [int(x) for x in rng.choice(pool, size=n, replace=False)]
    return repair_parity(degrees, r, cap)


def uniform(rng, n: int, r: int) -> list[int]:
    cap = math.comb(n - 1, r - 1)
    degrees = [int(x) for x in rng.integers(0, cap + 1, size=n)]
    return repair_parity(degrees, r, cap)


def _inline(n: int, r: int, degrees) -> str:
    return json.dumps({"n": n, "r": r, "degrees": list(degrees)})


def _fit_round(rng, seed: int, tag: str) -> list[Job]:
    jobs = []
    for n, r in FIT_LADDER:
        for shape in ("near-regular", "skewed"):
            if shape == "skewed":
                degrees = skewed(rng, n, r)
            else:
                degrees = near_regular(rng, n, r, 0.2, 0.45, 2)
            validate_degrees(n, r, degrees)
            meta = instance_meta(n, r, degrees, shape, seed)
            group = f"{tag}:{n}:{r}:{shape}"
            text = _inline(n, r, degrees)
            jobs.append(Job("solve", meta, argv=["solve", "--input", text], group=group))
            jobs.append(
                Job("count-general", meta,
                    argv=["count", "--method", "general", "--input", text], group=group)
            )
    for n in FIT_AUDIT_N:
        degrees = skewed(rng, n, 4)
        validate_degrees(n, 4, degrees)
        meta = instance_meta(n, 4, degrees, "skewed", seed)
        jobs.append(Job("audit", meta, argv=["audit", "--input", _inline(n, 4, degrees)]))
    return jobs


def _exact_round(rng, seed: int, tag: str) -> list[Job]:
    jobs = []
    for n, r in EXACT_HALF:
        degrees = near_regular(rng, n, r, 0.5, 0.5, 1)
        validate_degrees(n, r, degrees)
        jobs.append(
            Job("count-exact", instance_meta(n, r, degrees, "half-density", seed),
                argv=["count", "--method", "exact", "--input", _inline(n, r, degrees)])
        )
    for n, r, m in EXACT_MATCHING:
        degrees = [1] * (r * m) + [0] * (n - r * m)
        validate_degrees(n, r, degrees)
        meta = instance_meta(n, r, degrees, "matching", seed)
        meta["m"] = m
        jobs.append(
            Job("count-exact", meta,
                argv=["count", "--method", "exact", "--input", _inline(n, r, degrees)])
        )
    for n, r in EXACT_QUADRATURE:
        degrees = uniform(rng, n, r)
        validate_degrees(n, r, degrees)
        jobs.append(
            Job("count-quadrature", instance_meta(n, r, degrees, "uniform", seed),
                argv=["count", "--method", "quadrature", "--input", _inline(n, r, degrees)])
        )
    for n, m in ((5, int(rng.integers(2, 5))), (6, 2), (6, 3)):
        meta = {"n": n, "r": 3, "subsets": math.comb(n, 3), "k": None,
                "shape": "completeness", "seed": seed, "m": m}
        jobs.append(Job("total-identity", meta, call="oracle.total_identity_check",
                        args=(n, 3, m)))
    selftest_seed = int(rng.integers(0, 2**31))
    meta = {"n": None, "r": None, "subsets": None, "k": None, "shape": "identities",
            "seed": seed, "selftest_seed": selftest_seed}
    jobs.append(Job("selftest-identities", meta,
                    argv=["selftest", "identities", "--trials", "20",
                          "--seed", str(selftest_seed)]))
    return jobs


def _models_round(rng, seed: int, tag: str) -> list[Job]:
    jobs = []
    for n, r, lo, hi in MODELS_SMALL:
        degrees = near_regular(rng, n, r, lo, hi, 1)
        validate_degrees(n, r, degrees)
        jobs.append(
            Job("models", instance_meta(n, r, degrees, "near-regular", seed),
                argv=["models", "--compare", "d-vs-t,b-vs-d,klw",
                      "--input", _inline(n, r, degrees)])
        )
    for n in MODELS_RATIO_N:
        degrees = near_regular(rng, n, 3, 0.3, 0.45, 2)
        validate_degrees(n, 3, degrees)
        meta = instance_meta(n, 3, degrees, "near-regular", seed)
        for pair in ("d-vs-t", "b-vs-d"):
            jobs.append(
                Job("measured-ratio", dict(meta, pair=pair), call="models.measured_ratio",
                    instance=(n, 3, tuple(degrees)), args=(pair,),
                    kwargs={"d_model": "D-asymptotic"}, group=f"{tag}:{n}")
            )
    n, r, m, count = MODELS_SAMPLE
    for _ in range(2):
        sample_seed = int(rng.integers(0, 2**31))
        meta = {"n": n, "r": r, "subsets": math.comb(n, r), "k": None,
                "shape": "sample", "seed": seed, "m": m, "count": count,
                "sample_seed": sample_seed}
        jobs.append(
            Job("sample", meta,
                argv=["sample", "-n", str(n), "-r", str(r), "-m", str(m),
                      "--count", str(count), "--seed", str(sample_seed)])
        )
    return jobs


_BUILDERS = {"fit": _fit_round, "exact": _exact_round, "models": _models_round}


def build(workload: str, seed: int, rounds: int) -> list[list[Job]]:
    """The first ``rounds`` job lists of a workload, all from ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    streams = np.random.SeedSequence([seed, WORKLOADS.index(workload)]).spawn(rounds)
    return [
        _BUILDERS[workload](np.random.default_rng(stream), seed, f"round{i}")
        for i, stream in enumerate(streams)
    ]
