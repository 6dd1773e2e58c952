"""Output checks that share no code with the library under test.

Every reference here is computed from first principles with the standard
library and numpy: subsets from ``itertools.combinations``, exact counts by
meet-in-the-middle enumeration of edge sets, the general formula from an
explicit incidence matrix with ``numpy.linalg.slogdet``, the binomial model
with ``math.lgamma``, and the hypergeometric normalizer by repeated linear
convolution.  Checks run outside the timed section.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

LN_ATOL = 2e-7  # a 1e-6 shift in a reported ln value must fail
RATIO_ATOL = 1e-8
VERTEX_RTOL = 1e-8
AUDIT_LN_GAP = 1e-7  # relative to max(1, |ln|)
AUDIT_DET_GAP = 1e-8
AUDIT_LAMBDA_GAP = 1e-10
QUADRATURE_RTOL = 1e-8


def _logistic(s: np.ndarray) -> np.ndarray:
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    e = np.exp(s[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def log_binom(a: int, b: int) -> float:
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


class Checker:
    """Reference computations, with per-(n, r) tables cached on the object."""

    def __init__(self):
        self._incidence: dict = {}
        self._halves: dict = {}

    # -- fit ------------------------------------------------------------

    def incidence(self, n: int, r: int) -> np.ndarray:
        key = (n, r)
        if key not in self._incidence:
            rows = np.array(list(itertools.combinations(range(n), r)), dtype=np.int64)
            inc = np.zeros((rows.shape[0], n))
            inc[np.arange(rows.shape[0])[:, None], rows] = 1.0
            self._incidence[key] = inc
        return self._incidence[key]

    def vertex_sums(self, n: int, r: int, beta) -> np.ndarray:
        inc = self.incidence(n, r)
        return inc.T @ _logistic(inc @ np.asarray(beta, dtype=np.float64))

    def general_ln(self, n: int, r: int, beta) -> float:
        """ln of the general counting formula at a solved beta."""
        inc = self.incidence(n, r)
        s = inc @ np.asarray(beta, dtype=np.float64)
        lam = _logistic(s)
        one_minus = _logistic(-s)
        weights = 0.5 * (inc.T @ ((lam * one_minus)[:, None] * inc))
        sign, logdet = np.linalg.slogdet(weights)
        if sign <= 0:
            raise ValueError("weight matrix is not positive definite")
        entropy = math.fsum((-lam * np.log(lam) - one_minus * np.log(one_minus)).tolist())
        return (
            math.log(r) - n * math.log(2.0) - 0.5 * n * math.log(math.pi)
            - 0.5 * logdet + entropy
        )

    def check_solve(self, meta: dict, payload: dict) -> str | None:
        n, r, degrees = meta["n"], meta["r"], meta["degrees"]
        if payload.get("converged") is not True:
            return "solve did not report convergence"
        beta = payload["beta"]
        if len(beta) != n:
            return f"beta has {len(beta)} entries for n={n}"
        gap = np.abs(self.vertex_sums(n, r, beta) - np.asarray(degrees, dtype=float))
        limit = VERTEX_RTOL * max(1.0, sum(degrees) / n)
        if gap.max() > limit:
            return f"vertex sums miss the degrees by {gap.max():.3e} > {limit:.1e}"
        return None

    def check_general(self, meta: dict, payload: dict, beta) -> str | None:
        if beta is None:
            return "no verified beta for this instance"
        expected = self.general_ln(meta["n"], meta["r"], beta)
        gap = abs(payload["ln"] - expected)
        if not gap <= LN_ATOL:
            return f"ln {payload['ln']!r} differs from recomputed {expected!r} by {gap:.3e}"
        return None

    @staticmethod
    def check_audit(payload: dict) -> str | None:
        quadrants = payload["quadrants"]
        scale = max([1.0] + [abs(v) for v in quadrants["ln_values"].values()])
        if not quadrants["max_ln_gap"] <= AUDIT_LN_GAP * scale:
            return f"quadrant ln gap {quadrants['max_ln_gap']:.3e}"
        for name, det in quadrants["det_ratio_checks"].items():
            if not det["rel_gap"] <= AUDIT_DET_GAP:
                return f"determinant ratio gap {det['rel_gap']:.3e} for {name}"
        if not quadrants["lambda_identity_gap"] <= AUDIT_LAMBDA_GAP:
            return f"weight transfer gap {quadrants['lambda_identity_gap']:.3e}"
        for check in payload["weight_ratio_checks"] + payload["matrix_checks"]:
            if check["status"] == "fail":
                return f"bound check {check['name']} failed"
        return None

    # -- exact ----------------------------------------------------------

    def _half_tables(self, n: int, r: int):
        """Degree vectors of every edge set, split into two halves of the family."""
        key = (n, r)
        if key not in self._halves:
            edges = list(itertools.combinations(range(n), r))
            if len(edges) > 40:
                raise ValueError(f"C({n}, {r}) = {len(edges)} is too large to enumerate")
            base = math.comb(n - 1, r - 1) + 1
            powers = base ** np.arange(n, dtype=np.int64)
            halves = []
            for part in (edges[: len(edges) // 2], edges[len(edges) // 2:]):
                vecs = np.zeros((1, n), dtype=np.int64)
                for edge in part:
                    step = np.zeros(n, dtype=np.int64)
                    step[list(edge)] = 1
                    vecs = np.concatenate([vecs, vecs + step])
                halves.append(vecs)
            keys, counts = np.unique(halves[1] @ powers, return_counts=True)
            self._halves[key] = (halves[0], powers, keys, counts)
        return self._halves[key]

    def brute_count(self, n: int, r: int, degrees) -> int:
        """Number of edge sets with the given degrees, by full enumeration."""
        left, powers, keys, counts = self._half_tables(n, r)
        target = np.asarray(degrees, dtype=np.int64)
        fits = left[(left <= target).all(axis=1)]
        need = int(target @ powers) - fits @ powers
        pos = np.searchsorted(keys, need)
        pos = np.minimum(pos, keys.size - 1)
        hit = keys[pos] == need
        return int(counts[pos[hit]].sum())

    @staticmethod
    def matching_count(r: int, m: int) -> int:
        return math.factorial(r * m) // (math.factorial(r) ** m * math.factorial(m))

    def check_exact(self, meta: dict, payload: dict) -> str | None:
        n, r, degrees = meta["n"], meta["r"], meta["degrees"]
        if meta["shape"] == "matching":
            expected = self.matching_count(r, meta["m"])
        else:
            # the edge-complement image (n, n - r, m - d) has the same count
            m = sum(degrees) // r
            expected = self.brute_count(n, n - r, [m - d for d in degrees])
        if payload.get("count") != expected:
            return f"count {payload.get('count')!r} != {expected}"
        return None

    def check_quadrature(self, meta: dict, payload: dict) -> str | None:
        expected = self.brute_count(meta["n"], meta["r"], meta["degrees"])
        value = payload["value"]
        if not abs(value - expected) <= QUADRATURE_RTOL * max(1.0, expected):
            return f"quadrature {value!r} != exact {expected}"
        if not payload["imag_residual"] <= QUADRATURE_RTOL * max(1.0, expected):
            return f"imaginary residual {payload['imag_residual']:.3e}"
        return None

    @staticmethod
    def check_selftest(payload: list) -> str | None:
        if not payload:
            return "empty selftest report"
        for row in payload:
            if row["failures"] or row["trials"] != 20:
                return f"identity family {row['expression']} failed"
        return None

    # -- models ---------------------------------------------------------

    @staticmethod
    def ln_binomial_model(n: int, r: int, degrees) -> float:
        marked = math.comb(n - 1, r - 1)
        total = sum(degrees)
        return sum(log_binom(marked, d) for d in degrees) - log_binom(n * marked, total)

    @staticmethod
    def ln_hypergeometric_normalizer(n: int, r: int, m: int) -> float:
        """ln Prob(sum of n iid per-vertex degrees = r m), by convolution."""
        population = math.comb(n, r)
        marked = math.comb(n - 1, r - 1)
        total = math.comb(population, m)
        pmf = np.array([
            math.comb(marked, k) * math.comb(population - marked, m - k) / total
            if m - k >= 0 else 0.0
            for k in range(marked + 1)
        ])
        acc = pmf
        for _ in range(n - 1):
            acc = np.convolve(acc, pmf)
        return math.log(acc[r * m])

    def ln_hypergeometric_model(self, n: int, r: int, degrees) -> float:
        population = math.comb(n, r)
        marked = math.comb(n - 1, r - 1)
        m = sum(degrees) // r
        ln = -n * log_binom(population, m) - self.ln_hypergeometric_normalizer(n, r, m)
        for d in degrees:
            ln += log_binom(marked, d) + log_binom(population - marked, m - d)
        return ln

    def ln_other(self, pair: str, n: int, r: int, degrees) -> float:
        if pair == "d-vs-t":
            return self.ln_hypergeometric_model(n, r, degrees)
        return self.ln_binomial_model(n, r, degrees)

    def check_models(self, meta: dict, payload: dict) -> str | None:
        n, r, degrees = meta["n"], meta["r"], meta["degrees"]
        m = sum(degrees) // r
        count = self.brute_count(n, r, degrees)
        ln_d = math.log(count) - math.log(math.comb(math.comb(n, r), m))
        rows = payload["comparisons"]
        if [row["pair"] for row in rows] != ["d-vs-t", "b-vs-d", "klw"]:
            return "unexpected comparison rows"
        for row in rows:
            if row["d_model"] != "D-exact":
                return f"{row['pair']} fell back to {row['d_model']}"
            expected = ln_d - self.ln_other(row["pair"], n, r, degrees)
            gap = abs(row["measured_ln_ratio"] - expected)
            if not gap <= RATIO_ATOL:
                return f"{row['pair']} measured ln ratio off by {gap:.3e}"
        return None

    def check_ratio_pair(self, metas: list, values: list) -> str | None:
        """Both pairs of one instance must imply the same ln Prob_D."""
        implied = [
            value + self.ln_other(meta["pair"], meta["n"], meta["r"], meta["degrees"])
            for meta, value in zip(metas, values)
        ]
        gap = max(implied) - min(implied)
        if not gap <= RATIO_ATOL:
            return f"ln Prob_D implied by the pairs differs by {gap:.3e}"
        return None

    @staticmethod
    def check_sample(meta: dict, stdout: str) -> str | None:
        n, r, m, count = meta["n"], meta["r"], meta["m"], meta["count"]
        cap = math.comb(n - 1, r - 1)
        lines = stdout.splitlines()
        if lines[0] != ",".join(f"d_{j + 1}" for j in range(n)):
            return "bad CSV header"
        if len(lines) != count + 1:
            return f"{len(lines) - 1} rows for count {count}"
        rows = np.array([[int(x) for x in line.split(",")] for line in lines[1:]])
        if rows.shape[1] != n:
            return "wrong row width"
        if (rows.sum(axis=1) != r * m).any():
            return "a sampled row does not sum to r m"
        if (rows < 0).any() or (rows > cap).any():
            return "a sampled degree is outside [0, cap]"
        return None


def check_round(checker: Checker, jobs: list, outcomes: list) -> list:
    """One verdict per job: None when the output is correct, else a reason.

    ``outcomes`` holds, per job, ``(stdout, value)`` for a job that returned
    (exit code 0 for the CLI), or None for one that already failed.
    """
    verdicts: list = [None] * len(jobs)
    betas: dict = {}
    pairs: dict = {}
    for i, (job, outcome) in enumerate(zip(jobs, outcomes)):
        if outcome is None:
            continue
        stdout, value = outcome
        try:
            verdicts[i] = _check_one(checker, job, stdout, value, betas, pairs, i)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            verdicts[i] = f"unreadable output: {type(exc).__name__}: {exc}"
    for indices in pairs.values():
        metas = [jobs[i].meta for i in indices]
        values = [outcomes[i][1] for i in indices]
        if len(indices) < 2:
            reason = "the other ratio of this instance failed, so this one is unchecked"
        else:
            reason = checker.check_ratio_pair(metas, values)
        if reason:
            for i in indices:
                verdicts[i] = verdicts[i] or reason
    return verdicts


def _check_one(checker, job, stdout, value, betas, pairs, index):
    label = job.label
    if label == "sample":
        return checker.check_sample(job.meta, stdout)
    if label == "total-identity":
        return None if value is True else "completeness identity does not hold"
    if label == "measured-ratio":
        if not isinstance(value, float) or not math.isfinite(value):
            return f"measured ratio {value!r} is not a finite float"
        pairs.setdefault(job.group, []).append(index)
        return None
    payload = json.loads(stdout)
    if label == "solve":
        reason = checker.check_solve(job.meta, payload)
        if reason is None:
            betas[job.group] = payload["beta"]
        return reason
    if label == "count-general":
        return checker.check_general(job.meta, payload, betas.get(job.group))
    if label == "audit":
        return checker.check_audit(payload)
    if label == "count-exact":
        return checker.check_exact(job.meta, payload)
    if label == "count-quadrature":
        return checker.check_quadrature(job.meta, payload)
    if label == "selftest-identities":
        return checker.check_selftest(payload)
    if label == "models":
        return checker.check_models(job.meta, payload)
    raise ValueError(f"no check for job label {label!r}")
