"""Asymptotic counting formulas and the four-quadrant audit.

Three evaluation routes are provided:

* the general formula, which needs a solved parameter vector and the
  log-determinant of the weight matrix;
* the near-regular closed formula, which needs no solve and gives the same
  bits for an instance and its edge-complement image (under the set
  complement it agrees to rounding, not bitwise);
* the first-quadrant corollary form, which replaces that determinant
  by the regular one, with corrections in the degree
  deviations.

The two closed routes add their corrections to one regular part,
``_regular_ln``, so on a regular instance they give the same bits.  All
values are natural logs of estimated counts.  The error indicators are
the formulas' error terms evaluated with implicit constant 1; they are
indicators, not bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DegreeSequence,
    DerivedParams,
    QuadrantTransform,
    apply_symmetry,
    canonicalize_first_quadrant,
)
from .errors import DensityDegenerate
from .fields import FieldSummary, logistic
from .matrices import weight_logdet
from .solver import apply_beta_symmetry, solve
from .subsets import colex_unrank

# random subsets per quadrant image on which the audit checks weight transfer
SPOT_CHECKS = 100


@dataclass
class LogEstimate:
    ln_value: float
    method: str  # "general" | "near-regular" | "corollary"
    error_terms: dict = field(default_factory=dict)
    assumption_flags: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "ln": self.ln_value,
            "log10": self.ln_value / math.log(10.0),
            "method": self.method,
            "error_terms": self.error_terms,
            "flags": self.assumption_flags,
        }


def error_indicators(params: DerivedParams) -> dict:
    """The error-term summands with implicit constant 1."""
    n, r, q = params.n, params.r, params.q
    if q <= 0:
        return {"q_term": math.inf, "log_power_term": math.inf, "superpoly_term": 0.0}
    log_n = math.log(n)
    return {
        "q_term": r**2 * (n - r) ** 2 / q,
        "log_power_term": (
            r**6 * (n - r) ** 6 * log_n**9 / (n**3.5 * q**1.5)
        ),
        "superpoly_term": n ** (-log_n),
    }


def _near_regular_extra(params: DerivedParams) -> float:
    q, n = params.q, params.n
    return params.delta_max * n**0.6 * q ** (-0.6) if q > 0 else math.inf


def _corollary_extra(params: DerivedParams) -> float:
    d = params.d
    return params.delta_max * d ** (-0.6) if d > 0 else math.inf


def _general_ln(field: FieldSummary, logdet: float) -> float:
    """``ln r - n ln 2 - (n/2) ln pi - (1/2) ln|A| + sum_W H(lambda_W)``.

    ``field`` is the sweep at a solution and ``logdet`` the log-determinant
    of its weight matrix A.  The value is the same in every quadrant frame:
    the entropy sum is invariant and ``|A'| = |A| ((n-r)/r)^2``.
    """
    n, r = field.n, field.r
    return (
        math.log(r)
        - n * math.log(2.0)
        - 0.5 * n * math.log(math.pi)
        - 0.5 * logdet
        + field.entropy
    )


def _regular_ln(params: DerivedParams) -> float:
    """The regular instance's count, the part both closed routes share.

    ``(1/2) ln( r (n-r) (n-1)^{n-1} / (2^n pi^n Q^n) )
    - C(n, r) (lam ln lam + (1-lam) ln(1-lam))``, in a float order
    symmetric in r and n - r.
    """
    n, r, lam = params.n, params.r, params.lam
    prefactor = 0.5 * (
        math.log(r)
        + math.log(n - r)
        + (n - 1) * math.log(n - 1)
        - n * math.log(2.0)
        - n * math.log(math.pi)
        - n * math.log(params.q)
    )
    xlnx = lam * math.log(lam) + (1.0 - lam) * math.log(1.0 - lam)
    return prefactor - math.comb(n, r) * xlnx


def _estimate(seq: DegreeSequence, method: str, ln_value, extra=None,
              canonical: bool = False) -> LogEstimate:
    """A route's estimate of ``seq``: ``ln_value(params)`` once every degree
    lies within the edge bounds and the density is inside (0, 1).

    ``params`` are those of ``seq``, or of its first-quadrant image if
    ``canonical``; the edge bounds hold for both or for neither.
    ``extra(params)``, if given, is the route's ``near_regular_term``.
    """
    seq.check_edge_bounds()
    params = (canonicalize_first_quadrant(seq)[0] if canonical else seq).params
    if not (0.0 < params.lam < 1.0):
        raise DensityDegenerate("empty or complete instance; use the exact oracle")
    terms = error_indicators(params)
    if extra is not None:
        terms["near_regular_term"] = extra(params)
    flags = {key: params.flags[key] for key in
             ("edge_size_in_range", "main_growth", "near_regular", "first_quadrant")}
    return LogEstimate(ln_value(params), method, terms, flags)


def estimate_general(seq: DegreeSequence) -> LogEstimate:
    """General-formula estimate: solve, assemble, take logs.

    The instance is moved to the first quadrant and solved there; if that
    solve repeats the process's last converged one (same classes, class
    degrees, start, ``tol`` and ``max_iter``, as ``solve`` states), it
    returns that one's bits with no sweep.  The formula is exactly
    frame-invariant, so any image's solve gives the same value to rounding.
    The log-determinant is ``weight_logdet``'s: one Cholesky of the k x k
    class Jacobian (the classes of ``seq.params``), which on singletons is
    the n x n weight matrix.
    """

    def ln_value(_: DerivedParams) -> float:
        field = solve(canonicalize_first_quadrant(seq)[0]).field
        return _general_ln(field, weight_logdet(field))

    return _estimate(seq, "general", ln_value)


def _near_regular_ln(params: DerivedParams) -> float:
    n, r, lam, q = params.n, params.r, params.lam, params.q
    r2, r3, r4 = params.r2, params.r3, params.r4
    return _regular_ln(params) + (
        -(n - 1) * r2 / (2.0 * q)
        + n**2 * r2 / (4.0 * q**2)
        + (1.0 - 2.0 * lam) * (n - 2 * r) * n * r3 / (6.0 * q**2)
        - n**3 * r4 / (12.0 * q**3)
    )


def estimate_near_regular(seq: DegreeSequence) -> LogEstimate:
    """Closed near-regular formula; no solve, the same bits under the edge
    complement.

    ``ln H = _regular_ln - (n-1) R2 / (2Q) + n^2 R2 / (4Q^2)
             + (1-2 lam)(n-2r) n R3 / (6Q^2) - n^3 R4 / (12Q^3)``.
    """
    return _estimate(seq, "near-regular", _near_regular_ln, _near_regular_extra)


def _corollary_ln(params: DerivedParams) -> float:
    n, r, lam, d = params.n, params.r, params.lam, params.d
    r2, r3, r4 = params.r2, params.r3, params.r4
    return _regular_ln(params) + (
        -(n - 1) * r2 / (2.0 * (1.0 - lam) * (n - r) * d)
        + r2 / (4.0 * d**2)
        + (1.0 - 2.0 * lam) * r3 / (6.0 * (1.0 - lam) ** 2 * d**2)
        - r4 / (12.0 * d**3)
    )


def estimate_corollary(seq: DegreeSequence) -> LogEstimate:
    """First-quadrant corollary form: the regular count plus degree-deviation
    corrections in d.

    Inputs outside the first quadrant are canonicalized first; the returned
    value is the canonical instance's, which equals the input's count.
    """
    return _estimate(seq, "corollary", _corollary_ln, _corollary_extra, canonical=True)


@dataclass
class QuadrantAudit:
    ln_values: dict
    max_ln_gap: float
    det_ratio_checks: dict
    lambda_identity_gap: float


def symmetry_audit(seq: DegreeSequence, rng_seed: int = 2024) -> QuadrantAudit:
    """Solve all four quadrant images and compare the general estimates.

    The identity image is the base solve, ``solve(seq)``, which sweeps
    nothing if it repeats the process's last converged solve; each other
    image is solved once, seeded with the base solution moved by the exact
    solution symmetry.  Each image's
    general formula is evaluated from its own solve's field sweep in its own
    frame, so ``max_ln_gap`` measures how well four independent evaluations
    agree.  Also verifies the determinant ratios ((n-r)/r)^2 between images
    and spot-checks the edge-weight transfer identities on ``SPOT_CHECKS``
    random subsets.
    """
    n, r = seq.n, seq.r
    base_report = solve(seq)
    base_beta = base_report.beta_star
    base_logdet = weight_logdet(base_report.field)

    ln_values: dict = {}
    det_checks: dict = {}
    lambda_gap = 0.0
    rng = np.random.default_rng(rng_seed)
    total = math.comb(n, r)

    for t in QuadrantTransform:
        if t is QuadrantTransform.IDENTITY:
            image_report, image_logdet = base_report, base_logdet
        else:
            image = apply_symmetry(seq, t)
            # read the moved solution on the image's own classes: a base
            # solved on singletons (r > n/2) agrees within a degree class
            # only to rounding, where the image at n - r may take classes
            classes = image.params.classes
            seed = apply_beta_symmetry(base_beta, t, n, r)[classes.first]
            image_report = solve(image, seed_beta=seed[classes.index])
            image_logdet = weight_logdet(image_report.field)
        ln_values[t.value] = _general_ln(image_report.field, image_logdet)

        image_beta = image_report.beta_star
        expected = base_logdet
        if t.edge:
            expected += 2.0 * math.log((n - r) / r)
        det_checks[t.value] = {
            "logdet": image_logdet,
            "expected": expected,
            "rel_gap": abs(image_logdet - expected) / max(1.0, abs(expected)),
        }

        # weight transfer: full subsets map to complements under the
        # edge-size-changing transforms, and weights to 1 - weight under
        # the set complement
        ranks = rng.integers(0, total, size=min(SPOT_CHECKS, total))
        rows = colex_unrank(ranks, n, r)
        expected_lw = logistic(base_beta[rows].sum(axis=1))
        if t.edge:
            # complementing reverses colex order: rank p maps to C(n, r) - 1 - p
            rows = colex_unrank(total - 1 - ranks, n, n - r)
        if t.complement:
            expected_lw = 1.0 - expected_lw
        other = logistic(image_beta[rows].sum(axis=1))
        lambda_gap = float(np.abs(other - expected_lw).max(initial=lambda_gap))

    values = list(ln_values.values())
    max_gap = max(abs(a - b) for a in values for b in values)
    return QuadrantAudit(
        ln_values=ln_values,
        max_ln_gap=max_gap,
        det_ratio_checks=det_checks,
        lambda_identity_gap=lambda_gap,
    )
