"""Damped Newton solver for the degree system.

The system asks for a vector beta whose per-vertex sums of edge weights
reproduce the degrees: ``sum_{W contains j} lambda_W(beta) = d_j``.  Its
Jacobian is exactly twice the weight matrix, which is symmetric positive
definite away from degenerate edge sizes, so a Cholesky factorization
certifies each Newton step before one linear solve takes it; vertices of
equal degree share one unknown, so the step is k x k in the k distinct
degrees when that is cheaper.  A solution is unique when it
exists (the segment entropy between two candidate solutions is strictly
concave), which justifies single-solution semantics: a report is the
solution of its instance.

The iteration starts from the solution of the regular instance of the
same density, logit(lam) / r on every vertex, unless a custom seed is
given.  Since the solution is unique, the seed only picks the path to it.

The process keeps its last converged solve at the class level, and a solve
that would repeat that iteration from the same start returns it with no
sweep (see ``solve``).  That slot is the one way to reuse a solve: a
caller that needs the solution of an instance calls ``solve`` on it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .budgets import check_subset_budget
from .core import DegreeSequence, DerivedParams, QuadrantTransform
from .errors import DensityDegenerate, NonConvergence, SingularJacobian
from .fields import FieldSummary, as_beta_array, field_summary

SPREAD_GUARD = 50.0
MAX_HALVINGS = 60

# the last converged solve, (key, report), its beta per class and its arrays
# read-only; None before the first
_last: tuple | None = None


@dataclass
class SolveReport:
    beta_star: np.ndarray
    iterations: int
    residual_inf: float
    spread: float
    converged: bool
    seed_used: str
    # the field sweep at beta_star, taken by the last Newton evaluation
    field: FieldSummary

    def to_json_dict(self) -> dict:
        return {
            "beta": self.beta_star.tolist(),
            "residual_inf": self.residual_inf,
            "iterations": self.iterations,
            "converged": self.converged,
            "seed": self.seed_used,
        }


def _regular_seed(params: DerivedParams) -> np.ndarray:
    """logit(lam) / r on every class: the solution of the regular instance."""
    lam = params.lam
    if not (0.0 < lam < 1.0):
        raise DensityDegenerate(f"density {lam} has no finite seed")
    return np.full(params.classes.k, math.log(lam / (1.0 - lam)) / params.r)


def solve(
    seq: DegreeSequence,
    seed_beta=None,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> SolveReport:
    """Solve the degree system by damped Newton iteration.

    The iteration runs on the classes of ``seq.params.classes``:
    vertices of equal degree share one beta (the solution is unique), so
    the unknowns are the k class betas, each residual is a class's, and
    the step solves ``(U^T 2A U) step = -U^T residual`` once a Cholesky
    factorization has found that Jacobian positive definite, which
    is the n-dimensional Newton step restricted to class-constant vectors.
    At k = n (singletons) this is the plain Newton step on all C(n, r)
    subsets.  The degrees alone pick the classes: a custom ``seed_beta``
    must be equal on the vertices of each class (vertices of equal degree
    whenever the class route is taken), else ``ValueError``.

    Backtracking halves the step until the sup-norm residual strictly
    decreases, and the spread guard aborts once ``spread * r`` exceeds 50
    (far outside any regime with a solution).  Convergence means
    ``max_j |residual_j| <= tol * max(d, 1)``.

    Every point is evaluated by one field sweep, which gives both its
    residual and its Jacobian: a solve costs 1 + iterations + halvings
    sweeps.  A solve that repeats the process's last converged solve costs
    none: when (n, r, the class sizes, ``params.class_degrees``, the start
    vector's bytes, ``tol``, ``max_iter``) equal that solve's, the iteration
    would retrace it, so its class beta, iteration count, residual and field
    are returned on this call's classes and seed label, with the same bits.
    A permutation of the degrees hits on the class route; on singletons
    ``class_degrees`` is in vertex order, so it misses.  The report's
    arrays are read-only.
    """
    global _last
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if (isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer))
            or max_iter < 0):
        raise ValueError(f"max_iter must be a non-negative integer, got {max_iter!r}")
    params, classes = seq.params, seq.params.classes
    n, r = seq.n, seq.r
    check_subset_budget(classes.rows(r))
    if seed_beta is None:
        beta, seed_used = _regular_seed(params), "regular"
    else:
        seed = as_beta_array(seed_beta, n)
        beta, seed_used = seed[classes.first], "custom"
        if not np.array_equal(beta[classes.index], seed, equal_nan=True):
            raise ValueError("seed must be equal on vertices of equal degree")
    if not np.all(np.isfinite(beta)):
        raise ValueError("seed vector must be finite")
    # the start by its bytes: a start at -0.0 prints its beta as -0.0
    key = (n, r, classes.sizes.tobytes(), params.class_degrees, beta.tobytes(),
           tol, int(max_iter))
    if _last is not None and _last[0] == key:
        return _on_classes(_last[1], classes, seed_used)

    sizes = classes.sizes.astype(np.float64)
    degrees = np.asarray(params.class_degrees, dtype=np.float64)
    target = tol * max(params.d, 1.0)

    def evaluate(point):
        field = field_summary(point, n, r, classes=classes)
        residual = field.class_sums - degrees
        return field, residual, float(np.abs(residual).max())

    field, residual, res_norm = evaluate(beta)
    for iteration in range(max_iter + 1):
        if res_norm <= target:
            for arr in (beta, field.class_sums, field.class_variance,
                        field.pair_blocks):
                arr.setflags(write=False)
            _last = (key, SolveReport(
                beta_star=beta,
                iterations=iteration,
                residual_inf=res_norm,
                spread=float(beta.max() - beta.min()),
                converged=True,
                seed_used=seed_used,
                field=field,
            ))
            return _on_classes(_last[1], classes, seed_used)
        if iteration == max_iter:
            break
        jacobian = field.class_jacobian()
        try:
            np.linalg.cholesky(jacobian)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(
                f"Jacobian not positive definite at iteration {iteration}: {exc}"
            ) from exc
        # the factor only certifies the Jacobian; one k x k solve costs
        # little beside the sweep each evaluation takes
        step = np.linalg.solve(jacobian, -(sizes * residual))

        scale = 1.0
        for _ in range(MAX_HALVINGS + 1):
            candidate = beta + scale * step
            cand_field, cand_residual, cand_norm = evaluate(candidate)
            if cand_norm < res_norm:
                break
            scale *= 0.5
        else:
            raise NonConvergence(
                f"{MAX_HALVINGS} step halvings without residual decrease "
                f"(residual {res_norm:.3e})"
            )
        beta, field = candidate, cand_field
        residual, res_norm = cand_residual, cand_norm
        spread = float(beta.max() - beta.min())
        if spread * r > SPREAD_GUARD:
            raise NonConvergence(
                f"spread*r = {spread * r:.2f} exceeded guard {SPREAD_GUARD}; "
                "instance appears infeasible"
            )

    raise NonConvergence(
        f"no convergence after {max_iter} iterations (residual {res_norm:.3e})"
    )


def _on_classes(report: SolveReport, classes, seed_used: str) -> SolveReport:
    """A copy of a report per class, its beta gathered onto ``classes``.

    The copy shares no object a caller can change with ``report``: the
    gathered beta is read-only, and the field is a new ``FieldSummary`` on
    the read-only class arrays.
    """
    beta_star = report.beta_star[classes.index]
    beta_star.setflags(write=False)
    return dataclasses.replace(
        report, beta_star=beta_star, seed_used=seed_used,
        field=dataclasses.replace(report.field, classes=classes),
    )


def apply_beta_symmetry(beta, t: QuadrantTransform, n: int, r: int) -> np.ndarray:
    """Solution vector of the transformed instance, given one for the base.

    The edge complement maps beta to sum(beta) / (n - r) - beta, and the
    set complement then negates; the identity returns a copy.
    """
    arr = as_beta_array(beta, n).copy()
    if t.edge:
        arr = arr.sum() / (n - r) - arr
    if t.complement:
        arr = -arr
    return arr
