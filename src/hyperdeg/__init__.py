"""Asymptotic and exact enumeration of r-uniform hypergraphs by degree sequence.

The package fits the maximum-entropy edge-weight model to a degree
sequence, evaluates closed asymptotic counting formulas, validates them
against exact small-instance oracles, and compares the three
degree-sequence probability models of random uniform hypergraphs.
"""

import os

# Pin BLAS pools to one thread before numpy loads, so that no library
# reduction depends on the machine's core count.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from .core import (
    DegreeSequence,
    DerivedParams,
    QuadrantTransform,
    apply_symmetry,
    canonicalize_first_quadrant,
    derive,
)
from .counts import (
    LogEstimate,
    estimate_corollary,
    estimate_general,
    estimate_near_regular,
    symmetry_audit,
)
from .fields import (
    FieldSummary,
    VertexClasses,
    field_summary,
)
from .matrices import (
    bound_suite,
    logdet_pd,
    weight_logdet,
)
from .models import (
    HypergeomSpec,
    ModelPoint,
    conditioned_sum_log_prob,
    hypergeom_pmf,
    measured_ratio,
    predicted_ratio,
    prob_model,
    sample_degree_batch,
)
from .oracle import cauchy_quadrature, exact_count, total_identity_check
from .solver import SolveReport, solve

__version__ = "0.1.0"

__all__ = [
    "DegreeSequence",
    "DerivedParams",
    "FieldSummary",
    "HypergeomSpec",
    "LogEstimate",
    "ModelPoint",
    "QuadrantTransform",
    "SolveReport",
    "VertexClasses",
    "apply_symmetry",
    "bound_suite",
    "canonicalize_first_quadrant",
    "cauchy_quadrature",
    "conditioned_sum_log_prob",
    "derive",
    "estimate_corollary",
    "estimate_general",
    "estimate_near_regular",
    "exact_count",
    "field_summary",
    "hypergeom_pmf",
    "logdet_pd",
    "measured_ratio",
    "predicted_ratio",
    "prob_model",
    "sample_degree_batch",
    "solve",
    "symmetry_audit",
    "total_identity_check",
    "weight_logdet",
]
