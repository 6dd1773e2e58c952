"""Enumeration budgets.

Every operation that enumerates r-subsets or DP states checks an operation
count against a budget before starting; the quadrature charges its grid
points times C(n, r), one factor per r-subset at each point, to the subset
budget.  Budgets are hard guards, not hints: exceeding one raises
``BudgetExceeded`` rather than silently truncating.  The environment
variable ``HYPERDEG_BUDGET``, read at each check, overrides both defaults at
once and must be a finite number of at least 1.
"""

from __future__ import annotations

import math
import os

from .errors import BudgetExceeded

SUBSET_BUDGET_DEFAULT = 10**8
DP_BUDGET_DEFAULT = 10**9

_ENV_VAR = "HYPERDEG_BUDGET"


def env_budget() -> int | None:
    """The budget set by ``HYPERDEG_BUDGET``, or None when it is unset.

    A budget is a finite number of at least 1, read as a number and
    truncated (``1e3`` is 1000); any other value raises ``ValueError``.
    """
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 1):
        raise ValueError(f"{_ENV_VAR}={raw!r} is not a finite number of at least 1")
    return int(value)


# a set budget is at least 1, so ``or`` falls back to a default only when unset
def subset_budget() -> int:
    return env_budget() or SUBSET_BUDGET_DEFAULT


def dp_budget() -> int:
    return env_budget() or DP_BUDGET_DEFAULT


def check_subset_budget(count: int) -> None:
    limit = subset_budget()
    if count > limit:
        raise BudgetExceeded(
            f"enumeration of {count} subsets exceeds budget {limit}"
        )


def check_dp_budget(count: int) -> None:
    limit = dp_budget()
    if count > limit:
        raise BudgetExceeded(
            f"DP bound of {count} state-edge operations exceeds budget {limit}"
        )
