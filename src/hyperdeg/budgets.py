"""Enumeration budgets.

Every operation that enumerates r-subsets or DP states checks an operation
count against a budget before starting; the quadrature charges its grid
points times C(n, r), one factor per r-subset at each point, to the subset
budget.  Budgets are hard guards, not hints: exceeding one raises
``BudgetExceeded`` rather than silently truncating.  The environment
variable ``HYPERDEG_BUDGET`` overrides both defaults at once and must be a
finite number of at least 1; individual calls may also pass an explicit
budget.
"""

from __future__ import annotations

import math
import os

from .errors import BudgetExceeded

SUBSET_BUDGET_DEFAULT = 10**8
DP_BUDGET_DEFAULT = 10**9

_ENV_VAR = "HYPERDEG_BUDGET"


def parse_budget(raw, name: str) -> int:
    """``raw`` as a budget, named ``name`` in the error.

    A budget is a finite number of at least 1, read as a number and
    truncated (``1e3`` is 1000); any other value raises ``ValueError``.
    """
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 1):
        raise ValueError(f"{name}={raw!r} is not a finite number of at least 1")
    return int(value)


def env_budget() -> int | None:
    """The budget set by ``HYPERDEG_BUDGET``, or None when it is unset."""
    raw = os.environ.get(_ENV_VAR)
    return None if raw is None else parse_budget(raw, _ENV_VAR)


def _limit(override: int | None, default: int) -> int:
    """An explicit budget, else ``HYPERDEG_BUDGET``, else the default."""
    if override is not None:
        return int(override)
    env = env_budget()
    return default if env is None else env


def subset_budget(override: int | None = None) -> int:
    return _limit(override, SUBSET_BUDGET_DEFAULT)


def dp_budget(override: int | None = None) -> int:
    return _limit(override, DP_BUDGET_DEFAULT)


def check_subset_budget(count: int, override: int | None = None) -> None:
    limit = subset_budget(override)
    if count > limit:
        raise BudgetExceeded(
            f"enumeration of {count} subsets exceeds budget {limit}"
        )


def check_dp_budget(count: int, override: int | None = None) -> None:
    limit = dp_budget(override)
    if count > limit:
        raise BudgetExceeded(
            f"DP bound of {count} state-edge operations exceeds budget {limit}"
        )
