"""Enumeration budgets and work caps.

Exhaustive routines (class enumeration, exact tail censuses, verification
scans) refuse to start when the word count exceeds the budget, raising
CapacityError instead of silently degrading.  The default covers 2**24
words; the CYCLOCODE_BUDGET environment variable or an explicit ``budget=``
argument overrides it.  The class-graph work cap and the ball-probe
pattern limit below are read at call time.
"""

import os

from .errors import CapacityError

DEFAULT_ENUMERATION_BUDGET = 1 << 24

# Separate default for ball-intersection counting, measured in membership
# tests rather than enumerated words.
DEFAULT_INTERSECTION_BUDGET = 10**8

# Work cap for class-graph builds and scans, in packed word operations
# (rows times orbit length, or patterns times vertices times n).
ROWSCAN_BUDGET = 1_000_000_000

# Largest error-pattern count a ball probe applies, in a graph build or a
# code's distance check.
PATTERN_LIMIT = 2100

ENV_VAR = "CYCLOCODE_BUDGET"


def enumeration_budget(override: int | None = None) -> int:
    """Resolve the active enumeration budget.

    Precedence: explicit argument, then CYCLOCODE_BUDGET, then the default.
    """
    if override is not None:
        if override < 1:
            raise ValueError(f"budget must be positive, got {override}")
        return override
    raw = os.environ.get(ENV_VAR)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from None
        if value < 1:
            raise ValueError(f"{ENV_VAR} must be positive, got {value}")
        return value
    return DEFAULT_ENUMERATION_BUDGET


def check_budget(required: int, budget: int | None, what: str) -> None:
    """Raise CapacityError when `required` exceeds the resolved budget."""
    limit = enumeration_budget(budget)
    if required > limit:
        raise CapacityError(f"{what} exceeds enumeration budget", required=required, budget=limit)
